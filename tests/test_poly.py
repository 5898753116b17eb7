"""Tests for sparse polynomials over F_p and the mixed pi-adic model."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshold_lab.poly import (
    MixedPoly,
    RingContext,
    SparsePolyFp,
    pow_mixed,
    pth_root_mod_fp,
    reduce_mod_pi,
    weighted_membership,
)


def sp(p, vars, terms):
    return SparsePolyFp(p, tuple(vars), dict(terms))


def fp_mul(f, g):
    """f * g over F_p, term by term; the constructor reduces mod p."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return SparsePolyFp(f.p, f.vars, out)


def frobenius(h):
    """h^p over F_p: c^p = c and (a + b)^p = a^p + b^p, so the exponents
    are multiplied by p."""
    return sp(h.p, h.vars, {tuple(h.p * e for e in exps): c for exps, c in h.terms.items()})


# -- SparsePolyFp ----------------------------------------------------------


def test_coefficients_normalized_mod_p():
    f = sp(3, ("x",), {(1,): 4, (0,): -1})
    assert f.terms == {(1,): 1, (0,): 2}
    assert sp(2, ("x",), {(1,): 2}).is_zero()


def test_sparse_str():
    g = sp(3, ("x", "y"), {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert str(g) == "x^2 + 2*x*y + y^2"
    assert str(sp(3, ("x",), {})) == "0"


@pytest.mark.parametrize("p, terms, root_terms", [
    (2, {(2, 0): 1, (0, 2): 1}, {(1, 0): 1, (0, 1): 1}),
    (3, {(3, 0): 1, (0, 3): 2}, {(1, 0): 1, (0, 1): 2}),
    (5, {(0, 0): 4}, {(0, 0): 4}),
])
def test_pth_root_exists(p, terms, root_terms):
    f = sp(p, ("x", "y"), terms)
    h = pth_root_mod_fp(f)
    assert h is not None
    assert h.terms == root_terms
    assert frobenius(h) == f


@pytest.mark.parametrize("p, terms", [
    (2, {(1, 0): 1}),
    (3, {(3, 0): 1, (1, 0): 1}),
])
def test_pth_root_absent(p, terms):
    assert pth_root_mod_fp(sp(p, ("x", "y"), terms)) is None


@st.composite
def sparse_polys(draw, max_vars=3, max_exp=4, max_terms=5):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, max_vars))
    vars = tuple("xyz"[:n])
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        key = tuple(draw(st.integers(0, max_exp)) for _ in range(n))
        terms[key] = draw(st.integers(1, p - 1)) if p > 2 else 1
    return SparsePolyFp(p, vars, terms)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pth_power_has_pth_root(data):
    h = data.draw(sparse_polys(max_exp=2, max_terms=3))
    f = frobenius(h)
    r = pth_root_mod_fp(f)
    assert r is not None and r == h
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(h.vars)
    expr = sum(c * sympy.prod(x**k for x, k in zip(gens, e)) for e, c in h.terms.items())
    power = sympy.Poly(expr, *gens, modulus=h.p) ** h.p
    assert {m: int(c) % h.p for m, c in power.terms() if int(c) % h.p} == f.terms


# -- MixedPoly -------------------------------------------------------------


def test_mixed_effective_pi_order():
    h = MixedPoly(3, 1, ("x",), {(0, (2,)): 6, (1, (0,)): 1})
    ctx = RingContext(3, ("x",), ram_level=1)
    assert ctx.pi_order(0, h.terms[(0, (2,))]) == 3   # v_3(6) = 1, times p^a = 3
    assert ctx.pi_order(1, h.terms[(1, (0,))]) == 1
    assert str(h) == "6*x^2 + pi"


@pytest.mark.parametrize("ram_level, cyclotomic, multiplier", [
    (0, False, 1),
    (1, False, 5),
    (2, False, 25),     # p^a in the root tower
    (0, True, 4),       # p - 1 over W[zeta_p]
])
def test_ring_pi_order(ram_level, cyclotomic, multiplier):
    ctx = RingContext(5, ("x",), ram_level=ram_level, cyclotomic=cyclotomic)
    assert ctx.pi_multiplier == multiplier
    assert ctx.pi_order(0, 7) == 0
    assert ctx.pi_order(3, -7) == 3
    assert ctx.pi_order(0, 5) == multiplier
    assert ctx.pi_order(2, -250) == 2 + 3 * multiplier
    # 5*x lies in (pi^4, x^4) exactly when p has pi-order at least 4
    f = MixedPoly(5, ram_level, ("x",), {(0, (1,)): 5})
    assert weighted_membership(f, ctx, 4).contained is (multiplier >= 4)


def test_mixed_rejects_bad_input():
    with pytest.raises(ValueError):
        MixedPoly(4, 0, ("x",), {(0, (1,)): 1})
    with pytest.raises(ValueError):
        MixedPoly(3, -1, ("x",), {(0, (1,)): 1})
    with pytest.raises(ValueError):
        MixedPoly(3, 0, ("x",), {(0, (1, 0)): 1})  # exps/vars length mismatch
    with pytest.raises(ValueError):
        MixedPoly(3, 0, ("x",), {(-1, (1,)): 1})


def test_ring_context_checks_variable_names():
    """The parser builds through MixedPoly._of, so the ring context is where a
    parsed polynomial's variable names are checked, and made a tuple."""
    with pytest.raises(ValueError, match="duplicate variable names"):
        RingContext(3, ("x", "y", "x"))
    assert RingContext(3, ["x", "y"]).vars == ("x", "y")


def test_mixed_drops_zero_coefficients():
    f = MixedPoly(3, 0, ("x",), {(0, (1,)): 0, (2, (0,)): 3})
    assert set(f.terms) == {(2, (0,))}


def test_mixed_json_round_trip():
    f = MixedPoly(2, 0, ("x", "y"), {(3, (0, 0)): 1, (0, (3, 0)): 1, (0, (0, 3)): 1})
    text = json.dumps(f.to_doc(), separators=(",", ":"))
    assert text == (
        '{"p":2,"ram_level":0,"vars":["x","y"],"terms":'
        '[{"pi":3,"exps":[0,0],"coeff":"1"},{"pi":0,"exps":[3,0],"coeff":"1"},'
        '{"pi":0,"exps":[0,3],"coeff":"1"}]}'
    )
    doc = json.loads(text)
    terms = {(t["pi"], tuple(t["exps"])): int(t["coeff"]) for t in doc["terms"]}
    assert MixedPoly(doc["p"], doc["ram_level"], tuple(doc["vars"]), terms) == f
    assert str(f) == "pi^3 + x^3 + y^3"


def test_pow_mixed_matches_repeated_product():
    f = MixedPoly(2, 0, ("x", "y"), {(3, (0, 0)): 1, (0, (3, 0)): 1, (0, (0, 3)): 1})
    assert pow_mixed(f, 0) == MixedPoly(2, 0, ("x", "y"), {(0, (0, 0)): 1})
    assert pow_mixed(f, 1) == f
    assert pow_mixed(f, 3) == f * f * f


@pytest.mark.parametrize("p, key, c", [
    (2, (0, (1, 0)), 1),
    (3, (2, (0, 1)), -1),
    (5, (1, (2, 3)), -10),     # p-divisible and negative
    (7, (3, (0, 0)), 49),
    (3, (0, (0, 0)), -2),      # a constant
])
def test_pow_mixed_one_term_matches_repeated_product(p, key, c):
    f = MixedPoly(p, 1, ("x", "y"), {key: c})
    acc = MixedPoly(p, 1, ("x", "y"), {(0, (0, 0)): 1})
    for n in range(8):
        assert pow_mixed(f, n) == acc
        acc = acc * f


def sympy_expr(f):
    """f as a sympy expression, with pi a plain symbol."""
    sympy = pytest.importorskip("sympy")
    pi, *xs = sympy.symbols(("pi", *f.vars))
    return sum(
        (c * pi**k * sympy.prod(x**a for x, a in zip(xs, e)) for (k, e), c in f.terms.items()),
        sympy.Integer(0),
    )


def sympy_terms(expr, vars):
    """The nonzero terms {(pi, E): c} of sympy's expansion of expr."""
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly(sympy.expand(expr), *sympy.symbols(("pi", *vars)))
    return {(m[0], m[1:]): int(c) for m, c in poly.terms() if c}


@st.composite
def small_polys(draw):
    """A MixedPoly at p = 5 in 1-3 variables with up to 3 terms; its
    coefficients may be negative or p-divisible."""
    n = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.tuples(*[st.integers(0, 2)] * n)),
        st.integers(-10, 10), max_size=3,
    ))
    return MixedPoly(5, 0, tuple("xyz"[:n]), terms)


@given(f=small_polys(), n=st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_pow_mixed_matches_sympy(f, n):
    """f^n against sympy's expansion."""
    assert pow_mixed(f, n).terms == sympy_terms(sympy_expr(f) ** n, f.vars)


def test_reduce_mod_pi():
    f = MixedPoly(3, 0, ("x", "y"), {(1, (0, 0)): 1, (0, (2, 0)): 4, (0, (0, 1)): 3})
    g = reduce_mod_pi(f)
    assert g.p == 3 and g.vars == ("x", "y")
    # pi-term and the p-divisible coefficient both vanish mod pi
    assert g.terms == {(2, 0): 1}


def test_reduce_commutes_with_pow():
    f = MixedPoly(2, 0, ("x", "y"), {(1, (0, 0)): 1, (0, (1, 0)): 1, (0, (0, 1)): 3})
    power = sp(2, ("x", "y"), {(0, 0): 1})
    for n in range(5):
        assert reduce_mod_pi(pow_mixed(f, n)) == power
        power = fp_mul(power, reduce_mod_pi(f))


@given(
    n=st.integers(0, 4),
    c1=st.integers(1, 9),
    c2=st.integers(1, 9),
    pi=st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_eval_at_one_is_multiplicative(n, c1, c2, pi):
    # pi -> 1, x -> 1 is a ring map to Z on formal terms
    f = MixedPoly(5, 0, ("x",), {(pi, (0,)): c1, (0, (2,)): c2})
    assert sum(pow_mixed(f, n).terms.values()) == sum(f.terms.values()) ** n


# -- Frobenius-power membership ------------------------------------------


def test_membership_positive():
    # (pi^2 + x^2)^2 lies termwise in (pi^2, x^2)
    f = MixedPoly(2, 0, ("x",), {(2, (0,)): 1, (0, (2,)): 1})
    res = weighted_membership(pow_mixed(f, 2), RingContext(2, ("x",)), 2)
    assert res
    assert res.contained is True
    assert res.failure is None


def test_membership_failure_witness():
    f = MixedPoly(2, 0, ("x",), {(1, (1,)): 1})
    res = weighted_membership(f, RingContext(2, ("x",)), 2)
    assert not res
    assert res.failure == (1, (1,))


def test_membership_uses_effective_order():
    # 9*x has effective pi-order 2 at p = 3, so it lies in (pi^2, x^2); x does not
    ctx = RingContext(3, ("x",))
    assert weighted_membership(MixedPoly(3, 0, ("x",), {(0, (1,)): 9}), ctx, 2).contained
    assert not weighted_membership(MixedPoly(3, 0, ("x",), {(0, (1,)): 1}), ctx, 2)


def test_membership_rejects_other_ring():
    f = MixedPoly(3, 1, ("x",), {(0, (1,)): 1})
    with pytest.raises(ValueError):
        weighted_membership(f, RingContext(3, ("x",)), 2)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_membership_monotone_under_multiplication(data):
    """If f is in the Frobenius power termwise then so is g*f, for monomial g."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    f = MixedPoly(p, 0, ("x",), {
        (data.draw(st.integers(0, 3)), (data.draw(st.integers(0, 3)),)):
            data.draw(st.integers(1, p**2))
        for _ in range(data.draw(st.integers(1, 3)))
    })
    ctx = RingContext(p, ("x",))
    q = data.draw(st.integers(1, 4))
    if not weighted_membership(f, ctx, q):
        return
    g = MixedPoly(p, 0, ("x",), {(1, (1,)): 1})
    assert weighted_membership(g * f, ctx, q).contained is True


@st.composite
def mixed_polys(draw):
    """Random MixedPolys at ram levels 0-2 whose coefficients carry powers of p."""
    p = draw(st.sampled_from([2, 3, 5]))
    a = draw(st.integers(0, 2))
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        key = (draw(st.integers(0, 12)), tuple(draw(st.integers(0, 6)) for _ in range(n)))
        unit = draw(st.integers(1, p - 1)) * draw(st.sampled_from([1, -1]))
        terms[key] = unit * p ** draw(st.integers(0, 3))
    return MixedPoly(p, a, tuple("xyz"[:n]), terms)


@given(f=mixed_polys(), q=st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_membership_matches_brute_force(f, q):
    """Verdict and witness against the ideal (pi^q, x_1^q, ..., x_n^q) written out
    as its generators (q, 0) and (0, q e_i), each tried on each term."""
    n = len(f.vars)
    gens = [(q, (0,) * n)] + [
        (0, tuple(q if j == i else 0 for j in range(n))) for i in range(n)
    ]

    def order(key):
        c, v = abs(f.terms[key]), 0
        while c % f.p == 0:
            c //= f.p
            v += 1
        return key[0] + f.p**f.ram_level * v

    outside = [
        key for key in f.terms
        if not any(
            g_pi <= order(key) and all(a <= b for a, b in zip(g_exps, key[1]))
            for g_pi, g_exps in gens
        )
    ]
    res = weighted_membership(f, RingContext(f.p, f.vars, ram_level=f.ram_level), q)
    assert res.contained is (not outside)
    # the witness is the first failing term in graded-lex order, pi leading
    expected = max(outside, key=lambda k: (k[0] + sum(k[1]), k[0], k[1]), default=None)
    assert res.failure == expected


# -- results of arithmetic are valid polynomials ---------------------------


@st.composite
def mixed_pairs(draw):
    """Two MixedPolys of one ring.  The second may be the first with all
    signs but the first flipped, so (a + b)(a - b) cancels its cross terms in
    f * g, or with every sign flipped."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    a = draw(st.integers(0, 2))
    n = draw(st.integers(1, 3))

    def poly():
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            key = (draw(st.integers(0, 4)), tuple(draw(st.integers(0, 3)) for _ in range(n)))
            terms[key] = draw(st.integers(-p**2, p**2))
        return MixedPoly(p, a, tuple("xyz"[:n]), terms)

    f = poly()
    keep = draw(st.sampled_from([None, 0, 1]))
    if keep is None:
        return f, poly()
    flipped = {k: c if i < keep else -c for i, (k, c) in enumerate(f.terms.items())}
    return f, MixedPoly(p, a, f.vars, flipped)


def assert_revalidates(h):
    if isinstance(h, MixedPoly):
        assert MixedPoly(h.p, h.ram_level, h.vars, dict(h.terms)) == h
        assert all(h.terms.values())
    else:
        assert SparsePolyFp(h.p, h.vars, dict(h.terms)) == h
        assert all(0 < c < h.p for c in h.terms.values())


@given(pair=mixed_pairs(), n=st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_arithmetic_results_revalidate(pair, n):
    f, g = pair
    results = [f * g, pow_mixed(f, n), pow_mixed(f * g, n)]
    fp = reduce_mod_pi(f)
    results += [fp, reduce_mod_pi(g), reduce_mod_pi(f * g), pth_root_mod_fp(frobenius(fp))]
    for h in results:
        assert_revalidates(h)


@example(pair=(
    MixedPoly(5, 1, ("x", "y"), {(1, (1, 0)): 1, (0, (0, 1)): -5, (0, (0, 0)): 10}),
    MixedPoly(5, 1, ("x", "y"), {(1, (1, 0)): 1, (0, (0, 1)): 5, (0, (0, 0)): 10}),
))
@given(pair=mixed_pairs())
@settings(max_examples=150, deadline=None)
def test_product_matches_sympy(pair):
    """f * g against sympy's expansion, term for term: pi-exponents, negative
    and p-divisible coefficients, and cross terms that cancel to no term."""
    f, g = pair
    assert (f * g).terms == sympy_terms(sympy_expr(f) * sympy_expr(g), f.vars)
