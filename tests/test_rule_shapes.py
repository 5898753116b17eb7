"""Randomized certification of the rule shapes that are not diagonals.

The strategies follow the grammar of the certify-sweep workload's shape
generators (``CertifySweep._extremal`` through ``_cross_term`` in
``bench/workloads.py``) and add the registry rows: extremal forms, elliptic
cubic cones and their cross terms, p-th powers modulo p^2, the cyclotomic
base, and residues with a mixed monomial.  Each input must certify without
tripping the inconsistency alarm.  Its bounds, strictness and rule ids must
not depend on the order of the ring's variables, its bounds must not change
when the ring gains a variable that f does not use, and its certificate
must not exclude the certificate of f times a unit.  Read at level 0 and
joined by diagonals with a pi-slot, the same shapes check that a limit
profile's levels, derived from one analysis of f, match a fresh analysis
and a fresh certificate at each level, and that the containment powers the
levels share equal a fresh expansion at each level.  On the same shapes and
their unit multiples, the diagonal record that the analysis keeps must read
as f's terms do: its slots and exponents, its monic flag and its digits.
"""

from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.certify import (
    ORACLE_LEVEL,
    RingContext,
    analyze,
    certify,
    limit_profile,
    relevel_facts,
)
from threshold_lab.cli import infer_variables, parse_poly
from threshold_lab.fpt import (
    _max_terms_budget,
    compute_L,
    diagonal_digits,
    fpt_diagonal,
    lct_diagonal,
)
from threshold_lab.poly import pow_mixed

from reference import relevel

VARS = ("x", "y", "z")


class Shape(NamedTuple):
    src: str
    p: int
    ram: int = 0
    cyclotomic: bool = False


def _term(coeff: int, exps: tuple[int, ...]) -> str:
    factors = [str(coeff)] if coeff != 1 else []
    factors += [v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, exps) if e]
    return "*".join(factors)


def _monomial(draw, n: int, lo: int, hi: int) -> tuple[int, ...]:
    """A monomial in n variables of total degree lo..hi."""
    exps = [0] * n
    for i in draw(st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi)):
        exps[i] += 1
    return tuple(exps)


@st.composite
def extremal(draw) -> Shape:
    """X^{q+1} + Y^{q+1} + f' or X^q Y + X Y^q + f', q = p, with f' in the
    Frobenius power and carrying pi or a third variable."""
    p = q = draw(st.sampled_from((2, 3, 5)))
    head = draw(st.sampled_from((f"x^{q + 1} + y^{q + 1}", f"x^{q}*y + x*y^{q}")))
    extra = draw(st.one_of(
        st.integers(q, q + 2).map(lambda k: f"p^{k}"),
        st.integers(q, q + 1).map(lambda k: f"z^{k}"),
        st.integers(1, 3).map(lambda c: f"{c}*p*x^{q}"),
        st.just(f"p^{q}*y"),
    ))
    return Shape(f"{head} + {extra}", p)


@st.composite
def elliptic(draw) -> Shape:
    """pi^3 + X^3 + Y^3 or pi^3 + XY(uX + vY) at p = 2 (mod 3)."""
    p = draw(st.sampled_from((2, 5)))
    if draw(st.booleans()):
        return Shape("p^3 + x^3 + y^3", p)
    u, v = draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))
    return Shape(f"p^3 + {_term(u, (2, 1))} + {_term(v, (1, 2))}", p)


@st.composite
def pth_power(draw) -> Shape:
    """h^p + p^2 g: a p-th power modulo p^2 over the unramified base."""
    p = draw(st.sampled_from((2, 3, 5)))
    c = draw(st.integers(1, p - 1))
    g = _term(1, _monomial(draw, 2, 2, 4))
    return Shape(f"(x + {c}*y)^{p} + p^2*{g}", p)


@st.composite
def cyclotomic(draw) -> Shape:
    """Over W[zeta_p]: p-th powers modulo varpi^p, and shapes without a root."""
    p = draw(st.sampled_from((3, 5, 7)))
    g = _term(1, _monomial(draw, 2, 1, 3))
    if draw(st.booleans()):
        src = f"(x + {draw(st.integers(1, p - 1))}*y)^{p} + p^{p}*{g}"
    else:
        src = f"x^{draw(st.integers(2, 4))} + p*{g}"
    return Shape(src, p, cyclotomic=True)


@st.composite
def cross_term(draw) -> Shape:
    """Residues with a mixed monomial: fpt_lower falls back to the oracle."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(2, 3))
    monos = {_monomial(draw, n, 2, 4) for _ in range(draw(st.integers(2, 3)))}
    monos.add((1, 1) + (0,) * (n - 2))
    parts = [_term(draw(st.integers(1, p - 1)), m) for m in sorted(monos)]
    if draw(st.booleans()):
        parts.append(f"p^{draw(st.integers(1, 4))}")
    return Shape(" + ".join(parts), p, draw(st.integers(0, 1)))


@st.composite
def registry(draw) -> Shape:
    """The curated rows: the diagonal cubic cone and the 2-adic quadratic cone."""
    if draw(st.booleans()):
        return Shape("p^2 + x^2", 2)
    return Shape("x^3 + y^3 + z^3", draw(st.sampled_from((2, 5, 7, 11))), draw(st.integers(0, 1)))


SHAPES = st.one_of(extremal(), elliptic(), pth_power(), cyclotomic(), cross_term(), registry())


def _summary(src: str, shape: Shape, vars: tuple[str, ...]):
    ctx = RingContext(shape.p, vars, ram_level=shape.ram, cyclotomic=shape.cyclotomic)
    cert = certify(parse_poly(src, ctx), ctx)
    return (
        cert.lower, cert.lower_strict, cert.upper, cert.upper_strict, cert.exact,
        [r.rule_id for r in cert.rules],
    )


@given(data=st.data(), shape=SHAPES)
@settings(max_examples=300, deadline=None)
def test_rule_shapes_certify_and_ignore_variable_order(data, shape):
    vars = infer_variables(shape.src)
    summary = _summary(shape.src, shape, vars)
    lower, lower_strict, upper, upper_strict, _exact, _ids = summary
    if lower is not None and upper is not None:
        assert lower < upper or (lower == upper and not (lower_strict or upper_strict))
    permuted = tuple(data.draw(st.permutations(vars)))
    assert _summary(shape.src, shape, permuted) == summary


def _oracle_admits(shape: Shape, n_vars: int) -> bool:
    """Whether the rules' oracle searches f mod pi in n_vars variables: its
    monomial space p^(e*n) at ORACLE_LEVEL stays under the budget."""
    return shape.p ** (ORACLE_LEVEL * n_vars) <= _max_terms_budget()


@given(
    data=st.data(),
    shape=SHAPES.filter(lambda shape: _oracle_admits(shape, len(infer_variables(shape.src)) + 1)),
)
@settings(max_examples=150, deadline=None)
def test_unused_variable_changes_no_bound(data, shape):
    """Adjoining a variable that f does not use, anywhere in the ring's
    variable list, leaves every certified bound as it was."""
    vars = infer_variables(shape.src)
    wider = list(vars)
    wider.insert(data.draw(st.integers(0, len(vars))), "w")
    assert _summary(shape.src, shape, tuple(wider))[:5] == _summary(shape.src, shape, vars)[:5]


def _excludes(a, b) -> bool:
    """Whether a's lower bound lies above b's upper bound (or on it, with
    either bound strict), so that no value satisfies both certificates."""
    if a.lower is None or b.upper is None:
        return False
    return a.lower > b.upper or (a.lower == b.upper and (a.lower_strict or b.upper_strict))


@given(shape=SHAPES, u=st.integers(1, 60), negate=st.booleans())
@settings(max_examples=150, deadline=None)
def test_unit_multiple_bounds_never_exclude(shape, u, negate):
    """u*f and f generate the same ideal when p does not divide u, so their
    certificates never exclude each other.  They may differ: the rules that
    need a monic f abstain on u*f."""
    if u % shape.p == 0:
        u += 1
    scaled = f"{'0 - ' if negate else ''}{u}*({shape.src})"
    vars = infer_variables(shape.src)
    ctx = RingContext(shape.p, vars, ram_level=shape.ram, cyclotomic=shape.cyclotomic)
    plain = certify(parse_poly(shape.src, ctx), ctx)
    unit = certify(parse_poly(scaled, ctx), ctx)
    assert not _excludes(plain, unit) and not _excludes(unit, plain)


@st.composite
def pi_slot_diagonal(draw) -> Shape:
    """pi^t + x^s, or pi^t + x^s + y^s' below p = 5: the limit-profile grid at
    p <= 5 without its two-variable p = 5 diagonals, whose containment checks
    at levels 2 and 3 take seconds."""
    p = draw(st.sampled_from((2, 3, 5)))
    exps = draw(st.lists(st.integers(2, 5), min_size=1, max_size=1 if p == 5 else 2))
    parts = [f"p^{draw(st.integers(1, 4))}"] + [f"{v}^{s}" for v, s in zip(VARS, exps)]
    return Shape(" + ".join(parts), p)


def _bounds(c):
    return c.lower, c.lower_strict, c.upper, c.upper_strict, c.exact


@given(shape=st.one_of(SHAPES, pi_slot_diagonal()))
@settings(max_examples=150, deadline=None)
def test_profile_levels_match_a_fresh_analysis(shape):
    """Each derived level equals a fresh analysis of relevel(f, a) in every
    field but f, which stays the level-0 f, and the profile's bounds equal
    a certificate's."""
    vars = infer_variables(shape.src)
    ctx = RingContext(shape.p, vars)
    f = parse_poly(shape.src, ctx)
    base = analyze(f, ctx)
    steps = limit_profile(f, 3).steps
    assert [s.level for s in steps] == [0, 1, 2, 3]
    for a, step in enumerate(steps):
        fa, ctx_a = relevel(f, a), RingContext(shape.p, vars, ram_level=a)
        derived = relevel_facts(base, a)
        assert derived.f is f
        assert derived[1:] == analyze(fa, ctx_a)[1:]
        assert _bounds(step) == _bounds(certify(fa, ctx_a))


@given(
    shape=st.one_of(SHAPES, pi_slot_diagonal()).filter(lambda shape: shape.p <= 5),
    a=st.integers(0, 3),
    b=st.integers(0, 6),
)
@settings(max_examples=150, deadline=None)
def test_profile_levels_share_the_level_zero_powers(shape, a, b):
    """relevel is a ring map, so relevel(f^b, a) = relevel(f, a)^b; the
    level-0 power each derived level reads from the shared memo, relevelled,
    is a fresh expansion of relevel(f, level)."""
    vars = infer_variables(shape.src)
    ctx = RingContext(shape.p, vars)
    f = parse_poly(shape.src, ctx)
    assert relevel(pow_mixed(f, b), a) == pow_mixed(relevel(f, a), b)
    base = analyze(f, ctx)
    for level in range(4):
        facts = relevel_facts(base, level)
        assert relevel(facts.power(b), level) == pow_mixed(relevel(f, level), b)
    assert base.power(b) == pow_mixed(f, b)


@given(shape=pi_slot_diagonal())
@settings(max_examples=100, deadline=None)
def test_profile_levels_read_the_blown_up_diagonal(shape):
    """At levels 0-3 the diagonal record of pi^t + x_1^{s_1} + ... keeps
    the digit level, fpt and lct of the diagonal (*xs, t p^a), or None when
    some exponent is 1."""
    vars = infer_variables(shape.src)
    ctx = RingContext(shape.p, vars)
    base = analyze(parse_poly(shape.src, ctx), ctx)
    for a in range(4):
        diag = relevel_facts(base, a).diag
        exps = (*diag.xs, base.diag.pi_order * shape.p**a)
        assert diag.pi_order == exps[-1]
        if 1 in exps:
            assert diag.digits is None
        else:
            want = (compute_L(shape.p, exps), fpt_diagonal(shape.p, exps), lct_diagonal(exps))
            assert diag.digits == want


def _unit_part(c: int, p: int) -> int:
    """c with every factor p taken out."""
    while c % p == 0:
        c //= p
    return c


@st.composite
def pi_unit_diagonal(draw) -> Shape:
    """A pi-slot diagonal whose pi-pure term alone carries c * p^v, c prime to
    p, at ram level 0 or 1: monic exactly when c = 1."""
    shape = draw(pi_slot_diagonal())
    c = draw(st.sampled_from((1, shape.p + 1)))
    k = c * shape.p ** draw(st.integers(0, 2))
    return shape._replace(src=f"{k}*{shape.src}", ram=draw(st.integers(0, 1)))


@given(
    shape=st.one_of(SHAPES, pi_slot_diagonal(), pi_unit_diagonal()),
    u=st.integers(1, 4),
    negate=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_diagonal_record_reads_as_the_terms(shape, u, negate):
    """The analysis reads u*f's diagonal once: its slots and x-exponents are
    the x-terms' in term order, it is monic exactly when the pi-pure term's
    unit part is 1 (where there is one) and every x-coefficient is 1, and
    its digits are the digit reading of the full diagonal, the pi-slot as
    one more exponent, or None when some exponent is 1."""
    p = shape.p
    if u % p == 0:
        u += 1
    vars = infer_variables(shape.src)
    ctx = RingContext(p, vars, ram_level=shape.ram, cyclotomic=shape.cyclotomic)
    f = parse_poly(f"{'0 - ' if negate else ''}{u}*({shape.src})", ctx)
    diag = analyze(f, ctx).diag
    if diag is None:
        return
    x_terms = [(exps, c) for (_pi, exps), c in f.sorted_terms() if any(exps)]
    slots = tuple(next(i for i, e in enumerate(exps) if e) for exps, _c in x_terms)
    assert diag.slots == slots
    assert diag.xs == tuple(exps[i] for (exps, _c), i in zip(x_terms, slots))
    pi_units = [_unit_part(c, p) for (_pi, exps), c in f.terms.items() if not any(exps)]
    assert diag.monic == (all(c == 1 for c in pi_units) and all(c == 1 for _e, c in x_terms))
    if 1 in diag.exponents():
        assert diag.digits is None
    else:
        assert diag.digits == diagonal_digits(p, diag.exponents())
