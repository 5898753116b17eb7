"""Tests for the certification engine: rules, combined certificates, profiles."""

import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.certify import (
    _intersect,
    Bound,
    Facts,
    InternalInconsistencyError,
    ProfileStep,
    RingContext,
    RuleResult,
    analyze,
    certify,
    limit_profile,
    pth_root_modulo,
    relevel_facts,
    rule_blowup_diagonal,
    rule_diagonal_ramified,
    rule_elliptic,
    rule_extremal_strict,
    rule_frobenius_diagonal_strict,
    rule_pth_root_upper,
    rule_ramified_upper,
    rule_threshold_cap,
)
from threshold_lab.cli import infer_variables, parse_poly
from threshold_lab.fpt import diagonal_digits, fpt_diagonal, scaled_digits
from threshold_lab.poly import (
    MixedPoly,
    pow_mixed,
    pth_root_mod_fp,
    reduce_mod_pi,
    weighted_membership,
)
from threshold_lab.verify import mixed_diagonal_poly

from reference import (
    _list_intersection,
    all_pairs_alarm,
    extremal_by_enumeration,
    lift_by_pow_mixed,
    relevel,
    sorted_scan,
)

F = Fraction


def ctx_of(f, **kw):
    return RingContext(f.p, f.vars, ram_level=f.ram_level, **kw)


def diag_of(f):
    """The pure-power diagonal match that analyze reads off f."""
    return analyze(f, ctx_of(f)).diag


def no_text():
    """The empty trail of a test's own RuleResult: no hypotheses, no notes."""
    return [], []


# -- ring contexts ---------------------------------------------------------


def test_ring_context_validation():
    with pytest.raises(ValueError):
        RingContext(4, ("x",))
    with pytest.raises(ValueError):
        RingContext(3, ())
    with pytest.raises(ValueError):
        RingContext(3, ("x",), ram_level=-1)
    with pytest.raises(ValueError):
        RingContext(3, ("x",), ram_level=1, cyclotomic=True)


def test_ring_context_pi_multiplier():
    assert RingContext(3, ("x",)).pi_multiplier == 1
    assert RingContext(3, ("x",), ram_level=2).pi_multiplier == 9
    assert RingContext(3, ("x",), cyclotomic=True).pi_multiplier == 2


# -- structure matchers ----------------------------------------------------


def test_match_mixed_diagonal_basic():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    d = diag_of(f)
    assert d is not None
    assert d.pi_order == 3 and d.monic
    assert d.slots == (0, 1) and d.xs == (3, 3)
    assert d.exponents() == (3, 3, 3)
    assert d.digits == (1, F(1, 2), F(1))  # x^3 + y^3 + z^3 at p = 2


def test_match_folds_p_content_into_pi_order():
    # 27 = 3^3 at p = 3, a = 0 counts as pi^3
    f = MixedPoly(3, 0, ("x",), {(0, (0,)): 27, (0, (3,)): 1})
    d = diag_of(f)
    assert d is not None and d.pi_order == 3 and d.monic
    g = MixedPoly(3, 0, ("x",), {(1, (0,)): 9, (0, (3,)): 1})
    e = diag_of(g)
    assert e is not None and e.pi_order == 3
    assert e.monic                       # 9*pi = pi^3 exactly, unit part 1
    h = MixedPoly(3, 0, ("x",), {(1, (0,)): 18, (0, (3,)): 1})
    u = diag_of(h)
    assert u is not None and u.pi_order == 3
    assert not u.monic                   # 18*pi = 2*pi^3, unit part 2


def test_match_rejects_non_diagonal_shapes():
    mixed = MixedPoly(2, 0, ("x", "y"), {(0, (1, 1)): 1})
    assert diag_of(mixed) is None
    repeated = MixedPoly(2, 0, ("x",), {(0, (2,)): 1, (0, (3,)): 1})
    assert diag_of(repeated) is None
    p_coeff = MixedPoly(3, 0, ("x",), {(0, (2,)): 3})
    assert diag_of(p_coeff) is None
    pi_on_x = MixedPoly(3, 0, ("x",), {(1, (2,)): 1})
    assert diag_of(pi_on_x) is None
    two_pi_terms = MixedPoly(3, 0, ("x",), {(1, (0,)): 1, (2, (0,)): 1, (0, (2,)): 1})
    assert diag_of(two_pi_terms) is None


@pytest.mark.parametrize("terms, value", [
    ({(3, 0): 1, (0, 3): 1}, F(1, 2)),         # x^3 + y^3 over F_2
    ({(2, 3): 1}, F(1, 3)),                    # monomial: min 1/e_i
    ({(1, 0): 1, (0, 4): 1}, F(1)),            # linear variable: regular
    ({(1, 1): 1, (0, 2): 1}, None),            # not a diagonal
    ({(2, 0): 1, (1, 0): 1}, None),            # repeated variable
    ({(3, 0): 2, (0, 3): 1}, F(1, 3)),         # 2 x^3 + y^3: the monomial y^3
])
def test_exact_fpt_of_reduction(terms, value):
    """analyze reads the closed-form fpt of f mod pi, whether f is its
    residue, a diagonal with a pi-slot, or no diagonal (pi x y + 2 x^2 y^2
    added)."""
    for pi_terms in ({}, {(2, (0, 0)): 1}, {(1, (1, 1)): 1, (0, (2, 2)): 2}):
        f = MixedPoly(2, 0, ("x", "y"), {**{(0, e): c for e, c in terms.items()}, **pi_terms})
        facts = analyze(f, ctx_of(f))
        assert facts.residue == reduce_mod_pi(f)
        assert facts.residue_fpt == value


@pytest.mark.parametrize("pi_exps, a, c", [
    ((2,), 1, 0),       # pi^2 = p at level 1: visible from level 0
    ((1,), 1, 1),       # pi itself genuinely needs level 1
    ((1,), 2, 2),
    ((2,), 2, 1),
    ((4, 2), 2, 1),     # least level at which every pi-exponent is integral
    ((), 3, 0),
])
def test_base_ring_level(pi_exps, a, c):
    terms = {(0, (3,)): 1}
    for k, pi in enumerate(pi_exps):
        terms[(pi, (0,))] = terms.get((pi, (0,)), 0) + (k + 1)
    f = MixedPoly(2, a, ("x",), terms)
    assert analyze(f, ctx_of(f)).base_level == c


# -- individual rules ------------------------------------------------------


def test_blowup_diagonal_bounds():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    res = rule_blowup_diagonal(analyze(f, ctx_of(f)))
    assert res is not None
    assert res.lower == Bound(F(1, 2))
    assert res.upper == Bound(F(1))
    assert any("lct = 1" in n for n in res.notes)


def test_blowup_regular_element():
    # pi + x^2 at a = 1 is a regular parameter: threshold exactly 1
    f = MixedPoly(2, 1, ("x",), {(1, (0,)): 1, (0, (2,)): 1})
    res = rule_blowup_diagonal(analyze(f, ctx_of(f)))
    assert res is not None
    assert res.lower == Bound(F(1)) and res.upper == Bound(F(1))
    cert = certify(f, ctx_of(f))
    assert cert.exact == F(1)


def test_extremal_strict_fires():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    res = rule_extremal_strict(analyze(f, ctx_of(f)))
    assert res is not None
    assert res.lower == Bound(F(1, 2), strict=True)


def test_extremal_strict_cross_pattern():
    # pi^3 + x^2 y + x y^2 matches the {X^q Y, X Y^q} shape at q = 2
    f = MixedPoly(2, 0, ("x", "y"), {(3, (0, 0)): 1, (0, (2, 1)): 1, (0, (1, 2)): 1})
    res = rule_extremal_strict(analyze(f, ctx_of(f)))
    assert res is not None and res.lower == Bound(F(1, 2), strict=True)


def test_extremal_abstains_below_degree_bound():
    # q + 1 = 3 exceeds every degree of x^2 + y^2, so no pattern exists
    f = mixed_diagonal_poly(2, 0, None, (2, 2))
    assert rule_extremal_strict(analyze(f, ctx_of(f))) is None


def test_extremal_abstains_at_positive_ram_level():
    f = mixed_diagonal_poly(2, 1, 3, (3, 3))
    assert rule_extremal_strict(analyze(f, ctx_of(f))) is None


@st.composite
def extremal_candidates(draw):
    """Level-0 polynomials in 1-3 variables: pure powers x_i^(q+1) and x_j^(q+1)
    or binomials x_i^q x_j and x_i x_j^q (q = p^e, or q off the p-powers),
    mostly with coefficient 1, sometimes with one of a pair missing, beside
    pi-terms and terms in a third variable."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.sampled_from([1, 2, 2, 3, 3]))
    terms = {}
    unit = st.sampled_from([1, 1, 1, 1, 1, 2, p + 1, -1])

    def add(pi, exps, c):
        if pi or any(exps):
            terms[pi, tuple(exps)] = c

    for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3]))):
        q = draw(st.sampled_from([p, p, p * p, p + 1]))
        i, j = draw(st.permutations(range(max(n, 2))))[:2]
        binomial = n > 1 and draw(st.booleans())
        for di, dj in ((q, 1), (1, q)) if binomial else ((q + 1, 0), (0, q + 1)):
            exps = [0] * max(n, 2)
            exps[i], exps[j] = di, dj
            if n > 1 or not exps[1]:
                add(0, exps[:n], draw(unit))
    for _ in range(draw(st.integers(0, 2))):
        exps = [draw(st.integers(0, 2 * p * p)) for _ in range(n)]
        c = draw(st.sampled_from([1, 3, -2, p, p * p]))
        add(draw(st.sampled_from([0, 0, 1, 2, p, p * p, p**3])), exps, c)
    return MixedPoly(p, 0, tuple("xyz"[:n]), terms)


@given(f=extremal_candidates())
@settings(max_examples=400, deadline=None)
def test_extremal_strict_matches_the_enumeration(f):
    """The one-scan match certifies the bound and names the pattern and the
    pair that the enumeration over every q, pair and pattern finds."""
    ctx = ctx_of(f)
    res = rule_extremal_strict(analyze(f, ctx))
    best = extremal_by_enumeration(f, ctx)
    if best is None:
        assert res is None
        return
    e, i, j, pattern = best
    a, b = pattern[0]
    name = f"{{X^{a}, Y^{a}}}" if b == 0 else f"{{X^{a} Y, X Y^{a}}}"
    assert res.lower == Bound(F(1, f.p**e), strict=True)
    assert res.hypotheses[0] == (
        f"pattern {name} on ({f.vars[i]}, {f.vars[j]}) with unit coefficients"
    )


@pytest.mark.parametrize("src, p, q, pattern", [
    ("x^2*y + x*y^2 + p^3", 2, 2, "{X^2 Y, X Y^2} on (x, y)"),
    # x^2 y^2 has neither pi nor a third variable beside (x, y), so the
    # next pair in order, (x, z), is taken
    ("x^3 + y^3 + z^3 + x^2*y^2", 2, 2, "{X^3, Y^3} on (x, z)"),
    # q = 4 only; the cofactor z^4 lies in (pi^4, x_i^4)
    ("x^5 + y^5 + z^4", 2, 4, "{X^5, Y^5} on (x, y)"),
    # each pattern's pair of terms fails the other pattern's cofactor
    ("x^3 + y^3 + x^2*y + x*y^2 + p*z", 2, None, None),
    # q = 6 is no power of 2
    ("x^7 + y^7 + p^8", 2, None, None),
    # a coefficient 2 is a unit at p = 3, but the patterns ask for 1
    ("2*x^4 + y^4 + z^3", 3, None, None),
])
def test_extremal_strict_cases(src, p, q, pattern):
    ctx = RingContext(p, infer_variables(src))
    f = parse_poly(src, ctx)
    res = rule_extremal_strict(analyze(f, ctx))
    if q is None:
        assert res is None and extremal_by_enumeration(f, ctx) is None
    else:
        assert res.lower == Bound(F(1, q), strict=True)
        assert res.hypotheses[0] == f"pattern {pattern} with unit coefficients"


def test_frobenius_diagonal_strict():
    f = mixed_diagonal_poly(3, 0, 3, (3, 3))
    res = rule_frobenius_diagonal_strict(analyze(f, ctx_of(f)))
    assert res is not None
    assert res.lower == Bound(F(1, 3), strict=True)
    # p = 2 is outside the rule's hypotheses
    g = mixed_diagonal_poly(2, 0, 2, (2, 2))
    assert rule_frobenius_diagonal_strict(analyze(g, ctx_of(g))) is None
    # non-p-power exponent
    h = mixed_diagonal_poly(3, 0, 4, (4, 4))
    assert rule_frobenius_diagonal_strict(analyze(h, ctx_of(h))) is None


def test_elliptic_upper():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    res = rule_elliptic(analyze(f, ctx_of(f)))
    assert res is not None
    assert res.upper == Bound(F(3, 4))
    assert res.lower is None
    g = mixed_diagonal_poly(7, 0, 3, (3, 3))   # 7 = 1 mod 3: not this family
    assert rule_elliptic(analyze(g, ctx_of(g))) is None


def test_pth_root_witness():
    # (x+y)^2 + 4y^3: the square root x + y survives modulo p^2
    f = MixedPoly(2, 0, ("x", "y"),
                  {(0, (2, 0)): 1, (0, (1, 1)): 2, (0, (0, 2)): 1, (0, (0, 3)): 4})
    ctx = ctx_of(f)
    h = pth_root_modulo(f, ctx)
    assert h is not None
    assert h.terms == {(0, (1, 0)): 1, (0, (0, 1)): 1}
    res = rule_pth_root_upper(analyze(f, ctx))
    assert res is not None and res.upper == Bound(F(1, 2))


def test_pth_root_no_witness():
    f = mixed_diagonal_poly(2, 0, None, (3, 3))
    assert pth_root_mod_fp(reduce_mod_pi(f)) is None
    assert pth_root_modulo(f, ctx_of(f)) is None
    # x^3 is a cube mod 3 but x^3 + 3x is not a cube mod 9
    g = MixedPoly(3, 0, ("x",), {(0, (3,)): 1, (0, (1,)): 3})
    assert pth_root_mod_fp(reduce_mod_pi(g)) is not None
    assert pth_root_modulo(g, ctx_of(g)) is None


def test_pth_root_cyclotomic():
    ctx = RingContext(3, ("x",), cyclotomic=True)
    f = MixedPoly(3, 0, ("x",), {(0, (3,)): 1, (3, (0,)): 1})
    h = pth_root_modulo(f, ctx)
    assert h is not None
    res = rule_pth_root_upper(analyze(f, ctx))
    assert res is not None and res.upper == Bound(F(1, 3))
    cert = certify(f, ctx)
    assert cert.exact == F(1, 3)
    # x^3 + (varpi^2 + 3) y = x^3 - 3 varpi y: a root only once varpi^2 is
    # reduced to -3 - 3 varpi, not key by key
    ctx = RingContext(3, ("x", "y"), cyclotomic=True)
    assert certify(parse_poly("x^3 + p^2*y + 3*y", ctx), ctx).upper == F(1, 3)


@st.composite
def lift_inputs(draw):
    """f = h^p plus terms c * pi^k * x^E with k up to 2p (so past varpi^{p-1}
    at every p, unit pi^1 terms included), or a residue with no p-th root,
    over the unramified or the cyclotomic base."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 2))
    vars = tuple("xy"[:n])
    monomial = st.tuples(*[st.integers(0, 2)] * n)
    h = MixedPoly(p, 0, vars, {
        (0, draw(monomial)): draw(st.integers(1, p - 1)) for _ in range(draw(st.integers(0, 2)))
    })
    terms = dict(pow_mixed(h, p).terms)
    for _ in range(draw(st.integers(0, 3))):
        key = (draw(st.sampled_from([0, 1, 2, p - 1, p, p + 1, 2 * p])), tuple(draw(monomial)))
        c = draw(st.sampled_from([1, -1, 2, p, -p, p * p, p + 1, math.comb(p, 2), -(p - 1)]))
        terms[key] = terms.get(key, 0) + c
    return MixedPoly(p, 0, vars, terms), RingContext(p, vars, cyclotomic=draw(st.booleans()))


@given(case=lift_inputs())
@settings(max_examples=300, deadline=None)
def test_pth_root_lift_matches_the_pow_mixed_lift(case):
    """The lift's pre-check and its p - 1 products by the root give the
    witness, or None, that comparing f with pow_mixed(h, p) gives."""
    f, ctx = case
    assert pth_root_modulo(f, ctx) == lift_by_pow_mixed(f, ctx)


@pytest.mark.parametrize("terms, p, cyclotomic, root", [
    # a unit pi^1 term: no root, before any product
    ({(0, (2,)): 1, (1, (1,)): 1}, 2, False, False),
    ({(0, (3,)): 1, (1, (3,)): 2}, 3, True, False),
    # at p = 2 over W[zeta_2] = W, varpi = -2: 3 x^2 + varpi x^2 = x^2
    ({(0, (2,)): 3, (1, (2,)): 1}, 2, True, True),
    # a pi^1 term whose coefficient carries p has pi-order 2
    ({(0, (5,)): 1, (1, (1,)): 5}, 5, False, True),
    ({(0, (7, 0)): 1, (2, (1, 0)): 1}, 7, False, True),
    # at p = 3, varpi^2 = -3 - 3 varpi: pi^2 y + 3 y = -3 varpi y has order 3,
    # though pi^2 y alone has order 2 and pi^2 y - 3 y = (-6 - 3 varpi) y too
    ({(0, (3, 0)): 1, (2, (0, 1)): 1, (0, (0, 1)): 3}, 3, True, True),
    ({(0, (3, 0)): 1, (2, (0, 1)): 1}, 3, True, False),
    ({(0, (3, 0)): 1, (2, (0, 1)): 1, (0, (0, 1)): -3}, 3, True, False),
])
def test_pth_root_lift_cases(monkeypatch, terms, p, cyclotomic, root):
    """Against the pow_mixed lift, at the edges of the pre-check; the lift
    itself expands no power through pow_mixed."""
    f = MixedPoly(p, 0, ("x", "y")[:len(next(iter(terms))[1])], terms)
    ctx = RingContext(p, f.vars, cyclotomic=cyclotomic)
    expected = lift_by_pow_mixed(f, ctx)
    assert (expected is not None) is root
    calls = count_calls(monkeypatch, ("pow_mixed",))
    assert pth_root_modulo(f, ctx) == expected
    assert calls == Counter()


def test_ramified_upper():
    # p + x^2, re-expressed at level 1 where one descent step is available
    f = relevel(MixedPoly(5, 0, ("x",), {(2, (0,)): 1, (0, (2,)): 1}), 1)
    res = rule_ramified_upper(analyze(f, ctx_of(f)))
    assert res is not None
    assert res.upper == Bound(F(3, 5))


def test_ramified_upper_gated_by_base_level():
    # pi + x^2 at a = 1 uses the full ramification: no room to descend
    f = MixedPoly(2, 1, ("x",), {(1, (0,)): 1, (0, (2,)): 1})
    assert rule_ramified_upper(analyze(f, ctx_of(f))) is None


def test_diagonal_ramified_exact():
    f = mixed_diagonal_poly(5, 1, 3, (3,))
    res = rule_diagonal_ramified(analyze(f, ctx_of(f)))
    assert res is not None and res.lower == res.upper == Bound(F(3, 5))


def test_diagonal_ramified_abstains_when_slots_reach_p():
    # pi^3 + x^3 + y^3 has three slots = p at p = 3
    f = mixed_diagonal_poly(3, 1, 3, (3, 3))
    assert rule_diagonal_ramified(analyze(f, ctx_of(f))) is None
    # and at a = 0 the digit level 1 exceeds the ramification budget
    g = mixed_diagonal_poly(3, 0, 3, (3,))
    assert rule_diagonal_ramified(analyze(g, ctx_of(g))) is None


def test_diagonal_ramified_alarm_names_the_witness():
    """A digit formula promising too small a power trips the containment
    cross-check, and the alarm names the first term outside the ideal."""
    f = mixed_diagonal_poly(5, 1, 3, (3,))  # pi^3 + x^3, digit level L = 1
    facts = analyze(f, ctx_of(f))
    diag = facts.diag._replace(digits=(1, F(1, 5), F(2, 3)))
    forced = Facts(*facts[:4], diag, facts.base_level)
    with pytest.raises(InternalInconsistencyError) as alarm:
        rule_diagonal_ramified(forced)
    assert str(alarm.value) == (
        "diagonal_ramified: the digit formula promised f^1 in (pi^5, x_i^5) "
        "but the containment fails at term (3, (0,))"
    )


def test_threshold_cap_always_applies():
    f = MixedPoly(2, 0, ("x",), {(0, (1,)): 1})
    res = rule_threshold_cap(analyze(f, ctx_of(f)))
    assert res.upper == Bound(F(1))


# -- certificates ----------------------------------------------------------


def test_certificate_rule_trace():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    cert = certify(f, ctx_of(f))
    ids = [r.rule_id for r in cert.rules]
    assert ids == [
        "fpt_lower", "blowup_diagonal", "extremal_strict", "elliptic", "threshold_cap",
    ]
    assert any("not a jumping number" in n for n in cert.notes)


def test_certificate_exactness_from_matching_bounds():
    f = MixedPoly(2, 0, ("x",), {(0, (2,)): 1, (2, (0,)): 1})
    cert = certify(f, ctx_of(f))
    assert cert.exact == F(1, 2)
    assert cert.lower == cert.upper == F(1, 2)
    assert not cert.lower_strict and not cert.upper_strict


def test_certify_known_registry_rows():
    f = mixed_diagonal_poly(7, 0, None, (3, 3, 3))
    cert = certify(f, ctx_of(f))
    assert cert.exact == F(1)
    g = mixed_diagonal_poly(5, 1, None, (3, 3, 3))
    cert = certify(g, ctx_of(g))
    assert cert.exact == F(4, 5)
    assert any(r.rule_id == "known_values" for r in cert.rules)


def test_certify_input_validation():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    with pytest.raises(ValueError):
        certify(f, RingContext(3, f.vars))                # prime mismatch
    with pytest.raises(ValueError):
        certify(f, RingContext(2, ("x", "y", "z")))       # variable mismatch
    with pytest.raises(ValueError):
        certify(MixedPoly(2, 0, ("x",), {}), RingContext(2, ("x",)))
    unit = MixedPoly(2, 0, ("x",), {(0, (0,)): 1, (0, (1,)): 1})
    with pytest.raises(ValueError):
        certify(unit, RingContext(2, ("x",)))


def test_contradiction_alarm(monkeypatch):
    import sys

    mod = sys.modules["threshold_lab.certify"]

    def bogus_cap(facts):
        return RuleResult("threshold_cap", "bogus", "bogus", upper=Bound(F(1, 4)), text=no_text)

    monkeypatch.setattr(mod, "rule_threshold_cap", bogus_cap)
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    with pytest.raises(InternalInconsistencyError):
        certify(f, ctx_of(f))


ANALYSES = ("analyze",)
RULES = (
    "known_values_registry", "rule_fpt_lower", "rule_blowup_diagonal",
    "rule_extremal_strict", "rule_frobenius_diagonal_strict", "rule_elliptic",
    "rule_pth_root_upper", "rule_ramified_upper", "rule_exact_ramified",
    "rule_diagonal_ramified", "rule_threshold_cap",
)


def count_calls(monkeypatch, names) -> Counter:
    """Count the calls of each named function of the certify module, made
    through its module attribute from now on."""
    import sys

    mod = sys.modules["threshold_lab.certify"]
    calls = Counter()

    def counted(name):
        fn = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(mod, name, counted(name))
    return calls


@pytest.mark.parametrize("f", [
    mixed_diagonal_poly(2, 0, 3, (3, 3)),
    mixed_diagonal_poly(5, 1, 3, (3,)),
    relevel(MixedPoly(5, 0, ("x",), {(2, (0,)): 1, (0, (2,)): 1}), 1),
], ids=str)
def test_certify_analyses_each_input_once(monkeypatch, f):
    """However many rules read the diagonal match, the residue's closed form
    and the base ring level, analyze computes them once per call, with no
    reduce_mod_pi of its own, and each of the eleven rules is called once."""
    calls = count_calls(monkeypatch, ("reduce_mod_pi",) + ANALYSES + RULES)
    certify(f, ctx_of(f))
    assert calls == Counter(ANALYSES + RULES)


@pytest.mark.parametrize("src, p, a, walks", [
    # Pi-slot diagonals: the residue's exponents, then the blown-up diagonal's.
    ("p^2 + x^3 + y^4", 5, 0, [("diagonal_digits", (4, 3)), ("scaled_digits", (4, 3, 2))]),
    ("p^2 + x^3 + y^5", 7, 2, [("diagonal_digits", (5, 3)), ("scaled_digits", (5, 3, 2))]),
    ("p^3 + x^2 + y^2 + z^2", 2, 1,
     [("diagonal_digits", (2, 2, 2)), ("scaled_digits", (2, 2, 2, 3))]),
    # A linear pi-slot: only the residue's exponents are walked.
    ("p + x^3 + y^3", 5, 0, [("diagonal_digits", (3, 3))]),
    ("p + x^5 + y^5", 7, 2, [("diagonal_digits", (5, 5))]),
    # No pi-slot: the residue is the full diagonal.
    ("x^3 + y^3 + z^3", 7, 1, [("diagonal_digits", (3, 3, 3))]),
    # f is no diagonal: only its diagonal residue is walked, by fpt_diagonal.
    ("x^3 + y^4 + p*x*y", 5, 0, [("fpt_diagonal", (4, 3))]),
])
def test_certify_walks_the_digits_once_and_sorts_the_terms_once(monkeypatch, src, p, a, walks):
    """One certificate, JSON included, sorts f's terms once and walks each
    diagonal's digits once: the certify module calls diagonal_digits on the
    residue's exponents and, with a pi-slot t >= 2, scaled_digits at level 0
    on the blown-up diagonal's (*xs, t), or, for the residue of an f that is
    no diagonal, fpt_diagonal, once each (keyed here by the exponents)."""
    import sys

    mod = sys.modules["threshold_lab.certify"]
    seen = Counter()

    def counted(name, fn):
        def wrapper(p, exps):
            seen[name, exps] += 1
            return fn(p, exps)
        return wrapper

    for name in ("diagonal_digits", "fpt_diagonal"):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    scaled = mod.scaled_digits

    def counted_scaled(p, xs, x_level, t, a):
        seen["scaled_digits", (*xs, t * p**a)] += 1
        return scaled(p, xs, x_level, t, a)

    monkeypatch.setattr(mod, "scaled_digits", counted_scaled)
    sorted_polys = []
    sort = MixedPoly.sorted_terms

    def counted_sort(self):
        sorted_polys.append(self)
        return sort(self)

    monkeypatch.setattr(MixedPoly, "sorted_terms", counted_sort)
    ctx = RingContext(p, infer_variables(src), ram_level=a)
    f = parse_poly(src, ctx)
    certify(f, ctx).to_json()
    assert seen == Counter(walks)
    assert [g for g in sorted_polys if g is f] == [f]


def test_certify_reads_long_period_diagonals():
    """1/(10^9+7) and 1/(10^9+9) have periods of 500000003 and 55555556
    digits at p = 3, but both walks stop early: the blown-up diagonal
    (2, 10^9+7, 10^9+9) carries at column 18, and the residue's diagonal at
    column 26."""
    ctx = RingContext(3, ("x", "y"))
    cert = certify(parse_poly("p^2 + x^1000000007 + y^1000000009", ctx), ctx)
    lowers = {r.rule_id: r.lower.value for r in cert.rules if r.lower is not None}
    xs = (1_000_000_007, 1_000_000_009)
    assert cert.lower == lowers["blowup_diagonal"] == F(193710245, 387420489)
    assert cert.lower == fpt_diagonal(3, (2, *xs))
    assert lowers["fpt_lower"] == F(5083, 2541865828329) == fpt_diagonal(3, xs)


@pytest.mark.parametrize("f", [
    mixed_diagonal_poly(2, 0, 3, (3, 3)),
    MixedPoly(5, 0, ("x",), {(2, (0,)): 1, (0, (2,)): 1}),
    MixedPoly(2, 0, ("x", "y"), {(0, (1, 1)): 1, (0, (2, 2)): 1}),
], ids=str)
def test_limit_profile_analyses_level_zero_once(monkeypatch, f):
    """The four levels of limit_profile(f, 3) share one analysis of f: the
    residue, its closed form, the diagonal match and the base ring level are
    read once, by analyze's one scan of f (no reduce_mod_pi runs), and each
    rule runs once per level."""
    calls = count_calls(monkeypatch, ("reduce_mod_pi",) + ANALYSES + RULES)
    limit_profile(f, 3)
    expected = Counter(ANALYSES)
    expected.update({rule: 4 for rule in RULES})
    assert calls == expected


# p^2 + x^3 + y^3 at p = 5: its profile reads the residue's closed form and a
# pure-power diagonal at every level.
CUBIC_P5 = MixedPoly(5, 0, ("x", "y"), {(2, (0, 0)): 1, (0, (3, 0)): 1, (0, (0, 3)): 1})
# x*y + x^2*y^2 at p = 2: its residue has no closed form, so the rules ask the
# Frobenius oracle.
CROSS_P2 = MixedPoly(2, 0, ("x", "y"), {(0, (1, 1)): 1, (0, (2, 2)): 1})


ENGINE_MODULES = ("exact", "digits", "poly", "fpt", "certify")


def count_prime_checks(monkeypatch) -> list[int]:
    """Count the calls of require_prime through each engine module's
    attribute, as the benchmark's tracer does; the one-element list holds
    the running total."""
    import sys

    total = [0]
    for name in ENGINE_MODULES:
        mod = sys.modules[f"threshold_lab.{name}"]
        check = mod.require_prime

        def counted(p, check=check):
            total[0] += 1
            return check(p)
        monkeypatch.setattr(mod, "require_prime", counted)
    return total


@pytest.mark.parametrize("src, p, a, cyclotomic, checks", [
    # Only the ring context: analyze walks the diagonal's digits and reads
    # the base ring level's v_p without a check.
    ("p^2 + x^3 + y^4", 5, 0, False, 1),
    # The same; rule_frobenius_diagonal_strict abstains at p = 2.
    ("p^3 + x^3 + y^3", 2, 0, False, 1),
    # The same: the containment of f^19 reads each term's pi-order and the
    # base ring level's v_7(1) is read unchecked.
    ("p + x^5 + y^5", 7, 2, False, 1),
    # rule_frobenius_diagonal_strict reads v_3(3) through padic_valuation.
    ("p^3 + x^3 + y^3", 3, 0, False, 2),
    # The ring context and fpt_diagonal of the residue x^3 + y^3 of an f
    # that is no diagonal; the p-th root lift builds its witness unchecked.
    ("(x + y)^3 + p^3*x*y", 3, 0, True, 2),
    # Only the ring context: the residue has no closed form.
    ("x^2*y + x*y^2 + x^5", 3, 0, False, 1),
])
def test_certify_checks_the_prime_once_per_layer(monkeypatch, src, p, a, cyclotomic, checks):
    """One op of the certify-sweep workload (context, parse, certificate,
    JSON) checks the prime in the ring context and in the public entry
    points it calls, fpt_diagonal and padic_valuation, and nowhere below:
    effective pi-orders, the analysis, the digit walk and derived contexts
    do not."""
    total = count_prime_checks(monkeypatch)
    ctx = RingContext(p, infer_variables(src), ram_level=a, cyclotomic=cyclotomic)
    certify(parse_poly(src, ctx), ctx).to_json()
    assert total[0] == checks


@pytest.mark.parametrize("src, p, e_max, checks", [
    ("p^2 + x^2", 5, 3, 2),
    ("p^3 + x^3 + y^3", 2, 3, 2),
    ("p + x^2*y + x*y^2", 3, 2, 2),
])
def test_limit_profile_checks_the_prime_once_per_profile(monkeypatch, src, p, e_max, checks):
    """A profile checks the prime in the caller's ring context and in the
    level-0 context it analyses f in, and nowhere else: the analysis walks
    the digits and reads the base ring level's v_p unchecked, and each
    level derives its context and walks its digits without another check."""
    total = count_prime_checks(monkeypatch)
    ctx = RingContext(p, infer_variables(src))
    limit_profile(parse_poly(src, ctx), e_max).to_json()
    assert total[0] == checks


def test_limit_profile_formats_no_rule_text(monkeypatch):
    """A profile keeps only each level's bounds, so until it is rendered no
    rule formats a hypothesis or a note."""
    calls = count_calls(monkeypatch, ("format_rat",))
    profile = limit_profile(CUBIC_P5, 3)
    assert calls["format_rat"] == 0
    assert [s.exact for s in profile.steps] == [F(1), F(3, 5), F(3, 5), F(3, 5)]


def test_limit_profile_reads_each_diagonal_fpt_once(monkeypatch):
    """rule_blowup_diagonal and rule_diagonal_ramified read one diagonal fpt
    and digit level per level: level 0 walks the residue x^3 + y^3 once, and
    each level a, level 0 included, reads only (3, 3, 2 * 5^a), once,
    through scaled_digits."""
    import sys

    mod = sys.modules["threshold_lab.certify"]
    walks, levels = Counter(), Counter()
    walk, read = mod.diagonal_digits, mod.scaled_digits

    def counted_walk(p, exps):
        walks[exps] += 1
        return walk(p, exps)

    def counted_read(p, xs, x_level, t, a):
        levels[(*xs, t * p**a)] += 1
        return read(p, xs, x_level, t, a)

    monkeypatch.setattr(mod, "diagonal_digits", counted_walk)
    monkeypatch.setattr(mod, "scaled_digits", counted_read)
    limit_profile(CUBIC_P5, 3)
    assert walks == Counter([(3, 3)])
    assert levels == Counter([(3, 3, 2 * 5**a) for a in range(4)])


@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    xs=st.lists(st.integers(2, 30), min_size=1, max_size=3).map(tuple),
    t=st.integers(1, 12),
)
@settings(max_examples=200, deadline=None)
def test_derived_levels_read_the_scaled_diagonal(p, xs, t):
    """Level 0 and each derived level a = 1..12 read the digits that
    diagonal_digits walks from column 0 for (*xs, t p^a), both where the
    residue's digit level lies below a (no walk) and where the walk resumes
    at column a; level 0 reads none for a linear pi-slot."""
    f = mixed_diagonal_poly(p, 0, t, xs)
    base = analyze(f, ctx_of(f))
    for a in range(13):
        want = diagonal_digits(p, (*xs, t * p**a)) if t * p**a > 1 else None
        assert relevel_facts(base, a).diag.digits == want
        if want is not None:
            assert scaled_digits(p, xs, base.diag.x_level, t, a) == want


# p + x^5 + y^5 at p = 7: levels 1 to 3 check containments of f^3, f^19 and
# f^19 again.
QUINTIC_P7 = MixedPoly(7, 0, ("x", "y"), {(1, (0, 0)): 1, (0, (5, 0)): 1, (0, (0, 5)): 1})


def test_limit_profile_expands_each_containment_power_once(monkeypatch):
    """The levels of a profile share the level-0 powers of f: f^3 (level 1)
    and f^19 (levels 2 and 3) are each expanded once."""
    import sys

    mod = sys.modules["threshold_lab.certify"]
    powers = Counter()
    expand = mod.pow_mixed

    def counted(f, b):
        powers[b] += 1
        return expand(f, b)

    monkeypatch.setattr(mod, "pow_mixed", counted)
    profile = limit_profile(QUINTIC_P7, 3)
    assert powers == Counter({3: 1, 19: 1})
    assert [s.exact for s in profile.steps] == [F(1), F(3, 7), F(19, 49), F(19, 49)]


def test_shared_power_alarm_names_the_level_witness(monkeypatch):
    """A digit formula forced to promise f^19 in (pi^343, x_i^343) at level 3
    fails on the f^19 that level 2 expanded, and the alarm names the same
    witness as a fresh level-3 expansion."""
    import sys

    mod = sys.modules["threshold_lab.certify"]
    read = mod.scaled_digits

    def forced(p, xs, x_level, t, a):
        if (*xs, t * p**a) == (5, 5, 343):
            return 3, F(19, 343), F(1)
        return read(p, xs, x_level, t, a)

    monkeypatch.setattr(mod, "scaled_digits", forced)
    f3 = relevel(QUINTIC_P7, 3)
    fresh = weighted_membership(pow_mixed(f3, 19), ctx_of(f3), 343)
    assert not fresh
    with pytest.raises(InternalInconsistencyError) as alarm:
        limit_profile(QUINTIC_P7, 3)
    assert str(alarm.value) == (
        "diagonal_ramified: the digit formula promised f^19 in (pi^343, x_i^343) "
        f"but the containment fails at term {fresh.failure}"
    )


# pi-slot diagonals, pi-terms with p-content and a unit other than 1 included
LEVEL_ZERO_DIAGONALS = (
    ({(1, (0, 0)): 1, (0, (2, 0)): 1, (0, (0, 3)): 1}, (1, 2, 3)),
    ({(2, (0, 0)): 1, (0, (3, 0)): 1, (0, (0, 5)): 1}, (1, 3, 5)),
    ({(3, (0, 0)): 1, (0, (2, 0)): 1}, (2, 4, 6)),
    ({(1, (0, 0)): 3, (0, (4, 0)): 1, (0, (0, 6)): 2}, (2, 5)),
)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_derived_level_containment_matches_the_sorted_scan(p):
    """The level-0 f^b read at level a through the canonical inclusion gives
    the verdict and the grlex-first witness of the sorted scan of
    relevel(f^b, a), at a = 0..3 and q = p..p^4; both verdicts occur."""
    verdicts = Counter()
    for terms, bs in LEVEL_ZERO_DIAGONALS:
        f = MixedPoly(p, 0, ("x", "y"), terms)
        for b in bs:
            fb = pow_mixed(f, b)
            for a in range(4):
                ctx = RingContext(p, f.vars, ram_level=a)
                fa = relevel(fb, a)
                for e in range(1, 5):
                    res = weighted_membership(fb, ctx, p**e)
                    assert res == sorted_scan(fa, ctx, p**e) == weighted_membership(fa, ctx, p**e)
                    verdicts[res.contained] += 1
    assert verdicts[True] and verdicts[False]


def test_derived_level_containment_reads_only_level_zero():
    """Only a level-0 f is read in a ring of another level."""
    f = MixedPoly(3, 1, ("x",), {(1, (0,)): 1, (0, (2,)): 1})
    with pytest.raises(ValueError):
        weighted_membership(f, RingContext(3, ("x",), ram_level=2), 3)
    with pytest.raises(ValueError):
        weighted_membership(f, RingContext(3, ("x",)), 3)


def _count_oracle_levels(monkeypatch, nu) -> list[int]:
    """Replace fpt.frobenius_nu by nu, recording the level e of each call."""
    import sys

    levels: list[int] = []

    def counted(g, e):
        levels.append(e)
        return nu(g, e)

    monkeypatch.setattr(sys.modules["threshold_lab.fpt"], "frobenius_nu", counted)
    return levels


def test_limit_profile_asks_the_oracle_once_per_level_e(monkeypatch):
    """rule_fpt_lower asks for the level-2 bracket at every ram level and
    rule_ramified_upper for level min(a, 2); the levels of one profile share
    their brackets, so the oracle runs once for e = 1 and once for e = 2."""
    import sys

    levels = _count_oracle_levels(monkeypatch, sys.modules["threshold_lab.fpt"].frobenius_nu)
    assert limit_profile(CROSS_P2, 3).to_json() == (
        '{"steps":[{"ram_level":0,"lower":"3/4","upper":"1","exact":null},'
        '{"ram_level":1,"lower":"3/4","upper":"1","exact":null},'
        '{"ram_level":2,"lower":"3/4","upper":"1","exact":null},'
        '{"ram_level":3,"lower":"3/4","upper":"1","exact":null}],'
        '"limit":null,"attained":null,'
        '"notes":["limit not computed in closed form (reduction is not diagonal)"]}'
    )
    assert sorted(levels) == [1, 2]


def test_limit_profile_notes_a_zero_residue():
    """p x + p^2 has residue 0: the note says so, rather than calling the
    residue non-diagonal, and no level has a lower bound."""
    profile = limit_profile(MixedPoly(5, 0, ("x",), {(1, (1,)): 1, (2, (0,)): 1}), 2)
    assert profile.to_json() == (
        '{"steps":[{"ram_level":0,"lower":null,"upper":"1","exact":null},'
        '{"ram_level":1,"lower":null,"upper":"1","exact":null},'
        '{"ram_level":2,"lower":null,"upper":"1","exact":null}],'
        '"limit":null,"attained":null,'
        '"notes":["limit not computed: the residue f mod pi is zero"]}'
    )


def test_oracle_refusal_is_remembered(monkeypatch):
    """A bracket the oracle refuses is a remembered abstention: it is not
    asked again at a later ram level."""
    import sys

    fpt = sys.modules["threshold_lab.fpt"]

    def refuse(g, e):
        raise fpt.ResourceGuardError(f"level {e} is over budget")

    levels = _count_oracle_levels(monkeypatch, refuse)
    steps = limit_profile(CROSS_P2, 3).steps
    assert sorted(levels) == [1, 2]
    assert [(s.lower, s.upper) for s in steps] == [(None, F(1))] * 4


def _bogus_cap(monkeypatch, bounds: dict[int, dict]) -> MixedPoly:
    """Replace the threshold cap by a rule that certifies bounds[a] at ram
    level a and nothing elsewhere; returns an f whose own bounds are [3/4, 1]
    at every level."""
    import sys

    def rule(facts):
        level = bounds.get(facts.ctx.ram_level)
        return level and RuleResult("threshold_cap", "bogus", "bogus", **level, text=no_text)

    monkeypatch.setattr(sys.modules["threshold_lab.certify"], "rule_threshold_cap", rule)
    return MixedPoly(2, 0, ("x", "y"), {(0, (1, 1)): 1, (0, (2, 2)): 1})


UPPER_0 = {0: {"upper": Bound(F(4, 5))}}


@pytest.mark.parametrize("bounds, levels", [
    ({**UPPER_0, 1: {"lower": Bound(F(9, 10))}}, (1, 0)),
    ({**UPPER_0, 1: {"lower": Bound(F(4, 5), strict=True)}}, (1, 0)),
    ({**UPPER_0, 2: {"lower": Bound(F(9, 10))}}, (2, 0)),
    ({**UPPER_0, 1: {"upper": Bound(F(4, 5), strict=True)},
      2: {"lower": Bound(F(4, 5))}}, (2, 1)),
])
def test_cross_level_alarm(monkeypatch, bounds, levels):
    """Ramifying further cannot raise ppt, so a lower bound at a later level
    above (or touching, with a strict side) an upper bound at an earlier
    level is a contradiction, although each level is consistent on its own.
    The alarm names the later level and the earlier level with the least
    upper bound it excludes (on a tie the strict one, else the earliest)."""
    f = _bogus_cap(monkeypatch, bounds)
    for a in range(3):
        certify(relevel(f, a), RingContext(2, f.vars, ram_level=a))
    with pytest.raises(InternalInconsistencyError) as info:
        limit_profile(f, 3)
    later, earlier = levels
    message = str(info.value)
    assert f"at ram level {later} excludes" in message
    assert message.endswith(f"at ram level {earlier}")


def test_cross_level_bounds_may_touch(monkeypatch):
    """A non-strict lower bound at a later level equal to a non-strict upper
    bound at an earlier level is consistent."""
    f = _bogus_cap(monkeypatch, {**UPPER_0, 1: {"lower": Bound(F(4, 5))}})
    steps = limit_profile(f, 2).steps
    assert [(s.lower, s.upper) for s in steps] == [
        (F(3, 4), F(4, 5)), (F(4, 5), F(1)), (F(3, 4), F(1)),
    ]


# One level's bound for _bogus_cap: a lower or an upper bound in [3/4, 1]
# that f's own non-strict bounds [3/4, 1] at that level do not contradict.
LEVEL_BOUND = st.none() | st.tuples(
    st.sampled_from(["lower", "upper"]),
    st.sampled_from([F(3, 4), F(4, 5), F(1)]),
    st.booleans(),
).filter(lambda b: not b[2] or b[:2] not in {("lower", F(1)), ("upper", F(3, 4))}).map(lambda b: {b[0]: Bound(b[1], b[2])})


@given(levels=st.lists(LEVEL_BOUND, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_cross_level_alarm_matches_all_pairs(levels):
    """The alarm fires at the level where the all-pairs check first fires,
    and names the least of the upper bounds that level's lower bound
    excludes (on a tie the strict one, else the earliest)."""
    bounds = {a: b for a, b in enumerate(levels) if b}
    with pytest.MonkeyPatch.context() as mp:
        f = _bogus_cap(mp, bounds)
        steps = []
        for a in range(len(levels)):
            cert = certify(relevel(f, a), RingContext(2, f.vars, ram_level=a))
            steps.append(ProfileStep(
                a, cert.lower, cert.lower_strict, cert.upper, cert.upper_strict, cert.exact
            ))
        expected = all_pairs_alarm(steps)
        if expected is None:
            assert limit_profile(f, len(levels) - 1).steps == steps
            return
        with pytest.raises(InternalInconsistencyError) as info:
            limit_profile(f, len(levels) - 1)
    later, excluded = expected
    least = min(excluded, key=lambda s: (s.upper, not s.upper_strict, s.level))
    message = str(info.value)
    assert f"at ram level {later} excludes" in message
    assert message.endswith(f"at ram level {least.level}")


BOUND_VALUES = st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)])
BOUNDS = st.none() | st.builds(Bound, BOUND_VALUES, st.booleans())
RULE_IDS = st.sampled_from(["alpha", "beta", "gamma"])
# A rule that proves an equality certifies the value as two non-strict sides.
RULE_RESULTS = st.lists(
    st.builds(
        lambda rule_id, lower, upper: RuleResult(
            rule_id, "s", "q", lower=lower, upper=upper, text=no_text
        ),
        RULE_IDS,
        BOUNDS,
        BOUNDS,
    )
    | st.builds(
        lambda rule_id, exact: RuleResult(
            rule_id, "s", "q", lower=Bound(exact), upper=Bound(exact), text=no_text
        ),
        RULE_IDS,
        BOUND_VALUES,
    ),
    max_size=6,
)


@given(RULE_RESULTS)
@settings(max_examples=300, deadline=None)
def test_intersect_matches_the_list_intersection(results):
    """The one-scan intersection returns the list-based bounds, strictness
    and exact value, and raises the same alarm text when they collide."""
    try:
        expected = _list_intersection(results)
    except InternalInconsistencyError as ex:
        with pytest.raises(InternalInconsistencyError) as alarm:
            _intersect(results)
        assert str(alarm.value) == str(ex)
    else:
        assert tuple(_intersect(results)) == expected


def test_intersect_alarm_names_rules_tied_at_the_lower_bound():
    results = [
        RuleResult("zeta", "s", "q", lower=Bound(F(1, 2)), text=no_text),
        RuleResult("cap", "s", "q", upper=Bound(F(1, 3)), text=no_text),
        RuleResult("alpha", "s", "q", lower=Bound(F(1, 2), strict=True), text=no_text),
    ]
    with pytest.raises(InternalInconsistencyError) as alarm:
        _intersect(results)
    assert str(alarm.value) == (
        "certified lower 1/2 (strict) from ['alpha', 'zeta'] excludes "
        "certified upper 1/3 from ['cap']"
    )


def test_profile_step_checks_its_bounds():
    """A profile level keeps the certificate's consistency checks."""
    with pytest.raises(AssertionError):
        ProfileStep(0, F(1), False, F(1, 2), False, None)
    with pytest.raises(AssertionError):
        ProfileStep(0, F(1, 2), True, F(1, 2), False, F(1, 2))
    ProfileStep(0, F(1, 2), False, F(1, 2), False, F(1, 2))


def test_certificate_json_shape():
    f = MixedPoly(2, 0, ("x",), {(0, (2,)): 1, (2, (0,)): 1})
    cert = certify(f, ctx_of(f))
    doc = json.loads(cert.to_json())
    assert list(doc) == ["input", "lower", "upper", "exact", "rules", "notes"]
    assert doc["lower"] == {"value": "1/2", "strict": False}
    assert doc["exact"] == "1/2"
    assert all(list(r) == ["id", "paper_ref", "quote", "hypotheses"] for r in doc["rules"])
    assert cert.to_json() == cert.to_json()    # deterministic serialization


# -- releveling and limit profiles -----------------------------------------


def test_relevel():
    f = MixedPoly(2, 0, ("x",), {(1, (0,)): 1, (0, (2,)): 3})
    g = relevel(f, 2)
    assert g.ram_level == 2
    assert g.terms == {(4, (0,)): 1, (0, (2,)): 3}
    with pytest.raises(ValueError):
        relevel(g, 3)


def test_limit_profile_non_attained():
    f = MixedPoly(5, 0, ("x",), {(2, (0,)): 1, (0, (2,)): 1})
    profile = limit_profile(f, 4)
    uppers = [s.upper for s in profile.steps]
    assert uppers == [F(1), F(3, 5), F(13, 25), F(63, 125), F(313, 625)]
    assert all(s.exact == u for s, u in zip(profile.steps, uppers))
    assert profile.limit == F(1, 2)
    assert profile.attained is False
    assert any("not attained" in n for n in profile.notes)
    assert all(u2 <= u1 for u1, u2 in zip(uppers, uppers[1:]))


def test_limit_profile_attained():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    profile = limit_profile(f, 3)
    uppers = [s.upper for s in profile.steps]
    assert uppers == [F(3, 4), F(1, 2), F(1, 2), F(1, 2)]
    assert profile.limit == F(1, 2)
    assert profile.attained is True
    assert not any("not attained" in n for n in profile.notes)


def test_limit_profile_does_not_carry_upper_bounds():
    """Each level intersects only its own rules' bounds: p^3 + p^2 x at
    p = 5 is a fifth power mod p^2 (witness h = 0) over the unramified base
    only, so its upper bound 4/5 at level 0 is not carried to level 1."""
    f = MixedPoly(5, 0, ("x",), {(3, (0,)): 1, (2, (1,)): 1})
    assert limit_profile(f, 1).steps == [
        ProfileStep(0, None, False, F(4, 5), False, None),
        ProfileStep(1, None, False, F(1), False, None),
    ]


def test_limit_profile_validation():
    f = MixedPoly(5, 0, ("x",), {(2, (0,)): 1, (0, (2,)): 1})
    with pytest.raises(ValueError):
        limit_profile(f, -1)
    with pytest.raises(ValueError):
        limit_profile(relevel(f, 1), 2)


def test_limit_profile_json():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    doc = json.loads(limit_profile(f, 1).to_json())
    assert list(doc) == ["steps", "limit", "attained", "notes"]
    assert list(doc["steps"][0]) == ["ram_level", "lower", "upper", "exact"]
    assert doc["limit"] == "1/2"
    assert doc["attained"] is True
    assert doc["steps"][0]["ram_level"] == 0
    assert doc["steps"][0]["upper"] == "3/4"


# -- randomized cross-validation -------------------------------------------


@given(
    a=st.integers(0, 2),
    pi_exp=st.integers(1, 5),
    s=st.integers(2, 5),
    p=st.sampled_from([2, 3, 5]),
)
@settings(max_examples=40, deadline=None)
def test_two_term_diagonals_have_consistent_bounds(a, pi_exp, s, p):
    f = mixed_diagonal_poly(p, a, pi_exp, (s,))
    cert = certify(f, ctx_of(f))
    assert cert.upper is not None and cert.upper <= 1
    if cert.lower is not None and cert.upper is not None:
        assert cert.lower <= cert.upper
