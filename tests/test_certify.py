"""Tests for the certification engine: rules, combined certificates, profiles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.certify import (
    ELLIPTIC_FAMILIES,
    Bound,
    InternalInconsistencyError,
    RingContext,
    RuleResult,
    base_ring_level,
    certify,
    exact_fpt_of_reduction,
    limit_profile,
    match_mixed_diagonal,
    pth_root_modulo,
    relevel,
    rule_blowup_diagonal,
    rule_diagonal_ramified,
    rule_elliptic,
    rule_extremal_strict,
    rule_frobenius_diagonal_strict,
    rule_pth_root_upper,
    rule_ramified_upper,
    rule_threshold_cap,
)
from threshold_lab.poly import MixedPoly, SparsePolyFp
from threshold_lab.verify import golden_cases, mixed_diagonal_poly, random_diagonal_instance

F = Fraction


def ctx_of(f, **kw):
    return RingContext(f.p, f.vars, ram_level=f.ram_level, **kw)


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
    d = match_mixed_diagonal(f, ctx_of(f))
    assert d is not None
    assert d.pi_order == 3 and d.pi_unit_one
    assert d.x_exponents() == (3, 3)
    assert d.exponents() == (3, 3, 3)
    assert d.monic()


def test_match_folds_p_content_into_pi_order():
    # 27 = 3^3 at p = 3, a = 0 counts as pi^3
    f = MixedPoly(3, 0, ("x",), {(0, (0,)): 27, (0, (3,)): 1})
    d = match_mixed_diagonal(f, ctx_of(f))
    assert d is not None and d.pi_order == 3 and d.pi_unit_one
    g = MixedPoly(3, 0, ("x",), {(1, (0,)): 9, (0, (3,)): 1})
    e = match_mixed_diagonal(g, ctx_of(g))
    assert e is not None and e.pi_order == 3
    assert e.pi_unit_one                 # 9*pi = pi^3 exactly, unit part 1


def test_match_rejects_non_diagonal_shapes():
    mixed = MixedPoly(2, 0, ("x", "y"), {(0, (1, 1)): 1})
    assert match_mixed_diagonal(mixed, ctx_of(mixed)) is None
    repeated = MixedPoly(2, 0, ("x",), {(0, (2,)): 1, (0, (3,)): 1})
    assert match_mixed_diagonal(repeated, ctx_of(repeated)) is None
    p_coeff = MixedPoly(3, 0, ("x",), {(0, (2,)): 3})
    assert match_mixed_diagonal(p_coeff, ctx_of(p_coeff)) is None
    pi_on_x = MixedPoly(3, 0, ("x",), {(1, (2,)): 1})
    assert match_mixed_diagonal(pi_on_x, ctx_of(pi_on_x)) is None


@pytest.mark.parametrize("terms, value", [
    ({(3, 0): 1, (0, 3): 1}, F(1, 2)),         # x^3 + y^3 over F_2
    ({(2, 3): 1}, F(1, 3)),                    # monomial: min 1/e_i
    ({(1, 0): 1, (0, 4): 1}, F(1)),            # linear variable: regular
    ({(1, 1): 1, (0, 2): 1}, None),            # not a diagonal
    ({(2, 0): 1, (1, 0): 1}, None),            # repeated variable
])
def test_exact_fpt_of_reduction(terms, value):
    g = SparsePolyFp(2, ("x", "y"), terms)
    assert exact_fpt_of_reduction(g) == value


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
    assert base_ring_level(f, ctx_of(f)) == c


# -- individual rules ------------------------------------------------------


def test_blowup_diagonal_bounds():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    res = rule_blowup_diagonal(f, ctx_of(f))
    assert res is not None
    assert res.lower == Bound(F(1, 2))
    assert res.upper == Bound(F(1))
    assert any("lct = 1" in n for n in res.notes)


def test_blowup_regular_element():
    # pi + x^2 at a = 1 is a regular parameter: threshold exactly 1
    f = MixedPoly(2, 1, ("x",), {(1, (0,)): 1, (0, (2,)): 1})
    res = rule_blowup_diagonal(f, ctx_of(f))
    assert res is not None
    assert res.lower == Bound(F(1)) and res.upper == Bound(F(1))
    cert = certify(f, ctx_of(f))
    assert cert.exact == F(1)


def test_extremal_strict_fires():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    res = rule_extremal_strict(f, ctx_of(f))
    assert res is not None
    assert res.lower == Bound(F(1, 2), strict=True)


def test_extremal_strict_cross_pattern():
    # pi^3 + x^2 y + x y^2 matches the {X^q Y, X Y^q} shape at q = 2
    f = MixedPoly(2, 0, ("x", "y"), {(3, (0, 0)): 1, (0, (2, 1)): 1, (0, (1, 2)): 1})
    res = rule_extremal_strict(f, ctx_of(f))
    assert res is not None and res.lower == Bound(F(1, 2), strict=True)


def test_extremal_abstains_below_degree_bound():
    # q + 1 = 3 exceeds every degree of x^2 + y^2, so no pattern exists
    f = mixed_diagonal_poly(2, 0, None, (2, 2))
    assert rule_extremal_strict(f, ctx_of(f)) is None


def test_extremal_abstains_at_positive_ram_level():
    f = mixed_diagonal_poly(2, 1, 3, (3, 3))
    assert rule_extremal_strict(f, ctx_of(f)) is None


def test_frobenius_diagonal_strict():
    f = mixed_diagonal_poly(3, 0, 3, (3, 3))
    res = rule_frobenius_diagonal_strict(f, ctx_of(f))
    assert res is not None
    assert res.lower == Bound(F(1, 3), strict=True)
    # p = 2 is outside the rule's hypotheses
    g = mixed_diagonal_poly(2, 0, 2, (2, 2))
    assert rule_frobenius_diagonal_strict(g, ctx_of(g)) is None
    # non-p-power exponent
    h = mixed_diagonal_poly(3, 0, 4, (4, 4))
    assert rule_frobenius_diagonal_strict(h, ctx_of(h)) is None


def test_elliptic_upper():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    res = rule_elliptic(f, ctx_of(f))
    assert res is not None
    assert res.upper == Bound(F(3, 4))
    assert res.lower is None
    g = mixed_diagonal_poly(7, 0, 3, (3, 3))   # 7 = 1 mod 3: not this family
    assert rule_elliptic(g, ctx_of(g)) is None


def test_elliptic_families_constant():
    assert ELLIPTIC_FAMILIES == ("diag_cubic_p3", "h_xy_linear")


def test_pth_root_witness():
    # (x+y)^2 + 4y^3: the square root x + y survives modulo p^2
    f = MixedPoly(2, 0, ("x", "y"),
                  {(0, (2, 0)): 1, (0, (1, 1)): 2, (0, (0, 2)): 1, (0, (0, 3)): 4})
    ctx = ctx_of(f)
    h = pth_root_modulo(f, ctx, 2)
    assert h is not None
    assert h.terms == {(0, (1, 0)): 1, (0, (0, 1)): 1}
    res = rule_pth_root_upper(f, ctx)
    assert res is not None and res.upper == Bound(F(1, 2))


def test_pth_root_no_witness():
    f = mixed_diagonal_poly(2, 0, None, (3, 3))
    assert pth_root_modulo(f, ctx_of(f), 1) is None
    # x^3 is a cube mod 3 but x^3 + 3x is not a cube mod 9
    g = MixedPoly(3, 0, ("x",), {(0, (3,)): 1, (0, (1,)): 3})
    assert pth_root_modulo(g, ctx_of(g), 1) is not None
    assert pth_root_modulo(g, ctx_of(g), 2) is None


def test_pth_root_cyclotomic():
    ctx = RingContext(3, ("x",), cyclotomic=True)
    f = MixedPoly(3, 0, ("x",), {(0, (3,)): 1, (3, (0,)): 1})
    h = pth_root_modulo(f, ctx, 3)
    assert h is not None
    res = rule_pth_root_upper(f, ctx)
    assert res is not None and res.upper == Bound(F(1, 3))
    cert = certify(f, ctx)
    assert cert.exact == F(1, 3)


def test_ramified_upper():
    # p + x^2, re-expressed at level 1 where one descent step is available
    f = relevel(MixedPoly(5, 0, ("x",), {(2, (0,)): 1, (0, (2,)): 1}), 1)
    res = rule_ramified_upper(f, ctx_of(f))
    assert res is not None
    assert res.upper == Bound(F(3, 5))


def test_ramified_upper_gated_by_base_level():
    # pi + x^2 at a = 1 uses the full ramification: no room to descend
    f = MixedPoly(2, 1, ("x",), {(1, (0,)): 1, (0, (2,)): 1})
    assert rule_ramified_upper(f, ctx_of(f)) is None


def test_diagonal_ramified_exact():
    f = mixed_diagonal_poly(5, 1, 3, (3,))
    res = rule_diagonal_ramified(f, ctx_of(f))
    assert res is not None and res.exact == F(3, 5)


def test_diagonal_ramified_abstains_when_slots_reach_p():
    # pi^3 + x^3 + y^3 has three slots = p at p = 3
    f = mixed_diagonal_poly(3, 1, 3, (3, 3))
    assert rule_diagonal_ramified(f, ctx_of(f)) is None
    # and at a = 0 the digit level 1 exceeds the ramification budget
    g = mixed_diagonal_poly(3, 0, 3, (3,))
    assert rule_diagonal_ramified(g, ctx_of(g)) is None


def test_diagonal_ramified_alarm_names_the_witness(monkeypatch):
    """A digit formula promising too small a power trips the containment
    cross-check, and the alarm names the first term outside the ideal."""
    import sys

    mod = sys.modules["threshold_lab.certify"]
    f = mixed_diagonal_poly(5, 1, 3, (3,))  # pi^3 + x^3, digit level L = 1
    monkeypatch.setattr(mod, "fpt_diagonal", lambda p, exps: F(1, 5))
    with pytest.raises(InternalInconsistencyError) as alarm:
        rule_diagonal_ramified(f, ctx_of(f))
    assert str(alarm.value) == (
        "diagonal_ramified: the digit formula promised f^1 in (pi^5, x_i^5) "
        "but the containment fails at term (3, (0,))"
    )


def test_threshold_cap_always_applies():
    f = MixedPoly(2, 0, ("x",), {(0, (1,)): 1})
    res = rule_threshold_cap(f, ctx_of(f))
    assert res.upper == Bound(F(1))


# -- certificates ----------------------------------------------------------


@pytest.mark.parametrize("case", golden_cases(), ids=lambda c: c.name)
def test_golden_certificates(case):
    cert = certify(case.poly, case.ctx)
    assert (cert.lower, cert.lower_strict) == (case.lower, case.lower_strict)
    if case.upper is not None:
        assert (cert.upper, cert.upper_strict) == (case.upper, case.upper_strict)
    assert cert.exact == case.exact
    for frag in case.note_fragments:
        assert any(frag in note for note in cert.notes)


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


def test_certify_ramified_power_diagonals():
    for p, d in ((2, 3), (3, 4), (5, 6)):
        vars = tuple(f"x{i}" for i in range(2, d + 1))
        f = mixed_diagonal_poly(p, 1, d, (d,) * (d - 1), vars=vars)
        cert = certify(f, RingContext(p, vars, ram_level=1))
        assert cert.exact == F(1, p)
        fired = [r for r in cert.rules if r.rule_id == "exact_ramified"]
        assert fired and any("termwise" in h for h in fired[0].hypotheses)


def test_certify_family_request():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    cert = certify(f, ctx_of(f), family="diag_cubic_p3")
    assert cert.upper == F(3, 4)
    g = mixed_diagonal_poly(2, 0, None, (2, 2))
    cert = certify(g, ctx_of(g), family="diag_cubic_p3")
    assert any("did not match" in n for n in cert.notes)
    with pytest.raises(ValueError):
        certify(f, ctx_of(f), family="no_such_family")


def test_certify_input_validation():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    with pytest.raises(ValueError):
        certify(f, RingContext(3, f.vars))                # prime mismatch
    with pytest.raises(ValueError):
        certify(f, RingContext(2, ("x", "y", "z")))       # variable mismatch
    with pytest.raises(ValueError):
        certify(MixedPoly.zero(2, 0, ("x",)), RingContext(2, ("x",)))
    unit = MixedPoly(2, 0, ("x",), {(0, (0,)): 1, (0, (1,)): 1})
    with pytest.raises(ValueError):
        certify(unit, RingContext(2, ("x",)))


def test_contradiction_alarm(monkeypatch):
    import sys

    mod = sys.modules["threshold_lab.certify"]

    def bogus_cap(f, ctx):
        return RuleResult(
            "threshold_cap", "bogus", "bogus", (), None, Bound(F(1, 4)), None, (),
        )

    monkeypatch.setattr(mod, "rule_threshold_cap", bogus_cap)
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    with pytest.raises(InternalInconsistencyError):
        certify(f, ctx_of(f))


def test_certificate_json_shape():
    f = MixedPoly(2, 0, ("x",), {(0, (2,)): 1, (2, (0,)): 1})
    cert = certify(f, ctx_of(f))
    doc = cert.to_doc()
    assert set(doc) == {"input", "lower", "upper", "exact", "rules", "notes"}
    assert doc["lower"] == {"value": "1/2", "strict": False}
    assert doc["exact"] == "1/2"
    assert all(set(r) == {"id", "paper_ref", "quote", "hypotheses"} for r in doc["rules"])
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


def test_limit_profile_validation():
    f = MixedPoly(5, 0, ("x",), {(2, (0,)): 1, (0, (2,)): 1})
    with pytest.raises(ValueError):
        limit_profile(f, -1)
    with pytest.raises(ValueError):
        limit_profile(relevel(f, 1), 2)


def test_limit_profile_json():
    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    doc = limit_profile(f, 1).to_doc()
    assert doc["limit"] == "1/2"
    assert doc["steps"][0]["ram_level"] == 0
    assert doc["steps"][0]["upper"] == "3/4"


# -- randomized cross-validation -------------------------------------------


def test_randomized_instances_never_contradict():
    rng = random.Random(1789)
    for _ in range(60):
        f, ctx = random_diagonal_instance(rng)
        cert = certify(f, ctx)
        if cert.lower is not None and cert.upper is not None:
            assert cert.lower <= cert.upper
            if cert.lower == cert.upper:
                assert not (cert.lower_strict or cert.upper_strict)


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
