"""The engine's records: value equality, hashing, immutability, keyword
construction and the checks that validating records make, with the same
checks on a diagonal's prime and exponents."""

from fractions import Fraction as F

import pytest

from threshold_lab.certify import (
    Bound,
    BoundCertificate,
    Facts,
    LimitProfile,
    MixedDiagonal,
    ProfileStep,
    analyze,
    limit_profile,
)
from threshold_lab.exact import BasePExpansion
from threshold_lab.fpt import INFINITE, FptBracket, compute_L, fpt_diagonal
from threshold_lab.poly import MembershipResult, MixedPoly, RingContext
from threshold_lab.verify import CheckResult, GoldenCase, golden_cases

# (record, the same record built by keyword, a record that differs from it)
IMMUTABLE = [
    (Bound(F(1, 2)), Bound(value=F(1, 2), strict=False), Bound(F(1, 2), True)),
    (
        MixedDiagonal(3, True, (0,), (2,), INFINITE, (1, F(4, 5), F(5, 6))),
        MixedDiagonal(
            pi_order=3, monic=True, slots=(0,), xs=(2,), x_level=INFINITE,
            digits=(1, F(4, 5), F(5, 6)),
        ),
        MixedDiagonal(3, False, (0,), (2,), INFINITE, (1, F(4, 5), F(5, 6))),
    ),
    (
        ProfileStep(0, F(1, 2), True, F(1), False, None),
        ProfileStep(
            level=0, lower=F(1, 2), lower_strict=True, upper=F(1), upper_strict=False, exact=None
        ),
        ProfileStep(1, F(1, 2), True, F(1), False, None),
    ),
    (
        FptBracket(2, 4, F(4, 9), F(5, 9)),
        FptBracket(e=2, nu=4, lower=F(4, 9), upper=F(5, 9)),
        FptBracket(1, 1, F(1, 3), F(2, 3)),
    ),
    (
        MembershipResult(False, (0, (1,))),
        MembershipResult(contained=False, failure=(0, (1,))),
        MembershipResult(True, None),
    ),
    (CheckResult("a", True), CheckResult(name="a", ok=True, detail=""), CheckResult("a", False)),
    (
        RingContext(5, ("x", "y")),
        RingContext(p=5, vars=("x", "y"), ram_level=0, cyclotomic=False),
        RingContext(5, ("x", "y"), ram_level=1),
    ),
    (
        BasePExpansion(3, (), (1,)),
        BasePExpansion(p=3, preperiod=(), period=(1,)),
        BasePExpansion(3, (0,), (1,)),
    ),
]


@pytest.mark.parametrize("record, by_keyword, other", IMMUTABLE)
def test_immutable_record_equality_and_hashing(record, by_keyword, other):
    assert record == by_keyword and hash(record) == hash(by_keyword)
    assert record != other
    assert {record: 1, other: 2}[by_keyword] == 1
    assert len({record, by_keyword, other}) == 2


@pytest.mark.parametrize("record", [row[0] for row in IMMUTABLE])
def test_immutable_record_refuses_assignment(record):
    name = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.undeclared = None


def test_record_defaults_and_repr():
    assert Bound(F(1, 3)).strict is False
    assert CheckResult("x", False, "why").line() == "FAIL x: why"
    assert repr(RingContext(5, ["x"])) == (
        "RingContext(p=5, vars=('x',), ram_level=0, cyclotomic=False)"
    )
    case = golden_cases()[0]
    assert case == GoldenCase(**case._asdict())
    assert GoldenCase(*case[:-1]).note_fragments == ()


def test_membership_result_truth():
    assert MembershipResult(True, None)
    assert not MembershipResult(False, (0, (2,)))


def test_validating_records_normalise_their_fields():
    assert RingContext(5, ["x", "y"]).vars == ("x", "y")
    assert BasePExpansion(3, (2,), (2,)) == BasePExpansion(3, (), (2,))
    assert BasePExpansion(3, (), (1, 1)).period == (1,)


@pytest.mark.parametrize("args, kwargs, message", [
    ((4, ("x",)), {}, "expected a prime, got 4"),
    ((5, ()), {}, "at least one x-variable is required"),
    ((5, ("x", "x")), {}, "duplicate variable names in ('x', 'x')"),
    ((5, ("x",)), {"ram_level": -1}, "ram_level must be >= 0, got -1"),
    (
        (5, ("x",)),
        {"ram_level": 1, "cyclotomic": True},
        "cyclotomic base and ram_level > 0 are mutually exclusive",
    ),
])
def test_ring_context_validation_messages(args, kwargs, message):
    with pytest.raises(ValueError) as info:
        RingContext(*args, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    ((6, (2, 3)), "expected a prime, got 6"),
    ((5, ()), "at least one exponent is required"),
    ((5, (2, 1)), "diagonal exponents must be integers >= 2, got 1"),
    ((5, (2, 2.5)), "diagonal exponents must be integers >= 2, got 2.5"),
    ((6, ()), "expected a prime, got 6"),
])
def test_diagonal_data_validation_messages(args, message):
    """compute_L and fpt_diagonal check the prime first, then the exponents."""
    for diagonal_function in (compute_L, fpt_diagonal):
        with pytest.raises(ValueError) as info:
            diagonal_function(*args)
        assert str(info.value) == message


def test_facts_equality_ignores_the_memos():
    f = MixedPoly(5, 0, ("x", "y"), {(2, (0, 0)): 1, (0, (2, 0)): 1, (0, (0, 3)): 1})
    ctx = RingContext(5, ("x", "y"))
    facts, fresh = analyze(f, ctx), analyze(f, ctx)
    facts.power(2)
    facts.bracket(1)
    assert facts.powers and facts.brackets and not fresh.powers
    assert facts == fresh and hash(facts) == hash(fresh)
    assert facts.terms == f.sorted_terms()
    assert Facts(*fresh, terms=None) == fresh
    with pytest.raises(AttributeError):
        facts.residue_fpt = None


# (level, lower, lower_strict, upper, upper_strict, exact) that the record
# check refuses: lower above upper, an exact value with a strict side, and an
# exact value with a missing side.
INCONSISTENT_STEPS = [
    (0, F(1), False, F(1, 2), False, None),
    (0, F(1, 2), True, F(1, 2), False, F(1, 2)),
    (0, None, False, None, False, F(1, 2)),
    (0, F(1, 2), False, None, False, F(1, 2)),
]


def test_mutable_records():
    f = MixedPoly(2, 0, ("x",), {(0, (2,)): 1, (2, (0,)): 1})
    ctx = RingContext(2, ("x",))
    cert = BoundCertificate(
        lower=F(1, 2), lower_strict=False, upper=F(1, 2), upper_strict=False,
        exact=F(1, 2), rules=[], notes=[], poly=f, ctx=ctx, terms=f.sorted_terms(),
    )
    cert.notes = ["kept"]
    assert cert.notes == ["kept"]
    with pytest.raises(AssertionError):
        BoundCertificate(F(1), False, F(1, 2), False, None, [], [], f, ctx, f.sorted_terms())
    with pytest.raises(AssertionError):
        BoundCertificate(None, False, F(1, 2), False, F(1, 2), [], [], f, ctx, f.sorted_terms())
    for fields in INCONSISTENT_STEPS:
        with pytest.raises(AssertionError):
            ProfileStep(*fields)
        with pytest.raises(AssertionError):
            ProfileStep(**dict(zip(ProfileStep._fields, fields)))
    profile = limit_profile(f, 2)
    assert profile == limit_profile(f, 2)
    assert profile == LimitProfile(
        steps=profile.steps, limit=profile.limit, attained=profile.attained, notes=profile.notes
    )
    assert profile != LimitProfile(profile.steps[:1], profile.limit, profile.attained, [])
