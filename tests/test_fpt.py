"""Tests for diagonal threshold formulas and the Frobenius-power search oracle."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.exact import is_prime
from threshold_lab.fpt import (
    INFINITE,
    ResourceGuardError,
    compute_L,
    diagonal_digits,
    fpt_diagonal,
    frobenius_nu,
    lct_diagonal,
    oracle_bracket,
)
from threshold_lab.poly import SparsePolyFp
from threshold_lab.verify import diagonal_poly

from reference import fermat_reference, nu_reference, reference_fpt, reference_L

F = Fraction

PRIMES = [2, 3, 5, 7]


def test_diagonal_data_validation():
    """compute_L and fpt_diagonal check the prime and the exponents they take."""
    for diagonal_function in (compute_L, fpt_diagonal):
        with pytest.raises(ValueError):
            diagonal_function(4, (2, 2))
        with pytest.raises(ValueError):
            diagonal_function(3, ())
        with pytest.raises(ValueError):
            diagonal_function(3, (1, 2))     # linear variables are out of scope
        assert diagonal_function(3, [2, 3]) == diagonal_function(3, (2, 3))


@pytest.mark.parametrize("p, exps, L", [
    (3, (3, 3, 3), 1),
    (3, (18, 2), INFINITE),
    (5, (2, 2), INFINITE),
    (2, (2, 2), 1),
    (2, (3, 3), 1),
    (5, (3, 3, 3), 1),
    (7, (3, 3, 3), INFINITE),
    (2, (4, 4), 2),
    # 1/(10^9+7) and 1/(10^9+9) have periods of 500000003 and 55555556 digits
    # at p = 3; the first carry is in column 27.
    (3, (1_000_000_007, 1_000_000_009), 26),
])
def test_compute_L(p, exps, L):
    assert compute_L(p, exps) == L


@pytest.mark.parametrize("p, exps, value", [
    (5, (3, 3, 3), F(4, 5)),
    (3, (18, 2), F(5, 9)),
    (5, (2, 2), F(1)),
    (3, (3, 3, 3), F(1, 3)),
    (2, (2, 2), F(1, 2)),
    (2, (3, 3), F(1, 2)),
    (7, (3, 3, 3), F(1)),
    (2, (5, 5), F(1, 4)),
    (3, (2,), F(1, 2)),
    (5, (4, 4), F(1, 2)),
])
def test_fpt_diagonal_values(p, exps, value):
    assert fpt_diagonal(p, exps) == value


def test_fpt_diagonal_order_invariant():
    assert fpt_diagonal(3, (2, 5, 4)) == fpt_diagonal(3, (5, 4, 2))


def assert_matches_reference(p, exps):
    L, value = compute_L(p, exps), fpt_diagonal(p, exps)
    ref_L, ref_value = reference_L(p, exps), reference_fpt(p, exps)
    assert (L, value) == (ref_L, ref_value), (p, exps)
    assert (type(L), type(value)) == (type(ref_L), type(ref_value)), (p, exps)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_diagonal_kernel_matches_expansions_exhaustively(p):
    """Every multiset of 1-3 exponents in 2..25 (2..13 for three)."""
    cases = itertools.chain(
        itertools.combinations_with_replacement(range(2, 26), 1),
        itertools.combinations_with_replacement(range(2, 26), 2),
        itertools.combinations_with_replacement(range(2, 14), 3),
    )
    for exps in cases:
        assert_matches_reference(p, exps)


@given(
    p=st.integers(2, 97).filter(is_prime),
    exps=st.lists(st.integers(2, 300), min_size=1, max_size=3).map(tuple),
)
@settings(max_examples=200, deadline=None)
def test_diagonal_kernel_matches_expansions(p, exps):
    assert_matches_reference(p, exps)


def assert_digits_match_reference(p, xs, t):
    """diagonal_digits reads the residue's diagonal xs and the blown-up
    diagonal (*xs, t), the pi-slot t as one more exponent, as the
    expansions do."""
    for exps in (xs, (*xs, t)):
        want = (reference_L(p, exps), reference_fpt(p, exps), lct_diagonal(exps))
        assert diagonal_digits(p, exps) == want, (p, exps)


@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    t=st.integers(2, 12),
    xs=st.lists(st.integers(2, 12), min_size=1, max_size=4).map(tuple),
)
@settings(max_examples=200, deadline=None)
def test_pi_slot_walk_matches_expansions(p, t, xs):
    assert_digits_match_reference(p, xs, t)


@pytest.mark.parametrize("p, xs, t, level, full_level", [
    (7, (3, 3), 3, INFINITE, INFINITE),  # no column ever reaches p
    (5, (3,), 3, INFINITE, 1),           # one x-exponent: its digits stay below p
    (2, (3,), 2, INFINITE, 1),
    (5, (3, 3), 3, 1, 1),                # t equal to the s_i
    (5, (11, 12), 2, 9, 1),              # the residue's level far above the full one
    (5, (11, 12), 13, 9, 1),
])
def test_pi_slot_walk_cases(p, xs, t, level, full_level):
    """The residue's walk and the blown-up diagonal's walk each start at
    column 0, so the residue's level is found however far above."""
    assert diagonal_digits(p, xs)[0] == level
    assert diagonal_digits(p, (*xs, t))[0] == full_level
    assert_digits_match_reference(p, xs, t)


def test_pi_slot_walk_long_periods():
    """1/(10^9+7) and 1/(10^9+9) have periods of 500000003 and 55555556
    digits at p = 3: a pi-slot 2 brings the first carry down from column 26
    to column 18, and the residue's own walk still reaches it at 26."""
    xs = (1_000_000_007, 1_000_000_009)
    level, value, _lct = diagonal_digits(3, xs)
    full_level, full_value, _lct = diagonal_digits(3, (*xs, 2))
    assert (level, full_level) == (26, 18) == (compute_L(3, xs), compute_L(3, (2, *xs)))
    assert (value, full_value) == (fpt_diagonal(3, xs), fpt_diagonal(3, (2, *xs)))


@pytest.mark.parametrize("p, d, value", [
    (2, 3, F(1, 2)),
    (3, 9, F(1, 9)),
    (7, 3, F(1)),
    (5, 3, F(4, 5)),
    (7, 4, F(5, 7)),
    (7, 5, F(6, 7)),
    (7, 6, F(1)),
    (5, 5, F(1, 5)),
    (2, 100, F(1, 64)),
])
def test_fpt_fermat_values(p, d, value):
    """The d-variable Fermat diagonal x_1^d + ... + x_d^d."""
    assert fpt_diagonal(p, (d,) * d) == value
    assert fermat_reference(p, d) == value


@pytest.mark.parametrize("exps, value", [
    ((3, 3, 3), F(1)),
    ((18, 2), F(5, 9)),
    ((2, 2), F(1)),
    ((4, 4), F(1, 2)),
    ((5,), F(1, 5)),
])
def test_lct_diagonal(exps, value):
    assert lct_diagonal(exps) == value


@pytest.mark.parametrize("exps", [(), (1,), (2, 1), (2, 2.0)])
def test_diagonal_exponents_checked_alike(exps):
    """lct_diagonal and fpt_diagonal reject the same exponent tuples."""
    with pytest.raises(ValueError):
        lct_diagonal(exps)
    with pytest.raises(ValueError):
        fpt_diagonal(3, exps)


@pytest.mark.parametrize("exps", [(0, 2), (1, 2)])
def test_digit_kernel_checks_exponents_before_the_walk(exps):
    """diagonal_digits refuses an exponent below 2 before its digit walk,
    which would divide by a zero exponent."""
    with pytest.raises(ValueError, match="integers >= 2"):
        diagonal_digits(3, exps)


def test_diagonal_functions_check_exponents_once(monkeypatch):
    """compute_L, fpt_diagonal and diagonal_digits each check their
    exponents once per call."""
    mod = sys.modules["threshold_lab.fpt"]
    check, calls = mod._check_exponents, []
    monkeypatch.setattr(mod, "_check_exponents", lambda exps: calls.append(exps) or check(exps))
    for diagonal_function in (compute_L, fpt_diagonal, diagonal_digits):
        calls.clear()
        diagonal_function(5, (2, 3))
        assert calls == [(2, 3)], diagonal_function.__name__


# -- Frobenius oracle ------------------------------------------------------


def test_frobenius_nu_basic():
    f = SparsePolyFp(2, ("x", "y"), {(1, 0): 1, (0, 1): 1})
    assert frobenius_nu(f, 1) == 1
    assert frobenius_nu(f, 2) == 3
    assert frobenius_nu(f, 3) == 7


def test_frobenius_nu_cubic_surface():
    f = SparsePolyFp(2, ("x", "y", "z"), {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    assert frobenius_nu(f, 1) == 0
    assert frobenius_nu(f, 2) == 1
    assert frobenius_nu(f, 3) == 3


def test_frobenius_nu_quartic_cone():
    f = SparsePolyFp(3, ("x", "y", "z"), {
        (4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 2): 1,
    })
    assert frobenius_nu(f, 1) == 1
    assert frobenius_nu(f, 2) == 4


def test_frobenius_nu_rejects_units_and_zero():
    with pytest.raises(ValueError):
        frobenius_nu(SparsePolyFp(3, ("x",), {}), 1)
    with pytest.raises(ValueError):
        frobenius_nu(SparsePolyFp(3, ("x",), {(0,): 1, (1,): 1}), 1)
    with pytest.raises(ValueError):
        frobenius_nu(SparsePolyFp(3, ("x",), {(1,): 1}), 0)


@pytest.mark.parametrize("p, terms, e, lo, hi", [
    (5, {(2, 0): 1, (0, 2): 1}, 2, F(24, 25), F(1)),
    (3, {(1,): 1}, 2, F(8, 9), F(1)),
    (2, {(3, 0): 1, (0, 3): 1}, 3, F(3, 8), F(1, 2)),
])
def test_oracle_bracket_values(p, terms, e, lo, hi):
    vars = ("x", "y")[: len(next(iter(terms)))]
    br = oracle_bracket(SparsePolyFp(p, vars, terms), e)
    assert (br.lower, br.upper) == (lo, hi)
    assert br.upper - br.lower == F(1, p**e)


def test_resource_guard(monkeypatch):
    f = SparsePolyFp(2, ("x", "y", "z"), {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    monkeypatch.setenv("THRESHOLD_LAB_MAX_TERMS", "10")
    with pytest.raises(ResourceGuardError) as info:
        frobenius_nu(f, 4)
    assert "THRESHOLD_LAB_MAX_TERMS" in str(info.value)


def test_resource_guard_message():
    """A space near the budget is printed in full (far past it, as p^(e*n):
    see the fpt-search CLI tests)."""
    f = SparsePolyFp(5, ("x", "y", "z"), {(1, 1, 0): 1, (0, 0, 2): 1})
    with pytest.raises(ResourceGuardError) as info:
        frobenius_nu(f, 4)
    assert str(info.value) == (
        "monomial space p^(e*n) = 244140625 exceeds budget 100000000; "
        "raise THRESHOLD_LAB_MAX_TERMS to override"
    )


def test_resource_guard_env(monkeypatch):
    f = SparsePolyFp(2, ("x", "y"), {(2, 0): 1, (0, 2): 1})
    monkeypatch.setenv("THRESHOLD_LAB_MAX_TERMS", "4")
    with pytest.raises(ResourceGuardError):
        frobenius_nu(f, 3)
    monkeypatch.setenv("THRESHOLD_LAB_MAX_TERMS", "100000")
    assert frobenius_nu(f, 3) == 3


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1e6"])
def test_resource_guard_env_must_be_a_positive_integer(monkeypatch, value):
    """A bad value is an error of its own, not a refusal of the input."""
    f = SparsePolyFp(2, ("x", "y"), {(2, 0): 1, (0, 2): 1})
    monkeypatch.setenv("THRESHOLD_LAB_MAX_TERMS", value)
    with pytest.raises(ValueError) as info:
        frobenius_nu(f, 3)
    assert type(info.value) is ValueError
    assert str(info.value) == f"THRESHOLD_LAB_MAX_TERMS must be a positive integer, got {value!r}"
    monkeypatch.setenv("THRESHOLD_LAB_MAX_TERMS", "")
    assert frobenius_nu(f, 3) == 3


@st.composite
def sparse_polys(draw, max_level=3, max_space=5000):
    """(f, e): 1-4 terms in 1-3 variables over F_p, p^(e*n) <= max_space.

    Some exponents are drawn at or just above p^e, so whole terms, or whole
    lower levels, vanish under truncation.
    """
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    e = draw(st.integers(1, max_level).filter(lambda e: p ** (e * n) <= max_space))
    q = p**e
    exponent = st.one_of(st.integers(0, 4), st.integers(q, q + 2))
    monomial = st.tuples(*[exponent] * n).filter(any)
    terms = draw(st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=4))
    return SparsePolyFp(p, ("x", "y", "z")[:n], terms), e


@given(case=sparse_polys())
@settings(max_examples=150, deadline=None)
def test_frobenius_nu_matches_reference(case):
    f, e = case
    assert frobenius_nu(f, e) == nu_reference(f, e)


@given(case=sparse_polys(max_level=2, max_space=10**5))
@settings(max_examples=80, deadline=None)
def test_nu_nesting_sparse(case):
    """nu_{e+1} lies in [p nu_e, p nu_e + p - 1] (Mustata-Takagi-Watanabe)."""
    f, e = case
    p = f.p
    lo, hi = frobenius_nu(f, e), frobenius_nu(f, e + 1)
    assert p * lo <= hi <= p * lo + p - 1


@given(case=sparse_polys(max_level=2, max_space=27))
@settings(max_examples=40, deadline=None)
def test_frobenius_nu_matches_sympy(case):
    """nu_1 and nu_2 against powers taken by sympy over GF(p)."""
    sympy = pytest.importorskip("sympy")
    f, e = case
    q = f.p**e
    gens = sympy.symbols(f.vars)
    expr = sum(c * sympy.prod(x**k for x, k in zip(gens, exps)) for exps, c in f.terms.items())
    base = sympy.Poly(expr, *gens, modulus=f.p)
    power, nu = base, 0
    while any(max(m) < q for m in power.monoms()):
        nu += 1
        power = power * base
    assert frobenius_nu(f, e) == nu


def test_oracle_bracket_without_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    quartic = SparsePolyFp(3, ("x", "y", "z"), {
        (4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 2): 1,
    })
    assert oracle_bracket(quartic, 4).nu == (3**4 - 1) // 2
    br = oracle_bracket(SparsePolyFp(2, ("x", "y"), {(3, 0): 1, (0, 3): 1}), 3)
    assert (br.lower, br.upper) == (F(3, 8), F(1, 2))


def test_diagonal_poly():
    f = diagonal_poly(3, (2, 5))
    assert f.vars == ("x", "y")
    assert f.terms == {(2, 0): 1, (0, 5): 1}
    g = diagonal_poly(2, (2, 2, 2, 2))
    assert g.vars == ("x1", "x2", "x3", "x4")


# -- cross-checks between formula and oracle -------------------------------


diag_exps = st.lists(st.integers(2, 6), min_size=1, max_size=3).map(tuple)


@given(p=st.sampled_from(PRIMES), exps=diag_exps)
@settings(max_examples=40, deadline=None)
def test_formula_lies_in_oracle_bracket(p, exps):
    f = diagonal_poly(p, exps)
    value = fpt_diagonal(p, exps)
    for e in (1, 2):
        br = oracle_bracket(f, e)
        assert br.lower <= value <= br.upper
        assert br.lower == F(br.nu, p**e)


def test_oracle_bracket_is_half_open():
    """nu_e = ceil(p^e fpt) - 1, that is nu_e/p^e < fpt <= (nu_e + 1)/p^e
    (Blickle-Mustata-Smith, Michigan Math. J. 57, 2008), on every diagonal
    of one to three exponents in 2..8 at each level e <= 3 with
    p^(e n) <= 10^6; the upper end is met too."""
    met = 0
    for p in PRIMES:
        for n in (1, 2, 3):
            for exps in itertools.combinations_with_replacement(range(2, 9), n):
                f, value = diagonal_poly(p, exps), fpt_diagonal(p, exps)
                for e in range(1, 4):
                    if p ** (e * n) > 10**6:
                        break
                    br = oracle_bracket(f, e)
                    assert br.lower < value <= br.upper, (p, exps, e)
                    met += value == br.upper
    assert met


@given(p=st.sampled_from(PRIMES), exps=diag_exps)
@settings(max_examples=30, deadline=None)
def test_nu_supermultiplicative(p, exps):
    """nu_{e+1} >= p * nu_e, the defining monotonicity of the nu sequence."""
    f = diagonal_poly(p, exps)
    n1 = frobenius_nu(f, 1)
    n2 = frobenius_nu(f, 2)
    assert n2 >= p * n1
    assert F(n1, p) <= F(n2, p**2)


@given(p=st.sampled_from(PRIMES), exps=diag_exps)
@settings(max_examples=60, deadline=None)
def test_fpt_at_most_lct(p, exps):
    assert 0 < fpt_diagonal(p, exps) <= lct_diagonal(exps) <= 1


@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    d=st.integers(2, 10),
)
@settings(max_examples=80, deadline=None)
def test_fermat_matches_diagonal_formula(p, d):
    assert fermat_reference(p, d) == fpt_diagonal(p, (d,) * d)


@given(
    p=st.sampled_from(PRIMES),
    d=st.integers(2, 9),
    n=st.sampled_from([2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_homogeneous_lower_bound(p, d, n):
    """For p not dividing d, fpt >= 1/(d-1); equality forces d - 1 = p^e."""
    if d % p == 0:
        return
    value = fpt_diagonal(p, (d,) * n)
    assert value >= F(1, d - 1)
    if value == F(1, d - 1):
        m = d - 1
        while m % p == 0:
            m //= p
        assert m == 1


@given(p=st.sampled_from(PRIMES), exps=diag_exps)
@settings(max_examples=40, deadline=None)
def test_terminating_case_equality(p, exps):
    """When the fpt denominator divides p^e, the oracle pins it exactly."""
    value = fpt_diagonal(p, exps)
    e = 2
    if p**e % value.denominator == 0:
        br = oracle_bracket(diagonal_poly(p, exps), e)
        assert value == br.upper
