"""Tests for diagonal threshold formulas and the Frobenius-power search oracle."""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.exact import expand_base_p, is_prime
from threshold_lab.fpt import (
    INFINITE,
    DiagonalData,
    ResourceGuardError,
    compute_L,
    diagonal_poly,
    fpt_diagonal,
    fpt_fermat,
    frobenius_nu,
    lct_diagonal,
    oracle_bracket,
)
from threshold_lab.poly import SparsePolyFp, mul_truncated

F = Fraction

PRIMES = [2, 3, 5, 7]


def test_diagonal_data_validation():
    with pytest.raises(ValueError):
        DiagonalData(4, (2, 2))
    with pytest.raises(ValueError):
        DiagonalData(3, ())
    with pytest.raises(ValueError):
        DiagonalData(3, (1, 2))     # linear variables are out of scope
    d = DiagonalData(3, (2, 3))
    assert [expand_base_p(F(1, s), d.p).value() for s in d.exponents] == [F(1, 2), F(1, 3)]


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


def reference_L(p, exps):
    """L from the expansions themselves: the first digit column of the 1/s_i
    summing to p or more, scanned over one preperiod-plus-period window."""
    expansions = [expand_base_p(F(1, s), p) for s in exps]
    window = max(len(x.preperiod) for x in expansions) + math.lcm(
        *(len(x.period) for x in expansions)
    )
    for j in range(1, window + 1):
        if sum(x.digit_at(j) for x in expansions) >= p:
            return j - 1
    return INFINITE


def reference_fpt(p, exps):
    """Hernandez's formula evaluated on the L-digit truncations of the 1/s_i."""
    level = reference_L(p, exps)
    if level == INFINITE:
        return sum(F(1, s) for s in exps)
    scaled = sum(expand_base_p(F(1, s), p).truncation(level) for s in exps) * p**level
    assert scaled.denominator == 1
    return F(scaled.numerator + 1, p**level)


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
    assert fpt_fermat(p, d) == value


def test_fpt_fermat_rejects_degree_one():
    with pytest.raises(ValueError):
        fpt_fermat(5, 1)


@pytest.mark.parametrize("exps, value", [
    ((3, 3, 3), F(1)),
    ((18, 2), F(5, 9)),
    ((2, 2), F(1)),
    ((4, 4), F(1, 2)),
    ((5,), F(1, 5)),
])
def test_lct_diagonal(exps, value):
    assert lct_diagonal(exps) == value


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
        frobenius_nu(SparsePolyFp.zero(3, ("x",)), 1)
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
    assert br.width() == F(1, p**e)


def test_resource_guard():
    f = SparsePolyFp(2, ("x", "y", "z"), {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    with pytest.raises(ResourceGuardError) as info:
        frobenius_nu(f, 4, max_terms=10)
    assert "THRESHOLD_LAB_MAX_TERMS" in str(info.value)


def test_resource_guard_env(monkeypatch):
    f = SparsePolyFp(2, ("x", "y"), {(2, 0): 1, (0, 2): 1})
    monkeypatch.setenv("THRESHOLD_LAB_MAX_TERMS", "4")
    with pytest.raises(ResourceGuardError):
        frobenius_nu(f, 3)
    monkeypatch.setenv("THRESHOLD_LAB_MAX_TERMS", "100000")
    assert frobenius_nu(f, 3) == 3


def nu_reference(f, e):
    """nu_e by brute force: multiply by f, truncating at p^e, until zero."""
    q = f.p**e
    g, nu = f.truncate(q), 0
    while not g.is_zero():
        nu += 1
        g = mul_truncated(g, f, q)
    return nu


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
        assert br.contains(value)
        assert br.lower == F(br.nu, p**e)


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
    assert fpt_fermat(p, d) == fpt_diagonal(p, (d,) * d)


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
