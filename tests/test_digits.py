"""Tests for p-adic digit combinatorics: valuations, Kummer carries, Lucas residues."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.digits import (
    binomial_valuation_prime_power,
    digit_sum,
    digits_of,
    kummer_valuation,
    lucas_residue,
    magic_expansions,
    padic_valuation,
)
from threshold_lab.exact import is_prime

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("n, p, v", [
    (8, 2, 3), (12, 2, 2), (9, 3, 2), (10, 5, 1), (7, 5, 0),
    (-8, 2, 3), (1, 2, 0),
])
def test_padic_valuation(n, p, v):
    assert padic_valuation(n, p) == v


def test_padic_valuation_of_zero():
    with pytest.raises(ValueError):
        padic_valuation(0, 5)


@pytest.mark.parametrize("n, p, ds", [
    (16, 5, [1, 3]),
    (0, 7, []),
    (8, 2, [0, 0, 0, 1]),
    (80, 3, [2, 2, 2, 2]),
    (6, 2, [0, 1, 1]),
])
def test_digits_of(n, p, ds):
    assert digits_of(n, p) == ds


@pytest.mark.parametrize("n, p, s", [
    (80, 3, 8),
    (16, 5, 4),
    (8, 2, 1),
    (0, 11, 0),
])
def test_digit_sum(n, p, s):
    assert digit_sum(n, p) == s


@pytest.mark.parametrize("n, m, p, v", [
    (9, 3, 3, 1),     # one carry when adding 3 + 6 in base 3
    (10, 0, 5, 0),
    (10, 5, 5, 0),
    (10, 10, 5, 0),
    (4, 2, 2, 1),
    (8, 4, 2, 1),
    (8, 1, 2, 3),
    (16, 8, 5, 1),
])
def test_kummer_valuation_examples(n, m, p, v):
    assert kummer_valuation(n, m, p) == v


def test_kummer_domain():
    with pytest.raises(ValueError):
        kummer_valuation(3, 5, 3)
    with pytest.raises(ValueError):
        kummer_valuation(3, -1, 3)


@pytest.mark.parametrize("e, i, p, v", [
    (2, 3, 3, 1),     # v_3 C(9, 3) = 1
    (2, 25, 5, 0),    # v_5 C(25, 25) = 0
    (2, 3, 2, 2),     # v_2 C(4, 3) = 2
    (3, 1, 2, 3),
    (4, 8, 2, 1),
    (1, 1, 7, 1),
])
def test_binomial_valuation_prime_power(e, i, p, v):
    assert binomial_valuation_prime_power(e, i, p) == v


@pytest.mark.parametrize("n, m, p, r", [
    (16, 8, 5, 0),
    (7, 7, 3, 1),
    (7, 3, 2, 1),
    (3, 7, 5, 0),   # m > n gives residue 0
    (6, 3, 7, 6),   # C(6,3) = 20 = 6 mod 7
])
def test_lucas_residue_examples(n, m, p, r):
    assert lucas_residue(n, m, p) == r


@pytest.mark.parametrize("p, lo, hi", [
    (5, [1, 3], [3, 1]),
    (2, [0, 1], [1, 0]),
    (11, [3, 7], [7, 3]),
    (17, [5, 11], [11, 5]),
])
def test_magic_expansions(p, lo, hi):
    assert magic_expansions(p) == (lo, hi)


def test_magic_expansions_structure():
    """For p = 2 mod 3 the two digit lists are reverses summing to p - 1 slotwise."""
    for p in [2, 5, 11, 17, 23, 29, 41, 47, 53]:
        lo, hi = magic_expansions(p)
        assert hi == lo[::-1]
        assert all(a + b == p - 1 for a, b in zip(lo, hi))
        # the two-digit strings of 2k and k for k = (p^2 - 1) / 3
        k = (p * p - 1) // 3
        pad = [0, 0]
        assert lo == (digits_of(2 * k, p) + pad)[:2]
        assert hi == (digits_of(k, p) + pad)[:2]


def test_magic_expansions_domain():
    with pytest.raises(ValueError):
        magic_expansions(7)   # 7 = 1 mod 3
    with pytest.raises(ValueError):
        magic_expansions(3)


# -- properties ------------------------------------------------------------


@given(
    n=st.integers(min_value=0, max_value=300),
    m=st.integers(min_value=0, max_value=300),
    p=st.sampled_from(SMALL_PRIMES),
)
@settings(max_examples=120)
def test_kummer_matches_factorization(n, m, p):
    if m > n:
        return
    assert kummer_valuation(n, m, p) == padic_valuation(math.comb(n, m), p)


@given(
    e=st.integers(min_value=1, max_value=4),
    p=st.sampled_from([2, 3, 5, 7]),
    data=st.data(),
)
@settings(max_examples=80)
def test_prime_power_binomial_matches_kummer(e, p, data):
    i = data.draw(st.integers(min_value=1, max_value=p**e))
    assert binomial_valuation_prime_power(e, i, p) == kummer_valuation(p**e, i, p)


@given(
    n=st.integers(min_value=0, max_value=100),
    m=st.integers(min_value=0, max_value=100),
    p=st.sampled_from(SMALL_PRIMES),
)
@settings(max_examples=120)
def test_lucas_matches_direct_binomial(n, m, p):
    expected = math.comb(n, m) % p if m <= n else 0
    assert lucas_residue(n, m, p) == expected


@given(
    n=st.integers(min_value=0, max_value=300),
    m=st.integers(min_value=0, max_value=300),
    p=st.sampled_from(SMALL_PRIMES),
)
@settings(max_examples=80)
def test_lucas_zero_iff_carry(n, m, p):
    """The residue vanishes exactly when Kummer sees at least one carry."""
    if m > n:
        return
    assert (lucas_residue(n, m, p) == 0) == (kummer_valuation(n, m, p) >= 1)


def test_central_binomial_vanishing():
    """C(2k, k) = 0 mod p for k = (p^2-1)/3 whenever p = 2 mod 3, p > 3."""
    for p in range(5, 200):
        if not is_prime(p) or p % 3 != 2:
            continue
        k = (p * p - 1) // 3
        assert lucas_residue(2 * k, k, p) == 0
        assert math.comb(2 * k, k) % p == 0


@given(
    p=st.sampled_from([3, 5, 7]),
    e=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
@settings(max_examples=60)
def test_binomial_valuation_growth(p, e, data):
    """v_p C(p^e, i) >= e + 2 - i whenever v_p(i) <= i - 2, for 2 <= i <= e."""
    i = data.draw(st.integers(min_value=2, max_value=e))
    if padic_valuation(i, p) <= i - 2:
        assert binomial_valuation_prime_power(e, i, p) >= e + 2 - i


@given(
    n=st.integers(min_value=1, max_value=10**6),
    p=st.sampled_from(SMALL_PRIMES),
)
def test_digits_round_trip(n, p):
    ds = digits_of(n, p)
    assert sum(d * p**k for k, d in enumerate(ds)) == n
    assert ds and ds[-1] != 0
    assert all(0 <= d < p for d in ds)
