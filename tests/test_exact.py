"""Tests for exact rational arithmetic and eventually periodic base-p expansions."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.digits import padic_valuation
from threshold_lab.exact import (
    BasePExpansion,
    expand_base_p,
    format_rat,
    MAX_EXPANSION_DIGITS,
    is_prime,
    require_prime,
)

from reference import expansion_value, truncation

F = Fraction

PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])


@pytest.mark.parametrize("n, expected", [
    (2, True), (3, True), (4, False), (5, True), (6, False),
    (1, False), (0, False), (-3, False), (97, True), (91, False),
    (7919, True), (7917, False),
])
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def test_is_prime_matches_sympy_small():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(1, 10**4 + 1) if is_prime(n)] == list(
        sympy.primerange(1, 10**4 + 1)
    )


def test_is_prime_matches_sympy_64_bit():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20250907)
    values = [rng.getrandbits(64) | 1 for _ in range(300)]
    values += [sympy.prevprime(v) for v in values[:100]]
    for n in values:
        assert is_prime(n) is bool(sympy.isprime(n)), n


@pytest.mark.parametrize("n, expected", [
    (2305843009213693951, True),                # 2^61 - 1
    (3215031751, False),                        # strong pseudoprime to bases 2, 3, 5, 7
    (318665857834031151167461, False),          # strong pseudoprime to bases 2..37
    (3317044064679887385961813, True),          # the largest prime below the bound
])
def test_is_prime_miller_rabin(n, expected):
    assert is_prime(n) is expected


@pytest.mark.parametrize("n", [
    3317044064679887385961981,                  # the bound: strong pseudoprime to bases 2..41
    2**89 - 1,                                  # a Mersenne prime above the bound
])
def test_require_prime_refuses_beyond_bound(n):
    with pytest.raises(ValueError, match="too large"):
        require_prime(n)


def test_require_prime():
    assert require_prime(5) == 5
    with pytest.raises(ValueError):
        require_prime(6)
    with pytest.raises(ValueError):
        require_prime(1)


@pytest.mark.parametrize("q, text", [
    (F(1, 2), "1/2"),
    (F(1), "1"),
    (F(3, 4), "3/4"),
    (F(0), "0"),
    (F(40, 81), "40/81"),
    (F(2, 4), "1/2"),
])
def test_format_rat(q, text):
    assert format_rat(q) == text


# -- expansions ------------------------------------------------------------


@pytest.mark.parametrize("x, p, preperiod, period", [
    (F(1, 2), 5, (), (2,)),
    (F(1), 3, (), (2,)),          # 1 = 0.222... in base 3 (non-terminating form)
    (F(1, 6), 3, (0,), (1,)),     # 1/6 = 0.0111... in base 3
    (F(1, 2), 2, (0,), (1,)),     # 1/2 = 0.0111... in base 2
    (F(1, 3), 2, (), (0, 1)),
    (F(1, 5), 2, (), (0, 0, 1, 1)),
    (F(1, 4), 2, (0, 0), (1,)),
])
def test_expand_base_p_examples(x, p, preperiod, period):
    exp = expand_base_p(x, p)
    assert exp.preperiod == tuple(preperiod)
    assert exp.period == tuple(period)


def test_expansion_digit_and_truncation():
    exp = expand_base_p(F(1, 2), 5)
    assert exp.digit_at(1) == 2
    assert exp.digit_at(7) == 2
    assert truncation(exp, 2) == F(12, 25)

    exp = expand_base_p(F(1, 6), 3)
    assert exp.digit_at(1) == 0
    assert exp.digit_at(2) == 1
    assert truncation(exp, 3) == F(4, 27)


def test_expansion_rejects_terminating_form():
    # The all-zero tail is not a valid canonical representation.
    with pytest.raises(ValueError):
        BasePExpansion(2, (1,), (0,))
    with pytest.raises(ValueError):
        BasePExpansion(3, (), (0,))


def test_expansion_rejects_bad_digits():
    with pytest.raises(ValueError):
        BasePExpansion(2, (2,), (1,))
    with pytest.raises(ValueError):
        BasePExpansion(3, (), (3,))
    with pytest.raises(ValueError):
        BasePExpansion(3, (-1,), (1,))


def test_expansion_digit_budget(monkeypatch):
    """Preperiod plus period may fill the budget but not exceed it."""
    monkeypatch.setattr(sys.modules["threshold_lab.exact"], "MAX_EXPANSION_DIGITS", 4)
    assert expand_base_p(F(1, 5), 2).period == (0, 0, 1, 1)    # 4 digits
    assert expand_base_p(F(1, 8), 2).preperiod == (0, 0, 0)    # 3 + 1 digits
    for x in (F(1, 10), F(1, 11), F(1, 16)):   # 1 + 4, 10 and 4 + 1 digits
        with pytest.raises(ValueError, match="digit budget of 4"):
            expand_base_p(x, 2)


def test_expand_base_p_domain():
    with pytest.raises(ValueError):
        expand_base_p(F(0), 3)
    with pytest.raises(ValueError):
        expand_base_p(F(3, 2), 3)
    with pytest.raises(ValueError):
        expand_base_p(F(1, 2), 4)


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    b=st.integers(min_value=1, max_value=10**6),
    a=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=300, deadline=None)
def test_expansion_lengths_match_sympy(p, a, b):
    """With den(x) = p^v m, p prime to m, the preperiod has v digits and the
    period ord_m(p) (sympy's n_order; 1 when m = 1), and the digits give
    back x; an expansion past the digit budget is refused."""
    sympy = pytest.importorskip("sympy")
    x = F(min(a, b), b)
    v = padic_valuation(x.denominator, p)
    m = x.denominator // p**v
    period = 1 if m == 1 else sympy.n_order(p, m)
    if v + period > MAX_EXPANSION_DIGITS:
        with pytest.raises(ValueError, match=f"digit budget of {MAX_EXPANSION_DIGITS}"):
            expand_base_p(x, p)
        return
    exp = expand_base_p(x, p)
    assert (len(exp.preperiod), len(exp.period)) == (v, period)
    assert expansion_value(exp) == x


@given(
    p=PRIMES,
    num=st.integers(min_value=1, max_value=499),
    den=st.integers(min_value=1, max_value=499),
)
def test_expansion_round_trip(p, num, den):
    """The digits of expand_base_p give back every rational in (0, 1]."""
    x = F(num, den)
    if x > 1:
        x = 1 / x
    exp = expand_base_p(x, p)
    assert expansion_value(exp) == x
    # canonical: the period is never the all-zero word
    assert any(d != 0 for d in exp.period)


@given(
    p=PRIMES,
    num=st.integers(min_value=1, max_value=200),
    den=st.integers(min_value=1, max_value=200),
    L=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60)
def test_truncation_error_bound(p, num, den, L):
    """0 < x - trunc_L(x) <= p^-L, and trunc has denominator dividing p^L."""
    x = F(num, den)
    if x > 1:
        x = 1 / x
    exp = expand_base_p(x, p)
    t = truncation(exp, L)
    err = x - t
    assert 0 < err <= F(1, p**L)
    assert (p**L) % t.denominator == 0 if t else True


@given(p=PRIMES, num=st.integers(1, 120), den=st.integers(1, 120))
@settings(max_examples=60)
def test_digit_prefix_matches_truncation(p, num, den):
    x = F(num, den)
    if x > 1:
        x = 1 / x
    exp = expand_base_p(x, p)
    total = F(0)
    for e in range(1, 7):
        total += F(exp.digit_at(e), p**e)
    assert total == truncation(exp, 6)
