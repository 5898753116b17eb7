"""Exact rational arithmetic and eventually periodic base-p digit expansions.

Every threshold value in this package is an exact ``fractions.Fraction``
(exported as :data:`Rat`); no floats appear anywhere in the numerics.

The one nontrivial convention lives in :class:`BasePExpansion`: expansions are
*non-terminating*.  A rational whose base-p expansion would terminate is
rewritten with an infinite tail of digits ``p - 1`` (e.g. ``1 = .222...`` in
base 3, ``1/3 = .0222...`` in base 3).  Digit sums of these expansions drive
the diagonal threshold formula, and the formula is only correct under the
non-terminating convention.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

Rat = Fraction

# The longest expansion (preperiod plus period digits) expand_base_p builds,
# and so the longest search for a multiplicative order; base 2 needs about
# 5 * 10^8 digits for 1/1000000007.
MAX_EXPANSION_DIGITS = 100_000

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with the prime bases 2..41 decides primality for every n below
# this bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", 2017); above it the test is no longer a proof.
_MR_BASES = _SMALL_PRIMES + (41,)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3317044064679887385961981 (~3.3e24).

    Trial division by the primes up to 37 settles small n and any n with a
    small factor; the rest go through Miller-Rabin with the bases 2..41.
    Raises ValueError for a larger n that trial division cannot settle.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < 41 * 41:
        return True  # no factor up to 37; this also keeps every base below n
    if n >= _MR_BOUND:
        raise ValueError(
            f"{n} is too large for a deterministic primality test (bound {_MR_BOUND})"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"expected a prime, got {p!r}")
    return p


def multiplicative_order(a: int, m: int) -> int:
    """Least t >= 1 with a^t == 1 (mod m); requires gcd(a, m) == 1, m >= 2.

    The search steps through the powers of a and gives up with a ValueError
    beyond MAX_EXPANSION_DIGITS of them.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    t, x = 1, a % m
    while x != 1:
        if t == MAX_EXPANSION_DIGITS:
            raise ValueError(
                f"the order of {a} modulo {m} exceeds the digit budget"
                f" of {MAX_EXPANSION_DIGITS}"
            )
        x = (x * a) % m
        t += 1
    return t


def format_rat(q: Rat) -> str:
    """Render a rational in lowest terms as "num/den", or plain "n" for integers.

    Accepts a Fraction or an int; both carry their lowest-terms numerator
    and denominator.
    """
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def _minimal_period(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for length in range(1, n + 1):
        if n % length == 0 and period[:length] * (n // length) == period:
            return period[:length]
    return period


class BasePExpansion(namedtuple("BasePExpansion", "p preperiod period")):
    """Eventually periodic, non-terminating base-p expansion of a rational in (0, 1].

    Represents sum_{e>=1} d_e * p^-e where the digit stream d_1, d_2, ... is
    ``preperiod`` followed by ``period`` repeated forever.  The stored form is
    canonical: the period has minimal length, the preperiod is minimal (digits
    that merely repeat the period are absorbed into it), and the period is
    never all zeros, so equal expansions compare equal structurally.
    """

    __slots__ = ()

    def __new__(cls, p: int, preperiod: tuple[int, ...], period: tuple[int, ...]):
        require_prime(p)
        if not period:
            raise ValueError("period must be nonempty")
        for d in preperiod + period:
            if not 0 <= d < p:
                raise ValueError(f"digit {d} out of range for base {p}")
        period = _minimal_period(period)
        preperiod = list(preperiod)
        # Absorb preperiod digits that already follow the periodic pattern, so
        # the preperiod is as short as possible (e.g. .2(2) becomes .(2)).
        while preperiod and preperiod[-1] == period[-1]:
            preperiod.pop()
            period = period[-1:] + period[:-1]
        period = _minimal_period(period)
        if set(period) == {0}:
            raise ValueError("terminating expansion: period [0] is forbidden")
        return super().__new__(cls, p, tuple(preperiod), tuple(period))

    def digit_at(self, e: int) -> int:
        """Digit d_e of the stream, 1-indexed."""
        if e < 1:
            raise ValueError(f"digit index must be >= 1, got {e}")
        k = len(self.preperiod)
        if e <= k:
            return self.preperiod[e - 1]
        return self.period[(e - k - 1) % len(self.period)]

    def truncation(self, L: int) -> Rat:
        """The partial sum sum_{e=1}^{L} d_e p^-e (0 for L = 0)."""
        if L < 0:
            raise ValueError(f"truncation length must be >= 0, got {L}")
        acc = 0
        for e in range(L, 0, -1):
            acc = Fraction(acc + self.digit_at(e), self.p)
        return Fraction(acc)

    def value(self) -> Rat:
        """The rational this expansion represents, reconstructed exactly."""
        p, k, m = self.p, len(self.preperiod), len(self.period)
        head = self.truncation(k)
        tail = 0
        for d in self.period:
            tail = tail * p + d
        return head + Fraction(tail, p**k * (p**m - 1))


def expand_base_p(x: Rat, p: int) -> BasePExpansion:
    """Non-terminating base-p expansion of a rational x with 0 < x <= 1.

    The preperiod has length <= v_p(den(x)) and the (minimal) period length
    divides the multiplicative order of p modulo the p-free part of den(x).
    An expansion that needs more than MAX_EXPANSION_DIGITS digits to reach
    its period is refused with a ValueError.
    """
    require_prime(p)
    x = Fraction(x)
    if not 0 < x <= 1:
        raise ValueError(f"expand_base_p requires 0 < x <= 1, got {x}")
    if x == 1:
        return BasePExpansion(p, (), (p - 1,))
    num, den = x.numerator, x.denominator
    v = 0
    m = den
    while m % p == 0:
        m //= p
        v += 1

    def digits(count: int) -> tuple[list[int], int]:
        out, r = [], num
        for _ in range(count):
            d, r = divmod(r * p, den)
            out.append(d)
        return out, r

    # A terminating x gets the one-digit period (p - 1,).
    order = 1 if m == 1 else multiplicative_order(p, m)
    if v + order > MAX_EXPANSION_DIGITS:
        raise ValueError(
            f"the expansion of {x} in base {p} exceeds the digit budget"
            f" of {MAX_EXPANSION_DIGITS}"
        )
    if m == 1:
        # x = num / p^v terminates at position v; rewrite the tail as (p-1)s.
        ds, r = digits(v)
        assert r == 0 and ds[-1] > 0
        return BasePExpansion(p, (*ds[:-1], ds[-1] - 1), (p - 1,))
    # The long-division remainder after position v recurs with period `order`,
    # so the digit stream from position v+1 on is purely periodic.
    ds, _ = digits(v + order)
    return BasePExpansion(p, tuple(ds[:v]), tuple(ds[v:]))
