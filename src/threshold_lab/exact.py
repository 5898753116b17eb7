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

Rat = Fraction

# The longest expansion (preperiod plus period digits) expand_base_p builds,
# and so the longest long division it makes; base 2 needs about 5 * 10^8
# digits for 1/1000000007.
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


def format_rat(q: Rat) -> str:
    """Render a rational in lowest terms as "num/den", or plain "n" for integers.

    Accepts a Fraction or an int; ``as_integer_ratio`` gives both their
    lowest-terms numerator and denominator in one call.
    """
    num, den = q.as_integer_ratio()
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


def expand_base_p(x: Rat, p: int) -> BasePExpansion:
    """Non-terminating base-p expansion of a rational x with 0 < x <= 1.

    One long division reads the digits.  With den(x) = p^v m, p prime to m,
    the remainder after the v preperiod digits recurs first after ord_m(p)
    more digits, so the walk stops there; that remainder is 0 when m = 1,
    and the expansion terminates.  An expansion that needs more than
    MAX_EXPANSION_DIGITS digits of preperiod plus period is refused with a
    ValueError, before that many are read.
    """
    require_prime(p)
    x = Fraction(x)
    if not 0 < x <= 1:
        raise ValueError(f"expand_base_p requires 0 < x <= 1, got {x}")
    if x == 1:
        return BasePExpansion(p, (), (p - 1,))
    num, den = x.numerator, x.denominator
    v, m = 0, den
    while m % p == 0:
        m //= p
        v += 1
    # The period has at least one digit, so v >= MAX_EXPANSION_DIGITS is over.
    digits, r = [], num
    if v < MAX_EXPANSION_DIGITS:
        for _ in range(v):
            d, r = divmod(r * p, den)
            digits.append(d)
        if r == 0:
            # x = num / p^v terminates at position v; rewrite the tail as (p-1)s.
            return BasePExpansion(p, (*digits[:-1], digits[-1] - 1), (p - 1,))
        start = r
        while len(digits) < MAX_EXPANSION_DIGITS:
            d, r = divmod(r * p, den)
            digits.append(d)
            if r == start:
                return BasePExpansion(p, tuple(digits[:v]), tuple(digits[v:]))
    raise ValueError(
        f"the expansion in base {p} exceeds the digit budget of {MAX_EXPANSION_DIGITS}"
    )
