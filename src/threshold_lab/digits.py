"""p-adic digit combinatorics: valuations of binomials via carries and digit sums.

Everything here is finite integer arithmetic.  The central identity is
Kummer's: v_p(C(n, m)) equals the number of carries when adding m and n - m in
base p, which we compute as (S_p(m) + S_p(n-m) - S_p(n)) / (p - 1) with S_p
the base-p digit sum.  The specialization v_p(C(p^e, i)) = e - v_p(i) and the
digitwise residue of Lucas' theorem are its two consequences here: the
``verify`` suites check both and ``padic lucas`` prints the second, but no
threshold rule calls either, since the rules read only p-adic valuations.
"""

from __future__ import annotations

import math

from .exact import require_prime


def padic_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n.  v_p(0) is undefined and rejected."""
    require_prime(p)
    return _valuation(n, p)


def _valuation(n: int, p: int) -> int:
    """:func:`padic_valuation` for a prime p that is already checked."""
    if n == 0:
        raise ValueError("v_p(0) is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def digits_of(n: int, p: int) -> list[int]:
    """Base-p digits of n >= 0, least significant first; [] for n = 0."""
    require_prime(p)
    if n < 0:
        raise ValueError(f"digits_of requires n >= 0, got {n}")
    ds = []
    while n:
        n, d = divmod(n, p)
        ds.append(d)
    return ds


def digit_sum(n: int, p: int) -> int:
    """S_p(n), the sum of the base-p digits of n >= 0."""
    return sum(digits_of(n, p))


def kummer_valuation(n: int, m: int, p: int) -> int:
    """v_p(C(n, m)) by the digit-sum form of Kummer's carry-counting theorem."""
    require_prime(p)
    if not 0 <= m <= n:
        raise ValueError(f"kummer_valuation requires 0 <= m <= n, got m={m}, n={n}")
    return (digit_sum(m, p) + digit_sum(n - m, p) - digit_sum(n, p)) // (p - 1)


def binomial_valuation_prime_power(e: int, i: int, p: int) -> int:
    """v_p(C(p^e, i)) = e - v_p(i) for 1 <= i <= p^e.

    A direct corollary of Kummer's theorem: adding i and p^e - i in base p
    carries at every position from v_p(i) + 1 up to e.
    """
    require_prime(p)
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    if not 1 <= i <= p**e:
        raise ValueError(f"i must satisfy 1 <= i <= p^e, got i={i}")
    return e - padic_valuation(i, p)


def lucas_residue(n: int, m: int, p: int) -> int:
    """C(n, m) mod p via Lucas: the product of digitwise binomials C(n_j, m_j).

    Zero exactly when some base-p digit of m exceeds the corresponding digit
    of n; in particular 0 whenever m > n >= 0.
    """
    require_prime(p)
    if n < 0 or m < 0:
        raise ValueError(f"lucas_residue requires n, m >= 0, got n={n}, m={m}")
    out = 1
    while m or n:
        n, nd = divmod(n, p)
        m, md = divmod(m, p)
        if md > nd:
            return 0
        out = out * math.comb(nd, md) % p
    return out


def magic_expansions(p: int) -> tuple[list[int], list[int]]:
    """Base-p digit pairs of (2p^2 - 2)/3 and (p^2 - 1)/3 for p = 2 (mod 3).

    Returns the two-digit strings, least significant first:
    [(p-2)/3, (2p-1)/3] and [(2p-1)/3, (p-2)/3].  These are the exponents
    whose binomials survive mod p in the cubic (elliptic-type) rules.  Both
    lists keep two digits even when the top one is zero: at p = 2 the second
    value is 1, written [1, 0].
    """
    require_prime(p)
    if p % 3 != 2:
        raise ValueError(f"magic_expansions requires p = 2 (mod 3), got {p}")
    lo, hi = (p - 2) // 3, (2 * p - 1) // 3
    first, second = [lo, hi], [hi, lo]
    assert first[0] + p * first[1] == (2 * p * p - 2) // 3
    assert second[0] + p * second[1] == (p * p - 1) // 3
    return first, second
