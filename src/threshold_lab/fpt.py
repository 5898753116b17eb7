"""F-pure thresholds of diagonal polynomials and a level-recursive Frobenius oracle.

For f in the maximal ideal of F_p[[x_1..x_n]] and e >= 1, let

    nu_e(f) = max { nu >= 0 : f^nu not in (x_1^{p^e}, ..., x_n^{p^e}) }.

Then nu_e = ceil(p^e fpt(f)) - 1 (Blickle-Mustata-Smith, Michigan Math. J.
57, 2008), so nu_e / p^e < fpt(f) <= (nu_e + 1) / p^e, and fpt(f) is the
supremum of the lower ends.  The rules of :mod:`.certify` still read the
lower end as a non-strict bound (ROADMAP.md, "Read the oracle exactly",
makes it strict).  :func:`frobenius_nu` computes nu_e level by level: by
Mustata-Takagi-Watanabe ("F-thresholds and Bernstein-Sato polynomials",
2005) nu_{e+1} lies in [p nu_e, p nu_e + p - 1], and the Frobenius power of
f^{nu_e} mod (x_i^{p^e}) is f^{p nu_e} mod (x_i^{p^{e+1}}), so each level
takes at most p truncated products by f, each iterating the level's state
f^{nu_e} as a list of terms: p - 1 that stay nonzero, then the one that
vanishes.  :func:`oracle_bracket` wraps nu_e into the two-sided bound.

For a diagonal f = x_1^{s_1} + ... + x_n^{s_n} the threshold has a closed
form (Hernandez, "F-invariants of diagonal hypersurfaces", Proc. AMS 143,
2015) in terms of the non-terminating base-p expansions of the 1/s_i.
Writing d_i^(e) for the e-th digit of 1/s_i, let

    L = min { e >= 0 : sum_i d_i^(e+1) >= p }   (:func:`compute_L`).

If L is infinite, fpt(f) = sum_i 1/s_i; otherwise

    fpt(f) = (p^L * sum_i trunc_i(L) + 1) / p^L,

where trunc_i(L) is the L-digit truncation of 1/s_i.  The non-terminating
digit convention of :mod:`.exact` is load-bearing here: with terminating
expansions the formula is simply wrong (already for two squares at p = 2).

Neither function builds an expansion.  Under that convention
p^j * trunc_i(j) = floor((p^j - 1) / s_i), so both read the digits off the
remainders r_i = (p^j - 1) mod s_i: from r_i = 0 at j = 0, column j + 1 has
digit d_i = (p r_i + p - 1) // s_i and the next remainder is
(p r_i + p - 1) mod s_i.  The remainder tuple determines every later
column, so once it repeats with no column summing to p, L is infinite;
Brent's cycle check (keep one saved tuple, double the interval between
saves) finds the repeat within about 2 max(mu, lam) + lam columns, where mu
and lam are the preperiod and period of the tuple, with no multiplicative
order computed up front.

Everything here is in characteristic p.  :mod:`.certify` reads a diagonal
pi^t + x_1^{s_1} + ... in mixed characteristic twice: f mod pi is the
diagonal of the s_i (:func:`diagonal_digits`), and the blown-up diagonal, pi
replaced by a fresh variable, is the diagonal with t p^a as one more
exponent at ramification level a.  :func:`scaled_digits` reads it at every
level a >= 0 from the s_i's own digit level, and is the one place that
resumes a walk.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

from .exact import Rat, require_prime
# expand_base_p is not called here; it stays a module attribute because
# bench/run.py times it by wrapping fpt.expand_base_p.
from .exact import expand_base_p  # noqa: F401
from .poly import SparsePolyFp

INFINITE = float("inf")

_DEFAULT_MAX_TERMS = 100_000_000
_MAX_TERMS_ENV = "THRESHOLD_LAB_MAX_TERMS"


class ResourceGuardError(ValueError):
    """Raised when an oracle call would exceed the configured monomial budget."""


def _check_exponents(exponents: tuple[int, ...]) -> tuple[int, ...]:
    """The exponents of a diagonal as a tuple: at least one, each an integer
    >= 2 (a linear variable makes f a regular parameter up to the others, and
    neither digit formula below applies to it)."""
    exponents = tuple(exponents)
    if not exponents:
        raise ValueError("at least one exponent is required")
    for s in exponents:
        if not isinstance(s, int) or s < 2:
            raise ValueError(f"diagonal exponents must be integers >= 2, got {s}")
    return exponents


def compute_L(p: int, exponents: tuple[int, ...]) -> int | float:
    """Least L >= 0 with sum_i d_i^(L+1) >= p, or INFINITE if no digit column
    of the expansions of the 1/s_i ever sums to p or more."""
    require_prime(p)
    return diagonal_digits(p, exponents)[0]


def _first_column(p: int, exps: tuple[int, ...], rems: tuple[int, ...]) -> int | float:
    """The first column whose digits sum to p or more, counted from the
    column whose remainders are rems, or INFINITE when the remainder tuple
    repeats first.  One exponent never reaches p: its digits are all below
    p, and its remainder cycle can be as long as s - 1 columns."""
    if len(exps) == 1:
        return INFINITE
    saved = rems
    j, power, steps = 0, 1, 0
    while True:
        total = 0
        nxt = []
        for r, s in zip(rems, exps):
            d, r = divmod(p * r + p - 1, s)
            total += d
            nxt.append(r)
        rems = tuple(nxt)
        if total >= p:
            return j
        if rems == saved:
            return INFINITE
        j += 1
        steps += 1
        if steps == power:
            saved, power, steps = rems, 2 * power, 0


def fpt_diagonal(p: int, exponents: tuple[int, ...]) -> Rat:
    """Exact F-pure threshold of x_1^{s_1} + ... + x_n^{s_n} over F_p."""
    require_prime(p)
    return diagonal_digits(p, exponents)[1]


def diagonal_digits(p: int, exps: tuple[int, ...]) -> tuple[int | float, Rat, Rat]:
    """(L, fpt, lct) of the diagonal with exponents exps, from one digit walk
    (see the module docstring).  With L infinite, fpt = sum_i 1/s_i, which
    is then at most 1, so it is the lct.  p is not checked; the exponents
    are, once per call, before the walk."""
    exps = _check_exponents(exps)
    return _reading(p, exps, _first_column(p, exps, (0,) * len(exps)))


def scaled_digits(
    p: int, xs: tuple[int, ...], x_level: int | float, t: int, a: int
) -> tuple[int | float, Rat, Rat]:
    """``diagonal_digits(p, (*xs, t p^a))`` at any a >= 0, given the digit
    level x_level of xs alone (INFINITE without xs).  1/(t p^a) has the
    digit 0 in columns 1..a, then those of 1/t, so with x_level < a the
    level is x_level; otherwise the walk resumes at column a from the
    remainders (p^a - 1) mod s_i and 0 (at a = 0, the walk from column 0)."""
    exps = _check_exponents((*xs, t * p**a))
    level = x_level
    if level >= a:
        level = a + _first_column(p, (*xs, t), (*((pow(p, a, s) - 1) % s for s in xs), 0))
    return _reading(p, exps, level)


def _reading(p: int, exps: tuple[int, ...], level: int | float) -> tuple[int | float, Rat, Rat]:
    """(L, fpt, lct) of checked exponents whose digit level L is known."""
    lct = _lct(exps)
    if level == INFINITE:
        return level, lct, lct
    q = p**level
    return level, Rat(sum((q - 1) // s for s in exps) + 1, q), lct


def lct_diagonal(exponents: tuple[int, ...]) -> Rat:
    """Log canonical threshold of a diagonal: min(1, sum_i 1/s_i)."""
    return _lct(_check_exponents(exponents))


def _lct(exps: tuple[int, ...]) -> Rat:
    """:func:`lct_diagonal` of exponents that are already checked."""
    den = math.lcm(*exps)
    num = sum(den // s for s in exps)
    return Rat(1) if num >= den else Rat(num, den)


def _max_terms_budget() -> int:
    env = os.environ.get(_MAX_TERMS_ENV)
    if not env:
        return _DEFAULT_MAX_TERMS
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"{_MAX_TERMS_ENV} must be a positive integer, got {env!r}")
    return budget


def frobenius_nu(f: SparsePolyFp, e: int) -> int:
    """nu_e(f): the largest nu with f^nu outside (x_1^{p^e}, ..., x_n^{p^e}).

    Requires f nonzero with no constant term (so f lies in the maximal ideal).
    Calls whose ambient monomial space p^(e*n) exceeds the budget (default
    10^8, override via the THRESHOLD_LAB_MAX_TERMS environment variable) are
    refused up front, before any power of p is taken.

    The search climbs the levels 1..e (Mustata-Takagi-Watanabe, "F-thresholds
    and Bernstein-Sato polynomials", 2005).  With m^[q] = (x_1^q, ..., x_n^q)
    and g = f^{nu_k} mod m^[p^k], the Frobenius power g^[p] (exponents times
    p; c^p = c over F_p) is f^{p nu_k} mod m^[p^{k+1}], and nu_{k+1} lies in
    [p nu_k, p nu_k + p - 1].  So each level costs at most p - 1 truncated
    products by f that stay nonzero, plus the one that vanishes.  Level 0 is
    g = 1, nu_0 = 0.

    Exponent vectors are packed into one integer, one lane of w bits per
    variable, with B = 2^(w-1) > p^e.  A term of g at level k stores
    a_i + B - p^k in lane i, so adding the exponents of a term of f (all
    below p^e; terms with a larger one never survive) never carries out of a
    lane, and the sum lies in m^[p^k] exactly when some lane reaches its top
    bit B.  The Frobenius step is then one affine map per key, p*key -
    (p - 1)*B in every lane, and g a list of (key, coefficient) terms.
    """
    if e < 1:
        raise ValueError(f"Frobenius exponent e must be >= 1, got {e}")
    if f.is_zero():
        raise ValueError("nu_e is undefined for the zero polynomial")
    n = len(f.vars)
    if f.terms.get((0,) * n):
        raise ValueError("f must have no constant term (f must vanish at the origin)")
    p, k = f.p, e * n
    budget = _max_terms_budget()
    # p^k >= 2^(k (bits(p) - 1)), so this decides a huge space from bit lengths
    # alone, before any power is taken, and shows it as p^k.
    huge = k * (p.bit_length() - 1) >= budget.bit_length()
    if huge or p**k > budget:
        space = f"{p}^{k}" if huge else p**k
        raise ResourceGuardError(
            f"monomial space p^(e*n) = {space} exceeds budget {budget}; "
            f"raise {_MAX_TERMS_ENV} to override"
        )
    cap = p**e
    w = cap.bit_length() + 1
    shifts = [w * i for i in range(n)]
    ones = sum(1 << s for s in shifts)
    high = ones << (w - 1)
    frob = (p - 1) * high
    fq = [
        (sum(x << s for x, s in zip(exps, shifts)), c)
        for exps, c in f.terms.items()
        if max(exps) < cap
    ]
    g = [(high - ones, 1)]
    out: dict[int, int] = {}
    get = out.get
    nu = 0
    for _level in range(e):
        g = [(p * k - frob, c) for k, c in g]
        nu *= p
        for _step in range(p):
            for fk, fc in fq:
                for k, c in g:
                    k += fk
                    if not k & high:
                        out[k] = get(k, 0) + c * fc
            product = [(k, r) for k, c in out.items() if (r := c % p)]
            out.clear()
            if not product:
                break
            g = product
            nu += 1
        else:
            raise AssertionError("step bound exceeded; f cannot lie in the maximal ideal")
    return nu


class FptBracket(NamedTuple):
    """The half-open oracle bound nu_e/p^e < fpt <= (nu_e + 1)/p^e."""

    e: int
    nu: int
    lower: Rat
    upper: Rat


def oracle_bracket(f: SparsePolyFp, e: int) -> FptBracket:
    """Bracket fpt(f) between nu_e/p^e and (nu_e + 1)/p^e at level e."""
    nu = frobenius_nu(f, e)
    q = f.p**e
    return FptBracket(e=e, nu=nu, lower=Rat(nu, q), upper=Rat(nu + 1, q))
