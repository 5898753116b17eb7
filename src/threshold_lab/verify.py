"""Self-check suites shared by the ``verify`` subcommand and the test suite.

Each suite runs a battery of cross-validations (closed forms against brute
force, certification rules against golden values, the no-alarm property on
randomized inputs) and reports one PASS/FAIL line per check.  The building
blocks - golden cases, diagonal enumerators, the randomized instance
generator - are exported so the acceptance tests exercise the exact same
inputs the CLI does.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import NamedTuple

from .certify import RingContext, certify, limit_profile
from .digits import (
    kummer_valuation,
    binomial_valuation_prime_power,
    lucas_residue,
    magic_expansions,
    padic_valuation,
)
from .exact import is_prime
from .fpt import diagonal_poly, fpt_diagonal, oracle_bracket
from .poly import MixedPoly, SparsePolyFp


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        if self.ok:
            return f"PASS {self.name}" + (f" ({self.detail})" if self.detail else "")
        return f"FAIL {self.name}: {self.detail}"


def _primes_upto(limit: int) -> list[int]:
    return [q for q in range(2, limit + 1) if is_prime(q)]


# --------------------------------------------------------------------------
# Shared instance builders.

_DEFAULT_VARS = ("x", "y", "z")


def mixed_diagonal_poly(
    p: int,
    ram_level: int,
    pi_exponent: int | None,
    exponents: tuple[int, ...],
    vars: tuple[str, ...] | None = None,
) -> MixedPoly:
    """pi^t + x_1^{s_1} + ... + x_k^{s_k} as a MixedPoly (t optional).

    With explicit ``vars`` the exponents occupy the leading variables; extra
    variables stay unused (useful for randomized instances).
    """
    if vars is None:
        k = len(exponents)
        vars = _DEFAULT_VARS[:k] if k <= 3 else tuple(f"x{i}" for i in range(1, k + 1))
    n = len(vars)
    if len(exponents) > n:
        raise ValueError("more exponents than variables")
    terms: dict = {}
    if pi_exponent is not None:
        terms[(pi_exponent, (0,) * n)] = 1
    for i, s in enumerate(exponents):
        e = [0] * n
        e[i] = s
        terms[(0, tuple(e))] = terms.get((0, tuple(e)), 0) + 1
    return MixedPoly(p, ram_level, vars, terms)


def diagonal_multisets() -> list[tuple[int, ...]]:
    """All exponent multisets with 1 to 3 entries drawn from [2, 6]."""
    out: list[tuple[int, ...]] = []
    for n in range(1, 4):
        out.extend(combinations_with_replacement(range(2, 7), n))
    return out


def random_diagonal_instance(rng: random.Random):
    """A randomized mixed diagonal with a random ramification level."""
    p = rng.choice((2, 3, 5, 7))
    a = rng.randrange(0, 4)
    n = rng.randrange(1, 4)
    vars = _DEFAULT_VARS[:n]
    exponents = tuple(
        rng.randrange(2, 7) for _ in range(n) if rng.random() < 0.9
    )
    pi_exp = rng.randrange(1, 7) if (rng.random() < 0.7 or not exponents) else None
    f = mixed_diagonal_poly(p, a, pi_exp, exponents, vars=vars)
    return f, RingContext(p, vars, ram_level=a)


class GoldenCase(NamedTuple):
    name: str
    poly: MixedPoly
    ctx: RingContext
    lower: Fraction | None
    lower_strict: bool
    upper: Fraction | None
    upper_strict: bool
    exact: Fraction | None
    note_fragments: tuple[str, ...] = ()


def golden_cases() -> list[GoldenCase]:
    """The pinned certification table used by the certify suite and tests."""
    F = Fraction
    cases: list[GoldenCase] = []

    f = mixed_diagonal_poly(2, 0, 3, (3, 3))
    cases.append(
        GoldenCase(
            "pi^3+x^3+y^3 @ p=2, a=0",
            f,
            RingContext(2, f.vars),
            F(1, 2), True, F(3, 4), False, None,
            ("lct = 1",),
        )
    )
    f = mixed_diagonal_poly(5, 0, 3, (3, 3))
    cases.append(
        GoldenCase(
            "pi^3+x^3+y^3 @ p=5, a=0",
            f,
            RingContext(5, f.vars),
            F(4, 5), False, F(24, 25), False, None,
        )
    )
    f = mixed_diagonal_poly(5, 0, None, (3, 3, 3))
    cases.append(
        GoldenCase(
            "x^3+y^3+z^3 @ p=5, a=0",
            f,
            RingContext(5, f.vars),
            F(1), False, F(1), False, F(1),
        )
    )
    f = mixed_diagonal_poly(5, 1, None, (3, 3, 3))
    cases.append(
        GoldenCase(
            "x^3+y^3+z^3 @ p=5, a=1",
            f,
            RingContext(5, f.vars, ram_level=1),
            F(4, 5), False, F(4, 5), False, F(4, 5),
        )
    )
    f = mixed_diagonal_poly(3, 0, 3, (3,))
    cases.append(
        GoldenCase(
            "pi^3+x^3 @ p=3, a=0",
            f,
            RingContext(3, f.vars),
            F(1, 3), True, F(2, 3), False, None,
        )
    )
    f = mixed_diagonal_poly(2, 0, 3, (3, 3, 3))
    cases.append(
        GoldenCase(
            "pi^3+x^3+y^3+z^3 @ p=2, a=0",
            f,
            RingContext(2, f.vars),
            F(1, 2), True, None, False, None,
        )
    )
    f = MixedPoly(
        2,
        0,
        ("x", "y"),
        {(0, (2, 0)): 1, (0, (1, 1)): 2, (0, (0, 2)): 1, (0, (0, 3)): 4},
    )
    cases.append(
        GoldenCase(
            "(x+y)^2+4y^3 @ p=2, a=0",
            f,
            RingContext(2, f.vars),
            F(1, 2), False, F(1, 2), False, F(1, 2),
        )
    )
    f = MixedPoly(2, 0, ("x",), {(0, (2,)): 1, (2, (0,)): 1})
    cases.append(
        GoldenCase(
            "x^2+pi^2 @ p=2, a=0",
            f,
            RingContext(2, f.vars),
            F(1, 2), False, F(1, 2), False, F(1, 2),
        )
    )
    return cases


# --------------------------------------------------------------------------
# Suites.


def suite_combinatorics() -> list[CheckResult]:
    results: list[CheckResult] = []

    primes = _primes_upto(13)
    bad = None
    pairs = 0
    for n in range(0, 301):
        for m in range(0, n + 1):
            c = math.comb(n, m)
            pairs += 1
            for p in primes:
                want = padic_valuation(c, p) if c > 1 else 0
                got = kummer_valuation(n, m, p)
                if got != want and bad is None:
                    bad = f"C({n},{m}) at p={p}: kummer {got} != direct {want}"
    results.append(
        CheckResult(
            "kummer-vs-factorization",
            bad is None,
            bad or f"{pairs} binomials, primes {primes}",
        )
    )

    bad = None
    count = 0
    for p in _primes_upto(200):
        if p <= 3 or p % 3 != 2:
            continue
        k = (p * p - 1) // 3
        count += 1
        if lucas_residue(2 * k, k, p) != 0 and bad is None:
            bad = f"C(2k,k) not 0 mod p at p={p}, k={k}"
    results.append(
        CheckResult(
            "central-binomial-vanishing",
            bad is None,
            bad or f"{count} primes = 2 (mod 3)",
        )
    )

    bad = None
    for p in _primes_upto(7):
        for e in range(0, 5):
            for i in range(1, p**e + 1):
                want = padic_valuation(math.comb(p**e, i), p) if math.comb(p**e, i) > 1 else 0
                got = binomial_valuation_prime_power(e, i, p)
                if got != want and bad is None:
                    bad = f"v_p(C({p}^{e},{i})): {got} != {want}"
    results.append(CheckResult("prime-power-binomial-valuation", bad is None, bad or "p <= 7, e <= 4"))

    bad = None
    for p in _primes_upto(11):
        for n in range(0, 101):
            for m in range(0, n + 1):
                if lucas_residue(n, m, p) != math.comb(n, m) % p and bad is None:
                    bad = f"lucas({n},{m}) mod {p}"
    results.append(CheckResult("lucas-vs-direct", bad is None, bad or "n <= 100, p <= 11"))

    bad = None
    count = 0
    for p in _primes_upto(53):
        if p % 3 != 2:
            continue
        count += 1
        first, second = magic_expansions(p)
        v1 = first[0] + first[1] * p
        v2 = second[0] + second[1] * p
        if (v1, v2) != ((2 * p * p - 2) // 3, (p * p - 1) // 3) and bad is None:
            bad = f"magic values at p={p}: {(v1, v2)}"
    results.append(
        CheckResult("magic-expansion-values", bad is None, bad or f"{count} primes")
    )
    return results


def suite_oracle() -> list[CheckResult]:
    results: list[CheckResult] = []
    for p in (2, 3, 5, 7):
        bad = None
        count = 0
        for exps in diagonal_multisets():
            f = diagonal_poly(p, exps)
            value = fpt_diagonal(p, exps)
            count += 1
            for e in (1, 2, 3):
                bracket = oracle_bracket(f, e)
                if not (bracket.lower <= value <= bracket.upper):
                    bad = bad or f"s={exps}, e={e}: {value} outside {bracket}"
                if p**e % value.denominator == 0 and value != bracket.upper:
                    bad = bad or (
                        f"s={exps}, e={e}: terminating value {value} "
                        f"!= (nu+1)/p^e = {bracket.upper}"
                    )
        results.append(
            CheckResult(
                f"oracle-formula-agreement-p{p}",
                bad is None,
                bad or f"{count} diagonals, e <= 3",
            )
        )

    quartic = SparsePolyFp(
        3,
        ("x", "y", "z"),
        {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 2): 1},
    )
    bracket = oracle_bracket(quartic, 4)
    ok = (
        bracket.nu == 40
        and bracket.lower == Fraction(40, 81)
        and bracket.upper == Fraction(41, 81)
    )
    results.append(
        CheckResult(
            "quartic-cone-level-4",
            ok,
            f"nu_4 = {bracket.nu}, bracket [{bracket.lower}, {bracket.upper}]",
        )
    )
    return results


def suite_certify() -> list[CheckResult]:
    results: list[CheckResult] = []
    for case in golden_cases():
        cert = certify(case.poly, case.ctx)
        problems: list[str] = []
        if (cert.lower, cert.lower_strict) != (case.lower, case.lower_strict):
            problems.append(f"lower {cert.lower} strict={cert.lower_strict}")
        if case.upper is not None and (cert.upper, cert.upper_strict) != (
            case.upper,
            case.upper_strict,
        ):
            problems.append(f"upper {cert.upper} strict={cert.upper_strict}")
        if cert.exact != case.exact:
            problems.append(f"exact {cert.exact}")
        for frag in case.note_fragments:
            if not any(frag in note for note in cert.notes):
                problems.append(f"missing note {frag!r}")
        results.append(
            CheckResult(f"golden[{case.name}]", not problems, "; ".join(problems))
        )

    bad = None
    for p, d in ((2, 3), (3, 4), (5, 6)):
        vars = tuple(f"x{i}" for i in range(2, d + 1))
        f = mixed_diagonal_poly(p, 1, d, (d,) * (d - 1), vars=vars)
        cert = certify(f, RingContext(p, vars, ram_level=1))
        if cert.exact != Fraction(1, p) and bad is None:
            bad = f"(p,d)=({p},{d}): exact {cert.exact} != 1/{p}"
        if not any(r.rule_id == "exact_ramified" for r in cert.rules) and bad is None:
            bad = f"(p,d)=({p},{d}): exact_ramified did not fire"
    results.append(
        CheckResult("ramified-power-diagonals", bad is None, bad or "(2,3),(3,4),(5,6)")
    )

    f = MixedPoly(5, 0, ("x",), {(2, (0,)): 1, (0, (2,)): 1})
    profile = limit_profile(f, 4)
    uppers = [s.upper for s in profile.steps]
    expected = [Fraction(1, 2) + Fraction(1, 2 * 5**a) for a in range(5)]
    ok = (
        uppers == expected
        and profile.limit == Fraction(1, 2)
        and profile.attained is False
        and any("not attained" in n for n in profile.notes)
    )
    results.append(
        CheckResult(
            "limit-profile-pi2-x2",
            ok,
            "uppers " + ", ".join(str(u) for u in uppers),
        )
    )

    rng = random.Random(20260823)
    bad = None
    for _ in range(100):
        f, ctx = random_diagonal_instance(rng)
        try:
            cert = certify(f, ctx)
        except Exception as ex:  # noqa: BLE001 - the alarm itself is the failure
            bad = bad or f"{f} at a={ctx.ram_level}: {ex}"
            continue
        if cert.lower is not None and cert.upper is not None and cert.lower > cert.upper:
            bad = bad or f"{f} at a={ctx.ram_level}: crossed bounds"
    results.append(
        CheckResult("randomized-no-alarm", bad is None, bad or "100 instances")
    )
    return results


SUITES = {
    "combinatorics": suite_combinatorics,
    "oracle": suite_oracle,
    "certify": suite_certify,
}


def run_suite(name: str) -> tuple[bool, list[str]]:
    """Run a named suite; returns overall success and the printable lines."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    checks = SUITES[name]()
    lines = [c.line() for c in checks]
    passed = sum(1 for c in checks if c.ok)
    lines.append(f"{passed}/{len(checks)} checks passed")
    return passed == len(checks), lines
