"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import math
import random
import time
from fractions import Fraction

from threshold_lab.certify import InternalInconsistencyError, RingContext, certify, limit_profile
from threshold_lab.digits import kummer_valuation, lucas_residue, padic_valuation
from threshold_lab.digits import binomial_valuation_prime_power
from threshold_lab.exact import is_prime
from threshold_lab.fpt import diagonal_poly, fpt_diagonal, oracle_bracket
from threshold_lab.poly import SparsePolyFp
from threshold_lab.verify import (
    diagonal_multisets,
    golden_cases,
    mixed_diagonal_poly,
    random_diagonal_instance,
)

F = Fraction


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_digit_formula_vs_oracle(capsys):
    """Closed-form diagonal thresholds sit inside every level-3 search bracket."""
    start = time.monotonic()
    problems = []
    checked = 0
    for p in (2, 3, 5, 7):
        for exps in diagonal_multisets():
            value = fpt_diagonal(p, exps)
            bracket = oracle_bracket(diagonal_poly(p, exps), 3)
            if not bracket.lower <= value <= bracket.upper:
                problems.append(f"p={p} {exps}: {value} outside {bracket}")
            if p**3 % value.denominator == 0 and value != bracket.upper:
                problems.append(f"p={p} {exps}: expected terminating equality")
            checked += 1
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 120.0
    detail = f"{checked} diagonals at level 3 in {elapsed:.1f}s"
    if problems:
        detail += "; " + problems[0]
    _report(capsys, 1, ok, detail)


def test_criterion_2_quartic_cone_bracket(capsys):
    start = time.monotonic()
    f = SparsePolyFp(3, ("x", "y", "z"), {
        (4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 2): 1,
    })
    bracket = oracle_bracket(f, 4)
    elapsed = time.monotonic() - start
    ok = (
        bracket.nu == 40 == (3**4 - 1) // 2
        and (bracket.lower, bracket.upper) == (F(40, 81), F(41, 81))
        and elapsed < 60.0
    )
    _report(capsys, 2, ok,
            f"nu_4 = {bracket.nu}, bracket [{bracket.lower}, {bracket.upper}] "
            f"in {elapsed:.1f}s")


def test_criterion_3_non_stabilizing_family(capsys):
    problems = []
    for p in (3, 5, 7):
        for e in (1, 2):
            got = fpt_diagonal(p, (2 * p**e, 2))
            want = F(1, 2 * p**e) + F(1, 2)
            if got != want:
                problems.append(f"p={p} e={e}: {got} != {want}")
    _report(capsys, 3, not problems,
            problems[0] if problems else "fpt(x^(2p^e) + y^2) = 1/(2p^e) + 1/2 "
            "for p in {3,5,7}, e in {1,2}")


def test_criterion_4_central_binomials_and_carries(capsys):
    problems = []
    primes = [p for p in range(5, 201) if is_prime(p) and p % 3 == 2]
    for p in primes:
        k = (p * p - 1) // 3
        if lucas_residue(2 * k, k, p) != 0:
            problems.append(f"C(2k,k) != 0 mod {p}")
    pairs = 0
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(301):
            for m in range(n + 1):
                if kummer_valuation(n, m, p) != padic_valuation(math.comb(n, m), p):
                    problems.append(f"carry count off at C({n},{m}), p={p}")
                    break
                pairs += 1
    _report(capsys, 4, not problems,
            problems[0] if problems else
            f"{len(primes)} central binomials vanish; {pairs} carry counts agree")


def test_criterion_5_prime_power_binomial_valuations(capsys):
    problems = []
    checked = 0
    for p in (2, 3, 5, 7):
        for e in range(1, 5):
            for i in range(1, p**e + 1):
                got = binomial_valuation_prime_power(e, i, p)
                want = padic_valuation(math.comb(p**e, i), p)
                if got != want:
                    problems.append(f"v_{p} C({p**e},{i}): {got} != {want}")
                    break
                checked += 1
    _report(capsys, 5, not problems,
            problems[0] if problems else f"{checked} valuations agree")


def test_criterion_6_certification_golden_table(capsys):
    problems = []
    for case in golden_cases():
        try:
            cert = certify(case.poly, case.ctx)
        except InternalInconsistencyError as ex:
            problems.append(f"{case.name}: alarm fired ({ex})")
            continue
        if (cert.lower, cert.lower_strict) != (case.lower, case.lower_strict):
            problems.append(f"{case.name}: lower {cert.lower}")
        elif case.upper is not None and (cert.upper, cert.upper_strict) != (
            case.upper, case.upper_strict,
        ):
            problems.append(f"{case.name}: upper {cert.upper}")
        elif cert.exact != case.exact:
            problems.append(f"{case.name}: exact {cert.exact}")
        elif not all(any(frag in n for n in cert.notes) for frag in case.note_fragments):
            problems.append(f"{case.name}: missing note")
    _report(capsys, 6, not problems,
            problems[0] if problems else f"{len(golden_cases())} table rows reproduced")


def test_criterion_7_ramified_exact_values(capsys):
    problems = []
    for p, d in ((2, 3), (3, 4), (5, 6)):
        vars = tuple(f"x{i}" for i in range(2, d + 1))
        f = mixed_diagonal_poly(p, 1, d, (d,) * (d - 1), vars=vars)
        cert = certify(f, RingContext(p, vars, ram_level=1))
        fired = [r for r in cert.rules if r.rule_id == "exact_ramified"]
        if cert.exact != F(1, p):
            problems.append(f"(p,d)=({p},{d}): exact {cert.exact} != 1/{p}")
        elif not fired:
            problems.append(f"(p,d)=({p},{d}): exact_ramified did not fire")
        elif not any("termwise" in h for h in fired[0].hypotheses):
            problems.append(f"(p,d)=({p},{d}): no containment hypothesis recorded")
    _report(capsys, 7, not problems,
            problems[0] if problems else "exact 1/p with containment for (2,3),(3,4),(5,6)")


def test_criterion_8_limit_profile_monotone(capsys):
    from threshold_lab.poly import MixedPoly

    f = MixedPoly(5, 0, ("x",), {(2, (0,)): 1, (0, (2,)): 1})
    profile = limit_profile(f, 4)
    uppers = [s.upper for s in profile.steps]
    problems = []
    if any(u is None for u in uppers) or any(
        b > a for a, b in zip(uppers, uppers[1:])
    ):
        problems.append(f"uppers not nonincreasing: {uppers}")
    if uppers != [F(1, 2) + F(1, 2 * 5**a) for a in range(5)]:
        problems.append(f"unexpected uppers: {uppers}")
    if profile.limit != F(1, 2):
        problems.append(f"limit {profile.limit} != 1/2")
    if profile.attained is not False or not any("not attained" in n for n in profile.notes):
        problems.append("missing non-attainment verdict")
    _report(capsys, 8, not problems,
            problems[0] if problems else
            "uppers " + " >= ".join(str(u) for u in uppers) + " -> 1/2, not attained")


def test_criterion_9_no_false_alarms(capsys):
    rng = random.Random(20260823)
    problems = []
    for k in range(500):
        f, ctx = random_diagonal_instance(rng)
        try:
            cert = certify(f, ctx)
        except InternalInconsistencyError as ex:
            problems.append(f"instance {k}: alarm {ex}")
            break
        if (
            cert.lower is not None
            and cert.upper is not None
            and cert.lower > cert.upper
        ):
            problems.append(f"instance {k}: crossed bounds")
            break
    _report(capsys, 9, not problems,
            problems[0] if problems else "500 randomized instances, no alarm")
