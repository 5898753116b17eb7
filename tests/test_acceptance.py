"""Acceptance gate: one test per criterion, printing one pass/fail line per check.

Each criterion is a set of checks of the ``verify`` suites, selected by name
(the suites of :mod:`threshold_lab.verify` are the one definition of the
criteria; README.md, "Tests", maps them).  The suites run once per session
through the ``suite_checks`` fixture.  The failure-path tests below break
one engine name at a time and see the criterion's checks fail, so the gate
cannot pass vacuously.
"""

from fractions import Fraction

import pytest

import threshold_lab.verify as verify
from threshold_lab.poly import RingContext
from threshold_lab.verify import CheckResult, run_suite

# criterion: (suite, check-name prefixes, number of checks, time limit in
# seconds for the whole suite or None)
CRITERIA = {
    1: ("oracle", ("oracle-formula-agreement-p",), 4, 120.0),
    2: ("oracle", ("quartic-cone-level-4",), 1, 60.0),
    3: ("oracle", ("non-stabilizing-family",), 1, None),
    4: ("combinatorics", ("kummer-vs-factorization", "central-binomial-vanishing"), 2, None),
    5: ("combinatorics", ("prime-power-binomial-valuation",), 1, None),
    6: ("certify", ("golden[",), 8, None),
    7: ("certify", ("ramified-power-diagonals",), 1, None),
    8: ("certify", ("limit-profile-pi2-x2",), 1, None),
    9: ("certify", ("randomized-no-alarm",), 1, None),
}


def _criterion(capsys, suite_checks, n):
    suite, prefixes, count, limit_s = CRITERIA[n]
    results, elapsed = suite_checks(suite)
    checks = [c for c in results if c.name.startswith(prefixes)]
    assert len(checks) == count, f"criterion {n}: {[c.name for c in checks]}"
    if limit_s is not None:
        checks.append(CheckResult(f"{suite}-suite-time", elapsed < limit_s,
                                  f"{elapsed:.1f}s, limit {limit_s:.0f}s"))
    with capsys.disabled():
        for c in checks:
            print(f"[criterion {n}] {c.line()}")
    assert all(c.ok for c in checks), [c.line() for c in checks if not c.ok]


def test_criterion_1_digit_formula_vs_oracle(capsys, suite_checks):
    """Closed-form diagonal thresholds sit inside every level 1-3 bracket."""
    _criterion(capsys, suite_checks, 1)


def test_criterion_2_quartic_cone_bracket(capsys, suite_checks):
    _criterion(capsys, suite_checks, 2)


def test_criterion_3_non_stabilizing_family(capsys, suite_checks):
    _criterion(capsys, suite_checks, 3)


def test_criterion_4_central_binomials_and_carries(capsys, suite_checks):
    _criterion(capsys, suite_checks, 4)


def test_criterion_5_prime_power_binomial_valuations(capsys, suite_checks):
    _criterion(capsys, suite_checks, 5)


def test_criterion_6_certification_golden_table(capsys, suite_checks):
    _criterion(capsys, suite_checks, 6)


def test_criterion_7_ramified_exact_values(capsys, suite_checks):
    _criterion(capsys, suite_checks, 7)


def test_criterion_8_limit_profile_monotone(capsys, suite_checks):
    _criterion(capsys, suite_checks, 8)


def test_criterion_9_no_false_alarms(capsys, suite_checks):
    _criterion(capsys, suite_checks, 9)


# -- failure paths ----------------------------------------------------------


def _off_by_one(real):
    return lambda *args: real(*args) + 1


def _off_by_p4(real):
    return lambda p, exps: real(p, exps) + Fraction(1, p**4)


def _nu_plus_one(real):
    def oracle_bracket(f, e):
        bracket = real(f, e)
        return bracket._replace(nu=bracket.nu + 1)
    return oracle_bracket


def _strict_flags_and_rules_dropped(real):
    def certify(f, ctx):
        cert = real(f, ctx)
        cert.lower_strict = cert.upper_strict = False
        cert.rules = []
        return cert
    return certify


def _attained(real):
    return lambda f, e_max: real(f, e_max)._replace(attained=True)


def _ring_one_level_up(real):
    def random_diagonal_instance(rng):
        f, ctx = real(rng)
        return f, RingContext(ctx.p, ctx.vars, ram_level=ctx.ram_level + 1)
    return random_diagonal_instance


STRICT_ROWS = ("pi^3+x^3+y^3 @ p=2, a=0", "pi^3+x^3 @ p=3, a=0", "pi^3+x^3+y^3+z^3 @ p=2, a=0")

# (criteria, suite, engine name in threshold_lab.verify, its fake, the checks that fail)
BROKEN = [
    ((1, 3), "oracle", "fpt_diagonal", _off_by_p4,
     [f"oracle-formula-agreement-p{p}" for p in (2, 3, 5, 7)] + ["non-stabilizing-family"]),
    ((2,), "oracle", "oracle_bracket", _nu_plus_one, ["quartic-cone-level-4"]),
    ((4,), "combinatorics", "kummer_valuation", _off_by_one, ["kummer-vs-factorization"]),
    ((5,), "combinatorics", "binomial_valuation_prime_power", _off_by_one,
     ["prime-power-binomial-valuation"]),
    ((6, 7), "certify", "certify", _strict_flags_and_rules_dropped,
     [f"golden[{name}]" for name in STRICT_ROWS] + ["ramified-power-diagonals"]),
    ((8,), "certify", "limit_profile", _attained, ["limit-profile-pi2-x2"]),
    ((9,), "certify", "random_diagonal_instance", _ring_one_level_up, ["randomized-no-alarm"]),
]


@pytest.mark.parametrize(
    "criteria, suite, name, fake, failing", BROKEN,
    ids=["criterion-" + "-".join(map(str, b[0])) for b in BROKEN],
)
def test_broken_engine_fails_the_criterion(monkeypatch, criteria, suite, name, fake, failing):
    monkeypatch.setattr(verify, name, fake(getattr(verify, name)))
    ok, lines = run_suite(suite)
    assert not ok, criteria
    for check in failing:
        assert any(line.startswith(f"FAIL {check}: ") for line in lines), (check, lines)
