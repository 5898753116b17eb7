"""Byte-for-byte pins of the JSON that certify and limit_profile emit.

``data/pinned_outputs.jsonl`` holds one line per input below: its name and
the exact text of ``certify(...).to_json()`` or ``limit_profile(...).to_json()``.
The inputs are the golden table, one input for each rule, passing and failing
route-(b) containments of ``rule_exact_ramified``, the containment cross-check
of ``rule_diagonal_ramified``, and a few limit profiles.  A change to any
bound, hypothesis string, rule order, note or to the serialization fails
here.  When such a change is intended, rewrite the file with

    PYTHONPATH=src python tests/test_outputs.py --regenerate
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

from threshold_lab.certify import RingContext, certify, limit_profile
from threshold_lab.cli import infer_variables, parse_poly
from threshold_lab.verify import golden_cases

PINNED = Path(__file__).parent / "data" / "pinned_outputs.jsonl"

# (src, p, ram_level, cyclotomic, what it exercises)
CERTIFY_INPUTS = (
    ("x^3 + y^3 + z^3", 7, 1, False, "known_values at p = 1 (mod 3)"),
    ("x^2*y + x*y^2 + x^5", 3, 0, False, "fpt_lower through the oracle"),
    ("p^2 + x^3 + y^4", 5, 0, False, "blowup_diagonal"),
    ("x^3*y + x*y^3 + z^3", 3, 0, False, "extremal_strict, {X^q Y, X Y^q}"),
    ("x^3 + y^3 + p^2*z", 2, 0, False, "extremal_strict, {X^(q+1), Y^(q+1)}"),
    ("x^3 + y^3 + z", 2, 0, False, "extremal cofactor outside (pi^2, x_i^2)"),
    ("p^3 + x^3 + y^3", 3, 0, False, "frobenius_diagonal_strict"),
    ("p^3 + x^2*y + 2*x*y^2", 5, 0, False, "elliptic, cross term"),
    ("125 + x^3 + y^3", 5, 0, False, "elliptic, pi^3 written as p^3 = 125"),
    ("2*p^3 + x^3 + y^3", 5, 0, False, "pi-term with unit 2: not monic"),
    ("(x + 2*y)^3 + p^2*x", 3, 0, False, "pth_root_upper mod p^2"),
    ("(x + y)^3 + p^3*x*y", 3, 0, True, "pth_root_upper mod varpi^p"),
    ("x^2 + p*y", 3, 0, True, "cyclotomic base, no p-th root"),
    ("p^3 + x^2*y + x*y^2 + y^5", 3, 1, False, "ramified_upper via the oracle"),
    ("p^3 + x^2 + y^2", 3, 1, False, "exact_ramified route (a)"),
    ("p^6 + x^3 + y^3", 5, 2, False, "exact_ramified route (b), contained"),
    ("p + x^2 + y^5", 5, 2, False, "exact_ramified route (b), not contained"),
    ("p + x^5 + y^5", 7, 2, False, "route (b) fails after expanding f^19"),
    ("p^2 + x^2 + y^3", 5, 2, False, "diagonal_ramified cross-check"),
    ("p^2 + x^5 + y^5", 7, 3, False, "diagonal_ramified at p = 7, a = 3"),
)

# (src, p, e_max)
PROFILE_INPUTS = (
    ("p^2 + x^2", 5, 4),
    ("p^3 + x^3 + y^3", 2, 2),
    ("p + x^2*y + x*y^2", 3, 2),
)


def _certify_case(src, p, ram, cyclotomic):
    ctx = RingContext(p, infer_variables(src) or ("x",), ram_level=ram, cyclotomic=cyclotomic)
    return lambda: certify(parse_poly(src, ctx), ctx).to_json()


def _profile_case(src, p, e_max):
    ctx = RingContext(p, infer_variables(src) or ("x",))
    return lambda: limit_profile(parse_poly(src, ctx), e_max).to_json()


def cases() -> dict:
    """Input name -> a function that computes its JSON output."""
    out = {}
    for case in golden_cases():
        out[f"golden {case.name}"] = (
            lambda case=case: certify(case.poly, case.ctx).to_json()
        )
    for src, p, ram, cyc, _why in CERTIFY_INPUTS:
        name = f"certify {src} @ p={p}, a={ram}{', cyclotomic' if cyc else ''}"
        out[name] = _certify_case(src, p, ram, cyc)
    for src, p, e_max in PROFILE_INPUTS:
        out[f"limit_profile {src} @ p={p}, e_max={e_max}"] = _profile_case(src, p, e_max)
    return out


CASES = cases()


@functools.cache
def _pinned() -> dict:
    with PINNED.open(encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return {row["name"]: row["output"] for row in rows}


def test_pinned_file_covers_every_input():
    assert list(_pinned()) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_is_pinned(name):
    assert CASES[name]() == _pinned()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python tests/test_outputs.py --regenerate")
    PINNED.parent.mkdir(exist_ok=True)
    with PINNED.open("w", encoding="utf-8") as fh:
        for name, compute in CASES.items():
            fh.write(json.dumps({"name": name, "output": compute()}) + "\n")
