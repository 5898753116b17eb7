"""Byte-for-byte pins of the JSON that certify and limit_profile emit.

``data/pinned_outputs.jsonl`` holds one line per input below: its name and
the exact text of ``certify(...).to_json()`` or ``limit_profile(...).to_json()``.
The inputs are the golden table, one input for each rule, passing and failing
route-(b) containments of ``rule_exact_ramified``, the containment cross-check
of ``rule_diagonal_ramified``, and a few limit profiles.  A change to any
bound, hypothesis string, rule order, note or to the serialization fails
here.  When such a change is intended, rewrite the file with

    PYTHONPATH=src python tests/test_outputs.py --regenerate

The writers ``BoundCertificate.to_json`` and ``LimitProfile.to_json`` build
their text directly.  The reference renderer in ``reference.py`` builds the
same document as a dict tree and renders it with
``json.dumps(doc, separators=(",", ":"))``; the two must agree byte for byte on the pinned inputs, the golden table and
a hypothesis draw of certificates and profiles, both computed ones and ones
assembled from drawn fields (any text in names, rule texts and notes,
missing bounds, ``attained`` true, false or null).
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshold_lab.certify import (
    BoundCertificate,
    LimitProfile,
    ProfileStep,
    RingContext,
    RuleResult,
    certify,
    limit_profile,
)
from threshold_lab.cli import infer_variables, parse_poly
from threshold_lab.poly import MixedPoly
from threshold_lab.verify import golden_cases

from reference import certificate_doc, profile_doc, reference_json

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


# -- the writers against the reference renderer ----------------------------


def assert_matches_reference(out) -> None:
    doc = certificate_doc(out) if isinstance(out, BoundCertificate) else profile_doc(out)
    assert out.to_json() == reference_json(doc)


@pytest.mark.parametrize("case", golden_cases(), ids=lambda c: c.name)
def test_golden_json_matches_reference(case):
    assert_matches_reference(certify(case.poly, case.ctx))


@pytest.mark.parametrize("src, p, ram, cyc", [row[:4] for row in CERTIFY_INPUTS])
def test_pinned_certificate_json_matches_reference(src, p, ram, cyc):
    ctx = RingContext(p, infer_variables(src) or ("x",), ram_level=ram, cyclotomic=cyc)
    assert_matches_reference(certify(parse_poly(src, ctx), ctx))


@pytest.mark.parametrize("src, p, e_max", PROFILE_INPUTS)
def test_pinned_profile_json_matches_reference(src, p, e_max):
    ctx = RingContext(p, infer_variables(src) or ("x",))
    assert_matches_reference(limit_profile(parse_poly(src, ctx), e_max))


# Variable names of the computed draws: ASCII, a Greek letter and a
# mathematical italic x outside the Basic Multilingual Plane, which the
# escaper writes as a surrogate pair.
NAMES = ("x", "y", "\u03be", "\U0001d465")


@st.composite
def sources(draw) -> str:
    """A sum of one to three terms c * p^k * (monomial in NAMES)."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [str(draw(st.integers(1, 4))), f"p^{draw(st.integers(0, 3))}"]
        for name in draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)):
            factors.append(f"{name}^{draw(st.integers(1, 5))}")
        terms.append("*".join(factors))
    return " + ".join(terms)


@settings(max_examples=300, deadline=None)
@example("\u03be^2 + p^2 + y^3", 5, 0, False)
@example("\U0001d465^3 + p^2*\u03be", 3, 0, True)
@example("x^3 + y^3 + \U0001d465^3", 2, 0, True)
@given(sources(), st.sampled_from((2, 3, 5, 7)), st.integers(0, 1), st.booleans())
def test_computed_certificates_match_reference(src, p, ram, cyc):
    ctx = RingContext(p, infer_variables(src), ram_level=0 if cyc else ram, cyclotomic=cyc)
    try:
        cert = certify(parse_poly(src, ctx), ctx)
    except ValueError:
        return  # a unit term: not in the maximal ideal
    assert_matches_reference(cert)


@settings(max_examples=100, deadline=None)
@example("p^2 + \u03be^2", 5, 2)        # attained false, with a note
@example("p^3 + x^3 + \U0001d465^3", 2, 2)  # attained true, no note
@example("p + x^2*y + x*y^2", 3, 1)     # attained null: no closed form
@given(sources(), st.sampled_from((2, 3, 5)), st.integers(0, 2))
def test_computed_profiles_match_reference(src, p, e_max):
    ctx = RingContext(p, infer_variables(src))
    try:
        profile = limit_profile(parse_poly(src, ctx), e_max)
    except ValueError:
        return  # a unit term: not in the maximal ideal
    assert_matches_reference(profile)


def _bounds(draw) -> tuple:
    """(lower, lower_strict, upper, upper_strict, exact), each side
    possibly missing, consistent as an intersection keeps them."""
    rat = st.fractions(min_value=Fraction(1, 10**6), max_value=10, max_denominator=10**6)
    lower, upper = draw(st.one_of(st.none(), rat)), draw(st.one_of(st.none(), rat))
    if lower is not None and upper is not None:
        lower, upper = min(lower, upper), max(lower, upper)
        if lower == upper:
            return lower, False, upper, False, lower
    return lower, draw(st.booleans()), upper, draw(st.booleans()), None


TEXT = st.text(max_size=12)
NAME_TEXT = st.one_of(st.sampled_from(NAMES), st.text(min_size=1, max_size=4))


@st.composite
def assembled_certificates(draw) -> BoundCertificate:
    """A certificate with every field drawn: any text in the variable
    names, rule texts and notes, any terms, bounds possibly missing."""
    names = tuple(draw(st.lists(NAME_TEXT, min_size=1, max_size=3, unique=True)))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    cyclotomic = draw(st.booleans())
    ram = 0 if cyclotomic else draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 9)] * len(names))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 30), exps),
        st.integers(-(10**30), 10**30).filter(bool),
        min_size=1, max_size=4,
    ))
    rules = [
        RuleResult(
            draw(TEXT), draw(TEXT), draw(TEXT),
            text=lambda hyps=draw(st.lists(TEXT, max_size=3)): (hyps, []),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    f = MixedPoly(p, ram, names, terms)
    return BoundCertificate(
        *_bounds(draw),
        rules=rules,
        notes=draw(st.lists(TEXT, max_size=2)),
        poly=f,
        terms=f.sorted_terms(),
        ctx=RingContext(p, names, ram_level=ram, cyclotomic=cyclotomic),
    )


@st.composite
def assembled_profiles(draw) -> LimitProfile:
    """A profile with every field drawn: steps with missing sides, any
    limit, attained true, false or null, any notes."""
    steps = [ProfileStep(a, *_bounds(draw)) for a in range(draw(st.integers(0, 4)))]
    limit = draw(st.one_of(st.none(), st.fractions(min_value=0, max_value=1)))
    attained = draw(st.sampled_from((None, False, True)))
    return LimitProfile(steps, limit, attained, draw(st.lists(TEXT, max_size=2)))


@settings(max_examples=300, deadline=None)
@given(assembled_certificates())
def test_assembled_certificates_match_reference(cert):
    assert_matches_reference(cert)


@settings(max_examples=300, deadline=None)
@given(assembled_profiles())
def test_assembled_profiles_match_reference(profile):
    assert_matches_reference(profile)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python tests/test_outputs.py --regenerate")
    PINNED.parent.mkdir(exist_ok=True)
    with PINNED.open("w", encoding="utf-8") as fh:
        for name, compute in CASES.items():
            fh.write(json.dumps({"name": name, "output": compute()}) + "\n")
