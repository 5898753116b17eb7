"""Randomized certification of the rule shapes that are not diagonals.

The strategies follow the grammar of the certify-sweep workload's shape
generators (``CertifySweep._extremal`` through ``_cross_term`` in
``bench/workloads.py``) and add the registry rows: extremal forms, elliptic
cubic cones and their cross terms, p-th powers modulo p^2, the cyclotomic
base, and residues with a mixed monomial.  Each input must certify without
tripping the inconsistency alarm, and its bounds, strictness and rule ids
must not depend on the order of the ring's variables.  Read at level 0 and
joined by diagonals with a pi-slot, the same shapes check that a limit
profile's levels, derived from one analysis of f, match a fresh analysis
and a fresh certificate at each level, and that the containment powers the
levels share equal a fresh expansion at each level.
"""

from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.certify import (
    ELLIPTIC_FAMILIES,
    RingContext,
    analyze,
    certify,
    limit_profile,
    relevel,
    relevel_facts,
)
from threshold_lab.cli import infer_variables, parse_poly
from threshold_lab.poly import pow_mixed

VARS = ("x", "y", "z")


class Shape(NamedTuple):
    src: str
    p: int
    ram: int = 0
    cyclotomic: bool = False


def _term(coeff: int, exps: tuple[int, ...]) -> str:
    factors = [str(coeff)] if coeff != 1 else []
    factors += [v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, exps) if e]
    return "*".join(factors)


def _monomial(draw, n: int, lo: int, hi: int) -> tuple[int, ...]:
    """A monomial in n variables of total degree lo..hi."""
    exps = [0] * n
    for i in draw(st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi)):
        exps[i] += 1
    return tuple(exps)


@st.composite
def extremal(draw) -> Shape:
    """X^{q+1} + Y^{q+1} + f' or X^q Y + X Y^q + f', q = p, with f' in the
    Frobenius power and carrying pi or a third variable."""
    p = q = draw(st.sampled_from((2, 3, 5)))
    head = draw(st.sampled_from((f"x^{q + 1} + y^{q + 1}", f"x^{q}*y + x*y^{q}")))
    extra = draw(st.one_of(
        st.integers(q, q + 2).map(lambda k: f"p^{k}"),
        st.integers(q, q + 1).map(lambda k: f"z^{k}"),
        st.integers(1, 3).map(lambda c: f"{c}*p*x^{q}"),
        st.just(f"p^{q}*y"),
    ))
    return Shape(f"{head} + {extra}", p)


@st.composite
def elliptic(draw) -> Shape:
    """pi^3 + X^3 + Y^3 or pi^3 + XY(uX + vY) at p = 2 (mod 3)."""
    p = draw(st.sampled_from((2, 5)))
    if draw(st.booleans()):
        return Shape("p^3 + x^3 + y^3", p)
    u, v = draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))
    return Shape(f"p^3 + {_term(u, (2, 1))} + {_term(v, (1, 2))}", p)


@st.composite
def pth_power(draw) -> Shape:
    """h^p + p^2 g: a p-th power modulo p^2 over the unramified base."""
    p = draw(st.sampled_from((2, 3, 5)))
    c = draw(st.integers(1, p - 1))
    g = _term(1, _monomial(draw, 2, 2, 4))
    return Shape(f"(x + {c}*y)^{p} + p^2*{g}", p)


@st.composite
def cyclotomic(draw) -> Shape:
    """Over W[zeta_p]: p-th powers modulo varpi^p, and shapes without a root."""
    p = draw(st.sampled_from((3, 5, 7)))
    g = _term(1, _monomial(draw, 2, 1, 3))
    if draw(st.booleans()):
        src = f"(x + {draw(st.integers(1, p - 1))}*y)^{p} + p^{p}*{g}"
    else:
        src = f"x^{draw(st.integers(2, 4))} + p*{g}"
    return Shape(src, p, cyclotomic=True)


@st.composite
def cross_term(draw) -> Shape:
    """Residues with a mixed monomial: fpt_lower falls back to the oracle."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(2, 3))
    monos = {_monomial(draw, n, 2, 4) for _ in range(draw(st.integers(2, 3)))}
    monos.add((1, 1) + (0,) * (n - 2))
    parts = [_term(draw(st.integers(1, p - 1)), m) for m in sorted(monos)]
    if draw(st.booleans()):
        parts.append(f"p^{draw(st.integers(1, 4))}")
    return Shape(" + ".join(parts), p, draw(st.integers(0, 1)))


@st.composite
def registry(draw) -> Shape:
    """The curated rows: the diagonal cubic cone and the 2-adic quadratic cone."""
    if draw(st.booleans()):
        return Shape("p^2 + x^2", 2)
    return Shape("x^3 + y^3 + z^3", draw(st.sampled_from((2, 5, 7, 11))), draw(st.integers(0, 1)))


SHAPES = st.one_of(extremal(), elliptic(), pth_power(), cyclotomic(), cross_term(), registry())


def _summary(src: str, shape: Shape, vars: tuple[str, ...]):
    ctx = RingContext(shape.p, vars, ram_level=shape.ram, cyclotomic=shape.cyclotomic)
    cert = certify(parse_poly(src, ctx), ctx)
    return (
        cert.lower, cert.lower_strict, cert.upper, cert.upper_strict, cert.exact,
        [r.rule_id for r in cert.rules],
    )


@given(data=st.data(), shape=SHAPES)
@settings(max_examples=300, deadline=None)
def test_rule_shapes_certify_and_ignore_variable_order(data, shape):
    vars = infer_variables(shape.src)
    summary = _summary(shape.src, shape, vars)
    lower, lower_strict, upper, upper_strict, _exact, _ids = summary
    if lower is not None and upper is not None:
        assert lower < upper or (lower == upper and not (lower_strict or upper_strict))
    permuted = tuple(data.draw(st.permutations(vars)))
    assert _summary(shape.src, shape, permuted) == summary


@st.composite
def pi_slot_diagonal(draw) -> Shape:
    """pi^t + x^s, or pi^t + x^s + y^s' below p = 5: the limit-profile grid at
    p <= 5 without its two-variable p = 5 diagonals, whose containment checks
    at levels 2 and 3 take seconds."""
    p = draw(st.sampled_from((2, 3, 5)))
    exps = draw(st.lists(st.integers(2, 5), min_size=1, max_size=1 if p == 5 else 2))
    parts = [f"p^{draw(st.integers(1, 4))}"] + [f"{v}^{s}" for v, s in zip(VARS, exps)]
    return Shape(" + ".join(parts), p)


def _bounds(c):
    return c.lower, c.lower_strict, c.upper, c.upper_strict, c.exact


@given(
    shape=st.one_of(SHAPES, pi_slot_diagonal()),
    family=st.sampled_from((None, *ELLIPTIC_FAMILIES)),
)
@settings(max_examples=150, deadline=None)
def test_profile_levels_match_a_fresh_analysis(shape, family):
    vars = infer_variables(shape.src)
    ctx = RingContext(shape.p, vars)
    f = parse_poly(shape.src, ctx)
    base = analyze(f, ctx, family)
    steps = limit_profile(f, 3, family).steps
    assert [s.level for s in steps] == [0, 1, 2, 3]
    for a, step in enumerate(steps):
        fa, ctx_a = relevel(f, a), RingContext(shape.p, vars, ram_level=a)
        assert relevel_facts(base, a) == analyze(fa, ctx_a, family)
        assert _bounds(step) == _bounds(certify(fa, ctx_a, family))


@given(
    shape=st.one_of(SHAPES, pi_slot_diagonal()).filter(lambda shape: shape.p <= 5),
    a=st.integers(0, 3),
    b=st.integers(0, 6),
)
@settings(max_examples=150, deadline=None)
def test_profile_levels_share_the_level_zero_powers(shape, a, b):
    """relevel is a ring map, so relevel(f^b, a) = relevel(f, a)^b; the
    power each derived level reads from the shared memo is a fresh
    expansion of that level's f."""
    vars = infer_variables(shape.src)
    ctx = RingContext(shape.p, vars)
    f = parse_poly(shape.src, ctx)
    assert relevel(pow_mixed(f, b), a) == pow_mixed(relevel(f, a), b)
    base = analyze(f, ctx)
    for level in range(4):
        facts = relevel_facts(base, level)
        assert facts.power(b) == pow_mixed(facts.f, b)
    assert base.power(b) == pow_mixed(f, b)
