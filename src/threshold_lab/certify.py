"""Certified bounds for plus-pure thresholds of mixed-characteristic hypersurfaces.

The plus-pure threshold ppt(f) of f in V[[x_1..x_n]] (V a possibly ramified
p-adic base, uniformizer pi) measures how far the pair stays pure inside the
absolute integral closure.  It is never computed directly here - no finite
computation could - instead this module mechanically checks the hypotheses of
a fixed list of theorems, each of which certifies a lower bound, an upper
bound, or an exact value, and intersects everything it can prove:

* ``rule_fpt_lower`` - ppt(f) >= fpt(f mod pi), the residual char-p threshold.
* ``rule_blowup_diagonal`` - for pi-power diagonals, the squeeze
  fpt(diagonal with pi replaced by a variable) <= ppt(f) <= lct.
* ``rule_ramified_upper`` / ``rule_exact_ramified`` - once the base contains a
  p^e-th root of the uniformizer of a ring of definition of f, the residual
  threshold caps ppt from above; with a terminating residual threshold the
  two sides meet.
* ``rule_diagonal_ramified`` - the digit-level-L comparison for diagonals with
  a pi-power slot, cross-checked by an explicit Frobenius-ideal containment.
* ``rule_extremal_strict`` and ``rule_frobenius_diagonal_strict`` - strict
  lower bounds beating the residual threshold for extremal forms and for
  p-power diagonals at odd p.
* ``rule_elliptic`` - the 1 - 1/p^2 upper bound for cones over certain plane
  cubics when p = 2 (mod 3).
* ``rule_pth_root_upper`` - f a p-th power modulo p^2 forces ppt <= 1 - 1/p;
  modulo (zeta_p - 1)^p over the p-cyclotomic base it forces ppt <= 1/p.
* ``known_values_registry`` - a small curated table of exactly known values.

Each input is analysed once: :func:`analyze` builds a frozen :class:`Facts`
holding f, the ring context, the residue f mod pi with its closed-form fpt,
the pure-power diagonal match and the base ring level; it also reads the diagonal's digit level and fpt (from one digit
walk), the oracle brackets of the residue and the containment powers f^b on
demand, once each.  Every rule takes that one argument and
returns a :class:`RuleResult` or None (abstention): its bounds at once, its
hypotheses and notes only when they are read.  :func:`_run_rules` runs the
ten rules above plus ``rule_threshold_cap`` (ppt <= 1, always) from one
tuple, the registry first and the cap last; the tuple is built on each
call, so a rule replaced on the module is the one that runs.
:func:`_intersect` then finds the max lower and the min upper bound in one
scan.  :func:`certify` builds its :class:`BoundCertificate` from that, with
the rules' hypotheses and notes.  A limit profile is analysed once too:
:func:`limit_profile` validates and analyses f at level 0 only, derives every
level's :class:`Facts` from that with :func:`relevel_facts`, and keeps only
the intersected bounds of each level, so it builds no certificate and
renders no rule text.  The levels share the oracle brackets and the
containment powers: each f^b is expanded once per profile, at level 0, and
each level relevels it, since :func:`relevel` is a ring map.

Every certified bound is sound on its own, so the combined max-of-lowers /
min-of-uppers can only collide if the implementation is wrong; that collision
is surfaced as :class:`InternalInconsistencyError` and doubles as the
engine's cross-validation alarm.  A limit profile raises it across levels
too, since ppt can only fall as the base is ramified further.

The ring context and the ideal test the rules share live in :mod:`.poly`:
:class:`RingContext` (re-exported here) reads every effective pi-order
through ``RingContext.pi_order``, and the containments of
``rule_exact_ramified``, ``rule_diagonal_ramified`` and the cofactor check of
``rule_extremal_strict`` all ask whether terms lie in the Frobenius power
(pi^q, x_1^q, ..., x_n^q).  Where fpt(f mod pi) has no closed form, the rules
read it from the Frobenius oracle at level :data:`ORACLE_LEVEL`.

:meth:`BoundCertificate.to_json` and :meth:`LimitProfile.to_json` write the
JSON of ``certify --json`` and ``limit-profile --json`` as text, directly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .digits import padic_valuation
from .exact import Rat, format_rat
# require_prime is not called here; it stays a module attribute because
# bench/run.py counts its calls by wrapping it in every engine module.
from .exact import require_prime  # noqa: F401
# compute_L is not called here; it stays a module attribute because
# bench/run.py times it by wrapping certify.compute_L.
from .fpt import compute_L  # noqa: F401
from .fpt import (
    INFINITE,
    FptBracket,
    ResourceGuardError,
    diagonal_level_fpt,
    fpt_diagonal,
    lct_diagonal,
    oracle_bracket,
)
from .poly import (
    Exps,
    MixedPoly,
    RingContext,
    SparsePolyFp,
    in_frobenius_power,
    pow_mixed,
    pth_root_mod_fp,
    reduce_mod_pi,
    weighted_membership,
)

# Level e of the Frobenius oracle bracket [nu_e/p^e, (nu_e+1)/p^e] used when
# fpt(f mod pi) has no closed form.
ORACLE_LEVEL = 2


class InternalInconsistencyError(RuntimeError):
    """Two certified bounds exclude each other.  Must never fire on sound rules."""


class Bound(NamedTuple):
    value: Rat
    strict: bool = False


class RuleResult:
    """One rule's contribution: bounds plus the checked-hypothesis trail.

    A rule that proves an equality certifies the value as both bounds,
    neither strict.  The bounds are computed when the rule runs; the trail
    is produced on first read by ``text``, a zero-argument function
    returning (hypotheses, notes): a limit profile keeps only the bounds of
    each level, so it never formats rule text.
    """

    __slots__ = ("rule_id", "statement", "quote", "lower", "upper", "_text", "_trail")

    def __init__(
        self,
        rule_id: str,
        statement: str,
        quote: str,
        lower: Bound | None = None,
        upper: Bound | None = None,
        *,
        text: Callable[[], tuple[list[str], list[str]]],
    ) -> None:
        self.rule_id = rule_id
        self.statement = statement
        self.quote = quote
        self.lower = lower
        self.upper = upper
        self._text = text
        self._trail = None

    def _read_trail(self) -> tuple[list[str], list[str]]:
        if self._trail is None:
            self._trail = self._text()
        return self._trail

    @property
    def hypotheses(self) -> list[str]:
        return self._read_trail()[0]

    @property
    def notes(self) -> list[str]:
        return self._read_trail()[1]


def _check_bounds(b: BoundCertificate | ProfileStep) -> None:
    """What every intersection keeps: lower <= upper, and an exact value is
    both bounds, neither of them strict."""
    if b.lower is not None and b.upper is not None:
        assert _cmp(b.lower, b.upper) <= 0
    if b.exact is not None:
        assert b.lower == b.upper == b.exact
        assert not b.lower_strict and not b.upper_strict


# Pieces of the text json.dumps(doc, separators=(",", ":")) writes: keys in
# a fixed order, integers through str, rationals through format_rat (digits,
# "-" and "/" only), other strings through json.dumps's own ASCII escaper.
_LITERAL = {None: "null", False: "false", True: "true"}


def _strings(items: Iterable[str]) -> str:
    return "[" + ",".join(map(_quote, items)) + "]"


def _rat(q: Rat | None) -> str:
    return "null" if q is None else f'"{format_rat(q)}"'


def _bound(value: Rat | None, strict: bool) -> str:
    return "null" if value is None else f'{{"value":{_rat(value)},"strict":{_LITERAL[strict]}}}'


class BoundCertificate:
    """The intersected output of every rule that fired on one input."""

    __slots__ = (
        "lower", "lower_strict", "upper", "upper_strict", "exact", "rules", "notes", "poly", "ctx"
    )

    def __init__(
        self,
        lower: Rat | None,
        lower_strict: bool,
        upper: Rat | None,
        upper_strict: bool,
        exact: Rat | None,
        rules: list[RuleResult],
        notes: list[str],
        poly: MixedPoly,
        ctx: RingContext,
    ) -> None:
        self.lower, self.lower_strict, self.upper = lower, lower_strict, upper
        self.upper_strict, self.exact, self.rules = upper_strict, exact, rules
        self.notes, self.poly, self.ctx = notes, poly, ctx
        _check_bounds(self)

    def to_json(self) -> str:
        """Compact JSON: the input and its ring, the bounds, rules and notes."""
        f, ctx = self.poly, self.ctx
        terms = ",".join(
            f'{{"pi":{pi},"exps":[{",".join(map(str, e))}],"coeff":"{c}"}}'
            for (pi, e), c in f.sorted_terms()
        )
        rules = ",".join(
            f'{{"id":{_quote(r.rule_id)},"paper_ref":{_quote(r.statement)},'
            f'"quote":{_quote(r.quote)},"hypotheses":{_strings(r.hypotheses)}}}'
            for r in self.rules
        )
        return (
            f'{{"input":{{"p":{f.p},"ram_level":{f.ram_level},"vars":{_strings(f.vars)},'
            f'"terms":[{terms}],"ctx":{{"p":{ctx.p},"ram_level":{ctx.ram_level},'
            f'"cyclotomic":{_LITERAL[ctx.cyclotomic]},"vars":{_strings(ctx.vars)}}}}},'
            f'"lower":{_bound(self.lower, self.lower_strict)},'
            f'"upper":{_bound(self.upper, self.upper_strict)},"exact":{_rat(self.exact)},'
            f'"rules":[{rules}],"notes":{_strings(self.notes)}}}'
        )


# --------------------------------------------------------------------------
# Structural analysis shared by the rules.


class MixedDiagonal(NamedTuple):
    """Decomposition f = u_0 pi^t + sum_i u_i x_{j_i}^{s_i} (pure-power terms).

    ``pi_order`` is the effective pi-order t of the pi-pure term (None when f
    has no such term); ``pi_unit_one`` records whether its unit part is the
    literal 1.  ``entries`` hold (variable index, exponent, coefficient) for
    the x-terms, whose coefficients are prime to p.
    """

    pi_order: int | None
    pi_unit_one: bool
    entries: tuple[tuple[int, int, int], ...]

    def exponents(self) -> tuple[int, ...]:
        s = tuple(e for (_i, e, _c) in self.entries)
        return s if self.pi_order is None else (self.pi_order, *s)

    def x_exponents(self) -> tuple[int, ...]:
        return tuple(e for (_i, e, _c) in self.entries)

    def monic(self) -> bool:
        return (self.pi_order is None or self.pi_unit_one) and all(
            c == 1 for (_i, _e, c) in self.entries
        )


def match_mixed_diagonal(f: MixedPoly, ctx: RingContext) -> MixedDiagonal | None:
    """Match f against the pure-power diagonal shape, else None.

    At most one pi-pure term is allowed; its p-content is folded into the
    effective pi-order (so the coefficient 27 at p = 3, a = 0 counts as
    pi^3).  Each remaining term must be a single-variable pure power with
    coefficient prime to p, and the variables must be distinct.
    """
    pi_order: int | None = None
    pi_unit_one = False
    entries: list[tuple[int, int, int]] = []
    for (pi, exps), c in f.sorted_terms():
        support = [i for i, e in enumerate(exps) if e]
        if not support:
            if pi_order is not None:
                return None
            order = ctx.pi_order(pi, c)
            if order == 0:
                return None
            pi_order = order
            # The unit part is 1 exactly when c = p^v, v = v_p(c).
            pi_unit_one = c == ctx.p ** ((order - pi) // ctx.pi_multiplier)
        elif len(support) == 1:
            if pi != 0 or c % ctx.p == 0:
                return None
            i = support[0]
            entries.append((i, exps[i], c))
        else:
            return None
    if len({i for (i, _e, _c) in entries}) != len(entries):
        return None
    if pi_order is None and not entries:
        return None
    return MixedDiagonal(pi_order, pi_unit_one, tuple(entries))


def exact_fpt_of_reduction(g: SparsePolyFp) -> Rat | None:
    """Exact fpt of g for the shapes with a closed form, else None.

    Covers a single monomial (fpt = min_i 1/e_i), any diagonal with distinct
    single-variable pure powers (a linear term makes g regular, so fpt = 1;
    otherwise the digit formula applies) - enough for every family the
    certification rules consume.
    """
    if g.is_zero():
        return None
    if len(g.terms) == 1:
        (exps,) = g.terms
        return Rat(1, max(exps))
    seen: set[int] = set()
    exponents: list[int] = []
    for exps in g.terms:
        support = [i for i, e in enumerate(exps) if e]
        if len(support) != 1 or support[0] in seen:
            return None
        seen.add(support[0])
        exponents.append(exps[support[0]])
    if any(s == 1 for s in exponents):
        return Rat(1)
    return fpt_diagonal(g.p, tuple(exponents))


def base_ring_level(f: MixedPoly, ctx: RingContext) -> int:
    """Least c with f defined over W(k)[p^{1/p^c}] inside the level-a tower.

    A term's pi-exponent is divisible by p^{a-c} exactly when the term lives
    at level c; p-divisibility of coefficients never obstructs (p = pi^{p^a}
    has exponent divisible by every p-power up to a).  c = 0 means f has
    unramified coefficients.
    """
    a = ctx.ram_level
    positive = [pi for (pi, _e) in f.terms if pi > 0]
    if not positive:
        return 0
    v = min(padic_valuation(pi, ctx.p) for pi in positive)
    return a - min(a, v)


class Facts(namedtuple("Facts", "f ctx residue residue_fpt diag base_level")):
    """The analysis of one input that every rule reads, made once by :func:`analyze`.

    ``residue`` is f mod pi and ``residue_fpt`` its closed-form fpt (None
    when the residue is zero or has no closed form); ``diag`` is the
    pure-power diagonal decomposition of f, or None; ``base_level`` is
    :func:`base_ring_level`.

    ``brackets`` memoizes :meth:`bracket` and ``powers`` memoizes
    :meth:`power`.  They hold no fact of their own, so they live in the
    instance dict, outside the tuple of six facts that equality reads, and
    the levels of one limit profile share them: their residue is the same,
    and ``powers`` holds the powers of the level-0 f, ``level0``, which each
    level relevels.  ``level0`` is None on an analysis that :func:`analyze`
    made, whose ``powers`` hold the powers of f itself.
    """

    def __new__(
        cls,
        f: MixedPoly,
        ctx: RingContext,
        residue: SparsePolyFp,
        residue_fpt: Rat | None,
        diag: MixedDiagonal | None,
        base_level: int,
        brackets: dict[int, FptBracket | None] | None = None,
        powers: dict[int, MixedPoly] | None = None,
        level0: MixedPoly | None = None,
    ):
        facts = super().__new__(cls, f, ctx, residue, residue_fpt, diag, base_level)
        facts.brackets = {} if brackets is None else brackets
        facts.powers = {} if powers is None else powers
        facts.level0 = level0
        return facts

    @cached_property
    def diag_digits(self) -> tuple[int | float, Rat]:
        """The digit level L and the fpt of the pure-power diagonal's
        exponents, pi-slot included, from one digit walk; read only when
        ``diag`` is set and no exponent is 1, so nothing is checked again."""
        return diagonal_level_fpt(self.ctx.p, self.diag.exponents())

    def power(self, b: int) -> MixedPoly:
        """f^b, expanded once per b.  On a level derived by
        :func:`relevel_facts` it is the level-0 f^b relevelled: relevel is a
        ring map, so relevel(f, a)^b = relevel(f^b, a), coefficients included."""
        level0, a = self.level0, self.ctx.ram_level
        fb = self.powers.get(b)
        if fb is None:
            fb = self.powers[b] = pow_mixed(self.f if level0 is None else level0, b)
        return fb if level0 is None or a == 0 else relevel(fb, a)

    def bracket(self, e: int) -> FptBracket | None:
        """The oracle bracket of the residue at level e, or None when the
        oracle refuses it (a :class:`ResourceGuardError`); asked once per e."""
        if e not in self.brackets:
            try:
                self.brackets[e] = oracle_bracket(self.residue, e)
            except ResourceGuardError:
                self.brackets[e] = None
        return self.brackets[e]


def analyze(f: MixedPoly, ctx: RingContext) -> Facts:
    """Compute the residue, its closed-form fpt, the diagonal match and the
    base ring level of f, once for all rules."""
    residue = reduce_mod_pi(f)
    return Facts(
        f=f,
        ctx=ctx,
        residue=residue,
        residue_fpt=exact_fpt_of_reduction(residue),
        diag=match_mixed_diagonal(f, ctx),
        base_level=base_ring_level(f, ctx),
    )


def relevel_facts(facts: Facts, a: int) -> Facts:
    """The analysis of ``relevel(f, a)``, derived from the level-0 analysis of f.

    Scaling every pi-exponent by p^a leaves all of it unchanged except the
    diagonal's pi-order, which scales with it: the residue keeps the terms of
    pi-exponent 0 (so its closed-form fpt is the same), the diagonal match
    reads each term's shape and the unit part of its pi-term, and every
    positive pi-exponent of relevel(f, a) is divisible by p^a, so the base
    ring level is 0.  The residue being the same, the derived facts share
    the oracle brackets of ``facts``; they share its memo of the powers of
    the level-0 f too, so each f^b is expanded once across the levels.
    """
    ctx = facts.ctx
    if ctx.ram_level != 0 or ctx.cyclotomic:
        raise ValueError("relevel_facts expects the analysis of a level-0 polynomial")
    diag = facts.diag
    if diag is not None and diag.pi_order is not None:
        diag = MixedDiagonal(diag.pi_order * ctx.p**a, diag.pi_unit_one, diag.entries)
    return Facts(
        f=relevel(facts.f, a),
        ctx=ctx._replace(ram_level=a),
        residue=facts.residue,
        residue_fpt=facts.residue_fpt,
        diag=diag,
        base_level=0,
        brackets=facts.brackets,
        powers=facts.powers,
        level0=facts.f,
    )


# --------------------------------------------------------------------------
# Rules.  Each reads one Facts and returns a RuleResult or None (abstention).


def rule_fpt_lower(facts: Facts) -> RuleResult | None:
    """ppt(f) >= fpt(f mod pi): purity descends along the residual reduction."""
    if facts.residue.is_zero():
        return None
    value = facts.residue_fpt
    closed = value is not None
    if not closed:
        bracket = facts.bracket(ORACLE_LEVEL)
        if bracket is None or bracket.nu == 0:
            return None
        value = bracket.lower

    def text():
        if closed:
            source = f"fpt(f mod pi) = {format_rat(value)} in closed form"
        else:
            source = (
                f"fpt(f mod pi) >= nu_{ORACLE_LEVEL}/p^{ORACLE_LEVEL}"
                f" = {format_rat(value)} by the Frobenius oracle"
            )
        return ["f mod pi is nonzero", source], []

    return RuleResult(
        rule_id="fpt_lower",
        statement="comparison with the residual characteristic-p threshold",
        quote="ppt(f) >= fpt(f mod pi)",
        lower=Bound(value, strict=False),
        text=text,
    )


def rule_blowup_diagonal(facts: Facts) -> RuleResult | None:
    """Squeeze fpt(f_0) <= ppt(f) <= lct for pure-power diagonals.

    f_0 is the char-p diagonal obtained by replacing the pi-power slot with a
    fresh variable; its fpt bounds ppt from below, while the (diagonal) log
    canonical threshold bounds it from above.
    """
    ctx, diag = facts.ctx, facts.diag
    if ctx.cyclotomic or diag is None:
        return None
    exps = diag.exponents()
    linear = any(s == 1 for s in exps)
    if linear:
        lower = lct = Rat(1)
    else:
        lower = facts.diag_digits[1]
        lct = lct_diagonal(exps)

    def text():
        if linear:
            shape = "a linear slot makes the blown-up diagonal regular"
        else:
            shape = f"blown-up diagonal exponents {list(exps)}"
        hyp = [
            "f is a pure-power diagonal in pi and distinct variables",
            shape,
            f"fpt(f_0) = {format_rat(lower)}, lct = {format_rat(lct)}",
        ]
        return hyp, [f"lct = {format_rat(lct)}"]

    return RuleResult(
        rule_id="blowup_diagonal",
        statement="blow-up comparison for diagonals in the uniformizer",
        quote="fpt(f_0) <= ppt(f) <= lct(f) for the diagonal with pi replaced by a variable",
        lower=Bound(lower, strict=False),
        upper=Bound(lct, strict=False),
        text=text,
    )


def rule_ramified_upper(facts: Facts) -> RuleResult | None:
    """ppt(f) <= ceil(q p^e)/p^e once V contains a p^e-th root of the
    uniformizer of a ring of definition of f, where q >= fpt(f mod pi).

    e = ram_level - (base ring level of f) is the deepest sound level; the
    rule abstains when that is zero, i.e. when f uses the full ramification
    of V itself.
    """
    ctx, c = facts.ctx, facts.base_level
    if ctx.cyclotomic:
        return None
    e = ctx.ram_level - c
    if e < 1 or facts.residue.is_zero():
        return None
    q = facts.residue_fpt
    closed = q is not None
    if not closed:
        bracket = facts.bracket(min(e, ORACLE_LEVEL))
        if bracket is None:
            return None
        q = bracket.upper
    b = -(-q.numerator * ctx.p**e // q.denominator)  # ceil(q p^e)
    value = Rat(b, ctx.p**e)

    def text():
        if closed:
            source = f"fpt(f mod pi) = {format_rat(q)} in closed form"
        else:
            source = f"fpt(f mod pi) <= {format_rat(q)} by the Frobenius oracle"
        return [
            f"f is defined over the level-{c} subring; p^{e}-th roots available",
            source,
            f"upper bound {b}/p^{e} = {format_rat(value)}",
        ], []

    return RuleResult(
        rule_id="ramified_upper",
        statement="upper bound after adjoining p-power roots of the uniformizer",
        quote=(
            "ppt(f) <= b/p^e once the base contains a p^e-th root of the "
            "uniformizer of a ring of definition of f and fpt(f mod pi) <= b/p^e"
        ),
        upper=Bound(value, strict=False),
        text=text,
    )


def rule_exact_ramified(facts: Facts) -> RuleResult | None:
    """Exact value where the residual threshold terminates inside the tower.

    Route (a): fpt(f mod pi) = b/p^e with e <= ram_level - (base level of f);
    the residual lower bound and the root-adjunction upper bound then agree.
    Route (b): for pure-power diagonals with ram_level >= e, the explicit
    containment f^b in (pi^{p^e}, x_i^{p^e}) certifies the upper side even
    when f itself uses the full ramification.
    """
    ctx, q = facts.ctx, facts.residue_fpt
    if ctx.cyclotomic or q is None:
        return None
    den = q.denominator
    e = 0
    while den % ctx.p == 0:
        den //= ctx.p
        e += 1
    if den != 1:
        return None
    c = facts.base_level
    descends = e <= ctx.ram_level - c
    if not descends:
        if e > ctx.ram_level or e == 0:
            return None
        diag = facts.diag
        if diag is None or not diag.monic():
            return None
        b = q * ctx.p**e
        assert b.denominator == 1
        if not weighted_membership(facts.power(int(b)), ctx, ctx.p**e):
            return None

    def text():
        terminates = f"fpt(f mod pi) = {format_rat(q)} with p-power denominator p^{e}"
        if descends:
            route = (
                f"f is defined over the level-{c} subring and ram_level ({ctx.ram_level})"
                f" >= {c} + {e}"
            )
        else:
            route = (
                f"f^{int(b)} lies termwise in (pi^{ctx.p**e}, x_i^{ctx.p**e}) and "
                f"ram_level >= {e}"
            )
        return [terminates, route], []

    if descends:
        quote = (
            "if fpt(f mod pi) = b/p^e terminates and the base is ramified e "
            "levels past a ring of definition of f, then ppt(f) = fpt(f mod pi)"
        )
    else:
        quote = (
            "f^b in (pi^{p^e}, x_1^{p^e}, ..., x_n^{p^e}) with e <= ram_level "
            "forces ppt(f) <= b/p^e, meeting the residual lower bound"
        )
    return RuleResult(
        rule_id="exact_ramified",
        statement="equality at terminating residual thresholds over ramified bases",
        quote=quote,
        lower=Bound(q),
        upper=Bound(q),
        text=text,
    )


def rule_diagonal_ramified(facts: Facts) -> RuleResult | None:
    """Digit-level comparison for diagonals with a pi-power slot.

    For f = pi^{s_1} + x_2^{s_2} + ... + x_n^{s_n} with n < p, all s_i > 1 and
    ram_level >= L (the digit level of the full diagonal), ppt(f) is at most
    the full diagonal's fpt, with equality when n = 2 or all exponents agree.
    The bound is re-verified by the containment f^b in (pi^{p^L}, x_i^{p^L});
    disagreement raises the internal-inconsistency alarm.
    """
    ctx, diag = facts.ctx, facts.diag
    if ctx.cyclotomic:
        return None
    if diag is None or diag.pi_order is None or not diag.entries:
        return None
    if not diag.monic():
        return None
    exps = diag.exponents()
    n = len(exps)
    if n >= ctx.p or any(s < 2 for s in exps):
        return None
    level, value = facts.diag_digits
    if level == INFINITE or level > ctx.ram_level:
        return None
    level = int(level)
    b = value * ctx.p**level
    assert b.denominator == 1
    contained = weighted_membership(facts.power(int(b)), ctx, ctx.p**level)
    if not contained:
        raise InternalInconsistencyError(
            "diagonal_ramified: the digit formula promised "
            f"f^{int(b)} in (pi^{ctx.p**level}, x_i^{ctx.p**level}) but the "
            f"containment fails at term {contained.failure}"
        )
    exact = n == 2 or len(set(exps)) == 1

    def text():
        hyp = [
            f"pure-power diagonal with pi-slot, exponents {list(exps)}",
            f"n = {n} < p = {ctx.p}; digit level L = {level} <= ram_level = {ctx.ram_level}",
            f"containment f^{int(b)} in (pi^{ctx.p**level}, x_i^{ctx.p**level}) verified",
        ]
        if exact:
            hyp.append("n = 2 or equal exponents: the comparison is an equality")
        return hyp, []

    return RuleResult(
        rule_id="diagonal_ramified",
        statement="ramified diagonal comparison at digit level L",
        quote=(
            "ppt(pi^{s_1} + x_2^{s_2} + ...) equals the full diagonal fpt "
            "once ram_level >= L, for n = 2 or equal exponents"
            if exact else
            "ppt(pi^{s_1} + x_2^{s_2} + ...) <= fpt of the full diagonal "
            "once ram_level >= L"
        ),
        lower=Bound(value) if exact else None,
        upper=Bound(value),
        text=text,
    )


def rule_extremal_strict(facts: Facts) -> RuleResult | None:
    """Strict lower bound 1/p^e for extremal forms.

    Matches f = X^a Y^b + X^b Y^a + f' with {a, b} = {p^e + 1, 0} or
    {p^e, 1} over an unramified base, every monomial of f' lying in the
    e-th Frobenius power of (pi, all variables) and carrying either a
    positive pi-order or some third variable; then ppt(f) > 1/p^e.
    """
    f, ctx = facts.f, facts.ctx
    if ctx.ram_level != 0 or ctx.cyclotomic:
        return None
    p, n = ctx.p, ctx.n_vars
    max_deg = max((sum(e) for (_pi, e) in f.terms), default=0)
    best: tuple[int, int, int, tuple] | None = None
    e = 1
    while p**e + 1 <= max_deg:
        q = p**e
        for i in range(n):
            for j in range(i + 1, n):
                for pattern in (((q + 1, 0), (0, q + 1)), ((q, 1), (1, q))):
                    keys = []
                    for di, dj in pattern:
                        exp = [0] * n
                        exp[i], exp[j] = di, dj
                        keys.append((0, tuple(exp)))
                    if any(f.terms.get(k) != 1 for k in keys):
                        continue
                    ok = True
                    for key, c in f.terms.items():
                        if key in keys:
                            continue
                        pi, exps = key
                        others = sum(
                            exps[t] for t in range(n) if t not in (i, j)
                        )
                        order = ctx.pi_order(pi, c)
                        if order < 1 and others < 1:
                            ok = False
                            break
                        if not in_frobenius_power(order, exps, q):
                            ok = False
                            break
                    if ok and (best is None or e < best[0]):
                        best = (e, i, j, pattern)
        e += 1
    if best is None:
        return None
    e, i, j, pattern = best
    value = Rat(1, ctx.p**e)

    def text():
        a, b = pattern[0]
        name = f"{{X^{a}, Y^{a}}}" if b == 0 else f"{{X^{a} Y, X Y^{a}}}"
        return [
            f"pattern {name} on ({ctx.vars[i]}, {ctx.vars[j]}) with unit coefficients",
            "every remaining term lies in the e-th Frobenius power of (pi, all variables)",
            "every remaining term has positive pi-order or a third variable",
            f"strict lower bound 1/p^{e} = {format_rat(value)}",
        ], []

    return RuleResult(
        rule_id="extremal_strict",
        statement="strict lower bound via an extremal-form cofactor certificate",
        quote=(
            "ppt(f) > 1/p^e for f = X^a Y^b + X^b Y^a + f' with "
            "{a, b} = {p^e + 1, 0} or {p^e, 1} and f' in the e-th Frobenius "
            "power of (pi, X, Y, rest)"
        ),
        lower=Bound(value, strict=True),
        text=text,
    )


def rule_frobenius_diagonal_strict(facts: Facts) -> RuleResult | None:
    """Strict lower bound for p-power diagonals pi^{p^e} + sum x_i^{p^e}, p odd.

    At p = 2 the phenomenon reverses (x^2 + pi^2 has ppt exactly 1/2), so the
    rule abstains there.
    """
    ctx, diag = facts.ctx, facts.diag
    if ctx.ram_level != 0 or ctx.cyclotomic or ctx.p == 2:
        return None
    if diag is None or diag.pi_order is None or not diag.entries:
        return None
    if not diag.monic():
        return None
    q = diag.pi_order
    if q < ctx.p or any(s != q for s in diag.x_exponents()):
        return None
    e = padic_valuation(q, ctx.p)
    if ctx.p**e != q:
        return None
    value = Rat(1, q)
    return RuleResult(
        rule_id="frobenius_diagonal_strict",
        statement="strict excess over the residual threshold for p-power diagonals",
        quote="ppt(pi^{p^e} + x_2^{p^e} + ... + x_n^{p^e}) > 1/p^e for p > 2",
        lower=Bound(value, strict=True),
        text=lambda: ([
            f"f = pi^{q} + sum of {len(diag.entries)} distinct x^{q} with unit"
            " coefficients",
            f"p = {ctx.p} > 2 and the base is unramified",
            f"strict lower bound 1/p^{e} = {format_rat(value)}",
        ], []),
    )


def _match_elliptic(facts: Facts) -> tuple[str, int, int] | None:
    """Recognize pi^3 + X^3 + Y^3 or pi^3 + (unit X^2 Y + unit X Y^2); returns
    the family and the indices of X and Y."""
    f, ctx, diag = facts.f, facts.ctx, facts.diag
    if (
        diag is not None
        and diag.pi_order == 3
        and diag.pi_unit_one
        and diag.x_exponents() == (3, 3)
        and diag.monic()
        and len(diag.entries) == 2
    ):
        return "diag_cubic_p3", diag.entries[0][0], diag.entries[1][0]
    pi_keys = [k for k in f.terms if not any(k[1])]
    if len(pi_keys) != 1 or len(f.terms) != 3:
        return None
    if ctx.pi_order(pi_keys[0][0], f.terms[pi_keys[0]]) != 3:
        return None
    cross = [k for k in f.terms if k != pi_keys[0]]
    supports = set()
    for pi, exps in cross:
        if pi != 0:
            return None
        supp = tuple(i for i, e in enumerate(exps) if e)
        if len(supp) != 2 or sum(exps) != 3 or min(exps[i] for i in supp) != 1:
            return None
        if f.terms[(pi, exps)] % ctx.p == 0:
            return None
        supports.add(supp)
    if len(supports) != 1:
        return None
    ((i, j),) = supports
    if sorted(exps[i] for (_pi, exps) in cross) != [1, 2]:
        return None
    return "h_xy_linear", i, j


def rule_elliptic(facts: Facts) -> RuleResult | None:
    """Upper bound 1 - 1/p^2 for cones over plane cubics with p = 2 (mod 3).

    Applies to pi^3 + X^3 + Y^3 and to pi^3 + XY(uX + vY); the lower side is
    left to the residual and blow-up rules (for p > 2 whether 1 - 1/p is
    strict is an open question, recorded as a note).  The hypotheses name
    the matched form.
    """
    ctx = facts.ctx
    if ctx.ram_level != 0 or ctx.cyclotomic or ctx.p % 3 != 2:
        return None
    matched = _match_elliptic(facts)
    if matched is None:
        return None
    form, i, j = matched
    value = 1 - Rat(1, ctx.p**2)

    def text():
        x, y = ctx.vars[i], ctx.vars[j]
        if form == "diag_cubic_p3":
            shape = f"pi^3 + {x}^3 + {y}^3"
        else:
            shape = f"pi^3 + {x} {y} (u {x} + v {y})"
        notes = []
        if ctx.p > 2:
            notes.append(
                "open question: whether ppt strictly exceeds 1 - 1/p for this family"
            )
        return [
            f"p = {ctx.p} = 2 (mod 3), unramified base",
            f"matched family {form}: {shape}",
        ], notes

    return RuleResult(
        rule_id="elliptic",
        statement="cubic cone bound via the second Frobenius level",
        quote=(
            "ppt(f) <= 1 - 1/p^2 for the cone over a plane cubic of this shape "
            "when p = 2 (mod 3)"
        ),
        upper=Bound(value, strict=False),
        text=text,
    )


# --------------------------------------------------------------------------
# p-th roots modulo p^2 and modulo varpi^p.


def _cyclo_reduce(coeffs: list[int], p: int) -> list[int]:
    """Reduce an integer polynomial in t modulo Phi_p(t) = 1 + t + ... + t^{p-1}."""
    out = list(coeffs)
    for d in range(len(out) - 1, p - 2, -1):
        c = out[d]
        if c:
            out[d] = 0
            for k in range(d - (p - 1), d):
                out[k] -= c
    del out[p - 1 :]
    while len(out) < p - 1:
        out.append(0)
    return out


def _cyclo_pi_power(k: int, p: int) -> list[int]:
    """(t - 1)^k reduced modulo Phi_p(t)."""
    coeffs = [math.comb(k, j) * (-1) ** (k - j) for j in range(k + 1)]
    return _cyclo_reduce(coeffs, p)


def _in_varpi_pth(coeffs: list[int], p: int) -> bool:
    """Membership in (varpi^p) = (p varpi) inside Z[zeta_p].

    x lies in (p varpi) iff p divides every power-basis coordinate of x and
    the quotient x/p maps to 0 in the residue field Z[zeta_p]/(varpi) = F_p
    (evaluation at zeta_p -> 1).
    """
    if any(c % p for c in coeffs):
        return False
    return sum(c // p for c in coeffs) % p == 0


def pth_root_modulo(f: MixedPoly, ctx: RingContext) -> MixedPoly | None:
    """A witness h with h^p = f modulo the ring's modulus: p^2 over the
    unramified base, varpi^p over the cyclotomic base.

    These are the moduli of ``rule_pth_root_upper``'s two bounds.  The
    residue of any root is pinned down mod p (mod varpi) by the Frobenius on
    F_p, and h^p at these moduli depends only on that residue, so checking
    the single canonical lift (coefficients in [0, p-1]) decides existence.
    The root modulo p alone is ``pth_root_mod_fp(reduce_mod_pi(f))``.
    """
    return _lift_pth_root(f, reduce_mod_pi(f), ctx)


def _lift_pth_root(f: MixedPoly, g: SparsePolyFp, ctx: RingContext) -> MixedPoly | None:
    """:func:`pth_root_modulo` for f with residue g = f mod pi."""
    if ctx.ram_level != 0:
        raise ValueError("pth_root_modulo requires an unramified or cyclotomic base")
    p = ctx.p
    root_bar = pth_root_mod_fp(g)
    if root_bar is None:
        return None
    h = MixedPoly._of(p, 0, ctx.vars, {(0, e): c for e, c in root_bar.terms.items()})
    hp = pow_mixed(h, p)
    if not ctx.cyclotomic:
        for key in set(f.terms) | set(hp.terms):
            delta = f.terms.get(key, 0) - hp.terms.get(key, 0)
            pi, _ = key
            if delta and ctx.pi_order(pi, delta) < 2:
                return None
        return h
    by_monomial: dict[Exps, list[int]] = {}
    for (pi, exps), c in f.terms.items():
        acc = by_monomial.setdefault(exps, [0] * max(1, p - 1))
        for k, v in enumerate(_cyclo_pi_power(pi, p)):
            acc[k] += c * v
    for (pi, exps), c in hp.terms.items():
        assert pi == 0  # so the term is c * (t - 1)^0 = c
        by_monomial.setdefault(exps, [0] * max(1, p - 1))[0] -= c
    for coeffs in by_monomial.values():
        if not _in_varpi_pth(_cyclo_reduce(coeffs, p), p):
            return None
    return h


def rule_pth_root_upper(facts: Facts) -> RuleResult | None:
    """ppt <= 1 - 1/p when f is a p-th power mod p^2; <= 1/p mod varpi^p."""
    ctx = facts.ctx
    if ctx.ram_level != 0:
        return None
    p = ctx.p
    h = _lift_pth_root(facts.f, facts.residue, ctx)
    if h is None:
        return None
    if ctx.cyclotomic:
        value = Rat(1, p)
        modulus = "varpi^p over the p-cyclotomic base"
    else:
        value = 1 - Rat(1, p)
        modulus = "p^2 over the unramified base"
    return RuleResult(
        rule_id="pth_root_upper",
        statement="upper bound from a p-th root at the second infinitesimal level",
        quote=(
            "if f = h^p modulo p^2 then ppt(f) <= 1 - 1/p; "
            "if f = h^p modulo varpi^p cyclotomically then ppt(f) <= 1/p"
        ),
        upper=Bound(value, strict=False),
        text=lambda: ([f"witness h = {h} with f = h^{p} modulo {modulus}"], []),
    )


def known_values_registry(facts: Facts) -> RuleResult | None:
    """Curated exactly-known values for a few specific families."""
    ctx, diag = facts.ctx, facts.diag
    if ctx.cyclotomic or diag is None or not diag.monic():
        return None

    def result(value: Rat, shape: str, quote: str) -> RuleResult:
        return RuleResult(
            rule_id="known_values",
            statement="curated exact value for a registry family",
            quote=quote,
            lower=Bound(value),
            upper=Bound(value),
            text=lambda: ([f"matched registry shape {shape}"], []),
        )

    p = ctx.p
    if (
        diag.pi_order is None
        and diag.x_exponents() == (3, 3, 3)
        and len(diag.entries) == 3
        and p % 3 != 0
    ):
        if p % 3 == 1:
            return result(
                Rat(1),
                "x^3 + y^3 + z^3, p = 1 (mod 3)",
                "the diagonal cubic cone over the ordinary-type prime has ppt 1"
                " at every ramification level",
            )
        if ctx.ram_level == 0:
            return result(
                Rat(1),
                "x^3 + y^3 + z^3 over the unramified base, p = 2 (mod 3)",
                "the diagonal cubic cone is plus-pure up to 1 over the"
                " unramified base",
            )
        return result(
            1 - Rat(1, p),
            "x^3 + y^3 + z^3 over a base containing p^{1/p}, p = 2 (mod 3)",
            "after adjoining p^{1/p} the diagonal cubic cone has ppt 1 - 1/p",
        )
    if (
        p == 2
        and ctx.ram_level == 0
        and diag.pi_order == 2
        and diag.pi_unit_one
        and diag.x_exponents() == (2,)
    ):
        return result(
            Rat(1, 2),
            "x^2 + pi^2 over the 2-adic integers",
            "the 2-adic quadratic cone x^2 + 4 has ppt exactly 1/2",
        )
    return None


_THRESHOLD_CAP = RuleResult(
    rule_id="threshold_cap",
    statement="threshold bounded by one on the maximal ideal",
    quote="ppt(f) <= 1 for f in (pi, x_1, ..., x_n)",
    upper=Bound(Rat(1), strict=False),
    text=lambda: (["f lies in the maximal ideal"], []),
)


def rule_threshold_cap(facts: Facts) -> RuleResult:
    """ppt(f) <= 1 for f in the maximal ideal (always fires).  The result is
    the same for every input, so it is built once, at import."""
    return _THRESHOLD_CAP


# --------------------------------------------------------------------------
# Orchestration.


def _validate_input(f: MixedPoly, ctx: RingContext) -> None:
    if f.p != ctx.p or f.ram_level != ctx.ram_level or f.vars != ctx.vars:
        raise ValueError("polynomial and ring context disagree")
    if f.is_zero():
        raise ValueError("cannot certify the zero power series")
    for (pi, exps), c in f.terms.items():
        if not any(exps) and ctx.pi_order(pi, c) == 0:
            raise ValueError("f must lie in the maximal ideal (unit term found)")


def _cmp(a: Rat, b: Rat) -> int:
    """The sign of a - b, by cross-multiplying numerators and denominators.

    Fraction's own comparisons dispatch through the numeric ABCs and cost
    several times more; the bound intersections make a dozen per level.
    """
    x, y = a.numerator * b.denominator, b.numerator * a.denominator
    return (x > y) - (x < y)


def _excludes(lower: Rat, lower_strict: bool, upper: Rat, upper_strict: bool) -> bool:
    """Whether a lower and an upper bound on the same threshold contradict."""
    c = _cmp(lower, upper)
    return c > 0 or (c == 0 and (lower_strict or upper_strict))


def certify(f: MixedPoly, ctx: RingContext) -> BoundCertificate:
    """Run every applicable rule on f and intersect the certified bounds.

    Raises :class:`InternalInconsistencyError` when two rules exclude each
    other (max lower above min upper, or touching with a strict side) - the
    engine's cross-validation alarm.
    """
    _validate_input(f, ctx)
    results = _run_rules(analyze(f, ctx))
    bounds = _intersect(results)
    notes = [note for res in results for note in res.notes]
    if bounds.lower_strict and bounds.upper is not None:
        m = math.floor(ctx.p * bounds.lower)
        if m >= 1 and ctx.p * bounds.upper <= m + bounds.lower:
            notes.append(
                "p*ppt is not a jumping number: p*ppt lies in "
                f"({m}, {m} + ppt), an interval free of jumping numbers"
            )
    return BoundCertificate(*bounds, rules=results, notes=notes, poly=f, ctx=ctx)


def _run_rules(facts: Facts) -> list[RuleResult]:
    """The rule table on one analysed input: the results of the rules that fired."""
    # The table is built per call, so a rule replaced on the module (as the
    # benchmark's tracer and the tests do) is the one that runs.
    results: list[RuleResult] = []
    for rule in (
        known_values_registry,
        rule_fpt_lower,
        rule_blowup_diagonal,
        rule_extremal_strict,
        rule_frobenius_diagonal_strict,
        rule_elliptic,
        rule_pth_root_upper,
        rule_ramified_upper,
        rule_exact_ramified,
        rule_diagonal_ramified,
        rule_threshold_cap,
    ):
        res = rule(facts)
        if res is not None:
            results.append(res)
    return results


class Bounds(NamedTuple):
    """The intersection of the bounds that the rules certified on one input."""

    lower: Rat | None
    lower_strict: bool
    upper: Rat | None
    upper_strict: bool
    exact: Rat | None


def _intersect(results: list[RuleResult]) -> Bounds:
    """The max lower and the min upper bound of the results, in one scan.

    A side is strict when any bound at its extreme is.  Raises
    :class:`InternalInconsistencyError` when the two sides exclude each
    other, naming every rule with a bound at either extreme.
    """
    lower = upper = None
    lower_strict = upper_strict = False
    for res in results:
        if res.lower is not None:
            value = res.lower.value
            assert value.numerator > 0
            c = 1 if lower is None else _cmp(value, lower)
            if c > 0:
                lower, lower_strict = value, res.lower.strict
            elif c == 0:
                lower_strict = lower_strict or res.lower.strict
        if res.upper is not None:
            value = res.upper.value
            assert value.numerator > 0
            c = -1 if upper is None else _cmp(value, upper)
            if c < 0:
                upper, upper_strict = value, res.upper.strict
            elif c == 0:
                upper_strict = upper_strict or res.upper.strict
    if lower is None or upper is None:
        return Bounds(lower, lower_strict, upper, upper_strict, None)
    if _excludes(lower, lower_strict, upper, upper_strict):

        def rules_at(value: Rat, side: str) -> list[str]:
            return sorted({
                r.rule_id for r in results
                if getattr(r, side) is not None and getattr(r, side).value == value
            })

        raise InternalInconsistencyError(
            f"certified lower {format_rat(lower)}"
            f"{' (strict)' if lower_strict else ''} from {rules_at(lower, 'lower')} "
            f"excludes certified upper {format_rat(upper)}"
            f"{' (strict)' if upper_strict else ''} from {rules_at(upper, 'upper')}"
        )
    # Bounds that meet without excluding each other are both non-strict.
    exact = lower if _cmp(lower, upper) == 0 else None
    return Bounds(lower, lower_strict, upper, upper_strict, exact)


# --------------------------------------------------------------------------
# Limit profiles across ramification levels.


class ProfileStep(namedtuple("ProfileStep", "level lower lower_strict upper upper_strict exact")):
    """The bounds certified at one ramification level of a limit profile."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        step = super().__new__(cls, *args, **kwargs)
        _check_bounds(step)
        return step


class LimitProfile:
    """The bounds of each level of a limit profile, and their limit."""

    __slots__ = ("steps", "limit", "attained", "notes")

    def __init__(
        self, steps: list[ProfileStep], limit: Rat | None, attained: bool | None, notes: list[str]
    ) -> None:
        self.steps, self.limit, self.attained, self.notes = steps, limit, attained, notes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LimitProfile):
            return NotImplemented
        return (self.steps, self.limit, self.attained, self.notes) == (
            other.steps, other.limit, other.attained, other.notes
        )

    def to_json(self) -> str:
        """Compact JSON: the bounds at each level, the limit and the notes."""
        steps = ",".join(
            f'{{"ram_level":{s.level},"lower":{_rat(s.lower)},"upper":{_rat(s.upper)},'
            f'"exact":{_rat(s.exact)}}}'
            for s in self.steps
        )
        return (
            f'{{"steps":[{steps}],"limit":{_rat(self.limit)},'
            f'"attained":{_LITERAL[self.attained]},"notes":{_strings(self.notes)}}}'
        )


def relevel(f: MixedPoly, a: int) -> MixedPoly:
    """Re-express a level-0 polynomial at ramification level a.

    The same element of W(k)[[x]] has pi-exponents p^a times larger when
    written in units of the level-a uniformizer p^{1/p^a}.
    """
    if f.ram_level != 0:
        raise ValueError("relevel expects a polynomial written at level 0")
    if a < 0:
        raise ValueError(f"ram_level must be >= 0, got {a}")
    scale = f.p**a
    return MixedPoly._of(
        f.p, a, f.vars, {(pi * scale, exps): c for (pi, exps), c in f.terms.items()}
    )


def limit_profile(f: MixedPoly, e_max: int) -> LimitProfile:
    """Certified bounds for the same element viewed at ram levels 0..e_max.

    The best upper bounds form a nonincreasing sequence whose limit is the
    residual threshold fpt(f mod pi); the profile records, per level, the
    sharpest certified bounds, and notes when every finite level provably
    stays strictly above the limit (non-attainment).

    f is validated and analysed once, at level 0; each level's rules read
    :func:`relevel_facts` of that analysis.  Ramifying further is a free
    extension, so ppt can only fall with the level: a certified lower bound
    at one level that excludes a certified upper bound at a lower level
    raises :class:`InternalInconsistencyError`, like a contradiction within
    one level.
    """
    if e_max < 0:
        raise ValueError(f"e_max must be >= 0, got {e_max}")
    if f.ram_level != 0:
        raise ValueError("limit_profile expects a polynomial written at level 0")
    ctx = RingContext(f.p, f.vars)
    _validate_input(f, ctx)
    base = analyze(f, ctx)
    steps: list[ProfileStep] = []
    for a in range(e_max + 1):
        step = ProfileStep(a, *_intersect(_run_rules(relevel_facts(base, a))))
        for earlier in steps:
            if (
                step.lower is not None
                and earlier.upper is not None
                and _excludes(
                    step.lower, step.lower_strict, earlier.upper, earlier.upper_strict
                )
            ):
                raise InternalInconsistencyError(
                    f"certified lower {format_rat(step.lower)}"
                    f"{' (strict)' if step.lower_strict else ''} at ram level {a} "
                    f"excludes certified upper {format_rat(earlier.upper)}"
                    f"{' (strict)' if earlier.upper_strict else ''}"
                    f" at ram level {earlier.level}"
                )
        steps.append(step)
    limit = base.residue_fpt
    notes: list[str] = []
    attained: bool | None = None
    if limit is not None:
        attained = any(s.exact == limit for s in steps)
        if all(s.lower is not None and s.lower > limit for s in steps):
            notes.append(
                f"the limiting value {format_rat(limit)} is not attained at any "
                "profiled level: every certified lower bound stays strictly above it"
            )
    else:
        notes.append("limit not computed in closed form (reduction is not diagonal)")
    return LimitProfile(steps=steps, limit=limit, attained=attained, notes=notes)
