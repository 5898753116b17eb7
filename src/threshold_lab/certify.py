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
  modulo varpi^p (varpi = zeta_p - 1) over the p-cyclotomic base it forces
  ppt <= 1/p.  One test decides both: f - h^p, its pi-powers written as
  coordinates (varpi^k reduced to the basis 1, ..., varpi^{p-2}), has every
  coordinate of pi-order at least 2, respectively p.
* ``known_values_registry`` - a small curated table of exactly known values.

Each input is read once: :func:`analyze` checks f against its ring and, in
one scan of its terms in the order the certificate writes them, reads the
residue f mod pi, the pure-power diagonal and the base ring level into a
frozen :class:`Facts`.  The diagonal is one :class:`MixedDiagonal` record:
its pi-order, variable slots and x-exponents, whether it is monic, and the
full diagonal's digit level, fpt and lct.  The characteristic-p digit
kernel :func:`~.fpt.diagonal_digits` reads the residue's x-exponents for
its closed-form fpt and, with a pi-slot t, the blown-up diagonal with t as
one more exponent; the rules read the record's fields.  The residue's
oracle brackets and the containment powers f^b are read on demand, once
each.  Every rule takes that one argument and returns a
:class:`RuleResult` or None (abstention): its bounds at once, its hypotheses
and notes only when they are read.  :func:`_run_rules` runs the ten rules
above plus ``rule_threshold_cap`` (ppt <= 1, always) from a tuple built on
each call, so a rule replaced on the module is the one that runs;
:func:`_intersect` finds the max lower and the min upper bound in one scan,
and :func:`certify` builds its :class:`BoundCertificate` from that.
:func:`limit_profile` reads level 0 off the analysis of f, derives every
later level's :class:`Facts` with :func:`relevel_facts` (the level-0 f, the
diagonal record with its pi-order scaled and its digits walked again), and
keeps only each level's intersected bounds, so it renders no rule text.
The levels share f, the oracle brackets and the containment powers: each
f^b is expanded once, at level 0, and :func:`weighted_membership` reads it
at each level's scale.

Every certified bound is sound on its own, so the combined max-of-lowers /
min-of-uppers can only collide if the implementation is wrong; that collision
is surfaced as :class:`InternalInconsistencyError` and doubles as the
engine's cross-validation alarm.  A limit profile raises it across levels
too, since ppt can only fall as the base is ramified further.

The ring context and the ideal test the rules share live in :mod:`.poly`:
:class:`RingContext` (re-exported here) reads every effective pi-order
through ``RingContext.pi_order``, the p-th-root lift's included, and the
containments of ``rule_exact_ramified``, ``rule_diagonal_ramified`` and the
cofactor check of ``rule_extremal_strict`` all ask whether terms lie in the
Frobenius power (pi^q, x_1^q, ..., x_n^q).  Where fpt(f mod pi) has no
closed form, the rules read it from the Frobenius oracle at level
:data:`ORACLE_LEVEL`.

:meth:`BoundCertificate.to_json` and :meth:`LimitProfile.to_json` write the
JSON of ``certify --json`` and ``limit-profile --json`` as text, directly.
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from collections.abc import Callable, Iterable
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .digits import _valuation, padic_valuation
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
    diagonal_digits,
    fpt_diagonal,
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

# Level e of the Frobenius oracle bracket (nu_e/p^e, (nu_e+1)/p^e] used when
# fpt(f mod pi) has no closed form.  The bracket is open at the lower end,
# but the rules still read that end as a non-strict bound (ROADMAP.md,
# "Read the oracle exactly", makes it strict).
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
        assert _cmp(b.lower, b.exact) == 0 == _cmp(b.upper, b.exact)
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
        "lower", "lower_strict", "upper", "upper_strict", "exact", "rules", "notes", "poly", "ctx",
        "terms",
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
        terms: list[tuple[tuple[int, Exps], int]],
    ) -> None:
        # terms is poly.sorted_terms(), the order the JSON writes; certify
        # passes the list its analysis sorted.
        self.lower, self.lower_strict, self.upper = lower, lower_strict, upper
        self.upper_strict, self.exact, self.rules = upper_strict, exact, rules
        self.notes, self.poly, self.ctx, self.terms = notes, poly, ctx, terms
        _check_bounds(self)

    def to_json(self) -> str:
        """Compact JSON: the input and its ring, the bounds, rules and notes."""
        f, ctx = self.poly, self.ctx
        terms = ",".join(
            f'{{"pi":{pi},"exps":[{",".join(map(str, e))}],"coeff":"{c}"}}'
            for (pi, e), c in self.terms
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
    """The pure-power diagonal f = u_0 pi^t + sum_i u_i x_{j_i}^{s_i}, read once.

    ``pi_order`` is the effective pi-order t of the pi-pure term (None when f
    has no such term); ``monic`` says whether every unit u is 1; ``slots``
    are the variable indices j_i and ``xs`` the exponents s_i, in term order;
    ``digits`` is the digit level L, fpt and lct of the full diagonal, the
    pi-order t read as one more exponent (Hernandez's digit formula), or
    None when some exponent is 1.
    """

    pi_order: int | None
    monic: bool
    slots: tuple[int, ...]
    xs: tuple[int, ...]
    digits: tuple[int | float, Rat, Rat] | None

    def exponents(self) -> tuple[int, ...]:
        return self.xs if self.pi_order is None else (self.pi_order, *self.xs)


class Facts(namedtuple("Facts", "f ctx residue residue_fpt diag base_level")):
    """The analysis of one input that every rule reads, made once by :func:`analyze`.

    ``residue`` is f mod pi and ``residue_fpt`` its closed-form fpt (None
    when the residue is zero or has no closed form); ``diag`` is the
    :class:`MixedDiagonal` record of f, its digit reading included, or None;
    ``base_level`` is the least c with f defined over W(k)[p^{1/p^c}] inside
    the level-a tower.

    ``f`` is f as written.  On a level from :func:`relevel_facts` that is
    the level-0 f, read in ``ctx`` through the canonical inclusion; there
    only the containments read its terms, and :func:`weighted_membership`
    scales them.

    ``terms`` is f's terms in :meth:`MixedPoly.sorted_terms` order, as the
    analysis read them.  ``brackets`` memoizes :meth:`bracket` and
    ``powers`` memoizes :meth:`power`.  None of these holds a fact of its
    own, so they live in the instance dict, outside the tuple that equality
    reads, and the levels of one limit profile share them: their f and
    their residue are the same.
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
        terms: list[tuple[tuple[int, Exps], int]] | None = None,
    ):
        facts = super().__new__(cls, f, ctx, residue, residue_fpt, diag, base_level)
        facts.brackets = {} if brackets is None else brackets
        facts.powers = {} if powers is None else powers
        facts.terms = terms
        return facts

    def power(self, b: int) -> MixedPoly:
        """f^b, expanded once per b.  Like f, it is read in ``ctx`` through
        the canonical inclusion: relevel is a ring map, so
        relevel(f, a)^b = relevel(f^b, a), coefficients included."""
        fb = self.powers.get(b)
        if fb is None:
            fb = self.powers[b] = pow_mixed(self.f, b)
        return fb

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
    """Check f against its ring and analyse it once for all rules.

    One scan of f's terms in graded-lex order checks that f lies in the
    maximal ideal and reads the residue f mod pi, the pure-power diagonal
    match and the base ring level.  The match allows one pi-pure term, its
    p-content folded into the effective pi-order (27 at p = 3, a = 0 counts
    as pi^3), and single-variable pure powers with coefficients prime to p
    in distinct variables.  A term lives at level c exactly when p^{a-c}
    divides its pi-exponent (p = pi^{p^a} never obstructs), so the base
    ring level is a - min(a, v_p(gcd of the positive pi-exponents)).

    The residue's closed-form fpt covers a single monomial (min_i 1/e_i)
    and a diagonal (1 with a linear term, else the digit formula).  For a
    pure-power diagonal pi^t + x_1^{s_1} + ... the digit walk reads the
    residue as the diagonal of the s_i and the full diagonal as the one
    with t as one more exponent; the :class:`MixedDiagonal` record keeps
    the full diagonal's level, fpt and lct with its exponents and its monic
    flag.  Without a pi-slot one walk serves both.
    """
    if f.p != ctx.p or f.ram_level != ctx.ram_level or f.vars != ctx.vars:
        raise ValueError("polynomial and ring context disagree")
    if f.is_zero():
        raise ValueError("cannot certify the zero power series")
    p, terms = ctx.p, f.sorted_terms()
    residue: dict[Exps, int] = {}
    found: dict[int, int] = {}  # x-exponent by variable index, in term order
    pi_order: int | None = None
    monic = True  # every unit of the diagonal's terms is 1
    shaped = True  # no second pi-pure term, no x-term with pi or p in it
    split = True  # the residue's terms are pure powers of distinct variables
    pis = 0  # the gcd of the positive pi-exponents
    for (pi, exps), c in terms:
        if pi:
            pis = math.gcd(pis, pi)
        support = [i for i, e in enumerate(exps) if e]
        if not support:
            order = ctx.pi_order(pi, c)
            if order == 0:
                raise ValueError("f must lie in the maximal ideal (unit term found)")
            shaped = shaped and pi_order is None
            pi_order = order
            # The unit part is 1 exactly when c = p^v, v = v_p(c).
            monic = monic and c == p ** ((order - pi) // ctx.pi_multiplier)
            continue
        unit = c % p
        if pi or not unit:
            shaped = False
            continue
        residue[exps] = unit
        if len(support) == 1 and support[0] not in found:
            found[support[0]] = exps[support[0]]
            monic = monic and c == 1
        else:
            split = False
    a = ctx.ram_level
    base_level = a - min(a, _valuation(pis, p)) if pis and a else 0
    diag = digits = residue_fpt = None
    xs = tuple(found.values())
    if shaped and split:
        if 1 in xs:
            residue_fpt = Rat(1)
        else:
            if xs:
                digits = diagonal_digits(p, xs)
                residue_fpt = digits[1]
            if pi_order is not None:
                digits = diagonal_digits(p, (*xs, pi_order)) if pi_order > 1 else None
        diag = MixedDiagonal(pi_order, monic, tuple(found), xs, digits)
    elif len(residue) == 1:
        residue_fpt = Rat(1, max(next(iter(residue))))
    elif split and residue:
        residue_fpt = Rat(1) if 1 in xs else fpt_diagonal(p, xs)
    residue = SparsePolyFp._of(p, f.vars, residue)
    return Facts(f, ctx, residue, residue_fpt, diag, base_level, terms=terms)


def relevel_facts(facts: Facts, a: int) -> Facts:
    """The analysis of f at ramification level a, derived from its level-0
    analysis; it equals ``analyze(relevel(f, a), ctx_a)`` in every field
    but f, which stays the level-0 f, read in the level's ring through the
    canonical inclusion.

    Scaling every pi-exponent by p^a leaves all of it unchanged except the
    diagonal's pi-order, which scales with it: the residue keeps the terms of
    pi-exponent 0 (so its closed-form fpt is the same), the diagonal match
    reads each term's shape and the unit part of its pi-term (so the slots,
    the x-exponents and the monic flag are the same), and every positive
    pi-exponent of relevel(f, a) is divisible by p^a, so the base ring level
    is 0.  The level's :class:`MixedDiagonal` is the level-0 record with the
    scaled pi-order t p^a and the digits of the diagonal (*xs, t p^a); the
    residue's walk is not repeated.  f and the residue being the same, the
    derived facts share the oracle brackets and the powers of f with
    ``facts``, so each f^b is expanded once across the levels.
    """
    ctx = facts.ctx
    if ctx.ram_level != 0 or ctx.cyclotomic:
        raise ValueError("relevel_facts expects the analysis of a level-0 polynomial")
    diag = facts.diag
    if a and diag is not None and diag.pi_order is not None:
        t = diag.pi_order * ctx.p**a
        digits = None if 1 in diag.xs else diagonal_digits(ctx.p, (*diag.xs, t))
        diag = diag._replace(pi_order=t, digits=digits)
    return Facts(
        f=facts.f,
        ctx=ctx._replace(ram_level=a),
        residue=facts.residue,
        residue_fpt=facts.residue_fpt,
        diag=diag,
        base_level=0,
        brackets=facts.brackets,
        powers=facts.powers,
        terms=facts.terms,
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
    digits = diag.digits
    linear = digits is None
    if linear:
        lower = lct = Rat(1)
    else:
        _level, lower, lct = digits

    def text():
        if linear:
            shape = "a linear slot makes the blown-up diagonal regular"
        else:
            shape = f"blown-up diagonal exponents {list(diag.exponents())}"
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
        if diag is None or not diag.monic:
            return None
        b = q.numerator  # q = b/p^e, by the loop above
        if not weighted_membership(facts.power(b), ctx, ctx.p**e):
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
                f"f^{b} lies termwise in (pi^{ctx.p**e}, x_i^{ctx.p**e}) and "
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
    if ctx.cyclotomic or diag is None or diag.pi_order is None or not diag.xs or not diag.monic:
        return None
    n = len(diag.xs) + 1
    if n >= ctx.p or diag.digits is None:  # None: some exponent is 1
        return None
    level, value, _lct = diag.digits
    if level == INFINITE or level > ctx.ram_level:
        return None
    level = int(level)
    b, r = divmod(value.numerator * ctx.p**level, value.denominator)
    assert r == 0
    contained = weighted_membership(facts.power(b), ctx, ctx.p**level)
    if not contained:
        raise InternalInconsistencyError(
            "diagonal_ramified: the digit formula promised "
            f"f^{b} in (pi^{ctx.p**level}, x_i^{ctx.p**level}) but the "
            f"containment fails at term {contained.failure}"
        )
    exps = diag.exponents()
    exact = n == 2 or len(set(exps)) == 1

    def text():
        hyp = [
            f"pure-power diagonal with pi-slot, exponents {list(exps)}",
            f"n = {n} < p = {ctx.p}; digit level L = {level} <= ram_level = {ctx.ram_level}",
            f"containment f^{b} in (pi^{ctx.p**level}, x_i^{ctx.p**level}) verified",
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
    # One scan of the pi-free terms with coefficient 1 and degree q + 1 > p reads
    # the candidates: x_i^(q+1) (pattern 0), x_i^q x_j with x_i x_j^q (pattern 1).
    pure: dict[int, list[int]] = {}
    cross: defaultdict[tuple[int, int, int], int] = defaultdict(int)
    for (pi, exps), c in f.terms.items():
        if pi or c != 1 or sum(exps) <= p:
            continue
        support = [t for t, s in enumerate(exps) if s]
        if len(support) == 1:
            pure.setdefault(exps[support[0]] - 1, []).append(support[0])
        elif len(support) == 2 and 1 in (exps[support[0]], exps[support[1]]):
            i, j = support
            cross[exps[i] + exps[j] - 1, i, j] += 1
    candidates = [(q, i, j, 0) for q, vs in pure.items() for i, j in combinations(sorted(vs), 2)]
    candidates += [(q, i, j, 1) for (q, i, j), seen in cross.items() if seen == 2]
    for q, i, j, k in sorted(candidates):  # the least (e, i, j, pattern) that passes
        e = _valuation(q, p) if q >= p else 0
        if e == 0 or p**e != q:
            continue
        pattern = (((q + 1, 0), (0, q + 1)), ((q, 1), (1, q)))[k]
        keys = []
        for di, dj in pattern:
            exp = [0] * n
            exp[i], exp[j] = di, dj
            keys.append((0, tuple(exp)))
        for key, c in f.terms.items():
            if key in keys:
                continue
            pi, exps = key
            order = ctx.pi_order(pi, c)
            if order < 1 and sum(exps) - exps[i] - exps[j] < 1:
                break
            if not in_frobenius_power(order, exps, q):
                break
        else:
            break
    else:
        return None
    value = Rat(1, q)

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
    if diag is None or diag.pi_order is None or not diag.xs or not diag.monic:
        return None
    q = diag.pi_order
    if q < ctx.p or any(s != q for s in diag.xs):
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
            f"f = pi^{q} + sum of {len(diag.xs)} distinct x^{q} with unit"
            " coefficients",
            f"p = {ctx.p} > 2 and the base is unramified",
            f"strict lower bound 1/p^{e} = {format_rat(value)}",
        ], []),
    )


def _match_elliptic(facts: Facts) -> tuple[str, int, int] | None:
    """Recognize pi^3 + X^3 + Y^3 or pi^3 + (unit X^2 Y + unit X Y^2); returns
    the family and the indices of X and Y."""
    f, ctx, diag = facts.f, facts.ctx, facts.diag
    if diag is not None and diag.pi_order == 3 and diag.xs == (3, 3) and diag.monic:
        return "diag_cubic_p3", *diag.slots
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


def _pi_coords(k: int, ctx: RingContext) -> list[tuple[int, int]]:
    """pi^k as coordinates (j, v), so that pi^k = sum of v * pi^j.

    In the root tower each pi^k is its own coordinate.  Over the cyclotomic
    base varpi^k is written in the basis 1, varpi, ..., varpi^{p-2} by the
    Eisenstein relation varpi^{p-1} = -sum_{j<p-1} C(p, j+1) varpi^j.
    """
    p = ctx.p
    if not ctx.cyclotomic or k < p - 1:
        return [(k, 1)]
    coords = [0] * (p - 2) + [1]  # varpi^{p-2}
    for _ in range(k - (p - 2)):
        top = coords.pop()
        coords = [c - math.comb(p, j + 1) * top for j, c in enumerate([0, *coords])]
    return [(j, v) for j, v in enumerate(coords) if v]


def pth_root_modulo(f: MixedPoly, ctx: RingContext) -> MixedPoly | None:
    """A witness h with h^p = f modulo the ring's modulus: p^2 over the
    unramified base, varpi^p over the cyclotomic base.

    These are the moduli of ``rule_pth_root_upper``'s two bounds.  The
    residue of any root is pinned down mod p (mod varpi) by the Frobenius on
    F_p, and h^p at these moduli depends only on that residue, so checking
    the single canonical lift (coefficients in [0, p-1]) decides existence.
    One test serves both bases: every coordinate of f - h^p (see
    :func:`_lift_pth_root`) must have ``RingContext.pi_order`` at least 2
    over the unramified base, at least p over the cyclotomic one.  The root
    modulo p alone is ``pth_root_mod_fp(reduce_mod_pi(f))``.
    """
    return _lift_pth_root(f, reduce_mod_pi(f), ctx)


def _lift_pth_root(f: MixedPoly, g: SparsePolyFp, ctx: RingContext) -> MixedPoly | None:
    """:func:`pth_root_modulo` for f with residue g = f mod pi.

    Each term c * pi^k * x^E of f - h^p adds c * v to the coordinate (j, E)
    for each (j, v) of :func:`_pi_coords`, and h is a root when every nonzero
    coordinate has pi-order at least m (pi^m = p^2, or varpi^m = varpi^p).
    Over the cyclotomic base this is exact: distinct j < p - 1 give distinct
    orders j + (p - 1) * v_p(c), so a sum's order is its least coordinate's.
    In the root tower each key (k, E) is its own coordinate, so there the
    test reads f as it is spelled.
    """
    if ctx.ram_level != 0:
        raise ValueError("pth_root_modulo requires an unramified or cyclotomic base")
    p = ctx.p
    root_bar = pth_root_mod_fp(g)
    if root_bar is None:
        return None
    # h^p has no pi-terms, so a unit pi^1 term of f leaves f - h^p at pi-order 1;
    # cyclotomically nothing cancels it when p > 2 (integers have valuation 0, p - 1, ...).
    if (p > 2 or not ctx.cyclotomic) and any(pi == 1 and c % p for (pi, _e), c in f.terms.items()):
        return None
    h = hp = MixedPoly._of(p, 0, ctx.vars, {(0, e): c for e, c in root_bar.terms.items()})
    for _ in range(p - 1):
        hp = hp * h
    coords = {key: -c for key, c in hp.terms.items()}
    for (k, exps), c in f.terms.items():
        for j, v in _pi_coords(k, ctx):
            key = (j, exps)
            coords[key] = coords.get(key, 0) + c * v
    m = p if ctx.cyclotomic else 2
    if any(c and ctx.pi_order(j, c) < m for (j, _e), c in coords.items()):
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
    if ctx.cyclotomic or diag is None or not diag.monic:
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
    if diag.pi_order is None and diag.xs == (3, 3, 3) and p % 3 != 0:
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
    if p == 2 and ctx.ram_level == 0 and diag.pi_order == 2 and diag.xs == (2,):
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
    facts = analyze(f, ctx)
    results = _run_rules(facts)
    bounds = _intersect(results)
    notes = [note for res in results for note in res.notes]
    if bounds.lower_strict and bounds.upper is not None:
        m = math.floor(ctx.p * bounds.lower)
        if m >= 1 and ctx.p * bounds.upper <= m + bounds.lower:
            notes.append(
                "p*ppt is not a jumping number: p*ppt lies in "
                f"({m}, {m} + ppt), an interval free of jumping numbers"
            )
    return BoundCertificate(
        *bounds, rules=results, notes=notes, poly=f, ctx=ctx, terms=facts.terms
    )


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

    A side is strict when any bound at its extreme is; bounds compare by
    integer cross-products, each read once (see :func:`_cmp`).  Raises
    :class:`InternalInconsistencyError` when the two sides exclude each
    other, naming every rule with a bound at either extreme.
    """
    lower = upper = None
    lower_strict = upper_strict = False
    ln = ld = un = ud = 0
    for res in results:
        if (bound := res.lower) is not None:
            n, d = bound.value.numerator, bound.value.denominator
            assert n > 0
            if lower is None or n * ld > ln * d:
                lower, lower_strict, ln, ld = bound.value, bound.strict, n, d
            elif n * ld == ln * d:
                lower_strict = lower_strict or bound.strict
        if (bound := res.upper) is not None:
            n, d = bound.value.numerator, bound.value.denominator
            assert n > 0
            if upper is None or n * ud < un * d:
                upper, upper_strict, un, ud = bound.value, bound.strict, n, d
            elif n * ud == un * d:
                upper_strict = upper_strict or bound.strict
    if lower is None or upper is None:
        return Bounds(lower, lower_strict, upper, upper_strict, None)
    c = ln * ud - un * ld
    if c > 0 or (c == 0 and (lower_strict or upper_strict)):

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
    exact = lower if c == 0 else None
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


class LimitProfile(NamedTuple):
    """The bounds of each level of a limit profile, and their limit."""

    steps: list[ProfileStep]
    limit: Rat | None
    attained: bool | None
    notes: list[str]

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

    Each step intersects the bounds its level's rules certify, as
    :func:`certify` does, and carries none to the next level: p^3 + p^2 x at
    p = 5 has upper bound 4/5 at level 0 (``rule_pth_root_upper``) and 1 at
    level 1.  ``limit`` is the closed-form residual threshold fpt(f mod pi),
    which ppt tends to as the base is ramified; a note says when every
    level's lower bound stays strictly above it (non-attainment).

    f is validated and analysed once, at level 0; the later levels' rules
    read :func:`relevel_facts` of that analysis.
    Ramifying further is a free extension, so ppt can only fall with the
    level: a certified lower bound at one level that excludes a certified
    upper bound at a lower level raises :class:`InternalInconsistencyError`,
    like a contradiction within one level.  It is enough to test each lower
    bound against the least earlier upper bound (on a tie the strict one,
    else the earliest), which the alarm names.
    """
    if e_max < 0:
        raise ValueError(f"e_max must be >= 0, got {e_max}")
    if f.ram_level != 0:
        raise ValueError("limit_profile expects a polynomial written at level 0")
    base = analyze(f, RingContext(f.p, f.vars))
    steps: list[ProfileStep] = []
    least: ProfileStep | None = None  # the earlier step with the least upper bound
    for a in range(e_max + 1):
        step = ProfileStep(a, *_intersect(_run_rules(relevel_facts(base, a) if a else base)))
        if step.lower is not None and least is not None and _excludes(
            step.lower, step.lower_strict, least.upper, least.upper_strict
        ):
            raise InternalInconsistencyError(
                f"certified lower {format_rat(step.lower)}"
                f"{' (strict)' if step.lower_strict else ''} at ram level {a} "
                f"excludes certified upper {format_rat(least.upper)}"
                f"{' (strict)' if least.upper_strict else ''}"
                f" at ram level {least.level}"
            )
        if step.upper is not None and (
            least is None
            or (_cmp(step.upper, least.upper), least.upper_strict) < (0, step.upper_strict)
        ):
            least = step
        steps.append(step)
    limit = base.residue_fpt
    notes: list[str] = []
    attained: bool | None = None
    if limit is not None:
        attained = any(s.exact is not None and _cmp(s.exact, limit) == 0 for s in steps)
        if all(s.lower is not None and _cmp(s.lower, limit) > 0 for s in steps):
            notes.append(
                f"the limiting value {format_rat(limit)} is not attained at any "
                "profiled level: every certified lower bound stays strictly above it"
            )
    elif base.residue.is_zero():
        notes.append("limit not computed: the residue f mod pi is zero")
    else:
        notes.append("limit not computed in closed form (reduction is not diagonal)")
    return LimitProfile(steps=steps, limit=limit, attained=attained, notes=notes)
