"""Sparse multivariate polynomials over F_p and over ramified p-adic models.

Two term-level representations, the ring context of the second, and one ideal
test:

* :class:`SparsePolyFp` - polynomials over the prime field, coefficients
  normalized to {1, ..., p-1}: a validated term container with no
  arithmetic of its own, read by the Frobenius-power oracle.
* :class:`MixedPoly` - polynomials over Z with an extra uniformizer symbol pi,
  modelling W[pi]/(pi^{p^a} = p) with ramification level ``ram_level = a``.
  The pi-exponent of a term is an integer counted in units of p^{-a}.

:class:`RingContext` names the base ring a :class:`MixedPoly` is read over: the
root tower W(k)[p^{1/p^a}] or the p-cyclotomic base W(k)[zeta_p].  It owns the
one definition of the *effective* pi-order of a term c * pi^k * x^E,
``RingContext.pi_order`` = k + m * v_p(c), where m is the pi-order of p itself
(p^a in the tower, p - 1 cyclotomically).  :func:`weighted_membership` tests
f termwise against the Frobenius power (pi^q, x_1^q, ..., x_n^q), the only
ideal the certification rules ask about.

The public constructors check the prime, the variable names and every
exponent vector, and over F_p reduce coefficients mod p; a
:class:`RingContext` checks its prime and its variable names.  Arithmetic
results (:meth:`MixedPoly.__mul__`, :func:`pow_mixed`, :func:`reduce_mod_pi`,
:func:`pth_root_mod_fp`) are valid by construction and go through the private
``_of`` constructor, which checks nothing.  So does the parser in
:mod:`.cli`: it reads a source in a ring context that is already checked and
forms every term key itself.

Coefficients of :class:`MixedPoly` are exact integers and are never reduced;
all soundness arguments downstream rely on termwise effective pi-orders, so no
information may be lost here.  :meth:`MixedPoly.sorted_terms` gives the one
term order that output reads, descending graded-lexicographic with pi
treated as the leading variable; a certificate writes its input's terms in
that order, coefficients as decimal strings.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add
from typing import NamedTuple

from .digits import _valuation
# padic_valuation is not called here; it stays a module attribute because
# bench/run.py times it by wrapping poly.padic_valuation.
from .digits import padic_valuation  # noqa: F401
from .exact import require_prime

Exps = tuple[int, ...]


def _check_vars(vars: tuple[str, ...]) -> tuple[str, ...]:
    if len(set(vars)) != len(vars):
        raise ValueError(f"duplicate variable names in {vars}")
    return tuple(vars)


def _check_exps(exps: Exps, n: int) -> Exps:
    exps = tuple(exps)
    if len(exps) != n or any(e < 0 or not isinstance(e, int) for e in exps):
        raise ValueError(f"bad exponent vector {exps} for {n} variables")
    return exps


def _grlex_key(exps: Exps) -> tuple:
    return (sum(exps), exps)


class SparsePolyFp:
    """A polynomial over F_p with coefficients stored in {1, ..., p-1}."""

    __slots__ = ("p", "vars", "terms")

    def __init__(self, p: int, vars: tuple[str, ...], terms: dict[Exps, int]):
        require_prime(p)
        self.p = p
        self.vars = _check_vars(tuple(vars))
        clean: dict[Exps, int] = {}
        for exps, c in terms.items():
            exps = _check_exps(exps, len(self.vars))
            clean[exps] = (clean.get(exps, 0) + c) % p
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def _of(cls, p: int, vars: tuple[str, ...], terms: dict[Exps, int]) -> SparsePolyFp:
        """Wrap terms that are valid by construction: exponent tuples of the
        ring's length, coefficients in {1, ..., p-1}.  Nothing is checked."""
        f = object.__new__(cls)
        f.p, f.vars, f.terms = p, vars, terms
        return f

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Exps, int]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparsePolyFp)
            and self.p == other.p
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.p, self.vars, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [str(c)] if (c != 1 or not any(exps)) else []
            for name, k in zip(self.vars, exps):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


def pth_root_mod_fp(f: SparsePolyFp) -> SparsePolyFp | None:
    """The unique h over F_p with h^p = f, or None when f is not a p-th power.

    Over F_p the Frobenius is x -> x^p on coefficients (the identity) and
    multiplies exponents by p, so f has a p-th root exactly when every
    exponent in every term is divisible by p.
    """
    root: dict[Exps, int] = {}
    for exps, c in f.terms.items():
        if any(e % f.p for e in exps):
            return None
        root[tuple(e // f.p for e in exps)] = c
    return SparsePolyFp._of(f.p, f.vars, root)


class RingContext(namedtuple("RingContext", "p vars ram_level cyclotomic")):
    """The ambient ring V[[x_1..x_n]] with V = W(k)[p^{1/p^a}] (a = ram_level).

    With ``cyclotomic`` set, V is instead W(k)[zeta_p] with uniformizer
    varpi = zeta_p - 1, so varpi^{p-1} is p up to a unit; this flag and
    ram_level > 0 are mutually exclusive.
    """

    __slots__ = ()

    def __new__(
        cls, p: int, vars: tuple[str, ...], ram_level: int = 0, cyclotomic: bool = False
    ):
        require_prime(p)
        if not vars:
            raise ValueError("at least one x-variable is required")
        # The parser builds polynomials on these names without a check.
        vars = _check_vars(vars)
        if ram_level < 0:
            raise ValueError(f"ram_level must be >= 0, got {ram_level}")
        if cyclotomic and ram_level > 0:
            raise ValueError("cyclotomic base and ram_level > 0 are mutually exclusive")
        return super().__new__(cls, p, vars, ram_level, cyclotomic)

    @property
    def n_vars(self) -> int:
        return len(self.vars)

    @property
    def pi_multiplier(self) -> int:
        """Pi-order of p itself: p^a in the root tower, p - 1 cyclotomically."""
        return (self.p - 1) if self.cyclotomic else self.p**self.ram_level

    def pi_order(self, pi: int, c: int) -> int:
        """Effective pi-order of a term c * pi^pi * x^E with c != 0; v_p(c) is
        read without checking p again, as the context checked it when made."""
        if c % self.p:
            return pi
        return pi + self.pi_multiplier * _valuation(c, self.p)


class MixedPoly:
    """Integer-coefficient polynomial in pi and x_1..x_n over W[pi]/(pi^{p^a} = p)."""

    __slots__ = ("p", "ram_level", "vars", "terms")

    def __init__(
        self,
        p: int,
        ram_level: int,
        vars: tuple[str, ...],
        terms: dict[tuple[int, Exps], int],
    ):
        require_prime(p)
        if ram_level < 0:
            raise ValueError(f"ram_level must be >= 0, got {ram_level}")
        self.p = p
        self.ram_level = ram_level
        self.vars = _check_vars(tuple(vars))
        clean: dict[tuple[int, Exps], int] = {}
        for (pi, exps), c in terms.items():
            if pi < 0:
                raise ValueError(f"pi-exponent must be >= 0, got {pi}")
            exps = _check_exps(exps, len(self.vars))
            if c:
                key = (pi, exps)
                clean[key] = clean.get(key, 0) + c
        self.terms = {k: c for k, c in clean.items() if c}

    @classmethod
    def _of(
        cls,
        p: int,
        ram_level: int,
        vars: tuple[str, ...],
        terms: dict[tuple[int, Exps], int],
    ) -> MixedPoly:
        """Wrap terms that are valid by construction: keys (pi, E) with pi >= 0
        and E a tuple of the ring's length, no zero coefficients.  Nothing is
        checked, so only arithmetic on already validated polynomials (and the
        parser's lowering) builds through here."""
        f = object.__new__(cls)
        f.p, f.ram_level, f.vars, f.terms = p, ram_level, vars, terms
        return f

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, Exps], int]]:
        return sorted(
            self.terms.items(),
            key=lambda t: (t[0][0] + sum(t[0][1]), t[0][0], t[0][1]),
            reverse=True,
        )

    def _same_ring(self, other: MixedPoly) -> None:
        if (
            self.p != other.p
            or self.ram_level != other.ram_level
            or self.vars != other.vars
        ):
            raise ValueError("polynomials live in different rings")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MixedPoly)
            and self.p == other.p
            and self.ram_level == other.ram_level
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(
            (self.p, self.ram_level, self.vars, frozenset(self.terms.items()))
        )

    def __mul__(self, other: MixedPoly) -> MixedPoly:
        self._same_ring(other)
        out: dict[tuple[int, Exps], int] = {}
        get = out.get
        right = list(other.terms.items())
        for (p1, e1), c1 in self.terms.items():
            for (p2, e2), c2 in right:
                k = (p1 + p2, tuple(map(add, e1, e2)))
                out[k] = get(k, 0) + c1 * c2
        terms = {k: c for k, c in out.items() if c}
        return MixedPoly._of(self.p, self.ram_level, self.vars, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (pi, exps), c in self.sorted_terms():
            factors = []
            if c != 1 or (pi == 0 and not any(exps)):
                factors.append(str(c))
            if pi == 1:
                factors.append("pi")
            elif pi > 1:
                factors.append(f"pi^{pi}")
            for name, k in zip(self.vars, exps):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


def pow_mixed(f: MixedPoly, n: int) -> MixedPoly:
    """f^n with exact integer coefficients (no reduction), by binary powering.

    Its callers are the parser, on multi-term bases only (it scales a power
    of one term itself), the containment checks and the p-th-root lift.
    """
    if n < 0:
        raise ValueError("negative power")
    out = MixedPoly._of(f.p, f.ram_level, f.vars, {(0, (0,) * len(f.vars)): 1})
    base = f
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def reduce_mod_pi(f: MixedPoly) -> SparsePolyFp:
    """The residue of f in F_p[x]: keep terms of effective pi-order zero, mod p."""
    out: dict[Exps, int] = {}
    for (pi, exps), c in f.terms.items():
        if pi == 0 and c % f.p:
            out[exps] = c % f.p
    return SparsePolyFp._of(f.p, f.vars, out)


def in_frobenius_power(order: int, exps: Exps, q: int) -> bool:
    """Whether a term of effective pi-order ``order`` and x-exponents ``exps``
    lies in the Frobenius power (pi^q, x_1^q, ..., x_n^q)."""
    return order >= q or max(exps) >= q


class MembershipResult(NamedTuple):
    """Outcome of a termwise ideal-membership test.

    When containment fails, ``failure`` is the key of the first term (in
    graded-lex order) outside the ideal.  Termwise membership is sufficient
    but not necessary for membership, which is the safe direction for upper
    bounds.
    """

    contained: bool
    failure: tuple[int, Exps] | None

    def __bool__(self) -> bool:
        return self.contained


def weighted_membership(f: MixedPoly, ctx: RingContext, q: int) -> MembershipResult:
    """Test whether every term of f lies in (pi^q, x_1^q, ..., x_n^q)."""
    if f.p != ctx.p or f.ram_level != ctx.ram_level or f.vars != ctx.vars:
        raise ValueError("polynomial and ring context disagree")
    for (pi, exps), c in f.sorted_terms():
        if not in_frobenius_power(ctx.pi_order(pi, c), exps, q):
            return MembershipResult(False, (pi, exps))
    return MembershipResult(True, None)
