"""Command-line front end: expression parsing, subcommands, JSON output.

The polynomial grammar is deliberately small and integer-only::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := uint | ident | '(' expr ')'

The reserved identifier ``p`` denotes the uniformizer pi of the base ring;
with ``--ram A`` the exponent is read in units of p^{1/p^A}, so "p^3" at
--ram 1, prime 5 means 5^{3/5}.  All other identifiers must be variables of
the ring context (the CLI infers them from the source in order of first
appearance).  Fractional exponents are rejected rather than parsed.

A source is validated once: it is tokenized and parsed in full (so a syntax
error anywhere wins over an unknown variable), then :func:`lower_expr`
evaluates the tree into one term dict {(pi, E): c} and hands it to the
validating ``MixedPoly`` constructor.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .certify import (
    ELLIPTIC_FAMILIES,
    InternalInconsistencyError,
    RingContext,
    certify,
    limit_profile,
)
from .digits import kummer_valuation, lucas_residue, magic_expansions
from .exact import expand_base_p, format_rat
from .fpt import fpt_diagonal, oracle_bracket
from .poly import MixedPoly, pow_mixed, reduce_mod_pi
from .verify import SUITES, run_suite


class PolySyntaxError(ValueError):
    """Malformed polynomial source; carries the byte offset of the defect."""

    def __init__(self, offset: int, message: str) -> None:
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


# --------------------------------------------------------------------------
# Tokenizer and recursive-descent parser.

# '/' is tokenized but accepted nowhere, so "x^(1/2)" reaches the dedicated
# fractional-exponent error instead of dying at the character level.
_OPERATORS = set("+-*^()/")
# str.isdigit also accepts "²" and "٣", which int() rejects or reads as 3.
_DIGITS = set("0123456789")


class Token(NamedTuple):
    kind: str  # "uint" | "ident" | one of + - * ^ ( ) | "end"
    text: str
    offset: int  # UTF-8 byte offset into the source


def _byte_offsets(src: str) -> list[int]:
    """The UTF-8 byte offset of each character index of src, and of len(src).

    Undecodable argv bytes arrive as lone surrogates; surrogateescape counts
    each as the one byte it stands for.
    """
    sizes = (len(c.encode("utf-8", "surrogateescape")) for c in src)
    return list(accumulate(sizes, initial=0))


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    at = _byte_offsets(src)
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
        elif c in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            tokens.append(Token("uint", src[i:j], at[i]))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalpha() or src[j] in _DIGITS or src[j] == "_"):
                j += 1
            tokens.append(Token("ident", src[i:j], at[i]))
            i = j
        elif c in _OPERATORS:
            tokens.append(Token(c, c, at[i]))
            i += 1
        else:
            raise PolySyntaxError(at[i], f"unexpected character {c!r}")
    tokens.append(Token("end", "", at[n]))
    return tokens


# Abstract syntax, lowered by :func:`lower_expr`.  A parse builds one node per
# operand and operator, so nodes (like tokens) are plain named tuples.


class IntLit(NamedTuple):
    value: int


class VarRef(NamedTuple):
    name: str  # "p" refers to the uniformizer


class Sum(NamedTuple):
    parts: tuple[tuple[int, PolyExpr], ...]  # (+1 or -1, operand)


class Product(NamedTuple):
    factors: tuple[PolyExpr, ...]


class Power(NamedTuple):
    base: PolyExpr
    exponent: int


PolyExpr = IntLit | VarRef | Sum | Product | Power


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> PolyExpr:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise PolySyntaxError(tok.offset, f"unexpected {tok.text!r}")
        return expr

    def expr(self) -> PolyExpr:
        parts = [(1, self.term())]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            parts.append((sign, self.term()))
        if len(parts) == 1:
            return parts[0][1]
        return Sum(tuple(parts))

    def term(self) -> PolyExpr:
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def factor(self) -> PolyExpr:
        base = self.base()
        if self.peek().kind != "^":
            return base
        self.advance()
        tok = self.peek()
        if tok.kind == "uint":
            self.advance()
            return Power(base, int(tok.text))
        if tok.kind == "(":
            raise PolySyntaxError(
                tok.offset, "fractional or compound exponents are not allowed"
            )
        if tok.kind == "-":
            raise PolySyntaxError(tok.offset, "negative exponents are not allowed")
        raise PolySyntaxError(tok.offset, "expected an unsigned integer exponent")

    def base(self) -> PolyExpr:
        tok = self.advance()
        if tok.kind == "uint":
            return IntLit(int(tok.text))
        if tok.kind == "ident":
            return VarRef(tok.text)
        if tok.kind == "(":
            inner = self.expr()
            closing = self.advance()
            if closing.kind != ")":
                raise PolySyntaxError(closing.offset, "expected ')'")
            return inner
        raise PolySyntaxError(tok.offset, f"expected a term, found {tok.text or 'end of input'!r}")


def infer_variables(src: str) -> tuple[str, ...]:
    """Identifiers of src except the uniformizer, in order of first appearance."""
    seen: list[str] = []
    for tok in tokenize(src):
        if tok.kind == "ident" and tok.text != "p" and tok.text not in seen:
            seen.append(tok.text)
    return tuple(seen)


def lower_expr(expr: PolyExpr, ctx: RingContext) -> MixedPoly:
    """Evaluate an AST into a MixedPoly over the given ring context.

    Each node evaluates to one term dict {(pi, E): c} without zero
    coefficients: sums accumulate signed coefficients, products go through
    ``MixedPoly.__mul__`` and powers through ``pow_mixed``.  Every key is valid by construction, so only
    the final dict goes through the validating ``MixedPoly`` constructor.
    """
    p, ram_level, vars = ctx.p, ctx.ram_level, ctx.vars
    zero_exps = (0,) * len(vars)
    keys = {
        name: (0, zero_exps[:i] + (1,) + zero_exps[i + 1:]) for i, name in enumerate(vars)
    }
    keys["p"] = (1, zero_exps)

    def poly(terms: dict) -> MixedPoly:
        return MixedPoly._of(p, ram_level, vars, terms)

    def go(node: PolyExpr) -> dict:
        kind = type(node)
        if kind is VarRef:
            key = keys.get(node.name)
            if key is None:
                raise ValueError(
                    f"unknown variable {node.name!r}; declared variables are"
                    f" {', '.join(vars)}"
                )
            return {key: 1}
        if kind is IntLit:
            return {(0, zero_exps): node.value} if node.value else {}
        if kind is Power:
            return pow_mixed(poly(go(node.base)), node.exponent).terms
        if kind is Product:
            acc = go(node.factors[0])
            for factor in node.factors[1:]:
                acc = (poly(acc) * poly(go(factor))).terms
            return acc
        if kind is Sum:
            acc = {}
            for sign, part in node.parts:
                for key, c in go(part).items():
                    acc[key] = acc.get(key, 0) + sign * c
            return {key: c for key, c in acc.items() if c}
        raise TypeError(f"unhandled node {node!r}")

    return MixedPoly(p, ram_level, vars, go(expr))


def parse_poly(src: str, ctx: RingContext) -> MixedPoly:
    """Parse src against the grammar and lower it over ctx."""
    if not src.strip():
        raise PolySyntaxError(0, "empty polynomial source")
    return lower_expr(_Parser(tokenize(src)).parse(), ctx)


def format_poly_src(f: MixedPoly) -> str:
    """Render f as re-parseable source (round-trips through parse_poly)."""
    if f.is_zero():
        return "0"
    chunks: list[tuple[int, str]] = []
    for (pi, exps), c in f.sorted_terms():
        factors: list[str] = []
        if abs(c) != 1:
            factors.append(str(abs(c)))
        if pi:
            factors.append("p" if pi == 1 else f"p^{pi}")
        for name, e in zip(f.vars, exps):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            factors.append(str(abs(c)))
        chunks.append((1 if c > 0 else -1, "*".join(factors)))
    sign0, body0 = chunks[0]
    out = body0 if sign0 > 0 else f"0 - {body0}"
    for sign, body in chunks[1:]:
        out += f" {'+' if sign > 0 else '-'} {body}"
    return out


# --------------------------------------------------------------------------
# Subcommand implementations.


def _context_for(src: str, prime: int, ram: int, cyclotomic: bool = False) -> RingContext:
    vars = infer_variables(src) or ("x",)
    return RingContext(prime, vars, ram_level=ram, cyclotomic=cyclotomic)


def _cmd_fpt_diagonal(args: argparse.Namespace) -> int:
    exps = tuple(int(s) for s in args.exponents.split(","))
    print(format_rat(fpt_diagonal(args.prime, exps)))
    return 0


def _cmd_fpt_search(args: argparse.Namespace) -> int:
    ctx = _context_for(args.poly, args.prime, 0)
    f = reduce_mod_pi(parse_poly(args.poly, ctx))
    if f.is_zero():
        raise ValueError("the reduction mod p is zero; no Frobenius search possible")
    bracket = oracle_bracket(f, args.level)
    if args.json:
        doc = {
            "p": args.prime,
            "level": args.level,
            "nu": bracket.nu,
            "lower": format_rat(bracket.lower),
            "upper": format_rat(bracket.upper),
        }
        print(json.dumps(doc, separators=(",", ":")))
    else:
        print(f"nu_{args.level} = {bracket.nu}")
        print(f"lower = {format_rat(bracket.lower)}")
        print(f"upper = {format_rat(bracket.upper)}")
    return 0


def _cmd_padic(args: argparse.Namespace) -> int:
    if args.padic_cmd == "expand":
        exp = expand_base_p(Fraction(args.value), args.prime)
        print(f"preperiod = {list(exp.preperiod)}")
        print(f"period = {list(exp.period)}")
        if args.digits:
            print(f"digits = {[exp.digit_at(e) for e in range(1, args.digits + 1)]}")
    elif args.padic_cmd == "kummer":
        print(kummer_valuation(args.n, args.m, args.prime))
    elif args.padic_cmd == "lucas":
        print(lucas_residue(args.n, args.m, args.prime))
    else:
        first, second = magic_expansions(args.prime)
        print(first)
        print(second)
    return 0


def _print_certificate(cert) -> None:
    if cert.lower is None:
        print("lower = none")
    else:
        print(f"lower = {format_rat(cert.lower)}{' (strict)' if cert.lower_strict else ''}")
    if cert.upper is None:
        print("upper = none")
    else:
        print(f"upper = {format_rat(cert.upper)}{' (strict)' if cert.upper_strict else ''}")
    print(f"exact = {'none' if cert.exact is None else format_rat(cert.exact)}")
    print(f"rules = {', '.join(r.rule_id for r in cert.rules)}")
    for note in cert.notes:
        print(f"note: {note}")


def _cmd_certify(args: argparse.Namespace) -> int:
    ctx = _context_for(args.poly, args.prime, args.ram, args.cyclotomic)
    f = parse_poly(args.poly, ctx)
    cert = certify(f, ctx, family=args.family)
    if args.json:
        print(cert.to_json())
    else:
        _print_certificate(cert)
    if args.require_bound:
        abstained = (
            cert.exact is None
            and cert.lower is None
            and (cert.upper is None or cert.upper == 1)
        )
        if abstained:
            return 1
    return 0


def _cmd_limit_profile(args: argparse.Namespace) -> int:
    ctx = _context_for(args.poly, args.prime, 0)
    f = parse_poly(args.poly, ctx)
    profile = limit_profile(f, args.max_level)
    if args.json:
        print(profile.to_json())
        return 0
    for step in profile.steps:
        lo = "none" if step.lower is None else format_rat(step.lower)
        hi = "none" if step.upper is None else format_rat(step.upper)
        tag = " [exact]" if step.exact is not None else ""
        print(f"a={step.level}: lower = {lo}, upper = {hi}{tag}")
    print(f"limit = {'unknown' if profile.limit is None else format_rat(profile.limit)}")
    for note in profile.notes:
        print(f"note: {note}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    ok, lines = run_suite(args.suite, prime_max=args.prime_max)
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshold-lab",
        description="Exact F-pure and plus-pure threshold computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fpt-diagonal", help="fpt of a diagonal hypersurface")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--exponents", required=True, help="comma-separated, e.g. 3,3,3")
    sp.set_defaults(func=_cmd_fpt_diagonal)

    sp = sub.add_parser("fpt-search", help="Frobenius oracle bracket at a fixed level")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_fpt_search)

    sp = sub.add_parser("padic", help="base-p digit utilities")
    psub = sp.add_subparsers(dest="padic_cmd", required=True)
    pe = psub.add_parser("expand", help="non-terminating base-p expansion")
    pe.add_argument("--value", required=True, help="rational in (0, 1], e.g. 1/6")
    pe.add_argument("--prime", type=int, required=True)
    pe.add_argument("--digits", type=int, default=0, help="also print the first K digits")
    pk = psub.add_parser("kummer", help="v_p of a binomial coefficient")
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--m", type=int, required=True)
    pk.add_argument("--prime", type=int, required=True)
    pl = psub.add_parser("lucas", help="binomial coefficient modulo p")
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--m", type=int, required=True)
    pl.add_argument("--prime", type=int, required=True)
    pm = psub.add_parser("magic", help="the paired digit expansions for p = 2 mod 3")
    pm.add_argument("--prime", type=int, required=True)
    sp.set_defaults(func=_cmd_padic)

    sp = sub.add_parser("certify", help="certified ppt bounds for a mixed polynomial")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--ram", type=int, default=0, help="ramification level a")
    sp.add_argument("--cyclotomic", action="store_true")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--family", choices=ELLIPTIC_FAMILIES)
    sp.add_argument("--json", action="store_true")
    sp.add_argument(
        "--require-bound",
        action="store_true",
        help="exit 1 when no nontrivial bound could be certified",
    )
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("limit-profile", help="bounds across ramification levels 0..E")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--max-level", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_limit_profile)

    sp = sub.add_parser("verify", help="run a property suite")
    sp.add_argument("--suite", choices=sorted(SUITES), required=True)
    sp.add_argument("--prime-max", type=int, default=None)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        return args.func(args)
    except InternalInconsistencyError as ex:
        print(f"internal inconsistency: {ex}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
