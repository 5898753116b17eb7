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
appearance); :func:`parse_poly` and :func:`format_poly_src` refuse a
variable named "p".  Fractional exponents are rejected rather than parsed.

A source is read in three steps.  :func:`tokenize` scans it once with one
regular expression and rejects any character outside the grammar's
alphabet.  :func:`_check_syntax` then checks the tokens against the grammar
in one scan that counts open parentheses, and refuses a digit run past
MAX_LITERAL_DIGITS and a group nested past MAX_NESTING as it passes them, so
a syntax error anywhere wins over an unknown variable and over a budget, and
an earlier one over a budget.  Last, one recursive descent lowers the
checked tokens as it reads them, with no syntax tree: each term is
multiplied up in place as a coefficient, pi-exponent and exponent vector,
and only a parenthesized group becomes a term dict {(pi, E): c}, multiplied
through ``MixedPoly.__mul__`` and raised to a power n by n - 1 products by
itself, within the budgets of products, powers and coefficients.  The dict
of the whole sum is wrapped with ``MixedPoly._of``: every key is valid by
construction, and the ring context has already checked the prime and the
variable names.  The commands read a source through :func:`parse_source`,
which takes the variables and the polynomial off one tokenize.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, filterfalse, repeat
from math import comb
from operator import add, mul
from typing import TYPE_CHECKING

from .certify import InternalInconsistencyError, RingContext, certify, limit_profile
from .digits import kummer_valuation, lucas_residue, magic_expansions
from .exact import MAX_EXPANSION_DIGITS, expand_base_p, format_rat
from .fpt import fpt_diagonal, oracle_bracket
from .poly import MixedPoly, _monomial, reduce_mod_pi
from .verify import SUITES, run_suite

if TYPE_CHECKING:
    import argparse


class PolySyntaxError(ValueError):
    """Malformed polynomial source; carries the byte offset of the defect."""

    def __init__(self, offset: int, message: str) -> None:
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


# --------------------------------------------------------------------------
# Tokenizer, syntax check and lowering.

# One findall scan reads every token: an operator, a run of ASCII digits, an
# identifier (a letter or "_", then letters, "_" and ASCII digits) or any
# other single character, a stray.  The operators, the most common tokens,
# are tried first.  Whitespace matches none of the four, so the scan steps
# over it, and the pattern has no groups, so findall returns the token texts
# themselves.  \w also matches the non-ASCII digits and numerals ("²", "٣")
# that str.isdigit and str.isnumeric accept but int() rejects or misreads; no
# such character belongs to the alphabet, so tokenize rejects them with the
# other strays.
_TOKEN = re.compile(r"[-+*^()/]|[0-9]+|[^\W\d]\w*|\S")
# '/' is tokenized but accepted nowhere, so "x^(1/2)" reaches the dedicated
# fractional-exponent error instead of dying at the character level.
_OPERATORS = frozenset("+-*^()/")
_ALPHABET = _OPERATORS | frozenset("0123456789_")
# Deleting these from the token texts of a source leaves its letters.
_NON_LETTERS = str.maketrans("", "", "".join(_ALPHABET))
# Token texts that are not variables: the operators, the end token's "" and
# the uniformizer.
_NOT_VARIABLES = (*_OPERATORS, "", "p")


def _utf8(text: str) -> bytes:
    # Undecodable argv bytes arrive as lone surrogates; surrogateescape turns
    # each back into the one byte it stands for.
    return text.encode("utf-8", "surrogateescape")


class Tokens:
    """The tokens of one source, closed by an end token whose text is "".

    The syntax check and the lowering read ``texts``: a token's kind follows
    from its text.  The UTF-8 byte offsets are found again from the source
    when first read, by a syntax error.
    """

    def __init__(self, src: str, texts: list[str]) -> None:
        self.src = src
        self.texts = texts
        texts.append("")

    @cached_property
    def offsets(self) -> list[int]:
        """The UTF-8 byte offset of each token, the end token's included."""
        src = self.src
        starts = [m.start() for m in _TOKEN.finditer(src)]
        starts.append(len(src))
        return list(accumulate(len(_utf8(src[i:j])) for i, j in zip([0, *starts], starts)))


def _first_stray(src: str) -> int:
    """The index of the first character of src that is not whitespace, a
    letter, an ASCII digit, "_" or an operator."""
    classes = zip(map(str.isspace, src), map(str.isalpha, src), map(_ALPHABET.__contains__, src))
    return list(map(any, classes)).index(False)


def tokenize(src: str) -> Tokens:
    """The tokens of src; a character outside the alphabet raises
    PolySyntaxError at its UTF-8 byte offset."""
    tokens = Tokens(src, _TOKEN.findall(src))
    letters = "".join(tokens.texts).translate(_NON_LETTERS)
    if letters and not letters.isalpha():
        i = _first_stray(src)
        raise PolySyntaxError(len(_utf8(src[:i])), f"unexpected character {src[i]!r}")
    return tokens


def _variables(tokens: Tokens) -> tuple[str, ...]:
    names = dict.fromkeys(filterfalse(str.isdigit, tokens.texts))
    for text in _NOT_VARIABLES:
        names.pop(text, None)
    return tuple(names)


def infer_variables(src: str) -> tuple[str, ...]:
    """Identifiers of src except the uniformizer, in order of first appearance."""
    return _variables(tokenize(src))


# The most term products that expanding one power in a source may take, as
# bounded by power_products, or one product of factors.  A power over it is
# refused before anything is expanded.  The largest powers admitted, such as
# (x + y + z)^99 at 499,947 products and (x + y)^706 at 499,140, parse in
# 0.6-0.9 s (median of 5, one core of a 2-core x86-64 host, CPython 3.11).
MAX_POWER_PRODUCTS = 500_000

# The largest coefficient in a source: 14,000 bits are at most 4,215 decimal
# digits, within the 4,300 that CPython prints, so every output mode can.
MAX_COEFFICIENT_BITS = 14_000
# The digits of 2^MAX_COEFFICIENT_BITS - 1: the syntax check refuses a longer
# digit run, coefficient or exponent, before int() would meet CPython's limit.
MAX_LITERAL_DIGITS = 4_215


# The deepest nesting of parentheses in a source.  The lowering recurses once
# per open group, and CPython stops a recursion at 1,000 frames by default,
# the caller's frames included; 200 leaves most of that room to the caller,
# and CPython's own parser stops at the same depth.
MAX_NESTING = 200


def _literal_too_long(digits: int, where: str) -> ValueError:
    return ValueError(
        f"a {digits}-digit literal is longer than {MAX_LITERAL_DIGITS} digits"
        f" ({MAX_COEFFICIENT_BITS} bits), the budget of a literal in {where}"
    )


def _check_literals(text: str, where: str) -> None:
    """Refuse a digit run of text longer than MAX_LITERAL_DIGITS before int()
    or Fraction() reads it.  Underscores between digits do not split a run:
    int() reads them, and Fraction() does from Python 3.11 on."""
    digits = max(map(len, re.findall(r"\d+", text.replace("_", ""))), default=0)
    if digits > MAX_LITERAL_DIGITS:
        raise _literal_too_long(digits, where)


# Fraction()'s decimal form, underscores removed: digits with an optional
# point, then an optional exponent.
_DECIMAL = re.compile(r"\s*[-+]?(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?\s*")


def _read_value(text: str) -> Fraction:
    """--value as a Fraction.  A digit run, or a numerator or denominator
    that a decimal point and an exponent make, of more than
    MAX_LITERAL_DIGITS digits is refused before Fraction() builds it."""
    _check_literals(text, "--value")
    if m := _DECIMAL.fullmatch(text.replace("_", "")):
        whole, frac, exp = m[1], m[2] or "", int(m[3] or 0)
        digits = max(len(whole + frac) + max(exp, 0), len(frac) + max(-exp, 0) + 1)
        if digits > MAX_LITERAL_DIGITS:
            raise _literal_too_long(digits, "--value")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("--value has a zero denominator") from None


def power_products(terms: int, n: int) -> int:
    """The term products of f^n formed as n - 1 products by f, where f has
    `terms` terms: f^k has at most C(k + t - 1, t - 1) terms (the monomials
    of degree k in the t terms of f), so at most t * (C(n + t - 1, t) - 1)
    in all, and exactly that many when the terms are distinct variables.
    Past MAX_POWER_PRODUCTS it may return t * (n - 1), a lower bound, found
    before any binomial of a huge n is computed.
    """
    if terms * (n - 1) > MAX_POWER_PRODUCTS:
        return terms * (n - 1)
    return terms * (comb(n + terms - 1, terms) - 1) if n else 0


def _max_bits(terms: dict) -> int:
    return max(map(int.bit_length, terms.values()), default=0)


def _coefficient_budget(what: str) -> ValueError:
    return ValueError(
        f"{what} has more than {MAX_COEFFICIENT_BITS} bits, the budget of a"
        " coefficient in a source"
    )


_SIGNS = {"+": 1, "-": -1}
_INFIX = frozenset("+-*")
# The message for a token after "^" that is not an exponent, by its text.
_EXPONENT_ERRORS = {
    "(": "fractional or compound exponents are not allowed",
    "-": "negative exponents are not allowed",
}


def _check_syntax(tokens: Tokens) -> None:
    """Check tokens against the grammar in one scan that counts open groups.
    Each step reads the "(" that open groups, an operand and its power, the
    ")" that close groups, each with its power, and an operator or the end.
    The scan raises the PolySyntaxError of the first token out of place, and
    refuses a digit run past MAX_LITERAL_DIGITS, or a group nested past
    MAX_NESTING, where it reads one."""
    texts = tokens.texts
    if len(texts) == 1:
        raise PolySyntaxError(0, "empty polynomial source")
    depth = pos = 0
    while True:
        while (text := texts[pos]) == "(":
            depth += 1
            pos += 1
        if depth > MAX_NESTING:
            raise ValueError(
                f"parentheses nested {depth} deep are past {MAX_NESTING}, the budget"
                " of nesting in a source"
            )
        if not text or text in _OPERATORS:
            message = f"expected a term, found {text or 'end of input'!r}"
            raise PolySyntaxError(tokens.offsets[pos], message)
        if len(text) > MAX_LITERAL_DIGITS and text.isdigit():
            raise _literal_too_long(len(text), "a source")
        while True:
            pos += 1
            if (text := texts[pos]) == "^":
                pos += 1
                text = texts[pos]
                if not text.isdigit():
                    message = _EXPONENT_ERRORS.get(text, "expected an unsigned integer exponent")
                    raise PolySyntaxError(tokens.offsets[pos], message)
                if len(text) > MAX_LITERAL_DIGITS:
                    raise _literal_too_long(len(text), "a source")
                pos += 1
                text = texts[pos]
            if text != ")" or not depth:
                break
            depth -= 1
        if text in _INFIX:
            pos += 1
        elif text or depth:
            message = "expected ')'" if depth else f"unexpected {text!r}"
            raise PolySyntaxError(tokens.offsets[pos], message)
        else:
            return


def _check_power_bits(bits: int, n: int) -> None:
    """Refuse c^n for a `bits`-bit c when (bits - 1) * n, its fewest bits, is past the budget."""
    if (bits - 1) * n > MAX_COEFFICIENT_BITS:
        raise _coefficient_budget(f"a {bits}-bit coefficient^{n}")


def _wrap(ctx: RingContext, terms: dict) -> MixedPoly:
    return MixedPoly._of(ctx.p, ctx.ram_level, ctx.vars, terms)


def _times(ctx: RingContext, acc: dict, terms: dict, products: int) -> tuple[dict, int]:
    """acc * terms, within the budgets, after `products` term products."""
    products += len(acc) * len(terms)
    if products > MAX_POWER_PRODUCTS:
        raise ValueError(
            f"a product of factors may take more than {MAX_POWER_PRODUCTS}"
            " term products, the budget of one product in a source"
        )
    acc = (_wrap(ctx, acc) * _wrap(ctx, terms)).terms
    if _max_bits(acc) > MAX_COEFFICIENT_BITS:
        raise _coefficient_budget("a coefficient")
    return acc, products


def _power(ctx: RingContext, terms: dict, n: int) -> dict:
    _check_power_bits(_max_bits(terms), n)
    if len(terms) == 1:
        ((pi, exps), c), = terms.items()
        return {(pi * n, tuple(map(mul, exps, repeat(n)))): c**n}
    if not n:
        return {(0, (0,) * len(ctx.vars)): 1}
    if power_products(len(terms), n) > MAX_POWER_PRODUCTS:
        raise ValueError(
            f"expanding a {len(terms)}-term polynomial to the power {n} may"
            f" take more than {MAX_POWER_PRODUCTS} term products, the"
            " budget of one power in a source"
        )
    f = out = _wrap(ctx, terms)
    for _ in range(n - 1 if terms else 0):  # a zero group stays zero
        out = out * f
    return out.terms


def _lower_sum(read, ctx: RingContext, slots: dict, zero_exps: list) -> dict:
    """The terms of the sum that read() returns the tokens of, through the
    ")" or end token that closes it.  slots maps each variable to its place
    in an exponent vector, and "p" to -1."""
    terms: dict = {}
    get = terms.get
    sign = 1
    while True:
        # The term is c * pi^pi * x^exps (c = 0 for zero) until a group of
        # more terms makes it the dict acc; c * pi^pi * x^exps is then each
        # further factor.
        c, pi, exps = 1, 0, zero_exps.copy()
        acc, products, first = None, 0, True
        op = "*"
        while op == "*":
            text = read()
            if text == "(":
                f = _lower_sum(read, ctx, slots, zero_exps)
                op = read()
                if op == "^":
                    f, op = _power(ctx, f, int(read())), read()
                if acc is not None or len(f) > 1:
                    if acc is None and not first:
                        acc = {(pi, tuple(exps)): c} if c else {}
                    acc, products = (f, 0) if acc is None else _times(ctx, acc, f, products)
                    c, pi, exps, first = 1, 0, zero_exps.copy(), False
                    continue
                k = 0
                if f:
                    ((fpi, fexps), k), = f.items()
                    pi, exps = pi + fpi, list(map(add, exps, fexps))
            else:
                op, n = read(), 1
                if op == "^":
                    n, op = int(read()), read()
                if (slot := slots.get(text)) is not None:
                    if slot < 0:
                        pi += n
                    else:
                        exps[slot] += n
                    k = 1
                elif text.isdigit():
                    k = int(text)
                    if n != 1:
                        _check_power_bits(k.bit_length(), n)
                        k **= n
                else:
                    raise ValueError(
                        f"unknown variable {text!r}; declared variables are"
                        f" {', '.join(ctx.vars)}"
                    )
            c *= k
            if acc is not None:
                acc, products = _times(ctx, acc, {(pi, tuple(exps)): c} if c else {}, products)
                c, pi, exps = 1, 0, zero_exps.copy()
            elif not first and c.bit_length() > MAX_COEFFICIENT_BITS:
                raise _coefficient_budget("a coefficient")
            first = False
        if acc is None:
            if c:
                key = (pi, tuple(exps))
                terms[key] = get(key, 0) + sign * c
        else:
            for key, c in acc.items():
                terms[key] = get(key, 0) + sign * c
        if op not in _SIGNS:
            return {key: c for key, c in terms.items() if c}
        sign = _SIGNS[op]


def _parse_tokens(tokens: Tokens, ctx: RingContext) -> MixedPoly:
    """Check the syntax of tokens, then lower them over ctx in one recursive
    descent that evaluates as it reads.  A multiplication with a group of
    more terms is charged len(acc) * len(factor) term products, and a power
    of one power_products(terms, n), against MAX_POWER_PRODUCTS; every
    multiplication after a term's first factor, and the sum, are checked
    against MAX_COEFFICIENT_BITS.  Each factor is lowered, then multiplied
    in, left to right, so errors come in the order of the work."""
    _check_syntax(tokens)
    slots = dict(zip(ctx.vars, range(len(ctx.vars))))
    slots["p"] = -1
    terms = _lower_sum(iter(tokens.texts).__next__, ctx, slots, [0] * len(ctx.vars))
    if _max_bits(terms) > MAX_COEFFICIENT_BITS:
        raise _coefficient_budget("a coefficient")
    return _wrap(ctx, terms)


_P_VARIABLE = "a variable cannot be named 'p': the name is reserved for the uniformizer"


def parse_poly(src: str, ctx: RingContext) -> MixedPoly:
    """Parse src against the grammar and lower it over ctx, whose variables
    may not include "p"."""
    if "p" in ctx.vars:
        raise ValueError(_P_VARIABLE)
    return _parse_tokens(tokenize(src), ctx)


def parse_source(
    src: str, prime: int, ram: int = 0, cyclotomic: bool = False
) -> tuple[RingContext, MixedPoly]:
    """The ring context a command reads src in, and the polynomial, from one
    tokenize: the variables are the identifiers of src other than the
    uniformizer, in order of first appearance, or ("x",) when there are none."""
    tokens = tokenize(src)
    ctx = RingContext(prime, _variables(tokens) or ("x",), ram_level=ram, cyclotomic=cyclotomic)
    return ctx, _parse_tokens(tokens, ctx)


def format_poly_src(f: MixedPoly) -> str:
    """Render f as re-parseable source (round-trips through parse_poly), for
    variables other than "p"."""
    if "p" in f.vars:
        raise ValueError(_P_VARIABLE)
    if f.is_zero():
        return "0"
    names = ("p", *f.vars)
    chunks: list[tuple[int, str]] = []
    for (pi, exps), c in f.sorted_terms():
        factors = _monomial(names, (pi, *exps))
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        chunks.append((1 if c > 0 else -1, "*".join(factors)))
    sign0, body0 = chunks[0]
    out = body0 if sign0 > 0 else f"0 - {body0}"
    for sign, body in chunks[1:]:
        out += f" {'+' if sign > 0 else '-'} {body}"
    return out


# --------------------------------------------------------------------------
# Subcommand implementations.


def _cmd_fpt_diagonal(args: argparse.Namespace) -> int:
    _check_literals(args.exponents, "--exponents")
    exps = tuple(int(s) for s in args.exponents.split(","))
    print(format_rat(fpt_diagonal(args.prime, exps)))
    return 0


def _cmd_fpt_search(args: argparse.Namespace) -> int:
    f = reduce_mod_pi(parse_source(args.poly, args.prime)[1])
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
        if not 0 <= args.digits <= MAX_EXPANSION_DIGITS:
            raise ValueError(
                f"--digits {args.digits} is outside 0..{MAX_EXPANSION_DIGITS},"
                f" the digit budget of {MAX_EXPANSION_DIGITS}"
            )
        exp = expand_base_p(_read_value(args.value), args.prime)
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


def _check_ram(p: int, a: int, option: str = "--ram") -> None:
    """Refuse a level a, given as `option`, whose p^a is longer than
    MAX_COEFFICIENT_BITS: the rules write powers p^e, e <= a, into their
    text.  p^a has more than a * (bits(p) - 1) bits, so a huge a is refused
    from bit lengths alone, before any power is taken."""
    if a > 0 and (
        a * (p.bit_length() - 1) >= MAX_COEFFICIENT_BITS
        or (p**a).bit_length() > MAX_COEFFICIENT_BITS
    ):
        raise ValueError(
            f"{option} {a} makes p^{option[2:]} = {p}^{a} longer than {MAX_COEFFICIENT_BITS}"
            f" bits, the budget of p^{option[2:]}"
        )


def _cmd_certify(args: argparse.Namespace) -> int:
    _check_ram(args.prime, args.ram)
    ctx, f = parse_source(args.poly, args.prime, args.ram, args.cyclotomic)
    cert = certify(f, ctx)
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
    _check_ram(args.prime, args.max_level, "--max-level")
    _, f = parse_source(args.poly, args.prime)
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
    ok, lines = run_suite(args.suite)
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    # Imported here, not at module level: the engine's library users never
    # parse a command line, and argparse adds several ms to every import.
    import argparse

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
    pe.add_argument(
        "--digits", type=int, default=0,
        help=f"also print the first K digits, 0 <= K <= {MAX_EXPANSION_DIGITS}",
    )
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
