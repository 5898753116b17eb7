"""The references the tests compare the engine against, each defined once.

Each is an independent way to the same answer: an earlier design of the
code it checks, a closed formula or a brute-force search.  Test modules
import them with ``from reference import ...``; pytest puts ``tests/`` on
``sys.path``, as Python does for ``python tests/test_outputs.py``.
Strategies, fixtures and call counters stay in the modules that use them.
"""

import json
import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import NamedTuple

from threshold_lab.certify import BoundCertificate, InternalInconsistencyError, LimitProfile
from threshold_lab.cli import (
    MAX_COEFFICIENT_BITS,
    MAX_LITERAL_DIGITS,
    MAX_POWER_PRODUCTS,
    PolySyntaxError,
    power_products,
    tokenize,
)
from threshold_lab.exact import expand_base_p, format_rat
from threshold_lab.fpt import INFINITE
from threshold_lab.poly import (
    MembershipResult,
    MixedPoly,
    SparsePolyFp,
    in_frobenius_power,
    pow_mixed,
    pth_root_mod_fp,
    reduce_mod_pi,
)

F = Fraction


# -- the parser ------------------------------------------------------------


# Today's tokenizer is one regular-expression scan, and the parser checks the
# syntax in one scan and lowers the tokens in one recursive descent, with no
# syntax tree.  These are the character loop, the recursive-descent parser
# over (kind, text, offset) tokens that builds a syntax tree, and that tree's
# lowering, which they replaced, kept as the reference for every token, term,
# key order, byte offset and error.
_REF_OPERATORS = set("+-*^()/")
_REF_DIGITS = set("0123456789")


def token_triples(tokens):
    """The (kind, text, offset) of each token, the parser's view: a token's
    kind follows from its text."""
    def kind(text):
        if text in _REF_OPERATORS:
            return text
        if text.isdigit():
            return "uint"
        return "ident" if text else "end"

    return [(kind(text), text, at) for text, at in zip(tokens.texts, tokens.offsets)]


def reference_tokenize(src):
    at = [0]
    for c in src:
        at.append(at[-1] + len(c.encode("utf-8", "surrogateescape")))
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
        elif c in _REF_DIGITS:
            j = i
            while j < n and src[j] in _REF_DIGITS:
                j += 1
            tokens.append(("uint", src[i:j], at[i]))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalpha() or src[j] in _REF_DIGITS or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], at[i]))
            i = j
        elif c in _REF_OPERATORS:
            tokens.append((c, c, at[i]))
            i += 1
        else:
            raise PolySyntaxError(at[i], f"unexpected character {c!r}")
    tokens.append(("end", "", at[n]))
    return tokens


class IntLit(NamedTuple):
    value: int


class VarRef(NamedTuple):
    name: str  # "p" refers to the uniformizer


class Sum(NamedTuple):
    parts: tuple  # (+1 or -1, operand) pairs


class Product(NamedTuple):
    factors: tuple


class Power(NamedTuple):
    base: object
    exponent: int


def reference_uint(text):
    """The value of a digit run, refused as the parser reads it when it is
    longer than MAX_LITERAL_DIGITS."""
    if len(text) > MAX_LITERAL_DIGITS:
        raise ValueError(
            f"a {len(text)}-digit literal is longer than {MAX_LITERAL_DIGITS} digits"
            f" ({MAX_COEFFICIENT_BITS} bits), the budget of a literal in a source"
        )
    return int(text)


def reference_parse(tokens):
    pos = 0

    def advance():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        parts = [(1, term())]
        while tokens[pos][0] in ("+", "-"):
            parts.append((1 if advance()[0] == "+" else -1, term()))
        return parts[0][1] if len(parts) == 1 else Sum(tuple(parts))

    def term():
        factors = [factor()]
        while tokens[pos][0] == "*":
            advance()
            factors.append(factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor():
        b = base()
        if tokens[pos][0] != "^":
            return b
        advance()
        kind, text, offset = tokens[pos]
        if kind == "uint":
            advance()
            return Power(b, reference_uint(text))
        if kind == "(":
            raise PolySyntaxError(offset, "fractional or compound exponents are not allowed")
        if kind == "-":
            raise PolySyntaxError(offset, "negative exponents are not allowed")
        raise PolySyntaxError(offset, "expected an unsigned integer exponent")

    def base():
        kind, text, offset = advance()
        if kind == "uint":
            return IntLit(reference_uint(text))
        if kind == "ident":
            return VarRef(text)
        if kind == "(":
            inner = expr()
            closing = advance()
            if closing[0] != ")":
                raise PolySyntaxError(closing[2], "expected ')'")
            return inner
        raise PolySyntaxError(offset, f"expected a term, found {text or 'end of input'!r}")

    if len(tokens) == 1:
        raise PolySyntaxError(0, "empty polynomial source")
    tree = expr()
    if tokens[pos][0] != "end":
        raise PolySyntaxError(tokens[pos][2], f"unexpected {tokens[pos][1]!r}")
    return tree


def _max_bits(terms):
    return max(map(int.bit_length, terms.values()), default=0)


def _coefficient_budget(what):
    return ValueError(
        f"{what} has more than {MAX_COEFFICIENT_BITS} bits, the budget of a"
        " coefficient in a source"
    )


def repeated_power(f, n):
    """f^n as n - 1 products by f, and 1 when n = 0; a zero f stays zero
    without being multiplied out."""
    if not n:
        return MixedPoly(f.p, f.ram_level, f.vars, {(0, (0,) * len(f.vars)): 1})
    out = f
    for _ in range(n - 1 if f.terms else 0):
        out = out * f
    return out


def lower_expr(expr, ctx):
    """Evaluate a syntax tree into a MixedPoly over ctx.

    Each node evaluates to one term dict {(pi, E): c} without zero
    coefficients.  Sums accumulate signed coefficients.  A product of two
    monomials and a power of a monomial are formed on the dicts; only a
    product or power with a multi-term operand goes through
    ``MixedPoly.__mul__``, a power as repeated_power, within
    MAX_POWER_PRODUCTS: such a power by power_products, such a product by
    len(acc) * len(terms) summed over its multiplications.  A power f^n is refused
    when (bits of f's largest coefficient - 1) * n is past
    MAX_COEFFICIENT_BITS, and each multiplication and the result are
    checked against it.
    """
    p, ram_level, vars = ctx.p, ctx.ram_level, ctx.vars
    zero_exps = (0,) * len(vars)
    keys = {
        name: (0, zero_exps[:i] + (1,) + zero_exps[i + 1:]) for i, name in enumerate(vars)
    }
    keys["p"] = (1, zero_exps)

    def poly(terms):
        return MixedPoly._of(p, ram_level, vars, terms)

    def go(node):
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
            base, n = go(node.base), node.exponent
            bits = _max_bits(base)
            if (bits - 1) * n > MAX_COEFFICIENT_BITS:
                raise _coefficient_budget(f"a {bits}-bit coefficient^{n}")
            if len(base) == 1:
                ((pi, exps), c), = base.items()
                return {(pi * n, tuple(map(mul, exps, repeat(n)))): c**n}
            if len(base) > 1 and power_products(len(base), n) > MAX_POWER_PRODUCTS:
                raise ValueError(
                    f"expanding a {len(base)}-term polynomial to the power {n} may"
                    f" take more than {MAX_POWER_PRODUCTS} term products, the"
                    " budget of one power in a source"
                )
            return repeated_power(poly(base), n).terms
        if kind is Product:
            acc = go(node.factors[0])
            products = 0
            for factor in node.factors[1:]:
                terms = go(factor)
                if len(acc) == 1 and len(terms) == 1:
                    ((pi1, e1), c1), = acc.items()
                    ((pi2, e2), c2), = terms.items()
                    c = c1 * c2
                    if c.bit_length() > MAX_COEFFICIENT_BITS:
                        raise _coefficient_budget("a coefficient")
                    acc = {(pi1 + pi2, tuple(map(add, e1, e2))): c}
                else:
                    products += len(acc) * len(terms)
                    if products > MAX_POWER_PRODUCTS:
                        raise ValueError(
                            f"a product of factors may take more than {MAX_POWER_PRODUCTS}"
                            " term products, the budget of one product in a source"
                        )
                    acc = (poly(acc) * poly(terms)).terms
                    if _max_bits(acc) > MAX_COEFFICIENT_BITS:
                        raise _coefficient_budget("a coefficient")
            return acc
        assert kind is Sum
        acc = {}
        for sign, part in node.parts:
            for key, c in go(part).items():
                acc[key] = acc.get(key, 0) + sign * c
        return {key: c for key, c in acc.items() if c}

    terms = go(expr)
    if _max_bits(terms) > MAX_COEFFICIENT_BITS:
        raise _coefficient_budget("a coefficient")
    return poly(terms)


def reference_parse_poly(src, ctx):
    """The reference parser and lowering, on the tokens of tokenize, which
    test_tokenize_matches_the_character_loop holds to the character loop."""
    return lower_expr(reference_parse(token_triples(tokenize(src))), ctx)


def reference_lowering(src, ctx):
    """The lowering on public MixedPoly arithmetic only: every node is a
    validated MixedPoly, sums and differences add the terms of signed parts
    into a fresh MixedPoly, products use *, powers repeated_power."""
    zero = (0,) * ctx.n_vars

    def poly(pi, exps, c):
        return MixedPoly(ctx.p, ctx.ram_level, ctx.vars, {(pi, exps): c})

    def plus(f, g):
        terms = dict(f.terms)
        for k, c in g.terms.items():
            terms[k] = terms.get(k, 0) + c
        return MixedPoly(ctx.p, ctx.ram_level, ctx.vars, terms)

    def go(node):
        if isinstance(node, IntLit):
            return poly(0, zero, node.value)
        if isinstance(node, VarRef):
            if node.name == "p":
                return poly(1, zero, 1)
            i = ctx.vars.index(node.name)
            return poly(0, tuple(int(j == i) for j in range(ctx.n_vars)), 1)
        if isinstance(node, Sum):
            acc = poly(0, zero, 0)
            for sign, part in node.parts:
                acc = plus(acc, poly(0, zero, sign) * go(part))
            return acc
        if isinstance(node, Product):
            acc = poly(0, zero, 1)
            for factor in node.factors:
                acc = acc * go(factor)
            return acc
        assert isinstance(node, Power)
        return repeated_power(go(node.base), node.exponent)

    return go(reference_parse(reference_tokenize(src)))


def repeated_products(f, n):
    """The term products the parser makes for f^n, n - 1 products by f,
    counted on the same products with MixedPoly."""
    if n == 0:
        return 0
    products, out = 0, f
    for _ in range(n - 1):
        products += len(out.terms) * len(f.terms)
        out = out * f
    return products


# -- digits ----------------------------------------------------------------


def from_digits(digits, p):
    """The integer whose base-p digits, most significant first, are digits.
    The two halves are read apart and joined, so the cost is near-linear
    where one digit-by-digit fold is quadratic."""
    if len(digits) <= 64:
        n = 0
        for d in digits:
            n = n * p + d
        return n
    mid = len(digits) // 2
    return from_digits(digits[:mid], p) * p ** (len(digits) - mid) + from_digits(digits[mid:], p)



def reference_L(p, exps):
    """L from the expansions themselves: the first digit column of the 1/s_i
    summing to p or more, scanned over one preperiod-plus-period window."""
    expansions = [expand_base_p(F(1, s), p) for s in exps]
    window = max(len(x.preperiod) for x in expansions) + math.lcm(
        *(len(x.period) for x in expansions)
    )
    for j in range(1, window + 1):
        if sum(x.digit_at(j) for x in expansions) >= p:
            return j - 1
    return INFINITE



def reference_fpt(p, exps):
    """Hernandez's formula evaluated on the L-digit truncations of the 1/s_i."""
    level = reference_L(p, exps)
    if level == INFINITE:
        return sum(F(1, s) for s in exps)
    # p^L times the L-digit truncation of 1/s is its first L digits read as
    # one base-p integer.
    expansions = [expand_base_p(F(1, s), p) for s in exps]
    scaled = sum(from_digits([x.digit_at(e) for e in range(1, level + 1)], p) for x in expansions)
    return F(scaled + 1, p**level)


def fermat_reference(p, d):
    """fpt of the d-variable Fermat diagonal in closed form: 1/p^s with
    p^s <= d < p^(s+1) when d >= p, else 1 - (a - 1)/p with a = p mod d."""
    if d >= p:
        s = 0
        while p ** (s + 1) <= d:
            s += 1
        return F(1, p**s)
    return 1 - F(p % d - 1, p)



def expansion_value(exp):
    """The rational an expansion stands for: with its k preperiod digits
    read as the integer A and its m period digits as B, that is
    (A (p^m - 1) + B) / (p^k (p^m - 1))."""
    p, k, m = exp.p, len(exp.preperiod), len(exp.period)
    cycle = p**m - 1
    return F(from_digits(exp.preperiod, p) * cycle + from_digits(exp.period, p), p**k * cycle)


def truncation(exp, L):
    """The partial sum d_1 p^-1 + ... + d_L p^-L of an expansion."""
    return F(from_digits([exp.digit_at(e) for e in range(1, L + 1)], exp.p), exp.p**L)


# -- arithmetic over F_p and the Frobenius oracle --------------------------


def fp_mul(f, g):
    """f * g over F_p, term by term; the constructor reduces mod p."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return SparsePolyFp(f.p, f.vars, out)


def frobenius(h):
    """h^p over F_p: c^p = c and (a + b)^p = a^p + b^p, so the exponents
    are multiplied by p."""
    return SparsePolyFp(h.p, h.vars, {tuple(h.p * e for e in exps): c for exps, c in h.terms.items()})


def nu_reference(f, e):
    """nu_e by brute force: multiply by f, dropping every term with an
    exponent >= p^e, until the product is zero."""
    q = f.p**e
    g, nu = {(0,) * len(f.vars): 1}, -1
    while g:
        nu += 1
        out = {}
        for e1, c1 in g.items():
            for e2, c2 in f.terms.items():
                k = tuple(a + b for a, b in zip(e1, e2))
                if max(k) < q:
                    out[k] = out.get(k, 0) + c1 * c2
        g = {k: r for k, c in out.items() if (r := c % f.p)}
    return nu


# -- certification ---------------------------------------------------------


def extremal_by_enumeration(f, ctx):
    """rule_extremal_strict's match as it was first written: every q = p^e
    up to f's degree, every pair of variables and both patterns, keeping the
    least e (then the first pair and pattern); returns (e, i, j, pattern)."""
    p, n = ctx.p, ctx.n_vars
    max_deg = max((sum(e) for (_pi, e) in f.terms), default=0)
    best = None
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
                        others = sum(exps[t] for t in range(n) if t not in (i, j))
                        order = ctx.pi_order(pi, c)
                        if (order < 1 and others < 1) or not in_frobenius_power(order, exps, q):
                            ok = False
                            break
                    if ok and (best is None or e < best[0]):
                        best = (e, i, j, pattern)
        e += 1
    return best


def _cyclo_reduce(coeffs, p):
    """Reduce an integer polynomial in t modulo Phi_p(t) = 1 + t + ... + t^{p-1}."""
    out = list(coeffs)
    for d in range(len(out) - 1, p - 2, -1):
        c = out[d]
        if c:
            out[d] = 0
            for k in range(d - (p - 1), d):
                out[k] -= c
    del out[p - 1:]
    while len(out) < p - 1:
        out.append(0)
    return out


def _cyclo_pi_power(k, p):
    """(t - 1)^k reduced modulo Phi_p(t): varpi^k in the basis 1, ..., t^{p-2}
    of Z[zeta_p], t = zeta_p."""
    return _cyclo_reduce([math.comb(k, j) * (-1) ** (k - j) for j in range(k + 1)], p)


def _in_varpi_pth(coeffs, p):
    """Membership in (varpi^p) = (p varpi) inside Z[zeta_p]: p divides every
    power-basis coordinate of x and x/p maps to 0 in the residue field
    Z[zeta_p]/(varpi) = F_p (evaluation at zeta_p -> 1)."""
    if any(c % p for c in coeffs):
        return False
    return sum(c // p for c in coeffs) % p == 0


def lift_by_pow_mixed(f, ctx):
    """pth_root_modulo as it was first written: the canonical lift h of the
    root mod p, and f - pow_mixed(h, p) tested at the ring's modulus, over
    the cyclotomic base in the zeta-power basis of Z[zeta_p]."""
    p = ctx.p
    root_bar = pth_root_mod_fp(reduce_mod_pi(f))
    if root_bar is None:
        return None
    h = MixedPoly(p, 0, ctx.vars, {(0, e): c for e, c in root_bar.terms.items()})
    hp = pow_mixed(h, p)
    if not ctx.cyclotomic:
        for key in set(f.terms) | set(hp.terms):
            delta = f.terms.get(key, 0) - hp.terms.get(key, 0)
            if delta and ctx.pi_order(key[0], delta) < 2:
                return None
        return h
    by_monomial = {}
    for (pi, exps), c in f.terms.items():
        acc = by_monomial.setdefault(exps, [0] * max(1, p - 1))
        for k, v in enumerate(_cyclo_pi_power(pi, p)):
            acc[k] += c * v
    for (_pi, exps), c in hp.terms.items():
        by_monomial.setdefault(exps, [0] * max(1, p - 1))[0] -= c
    if all(_in_varpi_pth(_cyclo_reduce(coeffs, p), p) for coeffs in by_monomial.values()):
        return h
    return None


def sorted_scan(f, ctx, q):
    """weighted_membership as it was first written: the terms of f in
    graded-lex order, stopping at the first outside (pi^q, x_i^q)."""
    for (pi, exps), c in f.sorted_terms():
        if not in_frobenius_power(ctx.pi_order(pi, c), exps, q):
            return MembershipResult(False, (pi, exps))
    return MembershipResult(True, None)


def all_pairs_alarm(steps):
    """The cross-level check on every pair of levels, as limit_profile made
    it before it kept one least upper bound: the first level whose lower
    bound excludes an earlier level's upper bound, with all the earlier
    levels it excludes, or None."""
    for later in steps:
        excluded = [
            earlier for earlier in steps[:later.level]
            if later.lower is not None and earlier.upper is not None
            and (later.lower > earlier.upper or (
                later.lower == earlier.upper and (later.lower_strict or earlier.upper_strict)
            ))
        ]
        if excluded:
            return later.level, excluded
    return None



def _list_intersection(results):
    """The list-based intersection certify made before the one-scan
    _intersect: max and min over (value, strict, rule id) lists."""
    lowers, uppers = [], []
    for res in results:
        if res.lower is not None:
            lowers.append((res.lower.value, res.lower.strict, res.rule_id))
        if res.upper is not None:
            uppers.append((res.upper.value, res.upper.strict, res.rule_id))
    lower = lower_strict = upper = upper_strict = None
    if lowers:
        lower = max(v for (v, _s, _r) in lowers)
        lower_strict = any(s for (v, s, _r) in lowers if v == lower)
    if uppers:
        upper = min(v for (v, _s, _r) in uppers)
        upper_strict = any(s for (v, s, _r) in uppers if v == upper)
    if lower is not None and upper is not None:
        if lower > upper or (lower == upper and (lower_strict or upper_strict)):
            lo_rules = sorted({r for (v, _s, r) in lowers if v == lower})
            hi_rules = sorted({r for (v, _s, r) in uppers if v == upper})
            raise InternalInconsistencyError(
                f"certified lower {format_rat(lower)}"
                f"{' (strict)' if lower_strict else ''} from {lo_rules} excludes "
                f"certified upper {format_rat(upper)}"
                f"{' (strict)' if upper_strict else ''} from {hi_rules}"
            )
    exact = None
    if lower is not None and lower == upper and not lower_strict and not upper_strict:
        exact = lower
    return lower, bool(lower_strict), upper, bool(upper_strict), exact


# -- JSON ------------------------------------------------------------------


def _rat_doc(q):
    return None if q is None else format_rat(q)


def certificate_doc(cert: BoundCertificate) -> dict:
    """The certificate as a dict tree, in the key order of the JSON."""
    f, ctx = cert.poly, cert.ctx

    def bound_doc(value, strict):
        return None if value is None else {"value": format_rat(value), "strict": strict}

    return {
        "input": {
            "p": f.p,
            "ram_level": f.ram_level,
            "vars": list(f.vars),
            "terms": [
                {"pi": pi, "exps": list(e), "coeff": str(c)} for (pi, e), c in f.sorted_terms()
            ],
            "ctx": {
                "p": ctx.p,
                "ram_level": ctx.ram_level,
                "cyclotomic": ctx.cyclotomic,
                "vars": list(ctx.vars),
            },
        },
        "lower": bound_doc(cert.lower, cert.lower_strict),
        "upper": bound_doc(cert.upper, cert.upper_strict),
        "exact": _rat_doc(cert.exact),
        "rules": [
            {"id": r.rule_id, "paper_ref": r.statement, "quote": r.quote,
             "hypotheses": list(r.hypotheses)}
            for r in cert.rules
        ],
        "notes": list(cert.notes),
    }


def profile_doc(profile: LimitProfile) -> dict:
    """The limit profile as a dict tree, in the key order of the JSON."""
    return {
        "steps": [
            {"ram_level": s.level, "lower": _rat_doc(s.lower), "upper": _rat_doc(s.upper),
             "exact": _rat_doc(s.exact)}
            for s in profile.steps
        ],
        "limit": _rat_doc(profile.limit),
        "attained": profile.attained,
        "notes": list(profile.notes),
    }


def reference_json(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))
