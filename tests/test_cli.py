"""Tests for the expression parser and the command-line interface."""

import json
import os
import random
import subprocess
import sys
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.certify import InternalInconsistencyError, RingContext, limit_profile
from threshold_lab.cli import (
    MAX_COEFFICIENT_BITS,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_POWER_PRODUCTS,
    PolySyntaxError,
    format_poly_src,
    infer_variables,
    main,
    parse_poly,
    parse_source,
    power_products,
    tokenize,
)
from threshold_lab.poly import MixedPoly

from reference import (
    reference_lowering,
    reference_parse_poly,
    reference_tokenize,
    repeated_products,
    token_triples,
)


def ctx_for(src, p=2, ram=0):
    return RingContext(p, infer_variables(src) or ("x",), ram_level=ram)


# -- parsing ---------------------------------------------------------------


def test_tokenize_positions():
    assert token_triples(tokenize("x + 12*y")) == [
        ("ident", "x", 0), ("+", "+", 2), ("uint", "12", 4),
        ("*", "*", 6), ("ident", "y", 7), ("end", "", 8),
    ]


def test_infer_variables_order_and_reserved_p():
    assert infer_variables("y + x^2 + y*z") == ("y", "x", "z")
    assert infer_variables("p^3 + x^3") == ("x",)
    assert infer_variables("7 + 3") == ()


def test_parse_mixed_cubic():
    src = "p^3 + x^3 + y^3"
    f = parse_poly(src, ctx_for(src))
    assert f == MixedPoly(2, 0, ("x", "y"),
                          {(3, (0, 0)): 1, (0, (3, 0)): 1, (0, (0, 3)): 1})


def test_parse_distributes_products():
    src = "x*y*(u*x + v*y) + p^3"
    ctx = ctx_for(src)
    assert ctx.vars == ("x", "y", "u", "v")
    f = parse_poly(src, ctx)
    assert f.terms == {
        (0, (2, 1, 1, 0)): 1,     # u x^2 y
        (0, (1, 2, 0, 1)): 1,     # v x y^2
        (3, (0, 0, 0, 0)): 1,
    }


def test_parse_collects_and_cancels():
    ctx = RingContext(5, ("x",))
    assert parse_poly("2*x + 3*x", ctx).terms == {(0, (1,)): 5}
    assert parse_poly("x - x", ctx).is_zero()
    assert parse_poly("0", ctx).is_zero()
    assert parse_poly("(x + 1)^2", ctx).terms == {
        (0, (2,)): 1, (0, (1,)): 2, (0, (0,)): 1,
    }


def test_parse_p_is_the_uniformizer():
    ctx = RingContext(3, ("x",))
    f = parse_poly("p^2 + p*x", ctx)
    assert f.terms == {(2, (0,)): 1, (1, (1,)): 1}
    g = parse_poly("p", ctx)
    assert g.terms == {(1, (0,)): 1}


def test_parse_subtraction_is_left_associative():
    ctx = RingContext(7, ("x",))
    f = parse_poly("5 - 2 - 1", ctx)
    assert f.terms == {(0, (0,)): 2}


def test_parse_exponent_zero():
    ctx = RingContext(3, ("x",))
    assert parse_poly("x^0", ctx).terms == {(0, (0,)): 1}


@pytest.mark.parametrize("src, byte, fragment", [
    ("x^(1/2)", 2, "fractional or compound exponents"),
    ("x^-2", 2, "negative exponents"),
    ("1/2 + x", 1, "unexpected"),
    ("x + ", 4, "expected a term"),
    ("(x + y", 6, "expected ')'"),
    ("x @ y", 2, "unexpected character"),
    ("", 0, "empty polynomial source"),
    ("x^x", 2, "unsigned integer exponent"),
    ("x^\u00b2", 2, "unexpected character"),    # superscript two: int() rejects it
    ("x^\u0663", 2, "unexpected character"),    # Arabic-Indic three: int() reads 3
    ("x\u00b2 + y", 1, "unexpected character"),  # nor does it continue an identifier
    ("x\udcff", 1, "unexpected character"),     # the undecodable argv byte 0xff
    ("\u00fc + x^(1/2)", 7, "fractional or compound exponents"),  # 2-byte u-umlaut
    ("q + x^(1/2)", 6, "fractional or compound exponents"),  # before the unknown q
])
def test_syntax_errors_carry_byte_offsets(src, byte, fragment):
    with pytest.raises(PolySyntaxError) as info:
        parse_poly(src, RingContext(2, ("x", "y")))
    assert f"at byte {byte}" in str(info.value)
    assert fragment in str(info.value)


def test_token_offsets_count_utf8_bytes():
    src = "\u00fc + x^(1/2)"
    assert tokenize(src).offsets == [0, 3, 5, 6, 7, 8, 9, 10, 11, 12]


def outcome(run, *args):
    """run(*args), or the offset and message of the PolySyntaxError it raised."""
    try:
        return run(*args)
    except PolySyntaxError as ex:
        return ex.offset, str(ex)


def parse_outcome(parse, src, ctx):
    """The terms of parse(src, ctx) in key order, or the type, message and
    byte offset of the error it raised."""
    try:
        return list(parse(src, ctx).terms.items())
    except ValueError as ex:
        return type(ex), str(ex), getattr(ex, "offset", None)


def _argv_char(c):
    """Whether c can reach the command line: a lone surrogate can only stand
    for an undecodable argv byte, U+DC80..U+DCFF."""
    return not ("\ud800" <= c <= "\udfff") or "\udc80" <= c <= "\udcff"


# Any character, whitespace (ASCII, no-break and em space), letters with 1-,
# 2- and 3-byte encodings, digits and numerals that str.isdigit or
# str.isnumeric accepts but the grammar does not ("\u00b2", "\u0663",
# "\u2167"), undecodable argv bytes and the grammar's own symbols.
_SOURCE_CHARS = st.one_of(
    st.characters(codec=None, exclude_categories=()).filter(_argv_char),
    st.sampled_from("xyzp_09+-*^()/ \t\n\x1c\u00a0\u2003\u00fc\u03c0\u4e00"
                    "\u00b2\u0663\u2167\udc80\udcff"),
)
_GRAMMAR_CHARS = st.sampled_from("xyp_0123456789+-*^()/ \u00fc")


@given(src=st.text() | st.text(_SOURCE_CHARS, max_size=40))
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_the_character_loop(src):
    def scan(src):
        return token_triples(tokenize(src))

    assert outcome(scan, src) == outcome(reference_tokenize, src)


@given(
    src=st.text(_GRAMMAR_CHARS, min_size=1, max_size=20) | st.text(_SOURCE_CHARS, min_size=1),
    p=st.sampled_from([2, 3, 5, 7]),
)
@settings(max_examples=500, deadline=None)
def test_parser_matches_the_reference_parser(src, p):
    """parse_poly gives the terms of the reference parser and lowering, keys
    in the same order, or the same error at the same byte; the variables
    are those of src, or x when it has none or does not tokenize."""
    try:
        names = infer_variables(src)
    except PolySyntaxError:
        names = ()
    ctx = RingContext(p, names or ("x",))
    assert parse_outcome(parse_poly, src, ctx) == parse_outcome(reference_parse_poly, src, ctx)


def test_unescapable_surrogate_is_a_syntax_error():
    """A lone surrogate outside U+DC80..U+DCFF has no UTF-8 bytes; the
    character loop raised UnicodeEncodeError on it, tokenize reports it."""
    with pytest.raises(PolySyntaxError, match="at byte 4: unexpected character '\\\\ud800'"):
        tokenize("x + \ud800")


def test_unknown_variable_is_rejected():
    with pytest.raises(ValueError) as info:
        parse_poly("x + q", RingContext(3, ("x",)))
    assert "q" in str(info.value)
    assert not isinstance(info.value, PolySyntaxError)


# -- lowering against the reference ----------------------------------------


@pytest.mark.parametrize("src, in_place", [
    ("0", True),
    ("0^0", True),
    ("p^0*x^0", True),
    ("x - x", True),
    ("3*x^2 - x^2*3 + y", True),
    ("x\u00a0+\u2003y^2\t-\n7", True),        # Unicode whitespace
    ("2^13999*x", True),                        # a 14,000-bit coefficient
    ("0*3^14000*x", True),                      # zero times a 22,190-bit power
    ("x + q", False),                           # q is not a variable
    ("1" * (MAX_LITERAL_DIGITS + 1) + "*x", False),
    ("x^" + "1" * (MAX_LITERAL_DIGITS + 1), False),
    ("3^14001*x", False),                       # refused before it is computed
    ("2^14000*x", False),                       # a 14,001-bit coefficient
    ("2^13999 + 2^13999", False),               # a 14,001-bit sum
    ("3^14000 - 3^14000 + x", True),            # terms past the budget, cancelled
    ("3^14000*(x - x) + y", True),              # a first factor past it, times zero
    ("3^14000*0*x", True),
    ("x*3^14000", False),                       # a factor past it after a name
    ("p^2*3^14000", False),
    ("3^14000*x", False),                       # a name after a first factor past it
    ("3^14000*(x)", False),
    ("(3^14000)*x", False),
    ("3^14000*(x + y)", False),                 # a group after a first factor past it
    ("x +", False),
    ("- x", False),
    ("x^-2", False),
    ("x y", False),
    ("x^2^3", False),
    ("x/2", False),
    ("x)", False),
], ids=lambda v: f"{v[:8]}...{v[-8:]}" if isinstance(v, str) and len(v) > 40 else None)
def test_flat_pass_cases(src, in_place):
    """Sources lower as the reference does, or raise its error.  in_place
    marks those that parse: each term is multiplied up in place, a first
    factor past the coefficient budget included, and the sum is within the
    budget.  The rest are a syntax error, a name that is not a variable, or
    a literal or coefficient past its budget."""
    ctx = RingContext(5, ("x", "y"))
    got = parse_outcome(parse_poly, src, ctx)
    assert got == parse_outcome(reference_parse_poly, src, ctx)
    assert not in_place or isinstance(got, list)


# Each common entry is listed several times, so that about two in five drawn
# sources are lowered and the rest refused.
_FLAT_BASES = ["x", "y", "p", "0", "1", "2", "3", "7", "10"] * 10 + [
    "q", "xy", "_1",
    "0" * (MAX_LITERAL_DIGITS - 1) + "5",
    "1" * MAX_LITERAL_DIGITS,
    "1" * (MAX_LITERAL_DIGITS + 1),
    str(2**MAX_COEFFICIENT_BITS - 1),
]
_FLAT_EXPONENTS = ["0", "1", "2", "3", "4", "5"] * 8 + [
    str(MAX_COEFFICIENT_BITS - 1),
    str(MAX_COEFFICIENT_BITS),
    str(MAX_COEFFICIENT_BITS + 1),
    "0" * (MAX_LITERAL_DIGITS - 1) + "3",
    "1" * (MAX_LITERAL_DIGITS + 1),
]
# Powers of groups: small ones, and ones past the power budget for a group
# of three or more terms.
_GROUP_EXPONENTS = ["0", "1", "2", "3"] * 3 + ["60", "130"]
_GAPS = ["", " ", " ", "  ", "\t", "\n", "\u00a0", "\u2003"]
_OUT_OF_PLACE = ["+", "-", "*", "^", "(", ")", "/", "x", "2"]


def flat_tokens(rng, depth=0):
    """The tokens of a sum of products of literals, "p", variables, a name
    that is none ("q", "xy", "_1") and parenthesized groups nested at most
    two deep, each with an optional power; long digit runs and powers at
    the coefficient budget; now and then the first term subtracted again,
    so that sums cancel."""
    terms = []
    for _ in range(rng.randint(1, 3 if depth else 4)):
        term = []
        for j in range(rng.randint(1, 3)):
            if j:
                term.append("*")
            if depth < 2 and rng.randrange(4) == 0:
                term += ["(", *flat_tokens(rng, depth + 1), ")"]
                if rng.randrange(2):
                    term += ["^", rng.choice(_GROUP_EXPONENTS)]
            else:
                term.append(rng.choice(_FLAT_BASES))
                if rng.randrange(2):
                    term += ["^", rng.choice(_FLAT_EXPONENTS)]
        terms.append(term)
    tokens = [*terms[0]]
    for term in terms[1:]:
        tokens += [rng.choice("+-"), *term]
    if rng.randrange(2):
        tokens += ["-", *terms[0]]
    return tokens


def flat_source(rng):
    """flat_tokens with, one time in five, a token out of place, and ASCII
    and Unicode whitespace between tokens."""
    tokens = flat_tokens(rng)
    if rng.randrange(5) == 0:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(_OUT_OF_PLACE))
    return "".join(rng.choice(_GAPS) + token for token in tokens)


@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 3, 5, 7]), ram=st.integers(0, 2))
@settings(max_examples=500, deadline=None)
def test_flat_pass_matches_lower_expr_or_hands_back(seed, p, ram):
    """On five sources drawn from each seed (sums of products with groups,
    powers of groups and products of groups, budget-edge literals and
    stray tokens), parse_poly gives the reference's terms in the same key
    order, or its error type, message and byte offset."""
    rng = random.Random(seed)
    ctx = RingContext(p, ("x", "y"), ram_level=ram)
    for _ in range(5):
        src = flat_source(rng)
        want = parse_outcome(reference_parse_poly, src, ctx)
        assert parse_outcome(parse_poly, src, ctx) == want, src


# -- printing and round trips ----------------------------------------------


def test_format_poly_src_examples():
    src = "p^3 + x^3 + y^3"
    f = parse_poly(src, ctx_for(src))
    assert format_poly_src(f) == "p^3 + x^3 + y^3"
    ctx = RingContext(5, ("x", "y"))
    g = parse_poly("3*x^2*y - 4*y + p", ctx)
    assert parse_poly(format_poly_src(g), ctx) == g
    neg = parse_poly("0 - x", ctx)
    assert format_poly_src(neg) == "0 - x"
    assert format_poly_src(parse_poly("0", ctx)) == "0"


def _random_source(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.4:
        base = rng.choice(["x", "y", "z", "p", str(rng.randrange(0, 12))])
        if rng.random() < 0.4:
            return f"{base}^{rng.randrange(0, 5)}"
        return base
    if roll < 0.65:
        k = rng.randrange(2, 4)
        op = rng.choice([" + ", " - "])
        return op.join(_random_source(rng, depth + 1) for _ in range(k))
    if roll < 0.85:
        return "*".join(_random_source(rng, depth + 1) for _ in range(rng.randrange(2, 4)))
    inner = _random_source(rng, depth + 1)
    return f"({inner})^{rng.randrange(1, 4)}" if rng.random() < 0.5 else f"({inner})"


def test_print_parse_round_trip_corpus():
    """Fifty generated sources plus edge cases survive print -> reparse."""
    rng = random.Random(414213)
    corpus = [_random_source(rng) for _ in range(50)]
    corpus += [
        "p^3 + x^3 + y^3",
        "x*y*(u*x + v*y) + p^3",
        "(x + y)^2 + 4*y^3",
        "0 - x - y - p",
        "2*p^2*x^3*y",
        "(p + x)*(p - x)",
        "x^2 - 2*x + 1",
    ]
    for p in (2, 5):
        for src in corpus:
            ctx = ctx_for(src, p=p)
            f = parse_poly(src, ctx)
            printed = format_poly_src(f)
            assert parse_poly(printed, ctx) == f, (src, printed)


@st.composite
def sources(draw, p, depth=0):
    """Sources in the style of _random_source, with p-divisible literals and
    differences that cancel to zero; powers of groups only two levels down,
    which keeps every expansion small."""
    roll = draw(st.integers(0, 99))
    if depth >= 3 or roll < 35:
        base = draw(st.sampled_from(["x", "y", "z", "p", str(p), str(p * p)])
                    | st.integers(0, 12).map(str))
        return f"{base}^{draw(st.integers(0, 4))}" if draw(st.booleans()) else base
    if roll < 60:
        parts = [draw(sources(p, depth + 1)) for _ in range(draw(st.integers(2, 3)))]
        out = parts[0]
        for part in parts[1:]:
            out += draw(st.sampled_from([" + ", " - "])) + part
        return out
    if roll < 75:
        return "*".join(draw(sources(p, depth + 1)) for _ in range(2))
    if roll < 85:
        a, b = draw(sources(p, depth + 1)), draw(sources(p, depth + 1))
        return draw(st.sampled_from([f"{a} - ({a})", f"({a})*({b}) - ({b})*({a})"]))
    inner = draw(sources(p, depth + 1))
    if depth >= 2:
        return f"({inner})^{draw(st.integers(0, 3))}"
    return f"({inner})"


@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]), ram=st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_parse_matches_reference_lowering(data, p, ram):
    src = data.draw(sources(p))
    ctx = ctx_for(src, p=p, ram=ram)
    f = parse_poly(src, ctx)
    assert f == reference_lowering(src, ctx), src
    assert all(f.terms.values())


@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=100, deadline=None)
def test_parse_matches_sympy_expansion(data, p):
    """parse_poly's coefficients are sympy's, reading the uniformizer p as a
    plain symbol: the pi-exponent of a term is its degree in p."""
    sympy = pytest.importorskip("sympy")
    src = data.draw(sources(p))
    ctx = ctx_for(src, p=p)
    names = ("p", *ctx.vars)
    symbols = sympy.symbols(names)
    expr = sympy.parse_expr(src.replace("^", "**"), local_dict=dict(zip(names, symbols)))
    want = {(m[0], m[1:]): int(c) for m, c in sympy.Poly(expr, *symbols).terms() if c}
    assert parse_poly(src, ctx).terms == want, src


# -- the power budget ------------------------------------------------------


@given(
    terms=st.dictionaries(
        st.tuples(st.integers(0, 2), st.tuples(st.integers(0, 2), st.integers(0, 2))),
        st.integers(-3, 3).filter(bool), min_size=2, max_size=5,
    ),
    n=st.integers(0, 9),
)
@settings(max_examples=100, deadline=None)
def test_power_products_bounds_repeated_products(terms, n):
    f = MixedPoly(3, 0, ("x", "y"), terms)
    assert repeated_products(f, n) <= power_products(len(f.terms), n)


@pytest.mark.parametrize("t, n", [(2, 1), (2, 13), (3, 8), (4, 5), (5, 2)])
def test_power_products_is_exact_on_distinct_variables(t, n):
    """A sum of t distinct variables has the most terms at every power."""
    names = tuple("abcde"[:t])
    f = MixedPoly(2, 0, names, {(0, tuple(int(i == j) for j in range(t))): 1 for i in range(t)})
    assert repeated_products(f, n) == power_products(t, n)


@pytest.mark.parametrize("src, products, admitted", [
    ("(x + y + z)^99", 499_947, True),
    ("(x + y + z)^100", 515_097, False),
    ("(x + y)^706", 499_140, True),
    ("(x + y)^707", 500_554, False),
    ("(x + y + z + w)^20", 35_416, True),
])
def test_power_budget_edges(src, products, admitted):
    """The largest admitted powers of two and three terms, the first refused
    ones, and a power of four terms that binary powering would refuse."""
    t, n = src.count("+") + 1, int(src.rsplit("^", 1)[1])
    assert power_products(t, n) == products
    ctx = RingContext(5, infer_variables(src))
    if admitted:
        assert len(parse_poly(src, ctx).terms) == comb(n + t - 1, t - 1)
    else:
        with pytest.raises(ValueError, match="budget of one power"):
            parse_poly(src, ctx)


def test_power_budget_refuses_a_huge_exponent_at_once():
    """t * (n - 1) is a lower bound on the products: a 4,000-digit exponent
    is refused without computing a binomial of it."""
    n = 10**4000
    assert power_products(2, n) == 2 * (n - 1)
    with pytest.raises(ValueError, match="budget of one power"):
        parse_poly(f"(x + y)^{n}", RingContext(5, ("x", "y")))


def test_power_of_a_zero_group_is_not_multiplied_out():
    """(x - x) lowers to zero, which stays zero at any power n >= 1 without
    n - 1 products, and (x - x)^0 is 1."""
    code, out, err = run_module_cli(
        "certify", "--prime", "5", "--poly", "(x - x)^100000000 + y^2", timeout=5
    )
    assert (code, err) == (0, "")
    assert "exact = 1/2" in out
    ctx = RingContext(5, ("x", "y"))
    assert parse_poly("(x - x)^0 * y", ctx) == parse_poly("y", ctx)


def test_power_budget_refuses_before_expanding():
    """(x + y + z)^120 has 7,381 terms, but n - 1 products by the base take
    885,717 term products: the command exits 2 at once, naming the budget."""
    start = time.perf_counter()
    code, out, err = run_module_cli("certify", "--prime", "5", "--poly", "(x + y + z)^120")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"more than {MAX_POWER_PRODUCTS} term products" in err and "budget" in err


def test_power_budget_follows_the_syntax_check():
    """A syntax error anywhere wins over a power over the budget, and a
    power within it is expanded."""
    ctx = RingContext(5, ("x", "y", "z"))
    with pytest.raises(ValueError, match="budget") as info:
        parse_poly("(x + y + z)^120", ctx)
    assert not isinstance(info.value, PolySyntaxError)
    with pytest.raises(PolySyntaxError, match="at byte 18"):
        parse_poly("(x + y + z)^120 + )", ctx)
    assert power_products(3, 20) <= MAX_POWER_PRODUCTS
    assert len(parse_poly("(x + y + z)^20", ctx).terms) == 231


def test_syntax_is_checked_before_anything_is_lowered():
    """(x + y + z)^54 takes about 0.1 s to expand (and (x + y + z)^99, the
    largest power of three terms within the budget, about 0.7 s), but a
    syntax error after it is found at once."""
    ctx = RingContext(5, ("x", "y", "z"))
    start = time.perf_counter()
    with pytest.raises(PolySyntaxError, match="at byte 17: expected a term, found '\\)'"):
        parse_poly("(x + y + z)^54 + )", ctx)
    assert time.perf_counter() - start < 0.1


def test_lowering_errors_come_left_to_right():
    """Each factor is lowered before the next is read: a power past the
    budget before an unknown variable wins, and one after it loses."""
    ctx = RingContext(5, ("x", "y", "z"))
    with pytest.raises(ValueError, match="budget of one power"):
        parse_poly("(x + y + z)^120 + q", ctx)
    with pytest.raises(ValueError, match="unknown variable 'q'"):
        parse_poly("q + (x + y + z)^120", ctx)


def test_a_variable_named_p_is_refused():
    """The name p is the uniformizer's, so a ring with a variable p could
    not round-trip: x^3 + p^2 in variables (p, x) would print as
    "x^3 + p^2", which reads back as x^3 + pi^2."""
    ctx = RingContext(5, ("p", "x"))
    with pytest.raises(ValueError, match="'p': the name is reserved for the uniformizer"):
        parse_poly("p^2 + x^3", ctx)
    f = MixedPoly(5, 0, ("p", "x"), {(0, (2, 0)): 1, (0, (0, 3)): 1})
    with pytest.raises(ValueError, match="reserved for the uniformizer"):
        format_poly_src(f)
    assert parse_source("p^2 + x^3", 5)[0].vars == ("x",)


def test_product_budget_refuses_a_chain_of_factors():
    """Each factor is within the power budget, but the third multiplication,
    1,891 terms by 496, takes the product past the budget: exit 2."""
    factor = "(x + y + z)^30"
    start = time.perf_counter()
    code, out, err = run_module_cli(
        "fpt-search", "--prime", "5", "--level", "1", "--poly", "*".join([factor] * 4)
    )
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert f"more than {MAX_POWER_PRODUCTS} term products" in err and "budget" in err


def test_product_budget_charges_each_multiplication(monkeypatch):
    """3 * x * (x + y)^2 * (x + y)^2 * (x + y) takes 0 + 1*3 + 3*3 + 5*2 = 22
    term products: a product of two monomials is not charged."""
    ctx = RingContext(5, ("x", "y"))
    src = "3 * x * (x + y)^2 * (x + y)^2 * (x + y)"
    monkeypatch.setattr(sys.modules["threshold_lab.cli"], "MAX_POWER_PRODUCTS", 22)
    assert len(parse_poly(src, ctx).terms) == 6
    monkeypatch.setattr(sys.modules["threshold_lab.cli"], "MAX_POWER_PRODUCTS", 21)
    with pytest.raises(ValueError, match="budget of one product"):
        parse_poly(src, ctx)
    assert 496 * 496 <= MAX_POWER_PRODUCTS  # two factors (x + y + z)^30 parse


def test_product_budget_does_not_charge_a_first_group(monkeypatch):
    """(x + y) * (x + z) * (y + z) * x takes 2*2 + 4*2 + 7*1 = 19 term
    products: its first factor is not multiplied into anything."""
    ctx = RingContext(5, ("x", "y", "z"))
    src = "(x + y) * (x + z) * (y + z) * x"
    monkeypatch.setattr(sys.modules["threshold_lab.cli"], "MAX_POWER_PRODUCTS", 19)
    assert len(parse_poly(src, ctx).terms) == 7
    monkeypatch.setattr(sys.modules["threshold_lab.cli"], "MAX_POWER_PRODUCTS", 18)
    with pytest.raises(ValueError, match="budget of one product"):
        parse_poly(src, ctx)


@pytest.mark.parametrize("src, message", [
    ("(3^14000 + x)^1", "a 22190-bit coefficient^1 has more than"),
    ("(3^14000 + x)", "a coefficient has more than"),
    ("(3^14000 + x)*y", "a coefficient has more than"),
    ("(3^14000 + x)*0 + y", None),
    ("(3^14000 - x + x)*0 + y", None),
])
def test_groups_past_the_coefficient_budget(src, message):
    """A group's sum is not checked until it is powered, even to the power
    1, multiplied by a factor that is not 0, or summed at the top."""
    ctx = RingContext(5, ("x", "y"))
    got = parse_outcome(parse_poly, src, ctx)
    assert got == parse_outcome(reference_parse_poly, src, ctx)
    assert (message is None) == isinstance(got, list)
    assert message is None or message in got[1]


def test_coefficient_budget_boundaries():
    ctx = RingContext(5, ("x",))
    assert parse_poly("2^13999*x", ctx).terms == {(0, (1,)): 2**13999}
    with pytest.raises(ValueError, match=f"more than {MAX_COEFFICIENT_BITS} bits"):
        parse_poly("x + 2^14000", ctx)  # computed, then refused by the scan
    with pytest.raises(ValueError, match="budget of a coefficient"):
        parse_poly("2^14000*x", ctx)  # refused after the multiplication
    with pytest.raises(ValueError, match="a 2-bit coefficient\\^14001"):
        parse_poly("3^14001*x", ctx)  # refused before it is computed
    with pytest.raises(ValueError, match="budget of a coefficient"):
        parse_poly("(2^7000*x + 1)^2", ctx)  # refused by the scan


def test_coefficient_budget_bounds_the_work_of_every_operation():
    """A power of a multi-term base is checked before it is expanded, and
    each multiplication of a product chain after it is made, so none of
    these sources runs for long before exit 2."""
    ctx = RingContext(5, ("x", "y"))
    with pytest.raises(ValueError, match="a 14000-bit coefficient\\^100 has more than"):
        parse_poly("(2^13999*x + y)^100", ctx)
    for src in ("*".join(["2^13000"] * 1000) + "*x", "*".join(["(2^13000*x + y)"] * 300)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="budget of a coefficient"):
            parse_poly(src, ctx)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("src", ["3^10000000 + x^2", "5^7000*x^2 + y^2"])
def test_coefficient_budget_refuses_in_both_output_modes(src):
    """3^10000000 is refused before it is computed, and 5^7000 (4,893
    decimal digits) would not print as JSON: text and JSON mode both exit 2
    with the same message."""
    start = time.perf_counter()
    text = run_module_cli("certify", "--prime", "5", "--poly", src)
    as_json = run_module_cli("certify", "--prime", "5", "--json", "--poly", src)
    assert time.perf_counter() - start < 4.0
    assert text == as_json
    code, out, err = text
    assert (code, out) == (2, "")
    assert f"more than {MAX_COEFFICIENT_BITS} bits" in err and "budget" in err


def test_literal_budget_boundaries():
    """A digit run of MAX_LITERAL_DIGITS digits, the most that 2^14000 - 1
    has, is read; one more digit is refused, coefficient or exponent."""
    assert len(str(2**MAX_COEFFICIENT_BITS - 1)) == MAX_LITERAL_DIGITS
    ctx = RingContext(5, ("x",))
    zeros = "0" * (MAX_LITERAL_DIGITS - 1)
    assert parse_poly(zeros + "3*x", ctx).terms == {(0, (1,)): 3}
    assert parse_poly("x^" + zeros + "2", ctx).terms == {(0, (2,)): 1}
    for src in ("0" + zeros + "3*x", "x^0" + zeros + "2"):
        with pytest.raises(ValueError, match=f"longer than {MAX_LITERAL_DIGITS} digits"):
            parse_poly(src, ctx)


@pytest.mark.parametrize("src", ["1" * 5000 + "*x", "x^" + "1" * 5000])
def test_literal_budget_refuses_in_both_output_modes(src):
    """A 5,000-digit literal, past CPython's 4,300-digit limit, is refused
    before int() reads it, with a message that names the budget."""
    text = run_module_cli("certify", "--prime", "5", "--poly", src)
    as_json = run_module_cli("certify", "--prime", "5", "--json", "--poly", src)
    assert text == as_json == (
        2,
        "",
        f"error: a 5000-digit literal is longer than {MAX_LITERAL_DIGITS} digits"
        f" ({MAX_COEFFICIENT_BITS} bits), the budget of a literal in a source\n",
    )


@pytest.mark.parametrize("argv", [
    ("fpt-diagonal", "--prime", "3", "--exponents", "2,{}"),
    ("padic", "expand", "--prime", "3", "--value", "1/{}"),
])
def test_integer_options_literal_budget_boundaries(capsys, argv):
    """--exponents and --value read a digit run of MAX_LITERAL_DIGITS digits,
    with or without underscores; one more digit is refused.  Fraction()
    reads underscores between digits only from Python 3.11 on, so the
    underscored run that --value admits is read there alone."""
    zeros = "0" * (MAX_LITERAL_DIGITS - 1)
    want = run_cli(capsys, *argv[:-1], argv[-1].format("6"))
    assert want[0] == 0
    assert run_cli(capsys, *argv[:-1], argv[-1].format(zeros + "6")) == want
    if argv[0] == "fpt-diagonal" or sys.version_info >= (3, 11):
        assert run_cli(capsys, *argv[:-1], argv[-1].format("0_" + zeros[1:] + "6")) == want
    for digits in ("0" + zeros + "6", "0_" + zeros + "6"):
        code, out, err = run_cli(capsys, *argv[:-1], argv[-1].format(digits))
        assert (code, out) == (2, "")
        assert f"a {MAX_LITERAL_DIGITS + 1}-digit literal is longer than" in err


@pytest.mark.parametrize("argv, where", [
    (("fpt-diagonal", "--prime", "3", "--exponents", "2," + "1" * 5000), "--exponents"),
    (("padic", "expand", "--prime", "3", "--value", "1/" + "1" * 5000), "--value"),
    (("padic", "expand", "--prime", "3", "--value", "1" * 5000 + "/3"), "--value"),
])
def test_integer_options_refuse_long_literals(argv, where):
    """A 5,000-digit integer in --exponents or --value, past CPython's
    4,300-digit limit, is refused before int() or Fraction() reads it, with
    a message that names the budget."""
    assert run_module_cli(*argv) == (
        2,
        "",
        f"error: a 5000-digit literal is longer than {MAX_LITERAL_DIGITS} digits"
        f" ({MAX_COEFFICIENT_BITS} bits), the budget of a literal in {where}\n",
    )


@pytest.mark.parametrize("value", ["abc", "-5", "0", "2.5"])
def test_cli_refuses_a_bad_max_terms_value(monkeypatch, value):
    monkeypatch.setenv("THRESHOLD_LAB_MAX_TERMS", value)
    assert run_module_cli(
        "fpt-search", "--prime", "5", "--poly", "x^2 + y^3", "--level", "1"
    ) == (2, "", f"error: THRESHOLD_LAB_MAX_TERMS must be a positive integer, got {value!r}\n")


def _nested(depth: int, body: str = "x^2 + y^3") -> str:
    return "(" * depth + body + ")" * depth


def _nesting_refusal(depth: int) -> str:
    return (
        f"parentheses nested {depth} deep are past {MAX_NESTING},"
        " the budget of nesting in a source"
    )


def test_nesting_budget_boundaries():
    """A source nested MAX_NESTING deep parses; one more level is refused by
    the syntax check, in reading order, and 5,000 levels are refused at once
    instead of exhausting the recursion of the lowering."""
    ctx = RingContext(5, ("x", "y"))
    assert parse_poly(_nested(MAX_NESTING), ctx) == parse_poly("x^2 + y^3", ctx)
    with pytest.raises(ValueError) as info:
        parse_poly(_nested(MAX_NESTING + 1), ctx)
    assert str(info.value) == _nesting_refusal(MAX_NESTING + 1)
    with pytest.raises(ValueError) as info:
        parse_poly("(" * (MAX_NESTING + 1) + "+ x", ctx)  # a later syntax error
    assert str(info.value) == _nesting_refusal(MAX_NESTING + 1)
    with pytest.raises(PolySyntaxError) as info:
        parse_poly("x + * " + _nested(MAX_NESTING + 1), ctx)  # an earlier one
    assert info.value.offset == 4
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        parse_poly(_nested(5000), ctx)
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == _nesting_refusal(5000)


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_nesting_budget_refuses_in_both_output_modes(capsys, mode):
    argv = ("certify", "--prime", "5", *mode, "--poly")
    assert run_cli(capsys, *argv, _nested(MAX_NESTING))[0] == 0
    assert run_cli(capsys, *argv, _nested(1000)) == (
        2, "", f"error: {_nesting_refusal(1000)}\n"
    )


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_ram_budget_boundaries(capsys, mode):
    """certify reads a level A whose p^A has MAX_COEFFICIENT_BITS bits, and
    refuses one more bit, or a huge A, at once with a message that names
    the budget: the rule texts write integers the size of p^A."""
    assert (2**13_999).bit_length() == MAX_COEFFICIENT_BITS
    argv = ("certify", "--poly", "x^2 + y^3", *mode)
    code, out, err = run_cli(capsys, *argv, "--prime", "2", "--ram", "13999")
    assert (code, err) == (0, "") and "1/2" in out
    for p, a in ((2, 14_000), (5, 7_000), (5, 10_000_000)):
        start = time.perf_counter()
        assert run_cli(capsys, *argv, "--prime", str(p), "--ram", str(a)) == (
            2,
            "",
            f"error: --ram {a} makes p^ram = {p}^{a} longer than {MAX_COEFFICIENT_BITS}"
            " bits, the budget of p^ram\n",
        )
        assert time.perf_counter() - start < 0.1


def test_max_level_budget_boundaries(capsys, monkeypatch):
    """limit-profile is held to the budget of p^E for --max-level E: at p = 5
    it reads the levels up to 6,029 and refuses 6,030, or a huge E, before
    any level runs, with a message that names --max-level and the budget."""
    assert (5**6_029).bit_length() <= MAX_COEFFICIENT_BITS < (5**6_030).bit_length()
    levels = []
    monkeypatch.setattr(sys.modules["threshold_lab.cli"], "limit_profile",
                        lambda f, e_max: levels.append(e_max) or limit_profile(f, 1))
    argv = ("limit-profile", "--poly", "p^2 + x^2", "--prime", "5", "--max-level")
    assert run_cli(capsys, *argv, "6029")[0] == 0
    for a in (6_030, 10_000_000):
        assert run_cli(capsys, *argv, str(a)) == (
            2,
            "",
            f"error: --max-level {a} makes p^max-level = 5^{a} longer than"
            f" {MAX_COEFFICIENT_BITS} bits, the budget of p^max-level\n",
        )
    assert levels == [6_029]


# -- CLI subcommands -------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_fpt_diagonal(capsys):
    code, out, _ = run_cli(capsys, "fpt-diagonal", "--prime", "2", "--exponents", "3,3,3")
    assert code == 0 and out == "1/2\n"


def test_cli_fpt_diagonal_rejects_bad_exponent(capsys):
    code, _, err = run_cli(capsys, "fpt-diagonal", "--prime", "2", "--exponents", "1,2")
    assert code == 2
    assert "error" in err


def run_module_cli(*argv, timeout=10):
    """`python -m threshold_lab.cli ARGV` in a fresh interpreter, cut at
    `timeout` seconds."""
    import threshold_lab

    src = os.path.dirname(os.path.dirname(threshold_lab.__file__))
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-m", "threshold_lab.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_fpt_diagonal_large_prime():
    """A 61-bit prime is decided at once, not by trial division."""
    assert run_module_cli(
        "fpt-diagonal", "--prime", "2305843009213693951", "--exponents", "2,3"
    ) == (0, "5/6\n", "")


@pytest.mark.parametrize("prime, exponents, value", [
    ("3", "1000000007,1000000009", "5083/2541865828329"),  # L = 26
    ("2", "1000000007", "1/1000000007"),
])
def test_cli_fpt_diagonal_large_exponents(prime, exponents, value):
    """Digits are read until the first carry; no period is computed first."""
    assert run_module_cli(
        "fpt-diagonal", "--prime", prime, "--exponents", exponents
    ) == (0, value + "\n", "")


@pytest.mark.parametrize("poly, byte", [
    ("x^\u00b2", 2),
    ("x\udcff", 1),  # how Linux hands the argv bytes b"x\xff" to Python
])
def test_cli_reports_syntax_error_byte(capsys, poly, byte):
    code, out, err = run_cli(capsys, "certify", "--prime", "3", "--poly", poly)
    assert (code, out) == (2, "")
    assert f"syntax error at byte {byte}" in err


def test_cli_padic_expand_refuses_long_period():
    """1/1000000007 has a base-2 period of about 5 * 10^8 digits."""
    code, out, err = run_module_cli(
        "padic", "expand", "--value", "1/1000000007", "--prime", "2"
    )
    assert (code, out) == (2, "")
    assert "digit budget of 100000" in err


def test_cli_padic_expand_budget_message_leaves_out_the_number():
    """A 4,215-digit denominator within the literal budget, whose period is
    past the digit budget: the refusal names the base and the budget, not
    the number."""
    code, out, err = run_module_cli(
        "padic", "expand", "--prime", "3", "--value", "1/" + "1" * MAX_LITERAL_DIGITS
    )
    assert (code, out) == (2, "")
    assert "digit budget of 100000" in err and "base 3" in err
    assert len(err) < 200


@pytest.mark.parametrize("value, digits", [("1e-5000", 5001), ("1e-9999999", 10_000_000)])
def test_cli_padic_expand_refuses_huge_exponent_form(value, digits):
    """Fraction() would build 10^5000 or 10^9999999 from a short digit run:
    the exponent is held to the literal budget before Fraction() reads it."""
    assert run_module_cli("padic", "expand", "--prime", "3", "--value", value) == (
        2,
        "",
        f"error: a {digits}-digit literal is longer than {MAX_LITERAL_DIGITS} digits"
        f" ({MAX_COEFFICIENT_BITS} bits), the budget of a literal in --value\n",
    )


def test_cli_padic_expand_exponent_form_boundaries(capsys):
    """A decimal or exponent form reads as the fraction it spells; a
    numerator or denominator of MAX_LITERAL_DIGITS digits is read, one more
    digit is refused, although each digit run of the source fits."""
    want = run_cli(capsys, "padic", "expand", "--prime", "3", "--value", "1/1000")
    assert want[0] == 0
    for value in ("1e-3", "0.001", "1E-3", ".1e-2", "10e-4"):
        assert run_cli(capsys, "padic", "expand", "--prime", "3", "--value", value) == want
    edge, half = MAX_LITERAL_DIGITS - 1, MAX_LITERAL_DIGITS // 2
    for value in (f"1e-{edge}", "0." + "0" * (edge - 1) + "1", f"1e{edge}",
                  "1" * half + "." + "1" * (half + 1)):
        code, out, err = run_cli(capsys, "padic", "expand", "--prime", "5", "--value", value)
        assert (code, out) == (2, "")
        assert "literal" not in err
    for value in (f"1e-{edge + 1}", "0." + "0" * edge + "1", f"1e{edge + 1}",
                  "1" * (half + 1) + "." + "1" * (half + 1)):
        code, out, err = run_cli(capsys, "padic", "expand", "--prime", "5", "--value", value)
        assert (code, out) == (2, "")
        assert f"a {MAX_LITERAL_DIGITS + 1}-digit literal is longer than" in err


def test_cli_padic_expand_names_a_zero_denominator(capsys):
    assert run_cli(capsys, "padic", "expand", "--prime", "3", "--value", "1/0") == (
        2, "", "error: --value has a zero denominator\n",
    )


@pytest.mark.parametrize("digits", ["100000000", "100001", "-5"])
def test_cli_padic_expand_refuses_digits_outside_budget(digits):
    code, out, err = run_module_cli(
        "padic", "expand", "--value", "1/6", "--prime", "3", "--digits", digits
    )
    assert (code, out) == (2, "")
    assert "digit budget of 100000" in err


def test_cli_padic_expand_digits_at_budget(capsys):
    code, out, _ = run_cli(
        capsys, "padic", "expand", "--value", "1/6", "--prime", "3", "--digits", "100000",
    )
    assert code == 0
    assert out.splitlines()[2] == "digits = " + str([0] + [1] * 99_999)


@pytest.mark.parametrize("level", ["4000", "5000", "30000000"])
def test_cli_fpt_search_refuses_huge_level(level):
    """The oracle refuses from e*n alone: no power of p is taken or printed."""
    code, out, err = run_module_cli(
        "fpt-search", "--prime", "3", "--poly", "x^2 + y^3", "--level", level
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: monomial space p^(e*n) = 3^{2 * int(level)} exceeds budget "
        "100000000; raise THRESHOLD_LAB_MAX_TERMS to override\n"
    )


def test_cli_refuses_prime_beyond_primality_bound(capsys):
    code, _, err = run_cli(capsys, "fpt-diagonal", "--prime", str(2**89 - 1), "--exponents", "2,3")
    assert code == 2
    assert "too large" in err


def test_cli_fpt_search_json(capsys):
    code, out, _ = run_cli(
        capsys, "fpt-search", "--prime", "3",
        "--poly", "x^4 + y^4 + z^4 + x^2*y^2*z^2", "--level", "2", "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "p": 3, "level": 2, "nu": 4, "lower": "4/9", "upper": "5/9",
    }


def test_cli_fpt_search_text(capsys):
    code, out, _ = run_cli(
        capsys, "fpt-search", "--prime", "2", "--poly", "x^3 + y^3", "--level", "3",
    )
    assert code == 0
    assert out.splitlines() == ["nu_3 = 3", "lower = 3/8", "upper = 1/2"]


def test_cli_padic_expand(capsys):
    code, out, _ = run_cli(
        capsys, "padic", "expand", "--value", "1/6", "--prime", "3", "--digits", "5",
    )
    assert code == 0
    assert out.splitlines() == [
        "preperiod = [0]",
        "period = [1]",
        "digits = [0, 1, 1, 1, 1]",
    ]


def test_cli_padic_kummer_and_lucas(capsys):
    code, out, _ = run_cli(capsys, "padic", "kummer", "--n", "16", "--m", "8", "--prime", "5")
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(capsys, "padic", "lucas", "--n", "7", "--m", "3", "--prime", "2")
    assert code == 0 and out == "1\n"


def test_cli_padic_magic(capsys):
    code, out, _ = run_cli(capsys, "padic", "magic", "--prime", "5")
    assert code == 0
    assert out.splitlines() == ["[1, 3]", "[3, 1]"]


def test_cli_certify_text(capsys):
    code, out, _ = run_cli(capsys, "certify", "--prime", "2", "--poly", "p^3 + x^3 + y^3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lower = 1/2 (strict)"
    assert lines[1] == "upper = 3/4"
    assert lines[2] == "exact = none"
    assert lines[3].startswith("rules = fpt_lower, blowup_diagonal, extremal_strict")
    assert any(line.startswith("note: ") for line in lines)


@pytest.mark.parametrize("argv", [
    ("certify", "--prime", "3", "--poly", "x^2 + y^3"),
    ("limit-profile", "--prime", "3", "--poly", "p + x^2 + y^3", "--max-level", "1"),
    ("fpt-search", "--prime", "3", "--poly", "x^2 + y^3", "--level", "1"),
], ids=lambda argv: argv[0])
def test_cli_tokenizes_each_source_once(capsys, monkeypatch, argv):
    """The command reads its variables and its polynomial off one tokenize."""
    mod = sys.modules["threshold_lab.cli"]
    calls = []

    def counted(src):
        calls.append(src)
        return tokenize(src)

    monkeypatch.setattr(mod, "tokenize", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == [argv[4]]


def test_parse_source_reads_variables_and_polynomial():
    ctx, f = parse_source("y*x + p^2", 5, ram=1)
    assert ctx == RingContext(5, ("y", "x"), ram_level=1)
    assert f == parse_poly("y*x + p^2", ctx)
    ctx, f = parse_source("p^2", 3, cyclotomic=True)
    assert ctx == RingContext(3, ("x",), cyclotomic=True)
    assert f == parse_poly("p^2", ctx)
    with pytest.raises(PolySyntaxError, match="byte 2"):
        parse_source("x $ y", 3)


def test_cli_certify_exact_text(capsys):
    code, out, _ = run_cli(capsys, "certify", "--prime", "2", "--poly", "x^2 + p^2")
    assert code == 0
    assert "exact = 1/2" in out.splitlines()


def test_cli_certify_json_is_byte_stable(capsys):
    args = ("certify", "--prime", "5", "--ram", "1",
            "--poly", "x^3 + y^3 + z^3", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["exact"] == "4/5"
    assert doc["input"]["ctx"]["ram_level"] == 1
    assert [r["id"] for r in doc["rules"]]


def test_cli_certify_require_bound_abstention(capsys):
    code, out, _ = run_cli(capsys, "certify", "--prime", "2", "--poly", "p*x",
                           "--require-bound")
    assert code == 1
    code, _, _ = run_cli(capsys, "certify", "--prime", "2", "--poly", "p*x")
    assert code == 0
    code, _, _ = run_cli(capsys, "certify", "--prime", "2", "--poly", "x^2 + p^2",
                         "--require-bound")
    assert code == 0


def test_cli_certify_cyclotomic(capsys):
    code, out, _ = run_cli(capsys, "certify", "--prime", "3", "--cyclotomic",
                           "--poly", "x^3 + p^3")
    assert code == 0
    assert "exact = 1/3" in out.splitlines()


@pytest.mark.parametrize("argv", [
    ("certify", "--prime", "4", "--poly", "x^2"),
    ("certify", "--prime", "3", "--ram", "1", "--cyclotomic", "--poly", "x^2"),
    ("certify", "--prime", "3", "--poly", "x^(1/2)"),
    ("certify", "--prime", "3", "--poly", "x^-2"),
    ("certify", "--prime", "3", "--poly", ""),
    ("certify", "--prime", "3", "--poly", "1 + x"),
    ("fpt-search", "--prime", "3", "--poly", "p^2", "--level", "1"),
    ("padic", "magic", "--prime", "7"),
    ("padic", "expand", "--value", "3/2", "--prime", "3"),
])
def test_cli_input_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.strip()


def test_cli_syntax_error_message(capsys):
    code, _, err = run_cli(capsys, "certify", "--prime", "3", "--poly", "x^(1/2)")
    assert code == 2
    assert "syntax error at byte 2" in err
    assert "fractional or compound exponents are not allowed" in err


def test_cli_internal_inconsistency_exits_3(capsys, monkeypatch):
    mod = sys.modules["threshold_lab.cli"]

    def boom(f, ctx):
        raise InternalInconsistencyError("mutually exclusive certified bounds")

    monkeypatch.setattr(mod, "certify", boom)
    code, _, err = run_cli(capsys, "certify", "--prime", "2", "--poly", "x^2")
    assert code == 3
    assert "mutually exclusive" in err


def test_cli_limit_profile_text(capsys):
    code, out, _ = run_cli(capsys, "limit-profile", "--prime", "5",
                           "--poly", "p^2 + x^2", "--max-level", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a=0: lower = 1, upper = 1 [exact]"
    assert lines[1] == "a=1: lower = 3/5, upper = 3/5 [exact]"
    assert lines[2] == "a=2: lower = 13/25, upper = 13/25 [exact]"
    assert lines[3] == "limit = 1/2"
    assert any("not attained" in line for line in lines)


def test_cli_limit_profile_zero_residue(capsys):
    """On an f whose residue mod pi is zero, the note names the zero
    residue, not a non-diagonal one."""
    code, out, _ = run_cli(capsys, "limit-profile", "--prime", "5",
                           "--poly", "p*x + p^2", "--max-level", "1")
    assert code == 0
    assert out.splitlines() == [
        "a=0: lower = none, upper = 1",
        "a=1: lower = none, upper = 1",
        "limit = unknown",
        "note: limit not computed: the residue f mod pi is zero",
    ]


def test_cli_limit_profile_json(capsys):
    code, out, _ = run_cli(capsys, "limit-profile", "--prime", "2",
                           "--poly", "p^3 + x^3 + y^3", "--max-level", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["limit"] == "1/2"
    assert doc["attained"] is True
    assert [s["upper"] for s in doc["steps"]] == ["3/4", "1/2"]


def test_cli_verify_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "combinatorics")
    assert code == 0
    assert "checks passed" in out


def test_cli_verify_takes_no_prime_max(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "certify", "--prime-max", "1")
    assert code == 2
    assert "unrecognized arguments: --prime-max" in err


def test_cli_certify_takes_no_family(capsys):
    code, _, err = run_cli(
        capsys, "certify", "--prime", "2", "--poly", "p^3 + x^3 + y^3", "--family", "diag_cubic_p3"
    )
    assert code == 2
    assert "unrecognized arguments: --family" in err


def test_cli_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 2


def test_cli_usage_error_is_exit_2(capsys):
    code, _, _ = run_cli(capsys, "fpt-diagonal", "--exponents", "2,2")
    assert code == 2
