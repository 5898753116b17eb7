"""Tests for the expression parser and the command-line interface."""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.certify import InternalInconsistencyError, RingContext
from threshold_lab.cli import (
    IntLit,
    PolySyntaxError,
    Power,
    Product,
    Sum,
    VarRef,
    _Parser,
    format_poly_src,
    infer_variables,
    main,
    parse_poly,
    tokenize,
)
from threshold_lab.poly import MixedPoly, pow_mixed


def ctx_for(src, p=2, ram=0):
    return RingContext(p, infer_variables(src) or ("x",), ram_level=ram)


# -- parsing ---------------------------------------------------------------


def test_tokenize_positions():
    toks = tokenize("x + 12*y")
    assert [(t.kind, t.text, t.offset) for t in toks] == [
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
    assert [t.offset for t in tokenize(src)] == [0, 3, 5, 6, 7, 8, 9, 10, 11, 12]


def test_unknown_variable_is_rejected():
    with pytest.raises(ValueError) as info:
        parse_poly("x + q", RingContext(3, ("x",)))
    assert "q" in str(info.value)
    assert not isinstance(info.value, PolySyntaxError)


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


def reference_lowering(src, ctx):
    """The lowering on public MixedPoly arithmetic only: every node is a
    validated MixedPoly, sums and differences use +, products *, powers
    pow_mixed."""
    zero = (0,) * ctx.n_vars

    def poly(pi, exps, c):
        return MixedPoly(ctx.p, ctx.ram_level, ctx.vars, {(pi, exps): c})

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
                acc = acc + poly(0, zero, sign) * go(part)
            return acc
        if isinstance(node, Product):
            acc = poly(0, zero, 1)
            for factor in node.factors:
                acc = acc * go(factor)
            return acc
        assert isinstance(node, Power)
        return pow_mixed(go(node.base), node.exponent)

    return go(_Parser(tokenize(src)).parse())


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


def run_module_cli(*argv):
    """`python -m threshold_lab.cli ARGV` in a fresh interpreter, cut at 10 s."""
    import threshold_lab

    src = os.path.dirname(os.path.dirname(threshold_lab.__file__))
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-m", "threshold_lab.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
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

    def boom(f, ctx, family=None):
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


def test_cli_limit_profile_json(capsys):
    code, out, _ = run_cli(capsys, "limit-profile", "--prime", "2",
                           "--poly", "p^3 + x^3 + y^3", "--max-level", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["limit"] == "1/2"
    assert doc["attained"] is True
    assert [s["upper"] for s in doc["steps"]] == ["3/4", "1/2"]


def test_cli_verify_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "combinatorics",
                           "--prime-max", "3")
    assert code == 0
    assert "checks passed" in out


def test_cli_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 2


def test_cli_usage_error_is_exit_2(capsys):
    code, _, _ = run_cli(capsys, "fpt-diagonal", "--exponents", "2,2")
    assert code == 2
