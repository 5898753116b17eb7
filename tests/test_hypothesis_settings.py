"""Tier-1 runs under the one Hypothesis profile that ``conftest.py`` loads.

No other test module chooses what that profile sets: a ``derandomize=`` or
``database=`` keyword, a ``settings.load_profile`` call or a true-random
``st.randoms(use_true_random=True)`` elsewhere would make a module draw
different examples on each run, or keep them in a database.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def profile_overrides(tree: ast.AST):
    """(line, what) for each place in tree that sets what the profile sets."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword):
            if node.arg in ("derandomize", "database"):
                yield node.lineno, f"{node.arg}="
            elif node.arg == "use_true_random" and not (
                isinstance(node.value, ast.Constant) and node.value.value is False
            ):
                yield node.lineno, "use_true_random"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "load_profile":
                yield node.lineno, "load_profile"


def test_only_conftest_sets_the_profile():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "conftest.py"
        for line, what in profile_overrides(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_guard_sees_each_override():
    src = (
        "settings(derandomize=False)\n"
        "settings(database=None)\n"
        "st.randoms(use_true_random=True)\n"
        "settings.load_profile('explore')\n"
        "st.randoms(use_true_random=False)\n"
    )
    assert sorted(profile_overrides(ast.parse(src))) == [
        (1, "derandomize="), (2, "database="), (3, "use_true_random"), (4, "load_profile"),
    ]
