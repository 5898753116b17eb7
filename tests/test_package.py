"""The package surface: ``threshold_lab.__all__`` against what ``__init__`` imports."""

import ast
from pathlib import Path

import threshold_lab


def imported_names() -> set[str]:
    """The names ``__init__`` binds with ``from .module import ...``."""
    tree = ast.parse(Path(threshold_lab.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_export_resolves():
    missing = [name for name in threshold_lab.__all__ if not hasattr(threshold_lab, name)]
    assert missing == []


def test_exports_sorted_unique_and_imported():
    exports = threshold_lab.__all__
    assert exports == sorted(set(exports))
    assert set(exports) == imported_names()


def test_star_import():
    namespace: dict = {}
    exec("from threshold_lab import *", namespace)
    assert set(threshold_lab.__all__) <= set(namespace)
