"""The package surface: ``threshold_lab.__all__`` against what ``__init__``
imports, and the imports of every engine module against what it reads."""

import ast
import subprocess
import sys
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


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads (``__all__`` counts as a
    read), but for an import whose line carries ``# noqa: F401`` under a
    comment that names bench/run.py, which wraps the name on the module."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = {getattr(t, "id", None) for t in getattr(node, "targets", ())}
        if "__all__" in targets:
            read |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        comment, i = [], node.lineno - 2
        while i >= 0 and lines[i].lstrip().startswith("#"):
            comment.append(lines[i])
            i -= 1
        if "# noqa: F401" in lines[node.lineno - 1] and "bench/run.py" in " ".join(comment):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_engine_modules_read_every_import():
    """No linter runs in CI, so this is the check for an import left behind
    when the code that read it moved or went away."""
    engine = Path(threshold_lab.__file__).parent
    assert [u for path in sorted(engine.glob("*.py")) for u in unused_imports(path)] == []


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


def test_engine_import_leaves_out_dataclasses_inspect_and_argparse():
    """The seven modules, imported in a fresh interpreter without site
    packages, load none of these: the records are named tuples or plain
    classes, and only the command line's parser imports argparse.  -I
    ignores PYTHONDONTWRITEBYTECODE, so -B keeps the source tree clean."""
    src = str(Path(threshold_lab.__file__).parent.parent)
    code = (
        "import importlib, sys; sys.path.insert(0, sys.argv[1]); "
        "[importlib.import_module('threshold_lab.' + m) for m in "
        "('cli', 'certify', 'poly', 'fpt', 'exact', 'digits', 'verify')]; "
        "print(sorted({'dataclasses', 'inspect', 'argparse'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
