"""Every name a module imports is read somewhere in that module.

No linter is installed, so this stdlib scan stands in for one.  The
package's ``__init__`` is scanned apart: its imports are the public API, so
each must be listed in a literal ``__all__``, and no listed name may be a
module.
"""

import ast
import types
from pathlib import Path

import pytest

import mixedpf

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "mixedpf" / "__init__.py"
MODULES = sorted(
    [p for p in (ROOT / "src" / "mixedpf").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def imported_names(tree) -> set[str]:
    """The names the import statements of a module bind."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported


def literal_all(tree) -> list[str] | None:
    """The strings of a module-level ``__all__ = [...]`` literal, else None."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
            and isinstance(node.value, ast.List)
            and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.value.elts
            )
        ):
            return [e.value for e in node.value.elts]
    return None


def unused_imports(source: str) -> list[str]:
    """The names an import binds and no expression reads, sorted."""
    tree = ast.parse(source)
    imported = imported_names(tree)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from a import b, c as d\n"
        "def f(x: b):\n"
        "    return js.dumps(x)\n"
    )
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_reads_only_a_literal_all():
    assert literal_all(ast.parse("__all__ = ['a', 'b']\n")) == ["a", "b"]
    assert literal_all(ast.parse("__all__ = [n for n in dir()]\n")) is None
    assert literal_all(ast.parse("__all__ = ['a', b]\n")) is None


def test_init_lists_exactly_its_imports():
    tree = ast.parse(INIT.read_text())
    names = literal_all(tree)
    assert names is not None, "__all__ must be a literal list of strings"
    assert len(names) == len(set(names))
    assert set(names) == imported_names(tree)
    assert set(names) == set(mixedpf.__all__)
    modules = [n for n in names if isinstance(getattr(mixedpf, n), types.ModuleType)]
    assert modules == []
