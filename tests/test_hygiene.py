"""Source hygiene: every top-level import of a spanembed module or a test file is used or re-exported."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "spanembed"
MODULES = sorted(SRC.glob("*.py"))
TEST_FILES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads and `__all__` does not list."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {elt.value for elt in node.value.elts}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom x import a, b as c\nfrom y import d\n"
        "__all__ = ['d']\n"
        "def f():\n    return c + os.sep\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 4: a"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_FILES, ids=[p.name for p in TEST_FILES])
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
