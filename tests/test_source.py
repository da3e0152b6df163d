"""Checks on the package's source text."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phenkf"


def _unused_imports(tree):
    """Names that an import statement binds and no other node reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # no linter is part of the toolchain; __init__.py imports to re-export
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_sees_a_dead_name():
    tree = ast.parse("import os\nfrom sys import argv, path\nprint(path)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "argv")]
