"""Checks on the package's source text."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "phenkf"
# the oldest Python the package declares it runs on
FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                 (TESTS.parent / "pyproject.toml").read_text()).groups()))


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


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    # no linter is part of the toolchain; __init__.py imports to re-export
    assert _unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_source_parses_at_the_python_floor(path):
    # the tests run on one newer Python, so syntax past the floor would
    # pass them and fail on the oldest Python the package claims
    ast.parse(path.read_text(), feature_version=FLOOR)


def test_python_floor_check_refuses_newer_syntax():
    assert FLOOR == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)


def test_unused_import_check_sees_a_dead_name():
    tree = ast.parse("import os\nfrom sys import argv, path\nprint(path)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "argv")]


ENVIRONMENT_READERS = {"environ", "getenv"}


def _environment_reads(tree):
    """Lines where a tree reads os.environ or os.getenv, as an attribute of
    os or as a name imported from it."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
                  and isinstance(node.value, ast.Name) and node.value.id == "os"
                  or isinstance(node, ast.ImportFrom) and node.module == "os"
                  and any(alias.name in ENVIRONMENT_READERS for alias in node.names))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    # a setting has one channel, its flag: no module reads the environment
    assert _environment_reads(ast.parse(path.read_text())) == []


def test_environment_read_check_sees_a_read():
    tree = ast.parse("import os\nfrom os import getenv\nos.environ.get('A')\nos.path.join('a')\n")
    assert _environment_reads(tree) == [2, 3]


def _definitions(tree, private=True):
    """Module-level functions and classes whose name starts with "_", or
    with `private` false, whose name does not."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private}


def _read_names(tree):
    """Names a tree reads: as a name, as an attribute or as an imported name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _dead_names(trees, private=True):
    """(module, line, name) of each private definition, or with `private`
    false each public one, that no module reads.  `__init__.py`'s
    re-exports are imports, so they count as reads."""
    read = set().union(*map(_read_names, trees.values()))
    return sorted((module, line, name) for module, tree in trees.items()
                  for name, line in _definitions(tree, private).items() if name not in read)


def _package_trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def test_no_dead_private_names():
    trees = _package_trees()
    assert sum(len(_definitions(tree)) for tree in trees.values()) > 0
    assert _dead_names(trees) == []


# public names that no module of the package reads, each with its reason
UNREAD_PUBLIC = {
    "verify_kink_flip": "entry point of acceptance criterion 5",
    "star_mesh_eliminate": "entry point of acceptance criterion 1",
}


def test_no_dead_public_names():
    # a public function or class is read by the package, re-exported by
    # __init__.py, or listed above with its reason
    trees = _package_trees()
    assert sum(len(_definitions(tree, private=False)) for tree in trees.values()) > 0
    assert sorted(name for _, _, name in _dead_names(trees, private=False)) == sorted(UNREAD_PUBLIC)


def test_only_the_engine_names_the_factor():
    # the grounded factorization's order, ground and scale stay behind the
    # engine's readers: no other module of the package imports or reads it
    naming = [module for module, tree in _package_trees().items() if "_GroundedFactor" in _read_names(tree)]
    assert naming == ["resistance_engine.py"]


def test_dead_private_name_check_sees_a_dead_name():
    trees = {
        "a.py": ast.parse("def _called(): pass\ndef _dead(): pass\nclass _Read: pass\n"
                          "def _imported(): pass\n_called()\n"),
        "b.py": ast.parse("import a\nfrom a import _imported\na._Read\n_dead = 1\n"),
    }
    assert _dead_names(trees) == [("a.py", 2, "_dead")]


def test_dead_public_name_check_sees_a_dead_name():
    trees = {
        "a.py": ast.parse("def called(): pass\ndef dead(): pass\nclass Exported: pass\n"
                          "def _private(): pass\ncalled()\n"),
        "__init__.py": ast.parse("from .a import Exported\n"),
    }
    assert _dead_names(trees, private=False) == [("a.py", 2, "dead")]
