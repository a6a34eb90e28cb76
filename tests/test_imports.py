"""Every module-level import of the package and of the tests is read, and
every module parses as Python 3.10."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the tests and every subdirectory of theirs, such as the reference
SOURCES = sorted([*ROOT.glob("src/totality/*.py"),
                  *ROOT.glob("tests/**/*.py")])


def unused_imports(source: str) -> list:
    """The names that the module-level imports of `source` bind and that
    nothing in it reads, sorted; a name listed in `__all__` is read."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            bound.update((alias.asname or alias.name).partition(".")[0]
                         for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return sorted(bound - read)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport sys\n"
              "from a import b, c as d\nfrom e import f\n"
              "__all__ = ['f']\n\n"
              "def g():\n    import json\n    return sys.argv, d\n")
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    """The package and the tests declare Python 3.10 as their floor, and
    the interpreter that runs the suite may be newer."""
    ast.parse(path.read_text(encoding="utf-8"), str(path),
              feature_version=(3, 10))
