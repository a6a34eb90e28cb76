"""No nested function of the package reaches its own name.

A nested function that calls itself, directly or through functions nested
beside it, holds itself through the cell of its enclosing scope: each call
of the enclosing function leaves one reference cycle, which only the cyclic
collector frees.  The checker runs with that collector paused, so such a
helper belongs at module level, with its state passed as arguments."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/totality/*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_reaching(source: str) -> list:
    """"name:line" of each function nested in a function of `source` that
    reaches its own name, directly or through the functions nested in the
    same one, sorted."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, FUNCTIONS):
            continue
        inner = {node.name: node for node in ast.walk(outer)
                 if isinstance(node, FUNCTIONS) and node is not outer}
        refers = {name: {node.id for node in ast.walk(fn)
                         if isinstance(node, ast.Name) and node.id in inner}
                  for name, fn in inner.items()}
        for name, fn in inner.items():
            reached, todo = set(), [name]
            while todo:
                new = refers[todo.pop()] - reached
                reached |= new
                todo += new
            if name in reached:
                found.add("%s:%d" % (name, fn.lineno))
    return sorted(found)


def test_scan_finds_self_reaching_functions():
    source = ("def outer(xs):\n"
              "    def walk(x):\n"
              "        return [walk(y) for y in x]\n"
              "    def even(n):\n"
              "        return n == 0 or odd(n - 1)\n"
              "    def odd(n):\n"
              "        return n != 0 and even(n - 1)\n"
              "    def once(x):\n"
              "        return helper(x)\n"
              "    return walk(xs), even(3), once(xs)\n\n"
              "def helper(x):\n"
              "    return helper(x[1:]) if x else x\n\n"
              "class A:\n"
              "    def method(self, n):\n"
              "        return self.method(n - 1) if n else 0\n")
    assert self_reaching(source) == ["even:4", "odd:6", "walk:2"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_self_reaching_nested_functions(path):
    assert self_reaching(path.read_text(encoding="utf-8")) == []
