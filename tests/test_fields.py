"""Every field a class of the package or of the test reference declares in
`__slots__` is read."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package and the reference, whose term algebra declares the `Frozen`
# term nodes
SOURCES = sorted([*ROOT.glob("src/totality/*.py"),
                  *ROOT.glob("tests/reference/*.py")])


def slot_fields(tree) -> list:
    """(class name, field) for each `__slots__` field of each class in
    `tree`, in order."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets):
                out += [(node.name, elt.value)
                        for elt in ast.walk(stmt.value)
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)]
    return out


def read_attributes(tree) -> set:
    """The attribute names that `tree` loads, deletes or updates in
    place."""
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Load, ast.Del))}
    read.update(node.target.attr for node in ast.walk(tree)
                if isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute))
    return read


def unread_fields(sources) -> list:
    """"Class.field" for each `__slots__` field of the modules `sources`
    whose name none of them reads as an attribute, sorted."""
    trees = [ast.parse(source) for source in sources]
    read = set().union(*map(read_attributes, trees))
    return sorted("%s.%s" % (cls, field) for tree in trees
                  for cls, field in slot_fields(tree) if field not in read)


def test_scan_finds_unread_fields():
    first = ("class A:\n    __slots__ = ('kept', 'gone', 'bumped')\n\n"
             "    def __init__(self):\n"
             "        self.kept = self.gone = self.bumped = 0\n\n"
             "class B:\n    __slots__ = ('dropped',)\n\n"
             "    def f(self):\n        self.bumped += 1\n"
             "        del self.dropped\n")
    second = "def g(a):\n    a.gone = 1\n    return a.kept\n"
    assert unread_fields([first, second]) == ["A.gone"]
    assert unread_fields([first]) == ["A.gone", "A.kept"]


def test_every_slot_field_is_read():
    assert unread_fields(
        [path.read_text(encoding="utf-8") for path in SOURCES]) == []
