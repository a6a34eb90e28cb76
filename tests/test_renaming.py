"""A verdict does not depend on names.  Each corpus file is checked with
every identifier renamed, except the keywords and the names the checker
gives a meaning of its own, at B=D 1 to 4: the verdicts, their
dependencies, the closures and the dumps are the original's up to the
renaming.  A renaming that keeps the order of the names keeps the shape
of each group (`callgraph.shape`), so a renamed copy of a group takes its
original's closure renamed."""

import argparse
import random
import re

import pytest

from conftest import CORPUS
from totality import checker
from totality.checker import Config, analyze_source
from totality.cli import _render_text

KEYWORDS = {"data", "codata", "where", "val", "and", "_"}
# the names the checker gives a meaning of its own
BUILTIN = {"nat", "Zero", "Succ", "pair", "Fst", "Snd", "unit", "empty_record"}
# in a program: a comment, which keeps a pragma as it is, a type variable,
# or a name; in a report, a name
TOKEN = re.compile(r"--.*|'\w*|[^\W\d][\w']*")
NAME = re.compile(r"[^\W\d][\w']*")
# a top-level declaration or group, with the pragma before it
BLOCK = re.compile(r"(?m)^(?=data |codata |val |-- totality:)")
DUMPS = argparse.Namespace(dump_priorities=False, dump_callgraph=True,
                           dump_closure=True)
NAMES = sorted(path.name for path in CORPUS.glob("*.ch"))
BOUNDS = [1, 2, 3, 4]


def renamed(text: str, names: dict, token=NAME) -> str:
    """`text` with each name n of `names` read as `names[n]`; a program
    is read by `TOKEN`."""
    return token.sub(lambda m: names.get(m.group(), m.group()), text)


def identifiers(source: str, kept=KEYWORDS | BUILTIN) -> list:
    """The names of `source` that a renaming may change, sorted: not
    `kept`, nor the variables named like the argument positions `x1`,
    `x2`, ... that the dumps print, so that a dump renames as a whole."""
    return sorted({token for token in TOKEN.findall(source)
                   if token[0] not in "-'" and token not in kept
                   and not re.fullmatch(r"x\d+", token)})


def shuffled(names: list, rng) -> dict:
    """A renaming of `names` to fresh ones in a random order, each of the
    case of the name it replaces."""
    return {name: ("Q" if name[0].isupper() else "q") + str(k)
            for name, k in zip(names, rng.sample(range(len(names)),
                                                 len(names)))}


def order_kept(names: list, rng) -> dict:
    """A renaming of `names` that keeps their order, also against the names
    it leaves: a quote and digits after each, as a quote sorts below every
    other character a name can hold."""
    return {name: "%s'%d" % (name, rng.randrange(100)) for name in names}


def inverse(names: dict) -> dict:
    return {new: old for old, new in names.items()}


def check(source: str, bound: int):
    return analyze_source(source, Config(bound, bound))


def verdicts(found, back: dict) -> dict:
    """Each of the verdicts `found`, its result and the definitions it
    rests on, by definition, with the names read through `back`."""
    return {back.get(v.fname, v.fname): (
        v.result, sorted(back.get(name, name)
                         for name in v.depends_on_unknown))
            for v in found}


def groups(found, back: dict) -> list:
    """Each of the groups `found`, its names, stats and the names in each
    closure edge, with the names read through `back`.  A record prints its
    fields in the order of their names, so a renaming may reorder them."""
    return [(sorted(back.get(name, name) for name in g.names), g.stats,
             sorted(sorted(back.get(name, name)
                           for name in NAME.findall(str(edge)))
                    for edge in g.closure)) for g in found]


def copied(source: str) -> tuple:
    """What a copy of `source` repeats, every group and every declaration
    but `nat`'s, and the names it renames: a built-in name that a copied
    declaration declares again, such as the fields `Fst` and `Snd` of
    `swap.ch`'s own codata, too."""
    blocks = [block for block in BLOCK.split(source)
              if block.startswith(("val ", "codata ", "-- totality:"))
              or block.startswith("data ") and block.split()[1] != "nat"]
    declared = {found for block in blocks
                if block.startswith(("data ", "codata "))
                for found in re.findall(r"(\w+)\s*:", block)}
    return "".join(blocks), identifiers(source, KEYWORDS | BUILTIN - declared)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", NAMES)
def test_any_renaming_keeps_verdicts_and_closures(name, bound):
    source = (CORPUS / name).read_text()
    original = check(source, bound)
    rng = random.Random("%s %d" % (name, bound))
    for _ in range(3):
        names = shuffled(identifiers(source), rng)
        back = inverse(names)
        report = check(renamed(source, names, TOKEN), bound)
        assert report.errors == original.errors == []
        assert verdicts(report.verdicts, back) \
            == verdicts(original.verdicts, {})
        assert groups(report.groups, back) == groups(original.groups, {})


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", NAMES)
def test_order_kept_renaming_renames_the_dumps(name, bound):
    source = (CORPUS / name).read_text()
    names = order_kept(identifiers(source), random.Random(name))
    got = _render_text(check(renamed(source, names, TOKEN), bound), DUMPS)
    assert got == renamed(_render_text(check(source, bound), DUMPS), names)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", NAMES)
def test_renamed_copies_take_their_originals_verdicts(monkeypatch, name,
                                                      bound):
    """The program with two renamed copies after it, the first one's
    renaming keeping the order of the names.  Each of its groups is its
    original's shape, and takes its original's closure, verdict and
    reasons renamed, without a closure of its own; each group of the
    second gets its original's verdict and closure up to the renaming."""
    source = (CORPUS / name).read_text()
    copy, names = copied(source)
    rng = random.Random(name)
    kept, mixed = order_kept(names, rng), shuffled(names, rng)
    closed = []

    def transitive_closure(graph, *args):
        closed.append(graph.vertices)
        return close(graph, *args)

    close = checker.transitive_closure
    monkeypatch.setattr(checker, "transitive_closure", transitive_closure)
    original = check(source, bound)
    report = check("\n".join([source, renamed(copy, kept, TOKEN),
                              renamed(copy, mixed, TOKEN)]), bound)
    assert report.errors == []
    assert set(kept.values()).isdisjoint(
        vertex for vertices in closed for vertex in vertices)
    count, lines = len(original.groups), len(original.verdicts)
    assert len(report.groups) == 3 * count
    assert groups(report.groups[count:2 * count], inverse(kept)) \
        == groups(report.groups[2 * count:], inverse(mixed)) \
        == groups(original.groups, {})
    text = _render_text(original, DUMPS).splitlines()[:lines]
    assert _render_text(report, DUMPS).splitlines()[:2 * lines] \
        == text + [renamed(line, kept) for line in text]
    assert verdicts(report.verdicts[2 * lines:], inverse(mixed)) \
        == verdicts(original.verdicts, {})
