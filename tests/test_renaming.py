"""A verdict does not depend on names, nor on the other groups of the
program.  Each corpus file is checked with every identifier renamed,
except the keywords and the names the checker gives a meaning of its own,
at B=D 1 to 4: the verdicts, their dependencies, the closures and the
dumps are the original's up to the renaming.  A renaming that keeps the
order of the names keeps the key of each group's calling clauses
(`callgraph.clauses_key`), so a renamed copy of a group takes its
original's call graph and closure renamed.  Reordering the groups, and
adding a group that calls none of them, changes no verdict."""

import argparse
import random
import re

import pytest

from conftest import CORPUS, annotated_groups
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
# a group, with the pragma before it; the names it defines
GROUP = re.compile(r"(?:-- totality:.*\n)*val ")
DEFINED = re.compile(r"(?m)^(?:val|and)\s+([^\W\d][\w']*)")
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


def top_blocks(source: str) -> list:
    """The top-level blocks of `source`, which make it up in order, each
    group with the pragma before it."""
    blocks, pragma = [], ""
    for block in BLOCK.split(source):
        if block.startswith("-- totality:"):
            pragma += block
        elif block:
            blocks.append(pragma + block)
            pragma = ""
    return blocks


def reordered(source: str, rng) -> str:
    """`source` with its declarations first, in order, and its groups
    after them in a random order that keeps each group after the groups it
    calls."""
    blocks = top_blocks(source)
    found = [(block, set(DEFINED.findall(block))) for block in blocks
             if GROUP.match(block)]
    defined = set().union(*(names for _, names in found))
    waiting = [(block, set(NAME.findall(block)) & defined - names, names)
               for block, names in found]
    out = [block for block in blocks if not GROUP.match(block)]
    placed = set()
    while waiting:
        ready = [entry for entry in waiting if entry[1] <= placed]
        block, _, names = entry = rng.choice(ready)
        waiting.remove(entry)
        out.append(block)
        placed |= names
    return "".join(block if block.endswith("\n") else block + "\n"
                   for block in out)


def counted_keys(monkeypatch) -> list:
    """The groups keyed (`clauses_key`) by the checks from here on."""
    keyed, key = [], checker.clauses_key

    def clauses_key(adefs):
        keyed.append(tuple(d.fname for d in adefs))
        return key(adefs)

    monkeypatch.setattr(checker, "clauses_key", clauses_key)
    return keyed


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", NAMES)
def test_reordering_groups_keeps_verdicts(monkeypatch, name, bound):
    """The program with a copy renamed keeping the order of the names,
    every declaration first and the groups in seeded random orders that
    keep each group after the groups it calls.  Each group takes its
    original's verdict and closure, renamed back.  A copy and its original
    share their key, so whichever comes first is closed, and the other is
    keyed against it."""
    source = (CORPUS / name).read_text()
    original = check(source, bound)
    copy, names = copied(source)
    rng = random.Random("reordered %s %d" % (name, bound))
    kept = order_kept(names, rng)
    back = inverse(kept)
    program = source + renamed(copy, kept, TOKEN)
    want = verdicts(original.verdicts, {})
    keyed = counted_keys(monkeypatch)
    for _ in range(3):
        report = check(reordered(program, rng), bound)
        assert report.errors == []
        mine = [v for v in report.verdicts if v.fname not in back]
        theirs = [v for v in report.verdicts if v.fname in back]
        assert verdicts(mine, {}) == verdicts(theirs, back) == want
        assert sorted(groups(report.groups, back), key=repr) == sorted(
            groups(original.groups, {}) * 2, key=repr)
    assert keyed


def unrelated(members: int, calling: int) -> str:
    """A group of fresh names that calls no other group, with `members`
    members and `calling` clauses that call one; each member calls the
    next, and `zzw1` also itself."""
    found = []
    for i in range(1, members + 1):
        clauses = ["zzw%d (ZzB x) = zzw%d x" % (i, i % members + 1)]
        if i == 1:
            clauses += ["zzw1 %sx%s = zzw1 x" % ("(ZzB " * k, ")" * k)
                        for k in range(2, calling - members + 2)]
        found.append("%s zzw%d : zzu -> zzu | %s" % (
            "val" if i == 1 else "and", i, " | ".join(clauses)))
    return "\n".join(["data zzu where ZzA : zzu | ZzB : zzu -> zzu"]
                     + found) + "\n"


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", NAMES)
def test_unrelated_group_changes_no_verdict(monkeypatch, name, bound):
    """A group of fresh names that calls nothing of the program, put
    before each group with calls in turn, with that group's member and
    calling clause counts, so that the group after it is keyed against it:
    the new group is `TOTAL` and every other verdict and closure stays."""
    source = (CORPUS / name).read_text()
    original = check(source, bound)
    want = verdicts(original.verdicts, {}), groups(original.groups, {})
    blocks = top_blocks(source)
    starts = [k for k, block in enumerate(blocks) if GROUP.match(block)]
    keyed = counted_keys(monkeypatch)
    inserted = 0
    for k, (analyzed, _) in zip(starts, annotated_groups(name)):
        members = {d.fname for d in analyzed.defs}
        calling = sum(not members.isdisjoint(cl.calls)
                      for d in analyzed.defs for cl in d.clauses)
        if not calling:
            continue
        added, before = unrelated(len(members), calling), len(keyed)
        report = check("".join(blocks[:k] + [added] + blocks[k:]), bound)
        assert report.errors == []
        new = {v.fname: v.result for v in report.verdicts
               if v.fname.startswith("zzw")}
        assert new == {"zzw%d" % i: "total"
                       for i in range(1, len(members) + 1)}
        assert (verdicts([v for v in report.verdicts if v.fname not in new],
                         {}),
                groups([g for g in report.groups if g.names[0] not in new],
                       {})) == want
        assert {tuple(new), tuple(d.fname for d in analyzed.defs)} <= set(
            keyed[before:])
        inserted += 1
    assert inserted
