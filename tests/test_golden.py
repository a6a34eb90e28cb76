"""Byte-for-byte comparison of CLI output against committed golden files.

`tests/golden/NAME.bdN.txt` holds the output of

    totality check corpus/NAME.ch --dump-priorities --dump-callgraph \
        --dump-closure --bound-b N --bound-d N

for N in 1, 2, 3, 4, and `tests/golden/NAME.json` the output of
`totality check corpus/NAME.ch --json`, both run from the repository root.
A refactor that must not change what the checker prints keeps these files
unchanged; a change that is meant to alter the output regenerates them with
the same commands.
"""

import pathlib
import sys

import pytest

from conftest import CORPUS
from reference import terms
from totality.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
NAMES = sorted(p.stem for p in CORPUS.glob("*.ch"))


def cli_output(capsys, monkeypatch, *argv) -> str:
    monkeypatch.chdir(CORPUS.parent)
    main(["check", *argv])
    return capsys.readouterr().out


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
@pytest.mark.parametrize("name", NAMES)
def test_dumps_match_golden(name, bound, capsys, monkeypatch):
    out = cli_output(capsys, monkeypatch, "corpus/%s.ch" % name,
                     "--dump-priorities", "--dump-callgraph",
                     "--dump-closure", "--bound-b", str(bound),
                     "--bound-d", str(bound))
    expected = (GOLDEN / ("%s.bd%d.txt" % (name, bound))).read_text(
        encoding="utf-8")
    assert out == expected


@pytest.mark.parametrize("name", NAMES)
def test_json_matches_golden(name, capsys, monkeypatch):
    out = cli_output(capsys, monkeypatch, "corpus/%s.ch" % name, "--json")
    expected = (GOLDEN / ("%s.json" % name)).read_text(encoding="utf-8")
    assert out == expected


@pytest.mark.parametrize("name", NAMES)
def test_dumps_need_no_term_path(name, capsys, monkeypatch):
    """The checker extracts, composes, collapses, sorts, compares and
    prints calls on their items: with the reference `compose`,
    `substitute`, `collapse_depth`, `collapse_weights`, `sqcoh`, `sleq`,
    `extract_calls`, `clause_term`, `call_of_term`, `call_term`, `plug`
    and `tree_term`, the notation `term_str` and `parse_term`, every
    smart constructor, `sort_key` and `map_children` of `reference.terms`
    raising wherever they are bound, in `reference.terms` itself, in the
    other reference modules and in the package, every dump still matches
    its golden file."""
    def refuse(*args):
        raise AssertionError("the checker used the term path")

    originals = [terms.compose, terms.substitute, terms.collapse_depth,
                 terms.collapse_weights, terms.sqcoh, terms.sleq,
                 terms.extract_calls, terms.clause_term,
                 terms.call_of_term, terms.call_term, terms.plug,
                 terms.tree_term, terms.term_str, terms.parse_term,
                 terms.sum_of, terms.constr, terms.record, terms.funapp,
                 terms.constr_dual, terms.project, terms.daimon,
                 terms.approx, terms.sort_key, terms.map_children]
    patched = 0
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith(
                ("totality", "reference")):
            continue
        for attr, fn in list(vars(module).items()):
            if any(fn is f for f in originals):
                monkeypatch.setattr(module, attr, refuse)
                patched += module is terms
    assert patched == len(originals)
    for bound in (1, 2, 3, 4):
        out = cli_output(capsys, monkeypatch, "corpus/%s.ch" % name,
                         "--dump-priorities", "--dump-callgraph",
                         "--dump-closure", "--bound-b", str(bound),
                         "--bound-d", str(bound))
        expected = (GOLDEN / ("%s.bd%d.txt" % (name, bound))).read_text(
            encoding="utf-8")
        assert out == expected
