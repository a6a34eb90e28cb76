"""Driver behaviour: exit codes, reports, dumps, determinism."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import totality
from conftest import CORPUS, corpus_source
from totality import callgraph, checker
from totality.callgraph import InternalError
from totality.checker import Config, analyze_source
from totality.cli import main


# 380 written-out `Succ` in a call argument
DEEP_ARGUMENT = (
    "data nat where Zero : nat | Succ : nat -> nat\n"
    "val f : nat -> nat | f (Succ x) = f (%sZero%s) | f x = x\n"
    "val g : nat -> nat | g x = x\n" % ("Succ (" * 380, ")" * 380))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestExitCodes:
    def test_all_total_gives_zero(self, capsys):
        code, out = run_cli(capsys, "check", str(CORPUS / "nats.ch"),
                            "--bound-b", "1", "--bound-d", "1")
        assert code == 0
        assert "TOTAL nats" in out

    def test_unknown_gives_one(self, capsys):
        code, out = run_cli(capsys, "check", str(CORPUS / "bad_s.ch"))
        assert code == 1
        assert out.startswith("UNKNOWN bad_s:")

    def test_two_total_definitions_in_one_file(self, tmp_path, capsys):
        combined = tmp_path / "both.ch"
        combined.write_text(
            corpus_source("nats.ch")
            + "\ndata list('x) where Nil : list('x)"
            " | Cons : 'x -> list('x) -> list('x)\n"
            "val length : list('x) -> nat\n"
            "  | length Nil = Zero\n"
            "  | length (Cons _ l) = Succ (length l)\n")
        code, out = run_cli(capsys, "check", str(combined))
        assert code == 0
        assert out.splitlines() == ["TOTAL nats", "TOTAL length"]

    def test_missing_file_gives_two(self, capsys):
        code, _ = run_cli(capsys, "check", str(CORPUS / "missing.ch"))
        assert code == 2

    def test_undecodable_file_gives_two(self, tmp_path, capsys):
        bad = tmp_path / "latin1.ch"
        bad.write_bytes("-- caf\u00e9\n".encode("latin-1"))
        code = main(["check", str(bad), str(CORPUS / "nats.ch")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: %s: 'utf-8' codec" % bad)
        assert "Traceback" not in captured.err
        # the other files are still checked
        assert "TOTAL nats" in captured.out

    def test_type_error_gives_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.ch"
        bad.write_text("data nat where Zero : nat | Succ : nat -> nat\n"
                       "codata stream('x) where Head : stream('x) -> 'x\n"
                       "val f : nat -> nat | f x = { Head = x }\n")
        code, out = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert "ERROR f" in out

    @pytest.mark.parametrize("body, first, last", [
        # parsing recurses into the parentheses: located at a token in them
        ("(" * 3000 + "x" + ")" * 3000, 28, 28 + 3000),
    ], ids=["parentheses"])
    def test_deep_input_gives_two(self, tmp_path, capsys, body, first, last):
        deep = tmp_path / "deep.ch"
        deep.write_text("data nat where Zero : nat | Succ : nat -> nat\n"
                        "val f : nat -> nat | f x = %s\n" % body)
        code = main(["check", str(deep)])
        captured = capsys.readouterr()
        assert code == 2
        match = re.search(r"error: 2:(\d+): input nests too deeply to "
                          r"analyze", captured.out)
        assert match, captured.out
        assert first <= int(match.group(1)) <= last
        assert "Traceback" not in captured.out + captured.err

    def test_deep_call_argument_gives_one(self, tmp_path, capsys):
        # f (Succ x) calls f on 380 Succ over Zero, which loops forever;
        # the collapse sees D layers of the argument, so its depth does
        # not matter
        deep = tmp_path / "deep.ch"
        deep.write_text(DEEP_ARGUMENT)
        code = main(["check", str(deep)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines() == [
            "UNKNOWN f: loop f(Succ@1 Succ@1 ? Succ-@1 x1) fails both "
            "size-change conditions", "TOTAL g"]
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("body, col", [("\u00b2", 28), ("1\u00b2", 29)],
                             ids=["superscript", "after-digit"])
    def test_superscript_digit_gives_two(self, tmp_path, capsys, body, col):
        # str.isdigit accepts a superscript two, but int() does not
        path = tmp_path / "sup.ch"
        path.write_text("data nat where Zero : nat | Succ : nat -> nat\n"
                        "val f : nat -> nat | f x = %s\n" % body)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "error: 2:%d: unexpected character " \
            "'\u00b2'\n" % col
        assert "Traceback" not in captured.err

    def test_superscript_in_a_name_lexes(self, tmp_path, capsys):
        path = tmp_path / "sup.ch"
        path.write_text("data nat where Zero : nat | Succ : nat -> nat\n"
                        "val f : nat -> nat | f x\u00b2 = x\u00b2\n")
        code, out = run_cli(capsys, "check", str(path))
        assert (code, out) == (0, "TOTAL f\n")

    def test_multiple_files_take_worst(self, capsys):
        code, out = run_cli(capsys, "check", str(CORPUS / "nats.ch"),
                            str(CORPUS / "bad_s.ch"))
        assert code == 1
        assert "TOTAL nats" in out and "UNKNOWN bad_s" in out


class TestReports:
    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, "check", str(CORPUS / "magic.ch"),
                            "--json")
        doc = json.loads(out)
        assert set(doc) >= {"definitions", "priorities", "stats", "errors"}
        by_name = {d["name"]: d for d in doc["definitions"]}
        assert by_name["bad_s"]["result"] == "unknown"
        assert by_name["magic"]["depends_on_unknown"] == ["bad_s"]
        assert by_name["magic"]["bounds"] == {"B": 2, "D": 2}
        assert doc["stats"]["groups"] == 3

    def test_dump_priorities(self, capsys):
        code, out = run_cli(capsys, "check", str(CORPUS / "nats.ch"),
                            "--dump-priorities")
        assert "stream(nat) ↦ 0" in out
        assert "nat ↦ 1" in out
        assert "unit ↦ 2" in out

    def test_inferred_type_variables_named_in_clause_order(self, tmp_path,
                                                          capsys):
        # leftover type variables are named a, b, ... in the order the
        # clause walk meets them: patterns before the body
        src = tmp_path / "inferred.ch"
        src.write_text("data list('x) where Nil : list('x)"
                       " | Cons : 'x -> list('x) -> list('x)\n"
                       "val f Nil = Nil\n"
                       "  | f (Cons _ l) = Cons Nil (f l)\n")
        code, out = run_cli(capsys, "check", str(src), "--dump-priorities")
        assert code == 0
        assert out.splitlines()[2:] == [
            "pair('a, list('a)) ↦ 0",
            "pair('b, list('b)) ↦ 0",
            "pair(list('b), list(list('b))) ↦ 0",
            "list('a) ↦ 1",
            "list(list('b)) ↦ 1",
            "list('b) ↦ 3",
            "unit ↦ 4",
        ]

    def test_dump_closure_sorted(self, capsys):
        code, out = run_cli(capsys, "check", str(CORPUS / "nats.ch"),
                            "--bound-b", "1", "--bound-d", "1",
                            "--dump-closure")
        lines = [l for l in out.splitlines() if l.startswith("nats ->")]
        assert lines == sorted(lines) and len(lines) == 2

    def test_deterministic_output(self, capsys):
        args = ("check", str(CORPUS / "sums.ch"), "--dump-closure",
                "--dump-callgraph", "--dump-priorities")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_depends_on_unknown_flagged(self, capsys):
        code, out = run_cli(capsys, "check", str(CORPUS / "magic.ch"))
        assert "TOTAL magic [depends on unknown: bad_s]" in out


class TestDependencies:
    """A verdict lists every verdict other than `TOTAL` that it rests on,
    through any chain of calls: `UNKNOWN` and `ERROR` alike."""

    MAGIC2 = corpus_source("magic.ch") + "\nval magic2 : 'x | magic2 = magic\n"
    USER = corpus_source("sums.ch") + (
        "\nval user : stream(list(nat)) -> stream(nat)"
        " | user s = sums Zero s\n")

    def test_through_a_total_callee(self, tmp_path, capsys):
        path = tmp_path / "magic2.ch"
        path.write_text(self.MAGIC2)
        code, out = run_cli(capsys, "check", str(path))
        assert code == 1
        assert out.splitlines()[1:] == [
            "TOTAL lower_left",
            "TOTAL magic [depends on unknown: bad_s]",
            "TOTAL magic2 [depends on unknown: bad_s]",
        ]
        code, out = run_cli(capsys, "check", str(path), "--json")
        assert code == 1
        by_name = {d["name"]: d for d in json.loads(out)["definitions"]}
        assert by_name["magic2"]["result"] == "total"
        assert by_name["magic2"]["depends_on_unknown"] == ["bad_s"]
        assert by_name["lower_left"]["depends_on_unknown"] == []

    def test_on_an_error_callee(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(callgraph, "MAX_EDGES", 5)
        path = tmp_path / "user.ch"
        path.write_text(self.USER)
        code, out = run_cli(capsys, "check", str(path))
        assert code == 2
        assert out.splitlines() == [
            "TOTAL add",
            "ERROR sums: call graph closure exceeded its edge cap (5)",
            "TOTAL user [depends on unknown: sums]",
        ]
        code, out = run_cli(capsys, "check", str(path), "--json")
        assert code == 2
        by_name = {d["name"]: d for d in json.loads(out)["definitions"]}
        assert [by_name[name]["result"] for name in ("add", "sums", "user")] \
            == ["total", "error", "total"]
        assert by_name["user"]["depends_on_unknown"] == ["sums"]
        assert by_name["sums"]["depends_on_unknown"] == []

    def test_through_members_of_a_group(self):
        """Within a group, a member rests on what the members it calls
        rest on, and on nothing else."""
        report = analyze_source(corpus_source("magic.ch") + (
            "\nval a : 'x | a = b\n"
            "and b : 'x | b = magic\n"
            "and c : stree -> 'x | c t = lower_left t\n"))
        assert [(v.fname, v.result, v.depends_on_unknown)
                for v in report.verdicts[-3:]] == [
            ("a", "total", ["bad_s"]),
            ("b", "total", ["bad_s"]),
            ("c", "total", []),
        ]


class TestPragma:
    def test_pragma_overrides_cli_bounds(self, tmp_path, capsys):
        source = corpus_source("c1c2.ch")
        pragma = source.replace(
            "val f : thing -> nat",
            "-- totality: B=1, D=1\nval f : thing -> nat")
        path = tmp_path / "pragma.ch"
        path.write_text(pragma)
        # D=0 from the command line would reject; the pragma wins
        code, out = run_cli(capsys, "check", str(path),
                            "--bound-b", "1", "--bound-d", "0")
        assert code == 0 and "TOTAL f" in out

    def test_bounds_validated(self, capsys):
        code = main(["check", str(CORPUS / "nats.ch"), "--bound-b", "0"])
        assert code == 2

    def test_zero_weight_bound_is_located(self, tmp_path, capsys):
        source = corpus_source("c1c2.ch").replace(
            "val f : thing -> nat",
            "-- totality: B=0, D=1\nval f : thing -> nat")
        line = source.splitlines().index("-- totality: B=0, D=1") + 1
        path = tmp_path / "pragma.ch"
        path.write_text(source)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == (
            "error: %d:16: pragma bound B must be at least 1\n" % line)
        assert "Traceback" not in captured.err


    def test_line_break_in_a_comment_keeps_the_pragma_in_place(
            self, tmp_path, capsys):
        path = tmp_path / "pragma.ch"
        path.write_text("data nat where Zero : nat | Succ : nat -> nat\n"
                        "-- a form feed \x0c in a comment\n"
                        "-- totality: B=3, D=3\n"
                        "val f x = x\n"
                        "val g x = x\n", encoding="utf-8")
        code, out = run_cli(capsys, "check", str(path), "--dump-closure")
        assert code == 0
        assert "-- closure for f (B=3, D=3)" in out.splitlines()
        assert "-- closure for g (B=2, D=2)" in out.splitlines()


RING = ("data nat where Zero : nat | Succ : nat -> nat\n"
        "codata st where hd : st -> nat | Tail : st -> st\n"
        "val s0 = s1.Tail\n"
        + "".join("and s%d = { hd = Zero ; Tail = s%d }\n" % (i, (i + 1) % 8)
                  for i in range(1, 8)))


@pytest.mark.parametrize("cap,value,phrase", [
    ("MAX_EDGES", 40, "edge cap (40)"),
    ("MAX_COMPOSITIONS", 400, "composition cap (400)"),
])
class TestRingClosureCaps:
    """The caps on a group of several vertices: the 8-member stream ring
    `RING` at B=D=2 has 8 initial edges and closes to 105 edges in 1,361
    compositions, so both caps below are reached after the initial
    pairs."""

    def test_library(self, monkeypatch, cap, value, phrase):
        monkeypatch.setattr(callgraph, cap, value)
        report = analyze_source(RING, Config(2, 2))
        reason = "call graph closure exceeded its " + phrase
        assert [(v.fname, v.result, v.reasons) for v in report.verdicts] == [
            ("s%d" % i, "error", [reason]) for i in range(8)]
        assert report.exit_code() == 2

    def test_cli(self, monkeypatch, capsys, tmp_path, cap, value, phrase):
        monkeypatch.setattr(callgraph, cap, value)
        path = tmp_path / "ring.ch"
        path.write_text(RING)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines() == [
            "ERROR s%d: call graph closure exceeded its %s" % (i, phrase)
            for i in range(8)]
        assert "Traceback" not in captured.out + captured.err


class TestGroupErrors:
    """Faults inside one group's analysis give that group ERROR and leave
    the other groups their verdicts."""

    def test_deep_input_is_located(self, monkeypatch):
        # a group whose analysis runs out of stack is located at its first
        # definition, and the other groups keep their verdicts
        def deep(adefs, *bounds):
            if adefs[0].fname == "f":
                raise RecursionError("maximum recursion depth exceeded")
            return build_callgraph(adefs, *bounds)

        build_callgraph = checker.build_callgraph
        monkeypatch.setattr(checker, "build_callgraph", deep)
        report = analyze_source(DEEP_ARGUMENT, Config())
        assert [(v.fname, v.result, v.reasons) for v in report.verdicts] == [
            ("f", "error", ["2:5: input nests too deeply to analyze"]),
            ("g", "total", [])]
        assert report.exit_code() == 2

    def test_internal_error_is_named(self, monkeypatch):
        def fail(*args):
            raise InternalError("broken invariant")
        monkeypatch.setattr(checker, "build_callgraph", fail)
        report = analyze_source(corpus_source("nats.ch"), Config())
        assert [(v.result, v.reasons) for v in report.verdicts] == [
            ("error", ["internal error: broken invariant"])]


class TestLibraryConfig:
    def test_config_holds_only_the_bounds(self):
        assert Config.__slots__ == ("bound_b", "bound_d")

    def test_defaults(self):
        report = analyze_source(corpus_source("half.ch"), Config())
        assert [v.result for v in report.verdicts] == ["total", "total"]
        assert report.exit_code() == 0

    def test_syntax_error_reported(self):
        report = analyze_source("val = ", Config())
        assert report.errors and report.exit_code() == 2

    @pytest.mark.parametrize("config,errors", [
        (Config(bound_b=0), ["bound B must be at least 1, not 0"]),
        (Config(bound_d=-1), ["bound D must be nonnegative, not -1"]),
        (Config(0, -1), ["bound B must be at least 1, not 0",
                         "bound D must be nonnegative, not -1"]),
    ])
    def test_bad_bounds_reported(self, config, errors):
        report = analyze_source(corpus_source("nats.ch"), config)
        assert report.verdicts == [] and report.groups == []
        assert report.errors == errors
        assert report.exit_code() == 2

    @pytest.mark.parametrize("name,expected", [
        ("nats.ch", 0), ("length.ch", 0), ("half.ch", 0), ("sums.ch", 0),
        ("c1c2.ch", 0), ("swap.ch", 0), ("s1s2.ch", 0),
        ("bad_s.ch", 1), ("nats_list.ch", 1), ("magic.ch", 1),
    ])
    def test_exit_codes_over_corpus(self, name, expected):
        report = analyze_source(corpus_source(name), Config())
        assert report.exit_code() == expected
        # the code reflects the verdicts exactly
        if expected == 0:
            assert all(v.result == "total" for v in report.verdicts)
        else:
            assert any(v.result == "unknown" for v in report.verdicts)


@pytest.mark.parametrize("cap,value,phrase", [
    ("MAX_EDGES", 10, "edge cap (10)"),
    ("MAX_COMPOSITIONS", 100, "composition cap (100)"),
])
class TestClosureCaps:
    """Reaching a closure cap gives ERROR for the group, never TOTAL.

    `sums.ch` at B=D=2 closes to 30 edges in 900 compositions, so both
    caps below are reached; `add` has no calls and stays TOTAL."""

    def test_library(self, monkeypatch, cap, value, phrase):
        monkeypatch.setattr(callgraph, cap, value)
        report = analyze_source(corpus_source("sums.ch"), Config(2, 2))
        verdicts = {v.fname: v for v in report.verdicts}
        assert verdicts["add"].result == "total"
        assert verdicts["sums"].result == "error"
        (reason,) = verdicts["sums"].reasons
        assert phrase in reason
        assert report.exit_code() == 2

    def test_cli(self, monkeypatch, capsys, cap, value, phrase):
        monkeypatch.setattr(callgraph, cap, value)
        path = str(CORPUS / "sums.ch")
        code = main(["check", path, "--bound-b", "2", "--bound-d", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines() == [
            "TOTAL add",
            "ERROR sums: call graph closure exceeded its " + phrase,
        ]
        assert "Traceback" not in captured.out + captured.err
        code = main(["check", path, "--bound-b", "2", "--bound-d", "2",
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert [d["result"] for d in doc["definitions"]] == ["total", "error"]


# the runtime on every corpus file, then the modules it imported
RUNTIME_IMPORTS = """
import contextlib, importlib.util, io, sys
from totality.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for path in sys.argv[1:]:
        main(["check", path, "--dump-priorities", "--dump-callgraph",
              "--dump-closure"])
        main(["check", path, "--json"])
        main(["check", path, "--json", "--dump-callgraph", "--dump-closure"])
print(sorted(name for name in sys.modules
             if name.startswith(("totality", "reference"))))
print([name for name in ("totality.order", "totality.collapse",
                         "totality.terms", "totality.testkit")
       if importlib.util.find_spec(name) is not None])
print(importlib.util.find_spec("reference.terms") is not None)
"""


# the runtime on every corpus file, then the start-up modules it loaded
# that the package must not need, then the dataclasses of the package
RUNTIME_MODULES = """
import contextlib, io, sys
from totality.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for path in sys.argv[1:]:
        main(["check", path, "--json"])
print([name for name in ("dataclasses", "inspect", "string")
       if name in sys.modules])
import dataclasses
print(sorted("%s.%s" % (value.__module__, value.__qualname__)
             for module in list(sys.modules) if module.startswith("totality")
             for value in vars(sys.modules[module]).values()
             if isinstance(value, type) and dataclasses.is_dataclass(value)
             and value.__module__ == module))
"""


# a text report on every corpus file, then whether `json` is loaded; a
# bare interpreter does not load it
TEXT_MODULES = """
import contextlib, io, sys
from totality.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for path in sys.argv[1:]:
        main(["check", path])
        main(["check", path, "--dump-priorities", "--dump-callgraph",
              "--dump-closure"])
print("json" in sys.modules)
"""


def run_over_corpus(script: str) -> list:
    """The lines `script` prints, run in a fresh interpreter with the
    corpus files as its arguments and with the package and the test
    reference (`reference`) on its path."""
    src = str(pathlib.Path(totality.__file__).resolve().parent.parent)
    tests = str(pathlib.Path(__file__).resolve().parent)
    done = subprocess.run(
        [sys.executable, "-c", script,
         *sorted(str(p) for p in CORPUS.glob("*.ch"))],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": os.pathsep.join((src, tests)), "PATH": ""})
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


class TestPackage:
    def test_runtime_leaves_the_reference_alone(self):
        """The checker never imports the test reference (`reference`),
        which holds the term algebra and the term path, although it could
        find it: it prints calls and verdict reasons from their items, also
        with `--json` and the dumps.  The modules that held the reference
        in the package are gone."""
        imported, present, findable = run_over_corpus(RUNTIME_IMPORTS)
        assert "totality.cli" in imported
        assert "reference" not in imported
        assert "totality.testkit" not in imported
        assert "totality.terms" not in imported
        assert present == "[]"
        assert findable == "True"

    def test_a_check_loads_no_dataclasses(self):
        """Every record of the package, the result types included, is a
        plain class, so a check never loads `dataclasses` and the modules
        it pulls in, nor `string`; the package defines no dataclass."""
        loaded, found = run_over_corpus(RUNTIME_MODULES)
        assert loaded == "[]"
        assert found == "[]"

    def test_a_text_report_loads_no_json(self):
        """Only `--json` needs `json`, so a text report leaves it out."""
        assert run_over_corpus(TEXT_MODULES) == ["False"]

    def test_exports(self):
        assert totality.__all__ == [
            "Config", "Report", "Verdict", "analyze_source",
            "INF", "Weight",
        ]
        assert all(hasattr(totality, name) for name in totality.__all__)
        # the term notation and the weight arithmetic live with the term
        # algebra, in the test reference
        assert not any(hasattr(totality, name)
                       for name in ("ZERO", "parse_term", "term_str",
                                    "weight", "weight_add"))
