"""Driver behaviour: exit codes, reports, dumps, determinism."""

import json
import os
import pathlib
import re
import subprocess
import sys
import sysconfig

import pytest

import totality
from conftest import CORPUS, corpus_source
from test_surface import LEXICAL, SYNTAX, long_program
from test_typecheck import LEN, LIST, USER_PAIR
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


def ring(members: int) -> str:
    """A ring of `members` mutually recursive streams, `s0` the one
    consumer."""
    return ("data nat where Zero : nat | Succ : nat -> nat\n"
            "codata st where hd : st -> nat | Tail : st -> st\n"
            "val s0 = s1.Tail\n"
            + "".join("and s%d = { hd = Zero ; Tail = s%d }\n"
                      % (i, (i + 1) % members) for i in range(1, members)))


RING = ring(8)


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


# the package's directory, under `src` or `site-packages`
PACKAGE = pathlib.Path(totality.__file__).resolve().parent
# the checker in a fresh interpreter: the console script when the package
# is installed, else its module from `src`
TOTALITY = ([os.path.join(sysconfig.get_path("scripts"), "totality")]
            if "site-packages" in PACKAGE.parts
            else [sys.executable, "-m", "totality.cli"])
# the package and the test reference (`reference`), and nothing else
FRESH = {"PYTHONPATH": os.pathsep.join(
    (str(PACKAGE.parent), str(pathlib.Path(__file__).resolve().parent))),
         "PATH": ""}


def fresh(command: list) -> subprocess.CompletedProcess:
    """`command` run to its end in a fresh interpreter (`FRESH`), its
    output decoded; it prints no traceback."""
    done = subprocess.run(command, capture_output=True, encoding="utf-8",
                          timeout=120, env=FRESH)
    assert "Traceback" not in done.stdout + done.stderr, done.stderr
    return done


def run_over_corpus(script: str) -> list:
    """The lines `script` prints, run in a fresh interpreter with the
    corpus files as its arguments."""
    done = fresh([sys.executable, "-c", script,
                  *sorted(str(p) for p in CORPUS.glob("*.ch"))])
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def run_totality(*argv) -> tuple:
    """The exit code and the output of `totality check` on `argv`, run in a
    fresh interpreter (`TOTALITY`)."""
    done = fresh([*TOTALITY, "check", *map(str, argv)])
    return done.returncode, done.stdout


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

    def test_package_holds_the_runtime_modules(self):
        """The package ships the checker alone: the term algebra and the
        test kit stay under `tests/`."""
        assert sorted(p.name for p in PACKAGE.iterdir()
                      if p.name != "__pycache__") == [
            "__init__.py", "callgraph.py", "checker.py", "cli.py",
            "records.py", "scp.py", "surface.py", "typecheck.py"]

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


NAT = "data nat where Zero : nat | Succ : nat -> nat\n"
BOX = "codata box where Fst : box -> nat\n"
FIELDS = r"error: \d+:\d+: field names Fst/Snd are reserved"


@pytest.mark.parametrize("source, code, line", [
    (NAT + "data nest('a) where Nil : nest('a)"
     " | Cons : 'a -> nest(nest('a)) -> nest('a)\n"
     "val f : nest('a) -> nat | f Nil = Zero | f (Cons x r) = Zero\n",
     2, r"ERROR f: priority assignment exceeded"),
    (NAT + "val f : nat -> nat | f x = \u00b2\n",
     2, "error: 2:28: unexpected character '\u00b2'$"),
    # the program's own pair codata, its parameters not named 'a, 'b
    (USER_PAIR, 0, "TOTAL len$"),
    # a field Fst declared before and after a two-argument constructor
    (NAT + BOX + LIST + LEN, 2, FIELDS),
    (NAT + LIST + BOX + LEN, 2, FIELDS),
    # the program's own pair with the fields Fst and Snd, no parameters
    (NAT + "codata pair where Fst : pair -> nat | Snd : pair -> nat\n"
     + LIST + LEN, 2, r"error: \d+:\d+: type name pair is reserved"),
    # a syntax error on line 2 and a lexical error on the last, 3,001
    # lines later: the lexical error wins though the parser stops first
    (long_program(SYNTAX, LEXICAL, 1500),
     2, "error: 3003:19: unexpected character '\u00b2'$"),
], ids=["nest", "superscript", "pair", "box-before", "box-after",
        "flat-pair", "long"])
def test_program_in_a_fresh_interpreter(tmp_path, source, code, line):
    path = tmp_path / "program.ch"
    path.write_text(source, encoding="utf-8")
    got, out = run_totality(path)
    assert got == code, out
    assert any(re.match(line, text) for text in out.splitlines()), out


@pytest.mark.parametrize("argv, code", [
    *[((name,), 1 if name in ("bad_s.ch", "magic.ch", "nats_list.ch") else 0)
      for name in sorted(p.name for p in CORPUS.glob("*.ch"))],
    (("--bound-b", "0", "nats.ch"), 2),
    (("--bound-d", "-1", "nats.ch"), 2),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_corpus_exit_code_in_a_fresh_interpreter(argv, code):
    assert run_totality(*argv[:-1], CORPUS / argv[-1])[0] == code


def test_closed_stdout_keeps_the_exit_code():
    """A reader that closes stdout after one line of some 86 KB of dumps
    changes only what gets printed: no traceback, and the exit code of the
    verdicts, all of them `TOTAL`."""
    done = subprocess.Popen(
        [*TOTALITY, "check", "--bound-b", "4", "--bound-d", "4",
         "--dump-closure", *[str(CORPUS / "sums.ch")] * 4],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=FRESH)
    assert done.stdout.readline() == b"-- %s\n" % bytes(CORPUS / "sums.ch")
    done.stdout.close()
    err = done.stderr.read()
    done.stderr.close()
    assert (done.wait(timeout=120), err) == (0, b"")


def test_ring_of_24_streams_in_a_fresh_interpreter(tmp_path):
    path = tmp_path / "ring.ch"
    path.write_text(ring(24))
    code, out = run_totality("--json", path)
    stats = json.loads(out)["stats"]
    assert (code, stats["edges"], stats["compositions"]) == (0, 681, 19311)


# 50 blocks of a data type, a codata type and one definition over each:
# 100 groups, each closed with tables of its own
MANY = NAT + "".join(
    "data d{0} where A{0} : d{0} | B{0} : d{0} -> d{0}\n"
    "codata r{0} where P{0} : r{0} -> nat | Q{0} : r{0} -> nat\n"
    "val f{0} : d{0} -> nat | f{0} A{0} = 0 | f{0} (B{0} x) = f{0} x\n"
    "val g{0} : r{0} -> nat | g{0} {{ P{0} = 0 ; Q{0} = x }} = x"
    " | g{0} {{ P{0} = Succ y ; Q{0} = _ }} = y\n".format(i)
    for i in range(1, 51))


def sections(text: str) -> dict:
    """The lines of each section of a dump, by its header, each header
    once."""
    found, lines = {}, None
    for line in text.splitlines():
        if line.startswith("-- "):
            assert line not in found, line
            lines = found[line] = []
        elif lines is not None:
            lines.append(line)
    return found


class TestManyGroups:
    """`MANY` from a fresh interpreter."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "many.ch"
        path.write_text(MANY)
        return path

    def test_json(self, path):
        code, out = run_totality("--json", path)
        report = json.loads(out)
        assert code == 0
        assert [v["result"] for v in report["definitions"]] == ["total"] * 100
        assert report["stats"] == {"compositions": 800, "edges": 200,
                                   "groups": 100}

    def test_dumps(self, path):
        code, out = run_totality("--dump-priorities", "--dump-callgraph",
                                 "--dump-closure", path)
        dumps = sections(out)
        assert code == 0 and len(dumps) == 300
        graphs = {header for header in dumps
                  if header.startswith("-- call graph")}
        assert graphs == {"-- call graph for %s%d (B=2, D=2)" % (f, i)
                          for f in "fg" for i in range(1, 51)}

        def closure(name):
            return dumps["-- closure for %s (B=2, D=2)" % name]

        # the f groups are one graph up to names, so each takes the first
        # one's closure renamed: f1's with its names' 1 read as its own
        # number, and no other group's name; the g groups call no member
        # of theirs and close to nothing
        assert len(closure("f1")) == 4
        for i in range(1, 51):
            assert closure("f%d" % i) == sorted(
                re.sub(r"\b([ABfg])1\b", r"\g<1>%d" % i, line)
                for line in closure("f1")), i
            assert closure("g%d" % i) == [], i
        # every group's priorities, each group typed with the deconstruction
        # targets that earlier groups left in the check's environment
        for i in range(1, 51):
            assert dumps["-- priorities for f%d" % i] == [
                "d%d \u21a6 1" % i, "nat \u21a6 1", "unit \u21a6 2"], i
            assert dumps["-- priorities for g%d" % i] == [
                "r%d \u21a6 0" % i, "nat \u21a6 1", "unit \u21a6 2"], i
