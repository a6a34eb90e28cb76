"""Numerals are kept as counts until a term is built, and then built only
as deep as the collapse can see (`callgraph.numeral_counts`)."""

import argparse
import random
import sys

import pytest

from totality.callgraph import numeral_counts
from totality.checker import Config, analyze_source
from totality.cli import _render_json, _render_text, main
from totality.typecheck import AClause, ANum, AVar

# a numeral in a pattern, in a body beside a call, and in call arguments,
# where a body numeral sits over the pattern numeral's Zero and their
# Succ cancel
PROGRAM = """data nat where Zero : nat | Succ : nat -> nat
codata stream('x) where Head : stream('x) -> 'x | Tail : stream('x) -> stream('x)
data list('x) where Nil : list('x) | Cons : 'x -> list('x) -> list('x)
val p : nat -> nat
  | p {A} = p Zero
  | p (Succ x) = p x
val b : nat -> stream(nat)
  | b x = {{ Head = {B} ; Tail = b (Succ x) }}
val a : nat -> nat -> nat
  | a {A} y = a {B} (Succ {C})
  | a x y = a y x
val c : nat -> list(nat) -> nat
  | c (Succ {A}) l = c (Succ (Succ {B})) (Cons {C} l)
"""

DUMPS = argparse.Namespace(dump_priorities=True, dump_callgraph=True,
                           dump_closure=True)


def written(n):
    """The numeral n as `Succ (... Zero)`."""
    return "(%sZero%s)" % ("Succ (" * n, ")" * n)


def outputs(source, bound_b, bound_d):
    report = analyze_source(source, Config(bound_b, bound_d))
    return _render_text(report, DUMPS), _render_json(report)


@pytest.fixture
def deep_recursion():
    """The written-out numerals nest a few hundred terms deep."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    yield
    sys.setrecursionlimit(limit)


def assert_as_written(values, bounds, program=PROGRAM):
    digits = program.format(**values)
    spelled = program.format(**{k: written(v) for k, v in values.items()})
    for bound_b, bound_d in bounds:
        got = outputs(digits, bound_b, bound_d)
        want = outputs(spelled, bound_b, bound_d)
        assert not want[1]["errors"] and "ERROR" not in want[0]
        assert got == want, (values, bound_b, bound_d)


ALL_BOUNDS = [(b, d) for b in range(1, 5) for d in range(1, 5)]


@pytest.mark.parametrize("a, b, c", [
    (0, 0, 0), (1, 2, 0), (3, 3, 2), (40, 41, 39), (60, 400, 0),
    (400, 399, 400),
])
def test_digits_give_what_written_out_gives(deep_recursion, a, b, c):
    assert_as_written({"A": a, "B": b, "C": c}, ALL_BOUNDS)


def test_random_numerals_give_what_written_out_gives(deep_recursion):
    rng = random.Random(7)
    for _ in range(25):
        base = rng.choice([0, 5, 30, 80])
        values = {k: max(0, base + rng.randint(-3, 3)) if rng.random() < 0.7
                  else rng.randint(0, 120) for k in "ABC"}
        assert_as_written(values, [(rng.randint(1, 4), rng.randint(0, 4))])


# constructors written out around the numerals shift the weight of the
# call's argument, here by 4, so two numerals 10 apart must stay more than
# 10 + 4 + B apart
EXPLICIT = """data nat where Zero : nat | Succ : nat -> nat
val e : nat -> nat
  | e (Succ (Succ {A})) = e (Succ (Succ (Succ (Succ (Succ (Succ {B}))))))
"""


@pytest.mark.parametrize("a, b", [(30, 20), (20, 30), (100, 60)])
def test_constructors_around_numerals(deep_recursion, a, b):
    assert_as_written({"A": a, "B": b}, ALL_BOUNDS, EXPLICIT)


@pytest.mark.parametrize("bound", [1, 2, 4])
def test_numeral_of_5000_gives_a_verdict(bound):
    source = PROGRAM.format(A=5000, B=4999, C=5000) + "val k = 5000\n"
    report = analyze_source(source, Config(bound, bound))
    assert report.errors == []
    assert [v.fname for v in report.verdicts] == ["p", "b", "a", "c", "k"]
    assert all(v.result != "error" for v in report.verdicts)


def test_numeral_of_5000_on_the_command_line(tmp_path, capsys):
    path = tmp_path / "big.ch"
    path.write_text("data nat where Zero : nat | Succ : nat -> nat\n"
                    "val f : nat -> nat | f 5000 = f 4999 | f x = 5000\n")
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.startswith("TOTAL f\n")


def test_counts_keep_short_gaps_and_shrink_long_ones():
    clause = AClause((ANum(900, AVar("z")),),
                     ANum(3, ANum(5000, AVar("z"))))
    # B=1, D=0 and 5 nodes: gaps are kept up to 1 + 2 * (0 + 5) + 4 = 15
    assert numeral_counts([clause], 1, 0) == {3: 3, 900: 18, 5000: 33}
