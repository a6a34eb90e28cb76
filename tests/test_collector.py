"""A check builds no reference cycles, so reference counting alone frees all
it drops, and `analyze_source` runs it with the cyclic collector paused,
restoring the collector's state on every exit."""

import gc
import random

import pytest

from conftest import CORPUS, corpus_source
from test_callgraph import many_blocks, stream_ring
from test_cli import RING
from totality import callgraph, checker
from totality.checker import Config, analyze_source

NAT = "data nat where Zero : nat | Succ : nat -> nat\n"


def parenthesised(levels: int) -> str:
    """A body of `levels` parentheses around one variable."""
    return NAT + "val f : nat -> nat | f x = %s\n" % (
        "(" * levels + "x" + ")" * levels)


NESTED = (NAT + "data nest('a) where Nil : nest('a)"
          " | Cons : 'a -> nest(nest('a)) -> nest('a)\n"
          "val f : nest('a) -> nat | f Nil = Zero | f (Cons x r) = Zero\n")
UNKNOWN_FUNCTION = NAT + "val f : nat -> nat | f x = h x\n"


@pytest.fixture
def collector():
    """Gives the test the collector as it found it back afterwards."""
    collecting = gc.isenabled()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def paused(collector):
    gc.disable()


def check_and_drop(source: str, config: Config = Config()) -> tuple:
    """The exit code of checking `source` and the number of objects in the
    reference cycles that the check leaves once its report is dropped;
    call with the collector off."""
    gc.collect()
    report = analyze_source(source, config)
    code = report.exit_code()
    del report
    return code, gc.collect()


@pytest.mark.usefixtures("paused")
class TestNoCycles:
    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_corpus(self, bound):
        left = {path.name: check_and_drop(path.read_text(),
                                          Config(bound, bound))[1]
                for path in sorted(CORPUS.glob("*.ch"))}
        assert left == dict.fromkeys(left, 0)

    def test_many_groups(self):
        # some of its blocks loop, so the check gives exit code 1
        assert check_and_drop(many_blocks(200)) == (1, 0)

    def test_long_stream_ring(self):
        source = stream_ring(random.Random(7), 24, consumers=1)
        assert check_and_drop(source, Config(2, 2)) == (0, 0)

    @pytest.mark.parametrize("source, config", [
        ("val = ", Config()),
        (UNKNOWN_FUNCTION, Config()),
        (parenthesised(600), Config()),
        (parenthesised(3000), Config()),
        (NESTED, Config()),
        (corpus_source("nats.ch"), Config(0, -1)),
    ], ids=["parse-error", "unknown-function", "deep-600", "deep-3000",
            "nested-datatype", "bad-bounds"])
    def test_error_paths(self, source, config):
        assert check_and_drop(source, config) == (2, 0)

    @pytest.mark.parametrize("cap, value", [
        ("MAX_EDGES", 10), ("MAX_COMPOSITIONS", 100)])
    @pytest.mark.parametrize("name", ["sums", "ring"])
    def test_closure_caps(self, monkeypatch, cap, value, name):
        monkeypatch.setattr(callgraph, cap, value)
        source = RING if name == "ring" else corpus_source("sums.ch")
        assert check_and_drop(source, Config(2, 2)) == (2, 0)


class TestPause:
    def test_no_collection_starts_in_a_check(self, collector):
        source = many_blocks(200)
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.enable()
        # from zero allocations, the few before the pause cannot start one
        gc.collect()
        gc.callbacks.append(hook)
        try:
            report = analyze_source(source)
        finally:
            gc.callbacks.remove(hook)
        assert report.verdicts and starts == []

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("source, config", [
        (corpus_source("nats.ch"), Config()),
        ("val = ", Config()),
        (parenthesised(3000), Config()),
        (corpus_source("nats.ch"), Config(0, 2)),
    ], ids=["total", "source-error", "too-deep", "bad-bound"])
    def test_state_is_restored(self, collector, source, config, enabled):
        (gc.enable if enabled else gc.disable)()
        analyze_source(source, config)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_when_a_check_raises(self, collector,
                                                   monkeypatch, enabled):
        def fail(src):
            raise ValueError("not a source error")

        monkeypatch.setattr(checker, "parse_program", fail)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ValueError):
            analyze_source(corpus_source("nats.ch"))
        assert gc.isenabled() is enabled
