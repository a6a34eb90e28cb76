"""The benchmark's input generators: determinism, well-formed programs and
expected verdicts that follow from how each input is built.

Run with `python3 -m pytest perfbench/tests`.
"""

import json
import pathlib
import random
import re
import sys

import pytest

from child import WRAPPED, Tracer, check
from run import END_TO_END, PER_LAYER, Sample, judge, unit_of
from totality import Config, scp
from totality.surface import desugar, parse_program, validate_restrictions
from workloads import (
    CORPUS_BOUNDS,
    CORPUS_EXPECTED,
    RING_SHAPES,
    TOTAL,
    UNKNOWN,
    WIDE_BLOCKS,
    corpus_inputs,
    make_inputs,
    ring_pattern,
    wide_program,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]
SEEDS = (0, 1, 7, 12345)


def definitions(source: str) -> list:
    program = desugar(parse_program(source))
    violations, _ = validate_restrictions(program)
    assert not violations, violations[:3]
    return [d for group in program.groups for d in group.defs]


@pytest.mark.parametrize("workload", ["corpus", "ring", "wide"])
def test_same_seed_same_text(workload):
    first = make_inputs(workload, 3, ROOT)
    again = make_inputs(workload, 3, ROOT)
    assert [(i.name, i.source, i.bounds) for i in first] == \
        [(i.name, i.source, i.bounds) for i in again]


@pytest.mark.parametrize("workload", ["corpus", "ring", "wide"])
def test_seed_changes_the_inputs(workload):
    first = make_inputs(workload, 1, ROOT)
    other = make_inputs(workload, 2, ROOT)
    assert [(i.name, i.source) for i in first] != \
        [(i.name, i.source) for i in other]


def test_corpus_table_names_every_definition():
    inputs = corpus_inputs(ROOT / "corpus", 0)
    assert len(inputs) == len(CORPUS_EXPECTED) * len(CORPUS_BOUNDS)
    for inp in inputs:
        names = {d.fname for d in definitions(inp.source)}
        assert names == set(inp.expected), inp.name


@pytest.mark.parametrize("seed", SEEDS)
def test_rings_parse_and_follow_the_producer_rule(seed):
    inputs = make_inputs("ring", seed, ROOT)
    assert len(inputs) == len(RING_SHAPES)
    shapes = []
    for inp in inputs:
        defs = definitions(inp.source)
        assert {d.fname for d in defs} == set(inp.expected)
        producers = len(re.findall(r"= \{ hd = Zero ; Tail = s\d+ \}",
                                   inp.source))
        consumers = len(re.findall(r"= s\d+\.Tail$", inp.source, re.M))
        assert producers + consumers == len(defs)
        shapes.append((len(defs), consumers))
        want = TOTAL if producers > consumers else UNKNOWN
        assert {v for v, _ in inp.expected.values()} == {want}, inp.name
    assert sorted(shapes) == sorted(RING_SHAPES)


def test_ring_consumers_are_never_adjacent():
    rng = random.Random(5)
    for members, consumers in RING_SHAPES * 5:
        word = ring_pattern(members, consumers, rng)
        assert len(word) == members and word.count("C") == consumers
        assert "CC" not in word + word[0]


def test_balanced_rings_alternate_and_are_unknown():
    for inp in make_inputs("ring", 4, ROOT):
        word = inp.name.split("_")[1]
        if word.count("P") == word.count("C"):
            assert "PP" not in word + word[0]
            assert {v for v, _ in inp.expected.values()} == {UNKNOWN}


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_wide_program_parses_and_is_all_total(seed):
    (inp,) = make_inputs("wide", seed, ROOT)
    names = [d.fname for d in definitions(inp.source)]
    assert len(names) == 2 * WIDE_BLOCKS
    assert set(names) == set(inp.expected)
    assert {v for v, _ in inp.expected.values()} == {TOTAL}


def test_wide_program_size_does_not_depend_on_the_seed():
    sizes = {len(wide_program(seed, blocks=70).splitlines())
             for seed in SEEDS}
    assert len(sizes) == 1


def test_reported_metrics_match_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert sorted(m["name"] for m in spec[key]) == sorted(names)
        for metric in spec[key]:
            assert metric["unit"] == unit_of(metric["name"]), metric


def test_a_total_verdict_the_table_calls_unknown_is_unsound():
    sample = Sample(traced=False)
    out = {"check_s": 0.1, "reference_s": 0.01, "setup_reference_s": 0.01,
           "rss_kb": 1, "counts": {},
           "errors": [],
           "verdicts": {"bad_s": ["total", []]}}
    judge(sample, out, {"bad_s": (UNKNOWN, ())})
    assert sample.unsound == 1 and sample.failure


def test_tracer_partitions_time_and_restores_every_wrapper():
    modules = {name: sys.modules[name] for name, _, _ in WRAPPED}
    before = [getattr(modules[m], name) for m, name, _ in WRAPPED]
    tracer = Tracer()
    source = (ROOT / "corpus" / "magic.ch").read_text()
    report, elapsed, traced_loops, _ = check(source, Config(2, 2), tracer)
    assert [getattr(modules[m], name) for m, name, _ in WRAPPED] == before
    assert not tracer.missing
    assert sum(tracer.self_time.values()) == pytest.approx(elapsed, abs=1e-9)
    assert tracer.calls["callgraph.closure.compose_calls"] == sum(
        g.stats["compositions"] for g in report.groups)
    loop_check = scp.check_loops
    _, _, untraced_loops, _ = check(source, Config(2, 2))
    assert scp.check_loops is loop_check
    assert traced_loops == untraced_loops > 0
