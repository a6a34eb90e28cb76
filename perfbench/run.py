"""Time to verdict of the totality checker, end to end and layer by layer.

    python3 perfbench/run.py --workload {corpus,ring,wide} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the checker is imported from `src/` next to this
directory.  Every check runs in a fresh interpreter, as one
`totality check FILE` would, so module-level caches never carry over from
one input to the next.  Every input runs once, in the seeded order (with
`--trace 1`, once untraced and once traced); the rest of `--seconds` goes
to repetitions of the inputs that weigh most in the summed check time.  A
check is started only while its last duration still fits in the time
left.

Check times are reported in reference units: the wall time of the check
over the median time of a fixed pure-Python workload (about 1 ms) run in
the same child before the check, every 50 ms during it and after it.  On a
shared 2-vCPU host whose speed changed by up to 1.6x, sometimes within a
second, the ratio spread about a third as much as wall time.  Set-up time
is reported in seconds at a nominal speed: set-up time over the child's
reference time before the check, times NOMINAL_REFERENCE_S.  Wall seconds
are printed in the summary.

`--trace 0` reports the end-to-end metrics with tracing off.  `--trace 1`
also runs every input with wrappers around each layer (see child.py) and
reports the per-layer metrics of each input's median traced run, plus the
tracing overhead.  A human-readable summary comes first, then the same
figures as one JSON line `{"summary": ..., "notes": ...}`; the last line
of standard output is the result, one JSON object.  See README.md for the
workloads and for which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import TOTAL, UNKNOWN, WORKLOADS, make_inputs  # noqa: E402

CHECK_LIMIT_S = 60.0    # a slower check is killed and counts as failed
LAST_START_S = 150.0    # no check starts later than this into the run
HARD_LIMIT_S = 170.0    # and none runs past this

# setup_s is reported as if the reference workload took this long, which is
# its time on the 2-vCPU x86_64 host the trajectory was measured on when
# that host was not slowed down by its other tenants.
NOMINAL_REFERENCE_S = 0.001

# Counts that must repeat exactly on every run of an input, traced or not.
STABLE_COUNTS = ("initial_edges", "closure_edges", "compositions",
                 "checked_loops", "loops", "instances")

# Per-layer metric -> (kind, layer key).  "total" is the inclusive time of
# the layer's spans, "self" excludes its wrapped children, "calls" counts
# spans.
LAYER_TIMES = {
    "surface.parse_s": ("total", "surface.parse"),
    "surface.desugar_s": ("total", "surface.desugar"),
    "surface.validate_s": ("total", "surface.validate"),
    "typecheck.env_s": ("total", "typecheck.env"),
    "typecheck.annotate_s": ("total", "typecheck.annotate"),
    "callgraph.build_s": ("total", "callgraph.build"),
    "callgraph.closure_s": ("total", "callgraph.closure"),
    "callgraph.closure_self_s": ("self", "callgraph.closure"),
    "callgraph.call_of_term_s": ("total", "callgraph.call_of_term"),
    "callgraph.call_of_term_calls": ("calls", "callgraph.call_of_term"),
    "terms.compose_s": ("total", "terms.compose"),
    "terms.compose_calls": ("calls", "terms.compose"),
    "collapse.depth_s": ("total", "collapse.depth"),
    "collapse.depth_calls": ("calls", "collapse.depth"),
    "collapse.weights_s": ("total", "collapse.weights"),
    "collapse.weights_calls": ("calls", "collapse.weights"),
    "order.sqcoh_s": ("total", "order.sqcoh"),
    "order.sqcoh_calls": ("calls", "order.sqcoh"),
    "order.sleq_s": ("total", "order.sleq"),
    "order.sleq_calls": ("calls", "order.sleq"),
    "scp.check_loops_s": ("total", "scp.check_loops"),
    "checker.self_s": ("self", "checker"),
}

END_TO_END = ("check_ref", "check_max_ref", "setup_s", "peak_rss_mb")

# order.sleq_s and order.sleq_calls are printed in the summary only: sleq
# never runs unless pruning is switched on, so they read 0 on every run.
PER_LAYER = tuple(name for name in LAYER_TIMES
                  if not name.startswith("order.sleq")) + (
    "typecheck.instances", "callgraph.initial_edges",
    "callgraph.compositions", "callgraph.closure_edges",
    "callgraph.new_edge_ratio", "terms.compose_us", "scp.loops",
    "scp.checked_loops", "trace.overhead")


def unit_of(name: str) -> str:
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "overhead", "_share")):
        return "ratio"
    return "count"


@dataclass
class Sample:
    """One check of one input in one child interpreter."""

    traced: bool
    check_s: float = None
    reference_s: float = None
    setup_s: float = None
    setup_reference_s: float = None
    rss_kb: int = None
    counts: dict = None
    layers: dict = None
    failure: str = None
    unsound: int = 0


def judge(sample: Sample, out: dict, expected: dict) -> None:
    """Fill in the sample from the child's output and compare its verdicts
    with the expected table."""
    sample.check_s = out["check_s"]
    sample.reference_s = out["reference_s"]
    sample.setup_reference_s = out["setup_reference_s"]
    sample.rss_kb = out["rss_kb"]
    sample.counts = out["counts"]
    sample.layers = out.get("layers")
    got = {name: (result, tuple(deps))
           for name, (result, deps) in out["verdicts"].items()}
    if out["errors"]:
        sample.failure = "errors: %s" % "; ".join(out["errors"][:3])
    wrong = sorted(name for name in set(got) | set(expected)
                   if got.get(name) != expected.get(name))
    sample.unsound = sum(1 for name, (result, _) in got.items()
                         if result == TOTAL
                         and expected.get(name, (None,))[0] == UNKNOWN)
    if wrong and sample.failure is None:
        sample.failure = "verdicts differ from the table for %s" % (
            ", ".join(wrong[:5]))


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.inputs = make_inputs(workload, seed, ROOT)
        # Byte code is cached inside the checkout, so that set-up time does
        # not depend on whether the caller's environment allows writing it.
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" /
                                              "pycache")
        self.samples = {inp.name: [] for inp in self.inputs}
        self.notes: list = []
        self.partition_ok = True

    def spawn(self, source: str, bounds, traced: bool):
        """Run one child; returns (output or None, failure, spawn time,
        wall seconds)."""
        job = json.dumps({"source": source, "bounds": list(bounds),
                          "traced": traced})
        limit = min(CHECK_LIMIT_S,
                    HARD_LIMIT_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-s", str(HERE / "child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=self.env, cwd=str(ROOT), text=True)
        try:
            stdout, stderr = proc.communicate(job, timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "time limit of %.0f s" % limit, spawned, limit
        wall = time.monotonic() - spawned
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            return None, "exit code %d: %s" % (proc.returncode, tail[0]), \
                spawned, wall
        try:
            out = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return None, "unreadable child output", spawned, wall
        if "raised" in out:
            last = out["raised"].strip().splitlines()[-1]
            return None, "raised %s" % last, spawned, wall
        return out, None, spawned, wall

    def warm_up(self) -> None:
        """Import once so that byte-code compilation is not timed."""
        out, failure, _, _ = self.spawn("", (2, 2), False)
        if out is None:
            raise SystemExit("cannot run the checker from %s: %s"
                             % (ROOT / "src", failure))

    def check(self, inp, traced: bool) -> float:
        sample = Sample(traced)
        out, failure, spawned, wall = self.spawn(inp.source, inp.bounds,
                                                 traced)
        if out is None:
            sample.failure = failure
            sample.check_s = wall
        else:
            sample.setup_s = out["ready"] - spawned
            judge(sample, out, inp.expected)
        self.samples[inp.name].append(sample)
        return wall

    def run(self) -> None:
        """Every job once in the seeded order; then, while time is left,
        the job that fits and gains most certainty per second: its squared
        median check time times the drop in 1/samples, over its cost."""
        by_name = {inp.name: inp for inp in self.inputs}
        jobs = [(inp.name, traced) for inp in self.inputs
                for traced in ((False, True) if self.trace else (False,))]
        cost: dict = {}
        deadline = time.monotonic() + self.seconds
        for name, traced in jobs:
            if time.monotonic() - self.started > LAST_START_S:
                sample = Sample(traced)
                sample.failure = "not started before the run's time limit"
                sample.check_s = CHECK_LIMIT_S
                self.samples[name].append(sample)
            else:
                cost[name, traced] = self.check(by_name[name], traced)

        def gain(job) -> float:
            times = [s.check_s for s in self.samples[job[0]]
                     if s.traced == job[1]]
            n = len(times)
            return statistics.median(times) ** 2 / (n * (n + 1)) / cost[job]

        while time.monotonic() - self.started <= LAST_START_S:
            now = time.monotonic()
            fits = [job for job in cost if now + cost[job] <= deadline]
            if not fits:
                break
            name, traced = max(fits, key=gain)
            cost[name, traced] = self.check(by_name[name], traced)

    # -- results ------------------------------------------------------------

    def all_samples(self):
        return [s for samples in self.samples.values() for s in samples]

    def consistent_counts(self) -> bool:
        ok = True
        for name, samples in self.samples.items():
            seen = {json.dumps({k: s.counts[k] for k in STABLE_COUNTS},
                               sort_keys=True)
                    for s in samples if s.counts is not None}
            if len(seen) > 1:
                ok = False
                self.notes.append("counts differ between runs of %s: %s"
                                  % (name, sorted(seen)))
        return ok

    def per_input(self, traced: bool):
        """Each input's samples of one kind, in order of check time."""
        for name, samples in self.samples.items():
            mine = sorted((s for s in samples if s.traced == traced),
                          key=lambda s: s.check_s)
            if mine:
                yield name, mine

    def end_to_end(self) -> dict:
        """Per input, the median over its untraced runs; then the sum or
        the maximum over the inputs.  A check's time in reference units is
        its wall time over the reference time of the same child (or of the
        run, for a child that failed).  setup_s is the median over the
        untraced children of set-up time over the reference time before the
        check, in seconds at NOMINAL_REFERENCE_S."""
        medians = {name: statistics.median(s.check_s for s in mine)
                   for name, mine in self.per_input(False)}
        references = [s.reference_s for s in self.all_samples()
                      if s.reference_s]
        reference = statistics.median(references) if references else 1.0
        in_ref = {name: statistics.median(
                      s.check_s / (s.reference_s or reference) for s in mine)
                  for name, mine in self.per_input(False)}
        rss = [statistics.median(s.rss_kb for s in mine if s.rss_kb)
               for _, mine in self.per_input(False)
               if any(s.rss_kb for s in mine)]
        setups = [s for s in self.all_samples()
                  if s.setup_s is not None and not s.traced]
        setup_ref = statistics.median(
            s.setup_s / s.setup_reference_s
            for s in setups) if setups else 0.0
        return {
            "check_ref": sum(in_ref.values()),
            "check_max_ref": max(in_ref.values()),
            "reference_s": reference,
            "check_s": sum(medians.values()),
            "check_max_s": max(medians.values()),
            "setup_s": setup_ref * NOMINAL_REFERENCE_S,
            "setup_wall_s": statistics.median(
                s.setup_s for s in setups) if setups else 0.0,
            "peak_rss_mb": max(rss) / 1024.0 if rss else 0.0,
        }

    def per_layer(self) -> dict:
        """Layer numbers of each input's median traced run, summed over
        the inputs."""
        sums = dict.fromkeys(LAYER_TIMES, 0)
        counts = {key: 0 for key in STABLE_COUNTS}
        traced_total = 0.0
        traced_ref = 0.0
        self_sum = 0.0
        closure_compose_calls = 0
        missing: set = set()
        for _, mine in self.per_input(True):
            ok = [s for s in mine if s.layers is not None]
            if not ok:
                continue
            sample = ok[(len(ok) - 1) // 2]
            for metric, (kind, key) in LAYER_TIMES.items():
                sums[metric] += sample.layers[kind].get(key, 0)
            for key in STABLE_COUNTS:
                counts[key] += sample.counts[key]
            traced_total += sample.check_s
            traced_ref += sample.check_s / sample.reference_s
            self_sum += sum(sample.layers["self"].values())
            closure_compose_calls += sample.layers["calls"].get(
                "callgraph.closure.compose_calls", 0)
            missing.update(sample.layers["missing"])
        untraced = self.end_to_end()["check_ref"]
        metrics = dict(sums)
        metrics.update({
            "typecheck.instances": counts["instances"],
            "callgraph.initial_edges": counts["initial_edges"],
            "callgraph.compositions": counts["compositions"],
            "callgraph.closure_edges": counts["closure_edges"],
            "callgraph.new_edge_ratio": (
                (counts["closure_edges"] - counts["initial_edges"])
                / counts["compositions"] if counts["compositions"] else 0.0),
            "terms.compose_us": (
                1e6 * sums["terms.compose_s"] / sums["terms.compose_calls"]
                if sums["terms.compose_calls"] else 0.0),
            "scp.loops": counts["loops"],
            "scp.checked_loops": counts["checked_loops"],
            "trace.overhead": traced_ref / untraced,
        })
        self.notes.append(
            "traced check_s %.6f s; self times of all layers sum to %.6f s"
            % (traced_total, self_sum))
        self.notes.append(
            "closure compositions seen by the tracer: %d (program reports %d)"
            % (closure_compose_calls, counts["compositions"]))
        if missing:
            self.notes.append("not found, so not traced: %s"
                              % ", ".join(sorted(missing)))
        if abs(self_sum - traced_total) > 1e-6 * max(traced_total, 1e-9):
            self.notes.append("self times do not add up to the traced time")
            self.partition_ok = False
        return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "totality" / "__init__.py").is_file():
        print("no checker source at %s" % (ROOT / "src" / "totality"),
              file=sys.stderr)
        return 2
    if args.workload == "corpus" and not (ROOT / "corpus").is_dir():
        print("no corpus at %s" % (ROOT / "corpus"), file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.warm_up()
    bench.run()

    samples = bench.all_samples()
    attempted = len(samples)
    failures = [s for s in samples if s.failure]
    unsound = sum(s.unsound for s in samples)
    counts_ok = bench.consistent_counts()
    metrics = bench.end_to_end()
    if args.trace:
        metrics.update(bench.per_layer())
    summary = dict(metrics)
    summary["failed_share"] = len(failures) / attempted
    summary["unsound_total"] = unsound
    correct = unsound == 0 and counts_ok and bench.partition_ok

    reps = [len(v) for v in bench.samples.values()]
    print("workload %s seed %d: %d inputs, %d checks (%d to %d per input)"
          % (args.workload, args.seed, len(bench.inputs), attempted,
             min(reps), max(reps)))
    for name in sorted(summary):
        print("  %-30s %14.6g %s" % (name, summary[name], unit_of(name)))
    notes = ["failed: %s" % failure
             for failure in sorted({s.failure for s in failures})[:10]]
    notes += bench.notes
    for note in notes:
        print("  %s" % note)
    print(json.dumps({"summary": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in sorted(summary.items())},
                      "notes": notes}))

    chosen = {name: metrics[name]
              for name in (PER_LAYER if args.trace else END_TO_END)}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in sorted(chosen.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
