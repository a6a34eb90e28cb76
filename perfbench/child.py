"""Run one check in this fresh interpreter and print its result as JSON.

Reads a job `{"source", "bounds", "traced"}` on stdin.  Reports the
monotonic clock once `totality` is imported (the parent subtracts its
spawn time to get the set-up time), the wall time of `analyze_source`, the
time of a fixed reference workload before, during and after it, the
verdicts, the counts that must repeat on every run, the peak RSS and, for
a traced job, per-layer times and call counts.  Every job, traced or not,
counts the loops that `scp.check_loops` checks by wrapping that one
function, which costs one extra call per group.

A traced job wraps functions where their caller looks them up, because
`from .terms import compose` binds the name again in each caller's module.
Functions that recurse through their own module-level name are therefore
counted once per outside call.
"""

import sys
import time

import totality
from totality import scp

READY = time.monotonic()

import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

# (module, name, layer).  compose_calls has no layer of its own: its glue
# counts as self time of its caller, the closure or the loop check, and its
# calls are counted under that caller.  A binding that is not there is
# listed in the result and its layer reads 0.
WRAPPED = (
    ("totality.checker", "parse_program", "surface.parse"),
    ("totality.checker", "desugar", "surface.desugar"),
    ("totality.checker", "validate_restrictions", "surface.validate"),
    ("totality.checker", "DeclEnv", "typecheck.env"),
    ("totality.checker", "annotate_group", "typecheck.annotate"),
    ("totality.checker", "build_callgraph", "callgraph.build"),
    ("totality.checker", "transitive_closure", "callgraph.closure"),
    ("totality.scp", "check_loops", "scp.check_loops"),
    ("totality.callgraph", "compose_calls", None),
    ("totality.scp", "compose_calls", None),
    ("totality.callgraph", "compose", "terms.compose"),
    ("totality.callgraph", "collapse_depth", "collapse.depth"),
    ("totality.callgraph", "collapse_weights", "collapse.weights"),
    ("totality.callgraph", "call_of_term", "callgraph.call_of_term"),
    ("totality.callgraph", "sleq", "order.sleq"),
    ("totality.scp", "sqcoh", "order.sqcoh"),
)

ROOT = "checker"

AROUND = 9              # reference samples just before and just after a check
SAMPLE_EVERY_S = 0.05   # and one per this much time during an untraced check


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work (tuples, dicts,
    strings, recursion; about 1 ms) that keeps little memory, with the
    collector off so that the check's heap does not affect it.

    Check times are also reported in units of this time, measured in the
    same interpreter before, during and after the check; that ratio barely
    moves when the whole machine slows down."""
    def tree(n):
        return (n,) if n < 2 else (n, tree(n - 1), tree(n - 2))

    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        mix = 0
        for i in range(500):
            table[i % 211, str(i % 13)] = i
            mix ^= hash(tree(i % 9))
        sorted(table)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Times `reference()` from a timer signal every SAMPLE_EVERY_S while a
    check runs.  A shared host can change speed within a second, so
    references taken only before and after a check of several seconds can
    miss the speed the check ran at.  `spent` is the time the samples
    took, which the caller takes off the check's wall time."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        try:
            self.samples.append(reference())
        except RecursionError:  # the check is deep in recursion; skip one
            pass
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Tracer:
    """Span stack with per-layer inclusive time, self time and calls.

    The self times of all layers, the root included, add up to the root's
    duration exactly.
    """

    def __init__(self):
        self.stack = [[ROOT, 0.0]]
        self.total: dict = {}
        self.self_time: dict = {}
        self.calls: dict = {}
        self.missing: list = []

    def _count(self, key: str) -> None:
        self.calls[key] = self.calls.get(key, 0) + 1

    def wrap(self, fn, layer):
        stack = self.stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [layer or stack[-1][0], 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                parent = stack[-1]
                if layer is None:
                    self._count(parent[0] + ".compose_calls")
                    parent[1] += frame[1]
                else:
                    self._count(layer)
                    self.total[layer] = self.total.get(layer, 0.0) + elapsed
                    self.self_time[layer] = (self.self_time.get(layer, 0.0)
                                             + elapsed - frame[1])
                    parent[1] += elapsed
        return span

    def run(self, fn, *args):
        """Call fn as the root span with every wrapper installed, and put
        the original functions back afterwards."""
        saved = []
        try:
            for module_name, name, layer in WRAPPED:
                module = sys.modules.get(module_name)
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append("%s.%s" % (module_name, name))
                    continue
                saved.append((module, name, original))
                setattr(module, name, self.wrap(original, layer))
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)
        self.total[ROOT] = elapsed
        self.self_time[ROOT] = elapsed - self.stack[0][1]
        self.calls[ROOT] = 1
        return result, elapsed


def counts(report, checked_loops: int) -> dict:
    groups = report.groups
    return {
        "initial_edges": sum(len(g.callgraph) for g in groups),
        "closure_edges": sum(len(g.closure) for g in groups),
        "compositions": sum(g.stats.get("compositions", 0) for g in groups),
        "loops": sum(1 for g in groups for e in g.closure
                     if e.caller == e.callee),
        "checked_loops": checked_loops,
        "instances": sum(len(g.priorities) for g in groups),
    }


def check(source: str, config, tracer=None):
    """Run `analyze_source` with the loop counter around `scp.check_loops`,
    under the tracer if there is one and under the reference sampler if
    not.  Returns the report, its wall time without the samples, the number
    of checked loops and the reference samples; every wrapper is put back
    afterwards."""
    checked = [0]
    original = scp.check_loops

    @functools.wraps(original)
    def check_loops(closure):
        outcome = original(closure)
        checked[0] += outcome.checked_loops
        return outcome

    scp.check_loops = check_loops
    samples = []
    try:
        if tracer:
            report, elapsed = tracer.run(totality.analyze_source, source,
                                         config)
        else:
            with Sampler() as sampler:
                start = time.perf_counter()
                report = totality.analyze_source(source, config)
                elapsed = time.perf_counter() - start - sampler.spent
            samples = sampler.samples
    finally:
        scp.check_loops = original
    return report, elapsed, checked[0], samples


def main() -> dict:
    job = json.loads(sys.stdin.read())
    config = totality.Config(bound_b=job["bounds"][0],
                             bound_d=job["bounds"][1])
    out = {"ready": READY}
    before = [reference() for _ in range(AROUND)]
    tracer = Tracer() if job["traced"] else None
    try:
        report, elapsed, checked_loops, during = check(job["source"], config,
                                                       tracer)
    except Exception:  # any escape is a failed check, reported to the parent
        out["raised"] = traceback.format_exc()
        return out
    out["check_s"] = elapsed
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["errors"] = list(report.errors)
    out["verdicts"] = {v.fname: [v.result, list(v.depends_on_unknown)]
                       for v in report.verdicts}
    out["counts"] = counts(report, checked_loops)
    if tracer:
        out["layers"] = {"total": tracer.total, "self": tracer.self_time,
                         "calls": tracer.calls, "missing": tracer.missing}
    del report
    gc.collect()
    after = [reference() for _ in range(AROUND)]
    out["setup_reference_s"] = statistics.median(before)
    out["reference_s"] = statistics.median(before + during + after)
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
