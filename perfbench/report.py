"""Run every workload and print every metric by name with its unit.

    python3 perfbench/report.py [--runs N] [--first-seed S] [--out FILE]

For each workload in BENCHMARK.json, `run.py` runs N times with tracing
off, on seeds S to S+N-1, and once with tracing on, on seed S, each for the
`run_seconds` that BENCHMARK.json fixes.  For every figure in the summary
of the untraced runs, the report gives the median of the N runs, its
quartiles, and the spread (interquartile range over median), next to the
bound in BENCHMARK.json for the end-to-end metrics.  The per-layer figures
come from the traced run.  With `--out` the whole report, raw values
included, is written as JSON: one point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("run.py failed on %s seed %d: %s"
                         % (workload, seed, proc.stderr.strip()[-500:]))
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2]))
    return result


def spread(values: list) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def report(workload: str, runs: int, first_seed: int, seconds: int,
           bounds: dict) -> dict:
    plain = [run_once(workload, seed, seconds, 0)
             for seed in range(first_seed, first_seed + runs)]
    traced = run_once(workload, first_seed, seconds, 1)
    print("== %s: %d runs of %d s, traced run on seed %d"
          % (workload, runs, seconds, first_seed))
    print("  correct %s; failed %d of %d checks"
          % (all(r["correct"] for r in plain + [traced]),
             sum(r["failed"] for r in plain + [traced]),
             sum(r["attempted"] for r in plain + [traced])))
    end_to_end = {}
    for name in sorted(plain[0]["summary"]):
        values = [r["summary"][name]["value"] for r in plain]
        stats = spread(values)
        stats["values"] = values
        end_to_end[name] = stats
        print("  %-28s %12.6g %-5s q1 %.6g q3 %.6g spread %.3f%s"
              % (name, stats["median"], plain[0]["summary"][name]["unit"],
                 stats.get("q1", stats["median"]),
                 stats.get("q3", stats["median"]), stats.get("spread", 0.0),
                 " bound %.2f" % bounds[name] if name in bounds else ""))
    print("  -- traced run")
    for name, figure in sorted(traced["summary"].items()):
        if name not in end_to_end:
            print("  %-28s %12.6g %s" % (name, figure["value"],
                                         figure["unit"]))
    for note in traced["notes"]:
        print("  %s" % note)
    return {"end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "traced_summary": traced["summary"],
            "traced_notes": traced["notes"],
            "runs": [{k: r[k] for k in ("correct", "attempted", "failed")}
                     for r in plain]}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    out = {
        "machine": {"system": platform.system(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "runs": args.runs, "first_seed": args.first_seed,
        "seconds": spec["run_seconds"], "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        out["workloads"][workload] = report(
            workload, args.runs, args.first_seed, spec["run_seconds"],
            {m["name"]: m["bound"] for m in spec["end_to_end"]})
    if args.out:
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
