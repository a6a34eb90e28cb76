"""Command line driver: `totality check FILE...`"""

from __future__ import annotations

import argparse
import sys

from .checker import Config, Report, analyze_source


def _render_text(report: Report, args: argparse.Namespace) -> str:
    lines = []
    for err in report.errors:
        lines.append("error: %s" % err)
    for v in report.verdicts:
        if v.result == "total":
            line = "TOTAL %s" % v.fname
        elif v.result == "unknown":
            reason = "; ".join(v.reasons) or "size-change check failed"
            line = "UNKNOWN %s: %s" % (v.fname, reason)
        else:
            line = "ERROR %s: %s" % (v.fname, "; ".join(v.reasons))
        if v.depends_on_unknown:
            line += " [depends on unknown: %s]" % ", ".join(v.depends_on_unknown)
        lines.append(line)
    if args.dump_priorities:
        for g in report.groups:
            lines.append("-- priorities for %s" % ", ".join(g.names))
            for inst, prio in sorted(g.priorities.items(),
                                     key=lambda kv: (kv[1], kv[0])):
                lines.append("%s ↦ %d" % (inst, prio))
    if args.dump_callgraph:
        for g in report.groups:
            lines.append("-- call graph for %s (B=%d, D=%d)"
                         % (", ".join(g.names), g.bounds[0], g.bounds[1]))
            for edge in sorted(str(e) for e in g.callgraph):
                lines.append(edge)
    if args.dump_closure:
        for g in report.groups:
            lines.append("-- closure for %s (B=%d, D=%d)"
                         % (", ".join(g.names), g.bounds[0], g.bounds[1]))
            for edge in sorted(str(e) for e in g.closure):
                lines.append(edge)
    return "\n".join(lines)


def _render_json(report: Report) -> dict:
    return {
        "definitions": [
            {
                "name": v.fname,
                "result": v.result,
                "bounds": {"B": v.bounds[0], "D": v.bounds[1]},
                "reasons": list(v.reasons),
                "depends_on_unknown": list(v.depends_on_unknown),
            }
            for v in report.verdicts
        ],
        "priorities": [
            {"definitions": list(g.names), "map": dict(sorted(g.priorities.items()))}
            for g in report.groups
        ],
        "stats": {
            "groups": len(report.groups),
            "edges": sum(g.stats.get("edges", len(g.closure))
                         for g in report.groups),
            "compositions": sum(g.stats.get("compositions", 0)
                                for g in report.groups),
        },
        "errors": list(report.errors),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="totality",
        description="Totality checker for recursive definitions over "
                    "inductive and coinductive types.")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="check definitions in source files")
    check.add_argument("files", nargs="+", metavar="FILE")
    check.add_argument("--bound-b", type=int, default=2, metavar="N",
                       help="weight bound B >= 1 (default 2)")
    check.add_argument("--bound-d", type=int, default=2, metavar="N",
                       help="depth bound D >= 0 (default 2)")
    check.add_argument("--json", action="store_true",
                       help="machine readable report")
    check.add_argument("--dump-priorities", action="store_true")
    check.add_argument("--dump-callgraph", action="store_true")
    check.add_argument("--dump-closure", action="store_true")
    args = parser.parse_args(argv)

    if args.bound_b < 1:
        print("error: --bound-b must be at least 1", file=sys.stderr)
        return 2
    if args.bound_d < 0:
        print("error: --bound-d must be nonnegative", file=sys.stderr)
        return 2

    config = Config(bound_b=args.bound_b, bound_d=args.bound_d)

    worst = 0
    documents = []
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                src = handle.read()
        except (OSError, UnicodeDecodeError) as err:
            reason = getattr(err, "strerror", None) or err
            print("error: %s: %s" % (path, reason), file=sys.stderr)
            worst = max(worst, 2)
            continue
        report = analyze_source(src, config)
        worst = max(worst, report.exit_code())
        if args.json:
            doc = _render_json(report)
            doc["file"] = path
            documents.append(doc)
        else:
            if len(args.files) > 1:
                print("-- %s" % path)
            text = _render_text(report, args)
            if text:
                print(text)
    if args.json:
        import json  # only here: a text report does not load it

        payload = documents[0] if len(documents) == 1 else documents
        print(json.dumps(payload, indent=2, sort_keys=True))
    return worst


if __name__ == "__main__":
    sys.exit(main())
