"""End-to-end analysis: parse, desugar, validate, type, build and close
the call graph, and apply the size-change check per definition group."""

from __future__ import annotations

import gc

from . import scp
from .callgraph import (
    CallTables,
    ClosureCapError,
    build_callgraph,
    transitive_closure,
)
from .records import Struct
from .surface import (
    Program,
    SourceError,
    TOO_DEEP,
    desugar,
    parse_program,
    type_str,
    validate_restrictions,
)
from .terms import InternalError
from .typecheck import DeclEnv, annotate_group

TOTAL = "total"
UNKNOWN = "unknown"
ERROR = "error"


class Config(Struct):
    __slots__ = ("bound_b", "bound_d")

    def __init__(self, bound_b: int = 2, bound_d: int = 2):
        self.bound_b = bound_b
        self.bound_d = bound_d


class Verdict(Struct):
    __slots__ = ("fname", "result", "bounds", "reasons", "depends_on_unknown")

    def __init__(self, fname: str, result: str, bounds: tuple,
                 reasons: list | None = None,
                 depends_on_unknown: list | None = None):
        self.fname = fname
        self.result = result
        self.bounds = bounds
        self.reasons = [] if reasons is None else reasons
        self.depends_on_unknown = ([] if depends_on_unknown is None
                                   else depends_on_unknown)


class GroupReport(Struct):
    __slots__ = ("names", "bounds", "priorities", "callgraph", "closure",
                 "stats")

    def __init__(self, names: tuple, bounds: tuple,
                 priorities: dict | None = None, callgraph: tuple = (),
                 closure: tuple = (), stats: dict | None = None):
        self.names = names
        self.bounds = bounds
        self.priorities = {} if priorities is None else priorities
        self.callgraph = callgraph
        self.closure = closure
        self.stats = {} if stats is None else stats


class Report(Struct):
    __slots__ = ("verdicts", "groups", "errors")

    def __init__(self, verdicts: list | None = None,
                 groups: list | None = None, errors: list | None = None):
        self.verdicts = [] if verdicts is None else verdicts
        self.groups = [] if groups is None else groups
        self.errors = [] if errors is None else errors

    def exit_code(self) -> int:
        if self.errors or any(v.result == ERROR for v in self.verdicts):
            return 2
        if any(v.result == UNKNOWN for v in self.verdicts):
            return 1
        return 0


def analyze_program(program: Program, config: Config) -> Report:
    """The report of checking the desugared `program` under `config`'s
    bounds."""
    report = Report()
    violations, _ = validate_restrictions(program)
    if violations:
        report.errors = [str(v) for v in violations]
        return report

    try:
        env = DeclEnv(program.decls)
    except SourceError as err:
        report.errors = [str(err)]
        return report

    schemes: dict = {}
    results: dict = {}
    shared: dict = {}  # the word and weight tables of each (B, D)

    for group in program.groups:
        bounds = group.bounds or (config.bound_b, config.bound_d)
        names = tuple(d.fname for d in group.defs)
        greport = GroupReport(names, bounds)
        report.groups.append(greport)
        try:
            analyzed = annotate_group(env, schemes, group.defs)
            greport.priorities = {
                type_str(inst): prio
                for inst, prio in analyzed.priorities.items()
            }
            if any(name in names for adef in analyzed.defs
                   for name in adef.calls):
                tables = CallTables(*bounds, shared)
                graph = build_callgraph(analyzed.defs, *bounds, tables)
                greport.callgraph = graph.edges
                closure = transitive_closure(graph, tables)
                greport.closure = closure.edges
                greport.stats = closure.stats
                outcome = scp.check_loops(closure)
            else:
                # no call into the group: no edge, so no loop to check
                greport.stats = {"edges": 0, "compositions": 0}
                outcome = scp.GroupOutcome(total=True)
        except (SourceError, ClosureCapError, InternalError,
                RecursionError) as err:
            if isinstance(err, RecursionError):
                first = group.defs[0]
                err = SourceError(TOO_DEEP, first.line, first.col)
            reason = str(err)
            if isinstance(err, InternalError):
                reason = "internal error: " + reason
            for d in group.defs:
                verdict = Verdict(d.fname, ERROR, bounds, [reason])
                results[d.fname] = verdict
                report.verdicts.append(verdict)
            continue

        reasons = sorted(str(f) for f in outcome.failures)
        for adef in analyzed.defs:
            result = TOTAL if outcome.total else UNKNOWN
            verdict = Verdict(adef.fname, result, bounds, list(reasons))
            verdict.depends_on_unknown = sorted(
                name for name in adef.calls
                if name not in names
                and results.get(name) is not None
                and results[name].result == UNKNOWN
            )
            results[adef.fname] = verdict
            report.verdicts.append(verdict)

    return report


def analyze_source(src: str, config: Config = None) -> Report:
    """The report of checking the program `src` under `config`'s bounds.

    The check builds no reference cycles, so reference counting frees all
    it drops, and it runs with the cyclic collector paused: a collection
    would only walk the checker's heap and find nothing to free.  The
    collector's state is restored on every exit, so a caller that had it
    off finds it still off.  The parse result is desugared at once, so
    that its tree is freed before the rest of the check."""
    config = config or Config()
    report = Report()
    if config.bound_b < 1:
        report.errors.append("bound B must be at least 1, not %d"
                             % config.bound_b)
    if config.bound_d < 0:
        report.errors.append("bound D must be nonnegative, not %d"
                             % config.bound_d)
    if report.errors:
        return report
    collecting = gc.isenabled()
    gc.disable()
    try:
        program = desugar(parse_program(src))
        return analyze_program(program, config)
    except SourceError as err:
        message = str(err)
    except RecursionError:
        message = TOO_DEEP
    finally:
        if collecting:
            gc.enable()
    report.errors = [message]
    return report
