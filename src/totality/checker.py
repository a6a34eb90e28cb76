"""End-to-end analysis: parse, desugar, validate, type, build and close
the call graph, and apply the size-change check per definition group."""

from __future__ import annotations

import gc

from . import scp
from .callgraph import (
    CallTables,
    ClosureCapError,
    InternalError,
    build_callgraph,
    renamed,
    shape,
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


def analyze_program(program: Program, config: Config,
                    groups=None) -> Report:
    """The report of checking the desugared `program` under `config`'s
    bounds.  The groups checked are `groups`, else `program.groups`; from
    an iterable that hands out each group once, as `analyze_source` passes,
    each group is freed once its verdict is out.  `program` itself is never
    changed.

    A group whose call graph is an earlier group's up to an order-keeping
    renaming of names takes that group's closure and loop verdicts,
    renamed, and is not closed again (`_closed`); the record of closed
    graphs, like the shared word and weight tables, belongs to this call."""
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
    closed: dict = {}  # the closures of the groups so far (`_closed`)

    for group in program.groups if groups is None else groups:
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
                greport.closure, greport.stats, outcome = _closed(
                    graph, tables, closed)
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
        result = TOTAL if outcome.total else UNKNOWN
        rests = _rests_on(analyzed.defs, results)
        for adef in analyzed.defs:
            verdict = Verdict(adef.fname, result, bounds, list(reasons),
                              sorted(rests[adef.fname]))
            results[adef.fname] = verdict
            report.verdicts.append(verdict)

    return report


def _closed(graph, tables, closed: dict) -> tuple:
    """The closure edges, stats and loop outcome of `graph`, closed through
    `tables`, or an earlier graph's of its `shape` renamed to its names.
    `closed` maps (B, D, vertex count, initial edge count) to the first
    closed graph with them and its results, unshaped, and from the second
    on to the results by shape, with their names.  A graph whose closure
    or loop check fails is not recorded."""
    counts = (graph.bound_b, graph.bound_d, len(graph.vertices),
              len(graph.edges))
    found = closed.get(counts)
    if found is not None:
        if type(found) is tuple:  # the first graph with these counts
            key, names = shape(found[0])
            found = closed[counts] = {key: (names,) + found[1:]}
        key, names = shape(graph)
        if key in found:
            old, edges, stats, outcome = found[key]
            new = renamed(edges + tuple(f.loop for f in outcome.failures),
                          dict(zip(old, names)))
            failures = [scp.LoopFailure(loop, f.explanation) for loop, f
                        in zip(new[len(edges):], outcome.failures)]
            return (new[:len(edges)], dict(stats),
                    scp.GroupOutcome(outcome.total, failures))
    closure = transitive_closure(graph, tables)
    outcome = scp.check_loops(closure)
    if found is None:
        closed[counts] = (graph, closure.edges, closure.stats, outcome)
    else:
        found[key] = (names, closure.edges, closure.stats, outcome)
    return closure.edges, closure.stats, outcome


def _rests_on(defs, results: dict) -> dict:
    """The names of the verdicts other than `TOTAL` that each of the group
    `defs` rests on: those of the definitions it calls outside the group
    (`results`, which has every earlier group), and those that these and
    the members it calls rest on in turn."""
    rests = {}
    for adef in defs:
        rests[adef.fname] = names = set()
        for name in adef.calls:
            verdict = results.get(name)
            if verdict is not None:
                names.update(verdict.depends_on_unknown)
                if verdict.result != TOTAL:
                    names.add(name)
    if not any(rests.values()):
        return rests  # nothing to pass on between the members
    # a member reaches another through fewer calls than the group has
    # members, and each pass follows one more
    for _ in defs[1:]:
        for adef in defs:
            for name in adef.calls:
                if name in rests:
                    rests[adef.fname] |= rests[name]
    return rests


def _handed(program: Program):
    """`program`'s groups in order, taken from it once the first is asked
    for, each dropped as it is handed out: the one who asks holds it
    alone."""
    groups = list(reversed(program.groups))
    program.groups = ()
    while groups:
        yield groups.pop()


def analyze_source(src: str, config: Config = None) -> Report:
    """The report of checking the program `src` under `config`'s bounds.

    The check builds no reference cycles, so reference counting frees all
    it drops, and it runs with the cyclic collector paused: a collection
    would only walk the checker's heap and find nothing to free.  The
    collector's state is restored on every exit, so a caller that had it
    off finds it still off.

    Each group goes from stage to stage and is dropped once the next stage
    has it: `desugar` takes the parsed groups one at a time, so a parsed
    group is freed once desugared, and the group loop of `analyze_program`
    takes the desugared ones one at a time, after the whole desugared
    program has been validated and its declarations read, so a group's
    trees are freed once its verdict is out.  The peak of a check over many
    groups falls when `DeclEnv` is built."""
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
        program = parse_program(src)
        program = desugar(program, _handed(program))
        return analyze_program(program, config, _handed(program))
    except SourceError as err:
        message = str(err)
    except RecursionError:
        message = TOO_DEEP
    finally:
        if collecting:
            gc.enable()
    report.errors = [message]
    return report
