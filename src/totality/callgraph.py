"""From annotated clauses to calls, the call multigraph and its closure."""

from __future__ import annotations

from dataclasses import dataclass, field

from .collapse import collapse_depth, collapse_weights
from .order import Branch, sleq
from .terms import (
    Approx,
    Constr,
    ConstrDual,
    Daimon,
    FunApp,
    InternalError,
    Param,
    Project,
    Record,
    Sum,
    Term,
    Unknown,
    ZERO,
    compose,
    constr,
    constr_dual,
    daimon,
    funapp,
    fun_names,
    map_children,
    project,
    record,
    sum_of,
    summands,
    term_str,
)
from .typecheck import (
    ABCall,
    ABConstr,
    ABProj,
    ABRecord,
    ABVar,
    ADef,
    APConstr,
    APRecord,
    APVar,
)


@dataclass(frozen=True)
class Call:
    """One edge of the call graph: a normal form with a single occurrence
    of the callee, applied to argument summaries."""

    caller: str
    callee: str
    term: Term

    def split(self):
        """Spine items above the callee occurrence, and the occurrence."""
        items = []
        t = self.term
        while not isinstance(t, FunApp):
            if isinstance(t, Constr):
                items.append(("c", t.name, t.priority))
                t = t.arg
            elif isinstance(t, Record):
                carrying = [(n, v) for n, v in t.fields if fun_names(v)]
                if len(t.fields) != 1 or len(carrying) != 1:
                    raise InternalError("call spine through a forked record")
                name, value = t.fields[0]
                items.append(("r", name, t.priority))
                t = value
            elif isinstance(t, ConstrDual):
                items.append(("d", t.name, t.priority))
                t = t.arg
            elif isinstance(t, Project):
                items.append(("j", t.name, t.priority))
                t = t.arg
            elif isinstance(t, Daimon):
                items.append(("daimon",))
                t = t.arg
            elif isinstance(t, Approx):
                items.append(("w", t.wt))
                t = t.arg
            else:
                raise InternalError(
                    "malformed call term %s" % term_str(self.term))
        return items, t

    @property
    def spine(self):
        return self.split()[0]

    @property
    def args(self):
        return self.split()[1].args

    def spine_branch(self):
        """The spine as a branch, or None when it runs through a Daimon."""
        items = self.spine
        if any(item[0] == "daimon" for item in items):
            return None
        return Branch(tuple(items))

    def __str__(self) -> str:
        return "%s -> %s: %s" % (self.caller, self.callee, term_str(self.term))


def call_of_term(caller: str, t: Term, group: set) -> Call:
    names = fun_names(t)
    if len(names) != 1:
        raise InternalError(
            "call term must mention exactly one function: %s" % term_str(t))
    callee = names.pop()
    if callee not in group:
        raise InternalError("call to %r escapes the group" % callee)
    c = Call(caller, callee, t)
    spine, head = c.split()
    for a in head.args:
        if fun_names(a):
            raise InternalError("call argument contains a function name")
    return c


# ---------------------------------------------------------------------------
# clause translation

def pattern_bindings(patterns) -> dict:
    """Variable -> term over the caller's parameters, built by peeling the
    argument patterns with matching destructors."""
    bindings: dict[str, Term] = {}

    def walk(p, ctx: Term) -> None:
        if isinstance(p, APVar):
            bindings[p.name] = ctx
        elif isinstance(p, APConstr):
            walk(p.arg, constr_dual(p.name, p.prio, ctx))
        elif isinstance(p, APRecord):
            for name, sub in p.fields:
                walk(sub, project(name, p.prio, ctx))
        else:
            raise InternalError("unknown pattern node %r" % (p,))

    for j, p in enumerate(patterns, start=1):
        walk(p, Param(j))
    return bindings


def body_term(body, bindings: dict) -> Term:
    if isinstance(body, ABVar):
        return bindings[body.name]
    if isinstance(body, ABConstr):
        return constr(body.name, body.prio, body_term(body.arg, bindings))
    if isinstance(body, ABRecord):
        return record(
            [(n, body_term(v, bindings)) for n, v in body.fields], body.prio)
    if isinstance(body, ABProj):
        return project(body.name, body.prio, body_term(body.sub, bindings))
    if isinstance(body, ABCall):
        return funapp(body.fname, [body_term(a, bindings) for a in body.args])
    raise InternalError("unknown body node %r" % (body,))


def definition_term(adef: ADef) -> Term:
    """Interpretation of a definition: the sum of its clause bodies with
    pattern variables replaced by destructor chains."""
    parts = []
    for cl in adef.clauses:
        parts.append(body_term(cl.body, pattern_bindings(cl.patterns)))
    return sum_of(parts)


# ---------------------------------------------------------------------------
# call extraction

def _blind(t: Term) -> Term:
    """Replace every function application by a Daimon over its arguments."""
    if isinstance(t, FunApp):
        if not t.args:
            return daimon(Unknown())
        return daimon(sum_of(_blind(a) for a in t.args))
    if isinstance(t, Approx):
        raise InternalError("approximation before call extraction")
    return map_children(t, _blind)


def extract_calls(t: Term, group: set) -> list:
    """Split a clause interpretation into its independent recursive calls."""
    if isinstance(t, Sum):
        out = []
        for p in t.parts:
            out.extend(extract_calls(p, group))
        return out
    if isinstance(t, (Param, Unknown)):
        return []
    if isinstance(t, FunApp):
        out = []
        if t.fname in group:
            out.append(funapp(t.fname, [_blind(a) for a in t.args]))
        for a in t.args:
            out.extend(daimon(c) for c in extract_calls(a, group))
        return out
    if isinstance(t, Constr):
        return [constr(t.name, t.priority, c)
                for c in extract_calls(t.arg, group)]
    if isinstance(t, Record):
        out = []
        for name, value in t.fields:
            out.extend(record([(name, c)], t.priority)
                       for c in extract_calls(value, group))
        return out
    if isinstance(t, ConstrDual):
        return [constr_dual(t.name, t.priority, c)
                for c in extract_calls(t.arg, group)]
    if isinstance(t, Project):
        return [project(t.name, t.priority, c)
                for c in extract_calls(t.arg, group)]
    raise InternalError("unexpected node during call extraction: %r" % (t,))


# ---------------------------------------------------------------------------
# the graph and its closure

@dataclass
class CallGraph:
    vertices: tuple
    edges: tuple
    bound_b: int
    bound_d: int
    stats: dict = field(default_factory=dict)

    def loops(self):
        return [e for e in self.edges if e.caller == e.callee]


def collapse_call_term(t: Term, bound_b: int, bound_d: int) -> Term:
    return collapse_weights(bound_b, collapse_depth(bound_d, t))


def compose_calls(alpha: Call, beta: Call, bound_b: int, bound_d: int):
    """Collapsed composition of beta after alpha; empty when the
    composition is an error."""
    if alpha.callee != beta.caller:
        raise InternalError("calls do not compose")
    raw = compose(alpha.term, beta.term, alpha.callee)
    collapsed = collapse_call_term(raw, bound_b, bound_d)
    group = {alpha.caller, alpha.callee, beta.callee}
    return [
        call_of_term(alpha.caller, s, group)
        for s in summands(collapsed) if s != ZERO
    ]


def build_callgraph(adefs, bound_b: int, bound_d: int) -> CallGraph:
    group = {d.fname for d in adefs}
    edges: list[Call] = []
    seen = set()
    for adef in adefs:
        t = definition_term(adef)
        for raw in extract_calls(t, group):
            collapsed = collapse_call_term(raw, bound_b, bound_d)
            for s in summands(collapsed):
                if s == ZERO:
                    continue
                call = call_of_term(adef.fname, s, group)
                if call not in seen:
                    seen.add(call)
                    edges.append(call)
    return CallGraph(tuple(sorted(group)), tuple(edges), bound_b, bound_d)


def transitive_closure(graph: CallGraph, subsumption: bool = False,
                       max_edges: int = 20000,
                       max_compositions: int = 2000000) -> CallGraph:
    """Saturate the graph under collapsed composition.

    With ``subsumption`` a candidate is dropped when an existing edge with
    the same endpoints is below it; the collapsed space is finite either
    way, the caps only guard against bugs.
    """
    edges: list[Call] = list(graph.edges)
    seen = set(edges)
    compositions = 0
    pruned = 0
    pairs = [(a, b) for a in edges for b in edges if a.callee == b.caller]
    cursor = 0
    while cursor < len(pairs):
        alpha, beta = pairs[cursor]
        cursor += 1
        compositions += 1
        if compositions > max_compositions:
            raise InternalError("call graph closure did not stabilize")
        for cand in compose_calls(alpha, beta, graph.bound_b, graph.bound_d):
            if cand in seen:
                continue
            if subsumption and any(
                e.caller == cand.caller and e.callee == cand.callee
                and sleq(e.term, cand.term) for e in edges
            ):
                pruned += 1
                continue
            seen.add(cand)
            edges.append(cand)
            for e in edges:
                if e.callee == cand.caller:
                    pairs.append((e, cand))
                if e is not cand and cand.callee == e.caller:
                    pairs.append((cand, e))
            if len(edges) > max_edges:
                raise InternalError("call graph closure exceeded edge cap")
    stats = {
        "edges": len(edges),
        "compositions": compositions,
        "pruned": pruned,
    }
    return CallGraph(graph.vertices, tuple(edges), graph.bound_b,
                     graph.bound_d, stats)
