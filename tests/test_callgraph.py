"""Clause interpretation, call extraction and closure."""

import itertools
import random
import signal
from collections import Counter

import pytest

from conftest import CORPUS, annotated_groups, corpus_source
from reference.generators import GenConfig, gen_call, gen_term
from reference.items import compose_spines, substitute_tree, weigh
from reference.terms import (
    Param,
    Sum,
    ZERO,
    approx,
    arg_tree,
    call_of_term,
    call_term,
    clause_term,
    collapse_call_term,
    compose,
    compose_calls,
    constr,
    constr_dual,
    definition_term,
    extract_calls,
    funapp,
    parse_term,
    pattern_bindings,
    plug,
    project,
    record,
    sort_key,
    substitute,
    sum_of,
    summands,
    term_str,
    tree_term,
    weight,
)
from totality import callgraph, checker, scp
from totality.callgraph import (
    Call,
    CallGraph,
    CallTables,
    ClosureCapError,
    DAIMON,
    INF,
    InternalError,
    build_callgraph,
    call_node,
    clause_calls,
    clauses_key,
    collapsed_calls,
    item_key,
    numeral_counts,
    pattern_leaves,
    renamed,
    spine_parts,
    transitive_closure,
)
from totality.checker import Config, GroupReport, analyze_source
from totality.surface import TOO_DEEP, desugar, parse_program, type_str
from totality.typecheck import (
    ACall,
    AClause,
    AConstr,
    ANum,
    AProj,
    ARecord,
    AVar,
    DeclEnv,
    annotate_group,
    clause_nodes,
)


def t(text):
    return parse_term(text)


def graph_for(name, bound_b, bound_d, index=None):
    groups = annotated_groups(name)
    if index is None:
        index = len(groups) - 1
    analyzed, _ = groups[index]
    return build_callgraph(analyzed.defs, bound_b, bound_d)


class TestPatternBindings:
    def test_sums_second_clause(self):
        groups = annotated_groups("sums.ch")
        sums = groups[1][0].defs[0]
        cons_clause = sums.clauses[1]
        bindings = pattern_bindings(cons_clause.patterns)
        assert bindings["n"] == t(".Fst@0 Cons-@1 .Head@0 x2")
        assert bindings["l"] == t(".Snd@0 Cons-@1 .Head@0 x2")
        assert bindings["s"] == t(".Tail@0 x2")
        assert bindings["acc"] == t("x1")

    def test_bare_variable(self):
        groups = annotated_groups("half.ch")
        half2 = groups[1][0].defs[0]
        bindings = pattern_bindings(half2.clauses[1].patterns)
        assert bindings["n"] == t("x1")

    def test_length_list_tail(self):
        (analyzed, _), = annotated_groups("length.ch")
        bindings = pattern_bindings(analyzed.defs[0].clauses[1].patterns)
        assert bindings["l"] == t(".Snd@0 Cons-@1 x1")


class TestDefinitionTerm:
    def test_length(self):
        (analyzed, _), = annotated_groups("length.ch")
        assert definition_term(analyzed.defs[0]) == t(
            "Succ@1 length(.Snd@0 Cons-@1 x1) + Zero@1 Nil-@1 x1")

    def test_nats(self):
        (analyzed, _), = annotated_groups("nats.ch")
        assert definition_term(analyzed.defs[0]) == t(
            "{Head@0 = x1; Tail@0 = nats(Succ@1 x1)}")

    def test_constant_clause(self):
        (analyzed, _), = annotated_groups("half.ch")[:1]
        # half1 (Succ Zero) = Zero and half1 Zero = Zero contribute
        # constructor-only summands ending in the pattern chain
        term = definition_term(analyzed.defs[0])
        assert t("Zero@1 Zero-@1 x1") in term.parts


class TestExtractCalls:
    def test_nested_calls_split(self):
        body = t("C@1 {Fst@0 = f(C-@1 x1); Snd@0 = f(C@1 f(x1))}")
        calls = extract_calls(body, {"f"})
        assert sorted(map(term_str, calls)) == sorted(map(term_str, [
            t("C@1 {Fst@0 = f(C-@1 x1)}"),
            t("C@1 {Snd@0 = f(C@1 ? x1)}"),
            t("C@1 {Snd@0 = ? f(x1)}"),
        ]))

    def test_parameter_has_no_calls(self):
        assert extract_calls(t("x1"), {"f"}) == []

    def test_nats_single_call(self):
        (analyzed, _), = annotated_groups("nats.ch")
        calls = extract_calls(definition_term(analyzed.defs[0]), {"nats"})
        assert calls == [t("{Tail@0 = nats(Succ@1 x1)}")]

    def test_external_calls_become_daimon(self):
        body = t("g(f(x1), C@1 x1)")
        calls = extract_calls(body, {"f"})
        assert calls == [t("? f(x1)")]


class TestBuildCallgraph:
    def test_bad_s_initial_edges_at_defaults(self):
        graph = graph_for("bad_s.ch", 2, 2)
        assert {term_str(call_term(e)) for e in graph.edges} == {
            "{Head@0 = Node@1 bad_s()}",
            "{Tail@0 = bad_s()}",
        }

    def test_length_single_edge(self):
        graph = graph_for("length.ch", 1, 0)
        assert len(graph.edges) == 1

    def test_non_recursive_definition_has_no_edges(self):
        graph = graph_for("sums.ch", 1, 1, index=0)  # add
        assert graph.edges == ()


def term_path_calls(caller, raw, group, bound_b, bound_d):
    """The calls of `raw` collapsed as a whole term, in order."""
    out = []
    for s in summands(collapse_call_term(raw, bound_b, bound_d)):
        if s == ZERO:
            continue
        call = call_of_term(caller, s, group)
        if call not in out:
            out.append(call)
    return out


def reference_clause_calls(caller, cl, group, counts):
    """The term path of one clause: its calls split off its term, each
    occurrence's summands read back as items."""
    return [[call_of_term(caller, s, group) for s in summands(raw)]
            for raw in extract_calls(clause_term(cl, counts), group)]


def reference_initial_edges(adefs, bound_b, bound_d):
    """The initial edges by the term path, applied clause by clause in
    source order, each call term collapsed as a whole."""
    group = {d.fname for d in adefs}
    calling = [(adef.fname, cl) for adef in adefs for cl in adef.clauses
               if not group.isdisjoint(cl.calls)]
    counts = numeral_counts([cl for _, cl in calling], bound_b, bound_d)
    return list(dict.fromkeys(
        c for caller, cl in calling
        for raw in extract_calls(clause_term(cl, counts), group)
        for c in term_path_calls(caller, raw, group, bound_b, bound_d)))


class TestInitialCollapse:
    """`build_callgraph` collapses each extracted call on its spine word
    and argument trees; these compare it with collapsing the whole term,
    in value and in order."""

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_corpus_initial_edges(self, name):
        """The term path applied clause by clause gives the edges in their
        order; the sum of each definition's clause terms gives the same
        set."""
        for analyzed, _ in annotated_groups(name):
            group = {d.fname for d in analyzed.defs}
            for bound_b in (1, 2, 3, 4):
                for bound_d in (0, 1, 2, 3, 4):
                    want = reference_initial_edges(analyzed.defs, bound_b,
                                                   bound_d)
                    graph = build_callgraph(analyzed.defs, bound_b, bound_d)
                    assert list(graph.edges) == want, (name, bound_b, bound_d)
                    assert set(want) == {
                        c for adef in analyzed.defs
                        for raw in extract_calls(definition_term(adef), group)
                        for c in term_path_calls(adef.fname, raw, group,
                                                 bound_b, bound_d)}

    def test_random_calls(self):
        """Random calls of one or two arguments, a third of them summed
        with a second call; about a third of the results have several
        calls."""
        rng = random.Random(20261018)
        calls = several = 0
        for bound_b in (1, 2, 3, 4):
            for bound_d in (0, 1, 2, 3, 4):
                for _ in range(300):
                    arity = rng.randint(1, 2)
                    raw = sum_of([call_term(gen_call(rng, arity=arity))
                                  for _ in range(rng.choice((1, 1, 2)))])
                    want = term_path_calls("f", raw, {"f"}, bound_b, bound_d)
                    got = collapsed_calls(
                        [call_of_term("f", s, {"f"}) for s in summands(raw)],
                        bound_b, bound_d)
                    assert got == want, raw
                    calls += 1
                    several += len(want) > 1
        assert calls == 6000
        assert several >= 1000


def random_clause(rng, depth=4):
    """A random annotated clause of `f`, in the group {f, g}, with one or
    two parameters, typed with one codata type whose field D holds data
    and whose field E holds codata.  Record literals are projected on
    their own fields, nested; calls of f, g and the outside h, of arity 0
    to 2, sit in call arguments, under projections, constructors, numerals
    and records."""
    names = []

    def pattern(d):
        roll = rng.random()
        if d == 0 or roll < 0.35:
            names.append("v%d" % len(names))
            return AVar(names[-1])
        if roll < 0.6:
            return AConstr(rng.choice("AB"), pattern(d - 1), prio=1)
        if roll < 0.75:
            return ANum(rng.randint(0, 3), pattern(d - 1), prio=1)
        return ARecord(tuple((n, pattern(d - 1))
                             for n in rng.sample("DE", 2)), prio=0)

    def leaf():
        if rng.random() < 0.8:
            return AVar(rng.choice(names))
        return ACall(rng.choice("fgh"), ())

    def call(d):
        return ACall(rng.choice("ffgh"), tuple(
            rng.choice((data, codata))(d - 1)
            for _ in range(rng.choice((0, 1, 1, 2, 2)))))

    def codata(d):
        roll = rng.random()
        if d <= 0 or roll < 0.15:
            return leaf()
        if roll < 0.5:
            fields = {"D": data(d - 1), "E": codata(d - 1)}
            return ARecord(tuple((n, fields[n]) for n in rng.sample("DE", 2)),
                           prio=0)
        if roll < 0.75:
            return call(d)
        return AProj(codata(d - 1), "E", prio=0)

    def data(d):
        roll = rng.random()
        if d <= 0 or roll < 0.15:
            return leaf()
        if roll < 0.3:
            return AConstr(rng.choice("AB"), data(d - 1), prio=1)
        if roll < 0.4:
            return ANum(rng.randint(0, 3), data(d - 1), prio=1)
        if roll < 0.75:
            return call(d)
        return AProj(codata(d - 1), "D", prio=0)

    patterns = tuple(pattern(2) for _ in range(rng.randint(1, 2)))
    return AClause(patterns, rng.choice((data, codata))(depth))


class TestClauseCalls:
    """`build_callgraph` reads the calls off the annotated clauses as
    items (`clause_calls`); these compare it with the term path, which
    builds each clause as a term and splits its calls off it."""

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_corpus_pattern_leaves(self, name):
        for analyzed, _ in annotated_groups(name):
            for adef in analyzed.defs:
                for cl in adef.clauses:
                    counts = numeral_counts([cl], 2, 2)
                    leaves = pattern_leaves(cl.patterns, counts)
                    terms = pattern_bindings(cl.patterns, counts)
                    assert leaves == {v: arg_tree(s)
                                      for v, s in terms.items()}, name

    def test_blinded_calls(self):
        """A call in the argument of any call loses the constructors and
        fields above it to the Daimon, under which the projections of the
        outer spine vanish; a record literal's projection selects."""
        x = AVar("x")
        cl = AClause((AVar("x"),), AConstr("C", AProj(ACall("h", (
            ARecord((("E", x), ("D", AConstr("C", ACall("f", (x,)),
                                              prio=1))), prio=0),)),
            "D", prio=0), prio=1))
        assert clause_calls("f", cl, {"f"}, {}) == [[Call(
            "f", "f", (("c", "C", 1), DAIMON), (("x", None, (), 1),))]]
        selected = AClause((AVar("x"),), AProj(ARecord((
            ("E", ACall("f", ())), ("D", ACall("f", (x,)))), prio=0),
            "D", prio=0))
        assert clause_calls("f", selected, {"f"}, {}) == [[Call(
            "f", "f", (), (("x", None, (), 1),))]]

    def test_random_clauses(self):
        """Every occurrence's summands as a set, and its collapsed calls
        in order, against the term path, at B in 1-4 and D in 0-4."""
        rng = random.Random(20261019)
        group = {"f", "g"}
        seen = Counter()
        for _ in range(4000):
            cl = random_clause(rng)
            bound_b, bound_d = rng.randint(1, 4), rng.randint(0, 4)
            counts = numeral_counts([cl], bound_b, bound_d)
            got = clause_calls("f", cl, group, counts)
            want = reference_clause_calls("f", cl, group, counts)
            assert [set(c) for c in got] == [set(c) for c in want], cl
            assert [collapsed_calls(c, bound_b, bound_d) for c in got] == [
                term_path_calls("f", raw, group, bound_b, bound_d)
                for raw in extract_calls(clause_term(cl, counts), group)], cl
            for calls in got:
                seen["occurrences"] += 1
                seen["several"] += len(calls) > 1
                for call in calls:
                    seen["blinded"] += DAIMON in call.spine
                    seen["built above the Daimon"] += DAIMON in call.spine[1:]
                    seen["projected"] += any(
                        item[0] == "j" for item in call.spine)
                    seen["0-ary"] += not call.args
        assert min(seen.values()) >= 200, seen
        assert seen["occurrences"] >= 4000, seen


class TestClosure:
    def test_nats_reaches_fixpoint_in_one_step(self):
        closure = transitive_closure(graph_for("nats.ch", 1, 1))
        assert {term_str(call_term(e)) for e in closure.edges} == {
            "{Tail@0 = nats(Succ@1 x1)}",
            "{Tail@0 = <{0:-1}> nats(Succ@1 <{1:inf}> x1)}",
        }

    def test_bad_s_closure_has_five_edges(self):
        closure = transitive_closure(graph_for("bad_s.ch", 1, 1))
        assert len(closure.edges) == 5

    def test_empty_graph(self):
        graph = graph_for("sums.ch", 1, 1, index=0)
        closure = transitive_closure(graph)
        assert closure.edges == ()

    def test_closure_is_a_fixpoint(self):
        for name, bounds in (("nats.ch", (1, 1)), ("bad_s.ch", (1, 1)),
                             ("sums.ch", (1, 1)), ("s1s2.ch", (2, 0)),
                             ("half.ch", (2, 2))):
            closure = transitive_closure(graph_for(name, *bounds))
            again = transitive_closure(closure)
            assert set(again.edges) == set(closure.edges), name

    def test_closure_size_stays_bounded(self):
        ceilings = {"nats.ch": 6, "length.ch": 6, "bad_s.ch": 24,
                    "sums.ch": 40, "half.ch": 8, "s1s2.ch": 24,
                    "nats_list.ch": 6, "magic.ch": 32, "swap.ch": 6,
                    "c1c2.ch": 4}
        for name, cap in ceilings.items():
            groups = annotated_groups(name)
            for analyzed, _ in groups:
                graph = build_callgraph(analyzed.defs, 2, 2)
                closure = transitive_closure(graph)
                assert len(closure.edges) <= cap, (name, len(closure.edges))


class TestCallParsing:
    def test_spine_and_args(self):
        call = call_of_term("f", t("{Tail@0 = <{0:-1}> f(Succ@1 x1)}"), {"f"})
        assert call.spine == (("r", "Tail", 0), ("w", t("<{0:-1}> x1").wt))
        assert call.args == (("c", "Succ", 1, ("x", None, (), 1)),)

    def test_daimon_on_spine(self):
        call = call_of_term("f", t("? f(x1)"), {"f"})
        assert call.spine == (callgraph.DAIMON,)

    @pytest.mark.parametrize("text, group, message", [
        ("x1", {"f"}, "call term must mention exactly one function: x1"),
        ("f(g(x1))", {"f", "g"},
         "call term must mention exactly one function: f(g(x1))"),
        ("f(x1)", {"g"}, "call to 'f' escapes the group"),
        ("{A@0 = g(x1); B@0 = x1}", {"f"}, "call to 'g' escapes the group"),
        ("{A@0 = f(x1); B@0 = f(x2)}", {"f"},
         "call spine through a forked record"),
        ("f(x1) + x1", {"f"}, "malformed call term x1 + f(x1)"),
        ("f(f(x1))", {"f"}, "call argument contains a function name"),
    ])
    def test_bad_terms(self, text, group, message):
        with pytest.raises(InternalError) as info:
            call_of_term("f", t(text), group)
        assert str(info.value) == message


def reference_closure(graph):
    """Edge set of the closure by plain fixpoint iteration over
    `compose_calls`, and the number of pairs composed, each once."""
    edges = set(graph.edges)
    composed = set()
    while True:
        new = set()
        for a in edges:
            for b in edges:
                if a.callee == b.caller and (a, b) not in composed:
                    composed.add((a, b))
                    new.update(compose_calls(a, b, graph.bound_b,
                                             graph.bound_d))
        new -= edges
        if not new:
            return edges, len(composed)
        edges |= new


def random_graph(rng, vertices, bound_b, bound_d, calls=None):
    """A call graph over `vertices` whose edges are `calls` random calls of
    one argument (one to three by default), renamed to random callees and
    collapsed."""
    edges = []
    for _ in range(rng.randint(1, 3) if calls is None else calls):
        caller, callee = rng.choice(vertices), rng.choice(vertices)
        call = gen_call(rng, caller)
        renamed = compose(call_term(call), funapp(callee, [Param(1)]), caller)
        collapsed = collapse_call_term(renamed, bound_b, bound_d)
        for s in summands(collapsed):
            edge = call_of_term(caller, s, set(vertices))
            if edge not in edges:
                edges.append(edge)
    return CallGraph(tuple(vertices), tuple(edges), bound_b, bound_d)


def forked_graphs(rng, bound, count):
    """`count` call graphs over three to five vertices at B=D=`bound`, each
    with one random call per vertex, of two or three arguments, collapsed.
    An argument is a parameter bare, weighted, destructed, projected or in
    a record that forks, so that a weight meeting a record forks a
    composite into several candidates.  A graph whose closure has more
    than 120 edges is passed over, which keeps the scanning reference
    quick."""
    while count:
        n, arity = rng.randint(3, 5), rng.randint(2, 3)
        vertices = ["f%d" % i for i in range(n)]
        params = [Param(j) for j in range(1, arity + 1)]
        edges = []
        for _ in range(n):
            args = []
            for _ in range(arity):
                x, y = rng.choice(params), rng.choice(params)
                args.append(rng.choice([
                    x, record([("D", x), ("E", y)], 0),
                    approx(weight({0: rng.choice((-1, 1))}), x),
                    project(rng.choice("DE"), 0, x),
                    constr_dual("A", 1, x), constr("A", 1, x)]))
            call = funapp(rng.choice(vertices), args)
            call = rng.choice([call, constr("A", 1, call),
                               constr_dual("A", 1, call),
                               record([("D", call)], 0)])
            caller = rng.choice(vertices)
            for s in summands(collapse_call_term(call, bound, bound)):
                edge = call_of_term(caller, s, set(vertices))
                if edge not in edges:
                    edges.append(edge)
        graph = CallGraph(tuple(vertices), tuple(edges), bound, bound)
        if len(transitive_closure(graph).edges) <= 120:
            count -= 1
            yield graph


class TestPiecewiseClosure:
    """The closure composes spines and arguments apart; these compare it
    with composing whole terms."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_candidates_match_compose_calls(self, name, bound):
        for analyzed, _ in annotated_groups(name):
            closure = transitive_closure(
                build_callgraph(analyzed.defs, bound, bound))
            tables = CallTables(bound, bound)
            parts = {e: tables.split(e) for e in closure.edges}
            pairs = 0
            for a in closure.edges:
                for b in closure.edges:
                    if a.callee != b.caller:
                        continue
                    pairs += 1
                    got = [tables.call(a.caller, sid, b.callee, ids)
                           for _, _, sid, ids in tables.after(
                               parts[a], ((parts[b], 0),))]
                    want = compose_calls(a, b, bound, bound)
                    assert got == want, (name, a, b)
            assert pairs == closure.stats["compositions"], name

    @pytest.mark.parametrize("bound_d", [1, 2, 3])
    @pytest.mark.parametrize("bound_b", [1, 2, 3])
    def test_random_graphs_match_reference_fixpoint(self, bound_b, bound_d):
        rng = random.Random(1000 * bound_b + bound_d)
        for n in (1, 2, 3, 1, 2, 3):
            vertices = ["f%d" % i for i in range(n)]
            graph = random_graph(rng, vertices, bound_b, bound_d)
            closure = transitive_closure(graph)
            edges, compositions = reference_closure(graph)
            assert set(closure.edges) == edges
            assert len(closure.edges) == len(edges)
            assert closure.stats["compositions"] == compositions


class TestBeforeMatchesAfter:
    """`CallTables.before(partners, second)` composes a column of partners
    with one call; it must give the concatenated `after(first, ((second,
    tag),))` of each partner.  Each closure edge is a `second`, against
    every edge into its caller; `before` and `after` run on tables of their
    own, so their candidates are compared decoded."""

    @staticmethod
    def check(closure, kinds):
        """Counts in `kinds` the candidates with and without arguments."""
        edges = closure.edges
        column = CallTables(closure.bound_b, closure.bound_d)
        row = CallTables(closure.bound_b, closure.bound_d)
        parts = [column.split(e) for e in edges]
        for b, second in zip(edges, parts):
            partners = [(parts[k], k) for k, a in enumerate(edges)
                        if a.callee == b.caller]
            got = []
            for first, k, sid, ids in column.before(partners, second):
                assert first is parts[k]
                got.append((k, column.call(edges[k].caller, sid, b.callee,
                                           ids)))
            want = [(k, row.call(edges[k].caller, sid, b.callee, ids))
                    for _, j in partners
                    for _, k, sid, ids in row.after(
                        row.split(edges[j]), ((row.split(b), j),))]
            assert got == want, b
            for _, call in got:
                kinds["args" if call.args else "no args"] += 1
            if not b.args:
                kinds["zero"] += len(partners) - len(got)

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_corpus_closures(self, bound):
        kinds = Counter()
        for path in sorted(CORPUS.glob("*.ch")):
            for analyzed, _ in annotated_groups(path.name):
                self.check(transitive_closure(
                    build_callgraph(analyzed.defs, bound, bound)), kinds)
        assert kinds["args"] and kinds["no args"], kinds

    def test_stream_rings(self):
        """Rings, and the branching streams, where composites are zero."""
        kinds = Counter()
        rng = random.Random(8200)
        for members, consumers in ((8, None), (12, 2), (16, 1)):
            self.check(transitive_closure(ring_graph(
                stream_ring(rng, members, consumers))), kinds)
        assert kinds["no args"] and not kinds["args"] and not kinds["zero"]
        self.check(transitive_closure(ring_graph(BRANCHING)), kinds)
        assert kinds["zero"] > 0 and not kinds["args"], kinds

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_random_graphs(self, bound):
        """The graphs of `TestClosureOrder.test_random_graphs` and, at B=D
        1-2, of `test_forked_records`."""
        kinds = Counter()
        rng = random.Random(7000 + bound)
        for n in (4, 5, 6, 7, 8, 4, 6, 8):
            self.check(transitive_closure(random_graph(
                rng, ["f%d" % i for i in range(n)], bound, bound,
                calls=n + 2)), kinds)
        if bound < 3:
            for graph in forked_graphs(random.Random(7200 + bound), bound, 8):
                self.check(transitive_closure(graph), kinds)
        assert kinds["args"] > 100, kinds


def ordered_reference_closure(graph, paths=None):
    """The closure in its pair order, found by scanning: the initial edges
    pairwise, then each edge k, in the order the edges were found, with
    every edge i <= k that meets it, (i, k) before (k, i).  Composites come
    from `compose_calls`, in order.  Returns the edge list, the loops'
    self-composites and the number of pairs composed.

    A Counter `paths` counts, after the initial pairs, the pairs that give
    several candidates ("multi") and the candidates that an earlier pair
    of the same step added ("duplicate")."""
    edges = list(graph.edges)
    index = {e: k for k, e in enumerate(edges)}
    k = len(edges)
    pairs = [(i, j) for i in range(k) for j in range(k)
             if edges[i].callee == edges[j].caller]
    self_composites = {}
    compositions = 0
    step = None  # the number of edges when the step began
    while True:
        for i, j in pairs:
            compositions += 1
            found = []
            composites = compose_calls(edges[i], edges[j], graph.bound_b,
                                       graph.bound_d)
            if paths is not None and step is not None:
                paths["multi"] += len(composites) > 1
                paths["duplicate"] += sum(index.get(c, -1) >= step
                                          for c in composites)
            for c in composites:
                if c not in index:
                    index[c] = len(edges)
                    edges.append(c)
                found.append(index[c])
            if i == j:
                self_composites[i] = tuple(found)
        if k == len(edges):
            return edges, self_composites, compositions
        step = len(edges)
        pairs = []
        for i in range(k + 1):
            if edges[i].callee == edges[k].caller:
                pairs.append((i, k))
            if i != k and edges[k].callee == edges[i].caller:
                pairs.append((k, i))
        k += 1


STREAM_DECLS = """data nat where Zero : nat | Succ : nat -> nat
codata st where hd : st -> nat | Tail : st -> st
"""


def stream_ring(rng, members, consumers=None):
    """A ring of mutually recursive streams: each member is a producer
    `{ hd = Zero ; Tail = next }` or a consumer `next.Tail`, where next is
    the following member, with the members named in a random order.  Each
    member consumes with probability 0.3, or exactly `consumers` members
    chosen at random do."""
    names = ["s%d" % k for k in rng.sample(range(members), members)]
    eating = (None if consumers is None
              else set(rng.sample(range(members), consumers)))
    lines = []
    for i, name in enumerate(names):
        succ = names[(i + 1) % members]
        eats = rng.random() < 0.3 if eating is None else i in eating
        body = ("%s.Tail" % succ if eats
                else "{ hd = Zero ; Tail = %s }" % succ)
        lines.append("%s %s = %s" % ("and" if lines else "val", name, body))
    return STREAM_DECLS + "\n".join(lines) + "\n"


# two streams with two tails, where a tail of one call meets the other
# field of the next and the composite is zero
BRANCHING = STREAM_DECLS.replace(
    "hd : st -> nat | Tail : st -> st",
    "hd : st -> nat | L : st -> st | R : st -> st") + (
    "val f = { hd = Zero ; L = f.R ; R = g }\n"
    "and g = { hd = Zero ; L = f ; R = g.L.L }\n")


class TestClosureOrder:
    """The closure visits only the pairs that meet, through an index of
    each vertex's edges; these pin its edge order, self-composites and
    composition count to the scanning reference on graphs with several
    vertices."""

    @staticmethod
    def check(graph):
        closure = transitive_closure(graph)
        edges, self_composites, compositions = ordered_reference_closure(
            graph)
        assert list(closure.edges) == edges
        assert closure.self_composites == self_composites
        assert closure.stats["compositions"] == compositions
        return len(edges)

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_random_graphs(self, bound):
        rng = random.Random(7000 + bound)
        sizes = []
        for n in (4, 5, 6, 7, 8, 4, 6, 8):
            vertices = ["f%d" % i for i in range(n)]
            graph = random_graph(rng, vertices, bound, bound, calls=n + 2)
            sizes.append(self.check(graph) - len(graph.edges))
        assert sum(sizes) >= 50, sizes

    def test_stream_rings(self):
        rng = random.Random(8000)
        for members in (8, 12, 16):
            report = analyze_source(stream_ring(rng, members), Config(2, 2))
            (group,) = report.groups
            graph = CallGraph(tuple(sorted(group.names)), group.callgraph,
                              *group.bounds)
            assert len(group.names) == members
            assert self.check(graph) > members

    def test_branching_streams(self):
        assert self.check(ring_graph(BRANCHING)) == 107

    def test_long_stream_rings(self):
        rng = random.Random(8100)
        for members, consumers in ((24, 3), (32, 2), (40, 1)):
            graph = ring_graph(stream_ring(rng, members, consumers))
            assert self.check(graph) > members

    def test_forked_records(self):
        """A pair can give several candidates, and two partners in one
        step the same new edge; the reference counts that both occur."""
        paths, sizes = Counter(), []
        for bound in (1, 2):
            for graph in forked_graphs(random.Random(7200 + bound), bound, 8):
                sizes.append(self.check(graph) - len(graph.edges))
                ordered_reference_closure(graph, paths)
        assert sum(sizes) >= 100, sizes
        assert paths["multi"] and paths["duplicate"], paths

    def test_duplicated_record_fields(self):
        """A self-call `f2({D@0 = x1; E@0 = x1})` at B=D=3 doubles the
        summands of each record field per composition; a record takes the
        product of its fields' distinct summands, so the closure ends at
        once, where the product of all summands ran for minutes."""
        rng = random.Random(7400)
        graphs = [random_graph(rng, ["f%d" % i for i in range(n)], bound,
                               bound, calls=n + 2)
                  for bound in (1, 2, 3) for n in (4, 6, 8)]

        def stalled(signum, frame):
            raise TimeoutError("the closure stalled")

        previous = signal.signal(signal.SIGALRM, stalled)
        signal.alarm(20)
        try:
            assert self.check(graphs[8]) == 28
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def ring_graph(source):
    """The initial call graph of a one-group program, such as a stream
    ring, at B=D=2."""
    (group,) = analyze_source(source, Config(2, 2)).groups
    return CallGraph(tuple(sorted(group.names)), group.callgraph,
                     *group.bounds)


def meeting_pairs(edges):
    """The ordered pairs of edges that meet: the sum over the vertices of
    the edges into it times the edges out of it."""
    into = Counter(e.callee for e in edges)
    out = Counter(e.caller for e in edges)
    return sum(into[v] * out[v] for v in into)


class TestCompositionCount:
    """`compositions` counts the ordered pairs of closure edges that meet,
    each of which the scanning reference composes once."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_corpus(self, bound):
        for path in sorted(CORPUS.glob("*.ch")):
            for analyzed, _ in annotated_groups(path.name):
                closure = transitive_closure(
                    build_callgraph(analyzed.defs, bound, bound))
                assert closure.stats["compositions"] == meeting_pairs(
                    closure.edges), (path.name, bound)

    def test_stream_rings(self):
        rng = random.Random(8100)
        for members, consumers in ((24, 3), (32, 2), (40, 1), (40, 12)):
            closure = transitive_closure(
                ring_graph(stream_ring(rng, members, consumers)))
            assert closure.stats["compositions"] == meeting_pairs(
                closure.edges), (members, consumers)

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_random_graphs(self, bound):
        """The random graphs of `TestClosureOrder`."""
        rng = random.Random(7000 + bound)
        graphs = [random_graph(rng, ["f%d" % i for i in range(n)], bound,
                               bound, calls=n + 2)
                  for n in (4, 5, 6, 7, 8, 4, 6, 8)]
        if bound < 3:
            graphs += forked_graphs(random.Random(7200 + bound), bound, 8)
        for graph in graphs:
            closure = transitive_closure(graph)
            assert closure.stats["compositions"] == meeting_pairs(
                closure.edges)


class TestBuiltEdges:
    """The closure builds each new edge from its spine and argument trees;
    splitting the term they stand for must give the same call back."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_spine_and_args_match_call_of_term(self, name, bound):
        for analyzed, _ in annotated_groups(name):
            graph = build_callgraph(analyzed.defs, bound, bound)
            group = set(graph.vertices)
            for edge in transitive_closure(graph).edges:
                term = call_term(edge)
                assert call_of_term(edge.caller, term, group) == edge, \
                    (name, edge)


# the callee occurrence of a spine term; no function has the empty name
HOLE = funapp("", ())


def spine_term(spine):
    return plug(spine, HOLE)


def random_spine(rng):
    """The spine of one to three random calls or projections composed,
    uncollapsed."""
    while True:
        term = HOLE
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.25:
                piece = project("D", 0, HOLE)
            else:
                call = gen_call(rng, "f", arity=rng.randint(1, 2))
                piece = compose(call_term(call), HOLE, "f")
            term = compose(term, piece, "")
        if len(summands(term)) == 1:
            return call_of_term("", term, {""}).spine


def random_spine_pairs():
    """Pairs of random spines, 110 at each B in 1-4 and D in 0-4."""
    rng = random.Random(20261018)
    for bound_b in (1, 2, 3, 4):
        for bound_d in (0, 1, 2, 3, 4):
            for _ in range(110):
                yield random_spine(rng), random_spine(rng), bound_b, bound_d


class TestSpineWords:
    """`compose_spines` rewrites item words; these compare it with
    composing and collapsing the spine terms."""

    @staticmethod
    def check(a, b, bound_b, bound_d):
        """Whether the composite is nonzero; fails unless the word
        composite and the term composite agree."""
        got = compose_spines(spine_parts(a), spine_parts(b), bound_b, bound_d)
        raw = compose(spine_term(a), spine_term(b), "")
        want = summands(collapse_call_term(raw, bound_b, bound_d))
        if not want:
            assert got is None, (a, b)
            return False
        (term,) = want
        assert got is not None, (a, b)
        assert spine_term(got) == term, (a, b, got)
        assert got == call_of_term("", term, {""}).spine, (a, b, got)
        return True

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_corpus_closure_spines(self, name, bound):
        spines = {}
        for analyzed, _ in annotated_groups(name):
            closure = transitive_closure(
                build_callgraph(analyzed.defs, bound, bound))
            spines.update(dict.fromkeys(e.spine for e in closure.edges))
        for a in spines:
            for b in spines:
                self.check(a, b, bound, bound)

    def test_random_spines(self):
        pairs = nonzero = 0
        for a, b, bound_b, bound_d in random_spine_pairs():
            nonzero += self.check(a, b, bound_b, bound_d)
            pairs += 1
        assert pairs >= 2000
        assert 0 < nonzero < pairs


def random_substitutions():
    """Random arguments over two parameters, each with random arguments
    bound to both, 400 at each B in 1-4 and D in 0-4."""
    rng = random.Random(20261018)
    cfg = GenConfig(n_params=2, allow_funapp=False, allow_sum=False)

    def arg(size):
        while True:
            term = gen_term(size, rng=rng, cfg=cfg)
            if not isinstance(term, Sum):
                return term

    for bound_b in (1, 2, 3, 4):
        for bound_d in (0, 1, 2, 3, 4):
            for _ in range(400):
                b = arg(rng.randint(1, 8))
                bindings = {1: arg(rng.randint(3, 10)),
                            2: arg(rng.randint(3, 10))}
                yield b, bindings, bound_b, bound_d


class TestArgumentTrees:
    """`substitute_tree` substitutes parameters and collapses on argument
    trees; these compare it with `collapse_call_term(substitute(...))` on
    the terms, in value and in summand order."""

    @staticmethod
    def check(arg, bindings, got, bound_b, bound_d):
        """The number of summands; fails unless the trees `got` are the
        summands of the collapsed term substitution, in order."""
        want = summands(collapse_call_term(substitute(arg, bindings),
                                           bound_b, bound_d))
        assert [tree_term(s) for s in got] == list(want), (arg, bindings)
        assert got == [arg_tree(s) for s in want], (arg, bindings)
        return len(want)

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_corpus_substitutions(self, name, bound, monkeypatch):
        """Every substitution the closures of a corpus file make."""
        made = []

        class Recorded(CallTables):
            def _substitute(self, b, ids):
                out = super()._substitute(b, ids)
                made.append((self, b, ids, out))
                return out

        monkeypatch.setattr(callgraph, "CallTables", Recorded)
        for analyzed, _ in annotated_groups(name):
            transitive_closure(build_callgraph(analyzed.defs, bound, bound))
        for tables, b, ids, out in made:
            bindings = {j: tree_term(tables.args[a])
                        for j, a in enumerate(ids, start=1)}
            got = [tables.args[i] for i in out]
            self.check(tree_term(tables.args[b]), bindings, got,
                       bound, bound)

    def test_random_substitutions(self):
        """About 2% of the results have several summands."""
        pairs = nonzero = several = 0
        for b, bindings, bound_b, bound_d in random_substitutions():
            got = substitute_tree(
                arg_tree(b), {j: arg_tree(v) for j, v in bindings.items()},
                bound_b, bound_d)
            n = self.check(b, bindings, got, bound_b, bound_d)
            pairs += 1
            nonzero += n > 0
            several += n > 1
        assert pairs >= 2000
        assert nonzero > pairs // 2
        assert several >= 100


def item_composite(a, b, bound_b, bound_d):
    """The spine and the summands of each argument of `b` composed into
    `a`, on items (`compose_spines` and `substitute_tree` of
    `reference.items`); None when the composite is zero."""
    spine = compose_spines(spine_parts(a.spine), spine_parts(b.spine),
                           bound_b, bound_d)
    if spine is None:
        return None
    bound = dict(enumerate(a.args, start=1))
    return spine, [substitute_tree(arg, bound, bound_b, bound_d)
                   for arg in b.args]


def table_composite(tables, a, b):
    """The same composite through `tables`, decoded: the spine from
    `_compose` and each argument's summand list from `_substitute`, so an
    empty list shows where it sits.  `after` must give the candidates of
    their product."""
    first, second = tables.split(a), tables.split(b)
    found = tables.after(first, ((second, 0),))
    sid = tables._compose(first[0], second[0])
    if not sid:
        assert found == []
        return None
    choices = [tables._substitute(arg, first[1]) for arg in second[1]]
    assert found == [(second, 0, sid, ids)
                     for ids in itertools.product(*choices)]
    return tables.spines[sid], [[tables.args[i] for i in ids]
                                for ids in choices]


class TestInternedTables:
    """`CallTables` composes on interned ids, with memoised weight sums,
    spine steps and substitutions; these compare what it decodes with the
    item path, summand order included.  One instance serves each closure
    or run of random pairs, so later pairs meet its memos."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_corpus_closure_pairs(self, name, bound):
        for analyzed, _ in annotated_groups(name):
            closure = transitive_closure(
                build_callgraph(analyzed.defs, bound, bound))
            tables = CallTables(bound, bound)
            for a in closure.edges:
                for b in closure.edges:
                    if a.callee == b.caller:
                        assert table_composite(tables, a, b) == \
                            item_composite(a, b, bound, bound), (name, a, b)

    def test_random_spines(self):
        nonzero = 0
        tables = {}
        for a, b, bound_b, bound_d in random_spine_pairs():
            t = tables.setdefault((bound_b, bound_d),
                                  CallTables(bound_b, bound_d))
            a, b = Call("f", "f", a, ()), Call("f", "f", b, ())
            want = item_composite(a, b, bound_b, bound_d)
            assert table_composite(t, a, b) == want, (a, b)
            nonzero += want is not None
        assert nonzero > 0

    def test_weight_sums(self):
        """Random weight sums through one instance per clamp bound, so that
        later sums meet its folds, sums and clamps, against `weigh` on the
        items."""
        rng = random.Random(20261018)
        items = [(kind, name, p) for kind, name in
                 (("c", "C"), ("d", "C"), ("r", "R"), ("j", "R"))
                 for p in (0, 1)]
        middles = [None] + [
            ("w", weight({p: rng.choice((-3, -1, 1, 2, INF))
                          for p in rng.sample(range(3), rng.randint(0, 3))}))
            for _ in range(8)]
        tables = {b: CallTables(b or 2, 2) for b in (None, 1, 2, 3)}
        for _ in range(3000):
            ms = tuple(rng.sample(middles, rng.randint(1, 2)))
            folded = tuple(rng.choices(items, k=rng.randint(0, 3)))
            sign, bound_b = rng.choice((1, -1)), rng.choice((None, 1, 2, 3))
            t = tables[bound_b]
            wid = t._weigh(tuple(t.weights[m] for m in ms), folded, sign,
                           bound_b is not None)
            assert t._middle_item(wid) == weigh(ms, folded, sign,
                                                bound_b), (ms, folded)

    def test_random_substitutions(self):
        tables = {}
        for b, bindings, bound_b, bound_d in random_substitutions():
            t = tables.setdefault((bound_b, bound_d),
                                  CallTables(bound_b, bound_d))
            a = Call("f", "f", (), (arg_tree(bindings[1]),
                                    arg_tree(bindings[2])))
            b = Call("f", "f", (), (arg_tree(b),))
            assert table_composite(t, a, b) == \
                item_composite(a, b, bound_b, bound_d), (a, b)


class TestKernelWork:
    """The first-time work of the closures at B=D=4, read off their
    tables: per closure, the distinct substitutions and substituted trees
    collapsed, the spine merge and collapse steps, and the weight folds,
    sums and clamps.  Every other composite is a lookup, so a change that
    loses memo hits changes these counts while the pair counts, pinned
    beside them, stay."""

    # file -> (compositions, (subst, collapsed, merges, collapses, folds,
    # sums, clamps)) of each group's closure
    WORK = {
        "sums.ch": [(0, (0, 0, 0, 0, 0, 0, 0)),
                    (16900, (3872, 714, 45, 57, 33, 395, 82))],
        "bad_s.ch": [(15129, (0, 0, 2337, 2006, 24, 752, 94))],
        "magic.ch": [(15129, (0, 0, 2337, 2006, 24, 752, 94)),
                     (36, (36, 20, 1, 1, 2, 20, 10)),
                     (0, (0, 0, 0, 0, 0, 0, 0))],
    }

    @pytest.mark.parametrize("name", sorted(WORK))
    def test_first_time_work(self, name, monkeypatch):
        graphs = [build_callgraph(analyzed.defs, 4, 4)
                  for analyzed, _ in annotated_groups(name)]
        made = []

        class Recorded(CallTables):
            def __init__(self, bound_b, bound_d):
                super().__init__(bound_b, bound_d)
                made.append(self)

        monkeypatch.setattr(callgraph, "CallTables", Recorded)
        compositions = [transitive_closure(graph).stats["compositions"]
                        for graph in graphs]
        assert list(zip(compositions, [
            tuple(map(len, (t.subst, t.collapsed, t.merges, t.collapses,
                            t.folds, t.sums, t.clamps)))
            for t in made])) == self.WORK[name]


def fresh_closures(source, config):
    """Each group's closure edges and stats, each closed on fresh tables;
    none, as `analyze_source` reports them, where the closure fails."""
    program = desugar(parse_program(source))
    env, schemes, found = DeclEnv(program.decls), {}, []
    for group in program.groups:
        bounds = group.bounds or (config.bound_b, config.bound_d)
        analyzed = annotate_group(env, schemes, group.defs)
        try:
            closure = transitive_closure(
                build_callgraph(analyzed.defs, *bounds))
        except ClosureCapError:
            found.append(((), {}))
        else:
            found.append((closure.edges, closure.stats))
    return found


def full_reports(source, config):
    """Each group's report and verdict, through the graph, the closure and
    the loop check of every group, each on fresh tables."""
    program = desugar(parse_program(source))
    env, schemes, found = DeclEnv(program.decls), {}, []
    for group in program.groups:
        bounds = group.bounds or (config.bound_b, config.bound_d)
        analyzed = annotate_group(env, schemes, group.defs)
        graph = build_callgraph(analyzed.defs, *bounds)
        closure = transitive_closure(graph)
        outcome = scp.check_loops(closure)
        greport = GroupReport(
            tuple(d.fname for d in group.defs), bounds,
            {type_str(inst): prio
             for inst, prio in analyzed.priorities.items()},
            graph.edges, closure.edges, closure.stats)
        found += [(greport, "total" if outcome.total else "unknown")
                  for _ in group.defs]
    return found


def checked_closures(report):
    """Each group's closure edges and stats in a report of `analyze_source`,
    whose groups share word and weight tables."""
    assert report.errors == []
    return [(g.closure, g.stats) for g in report.groups]


# a block of `many_blocks`: a data type, a codata type and three
# definitions over them, each its own group
BLOCK = (
    "data d{i} where A{i} : d{i} | B{i} : d{i} -> d{i}"
    " | C{i} : nat -> d{i} -> d{i}",
    "codata r{i} where P{i} : r{i} -> nat | Q{i} : r{i} -> r{i}",
    "val f{i} : d{i} -> nat | f{i} A{i} = {k} | f{i} ({deep}) = f{i} x"
    " | f{i} (C{i} n x) = f{i} (B{i} x)",
    "val g{i} : r{i} -> nat | g{i} {{ P{i} = 0 ; Q{i} = x }} = g{i} x"
    " | g{i} {{ P{i} = Succ y ; Q{i} = _ }} = y",
    "val h{i} : nat -> r{i} | h{i} n = {{ P{i} = n ; Q{i} = h{i} ({next}) }}",
)


def many_blocks(count, pragmas=False, reverse=False, decls_first=False):
    """A program of `count` blocks (`BLOCK`) in varied shapes; with
    `pragmas`, every third group has bounds of its own, of two kinds, and
    with `decls_first`, every declaration comes before every group."""
    blocks = []
    for i in range(count):
        deep = ("B{0} (B{0} x)" if i % 2 else "B{0} x").format(i)
        block = [line.format(i=i, k=i % 5, deep=deep,
                             next="Succ n" if i % 3 else "n")
                 for line in BLOCK]
        if pragmas:
            bounds = (3, 1) if i % 2 else (1, 3)
            for k in range(2, 5):
                if (i + k) % 3 == 0:
                    block[k] = "-- totality: B=%d, D=%d\n%s" % (
                        bounds + (block[k],))
        blocks.append(block)
    if reverse:
        blocks.reverse()
    if decls_first:
        blocks = [block[:2] for block in blocks] + [
            block[2:] for block in blocks]
    return "\n".join(["data nat where Zero : nat | Succ : nat -> nat"]
                     + [line for block in blocks for line in block]) + "\n"


class TestTableLifetimes:
    """`analyze_source` shares each (B, D)'s word and weight tables across
    its groups and gives each group its own spine and argument tables; each
    group's closure equals the one closed on fresh tables."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_corpus(self, name, bound):
        source, config = corpus_source(name), Config(bound, bound)
        report = analyze_source(source, config)
        assert checked_closures(report) == fresh_closures(source, config)

    @pytest.mark.parametrize("pragmas", [False, True])
    def test_many_blocks(self, pragmas):
        source = many_blocks(60, pragmas)
        report = analyze_source(source, Config())
        assert len(report.groups) == 180
        assert checked_closures(report) == fresh_closures(source, Config())
        assert Counter(v.result for v in report.verdicts) == {
            "total": 120, "unknown": 60}
        assert Counter(v.bounds for v in report.verdicts) == (
            {(2, 2): 120, (1, 3): 30, (3, 1): 30} if pragmas
            else {(2, 2): 180})

    def test_reverse_order(self):
        """Independent groups give the same closures, priorities and
        verdicts in either order, and with every declaration ahead of
        every group: nothing a check shares between them carries order."""
        def by_name(source):
            report = analyze_source(source, Config())
            verdicts = {v.fname: v for v in report.verdicts}
            return {g.names: (closure, g.priorities,
                              [verdicts[name] for name in g.names])
                    for g, closure in zip(report.groups,
                                          checked_closures(report))}

        want = by_name(many_blocks(30, True))
        assert len(want) == 90
        for reverse in (False, True):
            for decls_first in (False, True):
                assert by_name(many_blocks(
                    30, True, reverse, decls_first)) == want

    def test_groups_without_calls(self, monkeypatch):
        """A group whose clauses call none of its members makes no tables,
        graph, closure or loop check, and reports as if it had: 40 blocks
        of three recursive groups, each followed by a group `k` that only
        calls `f`, make as many tables as the blocks alone."""
        blocks = many_blocks(40)
        source = blocks + "".join(
            "val k{0} : d{0} -> nat | k{0} x = f{0} (B{0} x)\n".format(i)
            for i in range(40))
        want = full_reports(source, Config())
        made = Counter()
        tables = checker.CallTables

        def counted(*args):
            made["tables"] += 1
            return tables(*args)

        monkeypatch.setattr(checker, "CallTables", counted)
        analyze_source(blocks, Config())
        alone, made["tables"] = made["tables"], 0
        report = analyze_source(source, Config())
        assert made["tables"] == alone > 0
        assert [(g, v.result) for g in report.groups
                for v in report.verdicts if v.fname in g.names] == want
        assert [g.stats for g in report.groups if g.names[0][0] == "k"] == [
            {"edges": 0, "compositions": 0}] * 40

    @pytest.mark.parametrize("cap, value", [
        ("MAX_EDGES", 100), ("MAX_COMPOSITIONS", 1000)])
    def test_after_a_closure_cap(self, monkeypatch, cap, value):
        """`magic.ch` at B=D=4: the first group reaches the cap mid-way
        through its closure, the two after it close as on fresh tables."""
        source, config = corpus_source("magic.ch"), Config(4, 4)
        monkeypatch.setattr(callgraph, cap, value)
        want = fresh_closures(source, config)
        assert want[0] == ((), {}) and want[1][1]["compositions"] == 36
        report = analyze_source(source, config)
        assert checked_closures(report) == want
        assert report.verdicts[0].result == "error"

    @pytest.mark.parametrize("when", [1, 4, 17, 30, 300, 860])
    def test_after_too_deep(self, monkeypatch, when):
        """A group that runs out of stack in the middle of its weight work,
        at its `when`-th new weight, under way in a fold, a sum or a clamp,
        leaves the later groups their fresh-table closures.  The first
        group of `magic.ch` at B=D=4 makes 870 new weights, and a twin of
        it comes last, so it needs the same ones."""
        source = corpus_source("magic.ch") + (
            "val twin : stream(stree)\n"
            "  | twin = { Head = Node twin ; Tail = twin }\n")
        config = Config(4, 4)
        want = fresh_closures(source, config)
        weight, calls = CallTables._weight, Counter()

        def deep_weight(self, acc):
            calls["weight"] += 1
            if calls["weight"] == when:
                raise RecursionError("maximum recursion depth exceeded")
            return weight(self, acc)

        monkeypatch.setattr(CallTables, "_weight", deep_weight)
        report = analyze_source(source, config)
        assert calls["weight"] > when
        first = report.verdicts[0]
        assert (first.fname, first.result, first.reasons) == (
            "bad_s", "error", ["8:5: %s" % TOO_DEEP])
        assert checked_closures(report)[1:] == want[1:]
        assert [w[1]["compositions"] for w in want] == [15129, 36, 0, 15129]


class TestItemKey:
    """`item_key` sorts summands on their items; these compare its order
    with `terms.sort_key` on their terms."""

    @staticmethod
    def check(nodes, key, term_of):
        shuffled = random.Random(len(nodes)).sample(nodes, len(nodes))
        assert sorted(shuffled, key=key) == sorted(
            nodes, key=lambda n: sort_key(term_of(n))), nodes

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_corpus_summand_lists(self, bound, monkeypatch):
        """Every summand list that the corpus closures and
        `collapsed_calls` sort, and the closures of graphs with forked
        records, where a substitution gives several summands: the corpus
        has none."""
        trees, calls = [], []

        class Recorded(CallTables):
            def _substitute(self, b, ids):
                out = super()._substitute(b, ids)
                trees.append([self.args[a] for a in out])
                return out

        def recorded_calls(*args):
            out = collapsed_calls(*args)
            calls.append(out)
            return out

        monkeypatch.setattr(callgraph, "CallTables", Recorded)
        monkeypatch.setattr(callgraph, "collapsed_calls", recorded_calls)
        for path in sorted(CORPUS.glob("*.ch")):
            for analyzed, _ in annotated_groups(path.name):
                transitive_closure(build_callgraph(analyzed.defs, bound,
                                                   bound))
        if bound < 3:
            for _ in forked_graphs(random.Random(7200 + bound), bound, 4):
                pass
        for got in trees:
            assert got == sorted(got, key=lambda s: sort_key(tree_term(s)))
        for got in calls:
            assert got == sorted(got, key=lambda c: sort_key(call_term(c)))
        assert any(len(got) > 1 for got in calls)
        assert bound > 2 or any(len(got) > 1 for got in trees)

    def test_random_trees(self):
        rng = random.Random(20261019)
        cfg = GenConfig(n_params=2, allow_funapp=False, allow_sum=False)
        for _ in range(1000):
            found = {gen_term(rng.randint(1, 8), rng=rng, cfg=cfg)
                     for _ in range(rng.randint(2, 6))}
            self.check([arg_tree(s) for s in found if not isinstance(s, Sum)],
                       item_key, tree_term)

    def test_random_calls(self):
        rng = random.Random(20261019)
        for _ in range(1000):
            arity = rng.randint(1, 2)
            found = {gen_call(rng, rng.choice("fg"), arity)
                     for _ in range(rng.randint(2, 6))}
            self.check(list(found), lambda c: item_key(call_node(c)),
                       call_term)


def closures_of(source, config):
    """Each group's closure, closed on fresh tables."""
    program = desugar(parse_program(source))
    env, schemes = DeclEnv(program.decls), {}
    for group in program.groups:
        bounds = group.bounds or (config.bound_b, config.bound_d)
        analyzed = annotate_group(env, schemes, group.defs)
        yield transitive_closure(build_callgraph(analyzed.defs, *bounds))


def program_closures():
    """The closures of the corpus at B=D 1-6, of stream rings and of
    `many_blocks` with and without pragmas."""
    for path in sorted(CORPUS.glob("*.ch")):
        for bound in range(1, 7):
            yield from closures_of(path.read_text(), Config(bound, bound))
    rng = random.Random(8300)
    for members, consumers in ((8, None), (16, 1), (24, 3)):
        yield from closures_of(stream_ring(rng, members, consumers),
                               Config(2, 2))
    for pragmas in (False, True):
        yield from closures_of(many_blocks(30, pragmas), Config())


def random_closures():
    """The closures of the random graphs of `TestClosureOrder`."""
    for bound in (1, 2, 3):
        rng = random.Random(7000 + bound)
        for n in (4, 5, 6, 7, 8, 4, 6, 8):
            yield transitive_closure(random_graph(
                rng, ["f%d" % i for i in range(n)], bound, bound,
                calls=n + 2))


class TestItemPrinter:
    """The checker prints a call from its items (`callgraph.call_str`),
    without building its term: the text must be `term_str` of the term
    that `reference.terms.call_term` builds through the smart constructors,
    and a failed loop's reason must be the text of its term."""

    @pytest.mark.parametrize("call, text", [
        (Call("f", "f", (("w", weight({0: -1, 1: INF})),),
              (("x", ("w", weight({1: INF})), (("d", "Succ", 1),), 1),)),
         "<{0:-1,1:inf}> f(<{1:inf}> Succ-@1 x1)"),
        (Call("f", "f", (), (("x", ("w", weight({})), (), 1),
                             ("x", None, (), 2))),
         "f(<{}> x1, x2)"),
        (Call("f", "g", (DAIMON, ("j", "hd", 0)),
              (("x", DAIMON, (), 1), ("x", DAIMON, (("j", "Tail", 0),), 0))),
         "? .hd@0 g(? x1, ? .Tail@0 _)"),
        (Call("f", "f", (("r", "Tail", 0), ("r", "Head", 0), ("c", "N", 1)),
              (("r", 0, (("A", ("x", None, (), 1)),
                         ("B", ("r", 0, (("C", ("c", "S", 1,
                                                ("x", None, (), 0))),))))),)),
         "{Tail@0 = {Head@0 = N@1 f({A@0 = x1; B@0 = {C@0 = S@1 _}})}}"),
    ], ids=["inf", "zero weight", "daimon", "records"])
    def test_items(self, call, text):
        assert callgraph.call_str(call) == text
        assert term_str(call_term(call)) == text
        assert str(call) == "%s -> %s: %s" % (call.caller, call.callee, text)

    @staticmethod
    def check(closures, features):
        """Counts in `features` the edges whose text shows an infinite
        weight, a zero weight, a Daimon and nested one-field records, and
        the loop failures."""
        for closure in closures:
            for edge in closure.edges:
                text = callgraph.call_str(edge)
                assert text == term_str(call_term(edge)), edge
                assert str(edge) == "%s -> %s: %s" % (
                    edge.caller, edge.callee, text)
                for feature in ("inf", "<{}>", "? ", "= {"):
                    features[feature] += feature in text
            for failure in scp.check_loops(closure).failures:
                assert str(failure) == "loop %s %s" % (
                    term_str(call_term(failure.loop)), failure.explanation)
                features["failures"] += 1

    def test_programs(self):
        features = Counter()
        self.check(program_closures(), features)
        assert all(features[f] for f in (
            "inf", "? ", "= {", "failures")), features

    def test_random_graphs(self):
        """Only these have zero-weight leaves."""
        features = Counter()
        self.check(random_closures(), features)
        assert features["inf"] and features["<{}>"], features


class TestReflexiveCoherence:
    """`scp.check_loops` counts a loop that is among its own
    self-composites as coherent without walking it with `sqcoh`, which
    rests on every closure edge cohering with itself."""

    def test_every_edge_coheres_with_itself(self):
        edges = reflexive = 0
        for closure in program_closures():
            for k, edge in enumerate(closure.edges):
                assert callgraph.sqcoh(edge, edge), edge
                edges += 1
            reflexive += sum(k in composites for k, composites
                             in closure.self_composites.items())
        assert edges > 5000 and reflexive > 100, (edges, reflexive)


# the strings of calls that are not names
TAGS = {"c", "r", "d", "j", "x", "w", "daimon"}


def strings(value):
    """Every string in a nest of tuples."""
    if isinstance(value, str):
        return {value}
    if isinstance(value, tuple):
        return set().union(*map(strings, value))
    return set()


def order_keeping(rng, names):
    """A random bijection of the sorted `names` onto fresh names, none of
    them a tag or one of `names`, in the same order."""
    fresh = set()
    while len(fresh) < len(names):
        fresh.add("N" + "".join(rng.choice("abcz_0189")
                                for _ in range(rng.randint(1, 6))))
    return dict(zip(names, sorted(fresh)))


class TestRenamedClosures:
    """A check closes a group only when no earlier group's calling clauses
    are its own up to an order-keeping renaming of names (`clauses_key`),
    as the closure and the loop check commute with such a renaming; these
    rename graphs and compare the closures and loop checks."""

    @staticmethod
    def check(graph, rng):
        names = sorted(strings(graph.edges) - TAGS | set(graph.vertices))
        renaming = order_keeping(rng, names)
        twin = CallGraph(tuple(renaming[v] for v in graph.vertices),
                         renamed(graph.edges, renaming), graph.bound_b,
                         graph.bound_d)
        assert strings(twin.edges) <= TAGS | set(renaming.values())
        assert twin.vertices == tuple(sorted(twin.vertices))
        closure, closed = transitive_closure(graph), transitive_closure(twin)
        assert closed.edges == renamed(closure.edges, renaming)
        assert closed.stats == closure.stats
        assert closed.self_composites == closure.self_composites
        outcome, got = scp.check_loops(closure), scp.check_loops(closed)
        assert (got.total, got.checked_loops) == (outcome.total,
                                                 outcome.checked_loops)
        assert [(f.loop, f.explanation) for f in got.failures] == [
            (renamed((f.loop,), renaming)[0], f.explanation)
            for f in outcome.failures]
        return len(outcome.failures)

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_corpus(self, bound):
        rng, failures = random.Random(9000 + bound), 0
        for path in sorted(CORPUS.glob("*.ch")):
            for analyzed, _ in annotated_groups(path.name):
                failures += self.check(build_callgraph(
                    analyzed.defs, bound, bound), rng)
        assert failures

    def test_stream_rings(self):
        rng = random.Random(9100)
        for members in (8, 12, 16):
            self.check(ring_graph(stream_ring(rng, members)), rng)
        self.check(ring_graph(BRANCHING), rng)

    def test_many_blocks(self):
        rng = random.Random(9200)
        report = analyze_source(many_blocks(30, True), Config())
        graphs = [CallGraph(tuple(sorted(g.names)), g.callgraph, *g.bounds)
                  for g in report.groups if g.callgraph]
        assert len(graphs) == 90
        # a third of the groups are UNKNOWN, each with a failing loop
        assert sum(self.check(graph, rng) for graph in graphs) >= 30

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_random_graphs(self, bound):
        """The random graphs of `TestClosureOrder`."""
        rng = random.Random(7000 + bound)
        for n in (4, 5, 6, 7, 8, 4, 6, 8):
            vertices = ["f%d" % i for i in range(n)]
            self.check(random_graph(rng, vertices, bound, bound,
                                    calls=n + 2), rng)


class TestClosedOnce:
    """A check builds and closes one group of each `clauses_key` and hands
    the later ones of that key its call graph, closure and loop verdicts,
    renamed."""

    @staticmethod
    def counted(monkeypatch, name):
        calls = Counter()
        original = getattr(checker, name)

        def counting(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(checker, name, counting)
        return calls

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_half(self, monkeypatch, bound):
        """`half1` and `half2` are one graph up to names; the closure of
        `half2` that the check reports is its own, and a second check
        closes its first group again."""
        source, config = corpus_source("half.ch"), Config(bound, bound)
        want = fresh_closures(source, config)
        calls = self.counted(monkeypatch, "transitive_closure")
        report = analyze_source(source, config)
        assert calls["transitive_closure"] == 1
        assert checked_closures(report) == want
        assert [g.names for g in report.groups] == [("half1",), ("half2",)]
        assert analyze_source(source, config) == report
        assert calls["transitive_closure"] == 2

    def test_full_reports(self, monkeypatch):
        """Reports and verdicts of many groups, most of them of one key,
        as closing and checking each group on its own gives them."""
        source = many_blocks(30, True)
        want = full_reports(source, Config())
        calls = self.counted(monkeypatch, "transitive_closure")
        report = analyze_source(source, Config())
        assert calls["transitive_closure"] < 30
        assert [(g, v.result) for g in report.groups
                for v in report.verdicts if v.fname in g.names] == want

    @pytest.mark.parametrize("name", ["sums.ch", "ring"])
    def test_no_key_without_a_twin(self, monkeypatch, name):
        """A group is keyed only once a second with its bounds, member
        count and calling clause count arrives."""
        source = (stream_ring(random.Random(9300), 16) if name == "ring"
                  else corpus_source(name))
        calls = self.counted(monkeypatch, "clauses_key")
        for bound in (1, 2, 3, 4):
            analyze_source(source, Config(bound, bound))
        assert calls["clauses_key"] == 0

    def test_after_a_closure_cap(self, monkeypatch):
        """A group that reaches a closure cap is not recorded: its twin up to
        names closes too, and reaches the cap too."""
        source, config = corpus_source("half.ch"), Config(4, 4)
        sizes = [len(g.closure) for g in analyze_source(source,
                                                         config).groups]
        assert sizes[0] == sizes[1] > 2
        monkeypatch.setattr(callgraph, "MAX_EDGES", 2)
        calls = self.counted(monkeypatch, "transitive_closure")
        report = analyze_source(source, config)
        assert calls["transitive_closure"] == 2
        reason = "call graph closure exceeded its edge cap (2)"
        assert [(v.fname, v.result, v.reasons) for v in report.verdicts] == [
            ("half1", "error", [reason]), ("half2", "error", [reason])]


# pairs of groups equal but for one thing that call extraction reads, each
# after the declarations it needs; with `twins`, a pair that differs only
# in a clause that calls no member
KEY_PAIRS = {
    # `t` lies inside `box(t)` and gets priority 3; `tt` and `bx` reach
    # each other and share priority 1
    "priority": (
        "data box('a) where Box : 'a -> box('a)\n"
        "data t where L : t | N : t -> t\n"
        "data bx where Bx : tt -> bx\n"
        "data tt where L2 : tt | N2 : tt -> tt | E2 : bx -> tt\n"
        "val f : box(t) -> nat | f (Box (N x)) = f (Box x)\n"
        "val g : bx -> nat | g (Bx (N2 x)) = g (Bx x)\n"),
    "numeral": (
        "val f : nat -> nat | f (Succ x) = f 0\n"
        "val g : nat -> nat | g (Succ x) = g 1\n"),
    "field": (
        "codata r where P : r -> r | Q : r -> r\n"
        "val f : r -> r | f { P = x ; Q = y } = { P = f x ; Q = y }\n"
        "val g : r -> r | g { P = x ; Q = y } = { Q = g x ; P = y }\n"),
    # `B` sorts before `C` as `Y` before `Z`, but `Z (Y x)` nests them the
    # other way round
    "order": (
        "data d where A : d | B : d -> d | C : d -> d\n"
        "data e where X : e | Y : e -> e | Z : e -> e\n"
        "val f : d -> nat | f (B (C x)) = f x\n"
        "val g : e -> nat | g (Z (Y x)) = g x\n"),
    # the same three clauses in order, the second one `f`'s in the first
    # group and `h`'s in the second
    "caller": (
        "data d where A : d | B : d -> d | C : d -> d\n"
        "val f : d -> nat | f (B x) = g x | f (C x) = f x\n"
        "and g : d -> nat | g (B x) = f x\n"
        "val h : d -> nat | h (B x) = k x\n"
        "and k : d -> nat | k (C x) = h x | k (B x) = h x\n"),
    "twins": (
        "data d where A : d | B : d -> d | C : d -> d\n"
        "val f : d -> nat -> nat | f A n = 0 | f (B x) n = f x 2\n"
        "val g : d -> nat -> nat | g A n = 5 | g (C x) n = 1"
        " | g (B x) n = g x 2\n"),
}


class TestClausesKey:
    """`clauses_key` tells apart two groups that differ in any one thing
    that call extraction reads (`KEY_PAIRS`), so that each is built and
    closed as on its own, and keys alike two that differ only in a clause
    that calls no member, so that the second reuses the first's results."""

    @pytest.mark.parametrize("bound", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(KEY_PAIRS))
    def test_pairs(self, monkeypatch, name, bound):
        source = ("data nat where Zero : nat | Succ : nat -> nat\n"
                  + KEY_PAIRS[name])
        config = Config(bound, bound)
        program = desugar(parse_program(source))
        env, schemes = DeclEnv(program.decls), {}
        first, second = [clauses_key(annotate_group(
            env, schemes, group.defs).defs) for group in program.groups]
        assert (first[0] == second[0]) is (name == "twins")
        want = full_reports(source, config)
        calls = TestClosedOnce.counted(monkeypatch, "build_callgraph")
        report = analyze_source(source, config)
        assert calls["build_callgraph"] == (1 if name == "twins" else 2)
        assert [(g, v.result) for g in report.groups
                for v in report.verdicts if v.fname in g.names] == want

    def test_each_read_is_in_the_key(self):
        """A clause with a node of each kind: the key changes with each
        node's priority, the numeral's value, each `x` read as `s`, and
        each call turning from the member `f` to `k` outside the group or
        back (the numeral's argument is a call of `empty_record`)."""
        source = (
            "data nat where Zero : nat | Succ : nat -> nat\n"
            "codata r where P : r -> nat | Q : r -> r\n"
            "data d where A : d | B : d -> d\n"
            "val k : nat -> nat | k n = n\n"
            "val f : d -> r -> r | f (B x) s = { P = k 3 ; Q = f x s.Q }\n")
        program = desugar(parse_program(source))
        env, schemes = DeclEnv(program.decls), {}
        adefs = [annotate_group(env, schemes, group.defs).defs
                 for group in program.groups][1]
        (cl,) = adefs[0].clauses
        key = clauses_key(adefs)[0]
        changes = Counter()

        def changed(node, slot, value):
            old = getattr(node, slot)
            setattr(node, slot, value)
            assert clauses_key(adefs)[0] != key, (node, slot)
            setattr(node, slot, old)
            changes[type(node).__name__, slot] += 1

        for node in clause_nodes(cl):
            if getattr(node, "prio", None) is not None:
                changed(node, "prio", node.prio + 2)
            if isinstance(node, ANum):
                changed(node, "value", node.value + 1)
            if isinstance(node, AVar) and node.name == "x":
                changed(node, "name", "s")
            if isinstance(node, ACall):
                changed(node, "fname", "k" if node.fname == "f" else "f")
        assert clauses_key(adefs)[0] == key
        assert changes == {
            ("AConstr", "prio"): 1, ("ANum", "prio"): 1,
            ("ARecord", "prio"): 1, ("AProj", "prio"): 1,
            ("ANum", "value"): 1, ("AVar", "name"): 3,
            ("ACall", "fname"): 3}
