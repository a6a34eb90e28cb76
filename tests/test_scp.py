"""Size-change conditions and loop selection."""

import random

import pytest

from conftest import CORPUS, annotated_groups
from reference.generators import gen_call
from reference.terms import (
    Approx,
    Constr,
    ConstrDual,
    Daimon,
    FunApp,
    Param,
    Project,
    Record,
    Sum,
    Unknown,
    call_of_term,
    call_term,
    compose_calls,
    is_checked_loop,
    parse_term,
    weight,
    weight_add,
)
from totality.callgraph import (
    DAIMON,
    INF,
    ZEROW,
    build_callgraph,
    leaf_paths,
    spine_parts,
    transitive_closure,
    weigh,
)
from totality.scp import (
    _dominant,
    check_condition1,
    check_condition2,
    check_loops,
)


def t(text):
    return parse_term(text)


def loop(text, fname="f"):
    return call_of_term(fname, t(text), {fname})


def closure_for(name, bound_b, bound_d, index=None):
    groups = annotated_groups(name)
    if index is None:
        index = len(groups) - 1
    analyzed, _ = groups[index]
    return transitive_closure(build_callgraph(analyzed.defs, bound_b, bound_d))


def find_loop(closure, text):
    target = t(text)
    for edge in closure.edges:
        if call_term(edge) == target:
            return edge
    raise AssertionError("loop %s not in closure" % text)


class TestCondition1:
    def test_stream_loop_produces_at_zero(self):
        closure = closure_for("nats.ch", 1, 1)
        rho = find_loop(closure, "{Tail@0 = <{0:-1}> nats(Succ@1 <{1:inf}> x1)}")
        assert check_condition1(rho) == 0

    def test_odd_debt_above_blocks(self):
        closure = closure_for("bad_s.ch", 1, 1)
        rho11 = find_loop(closure, "{Head@0 = <{0:-1,1:-1}> bad_s()}")
        assert check_condition1(rho11) is None

    def test_empty_spine_gives_nothing(self):
        assert check_condition1(loop("f(x1)")) is None

    def test_infinity_is_not_negative(self):
        assert check_condition1(loop("{Tail@0 = <{0:inf}> f(x1)}")) is None

    def test_infinity_above_counts_nonnegative(self):
        call = loop("{Tail@0 = <{0:-1,2:inf}> f(x1)}")
        assert check_condition1(call) == 0

    def test_daimon_on_spine_defeats(self):
        assert check_condition1(loop("? f(<{1:-1}> x1)")) is None


def literal_dominant(w, parity):
    """`_dominant` as its definition reads: the least priority of `parity`
    whose component is negative while none above it is."""
    support = sorted(set(w.priorities()))
    for p in support:
        if (p % 2 == parity and w.get(p) < 0
                and all(w.get(q) >= 0 for q in support if q > p)):
            return p
    return None


def test_dominant_matches_its_definition():
    """The highest negative priority is the only candidate, so one scan
    from the top finds what the definition does."""
    rng = random.Random(20261021)
    values = [-3, -2, -1, 1, 2, INF]
    for _ in range(20000):
        w = weight({p: rng.choice(values)
                    for p in rng.sample(range(7), rng.randint(0, 6))})
        parity = rng.randrange(2)
        assert _dominant(w, parity) == literal_dominant(w, parity), (w, parity)


class TestCondition2:
    def test_length_consumes_its_argument(self):
        closure = closure_for("length.ch", 1, 0)
        rho = find_loop(closure, "<{1:-1}> length(<{0:-1,1:-1}> x1)")
        index, branch, priority = check_condition2(rho)
        assert (index, priority) == (1, 1)
        assert check_condition1(rho) is None

    def test_no_arguments_no_witness(self):
        closure = closure_for("bad_s.ch", 1, 1)
        rho21 = find_loop(closure, "{Tail@0 = <{0:-1,1:-1}> bad_s()}")
        assert check_condition2(rho21) is None

    def test_sums_second_loop(self):
        closure = closure_for("sums.ch", 1, 1)
        for edge in closure.edges:
            witness = check_condition2(edge)
            if witness and not edge.spine:
                index, _, priority = witness
                assert (index, priority) == (2, 1)
                break
        else:
            raise AssertionError("no argument-consuming bare loop found")

    def test_branch_must_return_to_same_parameter(self):
        # argument 1 shrinks x2, argument 2 shrinks x1: no branch stacks
        call = loop("f(<{1:-1}> x2, <{1:-1}> x1)")
        assert check_condition2(call) is None

    def test_infinity_never_witnesses(self):
        call = loop("f(<{1:inf}> x1)")
        assert check_condition2(call) is None


class TestCheckedLoops:
    def test_stream_loop_checked(self):
        closure = closure_for("nats.ch", 1, 1)
        rho = find_loop(closure, "{Tail@0 = <{0:-1}> nats(Succ@1 <{1:inf}> x1)}")
        assert is_checked_loop(rho, 1, 1)

    def test_bad_s_loops_checked(self):
        closure = closure_for("bad_s.ch", 1, 1)
        rho11 = find_loop(closure, "{Head@0 = <{0:-1,1:-1}> bad_s()}")
        assert is_checked_loop(rho11, 1, 1)

    def test_incompatible_loop_skipped(self):
        closure = closure_for("c1c2.ch", 1, 1)
        (alpha,) = closure.edges
        assert not is_checked_loop(alpha, 1, 1)

    def test_check_loops_aggregates(self):
        outcome = check_loops(closure_for("bad_s.ch", 1, 1))
        assert not outcome.total
        texts = [str(f) for f in outcome.failures]
        assert any("<{0:-1,1:-1}>" in s for s in texts)

    def test_total_group(self):
        outcome = check_loops(closure_for("nats.ch", 1, 1))
        assert outcome.total and outcome.checked_loops >= 1


class TestRecordedSelfComposites:
    """The closure records the composites of each loop with itself, and
    `check_loops` reads them; these compare both with the term path."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_match_term_path(self, name, bound):
        for analyzed, _ in annotated_groups(name):
            closure = transitive_closure(
                build_callgraph(analyzed.defs, bound, bound))
            edges = closure.edges
            loops = [k for k, e in enumerate(edges) if e.caller == e.callee]
            assert sorted(closure.self_composites) == loops
            checked, failures = 0, []
            for k in loops:
                loop = edges[k]
                recorded = [edges[c] for c in closure.self_composites[k]]
                assert recorded == compose_calls(loop, loop, bound, bound)
                if not is_checked_loop(loop, bound, bound):
                    continue
                checked += 1
                if (check_condition1(loop) is None
                        and check_condition2(loop) is None):
                    failures.append(loop)
            outcome = check_loops(closure)
            assert outcome.checked_loops == checked
            assert [f.loop for f in outcome.failures] == failures
            assert outcome.total == (not failures)


# the reference: the branch walk of a call's term that the loop conditions
# read before they read the call's items

def branches(t, above=()):
    """Every root-to-end path of a normal form as items, ending in the
    parameter or call it reaches; paths into a Daimon or `_` are dropped."""
    if isinstance(t, Sum):
        return [b for p in t.parts for b in branches(p, above)]
    if isinstance(t, (Param, FunApp)):
        return [above + (t,)]
    if isinstance(t, (Daimon, Unknown)):
        return []
    if isinstance(t, Record):
        return [b for n, v in t.fields
                for b in branches(v, above + (("r", n, t.priority),))]
    kind = {Constr: "c", ConstrDual: "d", Project: "j"}.get(type(t))
    item = ("w", t.wt) if isinstance(t, Approx) else (kind, t.name, t.priority)
    return branches(t.arg, above + (item,))


def branch_weight(items, dual=False):
    """Constructors and record fields count +1 at their priority,
    destructors and projections -1, and stored weights add; `dual` flips
    the structural signs, as on a call spine."""
    sign = -1 if dual else 1
    total = ZEROW
    for item in items:
        if item[0] == "w":
            total = weight_add(total, item[1])
        else:
            total = weight_add(total, weight(
                {item[2]: sign if item[0] in "cr" else -sign}))
    return total


def branch_weights(call):
    """The spine's weight (None through a Daimon) and, per argument, the
    weights of the branches that return to its own parameter, read off the
    branch walk of the call's term."""
    node = term = call_term(call)
    while not isinstance(node, FunApp):
        node = node.fields[0][1] if isinstance(node, Record) else node.arg
    spine = [b[:-1] for b in branches(term)]
    args = [(i, branch_weight(b[:-1]))
            for i, a in enumerate(node.args, start=1)
            for b in branches(a) if b[-1] == Param(i)]
    return (branch_weight(spine[0], dual=True) if spine else None), args


def item_weights(call):
    """The same weights as the loop conditions read them off the items."""
    ctors, middle, dtors = spine_parts(call.spine)
    spine = None if middle == DAIMON else weigh((middle,), ctors + dtors, 1)
    args = [(i, weigh((leaf[1],), (*above, *leaf[2]), -1)[1])
            for i, a in enumerate(call.args, start=1)
            for *above, leaf in leaf_paths(a)
            if leaf[3] == i and leaf[1] != DAIMON]
    return (spine and spine[1]), args


class TestItemWeights:
    """The loop conditions read weights off a call's spine word and the
    leaf paths of its argument trees; these compare them, and the verdicts
    of both conditions, with the branch walk of the call's term."""

    @staticmethod
    def check(call):
        want = branch_weights(call)
        assert item_weights(call) == want, call
        spine, args = want
        assert check_condition1(call) == (
            None if spine is None else _dominant(spine, 0)), call
        first = next(((i, p) for i, w in args
                      if (p := _dominant(w, 1)) is not None), None)
        witness = check_condition2(call)
        assert (witness and (witness[0], witness[2])) == first, call

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_corpus_closures(self, name, bound):
        for analyzed, _ in annotated_groups(name):
            closure = transitive_closure(
                build_callgraph(analyzed.defs, bound, bound))
            for edge in closure.edges:
                self.check(edge)

    def test_random_loops(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            self.check(gen_call(rng, "f", arity=rng.randint(1, 3)))
