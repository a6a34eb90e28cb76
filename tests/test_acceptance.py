"""Acceptance criteria, one test per criterion.

Each test prints a PASS line when its assertions hold; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import random

from conftest import analyze_corpus, annotated_groups
from reference.generators import gen_call, gen_term
from reference.oracle import OrderOracle, UniverseConfig
from reference.terms import (
    Sum,
    call_term,
    collapse_depth,
    collapse_weights,
    compose,
    is_normal,
    parse_term,
    sleq,
    weight,
)
from totality.callgraph import (
    DAIMON,
    build_callgraph,
    leaf_paths,
    spine_parts,
    transitive_closure,
    weigh,
)
from totality.scp import check_condition1, check_condition2


def t(text):
    return parse_term(text)


def closure_of(name, bound_b, bound_d, index=None):
    groups = annotated_groups(name)
    if index is None:
        index = len(groups) - 1
    analyzed, _ = groups[index]
    graph = build_callgraph(analyzed.defs, bound_b, bound_d)
    return transitive_closure(graph)


def verdicts(name, bound_b, bound_d):
    report = analyze_corpus(name, bound_b, bound_d)
    assert not report.errors, report.errors
    return {v.fname: v for v in report.verdicts}


def ok(message):
    print("PASS %s" % message)


def test_criterion_01_nats():
    assert verdicts("nats.ch", 1, 1)["nats"].result == "total"
    assert verdicts("nats.ch", 1, 0)["nats"].result == "total"
    closure = closure_of("nats.ch", 1, 1)
    expected = {
        t("{Tail@0 = nats(Succ@1 x1)}"),
        t("{Tail@0 = <{0:-1}> nats(Succ@1 <{1:inf}> x1)}"),
    }
    assert {call_term(e) for e in closure.edges} == expected
    ok("criterion 1: nats total at (1,1) and (1,0); closure is exactly "
       "{sigma, rho} with the expected spine and argument")


def test_criterion_02_length():
    assert verdicts("length.ch", 1, 0)["length"].result == "total"
    closure = closure_of("length.ch", 1, 0)
    rho = t("<{1:-1}> length(<{0:-1,1:-1}> x1)")
    matching = [e for e in closure.edges if call_term(e) == rho]
    assert matching, [str(e) for e in closure.edges]
    loop = matching[0]
    assert check_condition1(loop) is None
    witness = check_condition2(loop)
    assert witness is not None and witness[2] == 1
    ok("criterion 2: length total at (1,0); closure contains the exact "
       "collapsed call; condition 2 fires at priority 1, condition 1 does not")


def test_criterion_03_bad_s():
    for bound_b in (1, 2):
        for bound_d in (0, 1, 2):
            verdict = verdicts("bad_s.ch", bound_b, bound_d)["bad_s"]
            assert verdict.result == "unknown", (bound_b, bound_d)
    closure = closure_of("bad_s.ch", 1, 1)
    assert len(closure.edges) == 5
    report = analyze_corpus("bad_s.ch", 1, 1)
    reasons = " ".join(report.verdicts[0].reasons)
    rho11 = "{Head@0 = <{0:-1,1:-1}> bad_s()}"
    rho21 = "{Tail@0 = <{0:-1,1:-1}> bad_s()}"
    assert rho11 in reasons or rho21 in reasons
    ok("criterion 3: bad_s unknown for all (B,D) in {1,2}x{0,1,2}; closure "
       "at (1,1) has exactly 5 edges; diagnostics name a failing composite")


def spine_weight(call):
    """The net weight of a call's spine word, as condition 1 reads it; None
    when the spine runs through a Daimon."""
    ctors, middle, dtors = spine_parts(call.spine)
    if middle == DAIMON:
        return None
    return weigh((middle,), ctors + dtors, 1)[1]


def test_criterion_04_sums():
    assert verdicts("sums.ch", 1, 1)["sums"].result == "total"
    assert verdicts("sums.ch", 1, 0)["sums"].result == "unknown"

    closure = closure_of("sums.ch", 1, 1)
    loops = [e for e in closure.edges if e.caller == e.callee]

    # rho1: two output layers guaranteed, accumulator restarted from Zero
    rho1 = [c for c in loops
            if spine_weight(c) == weight({0: -2})
            and c.args[0][:2] == ("c", "Zero")]
    assert rho1 and all(check_condition1(c) == 0 for c in rho1)

    # rho2: no output guarantee, head of the stream argument shrinks
    rho2 = [c for c in loops
            if not c.spine and check_condition1(c) is None
            and check_condition2(c) is not None]
    assert rho2
    assert all(check_condition2(c)[0] == 2 and check_condition2(c)[2] == 1
               for c in rho2)

    # rho3: mixed composition, unknown accumulator, still productive
    rho3 = [c for c in loops
            if spine_weight(c) == weight({0: -2})
            and c.args[0][:2] == ("x", DAIMON)]
    assert rho3 and all(check_condition1(c) == 0 for c in rho3)
    ok("criterion 4: sums total at (1,1), unknown at (1,0); closure holds "
       "loops of the three expected shapes with the right conditions")


def test_criterion_05_incompatible_constructors():
    assert verdicts("c1c2.ch", 1, 1)["f"].result == "total"
    assert verdicts("c1c2.ch", 1, 0)["f"].result == "unknown"
    ok("criterion 5: constructor-swapping loop accepted at D=1, rejected "
       "at D=0")


def test_criterion_06_fst_snd_swap():
    assert verdicts("swap.ch", 1, 1)["f"].result == "total"
    assert verdicts("swap.ch", 1, 0)["f"].result == "unknown"
    ok("criterion 6: record component swap accepted at D=1, rejected at D=0")


def test_criterion_07_mutual_streams():
    got = verdicts("s1s2.ch", 2, 0)
    assert got["s1"].result == "total" and got["s2"].result == "total"
    got = verdicts("s1s2.ch", 1, 0)
    assert got["s1"].result == "unknown" and got["s2"].result == "unknown"
    ok("criterion 7: mutual s1/s2 total at (B=2,D=0), unknown at (B=1,D=0)")


def test_criterion_08_nats_list():
    assert verdicts("nats_list.ch", 1, 1)["nats_list"].result == "unknown"
    closure = closure_of("nats_list.ch", 1, 1)
    composed = [c for c in closure.edges if c.caller == c.callee
                and spine_weight(c) == weight({0: -1, 1: -2})]
    assert composed
    loop = composed[0]
    arg_weights = [weigh((leaf[1],), (*above, *leaf[2]), -1)[1]
                   for *above, leaf in leaf_paths(loop.args[0])
                   if leaf[1] != DAIMON and leaf[3]]
    assert weight({3: float("inf")}) in arg_weights
    assert check_condition1(loop) is None
    assert check_condition2(loop) is None
    ok("criterion 8: nats_list unknown at (1,1); composed loop shows spine "
       "weight {0:-1,1:-2} and argument weight {3:inf}")


def test_criterion_09_half():
    got = verdicts("half.ch", 2, 2)
    assert got["half1"].result == "total"
    assert got["half2"].result == "total"
    ok("criterion 9: half1 and half2 total at default bounds")


def test_criterion_10_magic():
    report = analyze_corpus("magic.ch", 2, 2)
    got = {v.fname: v for v in report.verdicts}
    assert got["bad_s"].result == "unknown"
    assert got["lower_left"].result == "total"
    assert got["lower_left"].depends_on_unknown == []
    assert got["magic"].depends_on_unknown == ["bad_s"]
    ok("criterion 10: lower_left total; magic flagged as depending on the "
       "unknown bad_s")


class TestCriterion11Properties:
    def test_a_order_oracle_agreement(self):
        pairs = 0
        for config in (UniverseConfig(),
                       UniverseConfig(constructors=("A",))):
            oracle = OrderOracle(config)
            lhs = oracle.normal_terms(4)
            rhs = oracle.normal_terms(3)
            for s in lhs:
                for u in rhs:
                    assert sleq(s, u) == oracle.leq(s, u), (s, u)
                    pairs += 1
        assert pairs >= 10 ** 4
        ok("criterion 11a: sleq matches the saturation oracle on %d "
           "ordered normal-form pairs (0 disagreements)" % pairs)

    def test_b_compose_associativity(self):
        rng = random.Random(11)
        for _ in range(1000):
            a, b, c = (call_term(gen_call(rng)) for _ in range(3))
            left = compose(a, compose(b, c, "f"), "f")
            right = compose(compose(a, b, "f"), c, "f")
            assert left == right, (a, b, c)
        ok("criterion 11b: composition associative on 1000 random call "
           "triples")

    def test_c_collapse_below_composition(self):
        rng = random.Random(12)
        pairs = 0
        checked = 0
        while pairs < 1000 or checked < 1000:
            bound_b = rng.randint(1, 2)
            bound_d = rng.randint(0, 2)
            alpha, beta = gen_call(rng), gen_call(rng)
            raw = compose(call_term(alpha), call_term(beta), "f")
            pairs += 1
            for summand in (raw.parts if isinstance(raw, Sum) else (raw,)):
                collapsed = collapse_weights(
                    bound_b, collapse_depth(bound_d, summand))
                assert sleq(collapsed, summand), (bound_b, bound_d, summand)
                checked += 1
        ok("criterion 11c: every collapsed composite stays below its source "
           "(%d call pairs, %d summands)" % (pairs, checked))

    def test_d_normal_form_grammar(self):
        rng = random.Random(13)
        for _ in range(10000):
            term = gen_term(rng.randint(1, 8), rng=rng)
            assert is_normal(term), term
        ok("criterion 11d: 10000 random terms normalize into the "
           "normal-form grammar")

    def test_e_closure_fixpoint(self):
        cases = [("nats.ch", (1, 1)), ("length.ch", (1, 0)),
                 ("bad_s.ch", (1, 1)), ("sums.ch", (1, 1)),
                 ("c1c2.ch", (1, 1)), ("swap.ch", (1, 1)),
                 ("s1s2.ch", (2, 0)), ("nats_list.ch", (1, 1)),
                 ("half.ch", (2, 2)), ("magic.ch", (2, 2))]
        for name, bounds in cases:
            for analyzed, _ in annotated_groups(name):
                closure = transitive_closure(
                    build_callgraph(analyzed.defs, *bounds))
                again = transitive_closure(closure)
                assert set(again.edges) == set(closure.edges), name
        ok("criterion 11e: closures of all corpus programs are fixpoints")

    def test_f_collapse_idempotence(self):
        rng = random.Random(14)
        for _ in range(500):
            term = call_term(gen_call(rng))
            for bound_d in (0, 1, 2):
                once = collapse_depth(bound_d, term)
                assert collapse_depth(bound_d, once) == once
            for bound_b in (1, 2):
                once = collapse_weights(bound_b, term)
                assert collapse_weights(bound_b, once) == once
        ok("criterion 11f: depth and weight collapsing are idempotent on "
           "500 random calls")
