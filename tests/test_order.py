"""Leaf paths and the weight sum that the loop conditions read, the
syntax-directed order and weak coherence."""

import random

import pytest

from conftest import CORPUS, annotated_groups
from reference.generators import gen_call, gen_term
from reference.terms import (
    ZERO,
    arg_tree,
    call_of_term,
    call_term,
    parse_term,
    sleq,
    sqcoh,
    weight,
)
from totality import callgraph
from totality.callgraph import (
    DAIMON,
    build_callgraph,
    leaf_paths,
    transitive_closure,
    weigh,
)
from totality.scp import check_condition2


def t(text):
    return parse_term(text)


class TestBranches:
    """The leaf paths of an argument tree, which condition 2 weighs."""

    def test_record_opens_one_branch_per_field(self):
        out = leaf_paths(arg_tree(t("{Fst@0 = x1; Snd@0 = C-@1 x1}")))
        assert out == [
            (("r", "Fst", 0), ("x", None, (), 1)),
            (("r", "Snd", 0), ("x", None, (("d", "C", 1),), 1)),
        ]

    def test_parameter_is_its_own_branch(self):
        assert leaf_paths(arg_tree(t("x1"))) == [(("x", None, (), 1),)]

    def test_daimon_paths_are_dropped(self):
        # a path into a Daimon ends in a Daimon leaf
        assert leaf_paths(arg_tree(t("? x1"))) == [(("x", DAIMON, (), 1),)]
        assert leaf_paths(arg_tree(t("{D@0 = ? x1; E@0 = x2}"))) == [
            (("r", "D", 0), ("x", DAIMON, (), 1)),
            (("r", "E", 0), ("x", None, (), 2)),
        ]
        # and condition 2 drops it, though its destructor would witness
        call = call_of_term("f", t("f(? C-@1 x1)"), {"f"})
        assert call.args == (("x", DAIMON, (("d", "C", 1),), 1),)
        assert check_condition2(call) is None


class TestBranchWeight:
    """The weight sum the loop conditions read: `weigh` with an argument's
    signs (-1) or a spine's (1)."""

    def test_standard_signs(self):
        word = (("j", "Snd", 0), ("d", "Cons", 1))
        assert weigh((None,), word, -1) == ("w", weight({0: -1, 1: -1}))

    def test_stored_weight_contributes(self):
        stored = ("w", weight({1: -1}))
        assert weigh((stored,), (), -1) == stored

    def test_dual_signs_for_spines(self):
        stored = ("w", weight({0: -1}))
        assert weigh((stored,), (("r", "Tail", 0),), 1) == \
            ("w", weight({0: -2}))


class TestSleq:
    def test_reflexive(self):
        for text in ("x1", "C@1 x1", "? .D@0 x1", "<{0:-1}> x1",
                     "f(x1) + A@1 x1", "0"):
            term = t(text)
            assert sleq(term, term)

    def test_everything_below_zero(self):
        assert sleq(t("C@1 x1"), ZERO)
        assert not sleq(ZERO, t("C@1 x1"))

    def test_daimon_below_call(self):
        assert sleq(t("? x1"), t("f(x1)"))

    def test_no_rule_for_growing(self):
        assert not sleq(t("x1"), t("C@1 x1"))

    def test_weight_comparison(self):
        assert sleq(t("<{1:inf}> x1"), t("<{1:1}> x1"))
        assert not sleq(t("<{1:1}> x1"), t("<{1:inf}> x1"))

    def test_weight_against_destructor_tail(self):
        assert sleq(t("<{0:-1}> x1"), t(".D@0 x1"))
        assert sleq(t("<{0:-3}> x1"), t("<{0:-2}> .D@0 x1"))

    def test_daimon_prefix_stripping(self):
        assert sleq(t("? x1"), t("? .D@0 C-@1 x1"))
        assert sleq(t("? .D@0 x1"), t("? f(.D@0 x1)"))

    def test_sum_rule(self):
        small = t("? x1 + ? x2")
        assert sleq(small, t("? x1"))
        assert not sleq(t("? x1"), small)

    def test_collective_daimon_sum_below_record(self):
        pieces = t("? x1 + ? x2")
        target = t("{D@0 = x1; E@0 = x2}")
        assert sleq(pieces, target)

    def test_transitive_sample(self):
        rng = random.Random(99)
        for _ in range(300):
            a = gen_term(rng.randint(1, 5), rng=rng)
            b = gen_term(rng.randint(1, 5), rng=rng)
            c = gen_term(rng.randint(1, 5), rng=rng)
            if sleq(a, b) and sleq(b, c):
                assert sleq(a, c), (a, b, c)


class TestSqcoh:
    def test_structural_reflexive(self):
        for text in ("x1", "C@1 .D@0 x1", "{D@0 = x1; E@0 = C@1 x1}"):
            term = t(text)
            assert sqcoh(term, term)

    def test_daimon_destructor_stripping(self):
        assert sqcoh(t("? .Tail@0 x1"), t("? x1"))

    def test_constructor_clash_incoherent(self):
        assert not sqcoh(t("C@1 x1"), t("B@1 x1"))

    def test_weight_routes_through_daimon(self):
        assert sqcoh(t("<{0:-1}> x1"), t("<{0:-7}> x1"))
        assert sqcoh(t("C@1 x1"), t("<{1:-1}> x1"))

    def test_joint_upper_bound_implies_coherence(self):
        rng = random.Random(5)
        for _ in range(400):
            target = gen_term(rng.randint(2, 6), rng=rng)
            if target == ZERO:
                continue
            u = gen_term(rng.randint(1, 5), rng=rng)
            v = gen_term(rng.randint(1, 5), rng=rng)
            if sleq(u, target) and sleq(v, target):
                assert sqcoh(u, v), (u, v, target)


class TestOracleAgreement:
    def test_hand_checked_bottom_facts(self, oracle):
        x = t("x1")
        assert oracle.leq(t("? x1"), t("A@1 x1"))
        assert oracle.leq(t("? x1"), t("{D@0 = x1}"))
        assert oracle.leq(t("A@1 x1"), ZERO)
        assert not oracle.leq(t("A@1 x1"), x)

    def test_agreement_on_normal_pairs(self, oracle):
        lhs = oracle.normal_terms(4)
        rhs = oracle.normal_terms(3)
        for s in lhs:
            for u in rhs:
                assert sleq(s, u) == oracle.leq(s, u), (s, u)


def call(text):
    return call_of_term("f", t(text), {"f", "g"})


class TestItemSqcoh:
    """`callgraph.sqcoh` decides weak coherence on the calls' items; these
    compare it with the reference `sqcoh` on their terms."""

    @staticmethod
    def check(a, b):
        got = callgraph.sqcoh(a, b)
        assert got == sqcoh(call_term(a), call_term(b)), (str(a), str(b))
        return got

    def test_rules(self):
        # equal heads: names, priorities and record fields
        assert self.check(call("{D@0 = f(C@1 x1)}"), call("{D@0 = f(C@1 x1)}"))
        assert not self.check(call("f(C@1 x1)"), call("f(B@1 x1)"))
        assert not self.check(call("f({D@0 = x1})"), call("f({D@1 = x1})"))
        assert not self.check(call("{D@0 = f(x1)}"), call("{D@1 = f(x1)}"))
        assert not self.check(call("f({D@0 = x1; E@0 = x1})"),
                              call("f({D@0 = x1; F@0 = x1})"))
        assert not self.check(call("f(x1)"), call("g(x1)"))
        # a weight or a Daimon turns both sides into Daimons
        assert self.check(call("<{0:-1}> f(x1)"), call("<{0:-7}> f(x1)"))
        assert self.check(call("C@1 f(x1)"), call("<{1:-1}> f(x1)"))
        assert self.check(call("f({D@0 = x1; E@0 = x1})"), call("f(? x1)"))
        # two Daimons strip destructors, and calls into their arguments
        assert self.check(call("? .Tail@0 f(x1)"), call("? f(x1)"))
        assert self.check(call("B-@1 f(x1)"), call("<{}> A-@1 f(? x1)"))
        assert not self.check(call("? f(x1)"), call("? f(A@1 x1)"))

    def test_spine_walk(self):
        """Each exit of the walk over two calls' spines, both ways round."""
        def both(a, b):
            got = self.check(call(a), call(b))
            assert self.check(call(b), call(a)) == got
            return got

        # equal spines: the callees and the arguments decide
        assert both("C@1 B-@1 f(x1)", "C@1 B-@1 f(x1)")
        assert not both("C@1 B-@1 f(x1)", "C@1 B-@1 f(A@1 x1)")
        assert not both("C@1 B-@1 f(x1)", "C@1 B-@1 g(x1)")
        # a mismatch before any middle
        assert not both("C@1 B-@1 f(x1)", "C@1 A-@1 f(x1)")
        assert not both("C@1 {D@0 = f(x1)}", "C@1 {E@0 = f(x1)}")
        # a middle on one side at the end of the common prefix
        assert both("C@1 <{1:-1}> B-@1 f(x1)", "C@1 B-@1 f(x1)")
        assert both("C@1 <{1:-1}> f(x1)", "C@1 A-@1 f(x1)")
        assert not both("C@1 ? f(x1)", "C@1 A-@1 f(B@1 x1)")
        # one spine a prefix of the other, the longer going on with an item
        # or a middle
        assert not both("C@1 f(x1)", "C@1 A-@1 f(x1)")
        assert not both("A-@1 f(x1)", "f(x1)")
        assert both("C@1 f(x1)", "C@1 <{1:-1}> f(x1)")
        assert both("C@1 f(x1)", "C@1 ? f(x1)")

    def test_long_words(self):
        """A leaf's word is walked in a loop, not one level per item, so a
        word far longer than the recursion limit coheres or not at once."""
        word = (("j", "P", 0),) * 3000
        a = callgraph.Call("f", "f", (), (("x", None, word, 1),))
        b = a._replace(args=(("x", None, word[:-1] + (("j", "Q", 0),), 1),))
        assert callgraph.sqcoh(a, a)
        assert not callgraph.sqcoh(a, b)
        weighted = a._replace(args=(("x", ("w", callgraph.Weight(
            ((1, -1),))), word, 1),))
        assert callgraph.sqcoh(weighted, weighted)
        node = (word, 0, 1)
        assert len(list(callgraph.strip(node))) == 3001

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_corpus_loop_pairs(self, bound):
        """Every ordered pair of loops of every closure of the corpus."""
        pairs = coherent = 0
        for path in sorted(CORPUS.glob("*.ch")):
            for analyzed, _ in annotated_groups(path.name):
                closure = transitive_closure(
                    build_callgraph(analyzed.defs, bound, bound))
                loops = [e for e in closure.edges if e.caller == e.callee]
                for a in loops:
                    for b in loops:
                        pairs += 1
                        coherent += self.check(a, b)
        assert 0 < coherent < pairs

    def test_random_calls(self):
        """Random calls of one or two arguments, with weights and Daimons,
        each pair compared both ways and each call with itself."""
        rng = random.Random(7)
        compared = coherent = 0
        for _ in range(20000):
            arity = rng.randint(1, 2)
            a, b = gen_call(rng, arity=arity), gen_call(rng, arity=arity)
            for u, v in ((a, b), (b, a), (a, a)):
                compared += 1
                coherent += self.check(u, v)
        assert compared // 4 < coherent < compared // 2
