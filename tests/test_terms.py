"""Weights, normalization, substitution, composition and the notation."""

import pytest

from reference.terms import (
    NotationError,
    Param,
    ZERO,
    approx,
    coef_leq,
    compose,
    daimon,
    is_normal,
    nf,
    parse_term,
    record,
    substitute,
    sum_of,
    term_str,
    weight,
    weight_add,
)
from totality.callgraph import INF, ZEROW


def t(text):
    return parse_term(text)


class TestWeights:
    def test_add_disjoint(self):
        assert weight_add(weight({0: -1}), weight({1: -1})) == weight({0: -1, 1: -1})

    def test_add_absorbs_infinity(self):
        assert weight_add(weight({1: 1}), weight({1: INF})) == weight({1: INF})

    def test_zero_neutral(self):
        assert weight_add(weight({}), weight({0: 5})) == weight({0: 5})

    def test_coef_order_reversed(self):
        assert coef_leq(weight({1: INF}), weight({1: 1}))
        assert coef_leq(weight({0: -1}), weight({0: -2}))
        assert not coef_leq(weight({0: -2}), weight({0: -1}))

    def test_coef_reflexive(self):
        w = weight({0: -2, 1: INF})
        assert coef_leq(w, w)

    # the public contract of a Weight, whatever it is built on

    def test_equal_weights_hash_equal(self):
        a, b = weight({1: INF, 0: -1}), weight([(0, -1), (1, INF)])
        assert a == b and hash(a) == hash(b)
        assert ZEROW == weight({}) == weight({2: 0})
        assert weight({0: -1}) != weight({0: -2})

    def test_get_and_priorities(self):
        w = weight({3: 2, 0: -1})
        assert (w.get(0), w.get(3), w.get(1)) == (-1, 2, 0)
        assert w.priorities() == (0, 3)
        assert w.items == ((0, -1), (3, 2))

    def test_str_with_infinity(self):
        assert str(weight({1: INF, 0: -2})) == "{0:-2,1:inf}"
        assert str(ZEROW) == "{}"

    def test_duplicate_priority_raises(self):
        with pytest.raises(ValueError, match="duplicate priority"):
            weight([(0, 1), (0, 2)])

    def test_items_cannot_be_assigned(self):
        w = weight({0: -1})
        with pytest.raises(AttributeError):
            w.items = ()
        assert w.items == ((0, -1),)


class TestNormalForm:
    def test_destructor_cancels_constructor(self):
        assert t("C-@1 C@1 x1") == t("x1")

    def test_projection_sees_errors_in_other_fields(self):
        # the E field reduces to 0, erasing the whole record first
        term = t(".D@0 {D@0 = x1; E@0 = C-@1 B@1 x1}")
        assert term == ZERO

    def test_projection_of_clean_record(self):
        assert t(".D@0 {D@0 = x1; E@0 = x1}") == t("x1")

    def test_daimon_absorbs_constructor(self):
        assert t("? C@1 x1") == t("? x1")

    def test_weight_absorbs_constructor(self):
        assert t("<{}> Succ@1 x1") == approx(weight({1: 1}), Param(1))

    def test_dual_absorption_above_call(self):
        term = t("{Tail@0 = <{}> {Tail@0 = f(x1)}}")
        assert term == t("{Tail@0 = <{0:-1}> f(x1)}")

    def test_argument_side_keeps_standard_sign(self):
        assert t("<{}> Succ@1 f(x1)") == t("<{1:-1}> f(x1)")
        assert t("<{}> Succ@1 x1") == t("<{1:1}> x1")

    def test_record_with_zero_field_is_zero(self):
        assert record([("D", ZERO), ("E", Param(1))], 0) == ZERO

    def test_lossy_record_under_weight(self):
        term = approx(weight({}), record([("D", Param(1)), ("E", Param(2))], 0))
        assert term == sum_of([daimon(Param(1)), daimon(Param(2))])

    def test_weight_merge(self):
        assert t("<{0:1}> <{0:-1,1:2}> x1") == t("<{1:2}> x1")

    def test_daimon_swallows_weight(self):
        assert t("? <{0:5}> x1") == t("? x1")
        assert t("<{0:5}> ? x1") == t("? x1")

    def test_clash_gives_zero(self):
        assert t("C-@1 B@1 x1") == ZERO
        assert t(".D@0 C@1 x1") == ZERO
        assert t("C-@1 {D@0 = x1}") == ZERO

    def test_normal_forms_pass_grammar(self):
        for text in ("x1", "C@1 ? .D@0 x1", "<{0:-1}> C-@1 f(x1, ? x1)",
                     "{D@0 = x1; E@0 = <{1:inf}> x1}", "0",
                     "A@1 x1 + ? x1"):
            assert is_normal(t(text)), text


class TestSubstitute:
    def test_parameter(self):
        assert substitute(Param(1), {1: t("C@1 x1")}) == t("C@1 x1")

    def test_stacking(self):
        out = substitute(t("Succ@1 x1"), {1: t("Succ@1 x1")})
        assert out == t("Succ@1 Succ@1 x1")

    def test_sum_binding_distributes(self):
        out = substitute(t("f(x1)"), {1: sum_of([t("A@1 x1"), t("B@1 x1")])})
        assert out == sum_of([t("f(A@1 x1)"), t("f(B@1 x1)")])


class TestCompose:
    def test_stream_self_composition(self):
        sigma = t("{Tail@0 = nats(Succ@1 x1)}")
        assert compose(sigma, sigma, "nats") == \
            t("{Tail@0 = {Tail@0 = nats(Succ@1 Succ@1 x1)}}")

    def test_identity_left_factor(self):
        u = t("{Tail@0 = f(Succ@1 x1)}")
        assert compose(t("f(x1)"), u, "f") == u

    def test_nested_calls_multiply(self):
        target = sum_of([t("g(x1)"), t("h(x1)")])
        out = compose(t("f(f(x1))"), target, "f")
        assert out == sum_of([
            t("g(g(x1))"), t("g(h(x1))"), t("h(g(x1))"), t("h(h(x1))")])


class TestNotation:
    CASES = [
        "x1", "0", "_", "? x1", "<{0:-1,1:inf}> x1", "C@1 x1",
        "C-@1 .D@0 x1", "{D@0 = x1; E@0 = C@1 x1}", "f()",
        "f(x1, x2)", "A@1 x1 + ? .D@0 x1", "bad_s()",
        "{Tail@0 = <{0:-1}> nats(Succ@1 <{1:inf}> x1)}",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        term = parse_term(text)
        assert parse_term(term_str(term)) == term

    def test_round_trip_random(self):
        from reference.generators import gen_term

        import random
        rng = random.Random(7)
        for _ in range(300):
            term = gen_term(rng.randint(1, 8), rng=rng)
            assert parse_term(term_str(term)) == term

    @pytest.mark.parametrize("text", ["x\u00b2", "\u00b2", "C@\u00b2 x1",
                                      "<{\u00b9:-1}> x1"])
    def test_superscript_digits_are_notation_errors(self, text):
        with pytest.raises(NotationError):
            parse_term(text)

    def test_nf_is_identity_on_parsed_terms(self):
        for text in self.CASES:
            term = parse_term(text)
            assert nf(term) == term
