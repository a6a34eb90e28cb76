"""Weight clamping and depth truncation."""

from reference.terms import (
    collapse_depth,
    collapse_weights,
    compose,
    parse_term,
)
from totality.callgraph import INF, clamp


def t(text):
    return parse_term(text)


def test_clamp_bands():
    assert clamp(1, 1) == INF
    assert clamp(1, -2) == -1
    assert clamp(3, 0) == 0
    assert clamp(2, -2) == -2
    assert clamp(2, 2) == INF
    assert clamp(2, INF) == INF


def test_collapse_weights_walks_terms():
    term = t("{D@0 = <{0:3,1:-4}> x1; E@0 = C@1 <{0:-1}> x1}")
    assert collapse_weights(2, term) == t(
        "{D@0 = <{0:inf,1:-2}> x1; E@0 = C@1 <{0:-1}> x1}")


def test_depth_keeps_outer_layers_and_inner_destructors():
    term = t("C1@1 C2@1 C3@1 <{1:5}> C4-@1 C5-@1 C6-@1 C7-@1 x1")
    assert collapse_depth(2, term) == t("C1@1 C2@1 <{1:4}> C6-@1 C7-@1 x1")


def test_depth_zero_absorbs_everything():
    term = t("Succ@1 f(.Snd@0 Cons-@1 x1)")
    assert collapse_depth(0, term) == t("<{1:-1}> f(<{0:-1,1:-1}> x1)")


def test_depth_bound_not_reached_is_identity():
    term = t("{Tail@0 = nats(Succ@1 x1)}")
    assert collapse_depth(5, term) == term
    assert collapse_depth(1, term) == term


def test_depth_collapses_call_arguments_at_full_depth():
    sigma = t("{Tail@0 = nats(Succ@1 x1)}")
    rho = collapse_weights(1, collapse_depth(1, compose(sigma, sigma, "nats")))
    assert rho == t("{Tail@0 = <{0:-1}> nats(Succ@1 <{1:inf}> x1)}")


def test_depth_collapse_idempotent():
    terms = [
        t("C1@1 C2@1 C3@1 <{1:5}> C4-@1 C5-@1 C6-@1 C7-@1 x1"),
        t("{Tail@0 = {Tail@0 = nats(Succ@1 Succ@1 x1)}}"),
        t("? .D@0 .D@0 .D@0 x1"),
    ]
    for d in (0, 1, 2):
        for term in terms:
            once = collapse_depth(d, term)
            assert collapse_depth(d, once) == once


def test_weight_collapse_idempotent():
    term = t("<{0:9,1:-9}> C-@1 <{1:1}> x1")
    for b in (1, 2, 3):
        once = collapse_weights(b, term)
        assert collapse_weights(b, once) == once


def test_daimon_spines_are_truncated():
    term = t("? .D@0 .D@0 .D@0 x1")
    assert collapse_depth(1, term) == t("? .D@0 x1")
    assert collapse_depth(0, term) == t("? x1")
