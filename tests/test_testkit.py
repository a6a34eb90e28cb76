"""The property harness itself: reproducibility and bug sensitivity."""

from reference import terms
from reference.generators import gen_term, run_property_suite
from reference.oracle import leq_oracle
from reference.terms import Param, ZERO, parse_term


class TestGenTerm:
    def test_size_one_is_a_leaf(self):
        for seed in range(30):
            term = gen_term(1, seed=seed)
            assert term == Param(1) or term == ZERO

    def test_reproducible(self):
        assert gen_term(6, seed=42) == gen_term(6, seed=42)

    def test_generated_terms_are_canonical(self):
        from reference.terms import nf

        for seed in range(200):
            term = gen_term(6, seed=seed)
            assert nf(term) == term


class TestOracle:
    def test_hand_checked_examples(self, oracle):
        assert leq_oracle(parse_term("? x1"), parse_term("A@1 x1"), oracle)
        assert leq_oracle(parse_term("A@1 x1"), ZERO, oracle)
        assert not leq_oracle(parse_term("A@1 x1"), parse_term("x1"), oracle)

    def test_daimon_below_every_normal_term(self, oracle):
        bottom = parse_term("? x1")
        for t in oracle.normal_terms(3):
            if t == ZERO:
                continue
            assert oracle.leq(bottom, t), t


class TestPropertySuite:
    def test_default_run_passes(self):
        report = run_property_suite(quick=True)
        assert all(fails == 0 for _, fails, _ in report.values()), report

    def test_seed_replay_is_identical(self):
        first = run_property_suite(seed=5, quick=True)
        second = run_property_suite(seed=5, quick=True)
        assert first == second

    def test_detects_unsound_weight_clamp(self, monkeypatch):
        # claiming a decrease where weights grew must trip collapse-order
        def broken_clamp(bound_b, value):
            if value < -bound_b:
                return -bound_b
            if value >= bound_b:
                return -bound_b
            return value

        monkeypatch.setattr(terms, "clamp", broken_clamp)
        report = run_property_suite(quick=True)
        runs, failures, first = report["collapse_below_composition"]
        assert failures > 0
        assert first is not None
