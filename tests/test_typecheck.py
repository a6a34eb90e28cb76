"""Type reconstruction, instance annotation and priority assignment."""

import pytest

from conftest import annotated_groups
from totality.surface import TApp, TArrow, TVar, type_str
from totality.typecheck import (
    ABConstr,
    ABRecord,
    APConstr,
    APRecord,
    TypeCheckError,
    Unifier,
    dominance,
)


def tapp(name, *args):
    return TApp(name, tuple(args))


class TestUnify:
    def test_head_match(self):
        u = Unifier()
        a = u.fresh()
        u.unify(tapp("list", a), tapp("list", tapp("nat")))
        assert u.deep(a) == tapp("nat")
        assert u.deep(tapp("list", a)) == tapp("list", tapp("nat"))

    def test_identity(self):
        u = Unifier()
        a = u.fresh()
        u.unify(a, a)
        assert u.bindings == {}

    def test_clash(self):
        with pytest.raises(TypeCheckError):
            Unifier().unify(tapp("nat"), tapp("stream", tapp("nat")))

    def test_occurs_check(self):
        u = Unifier()
        a = u.fresh()
        with pytest.raises(TypeCheckError):
            u.unify(a, tapp("list", a))


def priorities_of(name, index=0):
    groups = annotated_groups(name)
    analyzed, _ = groups[index]
    return {type_str(k): v for k, v in analyzed.priorities.items()}


class TestAnnotate:
    def test_length_occurrences(self):
        (analyzed, _), = annotated_groups("length.ch")
        (adef,) = analyzed.defs
        nil_clause, cons_clause = adef.clauses
        (nil_pat,) = nil_clause.patterns
        assert isinstance(nil_pat, APConstr)
        assert nil_pat.instance == tapp("list", TVar("x"))
        (cons_pat,) = cons_clause.patterns
        assert isinstance(cons_pat.arg, APRecord)
        assert cons_pat.arg.instance == tapp(
            "pair", TVar("x"), tapp("list", TVar("x")))
        body = cons_clause.body
        assert isinstance(body, ABConstr) and body.instance == tapp("nat")

    def test_nats_record_instance(self):
        (analyzed, _), = annotated_groups("nats.ch")
        (adef,) = analyzed.defs
        (clause,) = adef.clauses
        assert isinstance(clause.body, ABRecord)
        assert clause.body.instance == tapp("stream", tapp("nat"))

    def test_unknown_constructor_reported(self):
        from totality.checker import Config, analyze_source

        report = analyze_source(
            "data nat where Zero : nat | Succ : nat -> nat\n"
            "val f : nat -> nat | f x = Foo x", Config())
        assert report.errors  # caught by the restriction checks

    def test_record_not_matching_any_codata(self):
        from totality.surface import desugar, parse_program, validate_restrictions
        from totality.typecheck import DeclEnv, annotate_group

        program = desugar(parse_program(
            "data nat where Zero : nat | Succ : nat -> nat\n"
            "val f : nat -> nat | f x = { Mystery = x }"))
        env = DeclEnv(program.decls)
        with pytest.raises(TypeCheckError):
            annotate_group(env, {}, program.groups[0].defs, recursive=False)

    def test_rigid_signature_variable(self):
        from totality.surface import desugar, parse_program
        from totality.typecheck import DeclEnv, annotate_group

        program = desugar(parse_program(
            "data nat where Zero : nat | Succ : nat -> nat\n"
            "val f : 'x -> nat | f Zero = Zero"))
        env = DeclEnv(program.decls)
        with pytest.raises(TypeCheckError):
            annotate_group(env, {}, program.groups[0].defs, recursive=False)


class TestPriorities:
    def test_stream_of_nat(self):
        assert priorities_of("nats.ch") == {
            "stream(nat)": 0, "nat": 1, "unit": 2}

    def test_stream_of_trees(self):
        assert priorities_of("bad_s.ch") == {"stream(stree)": 0, "stree": 1}

    def test_nats_list(self):
        got = priorities_of("nats_list.ch")
        assert got["list(nat)"] == 1
        assert got["nat"] == 3
        assert got["unit"] == 4
        assert got["pair(nat, list(nat))"] == 0

    def test_sums_follows_body_tags(self):
        got = priorities_of("sums.ch", index=1)
        assert got["stream(list(nat))"] == 0
        assert got["stream(nat)"] == 0
        assert got["list(nat)"] == 1
        assert got["nat"] == 3
        assert got["unit"] == 4
        assert got["pair(nat, list(nat))"] == 0

    def test_parity_and_subexpression_invariants(self):
        for name in ("nats.ch", "bad_s.ch", "sums.ch", "nats_list.ch",
                     "length.ch", "magic.ch"):
            for analyzed, env in annotated_groups(name):
                for inst, prio in analyzed.priorities.items():
                    assert prio % 2 == env.polarity(inst), (name, inst)
                    for other, oprio in analyzed.priorities.items():
                        if other != inst and _proper_sub(other, inst):
                            assert oprio > prio, (name, other, inst)

    def test_minimality(self):
        # dropping any priority by 2 breaks a dominance constraint
        for name in ("nats.ch", "bad_s.ch", "nats_list.ch"):
            for analyzed, env in annotated_groups(name):
                universe, must_exceed = dominance(analyzed.defs, env)
                pm = analyzed.priorities
                for inst, prio in pm.items():
                    lowered = prio - 2
                    floor = max((pm[d] for d in must_exceed[inst]), default=-1)
                    assert lowered <= floor or lowered < env.polarity(inst), \
                        (name, inst)

    def test_deterministic(self):
        first = priorities_of("sums.ch", index=1)
        second = priorities_of("sums.ch", index=1)
        assert first == second


def _proper_sub(s, t):
    if not isinstance(t, TApp):
        return False
    for a in t.args:
        if a == s or _proper_sub(s, a):
            return True
    return False


class TestSignatures:
    def test_inferred_signature(self):
        (analyzed, _), = annotated_groups("s1s2.ch")[-1:]
        s1 = analyzed.defs[0]
        assert s1.arity == 0
        assert s1.result_type == tapp("st")

    def test_declared_arrow_split(self):
        groups = annotated_groups("sums.ch")
        sums = groups[1][0].defs[0]
        assert sums.arity == 2
        assert sums.arg_types == (
            tapp("nat"), tapp("stream", tapp("list", tapp("nat"))))
        assert sums.result_type == tapp("stream", tapp("nat"))
