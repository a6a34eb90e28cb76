"""The record contract of syntax trees, terms, calls and outcomes: value
equality within one class, fields left out of it, hashing and immutability
of the frozen records, fresh default containers and the `repr`."""

import copy
import dataclasses
import pickle

import pytest

from conftest import corpus_source
from totality import terms
from totality.callgraph import Call, CallGraph
from totality.checker import Config, analyze_source
from totality.records import Frozen, Struct
from totality.scp import GroupOutcome
from totality.surface import (
    Clause,
    Definition,
    EVar,
    Group,
    PVar,
    PWild,
    TApp,
    TypeDecl,
)
from totality.terms import (
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
    weight,
)


def term_pairs():
    """Each term class with two separately built equal values."""
    def leaf():
        return Param(1)
    return [
        (Param(1), Param(1)),
        (Unknown(), Unknown()),
        (Constr("S", 1, leaf()), Constr("S", 1, leaf())),
        (Record((("hd", leaf()),), 2), Record((("hd", leaf()),), 2)),
        (ConstrDual("S", 1, leaf()), ConstrDual("S", 1, leaf())),
        (Project("hd", 2, leaf()), Project("hd", 2, leaf())),
        (FunApp("f", (leaf(),)), FunApp("f", (leaf(),))),
        (Daimon(leaf()), Daimon(leaf())),
        (Approx(weight({1: -1}), leaf()), Approx(weight({1: -1}), leaf())),
        (Sum((leaf(), Unknown())), Sum((leaf(), Unknown()))),
    ]


def call(caller="f"):
    return Call(caller, "g", (("c", "S", 1),), (("x", None, (), 1),))


class TestEquality:
    def test_classes_with_the_same_fields_differ(self):
        assert PVar("x") != EVar("x")
        assert not PVar("x") == EVar("x")
        assert Constr("S", 1, Param(1)) != ConstrDual("S", 1, Param(1))
        assert Constr("S", 1, Param(1)) == Constr("S", 1, Param(1))
        assert PWild() == PWild()

    def test_fields_are_compared(self):
        assert PVar("x") != PVar("y")
        assert Constr("S", 1, Param(1)) != Constr("S", 3, Param(1))
        assert call("f") != call("h")

    def test_positions_and_bounds_are_not_compared(self):
        decl = TypeDecl("nat", (), False, (("Zero", TApp("unit")),), 1, 1)
        assert decl == TypeDecl("nat", (), False, (("Zero", TApp("unit")),),
                                7, 9)
        clause = Clause("f", (PVar("x"),), EVar("x"), 2, 3)
        assert clause == Clause("f", (PVar("x"),), EVar("x"), 5, 8)
        assert Definition("f", None, (clause,), 2, 1) == \
            Definition("f", None, (clause,), 4, 6)
        assert Group((), 3, (2, 2)) == Group((), 9, None)
        assert Definition("f", None, (clause,)) != \
            Definition("g", None, (clause,))

    def test_unordered(self):
        with pytest.raises(TypeError):
            PVar("x") < PVar("y")


class TestFrozen:
    @pytest.mark.parametrize("a, b", term_pairs() + [(call(), call())],
                             ids=lambda v: type(v).__name__)
    def test_equal_values_hash_alike(self, a, b):
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_every_term_class_is_covered(self):
        nodes = {cls for cls in vars(terms).values()
                 if isinstance(cls, type) and issubclass(cls, terms.Term)
                 and cls is not terms.Term}
        assert {type(a) for a, _ in term_pairs()} == nodes

    @pytest.mark.parametrize("value", [a for a, _ in term_pairs()] + [call()],
                             ids=lambda v: type(v).__name__)
    def test_fields_cannot_be_assigned(self, value):
        name = (value._fields or ("anything",))[0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)

    def test_call_caches_its_term(self):
        c = call()
        assert c.term is c.term
        assert str(c) == "f -> g: S@1 g(x1)"
        assert c == call() and hash(c) == hash(call())

    def test_mutable_records_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(PVar("x"))


class TestCopies:
    @pytest.mark.parametrize("value", [a for a, _ in term_pairs()] + [call()],
                             ids=lambda v: type(v).__name__)
    def test_frozen_records_copy_and_pickle(self, value):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_reports_convert_to_dicts(self):
        report = analyze_source(corpus_source("sums.ch"), Config())
        doc = dataclasses.asdict(report)
        edges = [e for g in report.groups for e in g.callgraph]
        assert edges
        assert [e for g in doc["groups"] for e in g["callgraph"]] == edges


class TestDefaults:
    def test_containers_are_fresh(self):
        a, b = CallGraph((), (), 2, 2), CallGraph((), (), 2, 2)
        assert a.stats == {} and a.self_composites == {}
        assert a.stats is not b.stats
        assert a.self_composites is not b.self_composites
        a.stats["edges"] = 1
        assert b.stats == {}
        first, second = GroupOutcome(True), GroupOutcome(True)
        assert first.failures == [] and first.checked_loops == 0
        assert first.failures is not second.failures

    def test_records_have_no_other_attributes(self):
        with pytest.raises(AttributeError):
            PVar("x").line = 3


class TestRepr:
    def test_names_the_class_and_its_fields(self):
        assert repr(PVar("x")) == "PVar(name='x')"
        assert repr(PWild()) == "PWild()"
        assert repr(Unknown()) == "Unknown()"
        assert repr(Constr("S", 1, Param(2))) == \
            "Constr(name='S', priority=1, arg=Param(index=2))"
        assert repr(Group((), 4, None)) == \
            "Group(defs=(), line=4, bounds=None)"
        assert repr(GroupOutcome(False)) == \
            "GroupOutcome(total=False, failures=[], checked_loops=0)"
        assert repr(call()) == (
            "Call(caller='f', callee='g', spine=(('c', 'S', 1),), "
            "args=(('x', None, (), 1),))")


class TestBase:
    def test_fields_are_the_slots_in_order(self):
        assert Call._fields == ("caller", "callee", "spine", "args")
        assert Clause._fields == ("fname", "patterns", "body", "line", "col")
        assert issubclass(Call, Frozen) and issubclass(terms.Term, Frozen)
        assert issubclass(Clause, Struct) and not issubclass(Clause, Frozen)
