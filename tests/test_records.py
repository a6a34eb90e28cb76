"""The record contract of syntax trees, terms, calls, outcomes and the
library's result types: value equality within one class, fields left out
of it, hashing and immutability of the frozen records, fresh default
containers, copies and pickles, and the `repr`."""

import copy
import pickle

import pytest

from conftest import corpus_source
from reference import terms
from reference.terms import (
    Approx,
    Constr,
    ConstrDual,
    Daimon,
    Frozen,
    FunApp,
    Param,
    Project,
    Record,
    Sum,
    Unknown,
    call_term,
    weight,
)
from totality.callgraph import Call, CallGraph
from totality.checker import (
    Config,
    GroupReport,
    Report,
    Verdict,
    analyze_source,
)
from totality.records import Struct
from totality.scp import GroupOutcome
from totality.surface import (
    Clause,
    Definition,
    Group,
    SVar,
    SWild,
    TApp,
    TypeDecl,
)
from totality.typecheck import AVar


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
        assert SVar("x") != AVar("x")
        assert not SVar("x") == AVar("x")
        assert Constr("S", 1, Param(1)) != ConstrDual("S", 1, Param(1))
        assert Constr("S", 1, Param(1)) == Constr("S", 1, Param(1))
        assert SWild() == SWild()

    def test_fields_are_compared(self):
        assert SVar("x") != SVar("y")
        assert Constr("S", 1, Param(1)) != Constr("S", 3, Param(1))
        assert call("f") != call("h")

    def test_positions_and_bounds_are_not_compared(self):
        decl = TypeDecl("nat", (), False, (("Zero", TApp("unit")),), 1, 1)
        assert decl == TypeDecl("nat", (), False, (("Zero", TApp("unit")),),
                                7, 9)
        clause = Clause("f", (SVar("x"),), SVar("x"), 2, 3)
        assert clause == Clause("f", (SVar("x"),), SVar("x"), 5, 8)
        assert Definition("f", None, (clause,), 2, 1) == \
            Definition("f", None, (clause,), 4, 6)
        assert Group((), 3, (2, 2)) == Group((), 9, None)
        assert Definition("f", None, (clause,)) != \
            Definition("g", None, (clause,))

    def test_unordered(self):
        with pytest.raises(TypeError):
            SVar("x") < SVar("y")


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

    def test_call_is_a_tuple_record(self):
        """A call is a named tuple without a `__dict__`: it prints from its
        items, and `reference.terms.call_term` builds its term."""
        c = call()
        assert isinstance(c, tuple) and not hasattr(c, "__dict__")
        assert tuple(c) == (c.caller, c.callee, c.spine, c.args)
        assert str(c) == "f -> g: S@1 g(x1)"
        assert terms.term_str(call_term(c)) == "S@1 g(x1)"
        assert c == call() and hash(c) == hash(call())

    def test_mutable_records_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(SVar("x"))


class TestCopies:
    @pytest.mark.parametrize("value", [a for a, _ in term_pairs()] + [call()],
                             ids=lambda v: type(v).__name__)
    def test_frozen_records_copy_and_pickle(self, value):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_reports_copy_and_pickle(self):
        report = analyze_source(corpus_source("sums.ch"), Config())
        edges = [e for g in report.groups for e in g.callgraph]
        assert edges and all(isinstance(e, Call) for e in edges)
        for other in (copy.deepcopy(report),
                      pickle.loads(pickle.dumps(report))):
            assert other is not report and other == report
            assert [e for g in other.groups for e in g.callgraph] == edges
            assert other.exit_code() == report.exit_code()
        assert copy.copy(report).verdicts is report.verdicts


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
            SVar("x").line = 3

    def test_result_containers_are_fresh(self):
        a, b = Verdict("f", "total", (2, 2)), Verdict("f", "total", (2, 2))
        assert a.reasons == [] and a.depends_on_unknown == []
        assert a.reasons is not b.reasons
        assert a.depends_on_unknown is not b.depends_on_unknown
        first = GroupReport(("f",), (2, 2))
        second = GroupReport(("f",), (2, 2))
        assert first.priorities == {} and first.stats == {}
        assert first.callgraph == () and first.closure == ()
        assert first.priorities is not second.priorities
        assert first.stats is not second.stats
        one, two = Report(), Report()
        assert one.verdicts == one.groups == one.errors == []
        assert one.verdicts is not two.verdicts
        assert one.groups is not two.groups
        assert one.errors is not two.errors
        one.errors.append("bound")
        assert two.errors == []


class TestResults:
    def test_positional_construction_keeps_the_field_order(self):
        assert Config(3, 1) == Config(bound_b=3, bound_d=1)
        assert Config(3) == Config(bound_b=3, bound_d=2)
        assert Verdict("f", "unknown", (1, 1), ["r"], ["g"]) == Verdict(
            fname="f", result="unknown", bounds=(1, 1), reasons=["r"],
            depends_on_unknown=["g"])
        assert GroupReport(("f",), (1, 1), {"nat": 0}, (call(),), (),
                           {"edges": 1}) == GroupReport(
            names=("f",), bounds=(1, 1), priorities={"nat": 0},
            callgraph=(call(),), closure=(), stats={"edges": 1})
        verdict = Verdict("f", "total", (2, 2))
        assert Report([verdict], [], ["e"]) == Report(
            verdicts=[verdict], groups=[], errors=["e"])

    def test_fields_match_by_position(self):
        match Verdict("f", "unknown", (1, 1), ["r"]):
            case Verdict(name, result, bounds, reasons):
                assert (name, result, bounds, reasons) == \
                    ("f", "unknown", (1, 1), ["r"])
            case _:
                pytest.fail("no match")

    def test_every_field_is_compared(self):
        assert Config() == Config(2, 2) and Config() != Config(2, 3)
        assert Verdict("f", "total", (2, 2)) != \
            Verdict("f", "total", (2, 2), depends_on_unknown=["g"])
        assert GroupReport(("f",), (2, 2)) != \
            GroupReport(("f",), (2, 2), stats={"edges": 0})
        assert Report() != Report(errors=["e"])
        assert Config() != (2, 2)

    @pytest.mark.parametrize("value", [
        Config(), Verdict("f", "total", (2, 2)),
        GroupReport(("f",), (2, 2)), Report()],
        ids=lambda v: type(v).__name__)
    def test_results_are_unhashable(self, value):
        with pytest.raises(TypeError):
            hash(value)

    def test_repr_is_the_dataclass_text(self):
        assert repr(Config()) == "Config(bound_b=2, bound_d=2)"
        report = analyze_source(corpus_source("magic.ch"), Config())
        assert repr(report.verdicts[-1]) == (
            "Verdict(fname='magic', result='total', bounds=(2, 2), "
            "reasons=[], depends_on_unknown=['bad_s'])")
        assert repr(GroupReport(("f",), (2, 2))) == (
            "GroupReport(names=('f',), bounds=(2, 2), priorities={}, "
            "callgraph=(), closure=(), stats={})")
        assert repr(Report()) == "Report(verdicts=[], groups=[], errors=[])"


class TestRepr:
    def test_names_the_class_and_its_fields(self):
        assert repr(SVar("x")) == "SVar(name='x')"
        assert repr(SWild()) == "SWild()"
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
        assert issubclass(Call, tuple) and not issubclass(Call, Struct)
        assert issubclass(terms.Term, Frozen)
        assert issubclass(Clause, Struct) and not issubclass(Clause, Frozen)
