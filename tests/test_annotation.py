"""What the type checker records while it builds a group's annotated
clauses, the deconstruction targets that a check's declaration environment
keeps across its groups, and `Unifier.deep` without bindings."""

import random

import pytest

from conftest import CORPUS, corpus_source
from test_callgraph import many_blocks, stream_ring
from test_typecheck import random_declarations
from reference.items import index_clauses
from totality import typecheck
from totality.checker import Config, analyze_source
from totality.surface import (
    Clause,
    Definition,
    SApp,
    SConstr,
    SourceError,
    SProj,
    SRecord,
    SVar,
    TApp,
    TArrow,
    TVar,
    desugar,
    parse_program,
    type_str,
)
from totality.typecheck import (
    ACall,
    AConstr,
    AProj,
    ARecord,
    DeclEnv,
    GroupChecker,
    Scheme,
    Unifier,
    annotate_group,
    clause_nodes,
    subst_type,
)

NAT = "data nat where Zero : nat | Succ : nat -> nat\n"
LIST = ("data list('x) where Nil : list('x)"
        " | Cons : 'x -> list('x) -> list('x)\n")
STREAM = ("codata stream('x) where Head : stream('x) -> 'x"
          " | Tail : stream('x) -> stream('x)\n")

# an unsigned definition whose inferred type is polymorphic, and a later
# group that uses it at two instances
POLY = NAT + LIST + (
    "val app Nil ys = ys\n"
    "  | app (Cons x xs) ys = Cons x (app xs ys)\n"
    "val twice : list(nat) -> list(list(nat))\n"
    "  | twice xs = Cons (app xs (Cons Zero Nil)) (app (Cons xs Nil) Nil)\n")


def assert_recorded(checker, adefs):
    """The checker's instance nodes are the very nodes of the reference walk
    over `adefs`, in its order, and each clause's calls are the walk's."""
    calls: list = []
    reference = index_clauses(adefs, calls)
    assert len(checker.nodes) == len(reference)
    for mine, theirs in zip(checker.nodes, reference):
        assert mine is theirs
    assert [cl.calls for adef in adefs for cl in adef.clauses] == calls
    for adef in adefs:
        assert adef.calls == tuple(dict.fromkeys(
            name for cl in adef.clauses for name in cl.calls))


@pytest.fixture
def checkers(monkeypatch):
    """Each `GroupChecker` that `annotate_group` makes, in order."""
    made = []

    class Kept(GroupChecker):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(typecheck, "GroupChecker", Kept)
    return made


def check_recorded(source, checkers):
    """Type every group of `source` and compare what each group's checker
    recorded with the reference walk; the number of instance nodes."""
    program = desugar(parse_program(source))
    env, schemes, total = DeclEnv(program.decls), {}, 0
    for group in program.groups:
        made = len(checkers)
        analyzed = annotate_group(env, schemes, group.defs)
        assert len(checkers) == made + 1
        assert_recorded(checkers[-1], analyzed.defs)
        assert all(node.prio is not None for node in checkers[-1].nodes)
        total += len(checkers[-1].nodes)
    return total


class TestRecordedWalk:
    """`GroupChecker` records the instance nodes and the calls of each
    clause as it builds them, as `reference.items.index_clauses` finds them."""

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_corpus(self, name, checkers):
        assert check_recorded(corpus_source(name), checkers) > 0

    def test_many_blocks(self, checkers):
        assert check_recorded(many_blocks(30, pragmas=True), checkers) > 0

    def test_stream_rings(self, checkers):
        for seed in range(5):
            source = stream_ring(random.Random(seed), 6 + seed)
            assert check_recorded(source, checkers) > 0

    def test_unsigned_polymorphic(self, checkers):
        assert check_recorded(POLY, checkers) > 0
        app, twice = (checker.nodes for checker in checkers)
        assert {type_str(node.instance) for node in app} == {
            "list('a)", "pair('a, list('a))"}
        assert {type_str(node.instance) for node in twice} == {
            "nat", "list(nat)", "pair(nat, list(nat))",
            "list(list(nat))",
            "pair(list(nat), list(list(nat)))"}

    def test_deep_nesting(self, checkers):
        # recording adds no stack frame per level of nesting, so a chain
        # of 800 projections and a nest of 400 constructors still type
        # under the default recursion limit of 1000
        chain = STREAM + NAT + "val f : stream(nat) -> stream(nat)\n" \
            "  | f s = s%s\n" % (".Tail" * 800)
        nest = NAT + "val g : nat -> nat | g x = %sx%s\n" % (
            "Succ (" * 400, ")" * 400)
        assert check_recorded(chain, checkers) == 800
        assert check_recorded(nest, checkers) == 400

    def test_random_programs(self):
        kinds = set()
        for seed in range(300):
            env, definition = random_program(random.Random(seed))
            checker = GroupChecker(env, dict(EARLIER))
            adefs = checker.check([definition])
            assert_recorded(checker, adefs)
            kinds.update(type(node) for cl in adefs[0].clauses
                         for node in clause_nodes(cl))
        assert {AConstr, ARecord, AProj, ACall} <= kinds


# earlier definitions for `random_program`: `any` gives every type, and
# `both` every type of its first argument
EARLIER = {
    "any": Scheme((), TVar("a"), ("a",)),
    "both": Scheme((TVar("a"), TVar("b")), TVar("a"), ("a", "b")),
}


def random_program(rng):
    """The environment of `random_declarations` and a signed definition `f`
    over its types, in desugared form: 1 to 3 clauses whose patterns match
    constructors and records, and whose bodies build, project and call (`f`
    where its result is wanted, `EARLIER` anywhere)."""
    env, _ = random_declarations(rng)
    names = sorted(env.decls)
    returning = sorted(name for name, info in env.dtors.items()
                       if isinstance(info.result, TVar))

    def instance(depth):
        decl = env.decls[rng.choice(names)]
        return TApp(decl.name, tuple(
            instance(depth - 1) if depth else TVar("x") for _ in decl.params))

    def build(t, depth, scope, sub):
        """A constructor or record of the instance `t`, or None."""
        decl = env.decls.get(t.name) if isinstance(t, TApp) else None
        if decl is None or not decl.items or not depth:
            return None
        mapping = dict(zip(decl.params, t.args))
        if not decl.is_codata:
            name = rng.choice(decl.items)[0]
            arg = subst_type(env.ctors[name].arg, mapping)
            return SConstr(name, (sub(arg, depth - 1, scope),))
        return SRecord(tuple(
            (name, sub(subst_type(env.dtors[name].result, mapping),
                       depth - 1, scope))
            for name, _ in decl.items))

    def pattern(t, depth, scope):
        built = build(t, depth, scope, pattern) if rng.random() < 0.7 else None
        if built is not None:
            return built
        scope.append(("v%d" % len(scope), t))
        return SVar(scope[-1][0])

    def expr(t, depth, scope):
        kind = rng.choice(("build", "project", "call", "leaf")) if depth \
            else "leaf"
        if kind == "build":
            built = build(t, depth, scope, expr)
            if built is not None:
                return built
        if kind == "project" and returning:
            name = rng.choice(returning)
            info = env.dtors[name]
            mapping = {p: t if TVar(p) == info.result else instance(0)
                       for p in info.params}
            return SProj(expr(subst_type(info.owner, mapping), depth - 1,
                              scope), name)
        if kind == "call":
            if t == result:
                return SApp("f", tuple(expr(a, depth - 1, scope)
                                       for a in arg_types))
            return SApp("both", (expr(t, depth - 1, scope),
                                 expr(instance(0), depth - 1, scope)))
        leaves = [name for name, s in scope if s == t] or ["any"]
        return SVar(rng.choice(leaves))

    arg_types = [instance(rng.randint(0, 1)) for _ in range(rng.randint(1, 2))]
    result = instance(rng.randint(0, 1))
    signature = result
    for a in reversed(arg_types):
        signature = TArrow(a, signature)
    clauses = []
    for _ in range(rng.randint(1, 3)):
        scope: list = []
        patterns = tuple(pattern(a, 2, scope) for a in arg_types)
        clauses.append(Clause("f", patterns, expr(result, 3, scope)))
    return env, Definition("f", signature, tuple(clauses))


def sharing_program(count):
    """`count` groups over `nat`, `list(nat)`, `stream(nat)` and
    `stream(list(nat))`, in four shapes."""
    shapes = (
        "val len{i} : list(nat) -> nat | len{i} Nil = Zero"
        " | len{i} (Cons x xs) = Succ (len{i} xs)",
        "val from{i} : nat -> stream(list(nat))"
        " | from{i} n = {{ Head = Cons n Nil ; Tail = from{i} (Succ n) }}",
        "val heads{i} : stream(list(nat)) -> stream(nat)"
        " | heads{i} s = {{ Head = {i} ; Tail = heads{i} s.Tail }}",
        "val first{i} : stream(list(nat)) -> list(nat)"
        " | first{i} s = s.Tail.Head",
    )
    return NAT + LIST + STREAM + "".join(
        shapes[i % 4].format(i=i) + "\n" for i in range(count))


def priorities(env, schemes, defs):
    """The group's priorities in order, or the reason it fails."""
    try:
        analyzed = annotate_group(env, schemes, defs)
    except SourceError as err:
        return str(err)
    return [(type_str(inst), prio)
            for inst, prio in analyzed.priorities.items()]


class TestTargetsPerCheck:
    """`DeclEnv` keeps each instance's deconstruction targets for the whole
    check; each group's priorities are those of a fresh environment."""

    def shared_and_fresh(self, source):
        program = desugar(parse_program(source))
        env, schemes, found = DeclEnv(program.decls), {}, []
        for group in program.groups:
            before = dict(schemes)
            shared = priorities(env, schemes, group.defs)
            fresh = priorities(DeclEnv(program.decls), before, group.defs)
            assert shared == fresh, [d.fname for d in group.defs]
            found.append(shared)
        return env, found

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CORPUS.glob("*.ch")))
    def test_corpus(self, name):
        self.shared_and_fresh(corpus_source(name))

    def test_shared_instances(self):
        env, found = self.shared_and_fresh(sharing_program(40))
        reached = {inst for group in found for inst, _ in group}
        assert {"nat", "list(nat)", "stream(nat)", "stream(list(nat))",
                "unit", "pair(nat, list(nat))"} == reached
        # one entry per instance reached by any of the 40 groups
        assert sorted(type_str(t) for t in env.targets) == sorted(reached)
        stream = TApp("stream", (TApp("list", (TApp("nat"),)),))
        assert env.deconstruction_targets(stream) \
            is env.deconstruction_targets(stream)

    def test_targets_listed_once(self):
        fields = " | ".join("P%d : r -> nat" % k for k in range(10))
        env = DeclEnv(desugar(parse_program(
            NAT + "codata r where %s\n" % fields)).decls)
        assert env.deconstruction_targets(TApp("r")) == (TApp("nat"),)

    def test_failure_is_not_kept(self):
        source = (NAT + "data fn where F : (nat -> nat) -> fn\n"
                  "val f : fn -> nat | f (F g) = Zero\n"
                  "val g : fn -> nat | g (F h) = Succ Zero\n")
        reason = "higher-order constructor argument nat -> nat"
        report = analyze_source(source, Config())
        assert [(v.fname, v.result, v.reasons) for v in report.verdicts] \
            == [("f", "error", [reason]), ("g", "error", [reason])]
        env, found = self.shared_and_fresh(source)
        assert found == [reason, reason]
        assert TApp("fn") not in env.targets

    def test_unit_declared_by_a_later_group(self):
        # no nullary constructor, but the `{}` of `h` calls `empty_record`:
        # the program has the synthetic `unit` before any group is typed,
        # so every group types as in a fresh environment, in any order
        box = "data box('a) where Box : 'a -> box('a)\n"
        f = "val f : box(unit) -> box(unit) | f (Box x) = Box x\n"
        h = "val h : box(unit) -> unit | h (Box y) = {}\n"
        k = "val k : box(unit) -> box(unit) | k (Box z) = Box z\n"
        wanted = [("box(unit)", 1), ("unit", 2)]
        for groups in [(f, h, k), (k, h), (h, k)]:
            source = box + "".join(groups)
            report = analyze_source(source, Config())
            assert [(v.result, v.reasons) for v in report.verdicts] \
                == len(groups) * [("total", [])]
            assert [g.priorities for g in report.groups] \
                == len(groups) * [dict(wanted)]
            env, found = self.shared_and_fresh(source)
            assert found == len(groups) * [wanted]
            assert set(env.targets) == {TApp("box", (TApp("unit"),)),
                                        TApp("unit")}
        # a call written out declares it too; without either, no group
        # knows `unit`
        e = "val e : box(unit) -> unit | e (Box y) = empty_record y\n"
        report = analyze_source(box + k + e, Config())
        assert [v.result for v in report.verdicts] == ["total", "total"]
        report = analyze_source(box + f + k, Config())
        assert [(v.result, v.reasons) for v in report.verdicts] \
            == 2 * [("error", ["unknown type 'unit'"])]


class TestDeepUnbound:
    def test_returns_its_argument(self):
        u = Unifier()
        t = TApp("list", (TApp("nat"),))
        a = u.fresh()
        arrow = TArrow(a, t)
        for ty in (t, a, arrow):
            assert u.deep(ty) is ty
        u.unify(a, TApp("nat"))
        assert u.deep(arrow) == TArrow(TApp("nat"), t)
