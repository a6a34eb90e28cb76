"""Type reconstruction, instance annotation and priority assignment."""

import random

import pytest

from conftest import annotated_groups
from reference.items import index_clauses
from totality.checker import Config, analyze_source
from totality.cli import main
from totality.surface import TApp, TArrow, TVar, TypeDecl, type_str
from totality.typecheck import (
    ACall,
    AClause,
    AConstr,
    ADef,
    ARecord,
    AVar,
    DeclEnv,
    PriorityError,
    TypeCheckError,
    Unifier,
    assign_priorities,
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
        assert isinstance(nil_pat, AConstr)
        assert nil_pat.instance == tapp("list", TVar("x"))
        (cons_pat,) = cons_clause.patterns
        assert isinstance(cons_pat.arg, ARecord)
        assert cons_pat.arg.instance == tapp(
            "pair", TVar("x"), tapp("list", TVar("x")))
        body = cons_clause.body
        assert isinstance(body, AConstr) and body.instance == tapp("nat")

    def test_nats_record_instance(self):
        (analyzed, _), = annotated_groups("nats.ch")
        (adef,) = analyzed.defs
        (clause,) = adef.clauses
        assert isinstance(clause.body, ARecord)
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
            annotate_group(env, {}, program.groups[0].defs)

    def test_rigid_signature_variable(self):
        from totality.surface import desugar, parse_program
        from totality.typecheck import DeclEnv, annotate_group

        program = desugar(parse_program(
            "data nat where Zero : nat | Succ : nat -> nat\n"
            "val f : 'x -> nat | f Zero = Zero"))
        env = DeclEnv(program.decls)
        with pytest.raises(TypeCheckError):
            annotate_group(env, {}, program.groups[0].defs)


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
                universe, must_exceed = dominance(
                    index_clauses(analyzed.defs), env)
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

    def test_invariants_on_random_declarations(self):
        # every set gets a map or a PriorityError: about a quarter declare
        # a nested datatype, which the type node cap refuses, and some
        # dominate cyclically; 308 of these 500 get a map
        maps = 0
        for seed in range(500):
            env, adefs = random_declarations(random.Random(seed))
            try:
                pm = assign_priorities(index_clauses(adefs), env)
            except PriorityError:
                continue
            maps += 1
            universe, must_exceed = dominance(index_clauses(adefs), env)
            assert list(pm) and set(pm) == set(universe), seed
            for inst, prio in pm.items():
                assert prio % 2 == env.polarity(inst), (seed, inst)
                floor = max((pm[d] for d in must_exceed[inst]), default=-1)
                assert floor < prio, (seed, inst)
                lowered = prio - 2
                assert lowered <= floor or lowered < env.polarity(inst), \
                    (seed, inst)
                for other, oprio in pm.items():
                    if _proper_sub(other, inst):
                        assert oprio > prio, (seed, other, inst)
                for target in env.deconstruction_targets(inst):
                    if not _reaches(env, target, inst):
                        assert pm[target] > prio, (seed, target, inst)
        assert maps >= 308


def _reaches(env, start, goal):
    """Whether deconstructing `start` step by step can give `goal`."""
    seen, todo = {start}, [start]
    while todo:
        t = todo.pop()
        if t == goal:
            return True
        for s in env.deconstruction_targets(t):
            if s not in seen:
                seen.add(s)
                todo.append(s)
    return False


def random_declarations(rng):
    """A random declaration environment and one annotated clause.

    There are 1 to 5 data or codata types of 0 to 2 parameters; their
    items are type expressions over the declared types up to depth 2, and
    the clause mentions 1 to 3 instances of them."""
    names = ["t%d" % i for i in range(rng.randint(1, 5))]
    params = {name: ("a", "b")[:rng.randint(0, 2)] for name in names}

    def type_expr(depth, leaves):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        return instance(depth, leaves)

    def instance(depth, leaves):
        name = rng.choice(names)
        return TApp(name, tuple(type_expr(depth - 1, leaves)
                                for _ in params[name]))

    nullary = [TApp(name) for name in names if not params[name]]
    decls = []
    for name in names:
        subject = TApp(name, tuple(TVar(p) for p in params[name]))
        leaves = [TVar(p) for p in params[name]] + nullary
        codata = rng.random() < 0.5
        items = []
        for i in range(rng.randint(1, 2) if codata else rng.randint(0, 2)):
            if codata:
                ty = TArrow(subject, type_expr(2, leaves))
            else:
                ty = subject
                for _ in range(rng.randint(0, 2)):
                    ty = TArrow(type_expr(2, leaves), ty)
            items.append(("%s_%d" % (name.upper(), i), ty))
        decls.append(TypeDecl(name, params[name], codata, tuple(items)))
    env = DeclEnv(decls)
    leaves = [TVar("x")] + nullary
    body = ACall("g", tuple(AConstr("K", AVar("x"), instance(2, leaves))
                            for _ in range(rng.randint(1, 3))))
    clause = AClause((AVar("x"),), body)
    return env, [ADef("f", 1, (TVar("x"),), TVar("x"), (clause,))]


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


NAT = "data nat where Zero : nat | Succ : nat -> nat\n"


class TestRecordOwner:
    def test_a_record_types_by_its_set_of_fields(self):
        """A record belongs to the codata type with exactly its fields, in
        any order and each counted once; the error lists them sorted."""
        report = analyze_source(
            NAT + "codata r where B : r -> nat | A : r -> nat\n"
            "val f : nat -> r | f x = { B = x ; C = x ; B = x }\n"
            "val g : nat -> r | g x = { B = x ; A = x ; B = x }\n"
            "val h : nat -> r | h x = { B = x }\n")
        assert [(v.fname, v.result, v.reasons) for v in report.verdicts] == [
            ("f", "error",
             ["3:18: no codata type has exactly the fields {B, C}"]),
            ("g", "total", []),
            ("h", "error", ["5:18: no codata type has exactly the fields {B}"]),
        ]


class TestSharedRecords:
    """A check builds each declared type once, and gives the constructors
    of one declaration with equal argument types one record, and its
    destructors with equal result types one: none of them ever changes."""

    def test_equal_items_share_their_records(self):
        from totality.surface import desugar, parse_program

        program = desugar(parse_program(
            NAT + "data t where A : t | B : t | C : nat -> t | D : nat -> t\n"
            "codata r where P : r -> nat | Q : r -> nat | R : r -> t\n"
            "codata s where S : s -> nat\n"))
        _, t, r, s = program.decls
        env = DeclEnv(program.decls)
        ctors, dtors = env.ctors, env.dtors
        assert ctors["A"] is ctors["B"] and ctors["C"] is ctors["D"]
        assert ctors["A"] is not ctors["C"]
        assert ctors["A"] is not ctors["Zero"]  # another declaration's
        assert dtors["P"] is dtors["Q"] and dtors["P"] is not dtors["R"]
        assert dtors["P"] is not dtors["S"]
        (_, p), (_, q), _ = r.items
        assert p is q
        assert t.items[2][1] is t.items[3][1]

    def test_parameterised_types_are_shared(self):
        from totality.surface import parse_program

        program = parse_program(
            "data list('a) where Nil : list('a)"
            " | Cons : 'a -> list('a) -> list('a)\n"
            "codata two('a) where L : two('a) -> list('a)"
            " | M : two('a) -> list('a)\n")
        (_, nil), (_, cons) = program.decls[0].items
        assert cons.cod.cod is nil and cons.dom is cons.cod.dom.args[0]
        (_, left), (_, right) = program.decls[1].items
        assert left is right and left.cod is nil


NESTED = ("priority assignment exceeded its type node cap (1000), mostly in "
          "instances of %s; nested datatypes are not supported")


@pytest.mark.parametrize("source, reason", [
    (NAT + "codata phantom('a) where P : phantom('a) -> nat\n"
     "data t where K : phantom(t) -> t | E : t\n"
     "val f : t -> nat | f (K p) = Zero | f E = Zero\n",
     "priority assignment failed: cyclic dominance between "
     "nat, phantom(t), t, unit"),
    (NAT + "data fn where F : (nat -> nat) -> fn\n"
     "val f : fn -> nat | f (F g) = Zero\n",
     "higher-order constructor argument nat -> nat"),
    ("data t where K : foo -> t\n"
     "val f : t -> t | f (K x) = K x\n",
     "unknown type 'foo'"),
    (NAT + "data nest('a) where Nil : nest('a)"
     " | Cons : 'a -> nest(nest('a)) -> nest('a)\n"
     "val f : nest('a) -> nat | f Nil = Zero | f (Cons x r) = Zero\n",
     NESTED % "nest"),
    ("data list('x) where Nil : list('x)"
     " | Cons : 'x -> list('x) -> list('x)\n"
     "data a('x) where KA : b(list('x)) -> a('x)\n"
     "data b('x) where KB : a('x) -> b('x)\n"
     "val f : a('x) -> a('x) | f (KA y) = KA y\n",
     NESTED % "a"),
], ids=["cyclic", "higher-order", "unknown-type", "nested", "mutually-nested"])
class TestPriorityErrors:
    """A group whose priorities cannot be assigned gets ERROR, exit code 2."""

    def test_library(self, source, reason):
        report = analyze_source(source, Config())
        assert [(v.fname, v.result, v.reasons) for v in report.verdicts] \
            == [("f", "error", [reason])]
        assert report.exit_code() == 2

    def test_cli(self, tmp_path, capsys, source, reason):
        path = tmp_path / "prio.ch"
        path.write_text(source)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "ERROR f: %s\n" % reason
        assert "Traceback" not in captured.err


USER_PAIR = (NAT + "codata pair('x, 'y) where Fst : pair('x, 'y) -> 'x"
             " | Snd : pair('x, 'y) -> 'y\n"
             "data list where Nil : list | Cons : nat -> list -> list\n"
             "val len : list -> nat | len Nil = Zero"
             " | len (Cons x xs) = Succ (len xs)\n")
USER_PAIR_FIELDS = (NAT + "codata pair('x, 'y) where P1 : pair('x, 'y) -> 'x"
                    " | P2 : pair('x, 'y) -> 'y\n"
                    "data list where Nil : list"
                    " | Cons : pair(nat, list) -> list\n"
                    "val bad : list | bad = Cons { P1 = Zero ; P2 = bad }\n")


class TestUserPair:
    """A codata type the program names `pair` is deconstructed like any
    other, whatever its parameters are called."""

    def dump(self, tmp_path, capsys, source):
        path = tmp_path / "pair.ch"
        path.write_text(source)
        code = main(["check", "--dump-priorities", str(path)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured.out

    def test_two_argument_constructor(self, tmp_path, capsys):
        code, out = self.dump(tmp_path, capsys, USER_PAIR)
        twin = USER_PAIR.replace("'x", "'a").replace("'y", "'b")
        assert (code, out) == self.dump(tmp_path, capsys, twin)
        assert code == 0
        assert out.splitlines()[0] == "TOTAL len"
        assert "pair(nat, list) ↦ 0" in out.splitlines()

    def test_record_of_renamed_fields(self):
        report = analyze_source(USER_PAIR_FIELDS, Config())
        twin = analyze_source(USER_PAIR_FIELDS.replace("pair", "twin"),
                              Config())
        (verdict,), (expected,) = report.verdicts, twin.verdicts
        assert verdict.result == expected.result == "unknown"
        assert verdict.reasons == expected.reasons != []
        assert report.groups[0].priorities == {
            name.replace("twin", "pair"): prio
            for name, prio in twin.groups[0].priorities.items()}


LIST = "data list where Nil : list | Cons : nat -> list -> list\n"
LEN = ("val len : list -> nat | len Nil = Zero"
       " | len (Cons x xs) = Succ (len xs)\n")
FIELDS_RESERVED = "field names Fst/Snd are reserved for two-argument constructors"
PAIR_RESERVED = ("type name pair is reserved for two-argument constructors "
                 "unless declared as codata with exactly the fields Fst, Snd")
PAIR_SHAPE = ("type name pair is reserved for two-argument constructors "
              "unless declared as codata pair('a, 'b) whose field Fst gives "
              "'a and Snd gives 'b")


class TestReservedPair:
    """With a two-argument constructor, `pair`, `Fst` and `Snd` name the
    pair of its arguments, unless the program declares that pair itself."""

    @pytest.mark.parametrize("clash, message", [
        ("codata box where Fst : box -> nat\n", FIELDS_RESERVED),
        ("codata box where Fst : box -> nat | Snd : box -> list\n",
         FIELDS_RESERVED),
        ("data pair where P : nat -> pair\n", PAIR_RESERVED),
    ], ids=["fst", "fst-snd", "data-pair"])
    @pytest.mark.parametrize("first", [True, False], ids=["before", "after"])
    def test_clash_is_located_in_either_order(self, clash, message, first):
        decls = clash + LIST if first else LIST + clash
        report = analyze_source(NAT + decls + LEN, Config())
        line = 2 if first else 3
        assert report.errors == ["%d:1: %s" % (line, message)]
        assert report.verdicts == [] and report.exit_code() == 2

    def test_fields_are_free_without_two_argument_constructors(self):
        source = (NAT + "codata box where Fst : box -> nat | Snd : box -> nat\n"
                  "data list where Nil : list | Cons : box -> list\n"
                  "val f : box | f = { Fst = Zero ; Snd = Succ Zero }\n")
        report = analyze_source(source, Config())
        assert report.errors == []
        assert [(v.fname, v.result) for v in report.verdicts] == [
            ("f", "total")]

    @pytest.mark.parametrize("pair", [
        "codata pair where Fst : pair -> nat | Snd : pair -> nat\n",
        "codata pair('x) where Fst : pair('x) -> 'x | Snd : pair('x) -> 'x\n",
        "codata pair('x, 'y, 'z) where Fst : pair('x, 'y, 'z) -> 'x"
        " | Snd : pair('x, 'y, 'z) -> 'y\n",
        "codata pair('x, 'y) where Fst : pair('x, 'y) -> 'y"
        " | Snd : pair('x, 'y) -> 'x\n",
        "codata pair('x, 'y) where Fst : pair('x, 'y) -> 'x"
        " | Snd : pair('x, 'y) -> nat\n",
    ], ids=["no-params", "one-param", "three-params", "swapped", "fixed-snd"])
    @pytest.mark.parametrize("first", [True, False], ids=["before", "after"])
    def test_own_pair_of_another_shape_is_located(self, pair, first):
        """A program's own pair with the fields Fst and Snd but not the
        shape of the pair of a two-argument constructor's arguments is an
        error at its declaration, not a type mismatch at a use."""
        decls = pair + LIST if first else LIST + pair
        report = analyze_source(NAT + decls + LEN, Config())
        line = 2 if first else 3
        assert report.errors == ["%d:1: %s" % (line, PAIR_SHAPE)]
        assert report.verdicts == [] and report.exit_code() == 2

    def test_own_pair_of_another_shape_on_the_cli(self, tmp_path, capsys):
        path = tmp_path / "pair.ch"
        path.write_text(NAT + "codata pair where Fst : pair -> nat"
                        " | Snd : pair -> nat\n" + LIST + LEN)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "error: 2:1: %s\n" % PAIR_SHAPE
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("first", [True, False], ids=["before", "after"])
    def test_own_pair_with_fields_in_either_order(self, first):
        pair = ("codata pair('x, 'y) where Snd : pair('x, 'y) -> 'y"
                " | Fst : pair('x, 'y) -> 'x\n")
        decls = pair + LIST if first else LIST + pair
        report = analyze_source(NAT + decls + LEN, Config())
        assert report.errors == []
        assert [(v.fname, v.result) for v in report.verdicts] == [
            ("len", "total")]
