"""Parsing, desugaring and restriction checks."""

import pytest

from conftest import corpus_source
from totality.surface import (
    SApp,
    SConstr,
    SNum,
    SRecord,
    SourceError,
    SVar,
    desugar,
    parse_program,
    validate_restrictions,
)

LENGTH = corpus_source("length.ch")


class TestParse:
    def test_length_listing(self):
        program = parse_program(LENGTH)
        assert [d.name for d in program.decls] == ["nat", "list"]
        (group,) = [g for g in program.groups]
        (definition,) = group.defs
        assert definition.fname == "length"
        assert len(definition.clauses) == 2
        assert definition.arity == 1

    def test_empty_source(self):
        program = parse_program("")
        assert program.decls == () and program.groups == ()

    def test_positions_preserved(self):
        program = parse_program(LENGTH)
        assert program.groups[0].defs[0].line > 1

    def test_self_application_parses_then_fails_validation(self):
        program = desugar(parse_program("val f = f f"))
        violations, _ = validate_restrictions(program)
        assert any("0 arguments" in str(v) or "applied" in str(v)
                   for v in violations)

    def test_syntax_error_has_location(self):
        with pytest.raises(SourceError) as err:
            parse_program("data nat where Zero : nat |")
        assert err.value.line >= 1

    def test_unbalanced_record(self):
        with pytest.raises(SourceError):
            parse_program("val f x = { D = x ")

    def test_pair_sugar(self):
        program = parse_program(
            "data list('x) where Nil : list('x)"
            " | Cons : 'x -> list('x) -> list('x)\n"
            "val f (Cons(a, b)) = a")
        (cl,) = program.groups[0].defs[0].clauses
        (pat,) = cl.patterns
        assert isinstance(pat, SConstr) and len(pat.args) == 2

    def test_and_groups(self):
        program = parse_program(corpus_source("s1s2.ch"))
        assert [d.fname for d in program.groups[-1].defs] == ["s1", "s2"]


NAT = "data nat where Zero : nat | Succ : nat -> nat\n"


class TestDesugar:
    def test_empty_record_pattern_reused_in_body(self):
        program = desugar(parse_program(
            NAT + "val f : nat -> nat | f (Zero {}) = Succ (Zero {})"))
        (cl,) = program.groups[0].defs[0].clauses
        (pat,) = cl.patterns
        assert pat == SConstr("Zero", (SVar("_d0"),))
        assert cl.body == SConstr("Succ", (SConstr("Zero", (SVar("_d0"),)),))

    def test_body_empty_record_without_unit_dummy(self):
        program = desugar(parse_program(
            NAT + "val g : nat -> nat | g (Succ x) = Zero {}"))
        (cl,) = program.groups[0].defs[0].clauses
        assert cl.body == SConstr(
            "Zero", (SApp("empty_record", (SVar("x"),)),))

    def test_no_empty_records_is_identity(self):
        source = NAT + "val f : nat -> nat | f x = Succ x"
        once = desugar(parse_program(source))
        assert once == parse_program(source)

    def test_numerals(self):
        # a numeral stays a count, with the argument of its Zero
        program = desugar(parse_program(NAT + "val f : nat -> nat | f x = 2"))
        (cl,) = program.groups[0].defs[0].clauses
        body = cl.body
        assert body == SNum(2, SApp("empty_record", (SVar("x"),)))

    def test_numeral_pattern_gets_a_dummy(self):
        program = desugar(parse_program(
            NAT + "val f : nat -> nat | f 3 = 1"))
        (cl,) = program.groups[0].defs[0].clauses
        assert cl.patterns == (SNum(3, SVar("_d0")),)
        assert cl.body == SNum(1, SVar("_d0"))

    def test_numerals_expand_over_another_nat(self):
        program = desugar(parse_program(
            "data nat where Zero : nat | Succ : nat -> nat -> nat\n"
            "val f : nat -> nat | f x = 1"))
        (cl,) = program.groups[0].defs[0].clauses
        assert cl.body == SConstr("Succ", (SConstr(
            "Zero", (SApp("empty_record", (SVar("x"),)),)),))

    def test_zero_arity_clause_uses_plain_empty_record_call(self):
        program = desugar(parse_program(NAT + "val c = 0"))
        (cl,) = program.groups[0].defs[0].clauses
        assert cl.body == SNum(0, SVar("empty_record"))

    def test_pinned_trees_over_the_usual_nat(self):
        # wildcards, zero-arity constructors, pair sugar, two-argument
        # juxtaposition, explicit `{}` and counted numerals on both sides
        program = desugar(parse_program(
            NAT + "data list where Nil : list | Cons : nat -> list -> list\n"
            "val f : list -> nat -> list"
            " | f Nil _ = Cons(2, Nil)"
            " | f (Cons(x, xs)) 3 = Cons x (f xs {})"
            " | f (Cons x (Cons _ ys)) (Zero {}) = Cons 0 (f ys 1)"
            " | f _d0 _ = Succ {}"))
        clauses = program.groups[0].defs[0].clauses
        d0, d1 = SVar("_d0"), SVar("_d1")
        assert [(cl.patterns, cl.body) for cl in clauses] == [
            ((SConstr("Nil", (SVar("_d0"),)), SVar("_d1")),
             SConstr("Cons", (SRecord((("Fst", SNum(2, d0)),
                                       ("Snd", SConstr("Nil", (d0,))))),))),
            ((SConstr("Cons", (SRecord((("Fst", SVar("x")),
                                        ("Snd", SVar("xs")))),)),
              SNum(3, SVar("_d0"))),
             SConstr("Cons", (SRecord((
                 ("Fst", SVar("x")),
                 ("Snd", SApp("f", (SVar("xs"), d0))))),))),
            ((SConstr("Cons", (SRecord((
                ("Fst", SVar("x")),
                ("Snd", SConstr("Cons", (SRecord((("Fst", SVar("_d0")),
                                                  ("Snd", SVar("ys")))),))),
            )),)),
              SConstr("Zero", (SVar("_d1"),))),
             SConstr("Cons", (SRecord((
                 ("Fst", SNum(0, d1)),
                 ("Snd", SApp("f", (SVar("ys"), SNum(1, d1)))))),))),
            ((SVar("_d0"), SVar("_d1")),
             SConstr("Succ", (SApp("empty_record", (d0,)),))),
        ]

    def test_pinned_trees_over_another_nat(self):
        # numerals expand to `Succ` over `Zero {}` on both sides
        program = desugar(parse_program(
            "data nat where Zero : nat | Succ : nat -> nat -> nat\n"
            "val g : nat -> nat -> nat"
            " | g 1 _ = 2"
            " | g (Succ(a, b)) 0 = Succ a b"))
        clauses = program.groups[0].defs[0].clauses
        d0 = SVar("_d0")
        assert [(cl.patterns, cl.body) for cl in clauses] == [
            ((SConstr("Succ", (SConstr("Zero", (SVar("_d0"),)),)),
              SVar("_d1")),
             SConstr("Succ", (SConstr("Succ", (SConstr("Zero", (d0,)),)),))),
            ((SConstr("Succ", (SRecord((("Fst", SVar("a")),
                                        ("Snd", SVar("b")))),)),
              SConstr("Zero", (SVar("_d0"),))),
             SConstr("Succ", (SRecord((("Fst", SVar("a")),
                                       ("Snd", SVar("b")))),))),
        ]

    def test_idempotent(self):
        for name in ("nats.ch", "sums.ch", "half.ch", "s1s2.ch", "swap.ch"):
            once = desugar(parse_program(corpus_source(name)))
            assert desugar(once) == once


class TestValidate:
    def test_zero_arity_self_recursion_accepted(self):
        program = desugar(parse_program(corpus_source("bad_s.ch")))
        violations, _ = validate_restrictions(program)
        assert violations == []

    def test_two_argument_function_accepted(self):
        program = desugar(parse_program(corpus_source("sums.ch")))
        violations, _ = validate_restrictions(program)
        assert violations == []

    def test_nonlinear_pattern_rejected(self):
        program = desugar(parse_program(
            "data list('x) where Nil : list('x)"
            " | Cons : 'x -> list('x) -> list('x)\n"
            "val f (Cons x x) = x"))
        violations, _ = validate_restrictions(program)
        assert any("more than once" in str(v) for v in violations)

    def test_unknown_constructor(self):
        program = desugar(parse_program(NAT + "val f x = Foo x"))
        violations, _ = validate_restrictions(program)
        assert any("unknown constructor 'Foo'" in str(v) for v in violations)

    def test_partial_application(self):
        program = desugar(parse_program(
            NAT + "val add : nat -> nat -> nat | add a b = a\n"
            "val f : nat -> nat | f x = add x"))
        violations, _ = validate_restrictions(program)
        assert any("expects 2" in str(v) for v in violations)

    def test_forward_reference_rejected(self):
        program = desugar(parse_program(
            NAT + "val f : nat -> nat | f x = g x\n"
            "val g : nat -> nat | g x = x"))
        violations, _ = validate_restrictions(program)
        assert any("unknown function 'g'" in str(v) for v in violations)

    def test_whole_corpus_accepted(self):
        for name in ("nats.ch", "length.ch", "bad_s.ch", "sums.ch",
                     "half.ch", "magic.ch", "s1s2.ch", "swap.ch",
                     "c1c2.ch", "nats_list.ch"):
            program = desugar(parse_program(corpus_source(name)))
            violations, _ = validate_restrictions(program)
            assert violations == [], (name, violations)


class TestPragma:
    def test_bounds_attach_to_next_group(self):
        source = (NAT +
                  "-- totality: B=1, D=0\n"
                  "val f : nat -> nat | f x = x\n"
                  "val g : nat -> nat | g x = x\n")
        program = parse_program(source)
        assert program.groups[0].bounds == (1, 0)
        assert program.groups[1].bounds is None

    @pytest.mark.parametrize("brk", ["\x0c", "\x0b", "\x1c", "\x85",
                                     "\u2028", "\u2029"])
    def test_line_break_in_a_comment_keeps_the_pragma_in_place(self, brk):
        # str.splitlines breaks lines at these; the lexer only at "\n"
        source = (NAT + "-- note" + brk + "more\n"
                  "-- totality: B=3, D=3\n"
                  "val f x = x\n"
                  "val g x = x\n")
        program = parse_program(source)
        assert [g.bounds for g in program.groups] == [(3, 3), None]
