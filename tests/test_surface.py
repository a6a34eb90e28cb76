"""Parsing, desugaring and restriction checks."""

import copy
import random
import tracemalloc

import pytest

from conftest import corpus_source
from test_lexer import block
from totality import checker, surface
from totality.checker import Config, analyze_program, analyze_source
from totality.records import Struct
from totality.surface import (
    CHUNK,
    SApp,
    SConstr,
    SNum,
    SRecord,
    SourceError,
    SVar,
    TApp,
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
OTHER_NAT = "data nat where Zero : nat | Succ : nat -> nat -> nat\n"


class TestDesugar:
    def test_empty_record_pattern_reused_in_body(self):
        program = desugar(parse_program(
            NAT + "val f : nat -> nat | f (Zero {}) = Succ (Zero {})"))
        (cl,) = program.groups[0].defs[0].clauses
        (pat,) = cl.patterns
        assert pat == SConstr("Zero", (SVar("_d0"),))
        assert cl.body == SConstr("Succ", (SConstr("Zero", (SVar("_d0"),)),))
        assert cl.body.args[0].args[0] is pat.args[0]  # one variable

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

    @pytest.mark.parametrize("decls, mode", [
        ("data t where A : t\n", "keep"),
        (NAT, "count"),
        (OTHER_NAT, "expand"),
        (OTHER_NAT + NAT, "count"),
        (NAT + OTHER_NAT, "count"),
    ], ids=["no-nat", "usual-nat", "other-nat", "other-then-usual",
            "usual-then-other"])
    def test_numeral_modes(self, decls, mode):
        # a numeral is kept without `nat`, a count over the usual `nat`
        # (declared anywhere) and expanded over another `nat`
        program = parse_program(decls + "val f x = 1")
        assert surface._numeral_mode(program.decls) == mode
        (cl,) = desugar(program).groups[0].defs[0].clauses
        empty = SApp("empty_record", (SVar("x"),))
        assert cl.body == {
            "keep": SNum(1, None),
            "count": SNum(1, empty),
            "expand": SConstr("Succ", (SConstr("Zero", (empty,)),)),
        }[mode]

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


class TestNames:
    def test_equal_names_are_one_string(self):
        """Within one check each name is one string, in the parsed tree
        and in the desugared one, the dummy variables of every clause
        included; a desugared program keeps no name table."""
        source = (NAT + "data list('a) where Nil : list('a)"
                  " | Cons : 'a -> list('a) -> list('a)\n"
                  "val len : list('a) -> nat"
                  " | len Nil = Zero | len (Cons _ xs) = Succ (len xs)\n"
                  "val second : list('a) -> list('a)"
                  " | second (Cons _ (Cons _ xs)) = xs | second xs = xs\n")
        parsed = parse_program(source)
        program = desugar(parsed)
        assert program.names is None
        strings: dict = {}

        def walk(node):
            if isinstance(node, str):
                strings.setdefault(node, set()).add(id(node))
            elif isinstance(node, tuple):
                for part in node:
                    walk(part)
            elif isinstance(node, Struct):
                for field in node._fields:
                    if field != "names":
                        walk(getattr(node, field))

        walk((parsed, program))
        assert {"_d0", "_d1", "xs", "a", "list", "Cons"} <= set(strings)
        assert {name for name, ids in strings.items() if len(ids) > 1} \
            == set()

    def test_equal_bare_types_are_one_object(self):
        """Within one check each type without arguments is one object, in
        declaration items, in signatures and in the desugared tree; a type
        with arguments need not be."""
        source = (NAT + "codata stream where Head : stream -> nat"
                  " | Tail : stream -> stream\n"
                  "data list('a) where Nil : list('a)"
                  " | Cons : 'a -> list('a) -> list('a)\n"
                  "val from : nat -> stream"
                  " | from n = { Head = n ; Tail = from (Succ n) }\n"
                  "val heads : list(stream) -> list(nat)"
                  " | heads Nil = Nil"
                  " | heads (Cons s ss) = Cons s.Head (heads ss)\n")
        parsed = parse_program(source)
        program = desugar(parsed)
        bare: dict = {}

        def walk(node):
            if isinstance(node, TApp) and not node.args:
                bare.setdefault(node.name, set()).add(id(node))
            elif isinstance(node, tuple):
                for part in node:
                    walk(part)
            elif isinstance(node, Struct):
                for field in node._fields:
                    if field != "names":
                        walk(getattr(node, field))

        walk((parsed, program))
        assert set(bare) == {"nat", "stream"}
        assert {name for name, ids in bare.items() if len(ids) > 1} == set()


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


def long_program(second: str, last: str, blocks: int = 200) -> str:
    """`second` from line 2 and `last` up to the last line of a program of
    some 22,000 characters, several chunks: `blocks` pairs of a data type
    and a definition over it in between."""
    return NAT + second + "\n" + "".join(
        "data d%d where A%d : d%d | B%d : d%d -> d%d\n"
        "val f%d : d%d -> nat | f%d A%d = Zero | f%d (B%d x) = f%d x\n"
        % ((i,) * 13) for i in range(blocks)) + last + "\n"


SYNTAX = "val = x"
LEXICAL = "val z : nat | z = ²"
PRAGMA = "-- totality: B=0, D=1"
# a bad pragma before a group
PRAGMA_LAST = PRAGMA + "\nval w x = x"
DEEP = "val y : nat -> nat | y x = %sx%s" % ("(" * 3000, ")" * 3000)
LEXICAL_ERROR = ("unexpected character '²'", 403, 19)
PRAGMA_ERROR = "pragma bound B must be at least 1"


class TestWinningError:
    """The error `parse_program` gives for a file with two, each chunk read
    only when the parse reaches it, is the one it gave when it lexed the
    whole file first: a lexical error anywhere, else a bad pragma, else the
    syntax error or `TOO_DEEP`, each the first of its kind.  The messages,
    lines and columns are those of the parse of one token list."""

    @pytest.mark.parametrize("size", [0, 100, CHUNK])
    @pytest.mark.parametrize("second, last, error", [
        (SYNTAX, LEXICAL, LEXICAL_ERROR),
        (PRAGMA, LEXICAL, LEXICAL_ERROR),
        (SYNTAX, PRAGMA_LAST, (PRAGMA_ERROR, 403, 16)),
        (DEEP, LEXICAL, LEXICAL_ERROR),
        (DEEP, PRAGMA_LAST, (PRAGMA_ERROR, 403, 16)),
        (PRAGMA, SYNTAX, (PRAGMA_ERROR, 2, 16)),
        (LEXICAL, PRAGMA_LAST, ("unexpected character '²'", 2, 19)),
        ("val q = %", LEXICAL, ("unexpected character '%'", 2, 9)),
        (SYNTAX, "val w x = x", ("expected name, found '='", 2, 5)),
    ], ids=["syntax-lexical", "pragma-lexical", "syntax-pragma",
            "deep-lexical", "deep-pragma", "pragma-syntax", "lexical-pragma",
            "lexical-lexical", "syntax"])
    def test_winner(self, monkeypatch, size, second, last, error):
        monkeypatch.setattr(surface, "CHUNK", size)
        source = long_program(second, last)
        assert len(source) > 5 * CHUNK
        with pytest.raises(SourceError) as err:
            parse_program(source)
        assert (err.value.message, err.value.line, err.value.col) == error

    def test_through_the_checker(self):
        report = analyze_source(long_program(SYNTAX, LEXICAL))
        assert report.errors == ["403:19: unexpected character '²'"]
        assert report.exit_code() == 2


class TestChunkDepth:
    def test_nests_as_deep_as_one_token_list(self, monkeypatch):
        """Reading a chunk takes frames that a parse of one token list does
        not; a parse that runs out of them starts again from one chunk, so
        it nests as deep and fails where that parse does, at the same
        token.  A paren per line puts a chunk's end at every depth."""
        def outcome(levels, size):
            monkeypatch.setattr(surface, "CHUNK", size)
            source = NAT + "val f : nat -> nat | f x = %sx%s" % (
                "(\n" * levels, "\n)" * levels)
            try:
                parse_program(source)
            except SourceError as err:
                return err.message, err.line, err.col
            return None

        whole = 1 << 30
        # the deepest nesting that parses from one token list here
        low, high = 1, 5000
        while low < high:
            mid = (low + high + 1) // 2
            low, high = (mid, high) if outcome(mid, whole) is None \
                else (low, mid - 1)
        assert outcome(low + 1, whole)[0] == surface.TOO_DEEP
        for levels in range(low - 6, low + 3):
            want = outcome(levels, whole)
            for size in (0, 1, 2):
                assert outcome(levels, size) == want, (levels, size)


class TestParseMemory:
    def test_no_token_list_outlives_its_chunk(self):
        """The traced peak of a parse stays within 1.5 times the tree it
        returns, a ratio that holds across Python versions where bytes do
        not.  Holding every token of this file at once took 2.24 times."""
        source = "\n\n".join(block(i, random.Random(i)) for i in range(200))
        lexer = surface._Lexer(source, surface.Names(), CHUNK)
        tokens = 0
        while not lexer.done():
            tokens += len(surface._lex(lexer))
        assert tokens > 10000
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            program = parse_program(source)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(program.groups) == 200
        assert peak - before <= 1.5 * (after - before)


def checked_block(i: int, rng) -> str:
    """A data type and one definition over it whose clauses match
    constructor chains of random depth: a group that checks, with far more
    syntax than declarations, call graph or report."""
    lines = ["data t%d where L%d : nat -> t%d | S%d : t%d -> t%d" % ((i,) * 6),
             "val f%d : t%d -> nat" % (i, i),
             "  | f%d (S%d x) = f%d x" % (i, i, i)]
    for depth in rng.sample(range(2, 20), rng.randint(3, 8)):
        succs = rng.randrange(4)
        lines.append("  | f%d (%sL%d n%s) = %sn%s" % (
            i, "S%d (" % i * depth, i, ")" * depth, "Succ (" * succs,
            ")" * succs))
    return "\n".join(lines)


def codata_block(i: int, rng) -> str:
    """A data type of nullary constructors and one recursive one, a codata
    type whose fields all give `nat`, a structural recursion over the data
    type and a matcher over the codata type's fields: the shape of a block
    of perfbench's `wide` program, with many equal declared types."""
    ctors, fields = rng.randint(4, 10), rng.randint(4, 10)
    rec = rng.randrange(ctors)
    key, kept = rng.sample(range(fields), 2)
    lines = ["data d%d where" % i]
    for j in range(ctors):
        lines.append("  %s K%d_%d : %sd%d" % (
            "|" if j else " ", i, j, "d%d -> " % i if j == rec else "", i))
    lines.append("codata r%d where" % i)
    for j in range(fields):
        lines.append("  %s P%d_%d : r%d -> nat" % ("|" if j else " ", i, j, i))
    lines.append("val f%d : d%d -> nat" % (i, i))
    for j in range(ctors):
        if j == rec:
            lines.append("  | f%d (K%d_%d x) = f%d x" % (i, i, j, i))
        else:
            lines.append("  | f%d K%d_%d = %d" % (i, i, j, rng.randrange(10)))

    def record(head: str) -> str:
        return "{ %s }" % " ; ".join(
            "P%d_%d = %s" % (i, j, head if j == key else
                             "x" if j == kept else "_")
            for j in range(fields))

    lines.append("val g%d : r%d -> nat" % (i, i))
    lines.append("  | g%d %s = x" % (i, record("0")))
    lines.append("  | g%d %s = y" % (i, record("Succ y")))
    return "\n".join(lines)


def traced(fn, *args):
    """What `fn(*args)` returns, the memory it leaves allocated and its
    traced peak above the memory before the call, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        value = fn(*args)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return value, after - before, peak - before


class TestCheckMemory:
    """A check hands each group from stage to stage: a parsed group is
    freed once desugared, a desugared one once its verdict is out.  The
    program of `TestParseMemory` stops at validation, so these checks run
    programs whose groups all check."""

    SOURCE = NAT + "\n\n".join(checked_block(i, random.Random(i))
                                for i in range(200))
    CODATA = NAT + "\n\n".join(codata_block(i, random.Random(i))
                                for i in range(140))

    @staticmethod
    def check_peak(source: str, verdicts: int) -> None:
        """The traced peak of checking `source` is within 1.3 times the
        tree that `parse_program` returns."""
        # the first check in a process fills caches that later ones reuse
        report = analyze_source(source)
        assert report.exit_code() == 0 and len(report.verdicts) == verdicts
        program, tree, _ = traced(parse_program, source)
        del program
        report, _, peak = traced(analyze_source, source)
        assert report.exit_code() == 0
        assert peak <= 1.3 * tree, (peak, tree)

    def test_peak_stays_near_the_parse_tree(self):
        """Holding the parse tree and the desugared one at once took 1.9
        times the parse tree."""
        self.check_peak(self.SOURCE, 200)

    def test_codata_peak_stays_near_the_parse_tree(self):
        """Declarations with many equal types: the peak falls once
        `DeclEnv` is built, with every desugared group held.  With a record
        per constructor and per destructor, a type per arrow written and a
        variable per use of a dummy, it took 1.39 times the parse tree."""
        self.check_peak(self.CODATA, 280)

    def test_each_group_is_freed_once_checked(self, monkeypatch):
        """The memory held while the last group is typed is below half of
        that held while the first is: the groups checked before it are
        gone, though the report has grown.  Holding them all, it grew."""
        held = []
        annotate = checker.annotate_group

        def annotate_group(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return annotate(*args)

        def check():
            held.append(tracemalloc.get_traced_memory()[0])
            return analyze_source(self.SOURCE)

        monkeypatch.setattr(checker, "annotate_group", annotate_group)
        report, _, _ = traced(check)
        assert report.exit_code() == 0 and len(held) == 201
        base, first, last = held[0], held[1], held[-1]
        assert last - base < 0.5 * (first - base), (base, first, last)

    @pytest.mark.parametrize("name", ["sums.ch", "magic.ch", "swap.ch"])
    def test_stages_never_change_their_argument(self, name):
        """`desugar` and `analyze_program` leave their program as it was,
        every group still there; only `analyze_source`, which owns both
        trees, hands the groups over."""
        parsed = parse_program(corpus_source(name))
        kept = copy.deepcopy(parsed)
        program = desugar(parsed)
        assert parsed == kept and parsed.names is not None
        kept = copy.deepcopy(program)
        report = analyze_program(program, Config())
        assert program == kept
        assert report == analyze_source(corpus_source(name))
