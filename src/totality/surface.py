"""Source language front end: lexing, parsing, desugaring and
restriction checks.

The language has `data` / `codata` declarations, `val` definitions with
pattern clauses (chained into one recursive group with `and`), record
syntax `{ D = e; ... }`, postfix projection `e.D`, `'x` type variables and
`--` line comments.  Numerals and empty records are sugar: `desugar` removes
empty records and, over the usual `nat`, keeps a numeral n as a count with
the argument of its `Zero`, standing for n `Succ` over that `Zero`.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple

from .records import Struct


class SourceError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line:
            return "%d:%d: %s" % (self.line, self.col, self.message)
        return self.message


# ---------------------------------------------------------------------------
# types (shared with the checker)
#
# Named tuples, so that the checker's many lookups by type instance hash and
# compare in C.  Two types of different kinds never compare equal: a TVar
# has one field, and a TApp starts with a name where a TArrow starts with a
# type.

class TVar(namedtuple("TVar", "name")):
    __slots__ = ()


class TApp(namedtuple("TApp", "name args", defaults=((),))):
    __slots__ = ()


class TArrow(namedtuple("TArrow", "dom cod")):
    __slots__ = ()


def type_str(t) -> str:
    if isinstance(t, TVar):
        return "'" + t.name
    if isinstance(t, TApp):
        if not t.args:
            return t.name
        return "%s(%s)" % (t.name, ", ".join(type_str(a) for a in t.args))
    if isinstance(t, TArrow):
        dom = type_str(t.dom)
        if isinstance(t.dom, TArrow):
            dom = "(%s)" % dom
        return "%s -> %s" % (dom, type_str(t.cod))
    raise TypeError("not a type: %r" % (t,))


def uncurry(t, n: int):
    """Split n argument types off the front of an arrow type."""
    args = []
    for _ in range(n):
        if not isinstance(t, TArrow):
            return None
        args.append(t.dom)
        t = t.cod
    return tuple(args), t


# ---------------------------------------------------------------------------
# surface AST
#
# Patterns and expressions are built from one node set, as the paper reads
# a clause as one term: a variable, numeral, constructor or record means the
# same on either side of `=`.  Only patterns hold a wildcard `SWild`, and
# only expressions a projection `SProj` or an application `SApp`.

class TypeDecl(Struct):
    __slots__ = ("name", "params", "is_codata", "items", "line", "col")
    _uncompared = ("line", "col")

    def __init__(self, name: str, params: tuple, is_codata: bool,
                 items: tuple, line: int = 0, col: int = 0):
        self.name = name
        self.params = params
        self.is_codata = is_codata
        self.items = items  # (item name, declared type)
        self.line = line
        self.col = col


class SVar(Struct):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class SWild(Struct):
    __slots__ = ()


class SNum(Struct):
    __slots__ = ("value", "arg")

    def __init__(self, value: int, arg: object = None):
        self.value = value
        self.arg = arg  # after `desugar`: its Zero's argument


class SConstr(Struct):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args  # as written; desugar normalises to exactly one


class SRecord(Struct):
    __slots__ = ("fields",)

    def __init__(self, fields: tuple):
        self.fields = fields  # (field name, node)


class SProj(Struct):
    __slots__ = ("sub", "fname")

    def __init__(self, sub: object, fname: str):
        self.sub = sub
        self.fname = fname


class SApp(Struct):
    __slots__ = ("fname", "args")

    def __init__(self, fname: str, args: tuple):
        self.fname = fname
        self.args = args


class Clause(Struct):
    __slots__ = ("fname", "patterns", "body", "line", "col")
    _uncompared = ("line", "col")

    def __init__(self, fname: str, patterns: tuple, body: object,
                 line: int = 0, col: int = 0):
        self.fname = fname
        self.patterns = patterns
        self.body = body
        self.line = line
        self.col = col


class Definition(Struct):
    __slots__ = ("fname", "signature", "clauses", "line", "col")
    _uncompared = ("line", "col")

    def __init__(self, fname: str, signature: object, clauses: tuple,
                 line: int = 0, col: int = 0):
        self.fname = fname
        self.signature = signature  # a type, or None
        self.clauses = clauses
        self.line = line
        self.col = col

    @property
    def arity(self) -> int:
        return len(self.clauses[0].patterns) if self.clauses else 0


class Group(Struct):
    """One `val ... and ...` block; members may be mutually recursive."""

    __slots__ = ("defs", "line", "bounds")
    _uncompared = ("line", "bounds")

    def __init__(self, defs: tuple, line: int = 0, bounds: object = None):
        self.defs = defs
        self.line = line
        self.bounds = bounds  # pragma override


class Names(dict):
    """The name table of one check: each name maps to the one string that
    stands for it in all the check's trees, `types` maps a type name to the
    one type without arguments of that name in them and every other type
    to the one type equal to it there, and `dummies` holds the dummy
    variables `_d0`, `_d1`, ... that `desugar` has made so far."""

    __slots__ = ("types", "dummies")

    def __init__(self):
        super().__init__()
        self.types: dict = {}
        self.dummies: list = []


class Program(Struct):
    """Declarations and groups.  A parsed program carries the name table
    that `desugar` takes its dummy variables from; a desugared one has
    none, so that the table is freed with the surface tree."""

    __slots__ = ("decls", "groups", "names")
    _uncompared = ("names",)

    def __init__(self, decls: tuple, groups: tuple,
                 names: Names | None = None):
        self.decls = decls
        self.groups = groups
        self.names = names


# ---------------------------------------------------------------------------
# lexer

_KEYWORDS = {"data", "codata", "where", "val", "and"}
_PRAGMA = re.compile(r"^\s*--\s*totality:\s*B\s*=\s*(\d+)\s*,\s*D\s*=\s*(\d+)\s*$")


# Blanks, then one token: a comment, a word or numeral (`\w` is isalnum or
# `_`, `\d` is isdecimal, so a word may also start with a numeric
# character such as `²`, which `_kind` then refuses), `->`, a type variable
# with its quote, punctuation, or any other character.  Lines end at "\n"
# only.
_TOKEN = re.compile(r"([ \t\r]*)(--.*|->|'\w*|\d+|[^\W\d][\w']*"
                    r"|[:|=(){};,.]|[^ \t\r])")
# the kind of each token that is its own kind, and of each ASCII start of
# a name or numeral
_KINDS = {word: word for word in (*_KEYWORDS, *":|=(){};,.", "->")}
_KINDS["_"] = "wild"
_STARTS = dict.fromkeys("abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ_", "name")
_STARTS.update(dict.fromkeys("0123456789", "int"))
# the characters of whole lines that `_lex` reads at a time: the parser
# holds the tokens of one such chunk, not of the whole file
CHUNK = 4096


def _kind(value: str, line: int, col: int) -> str:
    """The kind of a token that `_KINDS` and `_STARTS` do not give."""
    c = value[0]
    if value.startswith("--"):
        return "comment"
    if c == "'":
        if len(value) == 1:
            raise SourceError("dangling quote", line, col)
        return "tyvar"
    if c.isdecimal():
        return "int"
    if c.isalpha():
        return "name"
    raise SourceError("unexpected character %r" % c, line, col)


class _Lexer:
    """The tokens of `src`, read by `_lex` a chunk of whole lines of at
    least `size` characters at a time.  `start` and `line` are the offset
    and number of the first line not yet read; a chunk that fails to lex
    leaves them as they were, so that `rest` reads it again."""

    __slots__ = ("src", "size", "start", "line", "names", "pragmas",
                 "bad_pragma")

    def __init__(self, src: str, names: Names, size: int):
        self.src = src
        self.size = size
        self.start = 0
        self.line = 1
        self.names = names
        self.pragmas: dict = {}  # bounds per line of a good pragma
        self.bad_pragma = None  # (message, line, col) of the first bad one

    def done(self) -> bool:
        return self.start > len(self.src)

    def rest(self) -> None:
        """Read every line not yet read, for the errors that beat one found
        in parsing what was read: the first lexical error of the file, else
        its first bad pragma."""
        while not self.done():
            _lex(self)
        if self.bad_pragma:
            raise SourceError(*self.bad_pragma)


def _lex(lexer: _Lexer) -> list:
    """The tokens of the next chunk of `lexer`'s lines, each a plain tuple
    (kind, value, line, col), which is cheaper to build than an object; the
    last chunk ends with an eof.  A name or type variable is its string in
    the name table.  Records the pragmas of the chunk on `lexer`."""
    src, start = lexer.src, lexer.start
    end = src.find("\n", start + lexer.size)
    if end < 0:
        end = len(src)
    tokens = []
    append = tokens.append
    intern = lexer.names.setdefault
    kinds, starts = _KINDS, _STARTS
    line = lexer.line - 1
    for text in src[start:end].split("\n"):
        line += 1
        col = 1
        for blank, value in _TOKEN.findall(text):
            col += len(blank)
            kind = (kinds.get(value) or starts.get(value[0])
                    or _kind(value, line, col))
            if kind == "name":
                append((kind, intern(value, value), line, col))
            elif kind == "comment":
                if col == len(blank) + 1:  # the line's first token
                    _pragma(lexer, text, line)
                break
            elif kind == "tyvar":
                name = value[1:]
                append((kind, intern(name, name), line, col))
            else:
                append((kind, value, line, col))
            col += len(value)
        else:
            col = len(text) + 1  # the eof of a last line without comment
    if end == len(src):
        append(("eof", "", line, col))
    lexer.start = end + 1
    lexer.line = line + 1
    return tokens


def _pragma(lexer: _Lexer, text: str, line: int) -> None:
    """Record the bounds of the comment line `text` if it is a pragma.  A
    pragma is a whole line, so a line whose first token is not a comment
    is none."""
    m = _PRAGMA.match(text)
    if m is None:
        return
    if int(m.group(1)) < 1:
        if lexer.bad_pragma is None:
            lexer.bad_pragma = ("pragma bound B must be at least 1", line,
                                m.start(1) + 1)
        return
    lexer.pragmas[line] = (int(m.group(1)), int(m.group(2)))


# ---------------------------------------------------------------------------
# parser

class _Parser:
    """A recursive descent over the tokens of one chunk at a time: `tok` is
    the one at `pos` in `tokens`.  Only `take` moves on, and it reads the
    next chunk when one runs out, so no token list outlives its chunk.
    Beyond that, `take`, `peek` and `at` call nothing: each takes one
    frame, as in the parse of the whole file as one chunk that
    `parse_program` falls back on, so both nest as deep."""

    def __init__(self, src: str, size: int):
        self.lexer = _Lexer(src, Names(), size)
        self.types = self.lexer.names.types
        self.tok = ("", "", 1, 1)  # stands before the first token
        self.tokens = [self.tok]
        self.pos = 0
        self.end = 1

    def refill(self) -> None:
        """Move on to the first token of the next chunk that has one.  A
        bad pragma ends the parse as soon as it is read."""
        lexer = self.lexer
        tokens = _lex(lexer)
        while not tokens:
            tokens = _lex(lexer)
        if lexer.bad_pragma:
            raise SourceError(*lexer.bad_pragma)
        end = len(tokens)  # the last call that can fail: `pos` moves after
        self.tokens, self.pos, self.end, self.tok = tokens, 0, end, tokens[0]

    def peek(self) -> tuple:
        return self.tok  # the trailing eof ends every loop

    def take(self, kind: str) -> tuple:
        tok = self.tok
        if tok[0] != kind:
            raise SourceError(
                "expected %s, found %r" % (kind, tok[1] or tok[0]),
                *tok[2:],
            )
        self.pos = pos = self.pos + 1
        if pos == self.end:
            self.refill()  # on any error, `pos` stays at `end`
        else:
            self.tok = self.tokens[pos]
        return tok

    def at(self, kind: str) -> bool:
        return self.tok[0] == kind

    def program(self) -> Program:
        decls, groups = [], []
        while not self.at("eof"):
            if self.at("data") or self.at("codata"):
                decls.append(self.type_decl())
            elif self.at("val"):
                groups.append(self.group())
            else:
                tok = self.peek()
                raise SourceError(
                    "expected a declaration or definition, found %r"
                    % (tok[1] or tok[0]), *tok[2:],
                )
        return Program(tuple(decls), tuple(groups), self.lexer.names)

    def type_decl(self) -> TypeDecl:
        start = self.take(self.peek()[0])
        is_codata = start[0] == "codata"
        name = self.take("name")[1]
        params = []
        if self.at("("):
            self.take("(")
            params.append(self.take("tyvar")[1])
            while self.at(","):
                self.take(",")
                params.append(self.take("tyvar")[1])
            self.take(")")
        self.take("where")
        items = [self.decl_item()]
        while self.at("|"):
            self.take("|")
            items.append(self.decl_item())
        return TypeDecl(name, tuple(params), is_codata, tuple(items),
                        *start[2:])

    def decl_item(self):
        name = self.take("name")[1]
        self.take(":")
        return (name, self.type_expr())

    def type_expr(self):
        left = self.type_atom()
        if self.at("->"):
            self.take("->")
            t = TArrow(left, self.type_expr())
            return self.types.setdefault(t, t)
        return left

    def type_atom(self):
        if self.at("tyvar"):
            t = TVar(self.take("tyvar")[1])
            return self.types.setdefault(t, t)
        if self.at("("):
            self.take("(")
            t = self.type_expr()
            self.take(")")
            return t
        name = self.take("name")[1]
        if not self.at("("):
            t = self.types.get(name)
            if t is None:
                t = self.types[name] = TApp(name)
            return t
        self.take("(")
        args = [self.type_expr()]
        while self.at(","):
            self.take(",")
            args.append(self.type_expr())
        self.take(")")
        t = TApp(name, tuple(args))
        return self.types.setdefault(t, t)

    def group(self) -> Group:
        start = self.take("val")
        defs = [self.fundef()]
        while self.at("and"):
            self.take("and")
            defs.append(self.fundef())
        bounds = self.lexer.pragmas.get(start[2] - 1)
        return Group(tuple(defs), start[2], bounds)

    def fundef(self) -> Definition:
        tok = self.take("name")
        fname = tok[1]
        signature = None
        clauses = []
        if self.at(":"):
            self.take(":")
            signature = self.type_expr()
        else:
            clauses.append(self.clause_tail(fname, tok))
        while self.at("|"):
            bar = self.take("|")
            name_tok = self.take("name")
            if name_tok[1] != fname:
                raise SourceError(
                    "clause for %r inside the definition of %r"
                    % (name_tok[1], fname), *name_tok[2:],
                )
            clauses.append(self.clause_tail(fname, bar))
        return Definition(fname, signature, tuple(clauses), *tok[2:])

    def clause_tail(self, fname: str, tok: tuple) -> Clause:
        patterns = []
        while not self.at("="):
            patterns.append(self.pattern_atom())
        self.take("=")
        body = self.expr()
        return Clause(fname, tuple(patterns), body, *tok[2:])

    # patterns ------------------------------------------------------------

    def pattern_atom(self):
        tok = self.peek()
        if tok[0] == "wild":
            self.take("wild")
            return SWild()
        if tok[0] == "int":
            self.take("int")
            return SNum(int(tok[1]))
        if tok[0] == "{":
            return SRecord(self.fields(self.pattern))
        if tok[0] == "(":
            self.take("(")
            p = self.pattern()
            self.take(")")
            return p
        name = self.take("name")[1]
        if name[0].isupper():
            return SConstr(name, ())
        return SVar(name)

    def pattern(self):
        tok = self.peek()
        if tok[0] == "name" and tok[1][0].isupper():
            name = self.take("name")[1]
            if self.at("("):
                # either a parenthesised argument or (p1, p2) pair sugar
                self.take("(")
                first = self.pattern()
                if self.at(","):
                    args = [first]
                    while self.at(","):
                        self.take(",")
                        args.append(self.pattern())
                    self.take(")")
                    return SConstr(name, tuple(args))
                self.take(")")
                args = [first]
            else:
                args = []
            while self.peek()[0] in ("name", "wild", "int", "{", "("):
                args.append(self.pattern_atom())
            return SConstr(name, tuple(args))
        return self.pattern_atom()

    def fields(self, item) -> tuple:
        """The fields of a record `{ D = ... ; ... }`, each value parsed by
        `item`."""
        self.take("{")
        fields = []
        if not self.at("}"):
            while True:
                fname = self.take("name")[1]
                self.take("=")
                fields.append((fname, item()))
                if self.at(";"):
                    self.take(";")
                    continue
                break
        self.take("}")
        return tuple(fields)

    # expressions ----------------------------------------------------------

    def expr(self):
        tok = self.peek()
        if tok[0] == "name" and tok[1][0].isupper():
            name = self.take("name")[1]
            args = self.constr_args()
            return self.postfix(SConstr(name, tuple(args)))
        head = self.expr_atom()
        args = []
        while self.peek()[0] in ("name", "int", "{", "("):
            args.append(self.expr_atom())
        if args:
            if not isinstance(head, SVar):
                tok = self.peek()
                raise SourceError(
                    "only named functions can be applied", *tok[2:]
                )
            return self.postfix(SApp(head.name, tuple(args)))
        return head

    def constr_args(self):
        if self.at("("):
            self.take("(")
            first = self.expr()
            if self.at(","):
                args = [first]
                while self.at(","):
                    self.take(",")
                    args.append(self.expr())
                self.take(")")
                return args
            self.take(")")
            args = [self.postfix(first)]
        else:
            args = []
        while self.peek()[0] in ("name", "int", "{", "("):
            args.append(self.expr_atom())
        return args

    def expr_atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take("int")
            return self.postfix(SNum(int(tok[1])))
        if tok[0] == "{":
            return self.postfix(SRecord(self.fields(self.expr)))
        if tok[0] == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return self.postfix(e)
        name = self.take("name")[1]
        if name[0].isupper():
            return self.postfix(SConstr(name, ()))
        return self.postfix(SVar(name))

    def postfix(self, e):
        while self.at("."):
            self.take(".")
            e = SProj(e, self.take("name")[1])
        return e


TOO_DEEP = "input nests too deeply to analyze"


def parse_program(src: str) -> Program:
    """The program `src`, or the `SourceError` of the whole file, lexed in
    full: a lexical error anywhere beats a bad pragma, which beats a syntax
    error or `TOO_DEEP`.  So once the parse stops, the lines it did not
    reach are read for those.  Reading a chunk takes a few frames more than
    the parse of one token list; where the parse has none left for them,
    it starts again with the whole file as one chunk, to nest as deep."""
    size = CHUNK
    while True:
        parser = _Parser(src, size)
        try:
            parser.refill()
            return parser.program()
        except SourceError:
            parser.lexer.rest()
            raise
        except RecursionError:
            if parser.pos < parser.end or size >= len(src):
                tok = parser.peek()
                parser.lexer.rest()
                raise SourceError(TOO_DEEP, *tok[2:]) from None
        size = len(src)


# ---------------------------------------------------------------------------
# desugaring

def _ctor_arities(decls) -> dict:
    out = {}
    for decl in decls:
        if decl.is_codata:
            continue
        for name, ty in decl.items:
            arity = 0
            t = ty
            while isinstance(t, TArrow):
                arity += 1
                t = t.cod
            out[name] = arity
    return out


_NAT = TApp("nat")
_NAT_ITEMS = {("Zero", _NAT), ("Succ", TArrow(_NAT, _NAT))}


def _numeral_mode(decls) -> str:
    """What `desugar` makes of a numeral: "count" it when some data `nat`
    is declared with `Zero : nat` and `Succ : nat -> nat`, so that a
    numeral types as its expansion does, step for step; else "expand" it
    when some data `nat` has constructors `Zero` and `Succ`; else "keep"
    it, for validation to flag."""
    mode = "keep"
    for decl in decls:
        if decl.name == "nat" and not decl.is_codata:
            if not decl.params and _NAT_ITEMS <= set(decl.items):
                return "count"
            if {"Zero", "Succ"} <= {n for n, _ in decl.items}:
                mode = "expand"
    return mode


def _fresh_names(taken: set, names: Names):
    """The names `_d0`, `_d1`, ... that are not in `taken`, in order, each
    made once per check and kept in `names`."""
    dummies = names.dummies
    for i in itertools.count():
        if i == len(dummies):
            name = "_d%d" % i
            dummies.append(names.setdefault(name, name))
        if dummies[i] not in taken:
            yield dummies[i]


def _pattern_vars(p, out):
    if isinstance(p, SVar):
        out.append(p.name)
    elif isinstance(p, SConstr):
        for sub in p.args:
            _pattern_vars(sub, out)
    elif isinstance(p, SNum) and p.arg is not None:
        _pattern_vars(p.arg, out)
    elif isinstance(p, SRecord):
        for _, sub in p.fields:
            _pattern_vars(sub, out)


def _numeral(n: int):
    """The numeral n written out as `Succ` over `Zero`."""
    node = SConstr("Zero", (SRecord(()),))
    for _ in range(n):
        node = SConstr("Succ", (node,))
    return node


def _desugar_node(node, arities: dict, numerals: str, fresh, empty):
    """`node` desugared, with `empty()` for each empty record and the names
    of `fresh` for wildcards.  `numerals` says what becomes of a numeral:
    "keep" it (no `nat`, flagged by validation), "count" it or "expand"
    it."""
    if isinstance(node, SVar):
        return node
    if isinstance(node, SWild):
        return SVar(next(fresh))
    if isinstance(node, SConstr):
        # one argument before the walk: a zero-arity constructor's `{}`
        # is `empty()`, and a pair walks `Fst` before `Snd`
        args = node.args
        arity = arities.get(node.name)
        if arity == 0 and not args:
            return SConstr(node.name, (empty(),))
        if len(args) == 2 and (arity == 2 or arity is None):
            args = (SRecord((("Fst", args[0]), ("Snd", args[1]))),)
        return SConstr(node.name, tuple([
            _desugar_node(a, arities, numerals, fresh, empty)
            for a in args]))
    if isinstance(node, SNum):
        if numerals == "keep":
            return node
        if node.arg is not None:
            return SNum(node.value, _desugar_node(node.arg, arities, numerals,
                                                  fresh, empty))
        if numerals == "count":
            return SNum(node.value, empty())
        return _desugar_node(_numeral(node.value), arities, numerals, fresh,
                             empty)
    if isinstance(node, SRecord):
        if not node.fields:
            return empty()
        return SRecord(tuple([
            (n, _desugar_node(sub, arities, numerals, fresh, empty))
            for n, sub in node.fields]))
    if isinstance(node, SApp):
        return SApp(node.fname, tuple([
            _desugar_node(a, arities, numerals, fresh, empty)
            for a in node.args]))
    if isinstance(node, SProj):
        return SProj(_desugar_node(node.sub, arities, numerals, fresh, empty),
                     node.fname)
    raise SourceError("unknown node %r" % (node,))


def desugar(program: Program, groups=None) -> Program:
    """Give numerals the argument of their `Zero`, normalise constructor
    arities and remove empty records from every clause, walking patterns and
    bodies alike.  A numeral stays a count over the usual `nat`
    (`_numeral_mode`); over another `nat` it is expanded, so that it fails
    to type as its expansion does.  An empty record becomes a fresh dummy
    variable in a pattern and, in the body, the clause's first dummy or
    `empty_record`.  A program that calls `empty_record` gets `unit`, the
    type of its result, as a codata type without fields, unless it declares
    a `unit` of its own.  With `DeclEnv`, which declares it for a nullary
    constructor, that settles before any group is typed whether the
    program has `unit`, so no group's verdict depends on the ones before
    it.

    The groups desugared are `groups`, else `program.groups`; from an
    iterable that hands out each parsed group once, as `analyze_source`
    passes, each is freed once desugared.  `program` itself is never
    changed."""
    arities = _ctor_arities(program.decls)
    numerals = _numeral_mode(program.decls)
    names = program.names or Names()
    # whether a clause calls it: written out, or made by `empty_record`
    calls_empty = "empty_record" in names

    def do_clause(cl: Clause) -> Clause:
        try:
            return expand_clause(cl)
        except RecursionError:
            raise SourceError(TOO_DEEP, cl.line, cl.col) from None

    def expand_clause(cl: Clause) -> Clause:
        existing: list = []
        for p in cl.patterns:
            _pattern_vars(p, existing)
        fresh = _fresh_names(set(existing), names)
        dummies: list = []  # one variable each, as the tree never changes

        def dummy():
            dummies.append(SVar(next(fresh)))
            return dummies[-1]

        patterns = tuple(_desugar_node(p, arities, numerals, fresh, dummy)
                         for p in cl.patterns)

        def empty_record():
            nonlocal calls_empty
            if dummies:
                return dummies[0]
            calls_empty = True
            pvars: list = []
            for p in patterns:
                _pattern_vars(p, pvars)
            if pvars:
                return SApp("empty_record", (SVar(pvars[0]),))
            return SVar("empty_record")  # resolved as a 0-ary library call

        body = _desugar_node(cl.body, arities, numerals, fresh,
                             empty_record)
        return Clause(cl.fname, patterns, body, cl.line, cl.col)

    groups = tuple(
        Group(tuple(
            Definition(d.fname, d.signature,
                       tuple(do_clause(c) for c in d.clauses), d.line, d.col)
            for d in g.defs
        ), g.line, g.bounds)
        for g in (program.groups if groups is None else groups)
    )
    decls = program.decls
    if calls_empty and all(decl.name != "unit" for decl in decls):
        decls += (TypeDecl("unit", (), True, ()),)
    return Program(decls, groups)


# ---------------------------------------------------------------------------
# restriction checks

class Violation(Struct):
    __slots__ = ("message", "line", "col")

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return "%d:%d: %s" % (self.line, self.col, self.message)


def validate_restrictions(program: Program) -> tuple:
    """The violations of the language's restrictions in the desugared
    `program`, and the arity of each definition by name.  The checker reads
    only the violations; `perfbench/tests` unpacks the pair."""
    violations: list[Violation] = []
    arities = _ctor_arities(program.decls)
    ctor_names: set = set()
    field_names: set = set()
    type_names: set = set()

    for decl in program.decls:
        if decl.name in type_names:
            violations.append(Violation(
                "duplicate type name %r" % decl.name, decl.line, decl.col))
        type_names.add(decl.name)
        if len(set(decl.params)) != len(decl.params):
            violations.append(Violation(
                "repeated type parameter in %r" % decl.name,
                decl.line, decl.col))
        for item, ty in decl.items:
            pool = field_names if decl.is_codata else ctor_names
            if item in ctor_names or item in field_names:
                violations.append(Violation(
                    "duplicate constructor or destructor name %r" % item,
                    decl.line, decl.col))
            pool.add(item)
            if not decl.is_codata and arities.get(item, 0) > 2:
                violations.append(Violation(
                    "constructor %r takes more than two arguments; "
                    "use an explicit record type" % item,
                    decl.line, decl.col))

    fn_arity: dict = {}

    for group in program.groups:
        for d in group.defs:
            if d.fname in fn_arity:
                violations.append(Violation(
                    "duplicate definition of %r" % d.fname, d.line, d.col))
            if not d.clauses:
                violations.append(Violation(
                    "definition of %r has no clauses" % d.fname, d.line, d.col))
                fn_arity[d.fname] = 0
                continue
            arity = len(d.clauses[0].patterns)
            fn_arity[d.fname] = arity
            for cl in d.clauses:
                if len(cl.patterns) != arity:
                    violations.append(Violation(
                        "clauses of %r disagree on the number of arguments"
                        % d.fname, cl.line, cl.col))
        for d in group.defs:
            for cl in d.clauses:
                seen: list = []
                for p in cl.patterns:
                    _check_pattern(p, seen, arities, cl, violations)
                dup = {v for v in seen if seen.count(v) > 1}
                for v in sorted(dup):
                    violations.append(Violation(
                        "variable %r bound more than once in a clause" % v,
                        cl.line, cl.col))
                _check_expr(cl.body, set(seen), fn_arity, arities, cl,
                            violations)

    return violations, fn_arity


def _check_pattern(p, seen: list, arities, cl, violations) -> None:
    if isinstance(p, SVar):
        seen.append(p.name)
    elif isinstance(p, SNum) and p.arg is not None:
        _check_pattern(p.arg, seen, arities, cl, violations)
    elif isinstance(p, SNum):
        violations.append(Violation(
            "numeral pattern needs a `nat` declaration with Zero and Succ",
            cl.line, cl.col))
    elif isinstance(p, SConstr):
        if p.name not in arities:
            violations.append(Violation(
                "unknown constructor %r" % p.name, cl.line, cl.col))
        elif len(p.args) != 1:
            violations.append(Violation(
                "constructor %r applied to %d patterns (expects %d)"
                % (p.name, len(p.args), arities[p.name]), cl.line, cl.col))
        for sub in p.args:
            _check_pattern(sub, seen, arities, cl, violations)
    elif isinstance(p, SRecord):
        if not p.fields:
            violations.append(Violation(
                "empty record pattern survived desugaring", cl.line, cl.col))
        for _, sub in p.fields:
            _check_pattern(sub, seen, arities, cl, violations)


def _check_expr(e, bound: set, fn_arity, arities, cl, violations) -> None:
    if isinstance(e, SNum) and e.arg is not None:
        _check_expr(e.arg, bound, fn_arity, arities, cl, violations)
    elif isinstance(e, SNum):
        violations.append(Violation(
            "numeral needs a `nat` declaration with Zero and Succ",
            cl.line, cl.col))
    elif isinstance(e, SVar):
        if e.name in bound:
            return
        if e.name in fn_arity or e.name == "empty_record":
            arity = fn_arity.get(e.name, 0)
            if e.name != "empty_record" and arity != 0:
                violations.append(Violation(
                    "function %r used with 0 arguments (expects %d)"
                    % (e.name, arity), cl.line, cl.col))
            return
        violations.append(Violation(
            "unbound variable %r" % e.name, cl.line, cl.col))
    elif isinstance(e, SConstr):
        if e.name not in arities:
            violations.append(Violation(
                "unknown constructor %r" % e.name, cl.line, cl.col))
        elif len(e.args) != 1:
            violations.append(Violation(
                "constructor %r applied to %d arguments (expects %d)"
                % (e.name, len(e.args), arities[e.name]), cl.line, cl.col))
        for a in e.args:
            _check_expr(a, bound, fn_arity, arities, cl, violations)
    elif isinstance(e, SRecord):
        if not e.fields:
            violations.append(Violation(
                "empty record survived desugaring", cl.line, cl.col))
        for _, sub in e.fields:
            _check_expr(sub, bound, fn_arity, arities, cl, violations)
    elif isinstance(e, SProj):
        _check_expr(e.sub, bound, fn_arity, arities, cl, violations)
    elif isinstance(e, SApp):
        if e.fname in bound:
            violations.append(Violation(
                "pattern variable %r cannot be applied" % e.fname,
                cl.line, cl.col))
        elif e.fname == "empty_record":
            if len(e.args) > 1:
                violations.append(Violation(
                    "empty_record takes at most one argument",
                    cl.line, cl.col))
        elif e.fname not in fn_arity:
            violations.append(Violation(
                "unknown function %r" % e.fname, cl.line, cl.col))
        elif fn_arity[e.fname] != len(e.args):
            violations.append(Violation(
                "function %r applied to %d arguments (expects %d)"
                % (e.fname, len(e.args), fn_arity[e.fname]),
                cl.line, cl.col))
        for a in e.args:
            _check_expr(a, bound, fn_arity, arities, cl, violations)
    else:
        raise SourceError("unknown expression %r" % (e,))
