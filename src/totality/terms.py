"""Approximated operator terms and their canonical (normal) forms: the
paper's term algebra, with its notation (`term_str`, `parse_term`).

The checker never loads this module: it decides and prints everything on
the items of its calls (`callgraph`, which also holds the weights used
here).  `testkit` and the tests build terms to compare the checker with
the paper's reading.

Every ``Term`` in this module is kept in canonical form at all times:
sums are flattened, deduplicated and sorted, term formers distribute over
sums (multilinearity, so a term containing an empty sum collapses to ZERO),
record fields are sorted by name, and all head reductions between
destructors, constructors, the Daimon and weight approximations have been
applied.  Construction therefore goes through the smart constructors
(`constr`, `record`, `project`, ... ) below.  The node classes themselves
are plain records with value equality (`Frozen`); outside this
module they are built directly only for the leaves `Param` and `Unknown`,
and by the order oracle of `testkit`, whose universe holds raw terms.

Weight absorption is direction sensitive: inside the part of a term that
sits *above* a function application (the output side of a recursive call)
constructors absorbed into a weight count -1 and destructors +1, while
everywhere else the usual signs apply (+1 for an absorbed constructor,
-1 for a destructor).  A negative entry on the output side therefore reads
"at least that many constructors are guaranteed to be produced", and a
negative entry on the argument side reads "at least that many constructors
have been consumed".
"""

from __future__ import annotations

import itertools

from .callgraph import (
    INF,
    InternalError,
    Weight,
    ZInf,
    weight,
    weight_add,
)
from .records import Struct


# ---------------------------------------------------------------------------
# terms

class Frozen(Struct):
    """A hashable record whose fields cannot be assigned once `__init__`
    has set them with `object.__setattr__`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copied and pickled through `__init__`, which takes the fields in
        # order, since restoring the slots one by one would assign them
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Term(Frozen):
    __slots__ = ()


_set = object.__setattr__


class Param(Term):
    """Parameter of the caller; 1-based index, printed x1, x2, ..."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)


class Unknown(Term):
    """Opaque leaf used for calls of unknown 0-ary functions; printed `_`."""

    __slots__ = ()


class Constr(Term):
    __slots__ = ("name", "priority", "arg")

    def __init__(self, name: str, priority: int, arg: Term):
        _set(self, "name", name)
        _set(self, "priority", priority)
        _set(self, "arg", arg)


class Record(Term):
    __slots__ = ("fields", "priority")

    def __init__(self, fields: tuple[tuple[str, Term], ...], priority: int):
        _set(self, "fields", fields)  # nonempty, sorted by field name
        _set(self, "priority", priority)


class ConstrDual(Term):
    """Pattern-matching destructor C-: strips the constructor C."""

    __slots__ = ("name", "priority", "arg")

    def __init__(self, name: str, priority: int, arg: Term):
        _set(self, "name", name)
        _set(self, "priority", priority)
        _set(self, "arg", arg)


class Project(Term):
    """Record projection .D"""

    __slots__ = ("name", "priority", "arg")

    def __init__(self, name: str, priority: int, arg: Term):
        _set(self, "name", name)
        _set(self, "priority", priority)
        _set(self, "arg", arg)


class FunApp(Term):
    __slots__ = ("fname", "args")

    def __init__(self, fname: str, args: tuple[Term, ...]):
        _set(self, "fname", fname)
        _set(self, "args", args)


class Daimon(Term):
    """Defined-but-unknown result; absorbs constructors below and
    destructors above."""

    __slots__ = ("arg",)

    def __init__(self, arg: Term):
        _set(self, "arg", arg)


class Approx(Term):
    __slots__ = ("wt", "arg")

    def __init__(self, wt: Weight, arg: Term):
        _set(self, "wt", wt)
        _set(self, "arg", arg)


class Sum(Term):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Term, ...]):
        _set(self, "parts", parts)  # flat, deduplicated, sorted; () is Zero


ZERO = Sum(())

_TAGS = {
    Param: 0, Unknown: 1, Constr: 2, Record: 3, ConstrDual: 4,
    Project: 5, FunApp: 6, Daimon: 7, Approx: 8, Sum: 9,
}


def sort_key(t: Term):
    tag = _TAGS[type(t)]
    if isinstance(t, Param):
        return (tag, t.index)
    if isinstance(t, Unknown):
        return (tag,)
    if isinstance(t, (Constr, ConstrDual, Project)):
        return (tag, t.name, t.priority, sort_key(t.arg))
    if isinstance(t, Record):
        return (tag, t.priority, tuple((n, sort_key(v)) for n, v in t.fields))
    if isinstance(t, FunApp):
        return (tag, t.fname, tuple(sort_key(a) for a in t.args))
    if isinstance(t, Daimon):
        return (tag, sort_key(t.arg))
    if isinstance(t, Approx):
        return (tag, t.wt.items, sort_key(t.arg))
    return (tag, tuple(sort_key(p) for p in t.parts))


def summands(t: Term) -> tuple[Term, ...]:
    return t.parts if isinstance(t, Sum) else (t,)


def contains_funapp(t: Term) -> bool:
    if isinstance(t, FunApp):
        return True
    if isinstance(t, (Constr, ConstrDual, Project, Daimon, Approx)):
        return contains_funapp(t.arg)
    if isinstance(t, Record):
        return any(contains_funapp(v) for _, v in t.fields)
    if isinstance(t, Sum):
        return any(contains_funapp(p) for p in t.parts)
    return False


def fun_names(t: Term) -> set:
    if isinstance(t, FunApp):
        out = {t.fname}
        for a in t.args:
            out |= fun_names(a)
        return out
    if isinstance(t, (Constr, ConstrDual, Project, Daimon, Approx)):
        return fun_names(t.arg)
    if isinstance(t, Record):
        return set().union(set(), *(fun_names(v) for _, v in t.fields))
    if isinstance(t, Sum):
        return set().union(set(), *(fun_names(p) for p in t.parts))
    return set()


# ---------------------------------------------------------------------------
# smart constructors (the only way terms are built)

def sum_of(parts) -> Term:
    flat: list[Term] = []
    for p in parts:
        flat.extend(summands(p))
    unique = sorted(set(flat), key=sort_key)
    if len(unique) == 1:
        return unique[0]
    return Sum(tuple(unique))


def constr(name: str, priority: int, arg: Term) -> Term:
    if isinstance(arg, Sum):
        return sum_of(constr(name, priority, p) for p in arg.parts)
    return Constr(name, priority, arg)


def record(fields, priority: int) -> Term:
    items = sorted(fields, key=lambda f: f[0])
    if not items:
        raise InternalError("empty record term")
    names = [n for n, _ in items]
    if len(set(names)) != len(names):
        raise InternalError("duplicate record field")
    if any(isinstance(v, Sum) for _, v in items):
        choices = [[(n, s) for s in summands(v)] for n, v in items]
        return sum_of(record(combo, priority) for combo in itertools.product(*choices))
    return Record(tuple(items), priority)


def funapp(fname: str, args) -> Term:
    args = tuple(args)
    if any(isinstance(a, Sum) for a in args):
        choices = [summands(a) for a in args]
        return sum_of(funapp(fname, combo) for combo in itertools.product(*choices))
    return FunApp(fname, args)


def constr_dual(name: str, priority: int, arg: Term) -> Term:
    if isinstance(arg, Sum):
        return sum_of(constr_dual(name, priority, p) for p in arg.parts)
    if isinstance(arg, Constr):
        return arg.arg if arg.name == name else ZERO
    if isinstance(arg, Record):
        return ZERO
    if isinstance(arg, Daimon):
        return arg
    if isinstance(arg, Approx):
        delta = 1 if contains_funapp(arg.arg) else -1
        return approx(weight_add(arg.wt, weight({priority: delta})), arg.arg)
    return ConstrDual(name, priority, arg)


def project(name: str, priority: int, arg: Term) -> Term:
    if isinstance(arg, Sum):
        return sum_of(project(name, priority, p) for p in arg.parts)
    if isinstance(arg, Record):
        for fname, value in arg.fields:
            if fname == name:
                return value
        return ZERO
    if isinstance(arg, Constr):
        return ZERO
    if isinstance(arg, Daimon):
        return arg
    if isinstance(arg, Approx):
        delta = 1 if contains_funapp(arg.arg) else -1
        return approx(weight_add(arg.wt, weight({priority: delta})), arg.arg)
    return Project(name, priority, arg)


def daimon(arg: Term) -> Term:
    if isinstance(arg, Sum):
        return sum_of(daimon(p) for p in arg.parts)
    if isinstance(arg, Constr):
        return daimon(arg.arg)
    if isinstance(arg, Record):
        return sum_of(daimon(v) for _, v in arg.fields)
    if isinstance(arg, Daimon):
        return arg
    if isinstance(arg, Approx):
        return daimon(arg.arg)
    return Daimon(arg)


def approx(wt: Weight, arg: Term) -> Term:
    if isinstance(arg, Sum):
        return sum_of(approx(wt, p) for p in arg.parts)
    if isinstance(arg, Constr):
        delta = -1 if contains_funapp(arg.arg) else 1
        return approx(weight_add(wt, weight({arg.priority: delta})), arg.arg)
    if isinstance(arg, Record):
        if len(arg.fields) == 1 and contains_funapp(arg):
            (_, value), = arg.fields
            return approx(weight_add(wt, weight({arg.priority: -1})), value)
        return sum_of(daimon(v) for _, v in arg.fields)
    if isinstance(arg, Approx):
        return approx(weight_add(wt, arg.wt), arg.arg)
    if isinstance(arg, Daimon):
        return arg
    return Approx(wt, arg)


def map_children(t: Term, f) -> Term:
    """Rebuild `t` through the smart constructors with `f` applied to each
    direct subterm; leaves come back unchanged."""
    build = _MAP_CHILDREN.get(type(t))
    if build is None:
        raise InternalError("unknown term node %r" % (t,))
    return build(t, f)


_MAP_CHILDREN = {
    Param: lambda t, f: t,
    Unknown: lambda t, f: t,
    Constr: lambda t, f: constr(t.name, t.priority, f(t.arg)),
    Record: lambda t, f: record([(n, f(v)) for n, v in t.fields], t.priority),
    ConstrDual: lambda t, f: constr_dual(t.name, t.priority, f(t.arg)),
    Project: lambda t, f: project(t.name, t.priority, f(t.arg)),
    FunApp: lambda t, f: funapp(t.fname, [f(a) for a in t.args]),
    Daimon: lambda t, f: daimon(f(t.arg)),
    Approx: lambda t, f: approx(t.wt, f(t.arg)),
    Sum: lambda t, f: sum_of(f(p) for p in t.parts),
}


# ---------------------------------------------------------------------------
# textual notation
#
#   x1   C@1 t   {D@0 = t; E@0 = t}   C-@1 t   .D@0 t   f(t, t)
#   ? t  <{0:-1,1:inf}> t   t + t   0   _

def term_str(t: Term) -> str:
    if isinstance(t, Sum):
        if not t.parts:
            return "0"
        return " + ".join(term_str(p) for p in t.parts)
    if isinstance(t, Param):
        return "x%d" % t.index
    if isinstance(t, Unknown):
        return "_"
    if isinstance(t, Constr):
        return "%s@%d %s" % (t.name, t.priority, _sub_str(t.arg))
    if isinstance(t, ConstrDual):
        return "%s-@%d %s" % (t.name, t.priority, _sub_str(t.arg))
    if isinstance(t, Project):
        return ".%s@%d %s" % (t.name, t.priority, _sub_str(t.arg))
    if isinstance(t, Record):
        body = "; ".join(
            "%s@%d = %s" % (n, t.priority, term_str(v)) for n, v in t.fields
        )
        return "{%s}" % body
    if isinstance(t, FunApp):
        return "%s(%s)" % (t.fname, ", ".join(term_str(a) for a in t.args))
    if isinstance(t, Daimon):
        return "? %s" % _sub_str(t.arg)
    if isinstance(t, Approx):
        return "<%s> %s" % (t.wt, _sub_str(t.arg))
    raise InternalError("unknown term node %r" % (t,))


def _sub_str(t: Term) -> str:
    if isinstance(t, Sum) and len(summands(t)) != 1:
        return "(%s)" % term_str(t)
    return term_str(t)


class NotationError(ValueError):
    pass


class _TermParser:
    def __init__(self, text: str):
        self.toks = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text):
        toks, i = [], 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdecimal():
                j = i
                while j < len(text) and text[j].isdecimal():
                    j += 1
                toks.append(("int", text[i:j]))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                toks.append(("name", text[i:j]))
                i = j
                continue
            if c in "@{}<>().,;=+?:-":
                toks.append((c, c))
                i += 1
                continue
            raise NotationError("unexpected character %r" % c)
        toks.append(("eof", ""))
        return toks

    def peek(self):
        return self.toks[self.pos][0]

    def next(self, kind=None):
        k, v = self.toks[self.pos]
        if kind is not None and k != kind:
            raise NotationError("expected %r, found %r" % (kind, v or k))
        self.pos += 1
        return v

    def parse(self) -> Term:
        t = self.parse_sum()
        if self.peek() != "eof":
            raise NotationError("trailing input")
        return t

    def parse_sum(self) -> Term:
        parts = [self.parse_item()]
        while self.peek() == "+":
            self.next()
            parts.append(self.parse_item())
        if len(parts) == 1:
            return parts[0]
        return sum_of(parts)

    def parse_item(self) -> Term:
        k = self.peek()
        if k == "(":
            self.next()
            t = self.parse_sum()
            self.next(")")
            return t
        if k == "?":
            self.next()
            return daimon(self.parse_item())
        if k == "<":
            self.next()
            wt = self.parse_weight()
            self.next(">")
            return approx(wt, self.parse_item())
        if k == ".":
            self.next()
            name = self.next("name")
            self.next("@")
            prio = int(self.next("int"))
            return project(name, prio, self.parse_item())
        if k == "{":
            return self.parse_record()
        if k == "int":
            v = self.next("int")
            if v == "0":
                return ZERO
            raise NotationError("unexpected number %s" % v)
        if k == "name":
            name = self.next("name")
            if name == "_":
                return Unknown()
            if name[0] == "x" and name[1:].isdecimal():
                return Param(int(name[1:]))
            if self.peek() == "(":
                self.next()
                args = []
                if self.peek() != ")":
                    args.append(self.parse_sum())
                    while self.peek() == ",":
                        self.next()
                        args.append(self.parse_sum())
                self.next(")")
                return funapp(name, args)
            if self.peek() == "-":
                self.next()
                self.next("@")
                prio = int(self.next("int"))
                return constr_dual(name, prio, self.parse_item())
            self.next("@")
            prio = int(self.next("int"))
            return constr(name, prio, self.parse_item())
        raise NotationError("unexpected token %r" % k)

    def parse_record(self) -> Term:
        self.next("{")
        fields, prio = [], None
        while True:
            name = self.next("name")
            self.next("@")
            p = int(self.next("int"))
            if prio is None:
                prio = p
            elif p != prio:
                raise NotationError("record fields disagree on priority")
            self.next("=")
            fields.append((name, self.parse_sum()))
            if self.peek() == ";":
                self.next()
                continue
            break
        self.next("}")
        return record(fields, prio)

    def parse_weight(self) -> Weight:
        self.next("{")
        entries = {}
        if self.peek() != "}":
            while True:
                p = int(self.next("int"))
                self.next(":")
                neg = False
                if self.peek() == "-":
                    self.next()
                    neg = True
                if self.peek() == "name":
                    word = self.next("name")
                    if word != "inf":
                        raise NotationError("bad weight entry %r" % word)
                    v: ZInf = INF
                else:
                    v = int(self.next("int"))
                entries[p] = -v if neg else v
                if self.peek() == ",":
                    self.next()
                    continue
                break
        self.next("}")
        return weight(entries)


def parse_term(text: str) -> Term:
    return _TermParser(text).parse()
