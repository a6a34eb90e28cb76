"""The paper's term algebra and the term path: approximated operator terms
in canonical (normal) form, their notation (`term_str`, `parse_term`), and
the paper's algebra on whole terms, which the tests compare the checker
with.

The checker never loads this module, and it is not installed with
`totality`: the checker decides and prints everything on the items of its
calls (`totality.callgraph`, which also holds the `Weight`s used here).
`weight` builds a weight and `weight_add` adds two; the checker interns
its weights and adds them in tables of its own.

Every ``Term`` in this module is kept in canonical form at all times:
sums are flattened, deduplicated and sorted, term formers distribute over
sums (multilinearity, so a term containing an empty sum collapses to ZERO),
record fields are sorted by name, and all head reductions between
destructors, constructors, the Daimon and weight approximations have been
applied.  Construction therefore goes through the smart constructors
(`constr`, `record`, `project`, ... ) below.  The node classes themselves
are plain records with value equality (`Frozen`); outside this
module they are built directly only for the leaves `Param` and `Unknown`,
and by the order oracle (`oracle`), whose universe holds raw terms.

Weight absorption is direction sensitive: inside the part of a term that
sits *above* a function application (the output side of a recursive call)
constructors absorbed into a weight count -1 and destructors +1, while
everywhere else the usual signs apply (+1 for an absorbed constructor,
-1 for a destructor).  A negative entry on the output side therefore reads
"at least that many constructors are guaranteed to be produced", and a
negative entry on the argument side reads "at least that many constructors
have been consumed".

The term reference is the paper's algebra on whole terms: `nf`,
`is_normal`, `substitute`, `compose`, the order `sleq`, weak coherence
`sqcoh` and the collapse.  The checker extracts, composes, collapses,
sorts and compares calls on their items, and the tests compare those with
it.  `call_term` builds a call's term from its items (`plug`,
`tree_term`); the checker prints a call from its items without it, and the
tests compare the two texts.  `clause_term`, `extract_calls` and
`call_of_term` are the term path of call extraction: they build each
clause as a term, split its calls off it and read them back as items, and
the tests compare `callgraph.clause_calls` with them.
`collapse_call_term`, `compose_calls` and `is_checked_loop` are the term
path of the closure: they compose and collapse whole terms, and the tests
compare the initial collapse, the closure's piecewise composition and its
recorded self-composites with them.
"""

from __future__ import annotations

import itertools

from totality.callgraph import (
    DAIMON,
    INF,
    Call,
    InternalError,
    Weight,
    ZEROW,
    ZInf,
    clamp,
)
from totality.records import Struct
from totality.typecheck import (
    ACall,
    AConstr,
    ADef,
    ANum,
    AProj,
    ARecord,
    AVar,
)


# ---------------------------------------------------------------------------
# weights

def weight(entries=()) -> Weight:
    """Build a Weight from a mapping or iterable of (priority, value) pairs."""
    if isinstance(entries, Weight):
        return entries
    if type(entries) is dict:  # distinct keys
        return Weight(tuple(sorted(
            (int(p), v) for p, v in entries.items() if v != 0)))
    if hasattr(entries, "items"):
        entries = entries.items()
    kept = sorted((int(p), v) for p, v in entries if v != 0)
    seen = [p for p, _ in kept]
    if len(set(seen)) != len(seen):
        raise ValueError("duplicate priority in weight")
    return Weight(tuple(kept))


def weight_add(a: Weight, b: Weight) -> Weight:
    """Componentwise addition; INF is absorbing."""
    acc = {p: v for p, v in a.items}
    for p, v in b.items:
        acc[p] = acc.get(p, 0) + v
    return weight(acc)



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


# ---------------------------------------------------------------------------
# the term reference
#
# The paper's algebra on whole terms: normal forms, substitution and
# composition, the syntax-directed order, weak coherence and the collapse.
# Weights are clamped into [-B, B) with everything at or above B replaced
# by infinity; depth collapsing keeps the D outermost constructor layers
# and, on every destructor spine, the D destructors closest to the spine's
# end, absorbing the rest into inserted zero weights.

def coef_leq(a: Weight, b: Weight) -> bool:
    """Order used when comparing approximations: pointwise >= on entries.

    The entry order is reversed on purpose: a weight with larger entries
    bounds fewer shapes, hence stands for a smaller (more precise) sum.
    """
    for p in set(a.priorities()) | set(b.priorities()):
        if not a.get(p) >= b.get(p):
            return False
    return True


def rewrap(dtors, inner: Term) -> Term:
    """Apply the destructor nodes `dtors`, outermost first, around `inner`."""
    for node in reversed(dtors):
        wrap = constr_dual if isinstance(node, ConstrDual) else project
        inner = wrap(node.name, node.priority, inner)
    return inner


def nf(t: Term) -> Term:
    """Normal form under the rightmost-first strategy.

    Canonical terms are already normal, so this simply rebuilds; it is the
    entry point for terms coming from the parser or constructed raw.
    """
    return map_children(t, nf)


def is_normal(t: Term, top: bool = True) -> bool:
    """Check the normal-form grammar: constructors / records above, then at
    most one Daimon or weight, then destructors down to a leaf or call."""
    if isinstance(t, Sum):
        if not top:
            return False
        ps = t.parts
        return (list(ps) == sorted(set(ps), key=sort_key)
                and all(is_normal(p, top=False) for p in ps))
    if isinstance(t, (Param, Unknown)):
        return True
    if isinstance(t, Constr):
        return is_normal(t.arg, top=False)
    if isinstance(t, Record):
        names = [n for n, _ in t.fields]
        return (len(t.fields) > 0 and names == sorted(names)
                and all(is_normal(v, top=False) for _, v in t.fields))
    if isinstance(t, FunApp):
        return all(is_normal(a, top=False) for a in t.args)
    if isinstance(t, (ConstrDual, Project)):
        return (isinstance(t.arg, (ConstrDual, Project, Param, Unknown, FunApp))
                and is_normal(t.arg, top=False))
    if isinstance(t, (Daimon, Approx)):
        return (isinstance(t.arg, (ConstrDual, Project, Param, Unknown, FunApp))
                and is_normal(t.arg, top=False))
    return False


def substitute(t: Term, bindings: dict) -> Term:
    """Simultaneous substitution of parameters; result is canonical."""
    def go(s: Term) -> Term:
        if isinstance(s, Param):
            return bindings.get(s.index, s)
        return map_children(s, go)

    return go(t)


def compose(t1: Term, t2: Term, fname: str) -> Term:
    """Plug t2 in for every application of `fname` inside t1.

    An application fname(a1, ..., an) is replaced by t2 with its parameter
    xj substituted by (aj composed with t2); every other node commutes.
    """
    def go(t: Term) -> Term:
        if isinstance(t, FunApp) and t.fname == fname:
            return substitute(t2, {j + 1: go(a) for j, a in enumerate(t.args)})
        return map_children(t, go)

    return go(t1)


def sleq(s: Term, t: Term) -> bool:
    """Decide s <= t for normal forms s, t."""
    if s == t:
        return True
    # sums: every summand of t is bounded by some summand of s
    if isinstance(t, Sum):
        return all(sleq(s, tj) for tj in t.parts)
    if isinstance(s, Sum):
        if any(sleq(si, t) for si in s.parts):
            return True
        # a sum of Daimon-headed terms may be routed below t collectively
        if (s.parts and all(isinstance(si, Daimon) for si in s.parts)
                and not isinstance(t, Daimon)):
            return sleq(s, daimon(t))
        return False
    if isinstance(s, Param) or isinstance(s, Unknown):
        return False  # equality already handled
    if isinstance(s, FunApp):
        return (isinstance(t, FunApp) and s.fname == t.fname
                and len(s.args) == len(t.args)
                and all(sleq(a, b) for a, b in zip(s.args, t.args)))
    if isinstance(s, Constr):
        return (isinstance(t, Constr) and s.name == t.name
                and s.priority == t.priority and sleq(s.arg, t.arg))
    if isinstance(s, Record):
        return (isinstance(t, Record) and s.priority == t.priority
                and [n for n, _ in s.fields] == [n for n, _ in t.fields]
                and all(sleq(a, b)
                        for (_, a), (_, b) in zip(s.fields, t.fields)))
    if isinstance(s, ConstrDual):
        return (isinstance(t, ConstrDual) and s.name == t.name
                and s.priority == t.priority and sleq(s.arg, t.arg))
    if isinstance(s, Project):
        return (isinstance(t, Project) and s.name == t.name
                and s.priority == t.priority and sleq(s.arg, t.arg))
    if isinstance(s, Daimon):
        if isinstance(t, Daimon):
            # strip any destructor / call prefix from t's body
            return any(sleq(s.arg, tail) for tail in _strip_prefixes(t.arg))
        return sleq(s, daimon(t))
    if isinstance(s, Approx):
        if isinstance(t, Approx):
            for delta, tail in _dtor_splits(t.arg):
                lifted = approx(t.wt, rewrap(delta, approx(ZEROW, tail)))
                if (isinstance(lifted, Approx) and lifted.arg == tail
                        and coef_leq(s.wt, lifted.wt) and sleq(s.arg, tail)):
                    return True
            return False
        if isinstance(t, Daimon):
            return False  # wrapping t in a zero weight makes no progress
        return sleq(s, approx(ZEROW, t))
    raise InternalError("unknown term node %r" % (s,))


def _strip_prefixes(t: Term):
    """All tails of t reachable by removing destructors and calls."""
    yield t
    if isinstance(t, (ConstrDual, Project)):
        yield from _strip_prefixes(t.arg)
    elif isinstance(t, FunApp):
        for a in t.args:
            yield from _strip_prefixes(a)


def _dtor_splits(t: Term):
    """Decompositions of t as destructor-prefix plus tail."""
    yield (), t
    if isinstance(t, (ConstrDual, Project)):
        for delta, tail in _dtor_splits(t.arg):
            yield (t,) + delta, tail


def sqcoh(u: Term, v: Term) -> bool:
    """Weak compatibility of two normal forms; loops whose self-composition
    is compatible with the loop must satisfy the size-change conditions."""
    if isinstance(u, Sum) or isinstance(v, Sum):
        return any(sqcoh(a, b) for a in summands(u) for b in summands(v))
    if isinstance(u, Daimon) and isinstance(v, Daimon):
        # destructor and call prefixes strip on either side, as in the
        # corresponding rule of the order
        for tail in _strip_prefixes(u.arg):
            if sqcoh(tail, v.arg):
                return True
        for tail in _strip_prefixes(v.arg):
            if sqcoh(u.arg, tail):
                return True
        return False
    if isinstance(u, Approx) or isinstance(v, Approx) \
            or isinstance(u, Daimon) or isinstance(v, Daimon):
        du, dv = daimon(u), daimon(v)
        if (du, dv) == (u, v):
            return False
        return sqcoh(du, dv)
    if isinstance(u, Param):
        return isinstance(v, Param) and u.index == v.index
    if isinstance(u, Unknown):
        return isinstance(v, Unknown)
    if isinstance(u, Constr):
        return (isinstance(v, Constr) and u.name == v.name
                and u.priority == v.priority and sqcoh(u.arg, v.arg))
    if isinstance(u, ConstrDual):
        return (isinstance(v, ConstrDual) and u.name == v.name
                and u.priority == v.priority and sqcoh(u.arg, v.arg))
    if isinstance(u, Project):
        return (isinstance(v, Project) and u.name == v.name
                and u.priority == v.priority and sqcoh(u.arg, v.arg))
    if isinstance(u, FunApp):
        return (isinstance(v, FunApp) and u.fname == v.fname
                and len(u.args) == len(v.args)
                and all(sqcoh(a, b) for a, b in zip(u.args, v.args)))
    if isinstance(u, Record):
        return (isinstance(v, Record) and u.priority == v.priority
                and [n for n, _ in u.fields] == [n for n, _ in v.fields]
                and all(sqcoh(a, b)
                        for (_, a), (_, b) in zip(u.fields, v.fields)))
    raise InternalError("unknown term node %r" % (u,))


def clamp_weight(bound_b: int, w: Weight) -> Weight:
    return weight({p: clamp(bound_b, v) for p, v in w.items})


def collapse_weights(bound_b: int, t: Term) -> Term:
    """Clamp every stored weight component into the B band."""
    if bound_b < 1:
        raise ValueError("weight bound must be at least 1")

    def go(s: Term) -> Term:
        if isinstance(s, Approx):
            return approx(clamp_weight(bound_b, s.wt), go(s.arg))
        return map_children(s, go)

    return go(t)


def collapse_depth(bound_d: int, t: Term) -> Term:
    """Truncate constructor depth and destructor spines at D."""
    if bound_d < 0:
        raise ValueError("depth bound must be nonnegative")
    return _depth(t, bound_d, bound_d)


def _depth(t: Term, budget: int, bound_d: int) -> Term:
    if isinstance(t, Sum):
        return sum_of(_depth(p, budget, bound_d) for p in t.parts)
    if isinstance(t, Constr) and budget > 0:
        return constr(t.name, t.priority, _depth(t.arg, budget - 1, bound_d))
    if isinstance(t, Record) and budget > 0:
        return record(
            [(n, _depth(v, budget - 1, bound_d)) for n, v in t.fields], t.priority
        )
    if isinstance(t, (Constr, Record)):
        # budget exhausted: a zero weight absorbs the remaining layers,
        # then the resulting spine is truncated
        return _spine(approx(ZEROW, t), bound_d)
    return _spine(t, bound_d)


def _spine(t: Term, bound_d: int) -> Term:
    """Collapse a destructor spine, keeping the D destructors nearest its
    end; the end's call arguments are collapsed at full depth."""
    if isinstance(t, Sum):
        return sum_of(_spine(p, bound_d) for p in t.parts)

    prefix = None
    if isinstance(t, (Daimon, Approx)):
        prefix, t = t, t.arg

    items = []
    while isinstance(t, (ConstrDual, Project)):
        items.append(t)
        t = t.arg

    if isinstance(t, FunApp):
        end: Term = funapp(
            t.fname, [_depth(a, bound_d, bound_d) for a in t.args]
        )
    elif isinstance(t, (Param, Unknown)):
        end = t
    else:
        raise InternalError("malformed spine at %r" % (t,))

    cut = max(0, len(items) - bound_d)
    out = rewrap(items[cut:], end)
    if cut:
        out = rewrap(items[:cut], approx(ZEROW, out))

    if isinstance(prefix, Daimon):
        return daimon(out)
    if isinstance(prefix, Approx):
        return approx(prefix.wt, out)
    return out


# ---------------------------------------------------------------------------
# the terms of calls
#
# A call's term, built from its items through the smart constructors.  The
# checker never builds it: it prints a call from its items
# (`callgraph.call_str`), and the tests compare that text with `term_str`
# of the term.

# the node each item stands for, built around `t` by its smart constructor
ITEM_NODES = {
    "c": lambda item, t: constr(item[1], item[2], t),
    "r": lambda item, t: record([(item[1], t)], item[2]),
    "d": lambda item, t: constr_dual(item[1], item[2], t),
    "j": lambda item, t: project(item[1], item[2], t),
    "w": lambda item, t: approx(item[1], t),
    "daimon": lambda item, t: daimon(t),
}


def plug(spine: tuple, occurrence: Term) -> Term:
    """The term of `spine` applied to `occurrence`."""
    for item in reversed(spine):
        occurrence = ITEM_NODES[item[0]](item, occurrence)
    return occurrence


def tree_term(tree: tuple) -> Term:
    """The term of an argument tree."""
    if tree[0] == "c":
        return constr(tree[1], tree[2], tree_term(tree[3]))
    if tree[0] == "r":
        return record([(n, tree_term(v)) for n, v in tree[2]], tree[1])
    _, middle, word, end = tree
    return plug((middle,) + word if middle else word,
                Param(end) if end else Unknown())


def call_term(call: Call) -> Term:
    """The term of a call: its spine over the callee applied to the terms
    of its argument trees."""
    return plug(call.spine,
                funapp(call.callee, [tree_term(a) for a in call.args]))


# ---------------------------------------------------------------------------
# the term path of call extraction
#
# Each clause as a term through the smart constructors, its calls split off
# that term and read back as items.  `callgraph.clause_calls` reads the same
# calls off the annotated clause directly; the tests compare the two.

# the item of each single-child node, keyed by node type
BRANCH_ITEMS = {
    Constr: lambda t: ("c", t.name, t.priority),
    ConstrDual: lambda t: ("d", t.name, t.priority),
    Project: lambda t: ("j", t.name, t.priority),
    Approx: lambda t: ("w", t.wt),
    Daimon: lambda t: DAIMON,
}


def call_of_term(caller: str, t: Term, group: set) -> Call:
    """The call `t` of `caller`, split into its spine and argument trees.

    One walk down the spine checks the invariants.  A bad term is reported
    by the first fault in this order: not exactly one function name, a
    callee outside the group, a forked record or other malformed spine, a
    function name inside an argument."""
    items, node, fault = [], t, None
    while not isinstance(node, FunApp):
        if isinstance(node, Record):
            if len(node.fields) != 1:
                fault = "call spine through a forked record"
                break
            (name, value), = node.fields
            items.append(("r", name, node.priority))
            node = value
            continue
        item = BRANCH_ITEMS.get(type(node))
        if item is None:
            fault = "malformed call term %s" % term_str(t)
            break
        items.append(item(node))
        node = node.arg
    else:
        if any(contains_funapp(a) for a in node.args):
            fault = "call argument contains a function name"
    if fault is not None:
        names = fun_names(t)
        if len(names) != 1:
            raise InternalError(
                "call term must mention exactly one function: %s"
                % term_str(t))
        callee = names.pop()
        if callee not in group:
            raise InternalError("call to %r escapes the group" % callee)
        raise InternalError(fault)
    if node.fname not in group:
        raise InternalError("call to %r escapes the group" % node.fname)
    return Call(caller, node.fname, tuple(items),
                tuple(arg_tree(a) for a in node.args))



def pattern_bindings(patterns, counts=None) -> dict:
    """Variable -> term over the caller's parameters, built by peeling the
    argument patterns with matching destructors.  A numeral n peels
    counts[n] `Succ`, or n without `counts` (`callgraph.numeral_counts`)."""
    bindings: dict[str, Term] = {}

    def walk(p, ctx: Term) -> None:
        if isinstance(p, AVar):
            bindings[p.name] = ctx
        elif isinstance(p, AConstr):
            walk(p.arg, constr_dual(p.name, p.prio, ctx))
        elif isinstance(p, ANum):
            for _ in range(counts[p.value] if counts else p.value):
                ctx = constr_dual("Succ", p.prio, ctx)
            walk(p.arg, constr_dual("Zero", p.prio, ctx))
        elif isinstance(p, ARecord):
            for name, sub in p.fields:
                walk(sub, project(name, p.prio, ctx))
        else:
            raise InternalError("unknown pattern node %r" % (p,))

    for j, p in enumerate(patterns, start=1):
        walk(p, Param(j))
    return bindings


def body_term(body, bindings: dict, counts=None) -> Term:
    """The term of a clause body; a numeral n builds counts[n] `Succ`, or n
    without `counts`."""
    if isinstance(body, AVar):
        return bindings[body.name]
    if isinstance(body, AConstr):
        return constr(body.name, body.prio,
                      body_term(body.arg, bindings, counts))
    if isinstance(body, ANum):
        t = constr("Zero", body.prio, body_term(body.arg, bindings, counts))
        for _ in range(counts[body.value] if counts else body.value):
            t = constr("Succ", body.prio, t)
        return t
    if isinstance(body, ARecord):
        return record([(n, body_term(v, bindings, counts))
                       for n, v in body.fields], body.prio)
    if isinstance(body, AProj):
        return project(body.name, body.prio,
                       body_term(body.sub, bindings, counts))
    if isinstance(body, ACall):
        return funapp(body.fname,
                      [body_term(a, bindings, counts) for a in body.args])
    raise InternalError("unknown body node %r" % (body,))


def clause_term(cl, counts=None) -> Term:
    """A clause body with pattern variables replaced by destructor chains."""
    return body_term(cl.body, pattern_bindings(cl.patterns, counts), counts)


def definition_term(adef: ADef) -> Term:
    """Interpretation of a definition: the sum of its clause terms."""
    return sum_of(clause_term(cl) for cl in adef.clauses)


def _blind(t: Term) -> Term:
    """Replace every function application by a Daimon over its arguments."""
    if isinstance(t, FunApp):
        return daimon(sum_of(_blind(a) for a in t.args) if t.args
                      else Unknown())
    if isinstance(t, Approx):
        raise InternalError("approximation before call extraction")
    return map_children(t, _blind)


def extract_calls(t: Term, group: set) -> list:
    """Split a clause interpretation into its independent recursive calls."""
    if isinstance(t, Sum):
        return [c for p in t.parts for c in extract_calls(p, group)]
    if isinstance(t, (Param, Unknown)):
        return []
    if isinstance(t, FunApp):
        own = [funapp(t.fname, [_blind(a) for a in t.args])]
        return (own if t.fname in group else []) + [
            daimon(c) for a in t.args for c in extract_calls(a, group)]
    if isinstance(t, (Constr, ConstrDual, Project)):
        return [map_children(t, lambda _: c)
                for c in extract_calls(t.arg, group)]
    if isinstance(t, Record):
        return [record([(name, c)], t.priority) for name, value in t.fields
                for c in extract_calls(value, group)]
    raise InternalError("unexpected node during call extraction: %r" % (t,))


def arg_tree(t: Term) -> tuple:
    """The tree of a call argument."""
    if isinstance(t, Constr):
        return ("c", t.name, t.priority, arg_tree(t.arg))
    if isinstance(t, Record):
        return ("r", t.priority, tuple((n, arg_tree(v)) for n, v in t.fields))
    middle = None
    if isinstance(t, (Approx, Daimon)):
        middle, t = BRANCH_ITEMS[type(t)](t), t.arg
    word = []
    while isinstance(t, (ConstrDual, Project)):
        word.append(BRANCH_ITEMS[type(t)](t))
        t = t.arg
    if not isinstance(t, (Param, Unknown)):
        raise InternalError("malformed call argument %s" % term_str(t))
    return ("x", middle, tuple(word), getattr(t, "index", 0))


# ---------------------------------------------------------------------------
# the term path


def collapse_call_term(t: Term, bound_b: int, bound_d: int) -> Term:
    """The paper's collapse of a call term: depth, then weights."""
    return collapse_weights(bound_b, collapse_depth(bound_d, t))


def compose_calls(alpha: Call, beta: Call, bound_b: int, bound_d: int):
    """Collapsed composition of beta after alpha; empty when the
    composition is an error."""
    if alpha.callee != beta.caller:
        raise InternalError("calls do not compose")
    raw = compose(call_term(alpha), call_term(beta), alpha.callee)
    collapsed = collapse_call_term(raw, bound_b, bound_d)
    group = {alpha.caller, alpha.callee, beta.callee}
    return [
        call_of_term(alpha.caller, s, group)
        for s in summands(collapsed) if s != ZERO
    ]


def is_checked_loop(call: Call, bound_b: int, bound_d: int) -> bool:
    """A loop is checked when its self-composition is compatible with it;
    a loop whose self-composition errors out cannot repeat."""
    candidates = compose_calls(call, call, bound_b, bound_d)
    return any(sqcoh(call_term(call), call_term(c)) for c in candidates)
