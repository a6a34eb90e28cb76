"""Generators and brute-force oracles for the property suite.

The order oracle enumerates a tiny universe of raw terms (including
reducible ones), seeds it with the generating inequalities of the term
order, closes under single-step rewriting, contextuality and
transitivity, and answers comparisons by graph reachability.  It is used
only to cross-check the syntax-directed `sleq` on normal-form pairs.

`reference_lex` is the character-at-a-time lexer that the one-pattern
`surface._lex` replaced; the tests compare their tokens, positions and
errors.

The term reference is the paper's algebra on whole terms: `nf`,
`is_normal`, `substitute`, `compose`, the order `sleq`, weak coherence
`sqcoh` and the collapse.  The checker never uses it; it extracts,
composes, collapses, sorts and compares calls on their items, and the
tests compare those with it.  `call_term` builds a call's term from its
items (`plug`, `tree_term`); the checker prints a call from its items
without it, and the tests compare the two texts.  `clause_term`,
`extract_calls` and `call_of_term` are the term path of call extraction:
they build each clause as a term, split its calls off it and read them
back as items, and the tests compare `callgraph.clause_calls` with them.
`index_clauses` walks the annotated clauses for their instance nodes and
called names, and the tests compare what the type checker records as it
builds them with it.
`collapse_call_term`, `compose_calls` and `is_checked_loop` are the term
path of the closure: they compose and collapse whole terms, and the tests
compare the initial collapse, the closure's piecewise composition and its
recorded self-composites with them.  `compose_spines` and
`substitute_tree` are the item path: they compose spines and substitute
argument trees on items, adding weights with `weigh`, and the tests
compare `CallTables`, which does both on interned ids, with them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .callgraph import (
    DAIMON,
    INF,
    Call,
    InternalError,
    Weight,
    ZEROW,
    clamp,
    leaf_paths,
    weight,
    weight_add,
)
from .surface import _KEYWORDS, SourceError
from .terms import (
    Approx,
    Constr,
    ConstrDual,
    Daimon,
    FunApp,
    Param,
    Project,
    Record,
    Sum,
    Term,
    Unknown,
    ZERO,
    approx,
    constr,
    constr_dual,
    contains_funapp,
    daimon,
    fun_names,
    funapp,
    map_children,
    project,
    record,
    sort_key,
    sum_of,
    summands,
    term_str,
)
from .typecheck import (
    ACall,
    AConstr,
    ADef,
    ANum,
    AProj,
    ARecord,
    AVar,
    clause_nodes,
)

# ---------------------------------------------------------------------------
# the reference lexer

def reference_lex(src: str) -> list:
    """The tokens of `src` as (kind, value, line, col), read one character
    at a time."""
    tokens = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if src.startswith("->", i):
            tokens.append(("->", "->", line, col))
            i += 2
            col += 2
            continue
        if c == "'":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            if j == i + 1:
                raise SourceError("dangling quote", line, col)
            tokens.append(("tyvar", src[i + 1:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            tokens.append(("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            if word == "_":
                tokens.append(("wild", word, line, col))
            elif word in _KEYWORDS:
                tokens.append((word, word, line, col))
            else:
                tokens.append(("name", word, line, col))
            col += j - i
            i = j
            continue
        if c in ":|=(){};,.":
            tokens.append((c, c, line, col))
            i += 1
            col += 1
            continue
        raise SourceError("unexpected character %r" % c, line, col)
    tokens.append(("eof", "", line, col))
    return tokens


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


def index_clauses(adefs, calls: list | None = None) -> list:
    """The nodes of the clauses of `adefs` that carry a type instance, in
    pre-order, read by a walk of each annotated clause (`clause_nodes`).
    With a list `calls`, each clause's called names, in order of first
    call, are appended to it as a tuple.  This is the reference for what
    `typecheck.GroupChecker` records while it builds the nodes."""
    nodes: list = []
    for adef in adefs:
        for cl in adef.clauses:
            names: dict = {}
            for node in clause_nodes(cl):
                if isinstance(node, (AConstr, ANum, ARecord, AProj)):
                    nodes.append(node)
                elif isinstance(node, ACall):
                    names[node.fname] = None
            if calls is not None:
                calls.append(tuple(names))
    return nodes


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


# ---------------------------------------------------------------------------
# the item path
#
# `weigh`, `_subst`, `_collapse` and their helpers are the plain item walks
# on argument trees, with whole weight items; `CallTables` does the same on
# interned ids with memoised weight arithmetic, and the tests compare the
# two.

# the constructor item each destructor item cancels
_CANCELS = {"d": "c", "j": "r"}

_ZERO_WEIGHT = ("w", ZEROW)

# what an item adds at its priority when absorbed into a spine's weight;
# in an argument's weight it adds the opposite
_ABSORBED = {"c": -1, "r": -1, "d": 1, "j": 1}


def weigh(middles, folded, sign: int, bound_b=None) -> tuple:
    """The weight item that adds the weight items `middles` (None adds
    nothing) and the items `folded`, absorbed with the signs of a spine
    (`sign` 1) or of an argument (-1), clamped when `bound_b` is given."""
    acc: dict = {}
    for m in middles:
        for p, v in m[1].items if m is not None else ():
            acc[p] = acc.get(p, 0) + v
    for item in folded:
        acc[item[2]] = acc.get(item[2], 0) + sign * _ABSORBED[item[0]]
    if bound_b is not None:
        acc = {p: clamp(bound_b, v) for p, v in acc.items()}
    return ("w", Weight(tuple(sorted(kv for kv in acc.items() if kv[1]))))


def _rebuild(tree: tuple, f) -> list:
    """The summands of a constructor or record whose children are replaced
    by the summands `f` gives them; a record takes the product of its
    fields' distinct summands."""
    if tree[0] == "c":
        return [("c", tree[1], tree[2], s) for s in f(tree[3])]
    choices = [[(n, s) for s in dict.fromkeys(f(v))] for n, v in tree[2]]
    return [("r", tree[1], fields) for fields in itertools.product(*choices)]


def _approx(middle, tree: tuple, weigh) -> list:
    """The middle `middle` over `tree`, None for a zero weight.  The Daimon
    gives a Daimon leaf for each leaf of the tree.  A weight absorbs the
    constructors above a leaf and the leaf's weight, vanishes under the
    leaf's Daimon, and over a record gives the Daimons of its leaves."""
    ctors = ()  # their items only: a weight key holds no subtree
    while tree[0] == "c":
        ctors += (tree[:3],)
        tree = tree[3]
    if middle == DAIMON or tree[0] == "r":
        return [("x", DAIMON) + path[-1][2:] for path in leaf_paths(tree)]
    if tree[1] == DAIMON:
        return [tree]
    return [("x", weigh((middle, tree[1]), ctors, -1), tree[2], tree[3])]


def _subst(tree: tuple, bound: dict, weigh) -> list:
    """The summands of `tree` with each parameter j that `bound` binds
    replaced by the tree bound[j], uncollapsed."""
    if tree[0] != "x":
        return _rebuild(tree, lambda s: _subst(s, bound, weigh))
    _, middle, word, end = tree
    t = bound.get(end)
    if t is None:
        return [tree]
    i = len(word)
    while i and t[0] != "x":
        kind, name = word[i - 1][:2]
        if t[0] == "c":
            t = t[3] if kind == "d" and name == t[1] else None
        else:
            t = next((v for n, v in t[2] if n == name and kind == "j"), None)
        if t is None:
            return []
        i -= 1
    if i and t[1] is None:
        t = ("x", None, word[:i] + t[2], t[3])
    elif i and t[1] != DAIMON:
        t = ("x", weigh((t[1],), word[:i], -1), t[2], t[3])
    return [t] if middle is None else _approx(middle, t, weigh)


def _collapse(tree: tuple, budget: int, bound_b: int, bound_d: int,
              weigh) -> list:
    """The summands of `tree` collapsed as `collapse_call_term` collapses
    its term, with `budget` constructor layers left: past them a zero
    weight, then each leaf keeps its D innermost destructors, folds the
    others into its weight and clamps the weight."""
    if tree[0] != "x" and budget:
        return _rebuild(
            tree, lambda s: _collapse(s, budget - 1, bound_b, bound_d, weigh))
    if tree[0] != "x":
        return [c for s in _approx(None, tree, weigh)
                for c in _collapse(s, 0, bound_b, bound_d, weigh)]
    _, middle, word, end = tree
    cut = max(0, len(word) - bound_d)
    if middle != DAIMON and (cut or middle is not None):
        middle = weigh((middle,), word[:cut], -1, bound_b)
    return [("x", middle, word[cut:], end)]


def compose_spines(a: tuple, b: tuple, bound_b: int, bound_d: int):
    """The collapsed composite of spine `b` plugged into spine `a`, both
    given by `spine_parts`, as a spine; None when it is zero.

    Every item of a spine sits above the callee occurrence, so the
    absorption signs of `terms` are fixed there: a destructor absorbed
    into a weight counts +1 and a constructor -1.  Building `a` over `b`
    through the smart constructors only rewrites at the junction, and these
    rewrites are their head reductions, as `CallTables._merge` describes.
    Collapsing then keeps the D outer constructors and the D inner
    destructors and folds the rest into the middle, starting from a zero
    weight, as `collapse_depth` does to a call spine; `collapse_weights`
    clamps the middle's weight into [-B, B).  Here both steps share one
    `weigh`."""
    ca, ma, da = a
    cb, mb, db = b
    i, j = len(da), 0
    while i and j < len(cb):
        d, c = da[i - 1], cb[j]
        if _CANCELS[d[0]] != c[0] or d[1] != c[1]:
            return None
        i, j = i - 1, j + 1
    if i and mb is None:
        ctors, middles, folded, dtors = ca, (ma,), (), da[:i] + db
    elif j < len(cb) and ma is None:
        ctors, middles, folded, dtors = ca + cb[j:], (mb,), (), db
    else:
        ctors, middles, folded, dtors = ca, (ma, mb), da[:i] + cb[j:], db
    cut = max(0, len(dtors) - bound_d)
    if len(ctors) > bound_d or cut:
        folded += ctors[bound_d:] + dtors[:cut]
        middles += (_ZERO_WEIGHT,)
        ctors, dtors = ctors[:bound_d], dtors[cut:]
    middles = [m for m in middles if m is not None]
    if not middles:
        return ctors + dtors
    if DAIMON in middles:
        return ctors + (DAIMON,) + dtors
    return ctors + (weigh(middles, folded, 1, bound_b),) + dtors


def substitute_tree(tree: tuple, bound: dict, bound_b: int,
                    bound_d: int) -> list:
    """The summands, in the order of their terms, of the collapsed `tree`
    with each parameter j that `bound` binds replaced by the tree bound[j],
    with the weights of `weigh`."""
    out = [c for s in _subst(tree, bound, weigh)
           for c in _collapse(s, bound_d, bound_b, bound_d, weigh)]
    if len(out) > 1:
        out = sorted(set(out), key=lambda s: sort_key(tree_term(s)))
    return out


# ---------------------------------------------------------------------------
# term universe and order oracle


@dataclass
class UniverseConfig:
    """Signature of the oracle universe.

    The universe is call-free: the syntax-directed order checks a stripped
    tail of a call against an unreduced body, which no closure of the
    plain generating rules reproduces exactly, so the rules involving
    function names are covered by direct tests instead.
    """

    max_nodes: int = 4
    constructors: tuple = ("A", "B")
    ctor_priority: int = 1
    fieldname: str = "D"
    field_priority: int = 0
    weights: tuple = (ZEROW, Weight(((0, -1),)), Weight(((1, 1),)))


def _child(t: Term):
    if isinstance(t, (Constr, ConstrDual, Project, Daimon, Approx)):
        return t.arg
    if isinstance(t, Record):
        return t.fields[0][1]
    if isinstance(t, FunApp) and len(t.args) == 1:
        return t.args[0]
    return None


def _with_child(t: Term, new: Term) -> Term:
    if isinstance(t, Constr):
        return Constr(t.name, t.priority, new)
    if isinstance(t, ConstrDual):
        return ConstrDual(t.name, t.priority, new)
    if isinstance(t, Project):
        return Project(t.name, t.priority, new)
    if isinstance(t, Daimon):
        return Daimon(new)
    if isinstance(t, Approx):
        return Approx(t.wt, new)
    if isinstance(t, Record):
        return Record(((t.fields[0][0], new),), t.priority)
    if isinstance(t, FunApp):
        return FunApp(t.fname, (new,))
    raise ValueError("no child")


class OrderOracle:
    """Decides the generated term order inside a finite universe."""

    def __init__(self, config: UniverseConfig = None):
        self.config = config or UniverseConfig()
        self.terms: list[Term] = []
        self.ids: dict[Term, int] = {}
        self._build_universe()
        self._build_reachability()

    # -- universe ----------------------------------------------------------

    def _kinds(self):
        cfg = self.config
        kinds = []
        for c in cfg.constructors:
            kinds.append(lambda u, c=c: Constr(c, cfg.ctor_priority, u))
            kinds.append(lambda u, c=c: ConstrDual(c, cfg.ctor_priority, u))
        kinds.append(lambda u: Record(((cfg.fieldname, u),),
                                      cfg.field_priority))
        kinds.append(lambda u: Project(cfg.fieldname, cfg.field_priority, u))
        kinds.append(lambda u: Daimon(u))
        for w in cfg.weights:
            kinds.append(lambda u, w=w: Approx(w, u))
        return kinds

    def _build_universe(self) -> None:
        kinds = self._kinds()
        layer: list[Term] = [Param(1), ZERO]
        universe: list[Term] = list(layer)
        for _ in range(self.config.max_nodes - 1):
            layer = [k(u) for u in layer for k in kinds]
            universe.extend(layer)
        self.base = set(universe)
        # close under rewriting so derivation chains between base terms
        # stay inside the universe
        seen = set(universe)
        queue = list(universe)
        while queue:
            t = queue.pop()
            for r, _ in self._all_rewrites(t):
                if r not in seen:
                    seen.add(r)
                    universe.append(r)
                    queue.append(r)
        self.terms = universe
        self.ids = {t: i for i, t in enumerate(universe)}

    # -- generating relation -----------------------------------------------

    def _local(self, t: Term):
        """Head rewrites of t: (result, 'eq' | 'down' | 'up')."""
        out = []
        cfg = self.config
        child = _child(t)
        if child == ZERO and child is not None:
            out.append((ZERO, "eq"))
            return out
        if isinstance(t, ConstrDual):
            u = t.arg
            if isinstance(u, Constr):
                out.append((u.arg if u.name == t.name else ZERO, "eq"))
            elif isinstance(u, Record):
                out.append((ZERO, "eq"))
            elif isinstance(u, Daimon):
                out.append((u, "eq"))
            elif isinstance(u, Approx):
                delta = 1 if contains_funapp(u.arg) else -1
                out.append((Approx(weight_add(u.wt, weight({t.priority: delta})),
                                   u.arg), "eq"))
        elif isinstance(t, Project):
            u = t.arg
            if isinstance(u, Record):
                hit = [v for n, v in u.fields if n == t.name]
                out.append((hit[0], "down") if hit else (ZERO, "eq"))
            elif isinstance(u, Constr):
                out.append((ZERO, "eq"))
            elif isinstance(u, Daimon):
                out.append((u, "eq"))
            elif isinstance(u, Approx):
                delta = 1 if contains_funapp(u.arg) else -1
                out.append((Approx(weight_add(u.wt, weight({t.priority: delta})),
                                   u.arg), "down"))
        elif isinstance(t, Daimon):
            u = t.arg
            if isinstance(u, Constr):
                out.append((Daimon(u.arg), "eq"))
            elif isinstance(u, Record):
                for _, v in u.fields:
                    out.append((Daimon(v), "down"))
            elif isinstance(u, Daimon):
                out.append((u, "eq"))
            elif isinstance(u, Approx):
                out.append((Daimon(u.arg), "down"))
            out.append((u, "up"))
        elif isinstance(t, Approx):
            u = t.arg
            if isinstance(u, Constr):
                delta = -1 if contains_funapp(u.arg) else 1
                out.append((Approx(weight_add(t.wt, weight({u.priority: delta})),
                                   u.arg), "eq"))
            elif isinstance(u, Record):
                if len(u.fields) == 1 and contains_funapp(u):
                    out.append((Approx(
                        weight_add(t.wt, weight({u.priority: -1})),
                        u.fields[0][1]), "eq"))
                else:
                    for _, v in u.fields:
                        out.append((Daimon(v), "down"))
            elif isinstance(u, Daimon):
                out.append((Daimon(Approx(t.wt, u.arg)), "down"))
            elif isinstance(u, Approx):
                out.append((Approx(weight_add(t.wt, u.wt), u.arg), "down"))
            if t.wt == ZEROW:
                out.append((u, "up"))
        return out

    def _all_rewrites(self, t: Term):
        out = list(self._local(t))
        child = _child(t)
        if child is not None:
            for r, direction in self._all_rewrites(child):
                out.append((_with_child(t, r), direction))
        return out

    def _weight_swaps(self, t: Term, pool):
        """Positional weight weakenings of t (t <= each result)."""
        out = []
        if isinstance(t, Approx):
            for w in pool:
                if w != t.wt and coef_leq(t.wt, w):
                    out.append(Approx(w, t.arg))
        child = _child(t)
        if child is not None:
            for r in self._weight_swaps(child, pool):
                out.append(_with_child(t, r))
        return out

    def _build_reachability(self) -> None:
        # every single-step relation is enumerated at every position, so
        # contextual and transitive closure reduce to graph reachability
        n = len(self.terms)
        succs: list[set] = [set() for _ in range(n)]
        zero = self.ids[ZERO]

        def edge(a: int, b: int) -> None:
            if a != b:
                succs[a].add(b)

        pool = sorted(
            {t.wt for t in self.terms if isinstance(t, Approx)},
            key=lambda w: w.items,
        )
        for t, i in self.ids.items():
            edge(i, zero)  # the error term is the top element
            for r, direction in self._all_rewrites(t):
                j = self.ids.get(r)
                if j is None:
                    continue
                if direction in ("eq", "down"):
                    edge(j, i)
                if direction in ("eq", "up"):
                    edge(i, j)
            for r in self._weight_swaps(t, pool):
                j = self.ids.get(r)
                if j is not None:
                    edge(i, j)
        self._reach = _reachability(n, succs)
        self._zero = zero

    def leq(self, s: Term, t: Term) -> bool:
        try:
            i, j = self.ids[s], self.ids[t]
        except KeyError:
            raise OracleOverflow("term outside the oracle universe")
        return i == j or bool(self._reach[i] >> j & 1)

    def normal_terms(self, max_nodes: int) -> list:
        """Base-universe normal forms; the query set of the cross-check."""
        out = [t for t in self.base
               if _size(t) <= max_nodes and is_normal(t) and nf(t) == t]
        out.sort(key=sort_key)
        return out


class OracleOverflow(Exception):
    pass


def _size(t: Term) -> int:
    child = _child(t)
    if child is None:
        return 1
    return 1 + _size(child)


def _reachability(n: int, succs):
    """Transitive reflexive reachability as bitmasks, by condensation."""
    index = [0] * n
    low = [0] * n
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    comp = [-1] * n
    order: list[int] = []
    counter = [1]
    stack: list[int] = []
    for root in range(n):
        if state[root]:
            continue
        work = [(root, iter(succs[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        state[root] = 1
        stack.append(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if not state[nxt]:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    state[nxt] = 1
                    stack.append(nxt)
                    work.append((nxt, iter(succs[nxt])))
                    advanced = True
                    break
                if state[nxt] == 1:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                members = []
                while True:
                    m = stack.pop()
                    state[m] = 2
                    members.append(m)
                    if m == node:
                        break
                cid = len(order)
                for m in members:
                    comp[m] = cid
                order.append(members)
        # Tarjan emits components in reverse topological order
    comp_reach = [0] * len(order)
    for cid, members in enumerate(order):
        mask = 0
        for m in members:
            mask |= 1 << m
            for nxt in succs[m]:
                if comp[nxt] != cid:
                    mask |= comp_reach[comp[nxt]]
        comp_reach[cid] = mask
    return [comp_reach[comp[i]] for i in range(n)]


def leq_oracle(s: Term, t: Term, oracle: OrderOracle) -> bool:
    return oracle.leq(s, t)


# ---------------------------------------------------------------------------
# random term generation

@dataclass
class GenConfig:
    n_params: int = 1
    fname: str = "f"
    arity: int = 1
    allow_funapp: bool = True
    allow_sum: bool = True
    priorities: tuple = (0, 1)
    weight_values: tuple = (-2, -1, 1, 2, INF)


def _gen_weight(rng: random.Random, cfg: GenConfig) -> Weight:
    entries = {}
    for p in cfg.priorities:
        if rng.random() < 0.6:
            entries[p] = rng.choice(cfg.weight_values)
    return weight(entries)


def gen_term(size: int, seed=None, rng: random.Random = None,
             cfg: GenConfig = None) -> Term:
    """Random canonical term with at most `size` nodes before reduction."""
    rng = rng or random.Random(seed)
    cfg = cfg or GenConfig()

    def go(budget: int) -> Term:
        if budget <= 1:
            if cfg.allow_sum and rng.random() < 0.05:
                return ZERO
            return Param(rng.randint(1, cfg.n_params))
        roll = rng.random()
        if roll < 0.18:
            return constr(rng.choice(("A", "B")), 1, go(budget - 1))
        if roll < 0.30:
            return constr_dual(rng.choice(("A", "B")), 1, go(budget - 1))
        if roll < 0.42:
            if rng.random() < 0.35 and budget >= 3:
                half = (budget - 1) // 2
                return record(
                    [("D", go(half)), ("E", go(budget - 1 - half))], 0)
            return record([("D", go(budget - 1))], 0)
        if roll < 0.52:
            return project(rng.choice(("D", "E")), 0, go(budget - 1))
        if roll < 0.62:
            return daimon(go(budget - 1))
        if roll < 0.74:
            return approx(_gen_weight(rng, cfg), go(budget - 1))
        if roll < 0.86 and cfg.allow_funapp:
            share = max(1, (budget - 1) // max(cfg.arity, 1))
            return funapp(cfg.fname, [go(share) for _ in range(cfg.arity)])
        if cfg.allow_sum:
            half = max(1, (budget - 1) // 2)
            return sum_of([go(half), go(budget - 1 - half if budget > 2 else 1)])
        return Param(rng.randint(1, cfg.n_params))

    return go(size)


def gen_call(rng: random.Random, fname: str = "f", arity: int = 1,
             max_tries: int = 50) -> Call:
    """Random self-call in normal form."""
    argcfg = GenConfig(n_params=arity, allow_funapp=False, allow_sum=False)
    for _ in range(max_tries):
        args = [gen_term(rng.randint(1, 4), rng=rng, cfg=argcfg)
                for _ in range(arity)]
        if any(a == ZERO for a in args):
            continue
        t: Term = funapp(fname, args)
        for _ in range(rng.randint(0, 2)):
            t = constr_dual(rng.choice(("A", "B")), 1, t)
        kind = rng.random()
        if kind < 0.3:
            t = approx(_gen_weight(rng, argcfg), t)
        elif kind < 0.45:
            t = daimon(t)
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                t = constr(rng.choice(("A", "B")), 1, t)
            else:
                t = record([("D", t)], 0)
        if isinstance(t, Sum) or t == ZERO:
            continue
        try:
            return call_of_term(fname, t, {fname})
        except Exception:
            continue
    raise RuntimeError("could not generate a call")


# ---------------------------------------------------------------------------
# property suite

def run_property_suite(seed: int = 20240917, quick: bool = False) -> dict:
    """Execute the randomized property checks; returns a report mapping
    property name -> (runs, failures, first counterexample)."""
    rng = random.Random(seed)
    report: dict[str, tuple] = {}

    def run(name: str, count: int, check) -> None:
        failures = 0
        first = None
        for i in range(count):
            ok, repro = check(i)
            if not ok:
                failures += 1
                if first is None:
                    first = repro
        report[name] = (count, failures, first)

    n_assoc = 200 if quick else 1000

    def assoc(i):
        # composition is used call-after-call, where the callee occurrence
        # is always replaced by a term that again contains the callee
        ts = [call_term(gen_call(rng)) for _ in range(3)]
        left = compose(ts[0], compose(ts[1], ts[2], "f"), "f")
        right = compose(compose(ts[0], ts[1], "f"), ts[2], "f")
        return left == right, ts

    run("compose_associative", n_assoc, assoc)

    n_nf = 2000 if quick else 10000

    def nf_shape(i):
        t = gen_term(rng.randint(1, 8), rng=rng)
        return is_normal(t), t

    run("nf_shape_grammar", n_nf, nf_shape)

    n_cc = 200 if quick else 1000

    def collapse_below(i):
        b = rng.randint(1, 2)
        d = rng.randint(0, 2)
        alpha = gen_call(rng)
        beta = gen_call(rng)
        raw = compose(call_term(alpha), call_term(beta), "f")
        for s in (raw.parts if isinstance(raw, Sum) else (raw,)):
            collapsed = collapse_weights(b, collapse_depth(d, s))
            if not sleq(collapsed, s):
                return False, (b, d, call_term(alpha), call_term(beta), s)
        return True, None

    run("collapse_below_composition", n_cc, collapse_below)

    n_idem = 100 if quick else 500

    def collapse_idempotent(i):
        b = rng.randint(1, 3)
        d = rng.randint(0, 3)
        t = call_term(gen_call(rng))
        cd = collapse_depth(d, t)
        if collapse_depth(d, cd) != cd:
            return False, ("depth", d, t)
        cb = collapse_weights(b, t)
        if collapse_weights(b, cb) != cb:
            return False, ("weights", b, t)
        return True, None

    run("collapse_idempotent", n_idem, collapse_idempotent)

    n_refl = 200 if quick else 1000

    def sleq_reflexive(i):
        t = gen_term(rng.randint(1, 6), rng=rng)
        return sleq(t, t), t

    run("sleq_reflexive", n_refl, sleq_reflexive)

    n_trans = 100 if quick else 400

    def sleq_transitive(i):
        ts = [gen_term(rng.randint(1, 5), rng=rng) for _ in range(3)]
        a, b, c = ts
        if sleq(a, b) and sleq(b, c) and not sleq(a, c):
            return False, ts
        return True, None

    run("sleq_transitive", n_trans, sleq_transitive)

    def coherent_upper_bound(i):
        t = gen_term(rng.randint(2, 6), rng=rng)
        u = gen_term(rng.randint(1, 5), rng=rng)
        v = gen_term(rng.randint(1, 5), rng=rng)
        if t == ZERO:
            return True, None
        if sleq(u, t) and sleq(v, t) and not sqcoh(u, v):
            return False, (u, v, t)
        return True, None

    run("joint_bound_implies_coherent", n_trans, coherent_upper_bound)

    return report
