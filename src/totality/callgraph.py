"""From annotated clauses to calls, the call multigraph and its closure."""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from .collapse import clamp
from .terms import (
    Approx,
    Constr,
    ConstrDual,
    Daimon,
    FunApp,
    InternalError,
    Param,
    Project,
    Record,
    Sum,
    Term,
    Unknown,
    ZEROW,
    approx,
    constr,
    constr_dual,
    contains_funapp,
    daimon,
    funapp,
    fun_names,
    map_children,
    project,
    record,
    sort_key,
    sum_of,
    summands,
    term_str,
    weight,
)
from .typecheck import (
    ABCall,
    ABConstr,
    ABProj,
    ABRecord,
    ABVar,
    ADef,
    APConstr,
    APRecord,
    APVar,
)


# items: ("c", name, p) constructor, ("r", name, p) record field,
# ("d", name, p) constructor-destructor, ("j", name, p) projection,
# ("w", Weight) approximation, and the Daimon's item:
DAIMON = ("daimon",)

# the item of each single-child node, keyed by node type
BRANCH_ITEMS = {
    Constr: lambda t: ("c", t.name, t.priority),
    ConstrDual: lambda t: ("d", t.name, t.priority),
    Project: lambda t: ("j", t.name, t.priority),
    Approx: lambda t: ("w", t.wt),
}

# the node each item stands for, built around `t` by its smart constructor
ITEM_NODES = {
    "c": lambda item, t: constr(item[1], item[2], t),
    "r": lambda item, t: record([(item[1], t)], item[2]),
    "d": lambda item, t: constr_dual(item[1], item[2], t),
    "j": lambda item, t: project(item[1], item[2], t),
    "w": lambda item, t: approx(item[1], t),
    "daimon": lambda item, t: daimon(t),
}


@dataclass(frozen=True)
class Call:
    """One edge of the call graph: a normal form with a single occurrence
    of the callee, applied to argument summaries.

    `spine` is the word of items above the callee occurrence, outermost
    first, and `args` are the occurrence's arguments as trees (`arg_tree`).
    The four fields determine the term, which is built, once, only to print
    the call and to compare loops by `sqcoh`."""

    caller: str
    callee: str
    spine: tuple
    args: tuple

    @cached_property
    def term(self) -> Term:
        return plug(self.spine,
                    funapp(self.callee, [tree_term(a) for a in self.args]))

    def __str__(self) -> str:
        return "%s -> %s: %s" % (self.caller, self.callee, term_str(self.term))


def call_of_term(caller: str, t: Term, group: set) -> Call:
    """The call `t` of `caller`, split into its spine and argument trees.

    One walk down the spine checks the invariants.  A bad term is reported
    by the first fault in this order: not exactly one function name, a
    callee outside the group, a forked record or other malformed spine, a
    function name inside an argument."""
    items = []
    node = t
    fault = None
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
        if item is not None:
            items.append(item(node))
        elif isinstance(node, Daimon):
            items.append(DAIMON)
        else:
            fault = "malformed call term %s" % term_str(t)
            break
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


# ---------------------------------------------------------------------------
# clause translation

def pattern_bindings(patterns) -> dict:
    """Variable -> term over the caller's parameters, built by peeling the
    argument patterns with matching destructors."""
    bindings: dict[str, Term] = {}

    def walk(p, ctx: Term) -> None:
        if isinstance(p, APVar):
            bindings[p.name] = ctx
        elif isinstance(p, APConstr):
            walk(p.arg, constr_dual(p.name, p.prio, ctx))
        elif isinstance(p, APRecord):
            for name, sub in p.fields:
                walk(sub, project(name, p.prio, ctx))
        else:
            raise InternalError("unknown pattern node %r" % (p,))

    for j, p in enumerate(patterns, start=1):
        walk(p, Param(j))
    return bindings


def body_term(body, bindings: dict) -> Term:
    if isinstance(body, ABVar):
        return bindings[body.name]
    if isinstance(body, ABConstr):
        return constr(body.name, body.prio, body_term(body.arg, bindings))
    if isinstance(body, ABRecord):
        return record(
            [(n, body_term(v, bindings)) for n, v in body.fields], body.prio)
    if isinstance(body, ABProj):
        return project(body.name, body.prio, body_term(body.sub, bindings))
    if isinstance(body, ABCall):
        return funapp(body.fname, [body_term(a, bindings) for a in body.args])
    raise InternalError("unknown body node %r" % (body,))


def definition_term(adef: ADef) -> Term:
    """Interpretation of a definition: the sum of its clause bodies with
    pattern variables replaced by destructor chains."""
    parts = []
    for cl in adef.clauses:
        parts.append(body_term(cl.body, pattern_bindings(cl.patterns)))
    return sum_of(parts)


# ---------------------------------------------------------------------------
# call extraction

def _blind(t: Term) -> Term:
    """Replace every function application by a Daimon over its arguments."""
    if isinstance(t, FunApp):
        if not t.args:
            return daimon(Unknown())
        return daimon(sum_of(_blind(a) for a in t.args))
    if isinstance(t, Approx):
        raise InternalError("approximation before call extraction")
    return map_children(t, _blind)


def extract_calls(t: Term, group: set) -> list:
    """Split a clause interpretation into its independent recursive calls."""
    if isinstance(t, Sum):
        out = []
        for p in t.parts:
            out.extend(extract_calls(p, group))
        return out
    if isinstance(t, (Param, Unknown)):
        return []
    if isinstance(t, FunApp):
        out = []
        if t.fname in group:
            out.append(funapp(t.fname, [_blind(a) for a in t.args]))
        for a in t.args:
            out.extend(daimon(c) for c in extract_calls(a, group))
        return out
    if isinstance(t, Constr):
        return [constr(t.name, t.priority, c)
                for c in extract_calls(t.arg, group)]
    if isinstance(t, Record):
        out = []
        for name, value in t.fields:
            out.extend(record([(name, c)], t.priority)
                       for c in extract_calls(value, group))
        return out
    if isinstance(t, ConstrDual):
        return [constr_dual(t.name, t.priority, c)
                for c in extract_calls(t.arg, group)]
    if isinstance(t, Project):
        return [project(t.name, t.priority, c)
                for c in extract_calls(t.arg, group)]
    raise InternalError("unexpected node during call extraction: %r" % (t,))


# ---------------------------------------------------------------------------
# the graph and its closure

@dataclass
class CallGraph:
    vertices: tuple
    edges: tuple
    bound_b: int
    bound_d: int
    stats: dict = field(default_factory=dict)
    # on a closure: loop index -> indices of the edges of its collapsed
    # composite with itself, in order
    self_composites: dict = field(default_factory=dict)

    def loops(self):
        return [e for e in self.edges if e.caller == e.callee]


def collapsed_calls(caller: str, raw: Term, group: set, bound_b: int,
                    bound_d: int) -> list:
    """The calls of `raw`, a call term of `caller`, collapsed and in the
    order of their terms.  Each summand is collapsed as the closure
    collapses its composite with the identity call: its spine by
    `compose_spines` and each argument by `substitute_tree`, unbound."""
    found = []
    for s in summands(raw):
        call = call_of_term(caller, s, group)
        spine = compose_spines(spine_parts(call.spine), ((), None, ()),
                               bound_b, bound_d)
        choices = [substitute_tree(a, {}, bound_b, bound_d)
                   for a in call.args]
        found += [Call(caller, call.callee, spine, args)
                  for args in itertools.product(*choices)]
    if len(found) > 1:
        found = sorted(set(found), key=lambda c: sort_key(c.term))
    return found


def build_callgraph(adefs, bound_b: int, bound_d: int) -> CallGraph:
    group = {d.fname for d in adefs}
    edges = [call for adef in adefs
             for raw in extract_calls(definition_term(adef), group)
             for call in collapsed_calls(adef.fname, raw, group, bound_b,
                                         bound_d)]
    return CallGraph(tuple(sorted(group)), tuple(dict.fromkeys(edges)),
                     bound_b, bound_d)


# Caps on the closure; reaching one raises ClosureCapError.
MAX_EDGES = 20000
MAX_COMPOSITIONS = 2000000


class ClosureCapError(Exception):
    """The closure reached `MAX_EDGES` or `MAX_COMPOSITIONS`."""


def spine_parts(spine: tuple) -> tuple:
    """A normal-form spine as its constructors (items "c" and "r"), its
    middle item (a weight, the Daimon, or None) and its destructors."""
    k = 0
    while k < len(spine) and spine[k][0] in "cr":
        k += 1
    if k < len(spine) and spine[k][0] in ("w", "daimon"):
        return spine[:k], spine[k], spine[k + 1:]
    return spine[:k], None, spine[k:]


# the constructor item each destructor item cancels
_CANCELS = {"d": "c", "j": "r"}

# what an item adds at its priority when absorbed into a spine's weight;
# in an argument's weight it adds the opposite
_ABSORBED = {"c": -1, "r": -1, "d": 1, "j": 1}

_ZERO_WEIGHT = ("w", ZEROW)


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
    return ("w", weight(acc))


def compose_spines(a: tuple, b: tuple, bound_b: int, bound_d: int,
                   weigh=weigh):
    """The collapsed composite of spine `b` plugged into spine `a`, both
    given by `spine_parts`, as a spine; None when it is zero.

    Write a = Ca Ma Da and b = Cb Mb Db: constructors, the optional middle
    item and destructors.  Every item of a spine sits above the callee
    occurrence, so the absorption signs of `terms` are fixed there: a
    destructor absorbed into a weight counts +1 and a constructor -1.
    Building `a` over `b` through the smart constructors only rewrites at
    the junction, and these rewrites are their head reductions.  Da cancels
    against Cb, inner end against outer end: "d" cancels "c" and "j"
    cancels "r" of the same name, as `constr_dual` and `project` match on
    the name only; any other pair is zero.  Leftover destructors stay below
    Ma when there is no Mb, and leftover constructors stay above Mb when
    there is no Ma.  Otherwise Ma, the leftovers and Mb become one middle
    item M: the Daimon absorbs everything, else the weights add with the
    leftovers folded in.

    Collapsing then keeps the D outer constructors and the D inner
    destructors and folds the rest into M, starting from a zero weight, as
    `collapse_depth` does to a call spine; `collapse_weights` clamps the
    weight of M into [-B, B).  `weigh` computes that weight as the module's
    `weigh` does."""
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


def plug(spine: tuple, occurrence: Term) -> Term:
    """The term of `spine` applied to `occurrence`."""
    for item in reversed(spine):
        occurrence = ITEM_NODES[item[0]](item, occurrence)
    return occurrence


# ---------------------------------------------------------------------------
# argument trees
#
# A call argument as a tree of tuples: ("c", name, p, child) is a
# constructor, ("r", p, ((name, child), ...)) a record with its fields
# sorted by name, and ("x", middle, word, end) a leaf.  The middle is None,
# a weight item ("w", Weight) or DAIMON, the word holds destructor items,
# outermost first, and the end is a parameter index, or 0 for `_`.

def arg_tree(t: Term) -> tuple:
    """The tree of a call argument."""
    if isinstance(t, Constr):
        return ("c", t.name, t.priority, arg_tree(t.arg))
    if isinstance(t, Record):
        return ("r", t.priority, tuple((n, arg_tree(v)) for n, v in t.fields))
    middle = None
    if isinstance(t, (Approx, Daimon)):
        middle, t = ("w", t.wt) if isinstance(t, Approx) else DAIMON, t.arg
    word = []
    while isinstance(t, (ConstrDual, Project)):
        word.append(BRANCH_ITEMS[type(t)](t))
        t = t.arg
    if not isinstance(t, (Param, Unknown)):
        raise InternalError("malformed call argument %s" % term_str(t))
    return ("x", middle, tuple(word), getattr(t, "index", 0))


def tree_term(tree: tuple) -> Term:
    """The term of an argument tree."""
    if tree[0] == "c":
        return constr(tree[1], tree[2], tree_term(tree[3]))
    if tree[0] == "r":
        return record([(n, tree_term(v)) for n, v in tree[2]], tree[1])
    _, middle, word, end = tree
    return plug((middle,) + word if middle else word,
                Param(end) if end else Unknown())


def _rebuild(tree: tuple, f) -> list:
    """The summands of a constructor or record whose children are replaced
    by the summands `f` gives them; a record takes their product."""
    if tree[0] == "c":
        return [("c", tree[1], tree[2], s) for s in f(tree[3])]
    choices = [[(n, s) for s in f(v)] for n, v in tree[2]]
    return [("r", tree[1], fields) for fields in itertools.product(*choices)]


def leaf_paths(tree: tuple, above: tuple = ()) -> list:
    """The path to each leaf of `tree`, in order: the constructor items
    ("c", name, p) and field items ("r", name, p) above the leaf, outermost
    first, then the leaf."""
    if tree[0] == "c":
        return leaf_paths(tree[3], above + (tree[:3],))
    if tree[0] == "r":
        return [path for n, v in tree[2]
                for path in leaf_paths(v, above + (("r", n, tree[1]),))]
    return [above + (tree,)]


def _approx(middle: tuple, tree: tuple, weigh) -> list:
    """The middle item `middle` over `tree`.  The Daimon gives a Daimon
    leaf for each leaf of the tree.  A weight absorbs the constructors
    above a leaf and the leaf's weight, vanishes under the leaf's Daimon,
    and over a record gives the Daimons of the record's leaves."""
    ctors = []  # their items only: a weight key holds no subtree
    while tree[0] == "c":
        ctors.append(tree[:3])
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
    """The summands of `tree` collapsed as `testkit.collapse_call_term`
    collapses its term, with `budget` constructor layers left: past them a
    zero weight, then each leaf keeps its D innermost destructors, folds
    the others into its weight and clamps the weight."""
    if tree[0] != "x" and budget:
        return _rebuild(
            tree, lambda s: _collapse(s, budget - 1, bound_b, bound_d, weigh))
    if tree[0] != "x":
        return [c for s in _approx(_ZERO_WEIGHT, tree, weigh)
                for c in _collapse(s, 0, bound_b, bound_d, weigh)]
    _, middle, word, end = tree
    cut = max(0, len(word) - bound_d)
    if middle != DAIMON and (cut or middle is not None):
        middle = weigh((middle,), word[:cut], -1, bound_b)
    return [("x", middle, word[cut:], end)]


def substitute_tree(tree: tuple, bound: dict, bound_b: int, bound_d: int,
                    weigh=weigh) -> list:
    """The summands, in the order of their terms, of the collapsed `tree`
    with each parameter j that `bound` binds replaced by the tree bound[j];
    `weigh` computes weights as the module's `weigh` does."""
    out = [c for s in _subst(tree, bound, weigh)
           for c in _collapse(s, bound_d, bound_b, bound_d, weigh)]
    if len(out) > 1:
        out = sorted(set(out), key=lambda s: sort_key(tree_term(s)))
    return out


class CallTables:
    """Tables for composing calls piecewise, as a spine and its arguments.

    The spine of a call is the tuple of items above its callee occurrence
    (`Call.spine`); its arguments are that occurrence's arguments, kept as
    trees (`arg_tree`).  Spines and argument trees get small integer ids;
    spine id 0 stands for the zero composite.  Spines compose as item words
    (`compose_spines`) and arguments substitute as trees
    (`substitute_tree`), so only a new edge is built, as a `Call` from its
    spine and argument trees (`call`).

    Composing piecewise is exact.  A spine holds no parameter, so
    substituting the caller's arguments only reaches the callee's arguments.
    The smart constructors above the occurrence only test whether it is a
    function application, never what it applies.  Depth collapse keeps the
    spine's budget apart and collapses every argument at full depth D, and
    weight clamping acts on each node alone.  Collapsing a whole composite
    therefore equals plugging the collapsed spine composite with the
    collapsed arguments, and the product of the arguments' sorted summands
    comes out in the sorted order of the whole composite's summands.  An
    argument substitution depends only on the bindings of the parameters
    the argument mentions, so it is memoised by the argument id and the ids
    bound to those parameters.  The weights both compute are memoised too
    (`weigh`): the same ones recur across the pairs of a closure.

    Substituting on trees is exact too.  Above the leaves the smart
    constructors only rebuild nodes, distributing over sums, so a record
    takes the product of its fields' summands; they rewrite only where a
    leaf meets the tree bound to its parameter, applying the leaf's
    destructors, innermost first, and then its middle.  `_subst` applies
    their head reductions with an argument's signs (it holds no call), and
    `_collapse` does to a tree what `testkit.collapse_call_term` does to
    its term.

    One instance serves one closure and is dropped with it."""

    def __init__(self, bound_b: int, bound_d: int):
        self.bound_b = bound_b
        self.bound_d = bound_d
        self.spines: list = [None]
        self.spine_ids: dict = {}
        # parts[i]: spine_parts of spine i
        self.parts: list = [None]
        # spine_comp[ia][ib]: id of the composite of spines ia and ib, None
        # until first needed
        self.spine_comp: list[list] = [[]]
        self.args: list[tuple] = []
        self.arg_ids: dict = {}
        # params[a]: the 0-based indices of the parameters argument a
        # mentions, in order
        self.params: list[tuple] = []
        # subst[(b, bound)]: ids of the summands of collapse(b[x := bound])
        self.subst: dict = {}
        # weights[(sign, bound_b, *middles, *folded)]: weigh's item for
        # them; each item also maps to itself, so equal items are shared
        self.weights: dict = {}

    def _spine_id(self, spine: tuple) -> int:
        sid = self.spine_ids.get(spine)
        if sid is None:
            sid = self.spine_ids[spine] = len(self.spines)
            self.spines.append(spine)
            self.parts.append(spine_parts(spine))
            self.spine_comp.append([])
        return sid

    def _arg_id(self, tree: tuple) -> int:
        aid = self.arg_ids.get(tree)
        if aid is None:
            aid = self.arg_ids[tree] = len(self.args)
            self.args.append(tree)
            self.params.append(tuple(sorted(
                {path[-1][3] - 1 for path in leaf_paths(tree)
                 if path[-1][3]})))
        return aid

    def split(self, call: Call) -> tuple:
        """Spine id and argument ids of a call."""
        return (self._spine_id(call.spine),
                tuple(self._arg_id(a) for a in call.args))

    def combine(self, first: tuple, second: tuple):
        """Spine id of the collapsed composite of two split calls, and the
        summand ids of each of its arguments.  The candidates are that
        spine with each `itertools.product` of the argument choices, in
        the order `testkit.compose_calls` gives them; there are none when
        the spine id is 0."""
        ia, ids_a = first
        ib, ids_b = second
        row = self.spine_comp[ia]
        if ib >= len(row):
            row.extend([None] * (ib + 1 - len(row)))
        sid = row[ib]
        if sid is None:
            spine = compose_spines(self.parts[ia], self.parts[ib],
                                   self.bound_b, self.bound_d, self._weigh)
            sid = row[ib] = 0 if spine is None else self._spine_id(spine)
        if not sid:
            return 0, ()
        choices = []
        for b in ids_b:
            key = (b, tuple([ids_a[j] for j in self.params[b]]))
            ids = self.subst.get(key)
            if ids is None:
                ids = self.subst[key] = self._substitute(*key)
            choices.append(ids)
        return sid, choices

    def call(self, caller: str, sid: int, callee: str, ids: tuple) -> Call:
        """The edge of a candidate."""
        return Call(caller, callee, self.spines[sid],
                    tuple(self.args[a] for a in ids))

    def _substitute(self, b: int, bound: tuple) -> tuple:
        bindings = {j + 1: self.args[a]
                    for j, a in zip(self.params[b], bound)}
        return tuple(self._arg_id(s) for s in substitute_tree(
            self.args[b], bindings, self.bound_b, self.bound_d, self._weigh))

    def _weigh(self, middles, folded, sign: int, bound_b=None) -> tuple:
        """The module's `weigh`, memoised."""
        key = (sign, bound_b, *middles, *folded)
        item = self.weights.get(key)
        if item is None:
            item = weigh(middles, folded, sign, bound_b)
            item = self.weights[key] = self.weights.setdefault(item, item)
        return item


def transitive_closure(graph: CallGraph) -> CallGraph:
    """Saturate the graph under collapsed composition.

    Every ordered pair of edges that meet is composed once: first the
    initial edges pairwise, in order, then each edge k, in the order the
    edges were found, with itself and the edges before it, by increasing
    partner i, (i, k) before (k, i).  The edges into and out of each vertex
    are indexed, so only pairs that meet are visited.  Composites are added
    in the order `testkit.compose_calls` gives them.  Calls are composed
    piecewise through `CallTables`; a candidate is known by its endpoints,
    spine id and argument ids, and only a new one is built.  Each loop's
    composites with itself are kept for the loop check.  The collapsed
    space is finite, so the caps only guard against bugs.
    """
    tables = CallTables(graph.bound_b, graph.bound_d)
    edges: list[Call] = list(graph.edges)
    parts = [tables.split(e) for e in edges]
    # candidate key -> index of its edge
    seen = {(e.caller, e.callee) + part: k
            for k, (e, part) in enumerate(zip(edges, parts))}
    # vertex -> indices of the edges into it and out of it, increasing
    into, out = defaultdict(list), defaultdict(list)
    for k, e in enumerate(edges):
        into[e.callee].append(k)
        out[e.caller].append(k)
    self_composites: dict = {}
    compositions = 0
    k = len(edges)
    # the pairs (i, j) to compose next, each led by its ordering index
    pairs = [(i, i, j) for i in range(k) for j in out[edges[i].callee]]
    while True:
        compositions += len(pairs)
        if compositions > MAX_COMPOSITIONS:
            raise ClosureCapError("call graph closure exceeded its "
                                  "composition cap (%d)" % MAX_COMPOSITIONS)
        for _, i, j in pairs:
            sid, choices = tables.combine(parts[i], parts[j])
            caller, callee = edges[i].caller, edges[j].callee
            found = []
            for ids in itertools.product(*choices) if sid else ():
                key = (caller, callee, sid, ids)
                n = seen.get(key)
                if n is None:
                    n = seen[key] = len(edges)
                    edges.append(tables.call(caller, sid, callee, ids))
                    parts.append((sid, ids))
                    into[callee].append(n)
                    out[caller].append(n)
                    if len(edges) > MAX_EDGES:
                        raise ClosureCapError("call graph closure exceeded "
                                              "its edge cap (%d)" % MAX_EDGES)
                found.append(n)
            if i == j:
                self_composites[i] = tuple(found)
        if k == len(edges):
            break
        ins, outs = into[edges[k].caller], out[edges[k].callee]
        pairs = sorted([(i, i, k) for i in ins[:bisect_right(ins, k)]]
                       + [(i, k, i) for i in outs[:bisect_left(outs, k)]])
        k += 1
    stats = {"edges": len(edges), "compositions": compositions}
    return CallGraph(graph.vertices, tuple(edges), graph.bound_b,
                     graph.bound_d, stats, self_composites)
