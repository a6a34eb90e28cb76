"""Weights, calls and their notation; from annotated clauses to calls,
the call multigraph and its closure.

Everything here works on the items of calls.  The paper's algebra on
whole terms, which the tests compare these walks with, is not part of the
package: it is the test reference `reference.terms`, with the item-path
reference `reference.items`, both under `tests/`."""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from operator import itemgetter

from .records import Struct
from .typecheck import (
    AConstr,
    ANum,
    AProj,
    ARecord,
    AVar,
    clause_nodes,
)

INF = float("inf")

ZInf = float  # int or INF; finite values are always ints


class InternalError(Exception):
    """A structural invariant of the analysis was violated."""


# ---------------------------------------------------------------------------
# weights

class Weight(namedtuple("Weight", "items", defaults=((),))):
    """Finite map from priority to Z-infinity; missing priorities are 0.

    `items` holds the nonzero entries sorted by priority.  A Weight is a
    tuple, so it hashes and compares in C."""

    __slots__ = ()

    def get(self, priority: int) -> ZInf:
        for p, v in self.items:
            if p == priority:
                return v
        return 0

    def priorities(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.items)

    def __str__(self) -> str:
        body = ",".join(
            "%d:%s" % (p, "inf" if v == INF else str(v)) for p, v in self.items
        )
        return "{%s}" % body


ZEROW = Weight()


# ---------------------------------------------------------------------------
# calls
#
# items: ("c", name, p) constructor, ("r", name, p) record field,
# ("d", name, p) constructor-destructor, ("j", name, p) projection,
# ("w", Weight) approximation, and the Daimon's item:
DAIMON = ("daimon",)

# the kinds of the middle items of a spine: a weight or the Daimon
_MIDDLES = ("w", "daimon")


class Call(namedtuple("Call", "caller callee spine args")):
    """One edge of the call graph: a normal form with a single occurrence
    of the callee, applied to argument summaries.

    `spine` is the word of items above the callee occurrence, outermost
    first, and `args` are the occurrence's arguments as trees.  The initial
    calls are read off the annotated clauses as items (`clause_calls`); the
    checker extracts, composes, collapses, sorts, weighs, compares and
    prints calls on their items, and never builds their terms
    (`reference.terms.call_term` does).  A Call is a tuple, so it is built,
    hashed and compared in C."""

    __slots__ = ()

    def __str__(self) -> str:
        return "%s -> %s: %s" % (self.caller, self.callee, call_str(self))


# The paper's notation of a call's term, printed from its items:
#
#   x1   C@1 t   {D@0 = t; E@0 = t}   C-@1 t   .D@0 t   f(t, t)
#   ? t  <{0:-1,1:inf}> t   _
#
# A record item of a spine or a leaf's word is a one-field record.

_PREFIXES = {"c": "%s@%d ", "r": "{%s@%d = ", "d": "%s-@%d ",
             "j": ".%s@%d "}


def _word_str(items: tuple, inner: str) -> str:
    """The text of the items `items`, outermost first, over `inner`."""
    out, records = [], 0
    for item in items:
        kind = item[0]
        if kind == "w":
            out.append("<%s> " % (item[1],))  # a Weight is a tuple
        elif kind == "daimon":
            out.append("? ")
        else:
            out.append(_PREFIXES[kind] % item[1:])
            if kind == "r":
                records += 1
    out.append(inner)
    out.append("}" * records)
    return "".join(out)


def _tree_str(tree: tuple) -> str:
    """The text of an argument tree."""
    if tree[0] == "c":
        return "%s@%d %s" % (tree[1], tree[2], _tree_str(tree[3]))
    if tree[0] == "r":
        return "{%s}" % "; ".join("%s@%d = %s" % (n, tree[1], _tree_str(v))
                                  for n, v in tree[2])
    _, middle, word, end = tree
    return _word_str((middle,) + word if middle else word,
                     "x%d" % end if end else "_")


def call_str(call: Call) -> str:
    """The text of a call's term: its spine over the callee applied to its
    argument trees."""
    return _word_str(call.spine, "%s(%s)" % (
        call.callee, ", ".join(map(_tree_str, call.args))))


# ---------------------------------------------------------------------------
# call extraction
#
# The calls of a clause are read off its annotated nodes as items.  Each
# walk applies the head reductions that the smart constructors of
# `reference.terms` apply to the clause's term, in which every call inside
# an argument is blinded to a Daimon, so the calls are those of the paper's
# reading (`extract_calls` on `clause_term` there is the reference).

def numeral_counts(clauses, bound_b: int, bound_d: int) -> dict:
    """The number of `Succ` that each numeral of `clauses` builds, so that
    the collapsed calls and their order are those of the full numerals.

    Sorted, the numerals keep every gap up to G and shrink longer ones to G,
    G = B + 2 (D + S) + 4 with S the size of the largest clause.  Two
    numerals, or one numeral and a fixed part, then compare alike.  A
    collapse keeps D layers at each end and clamps its weights into [-B, B];
    each weight entry adds or subtracts the lengths of at most one numeral
    of the body and one of the patterns, with the other items bounded by S
    and D, so it is clamped alike too."""
    values, size = set(), 0
    for cl in clauses:
        nodes = list(clause_nodes(cl))
        size = max(size, len(nodes))
        values.update(node.value for node in nodes
                      if isinstance(node, ANum))
    gap = bound_b + 2 * (bound_d + size) + 4
    counts, last, count = {}, 0, 0
    for value in sorted(values):
        count += min(value - last, gap)
        counts[value] = count
        last = value
    return counts


def pattern_leaves(patterns, counts: dict) -> dict:
    """Variable -> its leaf ("x", None, word, j): the destructors that peel
    parameter j down to it, outermost first.  A numeral n peels `Zero`,
    then counts[n] `Succ` (`numeral_counts`), and a record field projects."""
    leaves = {}
    for j, p in enumerate(patterns, start=1):
        _add_leaves(p, (), j, counts, leaves)
    return leaves


def _add_leaves(p, word: tuple, j: int, counts: dict, leaves: dict) -> None:
    """Add to `leaves` the leaves of pattern `p`, reached by `word` inside
    parameter j."""
    if isinstance(p, AVar):
        leaves[p.name] = ("x", None, word, j)
    elif isinstance(p, AConstr):
        _add_leaves(p.arg, (("d", p.name, p.prio),) + word, j, counts, leaves)
    elif isinstance(p, ANum):
        _add_leaves(p.arg, (("d", "Zero", p.prio),)
                    + (("d", "Succ", p.prio),) * counts[p.value] + word, j,
                    counts, leaves)
    elif isinstance(p, ARecord):
        for name, sub in p.fields:
            _add_leaves(sub, (("j", name, p.prio),) + word, j, counts,
                        leaves)
    else:
        raise InternalError("unknown pattern node %r" % (p,))


def _ctor_items(node, counts: dict) -> tuple:
    """The items of a constructor or numeral node, outermost first."""
    if isinstance(node, AConstr):
        return (("c", node.name, node.prio),)
    return ((("c", "Succ", node.prio),) * counts[node.value]
            + (("c", "Zero", node.prio),))


def _selected(node):
    """`node`, or the field it selects when it projects a record literal."""
    if isinstance(node, AProj):
        sub = _selected(node.sub)
        if isinstance(sub, ARecord):
            return _selected(dict(sub.fields)[node.name])
    return node


def clause_calls(caller: str, cl, group: set, counts: dict) -> list:
    """The calls of clause `cl` of `caller` to members of `group`, one list
    per call occurrence, in order: the product of the occurrence's
    arguments' summands, uncollapsed.

    A call inside an argument of any call is blinded: its arguments become
    the Daimon leaves of their trees, and a call to a member of the group
    found there loses the constructors and fields above it to the Daimon,
    under which the projections of the outer spine vanish."""
    leaves = pattern_leaves(cl.patterns, counts)
    return [[Call(caller, callee, spine, args)
             for args in itertools.product(*choices)]
            for spine, (callee, choices)
            in _occurrences(cl.body, group, leaves, counts)]


def _trees(node, leaves: dict, counts: dict) -> list:
    """The distinct summand trees of a call argument."""
    node = _selected(node)
    if isinstance(node, AVar):
        return [leaves[node.name]]
    if isinstance(node, (AConstr, ANum)):
        out = _trees(node.arg, leaves, counts)
        for item in reversed(_ctor_items(node, counts)):
            out = [item + (s,) for s in out]
        return out
    if isinstance(node, ARecord):
        return [("r", node.prio, fields) for fields in itertools.product(
            *[[(n, s) for s in _trees(v, leaves, counts)]
              for n, v in sorted(node.fields, key=itemgetter(0))])]
    if isinstance(node, AProj):  # of a constructor it is zero
        item = ("j", node.name, node.prio)
        return [s if s[1] == DAIMON else ("x", None, (item,) + s[2], s[3])
                for s in _trees(node.sub, leaves, counts) if s[0] == "x"]
    if not node.args:  # a call, blinded
        return [("x", DAIMON, (), 0)]
    return list(dict.fromkeys(
        leaf for a in node.args for s in _trees(a, leaves, counts)
        for leaf in daimon_leaves(s)))


def _occurrences(node, group: set, leaves: dict, counts: dict) -> list:
    """(spine, (callee, argument choices)) of each call in `node`."""
    node = _selected(node)
    if isinstance(node, (AConstr, ANum)):
        items = _ctor_items(node, counts)
        return [(items + spine, end)
                for spine, end in _occurrences(node.arg, group, leaves,
                                               counts)]
    if isinstance(node, ARecord):
        return [((("r", n, node.prio),) + spine, end)
                for n, v in sorted(node.fields, key=itemgetter(0))
                for spine, end in _occurrences(v, group, leaves, counts)]
    if isinstance(node, AProj):
        item = ("j", node.name, node.prio)
        return [(spine if spine[:1] == (DAIMON,) else (item,) + spine, end)
                for spine, end in _occurrences(node.sub, group, leaves,
                                               counts)]
    if isinstance(node, AVar):
        return []
    own = ([((), (node.fname, [_trees(a, leaves, counts)
                               for a in node.args]))]
           if node.fname in group else [])
    return own + [((DAIMON,) + spine_parts(spine)[2], end)
                  for a in node.args
                  for spine, end in _occurrences(a, group, leaves, counts)]


# ---------------------------------------------------------------------------
# the graph and its closure

class CallGraph(Struct):
    __slots__ = ("vertices", "edges", "bound_b", "bound_d", "stats",
                 "self_composites")

    def __init__(self, vertices: tuple, edges: tuple, bound_b: int,
                 bound_d: int, stats: dict | None = None,
                 self_composites: dict | None = None):
        self.vertices = vertices
        self.edges = edges
        self.bound_b = bound_b
        self.bound_d = bound_d
        self.stats = {} if stats is None else stats
        # on a closure: loop index -> indices of the edges of its collapsed
        # composite with itself, in order
        self.self_composites = ({} if self_composites is None
                                else self_composites)


class _Renamed(dict):
    """Spines and argument trees with each name n read as `names[n]`, each
    renamed once."""

    def __init__(self, names):
        super().__init__()
        self.names = names

    def __missing__(self, part: tuple) -> tuple:
        got = self[part] = (self.word(part) if not part or type(part[0])
                            is tuple else self.tree(part))
        return got

    def word(self, word: tuple) -> tuple:
        names = self.names
        return tuple([(item[0], names[item[1]], item[2])
                      if item[0] in _ABSORBED else item for item in word])

    def tree(self, tree: tuple) -> tuple:
        if tree[0] == "c":
            return "c", self.names[tree[1]], tree[2], self.tree(tree[3])
        if tree[0] == "r":
            return "r", tree[1], tuple([(self.names[n], self.tree(v))
                                        for n, v in tree[2]])
        return tree[:2] + (self.word(tree[2]), tree[3])


def renamed(calls, names) -> tuple:
    """`calls` with each function, constructor and field name n read as
    `names[n]`, a dict or an `_Ids`."""
    rename = _Renamed(names)
    return tuple([tuple.__new__(Call, (
        names[c.caller], names[c.callee], rename[c.spine],
        tuple(map(rename.__getitem__, c.args)))) for c in calls])


def clauses_key(adefs) -> tuple:
    """The key of the group `adefs`'s clauses that call a member, up to an
    order-keeping renaming of names, and those names, sorted: the member
    count, each clause's caller and nodes (`clause_nodes`) as call
    extraction reads them, names (and `Zero` and `Succ` at a numeral) as
    ids in order of first sight, members first, and the ids of the sorted
    names.  Groups of one key build one graph up to that renaming."""
    group = {d.fname for d in adefs}
    ids, key = _Ids(*sorted(group)), [len(group)]
    for caller, cl in [(d.fname, cl) for d in adefs for cl in d.clauses
                       if not group.isdisjoint(cl.calls)]:
        key.append(("clause", ids[caller], len(cl.patterns)))
        for node in clause_nodes(cl):
            if isinstance(node, AVar):
                key.append(ids[node.name])
            elif isinstance(node, (AConstr, AProj)):
                key.append((type(node).__name__, ids[node.name], node.prio))
            elif isinstance(node, ANum):
                key.append((node.value, node.prio, ids["Zero"], ids["Succ"]))
            elif isinstance(node, ARecord):
                key.append((node.prio, tuple(ids[n] for n, _ in node.fields)))
            else:  # a call, to a member or not
                key.append(("call", ids[node.fname] if node.fname in group
                            else None, len(node.args)))
    names = tuple(sorted(ids.values))
    return (tuple(key), tuple(map(ids.__getitem__, names))), names


def collapsed_calls(calls, bound_b: int, bound_d: int,
                    tables: CallTables | None = None) -> list:
    """The distinct collapsed forms of `calls`, in the order of their terms.
    Each call is collapsed as the closure collapses its composite with the
    identity call, through `tables` or fresh ones."""
    if tables is None:
        tables = CallTables(bound_b, bound_d)
    found = []
    for call in calls:
        identity = Call(call.callee, call.callee, (), tuple(
            ("x", None, (), j) for j in range(1, len(call.args) + 1)))
        found += [tables.call(call.caller, sid, call.callee, ids)
                  for _, _, sid, ids in tables.after(
                      tables.split(call), ((tables.split(identity), 0),))]
    return (found if len(found) < 2
            else sorted(set(found), key=lambda c: item_key(call_node(c))))


def build_callgraph(adefs, bound_b: int, bound_d: int,
                    tables: CallTables | None = None) -> CallGraph:
    """The collapsed calls of the clauses of `adefs`, in source order, each
    occurrence's in the order of their terms (`clause_calls`), collapsed
    through the group's `tables`, or fresh ones.  A clause that calls no
    member of the group gives no call, so only the clauses that do
    (`AClause.calls`) are read."""
    if tables is None:
        tables = CallTables(bound_b, bound_d)
    group = {d.fname for d in adefs}
    calling = [(adef.fname, cl) for adef in adefs for cl in adef.clauses
               if not group.isdisjoint(cl.calls)]
    counts = numeral_counts([cl for _, cl in calling], bound_b, bound_d)
    edges = [call for caller, cl in calling
             for calls in clause_calls(caller, cl, group, counts)
             for call in collapsed_calls(calls, bound_b, bound_d, tables)]
    return CallGraph(tuple(sorted(group)), tuple(dict.fromkeys(edges)),
                     bound_b, bound_d)


# Caps on the closure; reaching one raises ClosureCapError.
MAX_EDGES = 20000
MAX_COMPOSITIONS = 2000000


class ClosureCapError(Exception):
    """The closure reached `MAX_EDGES` or `MAX_COMPOSITIONS`."""


def _composition_cap() -> ClosureCapError:
    return ClosureCapError("call graph closure exceeded its composition "
                           "cap (%d)" % MAX_COMPOSITIONS)


def spine_parts(spine: tuple) -> tuple:
    """A normal-form spine as its constructors (items "c" and "r"), its
    middle item (a weight, the Daimon, or None) and its destructors."""
    k = 0
    while k < len(spine) and spine[k][0] in "cr":
        k += 1
    if k < len(spine) and spine[k][0] in _MIDDLES:
        return spine[:k], spine[k], spine[k + 1:]
    return spine[:k], None, spine[k:]


# the constructor item each destructor item cancels
_CANCELS = {"d": "c", "j": "r"}

# what an item adds at its priority when absorbed into a spine's weight;
# in an argument's weight it adds the opposite
_ABSORBED = {"c": -1, "r": -1, "d": 1, "j": 1}


def clamp(bound_b: int, value):
    """`value` clamped into [-B, B), with everything at or above B made
    infinite."""
    if value < -bound_b:
        return -bound_b
    if value >= bound_b:
        return INF
    return value


def weigh(middles, folded, sign: int) -> tuple:
    """The weight item that adds the weight items `middles` (None adds
    nothing) and the items `folded`, absorbed with the signs of a spine
    (`sign` 1) or of an argument (-1)."""
    acc: dict = {}
    for m in middles:
        for p, v in m[1].items if m is not None else ():
            acc[p] = acc.get(p, 0) + v
    for item in folded:
        acc[item[2]] = acc.get(item[2], 0) + sign * _ABSORBED[item[0]]
    return ("w", Weight(tuple(sorted(kv for kv in acc.items() if kv[1]))))


# ---------------------------------------------------------------------------
# argument trees
#
# A call argument as a tree of tuples: ("c", name, p, child) is a
# constructor, ("r", p, ((name, child), ...)) a record with its fields
# sorted by name, and ("x", middle, word, end) a leaf.  The middle is None,
# a weight item ("w", Weight) or DAIMON, the word holds destructor items,
# outermost first, and the end is a parameter index, or 0 for `_`.

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


def daimon_leaves(tree: tuple) -> list:
    """The Daimon over `tree`: a Daimon leaf for each leaf of the tree."""
    return [("x", DAIMON) + path[-1][2:] for path in leaf_paths(tree)]


def _record(tree: tuple, f, arg) -> list:
    """The summands of record `tree` whose fields are replaced by the
    summands f(field, arg) gives them: the product of the fields' distinct
    summands, built at once when each field has one."""
    single, choices = [], []
    for n, v in tree[2]:
        summands = f(v, arg)
        choices.append((n, summands))
        if len(summands) == 1:
            single.append((n, summands[0]))
    if len(single) == len(choices):
        return [("r", tree[1], tuple(single))]
    return [("r", tree[1], product) for product in itertools.product(*[
        [(n, s) for s in dict.fromkeys(summands)] for n, summands in choices])]


class _Ids(dict):
    """Small int ids of the values looked up in it, in order of first
    sight; `values[i]` is the value of id i."""

    def __init__(self, *values):
        super().__init__((value, i) for i, value in enumerate(values))
        self.values = list(values)

    def __missing__(self, value):
        i = self[value] = len(self.values)
        self.values.append(value)
        return i


def _map_middles(tree: tuple, f) -> tuple:
    """`tree` with the middle m of each leaf replaced by f(m)."""
    if tree[0] == "c":
        return tree[:3] + (_map_middles(tree[3], f),)
    if tree[0] == "r":
        return ("r", tree[1],
                tuple((n, _map_middles(v, f)) for n, v in tree[2]))
    return ("x", f(tree[1])) + tree[2:]


# ---------------------------------------------------------------------------
# the item view
#
# A read-only view of a call's items as the nodes of its term.  A node is an
# argument tree, or a word (items, i, end): items[i:] over its end, which is
# the call (callee, args) or a leaf's parameter index (0 for `_`).  `head`
# gives a node's head and its children; the head of a record lists its
# field names, and a word at its end heads ("call", callee, arity),
# ("x", index) or ("_",).

def call_node(call: Call) -> tuple:
    """The node of a call's term."""
    return call.spine, 0, (call.callee, call.args)


def head(node: tuple) -> tuple:
    """The head of `node` and its children."""
    if node[0] == "c":
        return node[:3], node[3:]
    if node[0] == "r":
        return (("r", node[1], tuple(n for n, _ in node[2])),
                tuple(v for _, v in node[2]))
    if node[0] == "x":
        _, middle, word, end = node
        node = ((middle,) + word if middle else word), 0, end
    items, i, end = node
    if i < len(items):
        item, child = items[i], ((items, i + 1, end),)
        return (("r", item[2], (item[1],)) if item[0] == "r" else item), child
    if type(end) is int:
        return ("x", end) if end else ("_",), ()
    return ("call", end[0], len(end[1])), end[1]


def daimon_args(node: tuple) -> list:
    """The arguments of the Daimons that `reference.terms.daimon` makes of
    the term: constructors, records and weights dissolve, a Daimon
    stays."""
    top, children = head(node)
    if top[0] in ("c", "r", "w"):
        return [a for c in children for a in daimon_args(c)]
    return list(children) if top == DAIMON else [node]


def strip(node: tuple):
    """`node` and every node below it through destructors and calls.  A
    word's destructors are walked in a loop, not one level each."""
    while True:
        yield node
        top, children = head(node)
        if top[0] not in ("d", "j", "call"):
            return
        if len(children) != 1:
            for c in children:
                yield from strip(c)
            return
        node = children[0]


def sqcoh(a, b) -> bool:
    """Weak coherence of two calls, or nodes: the rules of the reference
    `reference.terms.sqcoh` on their terms.  Two Daimons cohere when
    stripping destructors and calls off either one makes them cohere; a
    weight or a Daimon on either side turns both into Daimons
    (`daimon_args`), and otherwise the heads must be equal and the children
    cohere.  Two calls' spines are walked item by item, with nodes only from
    where a weight or a Daimon starts, and a chain of single children, such
    as a leaf's word, in a loop."""
    if isinstance(a, Call):
        sa, sb = a.spine, b.spine
        n, i = min(len(sa), len(sb)), 0
        while i < n and sa[i] == sb[i] and sa[i][0] not in _MIDDLES:
            i += 1
        stop = sa[i:i + 1] + sb[i:i + 1]  # the items where the walk stopped
        if any(item[0] in _MIDDLES for item in stop):
            a = sa, i, (a.callee, a.args)
            b = sb, i, (b.callee, b.args)
        elif stop:
            return False  # two items, or an item and the call, differ
        else:
            return (a.callee == b.callee and len(a.args) == len(b.args)
                    and all(map(sqcoh, a.args, b.args)))
    while True:
        ha, ca = head(a)
        hb, cb = head(b)
        if ha[0] in _MIDDLES or hb[0] in _MIDDLES:
            return any(_daimons_cohere(u, v)
                       for u in daimon_args(a) for v in daimon_args(b))
        if ha != hb:
            return False
        if len(ca) != 1:  # equal heads have as many children
            return all(map(sqcoh, ca, cb))
        (a,), (b,) = ca, cb


def _leaf_word(node: tuple):
    """The destructor items and the end of `node`, an argument of a Daimon
    (`daimon_args`), if it is a leaf's word, else None.  Such an argument
    is a word or a leaf without a middle, and a word that ends at a leaf
    holds destructors alone."""
    if node[0] == "x":
        return node[2], node[3]
    return (node[0][node[1]:], node[2]) if type(node[2]) is int else None


def _daimons_cohere(u: tuple, v: tuple) -> bool:
    """Whether Daimons over `u` and `v` cohere: stripping destructors and
    calls off either one makes them cohere.  Two leaf words cohere when
    their ends are equal and one ends the other, which is what walking
    every suffix of each against the other finds."""
    wu, wv = _leaf_word(u), _leaf_word(v)
    if wu is not None and wv is not None:
        (iu, end), (iv, other) = sorted((wu, wv), key=lambda w: len(w[0]))
        return end == other and iv[len(iv) - len(iu):] == iu
    return (any(sqcoh(t, v) for t in strip(u))
            or any(sqcoh(u, t) for t in strip(v)))


# the leading tag of each kind of head in `item_key`, as
# `reference.terms._TAGS` has it for the node of the term
_TAGS = {"x": 0, "_": 1, "c": 2, "r": 3, "d": 4, "j": 5, "call": 6,
         "daimon": 7, "w": 8}


def item_key(node: tuple) -> tuple:
    """A sort key of `node` in the order of `reference.terms.sort_key` on
    its term."""
    top, children = head(node)
    keys = tuple(map(item_key, children))
    tag = _TAGS[top[0]]
    if top[0] == "r":
        return tag, top[1], tuple(zip(top[2], keys))
    if top[0] == "call":
        return tag, top[1], keys
    return (tag,) + top[1:] + keys


_ZERO_WEIGHT = ("w", ZEROW)


class CallTables:
    """Tables for composing calls piecewise, as a spine and its arguments.

    Spines (`Call.spine`) and argument trees (`Call.args`) get small int
    ids, spine id 0 standing for the zero composite, and only a new edge is
    built, as a `Call` (`call`).

    Composing piecewise is exact.  A spine holds no parameter, so
    substituting the caller's arguments only reaches the callee's arguments.
    The smart constructors above the occurrence only test whether it is a
    function application, never what it applies.  Depth collapse keeps the
    spine's budget apart and collapses every argument at full depth D, and
    weight clamping acts on each node alone.  Collapsing a whole composite
    therefore equals plugging the collapsed spine composite with the
    collapsed arguments, and the product of the arguments' sorted summands
    comes out in the sorted order of the whole composite's summands.

    Everything is memoised by ids, so a composite met for the first time
    costs lookups.  Here a middle is None, the Daimon or the id of a weight
    item, 0 for the zero weight: `trees` holds the argument trees with such
    middles, `args` the trees themselves.  Weight arithmetic is on ids too:
    `folds` holds the weight of an item word absorbed with a spine's or an
    argument's signs, `sums` the sum of two weights and `clamps` a weight
    clamped into [-B, B) (`_weigh` chains them), so a weight is built only
    when one of them meets a key for the first time.  A spine is the ids of
    its `spine_parts`; `composed[ia][ib]` is the id of the composite of
    spines ia and ib, through the steps of `_compose`, whose word work
    (`cancels`, `cuts`) is keyed by word ids alone.  A substitution is
    keyed by the argument id and the ids bound to the parameters it
    mentions.  `after` and `before` compose one call with a row of
    partners, looking up what the row shares once, and hand out flat
    candidates (partner, tag, spine id, argument ids).  A composite whose
    second call has no arguments has the one candidate (), so it costs the
    `composed` lookup alone.

    Substituting on trees is exact too.  Above the leaves the smart
    constructors only rebuild nodes, distributing over sums, so a record
    takes the product of its fields' summands; they rewrite only where a
    leaf meets the tree bound to its parameter, applying the leaf's
    destructors, innermost first, and then its middle.  `_subst` applies
    their head reductions with an argument's signs (it holds no call), and
    `_collapse` does to a tree what `reference.terms.collapse_call_term`
    does to its term; `reference.items.substitute_tree` is the plain walk
    on weight items.

    The tables have two lifetimes.  The word ids, the weight ids and the
    memos keyed by those ids alone (`folds`, `sums`, `clamps`, `cancels`,
    `merges` and `cuts`) hold pure functions of their keys, so one check
    shares them across its groups with the same bounds: they come from
    `shared`, a dict by (B, D) that the check keeps, or are fresh without
    it.  Everything else (the spine and argument ids, `composed`,
    `collapses`, `bound`, `subst` and `collapsed`) belongs to one instance,
    which serves one group's initial collapse and closure and is dropped
    with them; shared, the dense `composed` rows grow with every group."""

    def __init__(self, bound_b: int, bound_d: int, shared: dict | None = None):
        self.bound_b, self.bound_d = bound_b, bound_d
        if shared is None:
            shared = {}
        if (bound_b, bound_d) not in shared:
            # None and the Daimon stand for themselves as weight ids
            weights = _Ids(_ZERO_WEIGHT)
            weights.update({None: None, DAIMON: DAIMON})
            shared[bound_b, bound_d] = (_Ids(()), weights,
                                        *[{} for _ in range(6)])
        # folds[(word, sign)], sums[(a, b)], clamps[a]: weight ids; the steps
        # of `_compose`: cancels[(da, cb)]: `_cancel`; merges[(ma, da, cb,
        # mb)]: `_merge`; cuts[(ca, xc, xd, db)]: `_cut`
        (self.words, self.weights, self.folds, self.sums, self.clamps,
         self.cancels, self.merges, self.cuts) = shared[bound_b, bound_d]
        self.spine_ids = _Ids(None)
        self.parts: list = self.spine_ids.values
        self.spines: list = [None]
        # composed[ia][ib]: the spine id of the composite, None until met
        self.composed: list[list] = [[None]]
        # collapses[(ca, merged, db)]: the spine id of the composite
        self.collapses: dict = {}
        self.arg_ids = _Ids()
        self.trees: list = self.arg_ids.values
        self.args: list = []
        # bound[a](ids): the ids bound to the parameters argument a mentions;
        # subst[(b, bound[b](ids))]: _substitute(b, ids); collapsed[tree]:
        # the summand ids of a substituted tree collapsed
        self.bound: list = []
        self.subst: dict = {}
        self.collapsed: dict = {}

    def _middle_item(self, middle):
        return self.weights.values[middle] if type(middle) is int else middle

    def _spine_id(self, cw: int, middle, dw: int) -> int:
        """The id of the spine of constructor word id `cw`, `middle` and
        destructor word id `dw`."""
        sid = self.spine_ids[cw, middle, dw]
        if sid == len(self.spines):
            words = self.words.values
            self.spines.append(words[cw] + (self._middle_item(middle),)
                               * (middle is not None) + words[dw])
            for row in self.composed:
                row.append(None)
            self.composed.append([None] * len(self.spines))
        return sid

    def _arg_id(self, tree: tuple) -> int:
        aid = self.arg_ids[tree]
        if aid == len(self.args):
            self.args.append(_map_middles(tree, self._middle_item))
            params = sorted({path[-1][3] - 1 for path in leaf_paths(tree)
                             if path[-1][3]})
            self.bound.append(itemgetter(*params) if params else lambda _: ())
        return aid

    def split(self, call: Call) -> tuple:
        """Spine id and argument ids of a call."""
        ctors, middle, dtors = spine_parts(call.spine)
        return (self._spine_id(self.words[ctors], self.weights[middle],
                               self.words[dtors]),
                tuple(self._arg_id(_map_middles(a, self.weights.__getitem__))
                      for a in call.args))

    def after(self, first: tuple, partners) -> list:
        """The candidates of the collapsed composites of the split call
        `first` with each (second, tag) of `partners`, as (second, tag,
        spine id, argument ids), in order: one row of composites, with its
        row of `composed` looked up once.  A nonzero composite's candidates
        are the product of the summand ids of each of its arguments, in the
        order `reference.terms.compose_calls` gives them; a second call
        without arguments has the one candidate (), found by the `composed`
        lookup alone."""
        ia, ids_a = first
        row, bound, subst = self.composed[ia], self.bound, self.subst
        found = []
        append = found.append
        for second, tag in partners:
            ib, ids_b = second
            sid = row[ib]
            if sid is None:
                sid = row[ib] = self._compose(ia, ib)
            if not sid:
                continue
            if not ids_b:
                append((second, tag, sid, ()))
                continue
            choices = []
            for b in ids_b:
                key = (b, bound[b](ids_a))
                ids = subst.get(key)
                if ids is None:
                    ids = subst[key] = self._substitute(b, ids_a)
                choices.append(ids)
            for ids in itertools.product(*choices):
                append((second, tag, sid, ids))
        return found

    def before(self, partners, second: tuple) -> list:
        """`after(first, ((second, tag),))` for each (first, tag) of
        `partners`, as (first, tag, spine id, argument ids), in order: one
        column of composites.  Without arguments to `second`, the column is
        `composed` lookups alone; with them, the binding getters of its
        arguments are looked up once."""
        ib, ids_b = second
        composed = self.composed
        found = []
        append = found.append
        if not ids_b:
            for first, tag in partners:
                row = composed[first[0]]
                sid = row[ib]
                if sid is None:
                    sid = row[ib] = self._compose(first[0], ib)
                if sid:
                    append((first, tag, sid, ()))
            return found
        getters = list(zip(ids_b, map(self.bound.__getitem__, ids_b)))
        subst = self.subst
        for first, tag in partners:
            ia, ids_a = first
            row = composed[ia]
            sid = row[ib]
            if sid is None:
                sid = row[ib] = self._compose(ia, ib)
            if sid:
                choices = []
                for b, get in getters:
                    key = (b, get(ids_a))
                    ids = subst.get(key)
                    if ids is None:
                        ids = subst[key] = self._substitute(b, ids_a)
                    choices.append(ids)
                for ids in itertools.product(*choices):
                    append((first, tag, sid, ids))
        return found

    def call(self, caller: str, sid: int, callee: str, ids: tuple) -> Call:
        """The edge of a candidate."""
        # built in C, past the named tuple's `__new__`, a Python function
        return tuple.__new__(Call, (caller, callee, self.spines[sid], tuple(
            map(self.args.__getitem__, ids))))

    def _compose(self, ia: int, ib: int) -> int:
        """The spine id of Ca Ma Da over Cb Mb Db collapsed, 0 if zero: Ca,
        Ma Da Cb Mb reduced (`_merge` adds weights unclamped) and Db; the D
        outer constructors and D inner destructors stay, the rest fold into
        the middle, whose weight is clamped once
        (`reference.items.compose_spines`).
        Which items stay and what the rest weigh depends on the words alone
        (`_cut`)."""
        ca, ma, da = self.parts[ia]
        cb, mb, db = self.parts[ib]
        key = (ma, da, cb, mb)
        merged = self.merges.get(key)
        if merged is None:
            merged = self.merges[key] = self._merge(*key)
        if not merged:
            return 0
        key = (ca, merged, db)
        sid = self.collapses.get(key)
        if sid is None:
            xc, xm, xd = merged
            ends = (ca, xc, xd, db)
            cut = self.cuts.get(ends)
            if cut is None:
                cut = self.cuts[ends] = self._cut(*ends)
            cw, folded, dw = cut
            if xm != DAIMON and (folded is not None or xm is not None):
                w = 0 if folded is None else folded
                if xm is not None:
                    w = self._plus(w, xm)
                xm = self._clamp(w)
            sid = self.collapses[key] = self._spine_id(cw, xm, dw)
        return sid

    def _cut(self, ca: int, xc: int, xd: int, db: int) -> tuple:
        """The kept constructor word id of Ca Xc, the weight id of the items
        folded from Ca Xc and Xd Db (None when none are) and the kept
        destructor word id of Xd Db."""
        words, d = self.words.values, self.bound_d
        ctors, dtors = words[ca] + words[xc], words[xd] + words[db]
        cut = max(0, len(dtors) - d)
        folded = ctors[d:] + dtors[:cut]
        return (self.words[ctors[:d]],
                self._fold(folded, 1) if folded else None,
                self.words[dtors[cut:]])

    def _merge(self, ma, da: int, cb: int, mb):
        """The parts of Ma Da Cb Mb reduced, 0 if zero (`_cancel`).
        Leftover destructors stay below Ma when there is no Mb, leftover
        constructors above Mb when there is no Ma; else all join,
        unclamped: the Daimon absorbs, and of nothing there is none."""
        key = (da, cb)
        cancel = self.cancels.get(key)
        if cancel is None:
            cancel = self.cancels[key] = self._cancel(*key)
        if not cancel:
            return 0
        dw, cw, folded = cancel
        if dw and mb is None:
            return 0, ma, dw
        if cw and ma is None:
            return cw, mb, 0
        if ma == DAIMON or mb == DAIMON:
            return 0, DAIMON, 0
        if folded is None and ma is None and mb is None:
            return 0, None, 0
        w = 0 if folded is None else folded
        if ma is not None:
            w = self._plus(w, ma)
        if mb is not None:
            w = self._plus(w, mb)
        return 0, w, 0

    def _cancel(self, da: int, cb: int):
        """Da against Cb, 0 if zero, else the word ids of the destructors
        and of the constructors left, one of them empty, and the weight id
        of what is left (None when nothing is).  Da cancels against Cb,
        inner end against outer end: "d" cancels "c" and "j" cancels "r" of
        the same name (`constr_dual` and `project` match on the name only),
        any other pair is zero."""
        d, c = self.words.values[da], self.words.values[cb]
        i, j = len(d), 0
        while i and j < len(c):
            if _CANCELS[d[i - 1][0]] != c[j][0] or d[i - 1][1] != c[j][1]:
                return 0
            i, j = i - 1, j + 1
        left = d[:i] + c[j:]
        return (self.words[d[:i]], self.words[c[j:]],
                self._fold(left, 1) if left else None)

    def _weigh(self, middles: tuple, folded: tuple, sign: int,
               clamped: bool = False) -> int:
        """The id of `weigh(middles, folded, sign)`, with weight ids for
        middles (None adds nothing), clamped into [-B, B) if `clamped`."""
        w = self._fold(folded, sign) if folded else 0
        for m in middles:
            if m is not None:
                w = self._plus(w, m)
        return self._clamp(w) if clamped else w

    def _weight(self, acc: dict) -> int:
        """The id of the weight with the values `acc` by priority."""
        return self.weights["w", Weight(tuple(sorted(
            filter(itemgetter(1), acc.items()))))]

    def _fold(self, word: tuple, sign: int) -> int:
        """The id of the weight of the items `word`, absorbed with the signs
        of a spine (`sign` 1) or of an argument (-1)."""
        key = (word, sign)
        w = self.folds.get(key)
        if w is None:
            acc: dict = {}
            for item in word:
                acc[item[2]] = acc.get(item[2], 0) + sign * _ABSORBED[item[0]]
            w = self.folds[key] = self._weight(acc)
        return w

    def _plus(self, a: int, b: int) -> int:
        """The id of the sum of weights a and b, unclamped."""
        if not a or not b:
            return a or b
        key = (a, b)
        w = self.sums.get(key)
        if w is None:
            weights = self.weights.values
            acc = dict(weights[a][1].items)
            for p, v in weights[b][1].items:
                acc[p] = acc.get(p, 0) + v
            w = self.sums[key] = self._weight(acc)
        return w

    def _clamp(self, a: int) -> int:
        """The id of weight a clamped into [-B, B)."""
        w = self.clamps.get(a)
        if w is None:
            w = self.clamps[a] = self._weight({
                p: clamp(self.bound_b, v)
                for p, v in self.weights.values[a][1].items})
        return w

    def _substitute(self, b: int, ids: tuple) -> tuple:
        """The summand ids, in the order of their terms, of argument b
        collapsed with each parameter j bound to argument ids[j - 1];
        `reference.items.substitute_tree` gives the same summands."""
        trees, collapsed = self.trees, self.collapsed
        bound = (None, *map(trees.__getitem__, ids))
        found = ()
        for s in self._subst(trees[b], bound):
            got = collapsed.get(s)
            if got is None:
                got = collapsed[s] = tuple([
                    self._arg_id(c) for c in self._collapse(s, self.bound_d)])
            found += got
        if len(found) > 1:
            return tuple(sorted(dict.fromkeys(found),
                                key=lambda a: item_key(self.args[a])))
        return found

    def _subst(self, tree: tuple, bound: tuple) -> list:
        """The summands of `tree` with each parameter j replaced by the
        tree bound[j], unless that is None, uncollapsed."""
        kind = tree[0]
        if kind == "c":
            found = self._subst(tree[3], bound)
            if len(found) == 1:
                return [("c", tree[1], tree[2], found[0])]
            return [("c", tree[1], tree[2], s) for s in found]
        if kind == "r":
            return _record(tree, self._subst, bound)
        _, middle, word, end = tree
        t = bound[end]
        if t is None:
            return [tree]
        i = len(word)
        while i and t[0] != "x":
            item = word[i - 1]
            if t[0] == "c":
                if item[0] != "d" or item[1] != t[1]:
                    return []
                t = t[3]
            else:
                if item[0] != "j":
                    return []
                name = item[1]
                for n, v in t[2]:
                    if n == name:
                        t = v
                        break
                else:
                    return []
            i -= 1
        if i:
            if t[1] is None:
                t = ("x", None, word[:i] + t[2], t[3])
            elif t[1] != DAIMON:
                t = ("x", self._plus(self._fold(word[:i], -1), t[1]), t[2],
                     t[3])
        return [t] if middle is None else self._approx(middle, t)

    def _approx(self, middle, tree: tuple) -> list:
        """The middle `middle` over `tree`, None for a zero weight.  The
        Daimon gives a Daimon leaf for each leaf of the tree.  A weight
        absorbs the constructors above a leaf and the leaf's weight,
        vanishes under the leaf's Daimon, and over a record gives the
        Daimons of its leaves."""
        ctors = ()  # their items only: a weight key holds no subtree
        while tree[0] == "c":
            ctors += (tree[:3],)
            tree = tree[3]
        if middle == DAIMON or tree[0] == "r":
            return daimon_leaves(tree)
        if tree[1] == DAIMON:
            return [tree]
        w = 0 if tree[1] is None else tree[1]
        if middle is not None:
            w = self._plus(middle, w)
        if ctors:
            w = self._plus(self._fold(ctors, -1), w)
        return [("x", w, tree[2], tree[3])]

    def _collapse(self, tree: tuple, budget: int) -> list:
        """The summands of `tree` collapsed as
        `reference.terms.collapse_call_term` collapses its term, with
        `budget` constructor layers left: past them a zero weight, then each
        leaf keeps its D innermost destructors, folds the others into its
        weight and clamps the weight."""
        kind = tree[0]
        if kind == "x":
            _, middle, word, end = tree
            cut = max(0, len(word) - self.bound_d)
            if middle != DAIMON and (cut or middle is not None):
                middle = self._weigh((middle,), word[:cut], -1, True)
            return [("x", middle, word[cut:], end)]
        if not budget:
            return [c for s in self._approx(None, tree)
                    for c in self._collapse(s, 0)]
        if kind == "c":
            return [("c", tree[1], tree[2], s)
                    for s in self._collapse(tree[3], budget - 1)]
        return _record(tree, self._collapse, budget - 1)


def transitive_closure(graph: CallGraph,
                       tables: CallTables | None = None) -> CallGraph:
    """Saturate the graph under collapsed composition.

    The initial edges are composed pairwise, in order.  Then each edge k,
    in the order the edges were found, takes a step with its partners: the
    edges i <= k into its caller and i < k out of its callee.  A vertex
    groups its partners by shape, spine id and argument ids, as a bitset of
    their other endpoints, and a candidate's new edges are the endpoints in
    the group that lack it.  Edge k meets its groups in one row loop per
    side, `CallTables.before` for the edges into its caller and
    `CallTables.after` for those out of its callee, which compose it with
    each group once, look up what the side shares once and hand out the
    candidates flat; where the second call has no arguments, a composite
    is one lookup.  The new edges are added in the order of composing the
    partners one by one: by increasing i, (i, k) before (k, i), each
    composite's candidates in the order `reference.terms.compose_calls`
    gives them.  `compositions` counts the ordered pairs of edges that meet.
    Each loop's composites with itself are kept for the loop check.  The
    caps only guard against bugs.  `tables` are the group's, with its
    bounds, or fresh ones.
    """
    if tables is None:
        tables = CallTables(graph.bound_b, graph.bound_d)
    edges: list[Call] = list(graph.edges)
    vertex = {name: n for n, name in enumerate(graph.vertices)}
    ends = [(vertex[e.caller], vertex[e.callee]) for e in edges]
    parts = [tables.split(e) for e in edges]
    # (caller, callee, spine id, argument ids) -> index of its edge
    seen = {ab + part: k for k, (ab, part) in enumerate(zip(ends, parts))}
    # callers[(callee, sid, ids)], callees[(caller, sid, ids)]: bitsets of
    # the other endpoints of the edges of that shape there
    callers, callees = defaultdict(int), defaultdict(int)
    starts = defaultdict(list)  # the initial edges out of each vertex
    for j, ((a, b), (sid, ids)) in enumerate(zip(ends, parts)):
        callers[b, sid, ids] |= 1 << a
        callees[a, sid, ids] |= 1 << b
        starts[a].append((parts[j], j))

    def edge(a: int, b: int, sid: int, ids: tuple) -> int:
        """The index of a candidate's edge, added if it is new."""
        n = seen.get((a, b, sid, ids))
        if n is None:
            n = seen[a, b, sid, ids] = len(edges)
            edges.append(tables.call(graph.vertices[a], sid,
                                     graph.vertices[b], ids))
            ends.append((a, b))
            parts.append((sid, ids))
            callers[b, sid, ids] |= 1 << a
            callees[a, sid, ids] |= 1 << b
            if len(edges) > MAX_EDGES:
                raise ClosureCapError("call graph closure exceeded its edge "
                                      "cap (%d)" % MAX_EDGES)
        return n

    first = len(edges)
    compositions = sum(len(starts[b]) for _, b in ends)
    if compositions > MAX_COMPOSITIONS:
        raise _composition_cap()
    for i in range(first):
        a = ends[i][0]
        for _, j, sid, ids in tables.after(parts[i], starts[ends[i][1]]):
            edge(a, ends[j][1], sid, ids)
    # into[v][shape], out[u][shape]: bitsets of the callers of the edges
    # into v and of the callees of the edges out of u, each edge entered
    # just before and just after its step, and the numbers of those edges
    into = [{} for _ in graph.vertices]
    out = [{} for _ in graph.vertices]
    degree_in, degree_out = [0] * len(into), [0] * len(into)
    self_composites: dict = {}
    k = 0
    while k < len(edges):
        (u, v), s = ends[k], parts[k]
        into[v][s] = into[v].get(s, 0) | 1 << u
        degree_in[v] += 1
        if k >= first:
            compositions += degree_in[u] + degree_out[v]
            if compositions > MAX_COMPOSITIONS:
                raise _composition_cap()
            # new candidates, led by their partner's index and 0 for (i, k)
            # or 1 for (k, i); a stable sort keeps the product's order
            new = []
            for t, mask, sid, ids in tables.before(into[u].items(), s):
                fresh = mask & ~callers.get((v, sid, ids), 0)
                while fresh:
                    w = fresh.bit_length() - 1
                    fresh ^= 1 << w
                    new.append(((seen[(w, u) + t], 0), w, v, sid, ids))
            for t, mask, sid, ids in tables.after(s, out[v].items()):
                fresh = mask & ~callees.get((u, sid, ids), 0)
                while fresh:
                    w = fresh.bit_length() - 1
                    fresh ^= 1 << w
                    new.append(((seen[(v, w) + t], 1), u, w, sid, ids))
            new.sort(key=itemgetter(0))
            for _, a, b, sid, ids in new:
                edge(a, b, sid, ids)
        if u == v:
            self_composites[k] = tuple([
                edge(u, u, sid, ids)
                for _, _, sid, ids in tables.after(s, ((s, 0),))])
        out[u][s] = out[u].get(s, 0) | 1 << v
        degree_out[u] += 1
        k += 1
    stats = {"edges": len(edges), "compositions": compositions}
    return CallGraph(graph.vertices, tuple(edges), graph.bound_b,
                     graph.bound_d, stats, self_composites)
