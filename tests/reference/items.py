"""References for the checker's walks on items and tokens, without terms.

`reference_lex` is the character-at-a-time lexer that the one-pattern
`surface._lex` replaced; the tests compare their tokens, positions and
errors.

`index_clauses` walks the annotated clauses for their instance nodes and
called names, and the tests compare what the type checker records as it
builds them with it.

`compose_spines` and `substitute_tree` are the item path: they compose
spines and substitute argument trees on items, adding weights with
`weigh`, and the tests compare `CallTables`, which does both on interned
ids, with them.
"""

from __future__ import annotations

import itertools

from totality.callgraph import (
    DAIMON,
    Weight,
    ZEROW,
    clamp,
    leaf_paths,
)
from totality.surface import _KEYWORDS, SourceError
from totality.typecheck import (
    ACall,
    AConstr,
    ANum,
    AProj,
    ARecord,
    clause_nodes,
)

from .terms import sort_key, tree_term

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
# the reference walk of the annotated clauses

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
