"""The order oracle: a brute-force decision of the term order.

The oracle enumerates a tiny universe of raw terms (including reducible
ones), seeds it with the generating inequalities of the term order, closes
under single-step rewriting, contextuality and transitivity, and answers
comparisons by graph reachability.  It is used only to cross-check the
syntax-directed `terms.sleq` on normal-form pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from totality.callgraph import Weight, ZEROW

from .terms import (
    Approx,
    Constr,
    ConstrDual,
    Daimon,
    FunApp,
    Param,
    Project,
    Record,
    Term,
    ZERO,
    coef_leq,
    contains_funapp,
    is_normal,
    nf,
    sort_key,
    weight,
    weight_add,
)

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
