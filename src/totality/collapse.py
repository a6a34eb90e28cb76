"""Bounding operators: weight clamping and depth truncation.

Collapsed composition keeps the set of reachable calls finite.  Weights are
clamped into [-B, B) with everything at or above B replaced by infinity;
depth collapsing keeps the D outermost constructor layers and, on every
destructor spine, the D destructors closest to the spine's end, absorbing
the rest into inserted zero weights.

This is the paper's term collapse, kept as the reference: the checker
collapses calls on their spine words and argument trees instead
(`callgraph.collapsed_calls`), and the tests compare that with
`testkit.collapse_call_term`, which applies these functions to a term.
"""

from __future__ import annotations

from .terms import (
    INF,
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
    Weight,
    ZEROW,
    approx,
    constr,
    daimon,
    funapp,
    map_children,
    record,
    rewrap,
    sum_of,
    weight,
)


def clamp(bound_b: int, value):
    if value < -bound_b:
        return -bound_b
    if value >= bound_b:
        return INF
    return value


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

