"""The syntax-directed order on normal forms, and the weak-coherence check
used to select which loops must be analysed.  Both work on terms; the loop
conditions read their weights off a call's items (`scp`)."""

from __future__ import annotations

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
    coef_leq,
    daimon,
    rewrap,
    summands,
)


# ---------------------------------------------------------------------------
# syntax-directed order on normal forms

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


# ---------------------------------------------------------------------------
# weak coherence

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
