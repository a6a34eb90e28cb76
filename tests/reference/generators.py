"""Random terms and calls, and the property suite that checks the laws of
the term algebra (`terms`) on them."""

from __future__ import annotations

import random
from dataclasses import dataclass

from totality.callgraph import INF, Call, Weight

from .terms import (
    Param,
    Sum,
    Term,
    ZERO,
    approx,
    call_of_term,
    call_term,
    collapse_depth,
    collapse_weights,
    compose,
    constr,
    constr_dual,
    daimon,
    funapp,
    is_normal,
    project,
    record,
    sleq,
    sqcoh,
    sum_of,
    weight,
)

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
