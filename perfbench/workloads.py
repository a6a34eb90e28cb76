"""Seeded inputs for the benchmark, each with its expected verdicts.

Every workload is a list of `Input`s.  The checker sees only the source
text and the bounds; `expected` maps each definition name to the verdict
the program deserves and the names of the `UNKNOWN` definitions it is
expected to be flagged as depending on.  The same seed always gives
byte-identical text.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass

TOTAL = "total"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Input:
    name: str
    source: str
    bounds: tuple
    expected: dict


# ---------------------------------------------------------------------------
# corpus: the ten programs shipped with the checker

CORPUS_BOUNDS = (1, 2, 3, 4)

# What each program is, from the README's description of the corpus and the
# acceptance criteria: guarded, structural, unguarded-but-productive and
# mutually recursive definitions are total; bad_s builds an infinitely deep
# tree and nats_list an infinite list, so neither is.  magic is not
# recursive, so it is certified on its own and flagged for calling bad_s.
# The table holds the true answer at every bound the workload uses; a total
# program left UNKNOWN there counts as a failed check.
CORPUS_EXPECTED = {
    "bad_s.ch": {"bad_s": (UNKNOWN, ())},
    "c1c2.ch": {"f": (TOTAL, ())},
    "half.ch": {"half1": (TOTAL, ()), "half2": (TOTAL, ())},
    "length.ch": {"length": (TOTAL, ())},
    "magic.ch": {"bad_s": (UNKNOWN, ()), "lower_left": (TOTAL, ()),
                 "magic": (TOTAL, ("bad_s",))},
    "nats.ch": {"nats": (TOTAL, ())},
    "nats_list.ch": {"nats_list": (UNKNOWN, ())},
    "s1s2.ch": {"s1": (TOTAL, ()), "s2": (TOTAL, ())},
    "sums.ch": {"add": (TOTAL, ()), "sums": (TOTAL, ())},
    "swap.ch": {"f": (TOTAL, ())},
}


def corpus_inputs(corpus_dir: pathlib.Path, seed: int) -> list:
    """Every corpus file at B=D in CORPUS_BOUNDS, in a seeded order."""
    found = sorted(p.name for p in corpus_dir.glob("*.ch"))
    if found != sorted(CORPUS_EXPECTED):
        raise ValueError("corpus files %s do not match the verdict table"
                         % found)
    inputs = [
        Input("%s@%d" % (name, b), (corpus_dir / name).read_text(), (b, b),
              CORPUS_EXPECTED[name])
        for name in found for b in CORPUS_BOUNDS
    ]
    random.Random(seed).shuffle(inputs)
    return inputs


# ---------------------------------------------------------------------------
# ring: n-way mutually recursive streams, generalising s1s2.ch

RING_BOUNDS = (2, 2)

# (members, consumers).  The shapes are fixed so that the seed changes the
# arrangement and not the amount of work; a ring with as many consumers as
# producers is balanced and can only alternate.
RING_SHAPES = (
    (8, 1), (10, 2), (12, 1), (14, 3), (16, 2), (18, 1), (20, 2), (24, 1),
    (12, 6), (16, 8), (20, 10), (24, 12),
)

_STREAM_DECLS = """data nat where
    Zero : nat
  | Succ : nat -> nat

codata st where
    hd   : st -> nat
  | Tail : st -> st
"""


def ring_pattern(members: int, consumers: int, rng: random.Random) -> str:
    """A cyclic word over P (produce) and C (consume) with no two C
    adjacent, rotated at random.

    No consumer follows another, so no stretch of the ring consumes two
    elements more than it produces; that keeps every total ring within
    reach of B=2.
    """
    producers = members - consumers
    if not 1 <= consumers <= producers:
        raise ValueError("need 1 <= consumers <= producers")
    cuts = sorted(rng.sample(range(1, producers), consumers - 1))
    gaps = [b - a for a, b in zip([0] + cuts, cuts + [producers])]
    word = "".join("C" + "P" * g for g in gaps)
    turn = rng.randrange(members)
    return word[turn:] + word[:turn]


def ring_program(pattern: str, names: list) -> str:
    """Member i is a producer `{ hd = Zero ; Tail = next }` or a consumer
    `next.Tail`, where next is member i+1 around the ring.  Definitions
    are emitted in name order, not ring order."""
    n = len(pattern)
    bodies = {}
    for i, kind in enumerate(pattern):
        succ = names[(i + 1) % n]
        bodies[names[i]] = ("{ hd = Zero ; Tail = %s }" % succ
                            if kind == "P" else "%s.Tail" % succ)
    order = sorted(bodies, key=lambda name: int(name[1:]))
    lines = ["%s %s = %s" % ("val" if k == 0 else "and", name, bodies[name])
             for k, name in enumerate(order)]
    return _STREAM_DECLS + "\n" + "\n".join(lines) + "\n"


def ring_expected(pattern: str) -> str:
    """A ring is productive exactly when producers outnumber consumers."""
    return TOTAL if pattern.count("P") > pattern.count("C") else UNKNOWN


def ring_inputs(seed: int) -> list:
    rng = random.Random(seed)
    inputs = []
    for members, consumers in RING_SHAPES:
        pattern = ring_pattern(members, consumers, rng)
        names = ["s%d" % k for k in rng.sample(range(1, members + 1), members)]
        verdict = ring_expected(pattern)
        inputs.append(Input(
            "ring%d_%s" % (members, pattern), ring_program(pattern, names),
            RING_BOUNDS, {name: (verdict, ()) for name in names}))
    rng.shuffle(inputs)
    return inputs


# ---------------------------------------------------------------------------
# wide: one large program of independent blocks

WIDE_BLOCKS = 400
WIDE_ITEMS = range(4, 11)


def wide_block(i: int, ctors: int, dtors: int, rng: random.Random) -> str:
    """A data type, a codata type, a structural recursion over the data
    type with one recursive clause, and a non-recursive matcher over the
    codata type's projections.  Both definitions are total."""
    cnames = ["K%d_%d" % (i, j) for j in range(ctors)]
    dnames = ["P%d_%d" % (i, j) for j in range(dtors)]
    rec = rng.randrange(ctors)
    key, kept = rng.sample(range(dtors), 2)
    out = ["data d%d where" % i]
    for j, c in enumerate(cnames):
        arg = "d%d -> " % i if j == rec else ""
        out.append("%s%s : %sd%d" % ("    " if j == 0 else "  | ", c, arg, i))
    out.append("codata r%d where" % i)
    for j, d in enumerate(dnames):
        out.append("%s%s : r%d -> nat" % ("    " if j == 0 else "  | ", d, i))
    out.append("val f%d : d%d -> nat" % (i, i))
    for j, c in enumerate(cnames):
        if j == rec:
            out.append("  | f%d (%s x) = f%d x" % (i, c, i))
        else:
            out.append("  | f%d %s = %d" % (i, c, rng.randrange(10)))

    def record(head: str) -> str:
        fields = ("%s = %s" % (d, head if j == key else
                               "x" if j == kept else "_")
                  for j, d in enumerate(dnames))
        return "{ " + " ; ".join(fields) + " }"

    out.append("val g%d : r%d -> nat" % (i, i))
    out.append("  | g%d %s = x" % (i, record("0")))
    out.append("  | g%d %s = y" % (i, record("Succ y")))
    return "\n".join(out)


def wide_program(seed: int, blocks: int = WIDE_BLOCKS) -> str:
    """Constructor and destructor counts run evenly over WIDE_ITEMS and are
    shuffled, so every seed gives a program of the same size."""
    rng = random.Random(seed)
    counts = [WIDE_ITEMS[k % len(WIDE_ITEMS)] for k in range(blocks)]
    ctors = rng.sample(counts, blocks)
    dtors = rng.sample(counts, blocks)
    parts = ["data nat where\n    Zero : nat\n  | Succ : nat -> nat"]
    parts += [wide_block(i, ctors[i], dtors[i], rng) for i in range(blocks)]
    return "\n\n".join(parts) + "\n"


def wide_inputs(seed: int) -> list:
    expected = {}
    for i in range(WIDE_BLOCKS):
        expected["f%d" % i] = (TOTAL, ())
        expected["g%d" % i] = (TOTAL, ())
    return [Input("wide%d" % WIDE_BLOCKS, wide_program(seed), (2, 2),
                  expected)]


def make_inputs(workload: str, seed: int, root: pathlib.Path) -> list:
    if workload == "corpus":
        return corpus_inputs(root / "corpus", seed)
    if workload == "ring":
        return ring_inputs(seed)
    if workload == "wide":
        return wide_inputs(seed)
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("corpus", "ring", "wide")
