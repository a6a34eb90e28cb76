"""Size-change verdicts for the loops of a closed call graph.

A self-loop only needs checking when its self-composition, which the
closure records, is weakly coherent with it (otherwise the loop cannot
repeat forever); `sqcoh` decides that on the calls' items.  A checked
loop must either produce output at some even priority that dominates
everything the loop does above it, or consume one of its own arguments at
a dominating odd priority.
"""

from __future__ import annotations

from .callgraph import (
    DAIMON,
    Call,
    CallGraph,
    call_str,
    leaf_paths,
    spine_parts,
    sqcoh,
    weigh,
)
from .records import Struct


class LoopFailure(Struct):
    __slots__ = ("loop", "explanation")

    def __init__(self, loop: Call, explanation: str):
        self.loop = loop
        self.explanation = explanation

    def __str__(self) -> str:
        return "loop %s %s" % (call_str(self.loop), self.explanation)


class GroupOutcome(Struct):
    __slots__ = ("total", "failures", "checked_loops")

    def __init__(self, total: bool, failures: list | None = None,
                 checked_loops: int = 0):
        self.total = total
        self.failures = [] if failures is None else failures
        self.checked_loops = checked_loops


def _dominant(weight, parity: int):
    """Least priority of the given parity that is strictly negative while
    nothing above it is; None when there is none.  Only the highest
    negative priority can be one, so it is read off the sorted `items`.
    An infinite component is never negative."""
    for p, v in reversed(weight.items):
        if v < 0:
            return p if p % 2 == parity else None
    return None


def check_condition1(call: Call):
    """Even priority at which the loop spine guarantees output, or None.

    The spine word is weighed with a spine's signs (`weigh`).  A Daimon on
    the spine destroys any output guarantee.
    """
    ctors, middle, dtors = spine_parts(call.spine)
    if middle == DAIMON:
        return None
    return _dominant(weigh((middle,), ctors + dtors, 1)[1], 0)


def check_condition2(call: Call):
    """(argument index, leaf path, odd priority) for a self-decreasing
    argument, or None.

    Only the leaf paths (`leaf_paths`) feeding an argument from the same
    parameter index count: those are the ones that stack up when the loop
    repeats.  A path is weighed with an argument's signs (`weigh`); a path
    into a Daimon carries no usable size information.
    """
    for index, arg in enumerate(call.args, start=1):
        for path in leaf_paths(arg):
            *above, (_, middle, word, end) = path
            if end == index and middle != DAIMON:
                p = _dominant(weigh((middle,), (*above, *word), -1)[1], 1)
                if p is not None:
                    return index, path, p
    return None


def check_loops(closure: CallGraph) -> GroupOutcome:
    """Check every loop of a closure whose self-composition is weakly
    coherent with it; a loop whose self-composition errors out cannot
    repeat.  Every call coheres with itself, so a loop that is among its
    own self-composites is checked without `sqcoh`."""
    outcome = GroupOutcome(total=True)
    edges = closure.edges
    for k, loop in enumerate(edges):
        if loop.caller != loop.callee:
            continue
        composites = closure.self_composites[k]
        if k not in composites and not any(sqcoh(loop, edges[c])
                                           for c in composites):
            continue
        outcome.checked_loops += 1
        if check_condition1(loop) is not None:
            continue
        if check_condition2(loop) is not None:
            continue
        outcome.total = False
        outcome.failures.append(LoopFailure(
            loop, "fails both size-change conditions"))
    return outcome
