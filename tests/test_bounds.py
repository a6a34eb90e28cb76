"""How verdicts move with the bounds, on the corpus."""

import pytest

from conftest import CORPUS, analyze_corpus
from totality.checker import TOTAL


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.ch")))
def test_raising_b_keeps_total(name):
    """Raising B never turns a TOTAL into anything else (B 1-5, D 0-3)."""
    for bound_d in range(4):
        before: dict = {}
        for bound_b in range(1, 6):
            report = analyze_corpus(name, bound_b, bound_d)
            assert not report.errors, report.errors
            now = {v.fname: v.result for v in report.verdicts}
            for fname, result in before.items():
                if result == TOTAL:
                    assert now[fname] == TOTAL, (fname, bound_b, bound_d)
            before = now
