"""Totality checker for a first-order functional language with inductive
and coinductive types, based on the size-change principle."""

from .checker import Config, Report, Verdict, analyze_source
from .terms import (
    INF,
    Weight,
    ZERO,
    parse_term,
    term_str,
    weight,
    weight_add,
)

__all__ = [
    "Config", "Report", "Verdict", "analyze_source",
    "INF", "Weight", "ZERO", "parse_term", "term_str", "weight",
    "weight_add",
]
