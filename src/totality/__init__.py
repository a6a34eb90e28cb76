"""Totality checker for a first-order functional language with inductive
and coinductive types, based on the size-change principle."""

from .callgraph import INF, Weight
from .checker import Config, Report, Verdict, analyze_source

__all__ = [
    "Config", "Report", "Verdict", "analyze_source", "INF", "Weight",
]
