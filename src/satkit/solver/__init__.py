"""CDCL solving: engine, state, and pluggable branching heuristics."""

from .engine import (
    Heuristic,
    Solver,
    SolveLimits,
    SolveResult,
    SolveStats,
    Verdict,
)
from .heuristics import VsidsHeuristic

__all__ = [
    "Heuristic",
    "SolveLimits",
    "SolveResult",
    "SolveStats",
    "Solver",
    "Verdict",
    "VsidsHeuristic",
]
