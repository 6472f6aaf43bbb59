"""CDCL solving: engine, state, and pluggable branching heuristics."""

from .engine import (
    Heuristic,
    Solver,
    SolveLimits,
    SolveResult,
    SolveStats,
    Verdict,
)
from .heuristics import RandomHeuristic, VsidsHeuristic

__all__ = [
    "Heuristic",
    "RandomHeuristic",
    "SolveLimits",
    "SolveResult",
    "SolveStats",
    "Solver",
    "Verdict",
    "VsidsHeuristic",
]
