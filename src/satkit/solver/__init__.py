"""CDCL solving: engine, state, and pluggable branching heuristics."""

from .engine import (
    Heuristic,
    HeuristicDecision,
    Solver,
    SolveLimits,
    SolveResult,
    SolveStats,
    Verdict,
    solve,
)
from .heuristics import (
    RandomHeuristic,
    VsidsHeuristic,
    VsidsScores,
    vsids_on_conflict,
    vsids_pick,
)

__all__ = [
    "Heuristic",
    "HeuristicDecision",
    "RandomHeuristic",
    "SolveLimits",
    "SolveResult",
    "SolveStats",
    "Solver",
    "Verdict",
    "VsidsHeuristic",
    "VsidsScores",
    "solve",
    "vsids_on_conflict",
    "vsids_pick",
]
