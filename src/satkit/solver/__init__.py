"""CDCL solving: engine, state, and pluggable branching heuristics."""

from .engine import Solver, Verdict
from .heuristics import VsidsHeuristic

__all__ = ["Solver", "Verdict", "VsidsHeuristic"]
