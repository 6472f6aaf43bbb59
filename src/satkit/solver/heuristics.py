"""Branching heuristics: VSIDS (the baseline) and a random picker.

VSIDS keeps one exponentially decayed activity per variable. Variables
in each learned clause are bumped; decay is folded into a growing bump
amount, with a global rescale once activities threaten overflow.
Polarity comes from phase saving (initially False).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..cnf import Assignment
from .engine import Heuristic, HeuristicDecision, Solver


@dataclass
class VsidsScores:
    activity: list[float]  # index 0 unused; activity[v] is variable v's score
    bump: float = 1.0
    decay: float = 0.95
    rescale_threshold: float = 1e100

    @classmethod
    def for_num_vars(cls, num_vars: int) -> "VsidsScores":
        return cls(activity=[0.0] * (num_vars + 1))


def vsids_pick(
    scores: VsidsScores,
    assignment: Assignment,
    saved_phase: Optional[Sequence[bool]] = None,
) -> HeuristicDecision:
    """Unassigned variable of maximal activity, ties to the lowest index;
    polarity is the saved phase (False when none was ever saved)."""
    best_var = 0
    best_activity = -1.0
    for var in range(1, assignment.num_vars + 1):
        if assignment.is_assigned(var):
            continue
        activity = scores.activity[var]
        if activity > best_activity:
            best_activity = activity
            best_var = var
    if best_var == 0:
        raise ValueError("no unassigned variable to decide on")
    phase = saved_phase[best_var] if saved_phase is not None else False
    return HeuristicDecision(best_var, phase)


def vsids_on_conflict(scores: VsidsScores, learned: Sequence[int]) -> None:
    """Bump each variable in the learned clause, then decay by growing
    the bump amount; rescale everything on overflow."""
    rescale = False
    for code in dict.fromkeys(abs(c) for c in learned):
        scores.activity[code] += scores.bump
        if scores.activity[code] > scores.rescale_threshold:
            rescale = True
    if rescale:
        factor = 1.0 / scores.rescale_threshold
        scores.activity = [a * factor for a in scores.activity]
        scores.bump *= factor
    scores.bump /= scores.decay


class VsidsHeuristic(Heuristic):
    name = "vsids"

    def __init__(self, num_vars: int):
        self.scores = VsidsScores.for_num_vars(num_vars)

    def decide(self, solver: Solver) -> HeuristicDecision:
        return vsids_pick(self.scores, solver.assignment, solver.saved_phase)

    def on_conflict(self, solver: Solver, learned: list[int]) -> None:
        vsids_on_conflict(self.scores, learned)


class RandomHeuristic(Heuristic):
    """Uniform random unassigned variable, uniform random polarity."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def decide(self, solver: Solver) -> HeuristicDecision:
        unassigned = [
            v for v in range(1, solver.num_vars + 1) if not solver.assignment.is_assigned(v)
        ]
        var = self.rng.choice(unassigned)
        return HeuristicDecision(var, self.rng.random() < 0.5)
