"""Branching heuristics: VSIDS (the baseline) and a random picker.

VSIDS keeps one exponentially decayed activity per variable. Variables
in each learned clause are bumped; decay is folded into a growing bump
amount, with a global rescale once activities threaten overflow.
Polarity comes from phase saving (initially False). Both heuristics
read the solver's value list directly and return the literal to branch
on as a DIMACS code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .engine import Heuristic, Solver


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
    values: Sequence[int],
    saved_phase: Optional[Sequence[bool]] = None,
) -> int:
    """Literal on the unassigned variable of maximal activity, ties to
    the lowest index; polarity is the saved phase (False when none was
    ever saved). ``values[v - 1]`` is variable v's value, 0 if
    unassigned."""
    activity = scores.activity
    best_var = 0
    best_activity = -1.0
    for var, value in enumerate(values, 1):
        if value:
            continue
        if activity[var] > best_activity:
            best_activity = activity[var]
            best_var = var
    if best_var == 0:
        raise ValueError("no unassigned variable to decide on")
    phase = saved_phase[best_var] if saved_phase is not None else False
    return best_var if phase else -best_var


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

    def decide(self, solver: Solver) -> int:
        return vsids_pick(self.scores, solver.values, solver.saved_phase)

    def on_conflict(self, solver: Solver, learned: list[int]) -> None:
        vsids_on_conflict(self.scores, learned)


class RandomHeuristic(Heuristic):
    """Uniform random unassigned variable, uniform random polarity."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def decide(self, solver: Solver) -> int:
        unassigned = [var for var, value in enumerate(solver.values, 1) if not value]
        var = self.rng.choice(unassigned)
        return var if self.rng.random() < 0.5 else -var
