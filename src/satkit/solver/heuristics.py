"""The baseline branching heuristic, VSIDS.

``VsidsHeuristic`` owns one exponentially decayed activity per
variable. Variables in each learned clause are bumped; decay is folded
into a growing bump amount, with a global rescale once activities
threaten overflow (``VSIDS_DECAY``, ``VSIDS_RESCALE_LIMIT``).
Polarity comes from phase saving (initially False). It reads the
solver's value list directly and returns the literal to branch on as a
DIMACS code.
"""

from __future__ import annotations

from .engine import Heuristic, Solver


VSIDS_DECAY = 0.95  # the bump grows by 1 / decay per conflict
VSIDS_RESCALE_LIMIT = 1e100  # an activity above this rescales them all


class VsidsHeuristic(Heuristic):
    def __init__(self, num_vars: int):
        self.activity = [0.0] * (num_vars + 1)  # index 0 unused
        self.bump = 1.0

    def decide(self, solver: Solver) -> int:
        """Literal on the unassigned variable of maximal activity, ties
        to the lowest index; polarity is the saved phase."""
        activity = self.activity
        best_var = 0
        best_activity = -1.0
        for var, value in enumerate(solver.values, 1):
            if value:
                continue
            if activity[var] > best_activity:
                best_activity = activity[var]
                best_var = var
        if best_var == 0:
            raise ValueError("no unassigned variable to decide on")
        return best_var if solver.saved_phase[best_var] else -best_var

    def on_conflict(self, solver: Solver, learned: list[int]) -> None:
        """Bump each variable in the learned clause (which lists each
        variable once), then decay by growing the bump amount; rescale
        everything on overflow."""
        activity = self.activity
        rescale = False
        for code in learned:
            var = abs(code)
            activity[var] += self.bump
            if activity[var] > VSIDS_RESCALE_LIMIT:
                rescale = True
        if rescale:
            factor = 1.0 / VSIDS_RESCALE_LIMIT
            self.activity = [a * factor for a in activity]
            self.bump *= factor
        self.bump /= VSIDS_DECAY

