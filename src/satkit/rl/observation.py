"""Observation encoding for the learned branching heuristic.

An observation is a fixed-layout numeric vector over a formula of
fixed shape (n variables, m clauses):

    variable assignments (n)   +1 true, -1 false, 0 unassigned
    clause evaluations   (m)   +1 satisfied, -1 falsified, 0 pending
    signed adjacency     (m*n) +1 positive literal, -1 negative, 0 absent
    global features      (48)

concatenated in that order to length n + m + n*m + 48. Only original
clauses appear; learned clauses are excluded so the shape never
changes mid-run. The per-step reward is the satisfied-minus-falsified
clause count.

Clause status has one owner per solve: a ``ClauseStatus`` tracker
keeps, for each original clause, its count of true and of false
literals, and follows the solver's trail incrementally. The learned
heuristic reads both its observation's clause block and its reward
from it, so the solver itself keeps no per-clause counts and other
heuristics pay nothing. ``clause_evaluations`` and ``compute_reward``
recompute the same values from scratch; they are the reference the
tracker is tested against, and ``build_observation`` uses them.
"""

from __future__ import annotations

import numpy as np

from ..cnf import CnfFormula, FALSE, TRUE, UNDEF, evaluate_clause
from ..errors import SatkitError
from ..features import FEATURE_COUNT, FeatureVector, Incidence, clause_incidence


class ShapeMismatchError(SatkitError):
    """Formula differs from the one the consumer was built for: another
    shape, or, for a consumer bound to one formula, another formula."""


def flat_observation_dim(num_vars: int, num_clauses: int) -> int:
    return num_vars + num_clauses + num_vars * num_clauses + FEATURE_COUNT


def signed_adjacency(formula: CnfFormula) -> np.ndarray:
    """Signed clause-by-variable incidence matrix. A variable occurring
    with both polarities in one clause stores +1 (cannot happen after
    tautology simplification)."""
    inc = clause_incidence(formula)
    adj = np.zeros((formula.num_clauses, formula.num_vars), dtype=np.float64)
    adj[inc.pair_clause, inc.pair_var - 1] = np.where(inc.pair_positive, 1.0, -1.0)
    return adj


def static_entries(
    incidence: Incidence, features: np.ndarray, num_vars: int
) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of an observation's static block, signed
    adjacency then global ``features``, as increasing positions in the
    block and their values, from a formula's ``clause_incidence``."""
    nonzero = np.flatnonzero(features)
    adjacency = incidence.pair_clause * num_vars + (incidence.pair_var - 1)
    index = np.concatenate([adjacency, len(incidence.lengths) * num_vars + nonzero])
    return index, np.concatenate([np.where(incidence.pair_positive, 1.0, -1.0), features[nonzero]])


def clause_evaluations(formula: CnfFormula, values: list[int]) -> np.ndarray:
    """Three-valued evaluation of every original clause under the
    solver's ``values``, as +1/-1/0."""
    return np.array(
        [evaluate_clause(clause, values) for clause in formula.clauses],
        dtype=np.float64,
    )


def compute_reward(clause_eval: np.ndarray) -> int:
    """Satisfied clauses count +1 each, falsified -1, pending 0."""
    return int((clause_eval == 1.0).sum()) - int((clause_eval == -1.0).sum())


class ClauseStatus:
    """Three-valued status of every original clause of one formula,
    kept in step with a solver's trail.

    ``sync(trail)`` undoes the literals of the last trail it saw that
    lie past the common prefix with ``trail``, then applies the new
    ones, so a decision costs the clause occurrences of the literals it
    changed rather than a pass over every clause. ``status[i]`` is then
    TRUE, FALSE or UNDEF, equal to ``evaluate_clause`` on the trail's
    assignment; duplicate and complementary literals count once per
    occurrence.
    """

    def __init__(self, formula: CnfFormula):
        m = formula.num_clauses
        # Indexed by the signed code itself: 2n + 1 slots, slot -v being
        # 2n + 1 - v. A clause is listed once per occurrence.
        self._occurrences: list[list[int]] = [[] for _ in range(2 * formula.num_vars + 1)]
        for i, clause in enumerate(formula.clauses):
            for code in clause:
                self._occurrences[code].append(i)
        self._size = [len(clause) for clause in formula.clauses]
        self._true = [0] * m
        self._false = [0] * m
        self._trail: list[int] = []
        self.status = [UNDEF] * m

    def sync(self, trail: list[int]) -> None:
        seen = self._trail
        keep = len(seen)
        if trail[:keep] != seen:
            keep = 0
            while keep < len(trail) and trail[keep] == seen[keep]:
                keep += 1
        for lit in seen[keep:]:
            self._unset(lit)
        for lit in trail[keep:]:
            self._set(lit)
        self._trail = trail[:]

    def _set(self, lit: int) -> None:
        status = self.status
        true, false, size = self._true, self._false, self._size
        for c in self._occurrences[lit]:
            true[c] += 1
            status[c] = TRUE
        for c in self._occurrences[-lit]:
            false[c] += 1
            if false[c] == size[c]:
                status[c] = FALSE

    def _unset(self, lit: int) -> None:
        status = self.status
        true, false = self._true, self._false
        for c in self._occurrences[lit]:
            true[c] -= 1
            if not true[c]:
                status[c] = UNDEF
        for c in self._occurrences[-lit]:
            false[c] -= 1
            if not true[c]:
                status[c] = UNDEF

    def reward(self) -> int:
        """``compute_reward`` of the current status."""
        return sum(self.status)


def build_observation(
    formula: CnfFormula,
    values: list[int],
    features: FeatureVector,
) -> np.ndarray:
    """Assemble the flat observation for the solver's ``values``."""
    return np.concatenate(
        [
            np.asarray(values, dtype=np.float64),
            clause_evaluations(formula, values),
            signed_adjacency(formula).reshape(-1),
            features.values,
        ]
    )
