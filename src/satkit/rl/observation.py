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
"""

from __future__ import annotations

import numpy as np

from ..cnf import Assignment, CnfFormula
from ..errors import SatkitError
from ..features import FEATURE_COUNT, FeatureVector


class ShapeMismatchError(SatkitError):
    """Formula differs from the one the consumer was built for: another
    shape, or, for a consumer bound to one formula, another formula."""


def flat_observation_dim(num_vars: int, num_clauses: int) -> int:
    return num_vars + num_clauses + num_vars * num_clauses + FEATURE_COUNT


def signed_adjacency(formula: CnfFormula) -> np.ndarray:
    """Clause-by-variable signed incidence matrix. A variable occurring
    with both polarities in one clause stores +1 (cannot happen after
    tautology simplification)."""
    adj = np.zeros((formula.num_clauses, formula.num_vars), dtype=np.float64)
    for i, clause in enumerate(formula.clauses):
        for lit in clause:
            j = lit.var - 1
            if lit.negated:
                if adj[i, j] == 0:
                    adj[i, j] = -1.0
            else:
                adj[i, j] = 1.0
    return adj


def clause_evaluations(formula: CnfFormula, assignment: Assignment) -> np.ndarray:
    """Three-valued evaluation of every original clause, as +1/-1/0."""
    out = np.zeros(formula.num_clauses, dtype=np.float64)
    values = assignment.values
    for i, clause in enumerate(formula.clauses):
        verdict = -1.0
        for lit in clause:
            v = values[lit.var - 1]
            if v == 0:
                verdict = 0.0
            elif (v > 0) != lit.negated:
                verdict = 1.0
                break
        out[i] = verdict
    return out


def compute_reward(clause_eval: np.ndarray) -> int:
    """Satisfied clauses count +1 each, falsified -1, pending 0."""
    return int((clause_eval == 1.0).sum()) - int((clause_eval == -1.0).sum())


def build_observation(
    formula: CnfFormula,
    assignment: Assignment,
    features: FeatureVector,
    expected_shape: "tuple[int, int] | None" = None,
    adjacency: "np.ndarray | None" = None,
) -> np.ndarray:
    """Assemble the flat observation for the current solver state.

    ``adjacency`` may be passed in to reuse the precomputed static
    incidence matrix; it is recomputed from the formula otherwise.
    """
    shape = (formula.num_vars, formula.num_clauses)
    if expected_shape is not None and shape != tuple(expected_shape):
        raise ShapeMismatchError(
            f"formula shape {shape} does not match configured {tuple(expected_shape)}"
        )
    if adjacency is None:
        adjacency = signed_adjacency(formula)
    return np.concatenate(
        [
            np.asarray(assignment.values, dtype=np.float64),
            clause_evaluations(formula, assignment),
            adjacency.reshape(-1),
            features.values,
        ]
    )
