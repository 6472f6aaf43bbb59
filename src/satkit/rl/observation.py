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

The dynamic block, assignments and clause evaluations, is the part
that changes between decisions. ``dynamic_block`` computes it from the
solver's values and a formula's ``clause_incidence`` in a few array
operations, a clause's status being the largest value among its
literals; the learned heuristic reads both its observation's clause
block and its reward (the block's sum) from it, so the solver itself
keeps no per-clause counts and other heuristics pay nothing.
``clause_evaluations`` evaluates the clause block clause by clause
with ``evaluate_clause``; it is the reference ``dynamic_block`` is
tested against, and ``build_observation`` uses it.
"""

from __future__ import annotations

import numpy as np

from ..cnf import CnfFormula, evaluate_clause
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
    adj.reshape(-1)[inc.pairs] = inc.pair_signs
    return adj


def static_entries(
    incidence: Incidence, features: np.ndarray, num_vars: int
) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of an observation's static block, signed
    adjacency then global ``features``, as increasing positions in the
    block and their values, from a formula's ``clause_incidence``."""
    nonzero = features.nonzero()[0]
    index = np.concatenate([incidence.pairs, len(incidence.lengths) * num_vars + nonzero])
    return index, np.concatenate([incidence.pair_signs, features[nonzero]])


def clause_evaluations(formula: CnfFormula, values: list[int]) -> np.ndarray:
    """Three-valued evaluation of every original clause under the
    solver's ``values``, as +1/-1/0."""
    return np.array(
        [evaluate_clause(clause, values) for clause in formula.clauses],
        dtype=np.float64,
    )


def dynamic_block(incidence: Incidence, values: list[int]) -> np.ndarray:
    """An observation's dynamic block for the solver's ``values``: the
    assignments, then every original clause's evaluation.

    A clause's evaluation is the largest value among its literals, +1
    true, 0 unassigned, -1 false, which is ``evaluate_clause``'s
    verdict, duplicate and complementary literals included. It is taken
    in integers, so an unassigned negative literal counts 0, never
    -0.0.
    """
    n = len(values)
    assigned = np.array(values)
    block = np.empty(n + len(incidence.starts))
    block[:n] = assigned
    block[n:] = np.maximum.reduceat(assigned[incidence.variables] * incidence.signs, incidence.starts)
    return block


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
