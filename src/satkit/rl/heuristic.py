"""Solver heuristic backed by a policy, with optional episode recording.

On each decision the heuristic builds the observation from the live
solver state, asks the policy for an action and returns it as a
branching decision. The static parts of the observation (signed
adjacency, global features) are precomputed at construction, which is
also what the benchmark harness times as feature-extraction cost.

When recording, one Transition is stored per decision; its reward is
filled in after the propagation (and any conflict resolution) that the
decision triggered, and the final transition is marked done.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cnf import CnfFormula
from ..features import extract_features
from ..solver.engine import Heuristic, HeuristicDecision, Solver, Verdict
from .observation import (
    ShapeMismatchError,
    build_observation,
    clause_evaluations,
    compute_reward,
    signed_adjacency,
)
from .policy import Policy, action_to_decision, legal_action_mask
from .ppo import Transition


class PolicyHeuristic(Heuristic):
    name = "rl"

    def __init__(
        self,
        policy: Policy,
        formula: CnfFormula,
        mode: str = "greedy",
        rng: Optional[np.random.Generator] = None,
        record: bool = False,
    ):
        shape = (formula.num_vars, formula.num_clauses)
        if shape != policy.shape:
            raise ShapeMismatchError(
                f"policy built for shape {policy.shape}, formula has {shape}"
            )
        self.policy = policy
        self.formula = formula
        self.mode = mode
        self.rng = rng if rng is not None else np.random.default_rng(policy.seed)
        self.record = record
        self.transitions: list[Transition] = []
        self._features = extract_features(formula)
        self._adjacency = signed_adjacency(formula)
        self._prev_score = 0  # for delta reward mode

    def attach(self, solver: Solver) -> None:
        if solver.formula is not self.formula and (
            solver.formula.num_vars,
            solver.formula.num_clauses,
        ) != self.policy.shape:
            raise ShapeMismatchError("solver formula does not match policy shape")

    def decide(self, solver: Solver) -> HeuristicDecision:
        flat = build_observation(
            self.formula,
            solver.assignment,
            self._features,
            expected_shape=self.policy.shape,
            adjacency=self._adjacency,
        )
        mask = legal_action_mask(solver.assignment)
        action, log_prob, value = self.policy.act(flat, mask, self.mode, self.rng)
        if self.record:
            self.transitions.append(
                Transition(
                    observation=flat,
                    action=action,
                    log_prob=log_prob,
                    reward=0.0,  # filled in by on_step
                    value=value,
                    done=False,
                    mask=mask,
                )
            )
        return action_to_decision(action)

    def on_step(self, solver: Solver, verdict: Optional[Verdict]) -> None:
        if not self.record or not self.transitions:
            return
        evals = clause_evaluations(self.formula, solver.assignment)
        score = compute_reward(evals)
        if self.policy.config.reward_mode == "delta":
            reward = score - self._prev_score
            self._prev_score = score
        else:
            reward = score
        last = self.transitions[-1]
        last.reward = float(reward)
        if verdict is not None:
            last.done = True
