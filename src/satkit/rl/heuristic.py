"""Solver heuristic backed by a policy, with optional episode recording.

On each decision the heuristic builds the observation from the live
solver state, asks the policy for an action and returns it as a
branching decision. The static parts of the observation (signed
adjacency, global features) are computed at construction and folded
into the actor's first layer there, so a decision multiplies only the
n + m dynamic inputs. Construction is what the benchmark harness times
as feature-extraction cost (``feature_time_s``), fold included; solve
time excludes it.

When recording, one Transition is stored per decision, with the full
observation and the critic's value (the critic is folded and evaluated
only then; greedy and unrecorded runs never touch it). Its reward is
filled in after the propagation (and any conflict resolution) that the
decision triggered. Marking the final transition done is left to
``run_episode``, which alone knows where an episode ends, verdict or
decision limit.
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
        # The observation's static tail, in build_observation's order.
        static = np.concatenate([self._adjacency.reshape(-1), self._features.values])
        self._actor_fold = policy.fold(policy.actor, static)
        self._critic_fold = policy.fold(policy.critic, static) if record else None
        self._prev_score = 0  # for delta reward mode

    def attach(self, solver: Solver) -> None:
        # The folds belong to this formula; any other would be decided on
        # with its clauses and adjacency.
        if solver.formula is not self.formula and solver.formula != self.formula:
            raise ShapeMismatchError("solver formula is not the formula this heuristic was built for")

    def decide(self, solver: Solver) -> HeuristicDecision:
        flat = build_observation(
            self.formula, solver.assignment, self._features, adjacency=self._adjacency
        )
        dynamic = flat[: self.policy.dynamic_dim]
        mask = legal_action_mask(solver.assignment)
        action, log_prob = self.policy.act(dynamic, mask, self.mode, self.rng, self._actor_fold)
        if self.record:
            self.transitions.append(
                Transition(
                    observation=flat,
                    action=action,
                    log_prob=log_prob,
                    reward=0.0,  # filled in by on_step
                    value=self.policy.value(dynamic, self._critic_fold),
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
        self.transitions[-1].reward = float(reward)
