"""Solver heuristic backed by a policy, with optional episode recording.

On each decision the heuristic builds the observation's dynamic block
(variable assignments and clause status, n + m entries) from the live
solver state, asks the policy for an action and returns it as a
branching decision. The static parts of the observation (signed
adjacency, global features) are computed at construction and folded
into the actor's first layer there, so a decision multiplies only the
dynamic inputs. Construction is what the benchmark harness times as
feature-extraction cost (``feature_time_s``), fold included; solve
time excludes it.

Clause status comes from the heuristic's ``ClauseStatus`` tracker,
which it syncs from ``solver.trail`` before each read: ``decide`` reads
the clause block, ``on_step`` the reward. The solver keeps no clause
counts of its own, so no other heuristic pays for them.

A greedy, unrecorded decision is the lean path: no full observation,
no log-probability, no critic and no rng. When recording, one
Transition is stored per decision, with the full observation, the
log-probability and the critic's value (the critic is folded and
evaluated only then). Its reward is filled in after the propagation
(and any conflict resolution) that the decision triggered. Marking the
final transition done is left to ``run_episode``, which alone knows
where an episode ends, verdict or decision limit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cnf import CnfFormula
from ..features import extract_features
from ..solver.engine import Heuristic, HeuristicDecision, Solver, Verdict
from .observation import ClauseStatus, ShapeMismatchError, signed_adjacency
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
        if rng is None and mode == "sample":
            rng = np.random.default_rng(policy.seed)
        self.rng = rng
        self.record = record
        self.transitions: list[Transition] = []
        self.clause_status = ClauseStatus(formula)
        # The observation's static tail, in build_observation's order.
        self._static = np.concatenate(
            [signed_adjacency(formula).reshape(-1), extract_features(formula).values]
        )
        self._actor_fold = policy.fold(policy.actor, self._static)
        self._critic_fold = policy.fold(policy.critic, self._static) if record else None
        self._prev_score = 0  # for delta reward mode

    def attach(self, solver: Solver) -> None:
        # The folds belong to this formula; any other would be decided on
        # with its clauses and adjacency.
        if solver.formula is not self.formula and solver.formula != self.formula:
            raise ShapeMismatchError("solver formula is not the formula this heuristic was built for")

    def decide(self, solver: Solver) -> HeuristicDecision:
        self.clause_status.sync(solver.trail)
        dynamic = np.array(solver.assignment.values + self.clause_status.status, dtype=np.float64)
        mask = legal_action_mask(solver.assignment)
        action, log_prob = self.policy.act(
            dynamic, mask, self.mode, self.rng, self._actor_fold, with_log_prob=self.record
        )
        if self.record:
            self.transitions.append(
                Transition(
                    observation=np.concatenate([dynamic, self._static]),
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
        self.clause_status.sync(solver.trail)
        score = self.clause_status.reward()
        if self.policy.config.reward_mode == "delta":
            reward = score - self._prev_score
            self._prev_score = score
        else:
            reward = score
        self.transitions[-1].reward = float(reward)
