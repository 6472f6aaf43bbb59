"""Solver heuristic backed by a policy: greedy, or sampled and recorded.

On each decision the heuristic builds the observation's dynamic block
(variable assignments and clause status, n + m entries) from the live
solver state, asks the policy for an action and returns the literal it
branches on. Construction decodes the clauses once for the static
parts of the observation (signed adjacency, global features) and folds
only their nonzero entries into the actor's first layer (the fold's
last bits depend on the BLAS build and thread count), so a decision
multiplies only the dynamic inputs. Construction is what the benchmark
harness times as feature-extraction cost (``feature_time_s``), fold
included; solve time excludes it.

Clause status comes from the heuristic's ``ClauseStatus`` tracker,
which it syncs from ``solver.trail`` before each read: ``decide`` reads
the clause block, ``on_step`` the reward. The solver keeps no clause
counts of its own, so no other heuristic pays for them.

Built without an rng, the heuristic is greedy and records nothing: no
full observation, no softmax, no critic. Built with one, it samples
each decision from the masked softmax and records one Transition per
decision, with the full observation, the log-probability and the
critic's value (the dense static block is built and the critic folded
only then). Its reward is filled in after the propagation (and any
conflict resolution) that the decision triggered. Marking the final
transition done is left to ``run_episode``, which alone knows where an
episode ends, verdict or decision limit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cnf import CnfFormula
from ..features import clause_incidence, extract_features
from ..solver.engine import Heuristic, Solver
from .observation import ClauseStatus, ShapeMismatchError, signed_adjacency, static_entries
from .policy import Policy, action_to_decision, legal_action_mask
from .ppo import Transition


class PolicyHeuristic(Heuristic):
    def __init__(
        self,
        policy: Policy,
        formula: CnfFormula,
        rng: Optional[np.random.Generator] = None,
    ):
        shape = (formula.num_vars, formula.num_clauses)
        if shape != policy.shape:
            raise ShapeMismatchError(
                f"policy built for shape {policy.shape}, formula has {shape}"
            )
        self.policy = policy
        self.formula = formula
        self.rng = rng
        self.transitions: list[Transition] = []
        self.clause_status = ClauseStatus(formula)
        incidence = clause_incidence(formula)
        features = extract_features(formula, incidence).values
        static = static_entries(incidence, features, formula.num_vars)
        self._actor_fold = policy.fold(policy.actor, *static)
        if rng is not None:
            # The observation's static tail, in build_observation's order.
            self._static = np.concatenate([signed_adjacency(formula).reshape(-1), features])
            self._critic_fold = policy.fold(policy.critic, *static)
        self._prev_score = 0  # for delta reward mode

    def attach(self, solver: Solver) -> None:
        # The folds belong to this formula; any other would be decided on
        # with its clauses and adjacency.
        if solver.formula is not self.formula and solver.formula != self.formula:
            raise ShapeMismatchError("solver formula is not the formula this heuristic was built for")

    def decide(self, solver: Solver) -> int:
        self.clause_status.sync(solver.trail)
        dynamic = np.array(solver.values + self.clause_status.status, dtype=np.float64)
        mask = legal_action_mask(solver.values)
        action, log_prob = self.policy.act(dynamic, mask, self._actor_fold, self.rng)
        if self.rng is not None:
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

    def on_step(self, solver: Solver) -> None:
        if not self.transitions:
            return
        self.clause_status.sync(solver.trail)
        score = self.clause_status.reward()
        if self.policy.config.reward_mode == "delta":
            reward = score - self._prev_score
            self._prev_score = score
        else:
            reward = score
        self.transitions[-1].reward = float(reward)
