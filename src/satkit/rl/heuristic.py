"""Solver heuristic backed by a policy: greedy, or sampled and recorded.

On each decision the heuristic builds the observation's dynamic block
(variable assignments and clause status, n + m entries) from the live
solver state, asks the policy for an action and returns the literal it
branches on. Construction decodes the clauses once, into a
``clause_incidence``, and keeps it: the static parts of the
observation (signed adjacency, global features) come from it, and only
their nonzero entries are folded into the actor's first layer (the
fold's last bits depend on the BLAS build and thread count), so a
decision multiplies only the dynamic inputs. Construction is the
set-up that the benchmark harness times (``feature_time_s``), fold
included; solve time excludes it.

Clause status is evaluated afresh from ``solver.values`` over the
incidence's occurrence arrays (``observation.dynamic_block``):
``decide`` reads it as the clause block, ``on_step`` sums it for the
reward. The solver keeps no clause counts of its own, so no other
heuristic pays for them.

The policy reads which actions are legal from the dynamic block's
assignments. Built without an rng, the heuristic is greedy and records
nothing: no mask array, no softmax, no static block. Built with one,
it samples each decision from the masked softmax and records one
Transition per decision, with the dynamic block, the log-probability
and the legal-action mask. Only then is the dense static block
scattered from the same entries, once per episode; every transition of
the episode refers to that one array. Neither way runs the critic: the
update computes the values it needs in one batched call. A
transition's reward, satisfied minus falsified original clauses, is
filled in after the propagation (and any conflict resolution) that the
decision triggered. Marking the final transition done is left to
``run_episode``, which alone knows where an episode ends, verdict or
decision limit.

``Transition`` is defined here, next to its one producer; ``ppo``
consumes it. So this module, like the observation, network and policy
modules it runs, imports neither ``ppo`` nor ``train``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cnf import CnfFormula
from ..features import clause_incidence, extract_features
from ..solver.engine import Heuristic, Solver
from .observation import ShapeMismatchError, dynamic_block, static_entries
from .policy import Policy, action_to_decision, legal_action_mask


@dataclass
class Transition:
    observation: np.ndarray  # dynamic block: assignments, clause status (n + m)
    static: np.ndarray  # static block, one array shared by an episode's transitions
    action: int
    log_prob: float
    reward: float
    done: bool
    mask: np.ndarray  # legal-action mask at decision time


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
        self._incidence = clause_incidence(formula)
        features = extract_features(formula, self._incidence).values
        static = static_entries(self._incidence, features, formula.num_vars)
        self._actor_fold = policy.fold(policy.actor, *static)
        if rng is not None:
            self._static = np.zeros(policy.obs_dim - policy.dynamic_dim)
            self._static[static[0]] = static[1]

    def attach(self, solver: Solver) -> None:
        # The folds belong to this formula; any other would be decided on
        # with its clauses and adjacency.
        if solver.formula is not self.formula and solver.formula != self.formula:
            raise ShapeMismatchError("solver formula is not the formula this heuristic was built for")

    def decide(self, solver: Solver) -> int:
        dynamic = dynamic_block(self._incidence, solver.values)
        action, log_prob = self.policy.act(dynamic, self._actor_fold, self.rng)
        if self.rng is not None:
            self.transitions.append(
                Transition(
                    observation=dynamic,
                    static=self._static,
                    action=action,
                    log_prob=log_prob,
                    reward=0.0,  # filled in by on_step
                    done=False,
                    mask=legal_action_mask(solver.values),
                )
            )
        return action_to_decision(action)

    def on_step(self, solver: Solver) -> None:
        if not self.transitions:
            return
        clauses = dynamic_block(self._incidence, solver.values)[self.formula.num_vars :]
        self.transitions[-1].reward = float(clauses.sum())
