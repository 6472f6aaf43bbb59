"""Episode collection and the training loop.

Training iterates the dataset in a seed-shuffled order, collects
sampled episodes into a rollout window, and runs one optimization per
window. It stops once the requested number of decision-transitions has
been collected. Everything derives from the policy seed, so a repeated
run produces bit-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..cnf import CnfFormula
from ..errors import LimitError, SatkitError
from ..solver.engine import SolveLimits, SolveResult, Solver
from .heuristic import PolicyHeuristic, Transition
from .policy import Policy
from .ppo import PpoOptimizer


class TrainingDataError(SatkitError, ValueError):
    """The dataset cannot be trained on: it is empty, an instance's shape
    differs from the policy's, or no instance yields a decision."""


@dataclass
class TrainWindowLog:
    window: int
    steps: int  # cumulative transitions collected
    mean_reward: float  # mean per-step reward over the window's transitions
    mean_decisions: float  # mean length of episodes completed in the window
    # The update's metrics (``PpoOptimizer.update``), in its order.
    policy_loss: float  # negated mean clipped surrogate
    value_loss: float
    entropy: float
    clip_fraction: float


def run_episode(
    formula: CnfFormula, policy: Policy, rng: np.random.Generator
) -> tuple[list[Transition], SolveResult]:
    """One solver run with the policy sampling every decision from ``rng``,
    stopped after ``policy.config.episode_max_decisions`` decisions.

    Returns the recorded trajectory, one transition per decision, with
    the final transition marked done; instances solved purely by unit
    propagation yield an empty trajectory.
    """
    limits = SolveLimits(max_decisions=policy.config.episode_max_decisions)
    heuristic = PolicyHeuristic(policy, formula, rng)
    result = Solver(formula, heuristic, limits).run()
    transitions = heuristic.transitions
    if transitions:
        transitions[-1].done = True
    return transitions, result


def _trajectories(dataset: Sequence[CnfFormula], policy: Policy) -> Iterator[list[Transition]]:
    """The non-empty trajectories of one episode per instance, over
    passes through the dataset in an order shuffled from the policy
    seed. A pass is drawn only when a trajectory is asked of it; one
    that yields none is a ``TrainingDataError``."""
    order_rng = np.random.default_rng([policy.seed, 1])
    episode_rng = np.random.default_rng([policy.seed, 2])
    while True:
        yielded = False
        for i in order_rng.permutation(len(dataset)):
            trajectory, _ = run_episode(dataset[i], policy, episode_rng)
            if trajectory:
                yielded = True
                yield trajectory
        if not yielded:
            raise TrainingDataError("training dataset produced no decisions")


def train(
    dataset: Sequence[CnfFormula],
    policy: Policy,
    steps: int,
    checkpoint: Optional[Callable[[Policy, int], None]] = None,
    checkpoint_every: int = 10,
) -> tuple[Policy, list[TrainWindowLog]]:
    """Collect ``steps`` decision-transitions and optimize per window.

    ``checkpoint(policy, window_index)`` is invoked after every
    ``checkpoint_every``-th window and after the last window, at most
    once per window: with ``checkpoint_every=1`` a run of k windows
    calls it with indices 1, ..., k. A run of no steps has no window
    and never calls it, but its dataset is checked all the same.
    Negative ``steps`` or ``checkpoint_every`` below 1 is a
    ``LimitError``.
    """
    if steps < 0:
        raise LimitError(f"steps must be >= 0, got {steps}")
    if checkpoint_every < 1:
        raise LimitError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if not dataset:
        raise TrainingDataError("empty training dataset")
    for i, f in enumerate(dataset):
        if (f.num_vars, f.num_clauses) != policy.shape:
            raise TrainingDataError(
                f"dataset instance {i} has shape {(f.num_vars, f.num_clauses)}, "
                f"the policy {policy.shape}; training needs a fixed shape"
            )
    if steps == 0:
        return policy, []

    trajectories = _trajectories(dataset, policy)
    optimizer = PpoOptimizer(policy)
    logs: list[TrainWindowLog] = []
    total = 0
    while total < steps:
        buffer: list[Transition] = []
        episode_lengths: list[int] = []
        while len(buffer) < policy.config.rollout_window and total < steps:
            trajectory = next(trajectories)
            remaining = steps - total
            if len(trajectory) > remaining:
                trajectory = trajectory[:remaining]  # truncated tail, no done flag
            else:
                episode_lengths.append(len(trajectory))
            buffer.extend(trajectory)
            total += len(trajectory)
        metrics = optimizer.update(buffer)
        mean_reward = float(np.mean([t.reward for t in buffer]))
        # Only the run's last episode can be truncated, so a window with
        # no completed episode is that one episode.
        mean_decisions = float(np.mean(episode_lengths)) if episode_lengths else float(len(buffer))
        logs.append(TrainWindowLog(len(logs), total, mean_reward, mean_decisions, *metrics))
        if checkpoint is not None and (len(logs) % checkpoint_every == 0 or total >= steps):
            checkpoint(policy, len(logs))
    return policy, logs
