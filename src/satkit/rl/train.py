"""Episode collection and the training loop.

Training iterates the dataset in a seed-shuffled order, collects
sampled episodes into a rollout window, and runs one optimization per
window. It stops once the requested number of decision-transitions has
been collected. Everything derives from the policy seed, so a repeated
run produces bit-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..cnf import CnfFormula
from ..errors import LimitError, SatkitError
from ..solver.engine import SolveLimits, SolveResult, Solver
from .heuristic import PolicyHeuristic
from .policy import Policy
from .ppo import PpoOptimizer, Transition, UpdateMetrics


class TrainingDataError(SatkitError, ValueError):
    """The dataset cannot be trained on: it is empty, an instance's shape
    differs from the policy's, or no instance yields a decision."""


@dataclass
class TrainWindowLog:
    window: int
    steps: int  # cumulative transitions collected
    mean_reward: float  # mean per-step reward over the window's transitions
    mean_decisions: float  # mean length of episodes completed in the window
    metrics: UpdateMetrics


def run_episode(
    formula: CnfFormula,
    policy: Policy,
    rng: np.random.Generator,
    limits: Optional[SolveLimits] = None,
) -> tuple[list[Transition], SolveResult]:
    """One solver run with the policy sampling every decision from ``rng``.

    Returns the recorded trajectory, one transition per decision, with
    the final transition marked done; instances solved purely by unit
    propagation yield an empty trajectory.
    """
    if limits is None:
        limits = SolveLimits(max_decisions=policy.config.episode_max_decisions)
    heuristic = PolicyHeuristic(policy, formula, rng)
    result = Solver(formula, heuristic, limits).run()
    transitions = heuristic.transitions
    if transitions:
        transitions[-1].done = True
    return transitions, result


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
    Negative ``steps`` is a ``LimitError``.
    """
    if steps < 0:
        raise LimitError(f"steps must be >= 0, got {steps}")
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

    order_rng = np.random.default_rng([policy.seed, 1])
    episode_rng = np.random.default_rng([policy.seed, 2])
    optimizer = PpoOptimizer(policy)
    window = policy.config.rollout_window
    limits = SolveLimits(max_decisions=policy.config.episode_max_decisions)

    logs: list[TrainWindowLog] = []
    buffer: list[Transition] = []
    episode_lengths: list[int] = []
    total = 0
    window_index = 0
    order = list(order_rng.permutation(len(dataset)))
    cursor = 0
    yielded_any = False

    def flush() -> None:
        nonlocal buffer, episode_lengths, window_index
        metrics = optimizer.update(buffer)
        mean_reward = float(np.mean([t.reward for t in buffer]))
        if episode_lengths:
            mean_decisions = float(np.mean(episode_lengths))
        else:  # window made of one truncated episode
            mean_decisions = float(len(buffer))
        logs.append(
            TrainWindowLog(window_index, total, mean_reward, mean_decisions, metrics)
        )
        buffer = []
        episode_lengths = []
        window_index += 1
        if checkpoint is not None and window_index % checkpoint_every == 0:
            checkpoint(policy, window_index)

    while total < steps:
        if cursor >= len(order):
            if not yielded_any:
                raise TrainingDataError("training dataset produced no decisions")
            order = list(order_rng.permutation(len(dataset)))
            cursor = 0
            yielded_any = False
        formula = dataset[order[cursor]]
        cursor += 1
        trajectory, _ = run_episode(formula, policy, episode_rng, limits)
        if not trajectory:
            continue
        yielded_any = True
        remaining = steps - total
        if len(trajectory) > remaining:
            trajectory = trajectory[:remaining]  # truncated tail, no done flag
        else:
            episode_lengths.append(len(trajectory))
        buffer.extend(trajectory)
        total += len(trajectory)
        if len(buffer) >= window or total >= steps:
            flush()

    if checkpoint is not None and window_index % checkpoint_every != 0:
        checkpoint(policy, window_index)
    return policy, logs
