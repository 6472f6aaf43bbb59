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
from ..solver.engine import SolveLimits, SolveResult, Solver
from .heuristic import PolicyHeuristic
from .policy import Policy
from .ppo import PpoOptimizer, Transition, UpdateMetrics


@dataclass
class TrainWindowLog:
    window: int
    steps: int  # cumulative transitions collected
    mean_reward: float  # mean per-step reward over the window's transitions
    mean_decisions: float  # mean length of episodes completed in the window
    metrics: Optional[UpdateMetrics] = None


def run_episode(
    formula: CnfFormula,
    policy: Policy,
    limits: Optional[SolveLimits] = None,
    rng: Optional[np.random.Generator] = None,
    mode: str = "sample",
) -> tuple[list[Transition], SolveResult]:
    """One solver run with the policy deciding (sampling by default).

    Returns the recorded trajectory, one transition per decision, with
    the final transition marked done; instances solved purely by unit
    propagation yield an empty trajectory.
    """
    if limits is None:
        limits = SolveLimits(max_decisions=policy.config.episode_max_decisions)
    heuristic = PolicyHeuristic(policy, formula, mode=mode, rng=rng, record=True)
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
    and never calls it.
    """
    if steps <= 0:
        return policy, []
    if not dataset:
        raise ValueError("empty training dataset")
    for f in dataset:
        if (f.num_vars, f.num_clauses) != policy.shape:
            raise ValueError(
                f"dataset instance shape {(f.num_vars, f.num_clauses)} "
                f"does not match policy shape {policy.shape}"
            )

    order_rng = np.random.default_rng([policy.seed, 1])
    episode_rng = np.random.default_rng([policy.seed, 2])
    optimizer = PpoOptimizer(policy, seed=policy.seed)
    window = policy.config.rollout_window
    limits = SolveLimits(max_decisions=policy.config.episode_max_decisions)

    logs: list[TrainWindowLog] = []
    buffer: list[Transition] = []
    episode_stats: list[tuple[float, int]] = []
    total = 0
    window_index = 0
    order = list(order_rng.permutation(len(dataset)))
    cursor = 0
    yielded_any = False

    def flush() -> None:
        nonlocal buffer, episode_stats, window_index
        metrics = optimizer.update(buffer)
        mean_reward = float(np.mean([t.reward for t in buffer]))
        if episode_stats:
            mean_decisions = float(np.mean([d for _, d in episode_stats]))
        else:  # window made of one truncated episode
            mean_decisions = float(len(buffer))
        logs.append(
            TrainWindowLog(window_index, total, mean_reward, mean_decisions, metrics)
        )
        buffer = []
        episode_stats = []
        window_index += 1
        if checkpoint is not None and window_index % checkpoint_every == 0:
            checkpoint(policy, window_index)

    while total < steps:
        if cursor >= len(order):
            if not yielded_any:
                raise ValueError("training dataset produced no decisions")
            order = list(order_rng.permutation(len(dataset)))
            cursor = 0
            yielded_any = False
        formula = dataset[order[cursor]]
        cursor += 1
        trajectory, _ = run_episode(formula, policy, limits, episode_rng)
        if not trajectory:
            continue
        yielded_any = True
        remaining = steps - total
        if len(trajectory) > remaining:
            trajectory = trajectory[:remaining]  # truncated tail, no done flag
        else:
            episode_stats.append(
                (sum(t.reward for t in trajectory), len(trajectory))
            )
        buffer.extend(trajectory)
        total += len(trajectory)
        if len(buffer) >= window or total >= steps:
            flush()

    if checkpoint is not None and window_index % checkpoint_every != 0:
        checkpoint(policy, window_index)
    return policy, logs
