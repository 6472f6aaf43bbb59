"""Learned branching: observation encoding, actor-critic policy,
clipped-surrogate policy optimization, and episode collection."""

from .observation import (
    ShapeMismatchError,
    build_observation,
    clause_evaluations,
    compute_reward,
    signed_adjacency,
)
from .policy import (
    AllMaskedError,
    Policy,
    PolicyFormatError,
    PpoConfig,
    VersionMismatchError,
    load_policy,
    load_policy_file,
    save_policy,
    save_policy_file,
)
from .ppo import (
    NonFiniteLossError,
    PpoOptimizer,
    Transition,
    UpdateMetrics,
    clipped_surrogate,
    compute_gae,
    ppo_loss_and_grads,
)
from .heuristic import PolicyHeuristic
from .train import TrainWindowLog, run_episode, train

__all__ = [
    "AllMaskedError",
    "NonFiniteLossError",
    "Policy",
    "PolicyFormatError",
    "PolicyHeuristic",
    "PpoConfig",
    "PpoOptimizer",
    "ShapeMismatchError",
    "TrainWindowLog",
    "Transition",
    "UpdateMetrics",
    "VersionMismatchError",
    "build_observation",
    "clause_evaluations",
    "clipped_surrogate",
    "compute_gae",
    "compute_reward",
    "load_policy",
    "load_policy_file",
    "ppo_loss_and_grads",
    "run_episode",
    "save_policy",
    "save_policy_file",
    "signed_adjacency",
    "train",
]
