"""Learned branching: observation encoding, actor-critic policy,
clipped-surrogate policy optimization, and episode collection."""

from ..config import ConfigError, PpoConfig
from .observation import ShapeMismatchError
from .policy import (
    AllMaskedError,
    Policy,
    PolicyFormatError,
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
from .train import TrainingDataError, TrainWindowLog, run_episode, train

__all__ = [
    "AllMaskedError",
    "ConfigError",
    "NonFiniteLossError",
    "Policy",
    "PolicyFormatError",
    "PolicyHeuristic",
    "PpoConfig",
    "PpoOptimizer",
    "ShapeMismatchError",
    "TrainWindowLog",
    "TrainingDataError",
    "Transition",
    "UpdateMetrics",
    "VersionMismatchError",
    "clipped_surrogate",
    "compute_gae",
    "load_policy",
    "load_policy_file",
    "ppo_loss_and_grads",
    "run_episode",
    "save_policy",
    "save_policy_file",
    "train",
]
