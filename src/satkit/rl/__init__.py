"""Learned branching: observation encoding, actor-critic policy,
clipped-surrogate policy optimization, and episode collection.

Importing the package loads the training loop: ``train`` is bound
here eagerly, since a lazy export would be shadowed by the submodule
``satkit.rl.train`` once anything imports that module by name."""

from ..config import PpoConfig
from .heuristic import PolicyHeuristic
from .policy import Policy, save_policy_file
from .train import train

__all__ = ["Policy", "PolicyHeuristic", "PpoConfig", "save_policy_file", "train"]
