"""Training configuration: ``PpoConfig``, the policy optimizer's settings
and the defaults of ``satkit train``, and ``ConfigError`` for an
out-of-range field or policy seed.

The module imports no numpy, so the command line can read the training
defaults without loading the learning stack. ``satkit.rl`` and
``satkit.rl.policy`` re-export both names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SatkitError


class ConfigError(SatkitError, ValueError):
    """A ``PpoConfig`` field or a policy seed is out of range."""


@dataclass(frozen=True)
class PpoConfig:
    learning_rate: float = 2e-4
    clip_epsilon: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    epochs: int = 4
    minibatch_size: int = 64
    rollout_window: int = 2048
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    hidden_sizes: tuple[int, ...] = (256, 256)
    episode_max_decisions: int = 500

    def __post_init__(self) -> None:
        for name in ("epochs", "minibatch_size", "rollout_window", "episode_max_decisions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(size < 1 for size in self.hidden_sizes):
            raise ConfigError(f"hidden sizes must be >= 1, got {self.hidden_sizes}")
        for name in ("learning_rate", "clip_epsilon", "entropy_coef", "value_coef"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        for name in ("discount", "gae_lambda"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
