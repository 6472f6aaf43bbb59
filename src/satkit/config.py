"""Training configuration and the versions of what satkit writes.

``PpoConfig`` holds the policy optimizer's settings that ``satkit
train`` has flags for, with the flags' defaults; ``ConfigError`` is
raised for an out-of-range field, policy shape or policy seed.
``POLICY_FORMAT_VERSION`` is the format a policy checkpoint is written
in and the only one read, and ``FEATURE_SCHEMA_VERSION`` numbers the
48-slot feature schema of ``satkit.features``.

The module imports no numpy, so the command line can read the training
defaults and the versions without loading the learning stack.
``satkit.rl`` and ``satkit.rl.policy`` re-export ``PpoConfig`` and
``ConfigError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SatkitError

POLICY_FORMAT_VERSION = 3
FEATURE_SCHEMA_VERSION = 1


class ConfigError(SatkitError, ValueError):
    """A ``PpoConfig`` field, a policy shape or a policy seed is out of
    range."""


@dataclass(frozen=True)
class PpoConfig:
    learning_rate: float = 2e-4
    epochs: int = 4
    minibatch_size: int = 64
    rollout_window: int = 2048
    hidden_sizes: tuple[int, ...] = (256, 256)
    episode_max_decisions: int = 500

    def __post_init__(self) -> None:
        for name in ("epochs", "minibatch_size", "rollout_window", "episode_max_decisions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(size < 1 for size in self.hidden_sizes):
            raise ConfigError(f"hidden sizes must be >= 1, got {self.hidden_sizes}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
