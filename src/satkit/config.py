"""Training configuration and the versions of what satkit writes.

``PpoConfig`` holds the policy optimizer's settings that ``satkit
train`` has flags for, with the flags' defaults; ``ConfigError`` is
raised for a field, policy shape or policy seed of the wrong type or
out of range.
``POLICY_FORMAT_VERSION`` is the format a policy checkpoint is written
in and the only one read, and ``FEATURE_SCHEMA_VERSION`` numbers the
48-slot feature schema of ``satkit.features``.

The module imports no numpy, so the command line can read the training
defaults and the versions without loading the learning stack.
``satkit.rl`` re-exports ``PpoConfig``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SatkitError

POLICY_FORMAT_VERSION = 3
FEATURE_SCHEMA_VERSION = 1


class ConfigError(SatkitError, ValueError):
    """A ``PpoConfig`` field, a policy shape or a policy seed is of the
    wrong type or out of range."""


@dataclass(frozen=True)
class PpoConfig:
    learning_rate: float = 2e-4
    epochs: int = 4
    minibatch_size: int = 64
    rollout_window: int = 2048
    hidden_sizes: tuple[int, ...] = (256, 256)
    episode_max_decisions: int = 500

    def __post_init__(self) -> None:
        # A checkpoint header's 4.5 or true is refused here, not met as a
        # TypeError in training.
        for name in ("epochs", "minibatch_size", "rollout_window", "episode_max_decisions"):
            if not _is_count(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        sizes = self.hidden_sizes
        if not (isinstance(sizes, tuple) and all(_is_count(size) for size in sizes)):
            raise ConfigError(f"hidden_sizes must be a tuple of integers >= 1, got {sizes!r}")
        lr = self.learning_rate
        is_number = isinstance(lr, (int, float)) and not isinstance(lr, bool)
        if not (is_number and math.isfinite(lr) and lr >= 0.0):
            raise ConfigError(f"learning_rate must be a finite number >= 0, got {lr!r}")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1
