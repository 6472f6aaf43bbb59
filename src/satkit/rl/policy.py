"""Actor-critic policy over the solver observation space.

The action space has 2n entries for n variables: action 2j assigns
variable j+1 True, action 2j+1 assigns it False. Actions on assigned
variables are masked to probability zero before sampling. The policy
is bound to one formula shape (n, m), which is recorded, along with
hyperparameters, seed and weights, in the checkpoint format.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ..cnf import Assignment
from ..errors import SatkitError
from ..solver.engine import HeuristicDecision
from .network import Mlp
from .observation import flat_observation_dim

POLICY_FORMAT_VERSION = 1
_MAGIC = b"CNFPOLICY\x00"


class AllMaskedError(SatkitError):
    """Every action is masked; cannot decide. Unreachable when at least
    one variable is unassigned, but kept as a defensive check."""


class PolicyFormatError(SatkitError):
    """Corrupt or truncated checkpoint; nothing was loaded."""


class VersionMismatchError(PolicyFormatError):
    pass


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
    reward_mode: str = "absolute"  # or "delta": per-step change in the count
    episode_max_decisions: int = 500


class Policy:
    def __init__(
        self,
        num_vars: int,
        num_clauses: int,
        config: Optional[PpoConfig] = None,
        seed: int = 0,
    ):
        if config is None:
            config = PpoConfig()
        if config.reward_mode not in ("absolute", "delta"):
            raise ValueError(f"unknown reward_mode {config.reward_mode!r}")
        self.num_vars = num_vars
        self.num_clauses = num_clauses
        self.config = config
        self.seed = seed
        self.obs_dim = flat_observation_dim(num_vars, num_clauses)
        # The observation leads with the n + m entries that change between
        # decisions (assignments, clause evaluations); the rest is static.
        self.dynamic_dim = num_vars + num_clauses
        self.num_actions = 2 * num_vars
        rng = np.random.default_rng(seed)
        hidden = list(config.hidden_sizes)
        self.actor = Mlp([self.obs_dim] + hidden + [self.num_actions], rng, out_gain=0.01)
        self.critic = Mlp([self.obs_dim] + hidden + [1], rng, out_gain=1.0)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_vars, self.num_clauses)

    # -- inference -----------------------------------------------------

    def preprocess(self, obs: np.ndarray) -> np.ndarray:
        """Fixed input squashing x / (1 + |x|), part of the architecture.

        The ternary observation blocks pass through monotonically while
        unbounded global features (counts, ratios) are compressed into
        (-1, 1); without this the first tanh layer saturates and
        gradients vanish.
        """
        return obs / (1.0 + np.abs(obs))

    def fold(self, net: Mlp, static: np.ndarray) -> np.ndarray:
        """``net``'s first-layer pre-activation from the static block of an
        observation (adjacency and features), bias included.

        The block is fixed for a formula, so the fold is computed once
        per instance; ``preprocess`` is elementwise, so the fold plus the
        dynamic block's product equals the full first layer.
        """
        return net.fold(self.preprocess(static))

    def _inputs(
        self, obs: np.ndarray, net: Mlp, folded: Optional[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Preprocessed dynamic block and ``net``'s fold. A full
        observation (``folded`` None) is split and folded here."""
        if folded is None:
            obs, folded = obs[: self.dynamic_dim], self.fold(net, obs[self.dynamic_dim :])
        return self.preprocess(obs), folded

    def value(self, obs: np.ndarray, folded: Optional[np.ndarray] = None) -> float:
        """Critic estimate for a full observation, or for its dynamic
        block given the critic's ``fold``."""
        x, folded = self._inputs(obs, self.critic, folded)
        return float(self.critic(x, folded)[0])

    def act(
        self,
        obs: np.ndarray,
        mask: np.ndarray,
        mode: str = "greedy",
        rng: Optional[np.random.Generator] = None,
        folded: Optional[np.ndarray] = None,
        with_log_prob: bool = True,
    ) -> tuple[int, Optional[float]]:
        """Pick an action under the mask.

        ``obs`` is a full observation, or its dynamic block (assignments
        and clause evaluations) when ``folded`` is the actor's ``fold`` of
        the static block. Returns (action, log_probability). Greedy mode
        takes the masked argmax with ties to the lowest action index;
        sample mode draws from the masked softmax using ``rng``. Greedy
        mode without ``with_log_prob`` skips the softmax and returns None
        for the log-probability.
        """
        if not mask.any():
            raise AllMaskedError("no legal action remains")
        x, folded = self._inputs(obs, self.actor, folded)
        logits = self.actor(x, folded)
        if mode == "greedy":
            action = int(np.argmax(np.where(mask, logits, -np.inf)))
            if not with_log_prob:
                return action, None
            logp = masked_log_softmax(logits[None, :], mask[None, :])[0]
        elif mode == "sample":
            if rng is None:
                raise ValueError("sample mode needs an rng")
            logp = masked_log_softmax(logits[None, :], mask[None, :])[0]
            probs = np.exp(logp)
            cumulative = np.cumsum(probs)
            draw = rng.random()
            action = int(np.searchsorted(cumulative, draw, side="right"))
            action = min(action, self.num_actions - 1)
            while not mask[action]:
                action -= 1  # float tail landed on a masked slot
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return action, float(logp[action])


def action_to_decision(action: int) -> HeuristicDecision:
    return HeuristicDecision(var=action // 2 + 1, value=action % 2 == 0)


def legal_action_mask(assignment: Assignment) -> np.ndarray:
    """Boolean mask of length 2n; both actions of an assigned variable
    are illegal."""
    unassigned = np.asarray(assignment.values) == 0
    return np.repeat(unassigned, 2)


def masked_log_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over legal entries; masked entries get -inf
    (probability exactly 0)."""
    masked = np.where(mask, logits, -np.inf)
    peak = masked.max(axis=1, keepdims=True)
    shifted = masked - peak
    exps = np.where(mask, np.exp(shifted), 0.0)
    total = exps.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        return np.where(mask, shifted - np.log(total), -np.inf)


# -- checkpoint format --------------------------------------------------


def _array_manifest(policy: Policy) -> list[tuple[str, np.ndarray]]:
    out = []
    for net_name, net in (("actor", policy.actor), ("critic", policy.critic)):
        for i, arr in enumerate(net.parameters()):
            out.append((f"{net_name}.{i}", arr))
    return out


def save_policy(policy: Policy) -> bytes:
    arrays = _array_manifest(policy)
    header = {
        "format_version": POLICY_FORMAT_VERSION,
        "num_vars": policy.num_vars,
        "num_clauses": policy.num_clauses,
        "seed": policy.seed,
        "config": asdict(policy.config),
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
    parts = [
        _MAGIC,
        len(header_bytes).to_bytes(8, "little"),
        header_bytes,
    ]
    for _, arr in arrays:
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def load_policy(data: bytes) -> Policy:
    if len(data) < len(_MAGIC) + 8 or not data.startswith(_MAGIC):
        raise PolicyFormatError("not a policy checkpoint")
    offset = len(_MAGIC)
    header_len = int.from_bytes(data[offset : offset + 8], "little")
    offset += 8
    if len(data) < offset + header_len:
        raise PolicyFormatError("truncated checkpoint header")
    try:
        header = json.loads(data[offset : offset + header_len].decode("ascii"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise PolicyFormatError(f"unreadable checkpoint header: {exc}") from None
    offset += header_len
    version = header.get("format_version")
    if version != POLICY_FORMAT_VERSION:
        raise VersionMismatchError(
            f"checkpoint format {version!r}, expected {POLICY_FORMAT_VERSION}"
        )
    cfg = dict(header["config"])
    cfg["hidden_sizes"] = tuple(cfg["hidden_sizes"])
    policy = Policy(
        header["num_vars"],
        header["num_clauses"],
        PpoConfig(**cfg),
        header["seed"],
    )
    arrays = _array_manifest(policy)
    declared = header["arrays"]
    if [a["name"] for a in declared] != [name for name, _ in arrays]:
        raise PolicyFormatError("checkpoint array manifest does not match")
    for meta, (_, arr) in zip(declared, arrays):
        shape = tuple(meta["shape"])
        if shape != arr.shape:
            raise PolicyFormatError(f"array {meta['name']} has shape {shape}, expected {arr.shape}")
        nbytes = int(np.prod(shape)) * 8 if shape else 8
        chunk = data[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise PolicyFormatError("truncated checkpoint payload")
        arr[...] = np.frombuffer(chunk, dtype="<f8").reshape(shape)
        offset += nbytes
    if offset != len(data):
        raise PolicyFormatError("trailing bytes after checkpoint payload")
    return policy


def save_policy_file(policy: Policy, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save_policy(policy))


def load_policy_file(path) -> Policy:
    with open(path, "rb") as fh:
        return load_policy(fh.read())
