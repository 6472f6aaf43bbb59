"""Actor-critic policy over the solver observation space.

The action space has 2n entries for n variables: action 2j assigns
variable j+1 True, action 2j+1 assigns it False. An action is legal
while its variable is unassigned; illegal actions have probability
zero. The policy is bound to one formula shape (n, m), with n >= 1 and
m >= 1. A checkpoint (format 3) records that shape, the seed and the
``PpoConfig`` in a JSON header, then the actor's and the critic's
parameters in ``parameters()`` order; the layer shapes are derived from
the header, not stored.

Inference reads an observation in two parts: its dynamic block, the
n + m entries that change between decisions, and a network's ``fold``
of the static rest, computed once per formula. The dynamic block's
first n entries are the assignments, so ``act`` reads legality from
it. Without an rng ``act`` is greedy: the actor's products and one
pass over the logits that skips assigned variables' actions, with no
mask array built and no softmax taken. With one it samples from the
masked softmax and returns the log-probability. Training reads
observations in the same two parts, dynamic rows and the few distinct
static blocks they share; its forward and backward passes are
``ppo.ppo_loss_and_grads``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional

import numpy as np

from ..config import POLICY_FORMAT_VERSION, ConfigError, PpoConfig
from ..errors import SatkitError
from .network import Mlp
from .observation import flat_observation_dim

_MAGIC = b"CNFPOLICY\x00"


class AllMaskedError(SatkitError):
    """Every action is masked; cannot decide. Unreachable when at least
    one variable is unassigned, but kept as a defensive check."""


class PolicyFormatError(SatkitError):
    """Corrupt or truncated checkpoint; nothing was loaded."""


class VersionMismatchError(PolicyFormatError):
    pass


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
        actor_sizes, critic_sizes = self._set_up(num_vars, num_clauses, config, seed)
        rng = np.random.default_rng(seed)
        self.actor = Mlp(actor_sizes, rng, out_gain=0.01)
        self.critic = Mlp(critic_sizes, rng, out_gain=1.0)

    def _set_up(
        self, num_vars: int, num_clauses: int, config: PpoConfig, seed: int
    ) -> tuple[list[int], list[int]]:
        """Check the shape and the seed, record them and the settings,
        and return the actor's and the critic's layer sizes."""
        # A formula with no variable has no action, and one with no
        # clause no feature vector (DegenerateFormulaError).
        for name, size in (("variables", num_vars), ("clauses", num_clauses)):
            if isinstance(size, bool) or not isinstance(size, int) or size < 1:
                raise ConfigError(f"policy {name} must be an integer >= 1, got {size!r}")
        # Training seeds its rngs from it, and None would draw OS entropy.
        # An int >= 0 is what save_policy writes and load_policy reads.
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"policy seed must be an integer >= 0, got {seed!r}")
        self.num_vars = num_vars
        self.num_clauses = num_clauses
        self.config = config
        self.seed = seed
        actor_sizes, critic_sizes = _layer_sizes(num_vars, num_clauses, config.hidden_sizes)
        self.obs_dim = actor_sizes[0]
        # The observation leads with the n + m entries that change between
        # decisions (assignments, clause evaluations); the rest is static.
        self.dynamic_dim = num_vars + num_clauses
        self.num_actions = actor_sizes[-1]
        return actor_sizes, critic_sizes

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

    def fold(self, net: Mlp, index: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``net``'s first-layer pre-activation from the static block of an
        observation (adjacency and features), bias included, given by
        the positions ``index`` of its nonzero entries in the block and
        their ``values`` (``observation.static_entries``).

        The block is fixed for a formula, so the fold is computed once
        per instance, as one product over the nonzero entries' rows only
        (about 300 of a uf20-91's 1868). ``preprocess`` keeps 0, so the
        fold plus the dynamic block's product is the full first layer up
        to rounding; BLAS orders the product's sums, so the fold's last
        bits depend on the BLAS build and its thread count.
        """
        return net.fold(self.dynamic_dim + index, self.preprocess(values))

    def value(self, dynamic: np.ndarray, fold: np.ndarray) -> np.ndarray:
        """Critic estimates, one per row of ``dynamic`` (observations'
        dynamic blocks), given the critic's ``fold`` of each row's static
        block, one row of it per row or one for all."""
        return self.critic(self.preprocess(dynamic), fold)[..., 0]

    def act(
        self,
        dynamic: np.ndarray,
        fold: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[int, Optional[float]]:
        """Pick a legal action from an observation's dynamic block
        (assignments and clause evaluations) and the actor's ``fold`` of
        its static block. The actions of variable j are legal iff
        ``dynamic[j]`` is 0; ``AllMaskedError`` if none is.

        Without ``rng``: the legal action of the highest logit, ties to
        the lowest action index as ``np.argmax`` breaks them, and None
        for the log-probability (no softmax is taken). With ``rng``: a
        draw from the masked softmax and its log-probability.
        """
        values = dynamic[: self.num_vars].tolist()
        try:
            first = values.index(0)
        except ValueError:
            raise AllMaskedError("no legal action remains") from None
        logits = self.actor(self.preprocess(dynamic), fold)
        if rng is None:
            # One pass from the first legal action: a later one wins only
            # by a strictly higher logit.
            scores = logits.tolist()
            best = 2 * first
            top = scores[best]
            for action, score in enumerate(scores):
                if score > top and values[action >> 1] == 0:
                    best, top = action, score
            return best, None
        mask = legal_action_mask(values)
        logp = masked_log_softmax(logits[None, :], mask[None, :])[0]
        cumulative = np.cumsum(np.exp(logp))
        action = int(np.searchsorted(cumulative, rng.random(), side="right"))
        action = min(action, self.num_actions - 1)
        while not mask[action]:
            action -= 1  # float tail landed on a masked slot
        return action, float(logp[action])


def action_to_decision(action: int) -> int:
    """The literal an action branches on: +v for action 2(v-1), -v for
    action 2(v-1)+1."""
    var = action // 2 + 1
    return -var if action % 2 else var


def legal_action_mask(values: list[int]) -> np.ndarray:
    """Boolean mask of length 2n over the solver's per-variable
    ``values``; both actions of an assigned variable are illegal."""
    unassigned = np.asarray(values) == 0
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


def _layer_sizes(num_vars: int, num_clauses: int, hidden_sizes) -> tuple[list[int], list[int]]:
    """Actor and critic layer widths, observation first."""
    body = [flat_observation_dim(num_vars, num_clauses), *hidden_sizes]
    return body + [2 * num_vars], body + [1]


# -- checkpoint format --------------------------------------------------


def save_policy(policy: Policy) -> bytes:
    """The checkpoint bytes: the magic, the header's length, a JSON
    header of the format version, the shape, the seed and the config,
    then the actor's and the critic's parameters as little-endian
    float64, in ``parameters()`` order. The layer shapes are not stored:
    ``load_policy`` derives them from the header."""
    header = {
        "format_version": POLICY_FORMAT_VERSION,
        "num_vars": policy.num_vars,
        "num_clauses": policy.num_clauses,
        "seed": policy.seed,
        "config": asdict(policy.config),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
    parts = [
        _MAGIC,
        len(header_bytes).to_bytes(8, "little"),
        header_bytes,
    ]
    for arr in policy.actor.parameters() + policy.critic.parameters():
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def load_policy(data: bytes) -> Policy:
    """The policy a ``save_policy`` checkpoint holds, or a
    ``PolicyFormatError`` if the bytes are not a whole, well-formed one.

    ``Policy`` owns the header's rules: its shape, its seed and its
    ``PpoConfig`` are checked as a new policy's are, and the payload's
    size must match the layer sizes they give before any weight is
    allocated. The weights are copied from the payload into arrays
    allocated at those sizes; no random weights are built, so a load
    costs about a copy of the payload.
    """
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
    if not isinstance(header, dict):
        raise PolicyFormatError("checkpoint header is not a JSON object")
    version = header.get("format_version")
    if version != POLICY_FORMAT_VERSION:
        raise VersionMismatchError(
            f"checkpoint format {version!r}, expected {POLICY_FORMAT_VERSION}"
        )
    try:
        cfg = dict(header["config"])
        cfg["hidden_sizes"] = tuple(cfg["hidden_sizes"])
        policy = Policy.__new__(Policy)
        actor_sizes, critic_sizes = policy._set_up(
            header["num_vars"], header["num_clauses"], PpoConfig(**cfg), header["seed"]
        )
    except KeyError as exc:
        raise PolicyFormatError(f"checkpoint header lacks field {exc}") from None
    except (TypeError, ValueError) as exc:  # a ConfigError among them
        raise PolicyFormatError(f"malformed checkpoint header: {exc}") from None
    # Checked before any weight is allocated: an edited header must not
    # make a small file allocate a large policy.
    implied = 8 * sum(
        fan_in * fan_out + fan_out
        for sizes in (actor_sizes, critic_sizes)
        for fan_in, fan_out in zip(sizes, sizes[1:])
    )
    if implied != len(data) - offset:
        raise PolicyFormatError(
            f"checkpoint payload is {len(data) - offset} bytes, its header implies {implied}"
        )
    policy.actor = Mlp.allocate(actor_sizes)
    policy.critic = Mlp.allocate(critic_sizes)
    # The payload's size matched the layer sizes, so every array is filled.
    for i, arr in enumerate(policy.actor.parameters() + policy.critic.parameters()):
        arr[...] = np.frombuffer(data, dtype="<f8", count=arr.size, offset=offset).reshape(arr.shape)
        if not np.isfinite(arr).all():
            raise PolicyFormatError(f"parameter array {i} holds non-finite weights")
        offset += arr.nbytes
    return policy


def save_policy_file(policy: Policy, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save_policy(policy))


def load_policy_file(path) -> Policy:
    with open(path, "rb") as fh:
        return load_policy(fh.read())
