"""Clipped-surrogate policy optimization over collected transitions.

The update maximizes

    mean(min(r * A, clip(r, 1-eps, 1+eps) * A))
        - VALUE_COEF * mean((V - R)^2)
        + ENTROPY_COEF * mean(H)

with r the new/old probability ratio, eps ``CLIP_EPSILON`` and A the
GAE advantage at ``DISCOUNT`` and ``GAE_LAMBDA``, computed per episode
(done flags cut the recursion). The five coefficients are constants of
the update, the usual values of the PPO and GAE papers; only the
settings of ``PpoConfig`` are chosen per run. Advantages are not
normalized, so the surrogate at the collection point equals the mean
advantage exactly, which the identity tests rely on. One Adam optimizer
steps the actor's and the critic's parameters together.

The batch is compact. A transition holds its observation's dynamic
block, and every transition of an episode refers to one array for the
static block (adjacency and features), which is most of the
observation. The update stacks each distinct static block once, and a
step multiplies each block by the first layers once, forward and
backward, rather than once per row. The critic's values for GAE are
computed in one batched call when the update starts: nothing has
stepped the weights since collection.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SatkitError
from .heuristic import Transition
from .network import Adam, Mlp
from .policy import Policy, masked_log_softmax

CLIP_EPSILON = 0.2
DISCOUNT = 0.99
GAE_LAMBDA = 0.95
ENTROPY_COEF = 0.01
VALUE_COEF = 0.5


class NonFiniteLossError(SatkitError):
    """A loss went non-finite; the update was rolled back."""


def clipped_surrogate(ratio: np.ndarray, advantage: np.ndarray) -> np.ndarray:
    """Elementwise min(r*A, clip(r, 1-eps, 1+eps)*A), eps ``CLIP_EPSILON``."""
    ratio = np.asarray(ratio, dtype=np.float64)
    advantage = np.asarray(advantage, dtype=np.float64)
    clipped = np.clip(ratio, 1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON)
    return np.minimum(ratio * advantage, clipped * advantage)


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    discount: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and value targets.

    Episodes terminate at done flags with no bootstrapping; a truncated
    tail (batch ending mid-episode) is treated the same way.
    """
    n = len(rewards)
    advantages = np.zeros(n, dtype=np.float64)
    next_value = 0.0
    next_advantage = 0.0
    for t in range(n - 1, -1, -1):
        live = 0.0 if dones[t] else 1.0
        delta = rewards[t] + discount * next_value * live - values[t]
        next_advantage = delta + discount * lam * live * next_advantage
        advantages[t] = next_advantage
        next_value = values[t]
    return advantages, advantages + values


def _batch_arrays(batch: Sequence[Transition]):
    """The batch as arrays: the dynamic rows, the distinct static blocks
    in order of first appearance, and each row's index into them."""
    blocks = {id(t.static): t.static for t in batch}
    slot = {key: k for k, key in enumerate(blocks)}
    dynamic = np.stack([t.observation for t in batch])
    statics = np.stack(list(blocks.values()))
    episodes = np.array([slot[id(t.static)] for t in batch], dtype=np.int64)
    actions = np.array([t.action for t in batch], dtype=np.int64)
    old_logp = np.array([t.log_prob for t in batch], dtype=np.float64)
    rewards = np.array([t.reward for t in batch], dtype=np.float64)
    dones = np.array([t.done for t in batch], dtype=bool)
    masks = np.stack([t.mask for t in batch])
    return dynamic, statics, episodes, actions, old_logp, rewards, dones, masks


def _fold_blocks(policy: Policy, net: Mlp, blocks: np.ndarray) -> np.ndarray:
    """``net``'s first-layer pre-activation from whole preprocessed static
    blocks, bias included, one row per block."""
    return net.fold(slice(policy.dynamic_dim, None), blocks)


class PpoOptimizer:
    """Stateful updater: owns the parameter list (actor, then critic),
    its Adam moments, the gradient list and the minibatch rng."""

    def __init__(self, policy: Policy):
        self.policy = policy
        self.params = policy.actor.parameters() + policy.critic.parameters()
        self.adam = Adam(self.params, policy.config.learning_rate)
        self.rng = np.random.default_rng(policy.seed)
        # The gradients and the rollback snapshot, in buffers allocated
        # once: a step writes into pages already mapped rather than into
        # fresh arrays.
        self._grads = [np.empty_like(p) for p in self.params]
        self._live = self.params + self.adam.m + self.adam.v
        self._saved = [np.empty_like(a) for a in self._live]

    def update(self, batch: Sequence[Transition]) -> np.ndarray:
        """One optimization over ``batch``: ``epochs`` passes of shuffled
        minibatch steps, returning the mean over the steps of
        ``ppo_loss_and_grads``'s metrics. A non-finite loss before a
        step, or non-finite parameters after the last, rolls the
        parameters, the Adam state and the minibatch rng back to where
        they were and raises ``NonFiniteLossError``."""
        if not batch:
            raise ValueError("empty transition batch")
        policy = self.policy
        cfg = policy.config
        dynamic, statics, episodes, actions, old_logp, rewards, dones, masks = _batch_arrays(batch)

        for saved, live in zip(self._saved, self._live):
            np.copyto(saved, live)
        saved_t = self.adam.t
        saved_rng = self.rng.bit_generator.state
        totals = np.zeros(4)
        steps = 0
        n = len(batch)
        try:
            # Non-finite values are checked for and rolled back, so numpy
            # need not warn about them on the way.
            with np.errstate(all="ignore"):
                critic_folds = _fold_blocks(policy, policy.critic, policy.preprocess(statics))
                values = policy.value(dynamic, critic_folds[episodes])
                advantages, returns = compute_gae(rewards, values, dones, DISCOUNT, GAE_LAMBDA)
                for _ in range(cfg.epochs):
                    order = self.rng.permutation(n)
                    for start in range(0, n, cfg.minibatch_size):
                        idx = order[start : start + cfg.minibatch_size]
                        metrics, grads = ppo_loss_and_grads(
                            policy,
                            dynamic[idx],
                            statics,
                            episodes[idx],
                            actions[idx],
                            old_logp[idx],
                            advantages[idx],
                            returns[idx],
                            masks[idx],
                            self._grads,
                        )
                        if not np.isfinite(metrics[:3]).all():
                            raise NonFiniteLossError("non-finite loss in update step")
                        self.adam.step(self.params, grads)
                        totals += metrics
                        steps += 1
                # A step's loss is checked before it, so the last step's
                # outcome only here.
                if not all(np.isfinite(p).all() for p in self.params):
                    raise NonFiniteLossError("non-finite parameters after update")
        except NonFiniteLossError:
            for saved, live in zip(self._saved, self._live):
                np.copyto(live, saved)
            self.adam.t = saved_t
            self.rng.bit_generator.state = saved_rng
            raise
        return totals / steps


def ppo_loss_and_grads(
    policy: Policy,
    dynamic: np.ndarray,
    statics: np.ndarray,
    episodes: np.ndarray,
    actions: np.ndarray,
    old_logp: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    masks: np.ndarray,
    grads: list[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Losses and analytic gradients for one minibatch, without stepping.

    Row i's observation is its dynamic block ``dynamic[i]`` followed by
    the static block ``statics[episodes[i]]``. Each net's first layer
    is the dynamic rows' product plus the fold of the static blocks,
    computed once per block and gathered per row; its static rows'
    gradient is one product per block too.

    The scalar being descended is
        policy_loss + VALUE_COEF * value_loss - ENTROPY_COEF * entropy,
    returned metrics are [policy_loss, value_loss, entropy, clip_fraction]
    and the gradients are in ``PpoOptimizer.params`` order: the actor's
    parameters, then the critic's, written into the arrays of ``grads``.
    """
    batch_size = len(dynamic)
    rows = np.arange(batch_size)
    x = policy.preprocess(dynamic)
    blocks = policy.preprocess(statics)
    tail = (blocks, episodes)
    actor_grads = 2 * policy.actor.num_layers

    logits, actor_cache = policy.actor.forward(
        x, _fold_blocks(policy, policy.actor, blocks)[episodes]
    )
    logp_all = masked_log_softmax(logits, masks)
    safe_logp = np.where(masks, logp_all, 0.0)
    probs = np.exp(safe_logp) * masks
    logp = logp_all[rows, actions]

    ratio = np.exp(logp - old_logp)
    surr1 = ratio * advantages
    surrogate = clipped_surrogate(ratio, advantages)
    entropy = -(probs * safe_logp).sum(axis=1)

    value_pred, critic_cache = policy.critic.forward(
        x, _fold_blocks(policy, policy.critic, blocks)[episodes]
    )
    value_pred = value_pred[:, 0]
    value_err = value_pred - returns
    value_loss = float(np.mean(value_err**2))
    policy_loss = -float(surrogate.mean())
    mean_entropy = float(entropy.mean())

    # d(-surrogate)/d logp: the clipped branch has zero gradient.
    coef = np.where(surr1 == surrogate, surr1, 0.0) / batch_size
    one_hot = np.zeros_like(logp_all)
    one_hot[rows, actions] = 1.0
    grad_logits = -coef[:, None] * (one_hot - probs)
    # entropy bonus: dH/dz = -p * (log p + H)
    grad_logits -= (
        ENTROPY_COEF * (-(probs * (safe_logp + entropy[:, None]))) / batch_size
    )
    grad_logits = np.where(masks, grad_logits, 0.0)
    policy.actor.backward(actor_cache, grad_logits, grads[:actor_grads], tail)

    grad_value = (VALUE_COEF * 2.0 * value_err / batch_size)[:, None]
    policy.critic.backward(critic_cache, grad_value, grads[actor_grads:], tail)

    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > CLIP_EPSILON))
    metrics = np.array([policy_loss, value_loss, mean_entropy, clip_fraction])
    return metrics, grads
