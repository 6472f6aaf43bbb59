import math
import random
import warnings

import numpy as np
import pytest

from satkit.generators import planted_ksat
from satkit.rl.heuristic import Transition
from satkit.rl.network import ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, Adam, Mlp, cholesky_qr, orthogonal_init
from satkit.rl.policy import ConfigError, Policy, PpoConfig, save_policy
from satkit.rl.ppo import (
    NonFiniteLossError,
    PpoOptimizer,
    _batch_arrays,
    clipped_surrogate,
    compute_gae,
    ppo_loss_and_grads,
)

from satkit.rl.train import run_episode, train

from oracles import (
    adam_step_reference,
    assert_close,
    dense_ppo_loss_and_grads,
    full_logits,
    full_value,
    gradient_buffers,
    householder_orthogonal_init,
    run_bandit,
    textbook_adam_step,
    whole_observations,
)

TINY = PpoConfig(hidden_sizes=(2,), minibatch_size=4, epochs=1)


def make_transition(policy, rng, action=0, logp_offset=0.0, reward=1.0, done=True):
    from satkit.rl.policy import masked_log_softmax

    obs = rng.standard_normal(policy.obs_dim)
    mask = np.ones(policy.num_actions, dtype=bool)
    logits = full_logits(policy, obs)[None, :]
    logp = float(masked_log_softmax(logits, mask[None, :])[0, action])
    d = policy.dynamic_dim
    return Transition(obs[:d], obs[d:], action, logp + logp_offset, reward, done, mask)


def count_adam_steps(optimizer):
    """Record each Adam step ``optimizer`` takes in the returned list."""
    steps = []
    step = optimizer.adam.step
    optimizer.adam.step = lambda grads: (steps.append(optimizer.adam.t), step(grads))
    return steps


class TestClippedSurrogate:
    def test_analytic_clip_case(self):
        # r=2.0, A=1, eps=0.2 -> min(2.0, 1.2) = 1.2
        assert clipped_surrogate(np.array([2.0]), np.array([1.0]))[0] == 1.2

    def test_interior_ratio_unclipped(self):
        assert clipped_surrogate(np.array([1.1]), np.array([2.0]))[0] == pytest.approx(2.2)

    def test_negative_advantage_clips_low_side(self):
        # r=0.5 below 1-eps: min(0.5*-1, 0.8*-1) = -0.8
        assert clipped_surrogate(np.array([0.5]), np.array([-1.0]))[0] == -0.8


class TestGae:
    def test_hand_computed_single_episode(self):
        rewards = np.array([1.0, 2.0, 3.0])
        values = np.array([0.5, 0.5, 0.5])
        dones = np.array([False, False, True])
        adv, ret = compute_gae(rewards, values, dones)
        # discount 0.99 and lambda 0.95: each step's delta is
        # r + 0.99 * 0.5 - 0.5, the last one's r - 0.5
        assert adv == pytest.approx([5.082648125, 4.34625, 2.5])
        assert ret == pytest.approx([5.582648125, 4.84625, 3.0])

    def test_done_flag_stops_credit_flow(self):
        rewards = np.array([1.0, 2.0, 5.0])
        values = np.array([0.5, 0.5, 0.5])
        dones = np.array([False, True, True])
        adv, _ = compute_gae(rewards, values, dones)
        # episode 2 (last transition) must not leak into episode 1
        assert adv[2] == pytest.approx(4.5)
        assert adv[1] == pytest.approx(1.5)
        assert adv[0] == pytest.approx(0.995 + 0.99 * 0.95 * 1.5)


class TestNetwork:
    def test_orthogonal_init_is_orthogonal(self):
        rng = np.random.default_rng(0)
        w = orthogonal_init(rng, (8, 4), gain=1.0)
        assert np.allclose(w.T @ w, np.eye(4), atol=1e-10)
        w2 = orthogonal_init(rng, (3, 7), gain=2.0)
        assert np.allclose((w2 / 2.0) @ (w2 / 2.0).T, np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("shape", [(1979, 256), (256, 256), (256, 40), (256, 1), (3, 7), (8, 4)])
    def test_orthogonal_init_matches_householder_qr(self, shape):
        small = min(shape)
        for seed in range(20):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            w = orthogonal_init(rng, shape, gain=2.0)
            expected = householder_orthogonal_init(oracle_rng, shape, gain=2.0)
            assert w.shape == shape and w.flags.c_contiguous
            assert np.abs(w - expected).max() <= 1e-12
            gram = (w.T @ w if shape[0] >= shape[1] else w @ w.T) / 4.0
            assert np.abs(gram - np.eye(small)).max() <= 1e-12
            assert rng.random() == oracle_rng.random()  # the same draws, no more

    @pytest.mark.parametrize("shape", [(1979, 256), (256, 256), (7, 3)])
    def test_cholesky_qr_stays_orthonormal_at_condition_1e12(self, shape):
        rows, cols = shape
        rng = np.random.default_rng(5)
        u = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
        a = (u * np.logspace(0, -12, cols)) @ v.T
        assert np.linalg.cond(a) > 1e11
        q = cholesky_qr(a.copy())
        assert np.abs(q.T @ q - np.eye(cols)).max() <= 1e-12
        # and it spans a's columns, with R = Q^T a upper triangular
        r = q.T @ a
        assert np.abs(np.tril(r, -1)).max() <= 1e-12
        assert (np.diag(r) > 0).all()

    def test_forward_shapes(self):
        rng = np.random.default_rng(0)
        net = Mlp([5, 3, 2], rng)
        out, cache = net.forward(np.zeros((7, 2)), net.fold(np.arange(2, 5), np.zeros((7, 3))))
        assert out.shape == (7, 2)
        assert len(cache) == 3

    def test_adam_lr_zero_is_identity(self):
        rng = np.random.default_rng(0)
        net = Mlp([3, 2], rng)
        before = [p.copy() for p in net.parameters()]
        opt = Adam(net.parameters(), lr=0.0)
        grads = [np.ones_like(p) for p in net.parameters()]
        opt.step(grads)
        for b, a in zip(before, net.parameters()):
            assert np.array_equal(b, a)


def policy_parameters(rng):
    policy = Policy(20, 91, seed=0)
    return policy.actor.parameters() + policy.critic.parameters()


def adam_gradients(rng, params):
    """One gradient per parameter: magnitudes from 1e-6 to 1e2, and some
    exact zeros."""
    return [
        rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3, p.shape)
        * (rng.random(p.shape) > 0.1)
        for p in params
    ]


class TestAdam:
    @pytest.mark.parametrize(
        "make_params",
        [
            pytest.param(lambda rng: [rng.standard_normal(37)], id="bias-under-one-block"),
            pytest.param(lambda rng: [rng.standard_normal(ADAM_BLOCK)], id="exactly-one-block"),
            pytest.param(lambda rng: [rng.standard_normal(ADAM_BLOCK + 1)], id="one-block-plus-one"),
            # 37,000 does not divide the block, so blocks end mid-row
            pytest.param(
                lambda rng: [rng.standard_normal((3, 37_000)), rng.standard_normal(5)],
                id="rows-straddle-blocks",
            ),
            pytest.param(policy_parameters, id="policy-20-91"),
        ],
    )
    def test_blocked_step_matches_whole_array_reference(self, make_params):
        rng = np.random.default_rng(5)
        params = make_params(rng)
        expected = [p.copy() for p in params]
        m_ref = [np.zeros_like(p) for p in params]
        v_ref = [np.zeros_like(p) for p in params]
        adam = Adam(params, lr=2e-4)
        for t in range(1, 6):
            grads = adam_gradients(rng, params)
            adam.step(grads)
            adam_step_reference(expected, grads, m_ref, v_ref, t, lr=2e-4)
            for got, want in zip(params + adam.m + adam.v, expected + m_ref + v_ref):
                assert np.array_equal(got, want), f"step {t} differs"
        assert adam.t == 5

    @pytest.mark.parametrize("first_t", [1, 1996], ids=["steps-1-to-5", "steps-1996-to-2000"])
    def test_step_matches_textbook_adam(self, first_t):
        """Against Algorithm 1 of the Adam paper, whose moments are the
        stored sums times (1 - beta1) and (1 - beta2). The late stretch
        starts from moments a run would have built up. The parameters are
        of the size of a step, so that 1e-12 of them bounds the step's
        error too."""
        rng = np.random.default_rng(9)
        params = [1e-3 * rng.standard_normal((3, 37_000)), 1e-3 * rng.standard_normal(5)]
        expected = [p.copy() for p in params]
        m_ref = [np.zeros_like(p) for p in params]
        v_ref = [np.zeros_like(p) for p in params]
        adam = Adam(params, lr=2e-4)
        if first_t > 1:
            adam.t = first_t - 1
            for g, mi, vi, m, v in zip(adam_gradients(rng, params), m_ref, v_ref, adam.m, adam.v):
                mi += 0.1 * g
                vi += 1e-3 * g * g
                np.divide(mi, 1.0 - ADAM_BETA1, out=m)
                np.divide(vi, 1.0 - ADAM_BETA2, out=v)
        for t in range(first_t, first_t + 5):
            grads = adam_gradients(rng, params)
            adam.step(grads)
            textbook_adam_step(expected, grads, m_ref, v_ref, t, lr=2e-4)
            for i, (p, want) in enumerate(zip(params, expected)):
                assert_close(p, want)
                assert_close(adam.m[i] * (1.0 - ADAM_BETA1), m_ref[i])
                assert_close(adam.v[i] * (1.0 - ADAM_BETA2), v_ref[i])
        assert adam.t == first_t + 4

    @pytest.mark.parametrize("extra", ["grads"])
    def test_lists_of_different_lengths_raise(self, extra):
        rng = np.random.default_rng(0)
        params = [rng.standard_normal(4), rng.standard_normal(3)]
        grads = [np.ones(4), np.ones(3)]
        adam = Adam(params, lr=0.1)
        adam.step(grads)
        before = [[a.copy() for a in arrays] for arrays in (params, adam.m, adam.v)]
        grads.append(np.ones(2))
        with pytest.raises(ValueError, match="Adam steps 2 parameter arrays"):
            adam.step(grads)
        # refused before anything moved: the step count, every parameter and both moments
        assert adam.t == 1
        for arrays, saved in zip((params, adam.m, adam.v), before):
            for a, b in zip(arrays, saved):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "make",
        [lambda: np.asfortranarray(np.ones((3, 4))), lambda: np.ones((4, 3)).T],
        ids=["fortran-order", "transposed-view"],
    )
    def test_non_c_contiguous_parameter_rejected_at_construction(self, make):
        # A block of such an array would be a copy, and the update lost:
        # Adam refuses the array instead of updating it.
        with pytest.raises(ValueError, match="parameter 1 is not"):
            Adam([np.ones(4), make()], lr=0.1)


class TestConfig:
    @pytest.mark.parametrize(
        "field, values",
        [
            pytest.param(
                "learning_rate", [-1.0, math.nan, math.inf, "0.1", None, True, [0.1]], id="learning_rate"
            ),
        ],
    )
    def test_out_of_range_float_rejected(self, field, values):
        for value in values:
            with pytest.raises(ConfigError, match=field):
                PpoConfig(**{field: value})

    def test_range_ends_accepted(self):
        PpoConfig(learning_rate=0.0)

    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4", None, 0], ids=repr)
    @pytest.mark.parametrize("field", ["epochs", "minibatch_size", "rollout_window", "episode_max_decisions"])
    def test_count_that_is_not_an_integer_of_at_least_1_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            PpoConfig(**{field: value})

    @pytest.mark.parametrize("sizes", [(16, 2.5), (True,), ("8",), (0,), 16, [16]], ids=repr)
    def test_hidden_size_that_is_not_an_integer_of_at_least_1_rejected(self, sizes):
        with pytest.raises(ConfigError, match="hidden_sizes"):
            PpoConfig(hidden_sizes=sizes)

    @pytest.mark.parametrize(
        "name", ["clip_epsilon", "discount", "gae_lambda", "entropy_coef", "value_coef"]
    )
    def test_the_ppo_coefficients_are_not_settable(self, name):
        # They are constants of the update (satkit.rl.ppo), not settings.
        with pytest.raises(TypeError):
            PpoConfig(**{name: 0.5})


from oracles import finite_difference_check


class TestGradients:
    def test_gradients_match_finite_differences_interior_ratio(self):
        policy = Policy(1, 1, TINY, seed=42)
        rng = np.random.default_rng(0)
        batch = [make_transition(policy, rng, action=0, logp_offset=0.1)]
        worst = finite_difference_check(policy, batch)
        assert worst < 1e-4

    def test_gradients_match_finite_differences_clipped_ratio(self):
        policy = Policy(1, 1, TINY, seed=43)
        rng = np.random.default_rng(1)
        # old_logp offset -0.5 -> ratio e^0.5 > 1.2: clipped branch active
        batch = [make_transition(policy, rng, action=1, logp_offset=-0.5)]
        finite_difference_check(policy, batch)

    def test_gradients_match_on_small_batch(self):
        policy = Policy(2, 3, TINY, seed=44)
        rng = np.random.default_rng(2)
        batch = [
            make_transition(policy, rng, action=a, logp_offset=o)
            for a, o in ((0, 0.05), (3, -0.05), (2, 0.15))
        ]
        finite_difference_check(policy, batch)


def make_episode(policy, rng, length):
    """``length`` transitions of one episode: random dynamic blocks, one
    shared random static block, the last one done."""
    from satkit.rl.policy import masked_log_softmax

    d = policy.dynamic_dim
    static = rng.standard_normal(policy.obs_dim - d)
    mask = np.ones(policy.num_actions, dtype=bool)
    episode = []
    for i in range(length):
        dynamic = rng.standard_normal(d)
        action = int(rng.integers(policy.num_actions))
        logits = full_logits(policy, np.concatenate([dynamic, static]))[None, :]
        logp = float(masked_log_softmax(logits, mask[None, :])[0, action])
        episode.append(Transition(dynamic, static, action, logp + 0.1 * (i - 1), 1.0, i == length - 1, mask))
    return episode


class TestGradientsOnSharedBlocks:
    def test_gradients_match_finite_differences_when_rows_share_a_block(self):
        # Two episodes of two and three rows: the static rows' gradient
        # is a sum per block before the product.
        policy = Policy(2, 3, TINY, seed=45)
        rng = np.random.default_rng(6)
        batch = make_episode(policy, rng, 2) + make_episode(policy, rng, 3)
        finite_difference_check(policy, batch)


def collected_batch(policy, kind):
    """Transitions collected by ``run_episode`` on planted uf20-91
    instances: several episodes, one episode, or several with the last
    cut short as ``train`` cuts its final window."""
    rng = np.random.default_rng(11)
    count = 1 if kind == "single-episode" else 4
    batch = []
    for k in range(count):
        trajectory, _ = run_episode(planted_ksat(20, 91, random.Random(300 + k)), policy, rng)
        batch += trajectory
    if kind == "truncated-tail":
        batch = batch[:-2]
        assert not batch[-1].done
    return batch


class TestCompactBatch:
    """The compact batch's loss and gradients against the dense oracle,
    which takes each row's whole observation through whole layers."""

    @pytest.mark.parametrize("kind", ["episodes", "single-episode", "truncated-tail"])
    def test_matches_the_dense_oracle_within_1e_12(self, kind):
        policy = Policy(20, 91, PpoConfig(hidden_sizes=(32, 16)), seed=9)
        batch = collected_batch(policy, kind)
        rng = np.random.default_rng(12)
        dynamic, statics, episodes, actions, old_logp, _, _, masks = _batch_arrays(batch)
        assert len(statics) == (1 if kind == "single-episode" else 4)
        obs = whole_observations(batch)
        old_logp = old_logp + rng.normal(0.0, 0.2, len(batch))  # some ratios clip
        advantages = rng.standard_normal(len(batch))
        returns = rng.standard_normal(len(batch))
        # a minibatch as the update draws it: shuffled rows, all blocks
        for idx in (np.arange(len(batch)), rng.permutation(len(batch))[:16]):
            args = (actions[idx], old_logp[idx], advantages[idx], returns[idx], masks[idx])
            metrics, grads = ppo_loss_and_grads(
                policy, dynamic[idx], statics, episodes[idx], *args, gradient_buffers(policy)
            )
            want_metrics, want_grads = dense_ppo_loss_and_grads(policy, obs[idx], *args)
            if len(idx) == len(batch):
                assert 0.0 < metrics[3] < 1.0  # both sides of the clip
            for got, want in zip(metrics, want_metrics):
                assert_close(got, want)
            assert len(grads) == len(want_grads)
            for got, want in zip(grads, want_grads):
                assert got.shape == want.shape
                assert_close(got, want)

    def test_overwrites_every_entry_of_the_gradient_list(self):
        policy = Policy(20, 91, PpoConfig(hidden_sizes=(8,)), seed=9)
        batch = collected_batch(policy, "episodes")
        dynamic, statics, episodes, actions, old_logp, rewards, _, masks = _batch_arrays(batch)
        args = (policy, dynamic, statics, episodes, actions, old_logp, rewards, rewards, masks)
        stale = [np.full_like(g, np.nan) for g in gradient_buffers(policy)]
        _, grads = ppo_loss_and_grads(*args, stale)
        _, fresh = ppo_loss_and_grads(*args, [np.zeros_like(g) for g in stale])
        assert grads is stale
        for got, want in zip(grads, fresh):
            assert np.isfinite(got).all() and np.array_equal(got, want)

    def test_training_matches_the_dense_oracle(self, monkeypatch):
        """Training with the dense loss in place of the compact one: the
        same windows, update metrics and final parameters within 1e-12."""
        import satkit.rl.ppo as ppo_module

        def dense(policy, dynamic, statics, episodes, *args):
            *args, grads = args
            obs = np.concatenate([dynamic, statics[episodes]], axis=1)
            metrics, dense_grads = dense_ppo_loss_and_grads(policy, obs, *args)
            for out, g in zip(grads, dense_grads):
                out[...] = g
            return metrics, grads

        rng = random.Random(7)
        dataset = [planted_ksat(20, 91, rng) for _ in range(12)]
        config = PpoConfig(hidden_sizes=(32, 32), rollout_window=60, minibatch_size=32)
        policy, logs = train(dataset, Policy(20, 91, config, 3), 200)
        monkeypatch.setattr(ppo_module, "ppo_loss_and_grads", dense)
        reference, expected = train(dataset, Policy(20, 91, config, 3), 200)

        def windows(logs):
            return [(log.window, log.steps, log.mean_reward, log.mean_decisions) for log in logs]

        assert windows(logs) == windows(expected) and len(logs) >= 3
        for log, want in zip(logs, expected):
            for name in ("policy_loss", "value_loss", "entropy", "clip_fraction"):
                assert_close(getattr(log, name), getattr(want, name))
        for got, want in zip(
            policy.actor.parameters() + policy.critic.parameters(),
            reference.actor.parameters() + reference.critic.parameters(),
        ):
            assert_close(got, want)


class TestUpdate:
    def test_learning_rate_zero_leaves_parameters_bitwise_unchanged(self):
        config = PpoConfig(learning_rate=0.0, hidden_sizes=(8,), minibatch_size=8, epochs=2)
        policy = Policy(2, 3, config, seed=5)
        before = save_policy(policy)
        rng = np.random.default_rng(3)
        batch = [make_transition(policy, rng) for _ in range(6)]
        optimizer = PpoOptimizer(policy)
        optimizer.update(batch)
        assert save_policy(policy) == before

    def test_ratio_one_identity_surrogate_equals_mean_advantage(self):
        # Freshly collected transitions have ratio exactly 1, so the
        # first surrogate equals the mean advantage analytically.
        policy = Policy(2, 3, PpoConfig(hidden_sizes=(8,)), seed=6)
        rng = np.random.default_rng(4)
        batch = [make_transition(policy, rng, reward=float(i), done=True) for i in range(5)]
        dynamic, statics, episodes, actions, old_logp, rewards, dones, masks = _batch_arrays(batch)
        values = np.array([full_value(policy, obs) for obs in whole_observations(batch)])
        advantages, returns = compute_gae(rewards, values, dones)
        metrics, _ = ppo_loss_and_grads(
            policy, dynamic, statics, episodes, actions, old_logp, advantages, returns, masks,
            gradient_buffers(policy),
        )
        assert metrics[0] == pytest.approx(-float(advantages.mean()), rel=1e-9, abs=1e-9)
        assert metrics[3] == 0.0  # nothing clipped at ratio 1

    def test_non_finite_loss_rolls_back(self):
        policy = Policy(2, 3, PpoConfig(hidden_sizes=(8,), minibatch_size=2), seed=7)
        rng = np.random.default_rng(5)
        batch = [make_transition(policy, rng) for _ in range(5)]
        # An infinite reward makes its own advantage infinite and, through
        # the GAE recursion, every earlier one NaN: only index 0 is poisoned.
        poisoned = [make_transition(policy, rng, reward=float("inf"))] + batch
        optimizer = PpoOptimizer(policy)
        optimizer.update(batch)  # moves the weights and the Adam moments
        before = save_policy(policy)
        t_before = optimizer.adam.t
        adam_before = {
            "m": [m.copy() for m in optimizer.adam.m],
            "v": [v.copy() for v in optimizer.adam.v],
        }
        steps = count_adam_steps(optimizer)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLossError):
                optimizer.update(poisoned)
        assert steps, "the poisoned minibatch came first; nothing was rolled back"
        assert optimizer.adam.t == t_before
        assert save_policy(policy) == before
        adam_after = {"m": optimizer.adam.m, "v": optimizer.adam.v}
        for key in ("m", "v"):
            assert len(adam_after[key]) == len(adam_before[key])
            for after, saved in zip(adam_after[key], adam_before[key]):
                assert np.array_equal(after, saved)

    def test_update_after_rollback_matches_a_fresh_optimizer(self):
        config = PpoConfig(hidden_sizes=(8,), minibatch_size=2)
        rng = np.random.default_rng(5)
        policy = Policy(2, 3, config, seed=7)
        batch = [make_transition(policy, rng) for _ in range(5)]
        poisoned = [make_transition(policy, rng, reward=float("inf"))] + batch

        optimizer = PpoOptimizer(policy)
        steps = count_adam_steps(optimizer)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteLossError):
                optimizer.update(poisoned)
        assert steps, "the poisoned minibatch came first; nothing was rolled back"
        optimizer.update(batch)

        fresh = Policy(2, 3, config, seed=7)
        PpoOptimizer(fresh).update(batch)
        assert save_policy(policy) == save_policy(fresh)

    def test_non_finite_parameters_after_the_last_step_roll_back(self):
        # One step per update, whose loss is finite; the step overflows.
        # Late in a run its scale lr (1 - beta1) / (1 - beta1^t)
        # sqrt((1 - beta2^t) / (1 - beta2)) is about 3 lr, past the
        # largest float at this lr; at t = 1 it is lr.
        config = PpoConfig(hidden_sizes=(8,), minibatch_size=8, epochs=1, learning_rate=1e308)
        policy = Policy(2, 3, config, seed=7)
        rng = np.random.default_rng(5)
        batch = [make_transition(policy, rng, reward=1e3) for _ in range(5)]
        optimizer = PpoOptimizer(policy)
        optimizer.adam.t = t_before = 1999
        before = save_policy(policy)
        rng_before = optimizer.rng.bit_generator.state
        steps = count_adam_steps(optimizer)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the update keeps numpy quiet
            with pytest.raises(NonFiniteLossError, match="parameters"):
                optimizer.update(batch)
        assert len(steps) == 1
        assert save_policy(policy) == before
        assert optimizer.adam.t == t_before
        assert optimizer.rng.bit_generator.state == rng_before
        for moment in optimizer.adam.m + optimizer.adam.v:
            assert not moment.any()

    def test_update_moves_the_policy_arrays_in_place(self):
        policy = Policy(2, 3, PpoConfig(hidden_sizes=(8,)), seed=6)
        first_layer = policy.actor.weights[0]
        before = first_layer.copy()
        rng = np.random.default_rng(4)
        PpoOptimizer(policy).update([make_transition(policy, rng) for _ in range(5)])
        assert policy.actor.weights[0] is first_layer
        assert not np.array_equal(first_layer, before)

    def test_empty_batch_rejected(self):
        policy = Policy(1, 1, TINY, seed=0)
        with pytest.raises(ValueError):
            PpoOptimizer(policy).update([])


class TestBanditOracle:
    def test_two_armed_bandit_reaches_point_nine(self):
        updates, prob = run_bandit(updates=200, lr=0.01, seed=0)
        assert prob > 0.9, f"after {updates} updates P(best)={prob}"
