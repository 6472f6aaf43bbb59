import math
import random

import numpy as np
import pytest

from satkit.cnf import Assignment, CnfFormula
from satkit.features import extract_features
from satkit.generators import planted_ksat
from satkit.rl.heuristic import PolicyHeuristic
from satkit.rl.observation import ShapeMismatchError, build_observation
from satkit.rl.policy import (
    AllMaskedError,
    Policy,
    PolicyFormatError,
    PpoConfig,
    VersionMismatchError,
    action_to_decision,
    legal_action_mask,
    load_policy,
    masked_log_softmax,
    save_policy,
)
from satkit.solver.engine import Heuristic, Solver, Verdict

SMALL = PpoConfig(hidden_sizes=(16, 16))


def make_policy(n=4, m=6, seed=0, config=SMALL):
    return Policy(n, m, config, seed)


def random_obs(policy, rng):
    return rng.standard_normal(policy.obs_dim)


class TestActionMapping:
    def test_even_actions_assign_true(self):
        assert action_to_decision(0).var == 1 and action_to_decision(0).value is True
        assert action_to_decision(1).var == 1 and action_to_decision(1).value is False
        assert action_to_decision(8).var == 5 and action_to_decision(8).value is True

    def test_mask_blocks_assigned_variables(self):
        a = Assignment(3)
        a.assign(2, True)
        assert legal_action_mask(a).tolist() == [True, True, False, False, True, True]


class TestMaskedSoftmax:
    def test_masked_entries_have_zero_probability(self):
        logits = np.array([[1.0, 2.0, 3.0, 4.0]])
        mask = np.array([[True, False, True, False]])
        logp = masked_log_softmax(logits, mask)
        probs = np.exp(logp[0])
        assert probs[1] == 0.0 and probs[3] == 0.0
        assert probs[[0, 2]].sum() == pytest.approx(1.0)

    def test_action_space_size_is_two_n(self):
        policy = make_policy(n=20, m=91)
        assert policy.num_actions == 40


class TestDecide:
    def test_only_one_variable_unassigned(self):
        policy = make_policy()
        a = Assignment(4)
        for var in (1, 2, 4):
            a.assign(var, True)
        rng = np.random.default_rng(0)
        for _ in range(5):
            obs = random_obs(policy, rng)
            mask = legal_action_mask(a)
            action, logp = policy.act(obs, mask, "sample", rng)
            assert action in (4, 5)  # both polarities of x3
            assert math.isfinite(logp)

    def test_greedy_tie_break_is_action_zero(self):
        policy = make_policy()
        for w in policy.actor.parameters():
            w[...] = 0.0
        a = Assignment(4)
        obs = np.zeros(policy.obs_dim)
        action, _ = policy.act(obs, legal_action_mask(a), "greedy")
        assert action == 0
        decision = action_to_decision(action)
        assert decision.var == 1 and decision.value is True

    def test_all_masked_raises(self):
        policy = make_policy()
        a = Assignment(4)
        for var in range(1, 5):
            a.assign(var, False)
        with pytest.raises(AllMaskedError):
            policy.act(np.zeros(policy.obs_dim), legal_action_mask(a), "greedy")

    def test_sampled_frequencies_match_masked_softmax(self):
        policy = make_policy(n=3, m=4)
        rng = np.random.default_rng(7)
        obs = random_obs(policy, rng)
        a = Assignment(3)
        a.assign(2, False)
        mask = legal_action_mask(a)
        logits = policy.actor(policy.preprocess(obs)[None, :])[0]
        exact = np.exp(masked_log_softmax(logits[None, :], mask[None, :])[0])

        draws = 10_000
        counts = np.zeros(policy.num_actions)
        for _ in range(draws):
            action, _ = policy.act(obs, mask, "sample", rng)
            counts[action] += 1
        freq = counts / draws
        for k in range(policy.num_actions):
            sigma = math.sqrt(exact[k] * (1 - exact[k]) / draws)
            assert abs(freq[k] - exact[k]) <= max(3 * sigma, 1e-12), f"action {k}"

    def test_sampling_is_deterministic_under_seed(self):
        policy = make_policy()
        obs = np.linspace(-1, 1, policy.obs_dim)
        mask = legal_action_mask(Assignment(4))
        a1 = [policy.act(obs, mask, "sample", np.random.default_rng(5))[0] for _ in range(10)]
        a2 = [policy.act(obs, mask, "sample", np.random.default_rng(5))[0] for _ in range(10)]
        assert a1 == a2


class TestSaveLoad:
    def test_round_trip_greedy_identical_on_random_observations(self):
        policy = make_policy(n=5, m=9, seed=3)
        restored = load_policy(save_policy(policy))
        assert restored.shape == policy.shape
        assert restored.config == policy.config
        rng = np.random.default_rng(1)
        a = Assignment(5)
        mask = legal_action_mask(a)
        for _ in range(100):
            obs = random_obs(policy, rng)
            assert policy.act(obs, mask, "greedy")[0] == restored.act(obs, mask, "greedy")[0]

    def test_round_trip_bytes_are_stable(self):
        policy = make_policy(seed=11)
        blob = save_policy(policy)
        assert save_policy(load_policy(blob)) == blob

    def test_truncated_file_never_yields_partial_policy(self):
        blob = save_policy(make_policy())
        for cut in (0, 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(PolicyFormatError):
                load_policy(blob[:cut])

    def test_version_mismatch(self):
        blob = save_policy(make_policy())
        tampered = blob.replace(b'"format_version": 1', b'"format_version": 9')
        with pytest.raises(VersionMismatchError):
            load_policy(tampered)

    def test_garbage_rejected(self):
        with pytest.raises(PolicyFormatError):
            load_policy(b"definitely not a checkpoint")

    def test_loading_policy_for_wrong_formula_shape(self):
        policy = load_policy(save_policy(Policy(20, 91, SMALL, seed=0)))
        wrong = planted_ksat(10, 40, random.Random(0))
        with pytest.raises(ShapeMismatchError):
            PolicyHeuristic(policy, wrong)


def assert_close(actual, expected, rel=1e-12):
    """Equal up to ``rel`` times the largest magnitude in ``expected``."""
    actual, expected = np.atleast_1d(actual), np.atleast_1d(expected)
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= rel * scale


def full_logits(policy, obs):
    return policy.actor(policy.preprocess(obs)[None, :])[0]


def full_value(policy, obs):
    return float(policy.critic(policy.preprocess(obs)[None, :])[0, 0])


def random_partial_assignment(num_vars, rng):
    a = Assignment(num_vars)
    for var in range(1, num_vars + 1):
        if rng.random() < 0.4:
            a.assign(var, bool(rng.random() < 0.5))
    return a


class UnfoldedGreedy(Heuristic):
    """Reference greedy heuristic: the whole observation through the
    whole actor on every decision."""

    name = "unfolded"

    def __init__(self, policy, formula):
        self.policy = policy
        self.formula = formula
        self.features = extract_features(formula)

    def decide(self, solver):
        obs = build_observation(self.formula, solver.assignment, self.features)
        mask = legal_action_mask(solver.assignment)
        logits = full_logits(self.policy, obs)
        return action_to_decision(int(np.argmax(np.where(mask, logits, -np.inf))))


class TestFoldedInference:
    @pytest.mark.parametrize("hidden", [(256, 256), (8,), ()])
    def test_folded_network_matches_full_network(self, hidden):
        policy = Policy(20, 91, PpoConfig(hidden_sizes=hidden), seed=3)
        d = policy.dynamic_dim
        rng = np.random.default_rng(0)
        for k in range(4):
            formula = planted_ksat(20, 91, random.Random(k))
            features = extract_features(formula)
            obs = build_observation(formula, Assignment(20), features)
            actor_fold = policy.fold(policy.actor, obs[d:])
            critic_fold = policy.fold(policy.critic, obs[d:])
            for _ in range(8):
                a = random_partial_assignment(20, rng)
                if not legal_action_mask(a).any():
                    continue
                obs = build_observation(formula, a, features)
                mask = legal_action_mask(a)
                logits = full_logits(policy, obs)
                value = full_value(policy, obs)
                assert_close(policy.actor(policy.preprocess(obs[:d]), actor_fold), logits)
                assert_close(policy.value(obs[:d], critic_fold), value)
                assert_close(policy.value(obs), value)
                greedy = int(np.argmax(np.where(mask, logits, -np.inf)))
                assert policy.act(obs[:d], mask, "greedy", folded=actor_fold)[0] == greedy
                assert policy.act(obs, mask, "greedy")[0] == greedy

    def test_greedy_runs_match_the_unfolded_network(self):
        policy = Policy(20, 91, seed=0)
        for k in range(30):
            formula = planted_ksat(20, 91, random.Random(100 + k))
            folded = Solver(formula, PolicyHeuristic(policy, formula)).run()
            reference = Solver(formula, UnfoldedGreedy(policy, formula)).run()
            assert folded.verdict == reference.verdict == Verdict.SAT
            assert folded.model == reference.model
            assert (folded.stats.decisions, folded.stats.conflicts, folded.stats.propagations) == (
                reference.stats.decisions,
                reference.stats.conflicts,
                reference.stats.propagations,
            )


class TestPolicyHeuristic:
    def test_greedy_solve_never_evaluates_the_critic(self, monkeypatch):
        policy = Policy(20, 91, SMALL, seed=0)
        calls = []
        for name in ("fold", "forward"):
            original = getattr(policy.critic, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(policy.critic, name, counted)
        formula = planted_ksat(20, 91, random.Random(5))
        result = Solver(formula, PolicyHeuristic(policy, formula, mode="greedy")).run()
        assert result.verdict == Verdict.SAT and result.stats.decisions > 0
        assert calls == []
        rng = np.random.default_rng(0)
        Solver(formula, PolicyHeuristic(policy, formula, "sample", rng, record=True)).run()
        assert calls  # the counter sees the critic when it does run

    def test_recorded_values_and_log_probs_match_the_full_network(self):
        policy = Policy(20, 91, SMALL, seed=2)
        rng = np.random.default_rng(4)
        recorded = 0
        for k in range(5):
            formula = planted_ksat(20, 91, random.Random(k))
            heuristic = PolicyHeuristic(policy, formula, "sample", rng, record=True)
            Solver(formula, heuristic).run()
            for t in heuristic.transitions:
                logp = masked_log_softmax(
                    full_logits(policy, t.observation)[None, :], t.mask[None, :]
                )[0, t.action]
                assert_close(t.log_prob, logp)
                assert_close(t.value, policy.value(t.observation))
                assert_close(t.value, full_value(policy, t.observation))
                recorded += 1
        assert recorded > 0

    def test_greedy_unrecorded_solve_skips_softmax_critic_and_rng(self, monkeypatch):
        import satkit.rl.policy as policy_module

        policy = Policy(20, 91, SMALL, seed=0)
        formula = planted_ksat(20, 91, random.Random(6))

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")

            return call

        monkeypatch.setattr(policy_module, "masked_log_softmax", forbidden("masked_log_softmax"))
        monkeypatch.setattr(np.random, "default_rng", forbidden("default_rng"))
        monkeypatch.setattr(Policy, "value", forbidden("Policy.value"))
        for name in ("fold", "forward"):
            monkeypatch.setattr(policy.critic, name, forbidden(f"critic.{name}"))
        result = Solver(formula, PolicyHeuristic(policy, formula)).run()
        assert result.verdict == Verdict.SAT and result.stats.decisions > 0
        # The probes bite: a recorded run needs the critic and the softmax.
        with pytest.raises(AssertionError, match="called"):
            Solver(formula, PolicyHeuristic(policy, formula, record=True)).run()

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_recorded_log_prob_is_the_masked_log_softmax_entry(self, mode):
        policy = Policy(20, 91, SMALL, seed=1)
        d = policy.dynamic_dim
        rng = np.random.default_rng(8)
        recorded = 0
        for k in range(4):
            formula = planted_ksat(20, 91, random.Random(20 + k))
            heuristic = PolicyHeuristic(policy, formula, mode, rng, record=True)
            Solver(formula, heuristic).run()
            for t in heuristic.transitions:
                obs = t.observation
                logits = policy.actor(policy.preprocess(obs[:d]), policy.fold(policy.actor, obs[d:]))
                logp = masked_log_softmax(logits[None, :], t.mask[None, :])[0]
                assert t.log_prob == float(logp[t.action])
                if mode == "greedy":
                    assert t.action == int(np.argmax(np.where(t.mask, logits, -np.inf)))
                recorded += 1
        assert recorded > 0

    def test_attach_rejects_another_formula_of_the_same_shape(self):
        policy = Policy(20, 91, SMALL, seed=0)
        own = planted_ksat(20, 91, random.Random(0))
        other = planted_ksat(20, 91, random.Random(1))
        with pytest.raises(ShapeMismatchError):
            Solver(other, PolicyHeuristic(policy, own)).run()
        equal = CnfFormula(own.num_vars, tuple(own.clauses))
        assert equal is not own
        assert Solver(equal, PolicyHeuristic(policy, own)).run().verdict == Verdict.SAT
