import importlib
import json
import math
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from satkit.cnf import CnfFormula
from satkit.features import clause_incidence, extract_features
from satkit.generators import planted_ksat
from satkit.rl.heuristic import PolicyHeuristic
from satkit.rl.observation import (
    ShapeMismatchError,
    build_observation,
    clause_evaluations,
    signed_adjacency,
    static_entries,
)
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
from satkit.rl.train import train
from satkit.solver.engine import Heuristic, Solver, Verdict

from oracles import (
    any_formula,
    fold_block,
    full_logits,
    full_value,
    reference_extract_features,
    reference_fold,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SMALL = PpoConfig(hidden_sizes=(16, 16))


def make_policy(n=4, m=6, seed=0, config=SMALL):
    return Policy(n, m, config, seed)


def edit_header(blob, edit):
    """Re-encode a checkpoint after ``edit`` has changed its JSON header."""
    magic_len = len(b"CNFPOLICY\x00")
    header_len = int.from_bytes(blob[magic_len : magic_len + 8], "little")
    header = json.loads(blob[magic_len + 8 : magic_len + 8 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
    payload = blob[magic_len + 8 + header_len :]
    return blob[:magic_len] + len(header_bytes).to_bytes(8, "little") + header_bytes + payload


def random_obs(policy, rng):
    return rng.standard_normal(policy.obs_dim)


def act(policy, obs, mask, rng=None):
    """``policy.act`` on a whole observation, split and folded."""
    d = policy.dynamic_dim
    return policy.act(obs[:d], mask, fold_block(policy, policy.actor, obs[d:]), rng)


class TestActionMapping:
    def test_even_actions_assign_true(self):
        assert action_to_decision(0) == 1
        assert action_to_decision(1) == -1
        assert action_to_decision(8) == 5
        assert action_to_decision(9) == -5

    def test_mask_blocks_assigned_variables(self):
        assert legal_action_mask([0, 1, 0]).tolist() == [True, True, False, False, True, True]


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
        a = [1, 1, 0, 1]
        rng = np.random.default_rng(0)
        for _ in range(5):
            obs = random_obs(policy, rng)
            mask = legal_action_mask(a)
            action, logp = act(policy, obs, mask, rng)
            assert action in (4, 5)  # both polarities of x3
            assert math.isfinite(logp)

    def test_greedy_tie_break_is_action_zero(self):
        policy = make_policy()
        for w in policy.actor.parameters():
            w[...] = 0.0
        obs = np.zeros(policy.obs_dim)
        action, logp = act(policy, obs, legal_action_mask([0] * 4))
        assert action == 0 and logp is None
        assert action_to_decision(action) == 1

    def test_all_masked_raises(self):
        policy = make_policy()
        with pytest.raises(AllMaskedError):
            act(policy, np.zeros(policy.obs_dim), legal_action_mask([-1] * 4))

    def test_sampled_frequencies_match_masked_softmax(self):
        policy = make_policy(n=3, m=4)
        rng = np.random.default_rng(7)
        obs = random_obs(policy, rng)
        mask = legal_action_mask([0, -1, 0])
        logits = full_logits(policy, obs)
        exact = np.exp(masked_log_softmax(logits[None, :], mask[None, :])[0])
        d = policy.dynamic_dim
        fold = fold_block(policy, policy.actor, obs[d:])

        draws = 10_000
        counts = np.zeros(policy.num_actions)
        for _ in range(draws):
            action, _ = policy.act(obs[:d], mask, fold, rng)
            counts[action] += 1
        freq = counts / draws
        for k in range(policy.num_actions):
            sigma = math.sqrt(exact[k] * (1 - exact[k]) / draws)
            assert abs(freq[k] - exact[k]) <= max(3 * sigma, 1e-12), f"action {k}"

    def test_sampling_is_deterministic_under_seed(self):
        policy = make_policy()
        obs = np.linspace(-1, 1, policy.obs_dim)
        mask = legal_action_mask([0] * 4)
        a1 = [act(policy, obs, mask, np.random.default_rng(5))[0] for _ in range(10)]
        a2 = [act(policy, obs, mask, np.random.default_rng(5))[0] for _ in range(10)]
        assert a1 == a2


class TestSaveLoad:
    def test_round_trip_greedy_identical_on_random_observations(self):
        policy = make_policy(n=5, m=9, seed=3)
        restored = load_policy(save_policy(policy))
        assert restored.shape == policy.shape
        assert restored.config == policy.config
        rng = np.random.default_rng(1)
        mask = legal_action_mask([0] * 5)
        for _ in range(100):
            obs = random_obs(policy, rng)
            assert act(policy, obs, mask)[0] == act(restored, obs, mask)[0]

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

    def test_unknown_config_key_rejected(self):
        blob = edit_header(save_policy(make_policy()), lambda h: h["config"].update(momentum=0.9))
        with pytest.raises(PolicyFormatError, match="momentum"):
            load_policy(blob)

    @pytest.mark.parametrize("field", ["num_vars", "config"])
    def test_missing_header_field_rejected(self, field):
        blob = edit_header(save_policy(make_policy()), lambda h: h.pop(field))
        with pytest.raises(PolicyFormatError, match=field):
            load_policy(blob)

    def test_edited_shape_rejected_before_allocating_the_policy(self):
        # The header of a (4, 6) file claims a (100, 110) policy with
        # 256-wide layers, about 100 MB of weights if it were built.
        def enlarge(header):
            header.update(num_vars=100, num_clauses=110)
            header["config"]["hidden_sizes"] = [256, 256]

        blob = edit_header(save_policy(make_policy()), enlarge)
        tracemalloc.start()
        try:
            with pytest.raises(PolicyFormatError):
                load_policy(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_scalar_hidden_sizes_rejected(self):
        blob = edit_header(
            save_policy(make_policy()), lambda h: h["config"].update(hidden_sizes=5)
        )
        with pytest.raises(PolicyFormatError):
            load_policy(blob)

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


def random_partial_assignment(num_vars, rng):
    return [
        (1 if rng.random() < 0.5 else -1) if rng.random() < 0.4 else 0
        for _ in range(num_vars)
    ]


class UnfoldedGreedy(Heuristic):
    """Reference greedy heuristic: the whole observation through the
    whole actor on every decision."""

    def __init__(self, policy, formula):
        self.policy = policy
        self.formula = formula
        self.features = extract_features(formula)

    def decide(self, solver):
        obs = build_observation(self.formula, solver.values, self.features)
        mask = legal_action_mask(solver.values)
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
            obs = build_observation(formula, [0] * 20, features)
            actor_fold = fold_block(policy, policy.actor, obs[d:])
            critic_fold = fold_block(policy, policy.critic, obs[d:])
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
                greedy = int(np.argmax(np.where(mask, logits, -np.inf)))
                assert policy.act(obs[:d], mask, actor_fold) == (greedy, None)

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


def perfbench_module(name):
    """A module of the benchmark: its instance pools and generators."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)


def dense_fold(policy, net, index, values):
    """``Policy.fold`` through ``reference_fold``, the whole static block."""
    static = np.zeros(policy.obs_dim - policy.dynamic_dim)
    static[index] = values
    return reference_fold(policy, net, static)


class DenseFoldGreedy(Heuristic):
    """Greedy decisions from the reference features and the dense fold
    of the whole static block, with their literals recorded."""

    def __init__(self, policy, formula):
        self.policy = policy
        self.formula = formula
        static = np.concatenate(
            [signed_adjacency(formula).reshape(-1), reference_extract_features(formula)]
        )
        self.fold = reference_fold(policy, policy.actor, static)
        self.decisions = []

    def decide(self, solver):
        values = solver.values
        dynamic = np.concatenate([np.asarray(values, dtype=np.float64), clause_evaluations(self.formula, values)])
        action, _ = self.policy.act(dynamic, legal_action_mask(values), self.fold)
        self.decisions.append(action_to_decision(action))
        return self.decisions[-1]


class RecordedGreedy(PolicyHeuristic):
    def __init__(self, policy, formula):
        super().__init__(policy, formula)
        self.decisions = []

    def decide(self, solver):
        self.decisions.append(super().decide(solver))
        return self.decisions[-1]


class TestNonzeroFold:
    """The fold over the static block's nonzero entries against the
    dense fold it replaced: within 1e-12, and the same decisions."""

    @given(any_formula(), st.integers(0, 2**16))
    @example(CnfFormula(1, [[1, -1, 1]]), 0)
    @example(CnfFormula(3, [[2, 2, -2]]), 1)
    @example(CnfFormula(1, [[-1], [1, 1], [-1, 1]]), 2)
    def test_fold_is_within_1e_12_of_the_dense_fold(self, formula, seed):
        policy = Policy(formula.num_vars, formula.num_clauses, PpoConfig(hidden_sizes=(16,)), seed)
        incidence = clause_incidence(formula)
        features = extract_features(formula, incidence).values
        index, values = static_entries(incidence, features, formula.num_vars)
        static = np.concatenate([signed_adjacency(formula).reshape(-1), features])
        assert np.array_equal(np.flatnonzero(static), index)
        assert np.array_equal(static[index], values)
        for net in (policy.actor, policy.critic):
            folded = policy.fold(net, index, values)
            assert float(np.abs(folded - reference_fold(policy, net, static)).max()) <= 1e-12

    def test_greedy_decisions_match_the_dense_fold_on_the_race_pool(self):
        pool = perfbench_module("pool")
        policy = Policy(20, 91, seed=0)
        decided = 0
        for i in range(200):
            formula = CnfFormula(20, pool.race_instance(i))
            new, old = RecordedGreedy(policy, formula), DenseFoldGreedy(policy, formula)
            result, expected = Solver(formula, new).run(), Solver(formula, old).run()
            assert new.decisions == old.decisions, f"race pool instance {i}"
            assert result.model == expected.model
            decided += len(new.decisions)
        assert decided > 1000

    @pytest.mark.parametrize("seed", [1, 2])
    def test_training_matches_the_dense_fold(self, seed, monkeypatch):
        """The train-uf20 benchmark's inputs: the same windows, and update
        metrics within 1e-9 relative."""
        reference = perfbench_module("reference")
        rng = random.Random(f"train-{seed}")
        dataset = [CnfFormula(20, reference.planted_3sat(20, 91, rng)[0]) for _ in range(64)]
        config = PpoConfig(rollout_window=150)
        _, logs = train(dataset, Policy(20, 91, config, seed), 750)
        monkeypatch.setattr(Policy, "fold", dense_fold)
        _, expected = train(dataset, Policy(20, 91, config, seed), 750)

        def windows(logs):
            return [(log.window, log.steps, log.mean_reward, log.mean_decisions) for log in logs]

        assert windows(logs) == windows(expected) and len(logs) == 5
        for log, want in zip(logs, expected):
            for name in ("policy_loss", "value_loss", "entropy", "clip_fraction"):
                assert getattr(log.metrics, name) == pytest.approx(getattr(want.metrics, name), rel=1e-9)


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
        result = Solver(formula, PolicyHeuristic(policy, formula)).run()
        assert result.verdict == Verdict.SAT and result.stats.decisions > 0
        assert calls == []
        Solver(formula, PolicyHeuristic(policy, formula, np.random.default_rng(0))).run()
        assert calls  # the counter sees the critic when it does run

    def test_recorded_values_and_log_probs_match_the_full_network(self):
        policy = Policy(20, 91, SMALL, seed=2)
        rng = np.random.default_rng(4)
        recorded = 0
        for k in range(5):
            formula = planted_ksat(20, 91, random.Random(k))
            heuristic = PolicyHeuristic(policy, formula, rng)
            Solver(formula, heuristic).run()
            for t in heuristic.transitions:
                logp = masked_log_softmax(
                    full_logits(policy, t.observation)[None, :], t.mask[None, :]
                )[0, t.action]
                assert_close(t.log_prob, logp)
                assert_close(t.value, full_value(policy, t.observation))
                recorded += 1
        assert recorded > 0

    def test_greedy_unrecorded_solve_skips_softmax_critic_and_rng(self, monkeypatch):
        import satkit.rl.policy as policy_module

        policy = Policy(20, 91, SMALL, seed=0)
        formula = planted_ksat(20, 91, random.Random(6))
        rng = np.random.default_rng(0)

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
        # The probes bite: a sampled, recorded run needs the critic and the softmax.
        with pytest.raises(AssertionError, match="called"):
            Solver(formula, PolicyHeuristic(policy, formula, rng)).run()

    def test_recorded_log_prob_is_the_masked_log_softmax_entry(self):
        policy = Policy(20, 91, SMALL, seed=1)
        d = policy.dynamic_dim
        rng = np.random.default_rng(8)
        recorded = 0
        for k in range(4):
            formula = planted_ksat(20, 91, random.Random(20 + k))
            heuristic = PolicyHeuristic(policy, formula, rng)
            Solver(formula, heuristic).run()
            for t in heuristic.transitions:
                obs = t.observation
                logits = policy.actor(policy.preprocess(obs[:d]), fold_block(policy, policy.actor, obs[d:]))
                logp = masked_log_softmax(logits[None, :], t.mask[None, :])[0]
                assert t.log_prob == float(logp[t.action])
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
