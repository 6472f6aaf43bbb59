import importlib
import json
import math
import random
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkit.cnf import CnfFormula
from satkit.features import clause_incidence, extract_features
from satkit.generators import planted_ksat
from satkit.rl import network
from satkit.rl.heuristic import PolicyHeuristic
from satkit.rl.observation import (
    ShapeMismatchError,
    build_observation,
    clause_evaluations,
    signed_adjacency,
    static_entries,
)
from satkit.rl.policy import (
    POLICY_FORMAT_VERSION,
    AllMaskedError,
    ConfigError,
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
from satkit.rl.ppo import PpoOptimizer
from satkit.rl.train import train
from satkit.solver.engine import Heuristic, Solver, Verdict

from oracles import (
    any_formula,
    assert_close,
    fold_block,
    format_1_checkpoint,
    format_2_checkpoint,
    full_logits,
    full_value,
    reference_construction,
    reference_extract_features,
    reference_fold,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SMALL = PpoConfig(hidden_sizes=(16, 16))


def make_policy(n=4, m=6, seed=0, config=SMALL):
    return Policy(n, m, config, seed)


# A checkpoint whose header is about 27% of its bytes.
TINY_POLICY = Policy(1, 1, PpoConfig(hidden_sizes=(1,)), seed=3)
TINY_BLOB = save_policy(TINY_POLICY)
TINY_HEADER_END = 18 + int.from_bytes(TINY_BLOB[10:18], "little")


def edit_header(blob, edit):
    """Re-encode a checkpoint after ``edit`` has changed its JSON header."""
    magic_len = len(b"CNFPOLICY\x00")
    header_len = int.from_bytes(blob[magic_len : magic_len + 8], "little")
    header = json.loads(blob[magic_len + 8 : magic_len + 8 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
    payload = blob[magic_len + 8 + header_len :]
    return blob[:magic_len] + len(header_bytes).to_bytes(8, "little") + header_bytes + payload


def random_obs(policy, rng, values):
    """An observation whose dynamic block holds the assignment ``values``
    and random clause statuses in {-1, 0, 1}, with a Gaussian static
    block."""
    clauses = rng.integers(-1, 2, policy.num_clauses).astype(np.float64)
    static = rng.standard_normal(policy.obs_dim - policy.dynamic_dim)
    return np.concatenate([np.asarray(values, dtype=np.float64), clauses, static])


def act(policy, obs, rng=None):
    """``policy.act`` on a whole observation, split and folded."""
    d = policy.dynamic_dim
    return policy.act(obs[:d], fold_block(policy, policy.actor, obs[d:]), rng)


GREEDY_POLICY = make_policy(n=4, m=6, seed=5)
GREEDY_STATIC = np.random.default_rng(5).standard_normal(GREEDY_POLICY.obs_dim - 10)


def ternary_blocks(free=True):
    """Dynamic blocks of ``GREEDY_POLICY``: four assignments with at least
    one variable free (``free``) or none, then six clause statuses."""
    ternary = st.sampled_from([-1, 0, 1])
    assignment = ternary if free else st.sampled_from([-1, 1])
    block = st.tuples(
        st.lists(assignment, min_size=4, max_size=4), st.lists(ternary, min_size=6, max_size=6)
    )
    if free:
        block = block.filter(lambda b: 0 in b[0])
    return block.map(lambda b: np.array(b[0] + b[1], dtype=np.float64))


def bits(a):
    """An array's shape and bytes: equal iff the arrays are equal bit for
    bit, the sign of zero and NaN payloads included."""
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


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
            obs = random_obs(policy, rng, a)
            action, logp = act(policy, obs, rng)
            assert action in (4, 5)  # both polarities of x3
            assert math.isfinite(logp)

    def test_greedy_tie_break_is_action_zero(self):
        policy = make_policy()
        for w in policy.actor.parameters():
            w[...] = 0.0
        obs = np.zeros(policy.obs_dim)
        action, logp = act(policy, obs)
        assert action == 0 and logp is None
        assert action_to_decision(action) == 1

    @given(ternary_blocks(free=False))
    def test_all_masked_raises(self, dynamic):
        obs = np.concatenate([dynamic, GREEDY_STATIC])
        for rng in (None, np.random.default_rng(0)):
            with pytest.raises(AllMaskedError):
                act(GREEDY_POLICY, obs, rng)

    def test_sampled_frequencies_match_masked_softmax(self):
        policy = make_policy(n=3, m=4)
        rng = np.random.default_rng(7)
        obs = random_obs(policy, rng, [0, -1, 0])
        mask = legal_action_mask([0, -1, 0])
        logits = full_logits(policy, obs)
        exact = np.exp(masked_log_softmax(logits[None, :], mask[None, :])[0])
        d = policy.dynamic_dim
        fold = fold_block(policy, policy.actor, obs[d:])

        draws = 10_000
        counts = np.zeros(policy.num_actions)
        for _ in range(draws):
            action, _ = policy.act(obs[:d], fold, rng)
            counts[action] += 1
        freq = counts / draws
        for k in range(policy.num_actions):
            sigma = math.sqrt(exact[k] * (1 - exact[k]) / draws)
            assert abs(freq[k] - exact[k]) <= max(3 * sigma, 1e-12), f"action {k}"

    def test_sampling_is_deterministic_under_seed(self):
        policy = make_policy()
        obs = np.linspace(-1, 1, policy.obs_dim)
        obs[:4] = 0.0  # every variable free
        obs[4 : policy.dynamic_dim] = np.sign(obs[4 : policy.dynamic_dim])
        a1 = [act(policy, obs, np.random.default_rng(5))[0] for _ in range(10)]
        a2 = [act(policy, obs, np.random.default_rng(5))[0] for _ in range(10)]
        assert a1 == a2


class TestGreedyStep:
    """The greedy step reads legality from the dynamic block and takes
    its bias adds and tanhs in place: the same bits and decisions as the
    textbook layers and the masked argmax."""

    @pytest.mark.parametrize("hidden", [(16, 8), (5,), ()])
    @pytest.mark.parametrize(
        "rows, fold_rows",
        [(None, 1), (3, 1), (3, 3)],
        ids=["row-folded", "batch-one-fold-row", "batch-fold-row-each"],
    )
    def test_in_place_layers_are_the_textbook_layers_bit_for_bit(self, hidden, rows, fold_rows):
        rng = np.random.default_rng(len(hidden))
        net = network.Mlp([12, *hidden, 7], rng)
        for b in net.biases:
            b[...] = rng.standard_normal(b.shape)
        lead = 5
        x = rng.standard_normal((lead,) if rows is None else (rows, lead))
        folded = net.fold(np.arange(5, 12), rng.standard_normal((fold_rows, 7)))
        if rows is None:
            folded = folded[0]
        want = [x]
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            if i == 0:
                w, b = w[:lead], folded
            z = want[-1] @ w + b
            want.append(np.tanh(z) if i < net.num_layers - 1 else z)
        out, cache = net.forward(x, folded)
        assert [bits(a) for a in cache] == [bits(a) for a in want]
        assert bits(out) == bits(net(x, folded)) == bits(want[-1])

    @settings(max_examples=300, deadline=None)
    @given(ternary_blocks())
    def test_greedy_is_the_argmax_of_the_full_logits_over_legal_actions(self, dynamic):
        policy = GREEDY_POLICY
        obs = np.concatenate([dynamic, GREEDY_STATIC])
        mask = legal_action_mask(dynamic[: policy.num_vars])
        want = int(np.argmax(np.where(mask, full_logits(policy, obs), -np.inf)))
        assert act(policy, obs) == (want, None)

    def test_constructed_tie_resolves_to_the_lower_index(self):
        policy = make_policy(n=4, m=6, seed=5)
        policy.actor.weights[-1][...] = 0.0
        # Illegal actions 0 and 1 carry the highest logit; legal actions
        # 3, 5 and 6 tie for the next.
        policy.actor.biases[-1][...] = [5.0, 5.0, 1.0, 3.0, 0.0, 3.0, 3.0, 2.0]
        obs = np.concatenate([[1.0, 0.0, 0.0, 0.0], np.zeros(6), GREEDY_STATIC])
        assert act(policy, obs) == (3, None)
        obs[3] = -1.0  # only 3 and 5 remain tied
        assert act(policy, obs) == (3, None)
        obs[1] = 1.0  # one legal maximum, at 5
        assert act(policy, obs) == (5, None)


class TestSaveLoad:
    def test_round_trip_greedy_identical_on_random_observations(self):
        policy = make_policy(n=5, m=9, seed=3)
        restored = load_policy(save_policy(policy))
        assert restored.shape == policy.shape
        assert restored.config == policy.config
        rng = np.random.default_rng(1)
        for _ in range(100):
            obs = random_obs(policy, rng, [0] * 5)
            assert act(policy, obs)[0] == act(restored, obs)[0]

    def test_round_trip_bytes_are_stable(self):
        policy = make_policy(seed=11)
        blob = save_policy(policy)
        assert save_policy(load_policy(blob)) == blob

    def test_truncated_file_never_yields_partial_policy(self):
        blob = save_policy(TINY_POLICY)
        for cut in range(len(blob)):
            with pytest.raises(PolicyFormatError):
                load_policy(blob[:cut])

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, TINY_HEADER_END - 1) | st.integers(0, len(TINY_BLOB) - 1), st.integers(0, 255))
    @example(TINY_BLOB.index(b'"learning_rate": ') + 16, ord("-"))  # a ConfigError
    @example(TINY_BLOB.index(b'"seed": ') + 7, ord("-"))
    @example(TINY_BLOB.index(b'"hidden_sizes": [1]') + 17, ord("0"))
    def test_a_single_byte_edit_loads_or_raises_a_format_error(self, at, byte):
        blob = bytearray(TINY_BLOB)
        blob[at] = byte
        try:
            policy = load_policy(bytes(blob))
        except PolicyFormatError:
            return
        assert all(np.isfinite(p).all() for p in policy.actor.parameters() + policy.critic.parameters())

    def test_load_builds_no_random_weights(self, monkeypatch):
        blob = save_policy(make_policy(seed=7))

        def refuse(*args, **kwargs):
            raise AssertionError("a load must not build random weights")

        monkeypatch.setattr(network, "orthogonal_init", refuse)
        monkeypatch.setattr(np.linalg, "qr", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert save_policy(load_policy(blob)) == blob

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "x", True, [1, 2]], ids=repr)
    def test_policy_seed_that_is_not_a_non_negative_integer_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            Policy(4, 6, SMALL, seed)

    @pytest.mark.parametrize(
        "shape", [(0, 5), (5, 0), (0, 0), (-1, 5), (True, 5), (5, 2.0), ("5", 5)], ids=repr
    )
    def test_policy_shape_that_is_not_a_positive_integer_rejected(self, shape):
        # No variable leaves no action, and no clause no feature vector.
        with pytest.raises(ConfigError, match=">= 1"):
            Policy(*shape, SMALL)

    @pytest.mark.parametrize("shape", [(0, 6), (4, 0), (0, 0)], ids=repr)
    def test_header_shape_with_no_variable_or_no_clause_rejected(self, shape):
        # The shape rule runs before the payload's size is compared.
        blob = edit_header(
            save_policy(make_policy()), lambda h: h.update(num_vars=shape[0], num_clauses=shape[1])
        )
        with pytest.raises(PolicyFormatError, match=">= 1"):
            load_policy(blob)

    def test_header_shape_that_is_a_string_rejected_by_the_shape_rule(self):
        blob = edit_header(save_policy(make_policy()), lambda h: h.update(num_vars="20"))
        with pytest.raises(PolicyFormatError, match="variables must be an integer >= 1, got '20'"):
            load_policy(blob)

    @pytest.mark.parametrize("seed", [None, [1, 2], -1, 1.5, "x", True], ids=repr)
    def test_seed_that_is_not_a_non_negative_integer_rejected(self, seed):
        blob = edit_header(save_policy(make_policy()), lambda h: h.update(seed=seed))
        with pytest.raises(PolicyFormatError, match="seed"):
            load_policy(blob)

    def test_version_mismatch(self):
        blob = save_policy(make_policy())
        current = f'"format_version": {POLICY_FORMAT_VERSION}'.encode("ascii")
        assert current in blob
        tampered = blob.replace(current, b'"format_version": 9')
        with pytest.raises(VersionMismatchError):
            load_policy(tampered)

    def test_header_holds_only_the_underivable_facts(self):
        policy = make_policy(seed=5)
        blob = save_policy(policy)
        header = {}
        edit_header(blob, header.update)
        assert sorted(header) == ["config", "format_version", "num_clauses", "num_vars", "seed"]
        assert header["config"].keys() == asdict(policy.config).keys()
        params = policy.actor.parameters() + policy.critic.parameters()
        payload = b"".join(p.astype("<f8").tobytes() for p in params)
        assert blob.endswith(payload)

    def test_format_1_checkpoint_is_a_version_mismatch(self):
        blob = format_1_checkpoint(make_policy())
        with pytest.raises(VersionMismatchError, match="format 1"):
            load_policy(blob)

    def test_format_2_checkpoint_is_a_version_mismatch(self):
        blob = format_2_checkpoint(make_policy())
        assert b'"format_version": 2' in blob and b'"clip_epsilon": 0.2' in blob
        with pytest.raises(VersionMismatchError, match="format 2, expected 3"):
            load_policy(blob)

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 4.5),
            ("minibatch_size", 2.5),
            ("rollout_window", True),
            ("episode_max_decisions", "500"),
            ("hidden_sizes", [16, 16.0]),
            ("learning_rate", "0.0002"),
        ],
    )
    def test_header_setting_of_the_wrong_type_rejected(self, field, value):
        # Training on such a header would raise a TypeError.
        blob = edit_header(save_policy(make_policy()), lambda h: h["config"].update({field: value}))
        with pytest.raises(PolicyFormatError, match=field):
            load_policy(blob)

    def test_scalar_hidden_sizes_rejected(self):
        blob = edit_header(
            save_policy(make_policy()), lambda h: h["config"].update(hidden_sizes=5)
        )
        with pytest.raises(PolicyFormatError):
            load_policy(blob)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", ["first-weight", "last-bias"])
    def test_non_finite_weight_rejected(self, bad, at):
        policy = make_policy()
        blob = bytearray(save_policy(policy))
        payload = 8 * sum(p.size for p in policy.actor.parameters() + policy.critic.parameters())
        offset = {"first-weight": len(blob) - payload, "last-bias": len(blob) - 8}[at]
        blob[offset : offset + 8] = np.array([bad], dtype="<f8").tobytes()
        with pytest.raises(PolicyFormatError, match="non-finite"):
            load_policy(bytes(blob))

    def test_loading_policy_for_wrong_formula_shape(self):
        policy = load_policy(save_policy(Policy(20, 91, SMALL, seed=0)))
        wrong = planted_ksat(10, 40, random.Random(0))
        with pytest.raises(ShapeMismatchError):
            PolicyHeuristic(policy, wrong)


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
                assert policy.act(obs[:d], actor_fold) == (greedy, None)

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
    of the whole static block, with their literals recorded: the
    cached forward pass and the masked argmax, not ``Policy.act``."""

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
        logits = self.policy.actor.forward(self.policy.preprocess(dynamic), self.fold)[0]
        action = int(np.argmax(np.where(legal_action_mask(values), logits, -np.inf)))
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
        features = extract_features(formula, incidence)
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
                assert getattr(log, name) == pytest.approx(getattr(want, name), rel=1e-9)


class CountedClauses(tuple):
    """A formula's clause tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestOneDecodeConstruction:
    """``PolicyHeuristic`` builds its static part from one
    ``clause_incidence``: the features, the static entries and the
    actor's fold equal, byte for byte, those of the construction that
    also decoded the clauses into a ``ClauseStatus`` tracker."""

    @staticmethod
    def check(policy, formula):
        expected = reference_construction(policy, formula)
        incidence = clause_incidence(formula)
        features = extract_features(formula, incidence)
        index, values = static_entries(incidence, features, formula.num_vars)
        assert features.tobytes() == expected["features"].tobytes()
        assert index.tobytes() == expected["index"].tobytes()
        assert values.tobytes() == expected["values"].tobytes()
        static = np.zeros(policy.obs_dim - policy.dynamic_dim)
        static[expected["index"]] = expected["values"]
        greedy = PolicyHeuristic(policy, formula)
        sampled = PolicyHeuristic(policy, formula, np.random.default_rng(0))
        for heuristic in (greedy, sampled):
            assert heuristic._actor_fold.tobytes() == expected["actor_fold"].tobytes()
        assert sampled._static.tobytes() == static.tobytes()

    @given(any_formula(), st.integers(0, 2**16))
    @example(CnfFormula(1, [[1, -1, 1]]), 0)
    @example(CnfFormula(3, [[2, 2, -2], [-3], [3, -1, -3, 1]]), 1)
    def test_any_formula(self, formula, seed):
        self.check(Policy(formula.num_vars, formula.num_clauses, PpoConfig(hidden_sizes=(16,)), seed), formula)

    def test_race_pool_instances_0_to_99(self):
        pool = perfbench_module("pool")
        policy = Policy(20, 91, seed=0)
        for i in range(100):
            self.check(policy, CnfFormula(20, pool.race_instance(i)))

    @pytest.mark.parametrize("record", [False, True], ids=["greedy", "sampled"])
    def test_construction_decodes_the_clauses_once(self, record, monkeypatch):
        """One ``clause_incidence`` call, and no other pass over the
        clauses."""
        import satkit.features
        import satkit.rl.heuristic
        import satkit.rl.observation

        pool = perfbench_module("pool")
        formula = CnfFormula(20, pool.race_instance(0))
        clauses = CountedClauses(formula.clauses)
        object.__setattr__(formula, "clauses", clauses)
        inside = []

        def counted_incidence(f):
            before = clauses.iterations
            incidence = clause_incidence(f)
            inside.append(clauses.iterations - before)
            return incidence

        for module in (satkit.features, satkit.rl.heuristic, satkit.rl.observation):
            monkeypatch.setattr(module, "clause_incidence", counted_incidence)
        rng = np.random.default_rng(0) if record else None
        PolicyHeuristic(Policy(20, 91, seed=0), formula, rng)
        assert len(inside) == 1
        assert clauses.iterations == inside[0]


class TestBenchmarkTracer:
    """perfbench's tracer wraps satkit's functions, methods and fields by
    name from outside the package, so a rename in satkit would otherwise
    break only a traced benchmark run."""

    def test_traced_greedy_solve_and_training_window(self):
        spans = perfbench_module("spans")
        pool = perfbench_module("pool")
        formula = CnfFormula(20, pool.race_instance(0))
        dataset = [CnfFormula(20, pool.race_instance(i)) for i in range(1, 5)]
        config = PpoConfig(hidden_sizes=(16, 16), rollout_window=64)
        tracer = spans.Tracer()
        with tracer.installed():
            result = Solver(formula, PolicyHeuristic(Policy(20, 91, SMALL, seed=0), formula)).run()
            _, logs = train(dataset, Policy(20, 91, config, seed=0), 64)
        assert result.verdict == Verdict.SAT and len(logs) == 1
        assert tracer.calls("network.call", parent="policy.act") >= result.stats.decisions > 0
        assert tracer.calls("ppo.update") == 1 and tracer.counters["ppo.batch_bytes"] > 0
        assert tracer.calls("network.adam_step") > 0
        assert tracer.calls("policy.mask") > 0  # the sampled steps build masks


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
        sampled = PolicyHeuristic(policy, formula, np.random.default_rng(0))
        Solver(formula, sampled).run()
        assert calls == []  # a sampled solve leaves the critic to the update
        PpoOptimizer(policy).update(sampled.transitions)
        assert calls  # the counter sees the critic when it does run

    def test_recorded_transitions_share_one_static_block_per_episode(self):
        policy = Policy(20, 91, SMALL, seed=2)
        rng = np.random.default_rng(4)
        statics = []
        for k in range(3):
            formula = planted_ksat(20, 91, random.Random(k))
            heuristic = PolicyHeuristic(policy, formula, rng)
            Solver(formula, heuristic).run()
            transitions = heuristic.transitions
            assert len(transitions) > 1
            assert all(t.static is transitions[0].static for t in transitions)
            assert transitions[0].observation.shape == (policy.dynamic_dim,)
            statics.append(transitions[0].static)
        assert len({id(s) for s in statics}) == 3  # one block per episode

    def test_recorded_log_probs_and_update_values_match_the_full_network(self, monkeypatch):
        """The log-probabilities recorded at each decision, and the critic
        values the update computes for the batch, against the whole
        networks on each whole observation."""
        policy = Policy(20, 91, SMALL, seed=2)
        rng = np.random.default_rng(4)
        batch, full_values = [], []
        for k in range(5):
            formula = planted_ksat(20, 91, random.Random(k))
            heuristic = PolicyHeuristic(policy, formula, rng)
            Solver(formula, heuristic).run()
            for t in heuristic.transitions:
                obs = np.concatenate([t.observation, t.static])
                logp = masked_log_softmax(full_logits(policy, obs)[None, :], t.mask[None, :])[
                    0, t.action
                ]
                assert_close(t.log_prob, logp)
                full_values.append(full_value(policy, obs))
            batch += heuristic.transitions
        assert batch
        calls = []
        value = Policy.value
        monkeypatch.setattr(Policy, "value", lambda *args: calls.append(value(*args)) or calls[-1])
        PpoOptimizer(policy).update(batch)
        [values] = calls
        assert values.shape == (len(batch),)
        for v, want in zip(values, full_values):
            assert_close(v, want)

    def test_greedy_unrecorded_solve_skips_softmax_critic_and_rng(self, monkeypatch):
        import satkit.rl.heuristic as heuristic_module
        import satkit.rl.policy as policy_module

        policy = Policy(20, 91, SMALL, seed=0)
        formula = planted_ksat(20, 91, random.Random(6))
        rng = np.random.default_rng(0)

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")

            return call

        monkeypatch.setattr(policy_module, "masked_log_softmax", forbidden("masked_log_softmax"))
        for module in (policy_module, heuristic_module):
            monkeypatch.setattr(module, "legal_action_mask", forbidden("legal_action_mask"))
        monkeypatch.setattr(np.random, "default_rng", forbidden("default_rng"))
        monkeypatch.setattr(Policy, "value", forbidden("Policy.value"))
        for name in ("fold", "forward"):
            monkeypatch.setattr(policy.critic, name, forbidden(f"critic.{name}"))
        result = Solver(formula, PolicyHeuristic(policy, formula)).run()
        assert result.verdict == Verdict.SAT and result.stats.decisions > 0
        # The probes bite: a sampled, recorded run needs the mask and the
        # softmax.
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
                assert t.observation.shape == (d,)
                logits = policy.actor(
                    policy.preprocess(t.observation), fold_block(policy, policy.actor, t.static)
                )
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
