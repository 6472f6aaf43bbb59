import random

import numpy as np
import pytest

from satkit.cnf import CnfFormula
from satkit.errors import LimitError
from satkit.generators import planted_ksat
from satkit.rl.policy import Policy, PpoConfig, save_policy
from satkit.rl.train import TrainingDataError, run_episode, train
from satkit.solver.engine import Solver, Verdict

FAST = PpoConfig(
    hidden_sizes=(16, 16),
    rollout_window=64,
    minibatch_size=16,
    epochs=2,
    episode_max_decisions=200,
)


def small_dataset(count=6, num_vars=8, num_clauses=24, seed=0):
    rng = random.Random(seed)
    return [planted_ksat(num_vars, num_clauses, rng) for _ in range(count)]


class TestRunEpisode:
    def test_trajectory_length_equals_decisions(self):
        f = planted_ksat(20, 91, random.Random(1))
        policy = Policy(20, 91, FAST, seed=1)
        trajectory, result = run_episode(f, policy, rng=np.random.default_rng(0))
        assert result.verdict == Verdict.SAT
        assert len(trajectory) == result.stats.decisions
        assert trajectory[-1].done is True
        assert all(not t.done for t in trajectory[:-1])

    def test_sat_final_reward_is_clause_count(self):
        f = planted_ksat(20, 91, random.Random(2))
        policy = Policy(20, 91, FAST, seed=2)
        trajectory, result = run_episode(f, policy, rng=np.random.default_rng(0))
        assert result.verdict == Verdict.SAT
        assert trajectory[-1].reward == 91.0

    def test_rewards_bounded_by_clause_count(self):
        f = planted_ksat(12, 40, random.Random(3))
        policy = Policy(12, 40, FAST, seed=3)
        trajectory, _ = run_episode(f, policy, rng=np.random.default_rng(1))
        assert all(-40 <= t.reward <= 40 for t in trajectory)

    def test_unit_propagation_only_instance_has_empty_trajectory(self):
        f = CnfFormula.from_codes(3, [[1], [-1, 2], [-2, 3]])
        policy = Policy(3, 3, FAST, seed=0)
        trajectory, result = run_episode(f, policy, np.random.default_rng(0))
        assert trajectory == []
        assert result.verdict == Verdict.SAT

    def test_decision_limit_truncates_episode(self):
        f = planted_ksat(12, 40, random.Random(4))
        config = PpoConfig(hidden_sizes=(16, 16), episode_max_decisions=1)
        policy = Policy(12, 40, config, seed=4)
        trajectory, result = run_episode(f, policy, rng=np.random.default_rng(0))
        assert len(trajectory) <= 1
        assert result.verdict in (Verdict.UNKNOWN, Verdict.SAT)
        if result.verdict == Verdict.UNKNOWN:
            assert result.limit == "decisions"
            assert trajectory[-1].done is True


class TestTrain:
    def test_zero_steps_is_identity(self):
        dataset = small_dataset()
        policy = Policy(8, 24, FAST, seed=7)
        before = save_policy(policy)
        trained, logs = train(dataset, policy, steps=0)
        assert logs == []
        assert save_policy(trained) == before

    def test_shape_mismatch_rejected(self):
        policy = Policy(8, 24, FAST, seed=7)
        bad = small_dataset(count=2) + [planted_ksat(9, 24, random.Random(0))]
        for steps in (10, 0):  # a run of no steps checks its dataset too
            with pytest.raises(ValueError, match="instance 2"):
                train(bad, policy, steps=steps)

    def test_dataset_without_decisions_rejected(self):
        dataset = [CnfFormula.from_codes(3, [[1], [-1, 2], [-2, 3]])] * 2
        with pytest.raises(TrainingDataError, match="no decisions"):
            train(dataset, Policy(3, 3, FAST, seed=0), steps=10)

    def test_window_of_one_truncated_episode_logs_its_length(self):
        f = planted_ksat(20, 91, random.Random(1))
        trajectory, _ = run_episode(f, Policy(20, 91, FAST, seed=1), np.random.default_rng([1, 2]))
        assert len(trajectory) > 3  # so three steps cut the first episode short
        _, logs = train([f], Policy(20, 91, FAST, seed=1), steps=3)
        assert [(log.steps, log.mean_decisions) for log in logs] == [(3, 3.0)]

    def test_training_is_bit_deterministic(self):
        def run():
            dataset = small_dataset(seed=11)
            policy = Policy(8, 24, FAST, seed=13)
            trained, logs = train(dataset, policy, steps=300)
            return save_policy(trained), [(l.window, l.steps, l.mean_reward) for l in logs]

        blob1, logs1 = run()
        blob2, logs2 = run()
        assert blob1 == blob2
        assert logs1 == logs2

    def test_log_rows_cover_all_steps(self):
        dataset = small_dataset(seed=21)
        policy = Policy(8, 24, FAST, seed=23)
        _, logs = train(dataset, policy, steps=200)
        assert logs, "expected at least one window"
        assert logs[-1].steps == 200
        assert [l.window for l in logs] == list(range(len(logs)))
        for row in logs:
            assert np.isfinite(row.mean_reward)
            assert row.mean_decisions >= 0

    def test_critic_runs_once_per_update_and_never_per_decision(self, monkeypatch):
        rows = []
        value = Policy.value
        monkeypatch.setattr(Policy, "value", lambda *args: rows.append(len(args[1])) or value(*args))
        policy = Policy(8, 24, FAST, seed=0)
        _, logs = train(small_dataset(), policy, 150)
        assert len(logs) >= 2
        # one call per window, over all of the window's transitions
        assert rows == np.diff([0] + [log.steps for log in logs]).tolist()

    def test_checkpoint_callback_invoked(self):
        dataset = small_dataset(seed=31)
        policy = Policy(8, 24, FAST, seed=33)
        calls = []
        _, logs = train(
            dataset,
            policy,
            steps=150,
            checkpoint=lambda p, w: calls.append(w),
            checkpoint_every=1,
        )
        assert calls, "checkpoint hook never fired"
        assert calls == list(range(1, len(logs) + 1))  # once per window, no repeat

    def test_last_window_checkpointed_off_the_interval(self):
        dataset = small_dataset(seed=31)
        policy = Policy(8, 24, FAST, seed=33)
        calls = []
        _, logs = train(
            dataset,
            policy,
            steps=150,
            checkpoint=lambda p, w: calls.append(w),
            checkpoint_every=2,
        )
        assert len(logs) == 3 and calls == [2, 3]

    @pytest.mark.parametrize("every", [0, -1])
    def test_checkpoint_interval_below_one_rejected_before_collecting(self, every, monkeypatch):
        def refuse(*args):
            raise AssertionError("a solve ran before the interval was checked")

        monkeypatch.setattr(Solver, "run", refuse)
        policy = Policy(8, 24, FAST, seed=33)
        with pytest.raises(LimitError, match="checkpoint_every"):
            train(small_dataset(), policy, steps=150, checkpoint=lambda p, w: None, checkpoint_every=every)

    def test_parameters_change_when_lr_positive(self):
        dataset = small_dataset(seed=41)
        policy = Policy(8, 24, FAST, seed=43)
        before = save_policy(policy)
        train(dataset, policy, steps=150)
        assert save_policy(policy) != before
