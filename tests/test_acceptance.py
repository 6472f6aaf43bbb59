"""Acceptance suite.

Every criterion runs at its stated tolerance and prints one PASS line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
Criteria 1-5 are implemented as plain functions returning a digest of
everything that must be reproducible; criterion 8 reruns them with the
same seeds and compares digests bit for bit.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from satkit.cli import main as cli_main
from satkit.cnf import CnfFormula
from satkit.dimacs import write_dimacs, write_dimacs_file
from satkit.generators import planted_ksat, random_ksat
from satkit.logic.convert import BlowupExceededError, SymbolTable, simplify_cnf, to_cnf
from satkit.logic.expressions import And, Atom, Not, Or
from satkit.rl.heuristic import PolicyHeuristic
from satkit.rl.policy import Policy, PpoConfig, save_policy, save_policy_file
from satkit.rl.train import run_episode, train
from satkit.solver.engine import SolveLimits, Solver, Verdict
from satkit.solver.heuristics import VsidsHeuristic

from oracles import (
    brute_force_satisfiable,
    expr_equivalent_to_formula,
    finite_difference_check,
    full_logits,
    random_expression,
    run_bandit,
)

P, Q, R = Atom("P"), Atom("Q"), Atom("R")


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _model_satisfies(formula: CnfFormula, model) -> bool:
    phase = {abs(code): code > 0 for code in model}
    return all(
        any(phase[abs(code)] == (code > 0) for code in clause)
        for clause in formula.clauses
    )


# -- criterion 1: conversion equivalence ---------------------------------


def run_criterion_1() -> str:
    # Fixed fixtures. The disjunction input yields exactly the clause
    # pair (~P | Q) & (~P | R); the conjunction input is already CNF
    # and stays the equivalent (~P) & (Q | R).
    table = SymbolTable()
    fixture_or = to_cnf(Or((Not(P), And((Q, R)))), table)
    assert list(fixture_or.clauses) == [(-1, 2), (-1, 3)]
    assert expr_equivalent_to_formula(Or((Not(P), And((Q, R)))), fixture_or, table)

    table2 = SymbolTable()
    fixture_and = to_cnf(And((Not(P), Or((Q, R)))), table2)
    assert list(fixture_and.clauses) == [(-1,), (2, 3)]
    assert expr_equivalent_to_formula(And((Not(P), Or((Q, R)))), fixture_and, table2)

    # Simplification fixture: P & (~Q | R) & (~Q | R) -> P & (~Q | R).
    dup = CnfFormula.from_codes(3, [[1], [-2, 3], [-2, 3]])
    assert list(simplify_cnf(dup).clauses) == [(1,), (-2, 3)]

    # 500 seeded random expressions;  conversions that would exceed the
    # clause cap are skipped deterministically (they raise, by contract).
    outputs = []
    checked = 0
    seed = 0
    while checked < 500:
        expr = random_expression(random.Random(seed), max_atoms=8, max_depth=5)
        seed += 1
        table = SymbolTable()
        try:
            raw = to_cnf(expr, table)
        except BlowupExceededError:
            continue
        simplified = simplify_cnf(raw)
        assert expr_equivalent_to_formula(expr, raw, table), f"seed {seed - 1}"
        assert expr_equivalent_to_formula(expr, simplified, table), f"seed {seed - 1}"
        outputs.append(write_dimacs(simplified))
        checked += 1
    return _digest(outputs)


# -- criterion 2: solver soundness vs. brute force -----------------------


def run_criterion_2() -> str:
    rng = random.Random(20260101)
    policy_cache: dict[tuple[int, int], Policy] = {}
    config = PpoConfig(hidden_sizes=(32, 32))
    trace = []
    for i in range(500):
        n = rng.randint(8, 12)
        m = int(n * (3.5 + 1.5 * rng.random()))
        formula = random_ksat(n, m, rng)
        expected = Verdict.SAT if brute_force_satisfiable(formula) else Verdict.UNSAT

        vsids_result = Solver(formula, VsidsHeuristic(n)).run()
        assert vsids_result.verdict == expected, f"vsids wrong on instance {i}"
        if vsids_result.verdict == Verdict.SAT:
            assert _model_satisfies(formula, vsids_result.model)

        key = (n, m)
        if key not in policy_cache:
            policy_cache[key] = Policy(n, m, config, seed=0)
        heuristic = PolicyHeuristic(policy_cache[key], formula, np.random.default_rng(i))
        rl_result = Solver(formula, heuristic).run()
        assert rl_result.verdict == expected, f"rl wrong on instance {i}"
        if rl_result.verdict == Verdict.SAT:
            assert _model_satisfies(formula, rl_result.model)

        trace.append(
            (
                i,
                expected.value,
                vsids_result.stats.decisions,
                vsids_result.stats.conflicts,
                vsids_result.stats.learned,
                rl_result.stats.decisions,
                rl_result.stats.conflicts,
                rl_result.stats.learned,
            )
        )
    return _digest(trace)


# -- criterion 3: uf20-91-shaped completeness ----------------------------

C3_SEED = 42


def c3_instances() -> list[CnfFormula]:
    # SATLIB originals are not vendored; generator-matched satisfiable
    # 20-var / 91-clause instances stand in, as the criterion allows.
    rng = random.Random(C3_SEED)
    return [planted_ksat(20, 91, rng) for _ in range(50)]


def run_criterion_3() -> str:
    policy = Policy(20, 91, PpoConfig(hidden_sizes=(32, 32)), seed=0)
    limits = SolveLimits(timeout_s=10.0)
    trace = []
    for i, formula in enumerate(c3_instances()):
        vsids_result = Solver(formula, VsidsHeuristic(20), limits).run()
        assert vsids_result.verdict == Verdict.SAT, f"vsids instance {i}: {vsids_result.verdict}"
        assert _model_satisfies(formula, vsids_result.model)

        heuristic = PolicyHeuristic(policy, formula)
        rl_result = Solver(formula, heuristic, limits).run()
        assert rl_result.verdict == Verdict.SAT, f"rl instance {i}: {rl_result.verdict}"
        assert _model_satisfies(formula, rl_result.model)
        trace.append(
            (i, vsids_result.stats.decisions, vsids_result.stats.learned,
             rl_result.stats.decisions, rl_result.stats.learned)
        )
    return _digest(trace)


# -- criterion 4: reward bound -------------------------------------------


def run_criterion_4() -> str:
    rng = random.Random(7)
    config = PpoConfig(hidden_sizes=(32, 32), episode_max_decisions=10_000)
    policy = Policy(20, 91, config, seed=1)
    episode_rng = np.random.default_rng(11)
    rewards_seen = []
    sat_final_rewards = []
    for i in range(5):
        formula = planted_ksat(20, 91, rng)
        trajectory, result = run_episode(formula, policy, episode_rng)
        assert result.verdict == Verdict.SAT
        assert trajectory, "planted instances require at least one decision"
        assert trajectory[-1].done
        sat_final_rewards.append(trajectory[-1].reward)
        rewards_seen.extend(t.reward for t in trajectory)
    assert all(r == 91.0 for r in sat_final_rewards), sat_final_rewards
    assert all(-91.0 <= r <= 91.0 for r in rewards_seen)
    return _digest(rewards_seen)


# -- criterion 5: learning signal ------------------------------------------

C5_CONFIG = PpoConfig(
    learning_rate=2e-4,  # the published training rate
    hidden_sizes=(64, 64),
    rollout_window=250,
    epochs=24,
    minibatch_size=16,
    episode_max_decisions=100,
)
C5_SEED = 2


def run_criterion_5() -> tuple[str, float, float, float]:
    dataset_rng = random.Random(7000 + C5_SEED)
    dataset = [planted_ksat(10, 42, dataset_rng) for _ in range(50)]
    policy = Policy(10, 42, C5_CONFIG, seed=C5_SEED)
    trained, logs = train(dataset, policy, steps=5000)
    rewards = [row.mean_reward for row in logs]
    quartile = max(1, len(rewards) // 4)
    first = float(np.mean(rewards[:quartile]))
    last = float(np.mean(rewards[-quartile:]))

    bandit_updates, bandit_prob = run_bandit(updates=200, lr=0.01, seed=0)
    digest = _digest(
        [save_policy(trained), tuple(rewards), f"{bandit_prob:.17g}", bandit_updates]
    )
    return digest, first, last, bandit_prob


# -- fixtures caching the first run ---------------------------------------


@pytest.fixture(scope="module")
def c1_digest():
    return run_criterion_1()


@pytest.fixture(scope="module")
def c2_digest():
    return run_criterion_2()


@pytest.fixture(scope="module")
def c3_digest():
    return run_criterion_3()


@pytest.fixture(scope="module")
def c4_digest():
    return run_criterion_4()


@pytest.fixture(scope="module")
def c5_result():
    return run_criterion_5()


def test_criterion_1_conversion_equivalence(c1_digest):
    print("ACCEPTANCE 1 PASS: 500 conversions truth-table-equivalent; fixtures exact")


def test_criterion_2_solver_soundness(c2_digest):
    print("ACCEPTANCE 2 PASS: 500 verdicts match brute force for vsids and sampled policy")


def test_criterion_3_uf20_completeness(c3_digest):
    print("ACCEPTANCE 3 PASS: 50 x (20 vars, 91 clauses) all SAT under 10 s for both heuristics")


def test_criterion_4_reward_bound(c4_digest):
    print("ACCEPTANCE 4 PASS: SAT episodes end at reward 91; all step rewards within [-91, 91]")


def test_criterion_5_learning_signal(c5_result):
    _, first, last, bandit_prob = c5_result
    assert last > first, f"no learning signal: first quartile {first}, last {last}"
    assert bandit_prob > 0.9, f"bandit oracle stuck at {bandit_prob}"
    print(
        f"ACCEPTANCE 5 PASS: window reward {first:.2f} -> {last:.2f}; "
        f"bandit P(best)={bandit_prob:.3f}"
    )


def test_criterion_6_gradient_correctness():
    config = PpoConfig(hidden_sizes=(2,))
    worst = 0.0
    for seed in (0, 1):
        policy = Policy(1, 1, config, seed=seed)
        rng = np.random.default_rng(seed)
        obs = rng.standard_normal(policy.obs_dim)
        mask = np.ones(policy.num_actions, dtype=bool)
        from satkit.rl.policy import masked_log_softmax
        from satkit.rl.heuristic import Transition

        logits = full_logits(policy, obs)[None, :]
        logp = float(masked_log_softmax(logits, mask[None, :])[0, 0])
        d = policy.dynamic_dim
        batch = [Transition(obs[:d], obs[d:], 0, logp + 0.1, 1.0, True, mask)]
        worst = max(worst, finite_difference_check(policy, batch, tol=1e-4))
    print(f"ACCEPTANCE 6 PASS: worst gradient relative error {worst:.2e} < 1e-4")


def test_criterion_7_benchmark_protocol(tmp_path):
    data_dir = tmp_path / "uf20"
    data_dir.mkdir()
    for i, formula in enumerate(c3_instances()):
        write_dimacs_file(formula, data_dir / f"inst_{i:03d}.cnf")
    policy_path = tmp_path / "policy.bin"
    save_policy_file(Policy(20, 91, PpoConfig(hidden_sizes=(32, 32)), seed=0), policy_path)
    csv_path = tmp_path / "records.csv"

    code = cli_main(
        [
            "bench",
            "--dataset", str(data_dir),
            "--policy", str(policy_path),
            "--reps", "1",
            "--timeout-ms", "10000",
            "--out", str(csv_path),
        ]
    )
    assert code == 0

    lines = csv_path.read_text().splitlines()
    assert lines[0].split(",")[:8] == [
        "instance", "heuristic", "verdict", "time_s",
        "decisions", "conflicts", "propagations", "seed",
    ]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 50
    assert all(row[2] == "SAT" for row in rows)

    summary = json.loads(Path(f"{csv_path}.summary.json").read_text())
    assert summary["instances"] == 50
    for heuristic in ("rl", "vsids"):
        assert np.isfinite(summary[f"median_time_s.{heuristic}"])
        assert np.isfinite(summary[f"median_decisions.{heuristic}"])
    assert 0.0 <= summary["fraction_rl_faster"] <= 1.0
    # Wall-clock medians are hardware-dependent and intentionally not asserted.
    print(
        "ACCEPTANCE 7 PASS: bench emits per-instance records, two medians, "
        f"fraction-faster={summary['fraction_rl_faster']:.2f}, "
        f"rl median decisions={summary['median_decisions.rl']}"
    )


def test_criterion_8_determinism(c1_digest, c2_digest, c3_digest, c4_digest, c5_result):
    assert run_criterion_1() == c1_digest
    assert run_criterion_2() == c2_digest
    assert run_criterion_3() == c3_digest
    assert run_criterion_4() == c4_digest
    rerun = run_criterion_5()
    assert rerun == c5_result
    print("ACCEPTANCE 8 PASS: criteria 1-5 reruns are bit-identical (digests match)")
