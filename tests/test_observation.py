import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit.cnf import CnfFormula
from satkit.features import clause_incidence, extract_features
from satkit.generators import planted_ksat, random_ksat
from satkit.rl.heuristic import PolicyHeuristic
from satkit.rl.observation import (
    build_observation,
    clause_evaluations,
    dynamic_block,
    flat_observation_dim,
    signed_adjacency,
)
from satkit.rl.policy import Policy, PpoConfig
from satkit.solver.engine import SolveLimits, Solver

from oracles import compute_reward


def test_single_clause_observation():
    f = CnfFormula.from_codes(2, [[1, 2]])
    feats = extract_features(f)
    obs = build_observation(f, [1, 0], feats)
    assert obs[:2].tolist() == [1.0, 0.0]  # variable assignments
    assert obs[2:3].tolist() == [1.0]  # clause evaluations
    assert obs[3:5].tolist() == [1.0, 1.0]  # signed adjacency, row-major
    assert obs[5:].tolist() == feats.tolist()


def test_empty_assignment_is_all_zero():
    f = CnfFormula.from_codes(3, [[1, -2], [-1, 3]])
    obs = build_observation(f, [0] * 3, extract_features(f))
    assert not obs[:3].any()  # variable assignments
    assert not obs[3:5].any()  # clause evaluations


def test_negative_literals_encode_minus_one():
    f = CnfFormula.from_codes(3, [[-1, 2], [3, -2]])
    adj = signed_adjacency(f)
    assert adj.tolist() == [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]


def test_both_polarities_store_plus_one():
    f = CnfFormula.from_codes(1, [[1, -1]])
    assert signed_adjacency(f).tolist() == [[1.0]]


def test_a_formula_without_clauses_has_an_empty_adjacency():
    assert signed_adjacency(CnfFormula(3, ())).shape == (0, 3)


def test_uf20_flattened_length():
    f = planted_ksat(20, 91, random.Random(0))
    obs = build_observation(f, [0] * 20, extract_features(f))
    assert flat_observation_dim(20, 91) == 20 + 91 + 1820 + 48 == 1979
    assert obs.shape == (1979,)


@given(st.integers(min_value=0, max_value=10_000))
def test_clause_evaluations_match_cnf_semantics(seed):
    rng = random.Random(seed)
    f = planted_ksat(6, 14, rng)
    a = [rng.choice([0, 1, -1]) for _ in range(6)]
    # Reference from the incidence matrix: a clause is satisfied when one
    # of its literals agrees in sign with its variable's value, pending
    # when none does and one of its variables is unassigned.
    adj = signed_adjacency(f)
    values = np.array(a, dtype=np.float64)
    satisfied = (adj * values > 0).any(axis=1)
    pending = ((adj != 0) & (values == 0)).any(axis=1)
    expected = np.where(satisfied, 1.0, np.where(pending, 0.0, -1.0))
    assert clause_evaluations(f, a).tolist() == expected.tolist()


class TestReward:
    def test_all_91_satisfied(self):
        assert compute_reward(np.ones(91)) == 91

    def test_all_91_falsified(self):
        assert compute_reward(-np.ones(91)) == -91

    def test_mixed_counts(self):
        evals = np.array([1.0, 1.0, 1.0, -1.0, 0.0, 0.0])
        assert compute_reward(evals) == 2

    @given(st.lists(st.sampled_from([1.0, -1.0, 0.0]), min_size=1, max_size=91))
    def test_reward_bounds(self, evals):
        r = compute_reward(np.array(evals))
        assert -len(evals) <= r <= len(evals)
        assert r == len(evals) if all(e == 1.0 for e in evals) else True


def reference_adjacency(formula):
    """The per-literal loop ``signed_adjacency`` replaced, kept as its oracle."""
    adj = np.zeros((formula.num_clauses, formula.num_vars), dtype=np.float64)
    for i, clause in enumerate(formula.clauses):
        for code in clause:
            j = abs(code) - 1
            if code > 0:
                adj[i, j] = 1.0
            elif adj[i, j] == 0:
                adj[i, j] = -1.0
    return adj


@st.composite
def formulas_with_repeats(draw, max_vars=8):
    """Random 3-literal clauses, 2n to 4n of them, beside a few unit,
    binary and long ones and at least one duplicated and one
    complementary literal pair, in any order."""
    n = draw(st.integers(min_value=3, max_value=max_vars))
    literal = st.integers(min_value=1, max_value=n).flatmap(lambda v: st.sampled_from([v, -v]))

    def clauses(size, count):
        return draw(st.lists(st.lists(literal, min_size=size, max_size=size), min_size=count, max_size=count))

    body = clauses(3, draw(st.integers(min_value=2 * n, max_value=4 * n)))
    body += clauses(1, draw(st.integers(0, 1))) + clauses(2, draw(st.integers(0, 2)))
    body += clauses(5, draw(st.integers(0, 2)))
    a, b = draw(literal), draw(literal)
    body += [[a, a, b], [b, -b, a]]
    order = draw(st.permutations(range(len(body))))
    return CnfFormula(n, [body[i] for i in order])


@given(formulas_with_repeats())
def test_adjacency_matches_the_per_literal_loop(formula):
    assert signed_adjacency(formula).tobytes() == reference_adjacency(formula).tobytes()


def values_of(num_vars, trail):
    values = [0] * num_vars
    for lit in trail:
        values[abs(lit) - 1] = 1 if lit > 0 else -1
    return values


def reference_block(formula, values):
    """The dynamic block from ``evaluate_clause``, clause by clause."""
    return np.concatenate([np.asarray(values, dtype=np.float64), clause_evaluations(formula, values)])


@given(formulas_with_repeats(), st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=12))
def test_clause_status_follows_any_sequence_of_trails(formula, seeds):
    """Trails that keep a prefix, grow, shrink or start over: the
    clause block, in bytes (no -0.0), and its sum, the reward."""
    incidence = clause_incidence(formula)
    n = formula.num_vars
    trail = []
    variables = list(range(1, n + 1))
    for seed in seeds:
        rng = random.Random(seed)
        trail = trail[: rng.randint(0, len(trail))]
        free = [v for v in variables if v not in {abs(lit) for lit in trail}]
        rng.shuffle(free)
        trail = trail + [v if rng.random() < 0.5 else -v for v in free[: rng.randint(0, len(free))]]
        values = values_of(n, trail)
        block = dynamic_block(incidence, values)
        expected = reference_block(formula, values)
        assert block.tobytes() == expected.tobytes()
        assert block[n:].sum() == compute_reward(expected[n:])


class RecordingPolicy(Policy):
    """A policy that keeps the last dynamic block it was asked to act on."""

    def act(self, dynamic, fold, rng=None):
        self.last_dynamic = dynamic.copy()
        return super().act(dynamic, fold, rng)


class CheckedHeuristic(PolicyHeuristic):
    """A policy heuristic that checks, at every decision, the dynamic
    block it hands the policy and, at every step, the block and reward
    of the state the step leaves, against the from-scratch evaluation;
    when sampling and recording, also the transition's observation and
    reward."""

    checks = 0

    def decide(self, solver):
        decision = super().decide(solver)  # the solver has not assigned it yet
        n = self.formula.num_vars
        expected = reference_block(self.formula, solver.values)
        acted_on = self.policy.last_dynamic
        assert acted_on.tobytes() == expected.tobytes()
        assert acted_on[n:].sum() == compute_reward(expected[n:])
        if self.rng is not None:
            full = build_observation(self.formula, solver.values, extract_features(self.formula))
            last = self.transitions[-1]
            recorded = np.concatenate([last.observation, last.static])
            assert recorded.tobytes() == full.tobytes()
        self.checks += 1
        return decision

    def on_step(self, solver):
        super().on_step(solver)
        n = self.formula.num_vars
        expected = reference_block(self.formula, solver.values)
        if self.rng is not None:
            assert self.transitions[-1].reward == float(compute_reward(expected[n:]))
        block = dynamic_block(self._incidence, solver.values)
        assert block.tobytes() == expected.tobytes()
        assert block[n:].sum() == compute_reward(expected[n:])
        self.checks += 1


# Greedy unrecorded runs, and sampled recorded ones.
RECORD = dict(argnames="record", argvalues=[False, True], ids=["greedy-False", "sample-True"])


def checked_solve(formula, record, seed=0):
    policy = RecordingPolicy(formula.num_vars, formula.num_clauses, PpoConfig(hidden_sizes=(8,)), seed=seed)
    heuristic = CheckedHeuristic(policy, formula, np.random.default_rng(seed) if record else None)
    result = Solver(formula, heuristic, SolveLimits(max_decisions=2000)).run()
    return heuristic, result


@pytest.mark.parametrize(**RECORD)
@settings(max_examples=50, deadline=None)
@given(formula=formulas_with_repeats(max_vars=12), seed=st.integers(0, 1000))
def test_clause_status_equals_the_reference_at_every_step(record, formula, seed):
    heuristic, result = checked_solve(formula, record, seed)
    assert heuristic.checks == 2 * result.stats.decisions


@pytest.mark.parametrize(**RECORD)
def test_the_checked_runs_backjump(record):
    """These 3-SAT instances reach conflicts, so the clause block is
    checked across backjumps."""
    conflicts = 0
    for k in range(4):
        formula = random_ksat(16, 72, random.Random(k))
        heuristic, result = checked_solve(formula, record, k)
        assert heuristic.checks == 2 * result.stats.decisions
        conflicts += result.stats.conflicts
    assert conflicts > 0
