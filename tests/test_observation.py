import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit.cnf import Assignment, CnfFormula
from satkit.features import FEATURE_COUNT, extract_features
from satkit.generators import planted_ksat, random_ksat
from satkit.rl.heuristic import PolicyHeuristic
from satkit.rl.observation import (
    ClauseStatus,
    build_observation,
    clause_evaluations,
    compute_reward,
    flat_observation_dim,
    signed_adjacency,
)
from satkit.rl.policy import Policy, PpoConfig
from satkit.solver.engine import SolveLimits, Solver


def test_single_clause_observation():
    f = CnfFormula.from_codes(2, [[1, 2]])
    feats = extract_features(f)
    a = Assignment(2)
    a.assign(1, True)
    obs = build_observation(f, a, feats)
    assert obs[:2].tolist() == [1.0, 0.0]  # variable assignments
    assert obs[2:3].tolist() == [1.0]  # clause evaluations
    assert obs[3:5].tolist() == [1.0, 1.0]  # signed adjacency, row-major
    assert obs[5:].tolist() == feats.values.tolist()


def test_empty_assignment_is_all_zero():
    f = CnfFormula.from_codes(3, [[1, -2], [-1, 3]])
    obs = build_observation(f, Assignment(3), extract_features(f))
    assert not obs[:3].any()  # variable assignments
    assert not obs[3:5].any()  # clause evaluations


def test_negative_literals_encode_minus_one():
    f = CnfFormula.from_codes(3, [[-1, 2], [3, -2]])
    adj = signed_adjacency(f)
    assert adj.tolist() == [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]


def test_both_polarities_store_plus_one():
    f = CnfFormula.from_codes(1, [[1, -1]])
    assert signed_adjacency(f).tolist() == [[1.0]]


def test_uf20_flattened_length():
    f = planted_ksat(20, 91, random.Random(0))
    obs = build_observation(f, Assignment(20), extract_features(f))
    assert flat_observation_dim(20, 91) == 20 + 91 + 1820 + 48 == 1979
    assert obs.shape == (1979,)


@given(st.integers(min_value=0, max_value=10_000))
def test_clause_evaluations_match_cnf_semantics(seed):
    rng = random.Random(seed)
    f = planted_ksat(6, 14, rng)
    a = Assignment(6)
    for var in range(1, 7):
        state = rng.choice([0, 1, -1])
        if state:
            a.assign(var, state > 0)
    # Reference from the incidence matrix: a clause is satisfied when one
    # of its literals agrees in sign with its variable's value, pending
    # when none does and one of its variables is unassigned.
    adj = signed_adjacency(f)
    values = np.array(a.values, dtype=np.float64)
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


def assignment_of(num_vars, trail):
    a = Assignment(num_vars)
    for lit in trail:
        a.assign(abs(lit), lit > 0)
    return a


@given(formulas_with_repeats(), st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=12))
def test_clause_status_follows_any_sequence_of_trails(formula, seeds):
    """Trails that keep a prefix, grow, shrink or start over."""
    status = ClauseStatus(formula)
    trail = []
    variables = list(range(1, formula.num_vars + 1))
    for seed in seeds:
        rng = random.Random(seed)
        trail = trail[: rng.randint(0, len(trail))]
        free = [v for v in variables if v not in {abs(lit) for lit in trail}]
        rng.shuffle(free)
        trail = trail + [v if rng.random() < 0.5 else -v for v in free[: rng.randint(0, len(free))]]
        status.sync(list(trail))
        expected = clause_evaluations(formula, assignment_of(formula.num_vars, trail))
        assert status.status == expected.tolist()
        assert status.reward() == compute_reward(expected)


class CheckedHeuristic(PolicyHeuristic):
    """A policy heuristic that checks, at every decision and step, its
    clause-status tracker against the from-scratch evaluation; when
    recording, also the transition's observation and reward."""

    checks = 0

    def decide(self, solver):
        decision = super().decide(solver)  # the solver has not assigned it yet
        expected = clause_evaluations(self.formula, solver.assignment)
        assert self.clause_status.status == expected.tolist()
        assert self.clause_status.reward() == compute_reward(expected)
        if self.record:
            full = build_observation(self.formula, solver.assignment, extract_features(self.formula))
            assert self.transitions[-1].observation.tobytes() == full.tobytes()
        self.checks += 1
        return decision

    def on_step(self, solver, verdict):
        super().on_step(solver, verdict)
        expected = clause_evaluations(self.formula, solver.assignment)
        if self.record:
            assert self.transitions[-1].reward == float(compute_reward(expected))
        else:
            self.clause_status.sync(solver.trail)  # only recording syncs here
        assert self.clause_status.status == expected.tolist()
        assert self.clause_status.reward() == compute_reward(expected)
        self.checks += 1


SOLVER_FLAGS = [
    dict(enable_restarts=restarts, restart_interval=2, enable_clause_deletion=deletion, max_learned_factor=0.02)
    for restarts in (False, True)
    for deletion in (False, True)
]
MODES = [("greedy", False), ("sample", True)]


def checked_solve(formula, flags, mode, record, seed=0):
    policy = Policy(formula.num_vars, formula.num_clauses, PpoConfig(hidden_sizes=(8,)), seed=seed)
    heuristic = CheckedHeuristic(policy, formula, mode, np.random.default_rng(seed), record)
    solver = Solver(formula, heuristic, SolveLimits(max_decisions=2000), **flags)
    result = solver.run()
    return heuristic, result, solver.num_live_learned


@pytest.mark.parametrize("flags", SOLVER_FLAGS)
@pytest.mark.parametrize("mode,record", MODES)
@settings(max_examples=50, deadline=None)
@given(formula=formulas_with_repeats(max_vars=12), seed=st.integers(0, 1000))
def test_clause_status_equals_the_reference_at_every_step(flags, mode, record, formula, seed):
    heuristic, result, _ = checked_solve(formula, flags, mode, record, seed)
    assert heuristic.checks == 2 * result.stats.decisions


@pytest.mark.parametrize("flags", SOLVER_FLAGS)
@pytest.mark.parametrize("mode,record", MODES)
def test_the_checked_runs_restart_delete_and_backjump(flags, mode, record):
    """On these 3-SAT instances the flags take effect, so the tracker is
    checked across backjumps, restarts and learned-clause deletions."""
    restarts = deletions = conflicts = 0
    for k in range(4):
        formula = random_ksat(16, 72, random.Random(k))
        heuristic, result, live_learned = checked_solve(formula, flags, mode, record, k)
        assert heuristic.checks == 2 * result.stats.decisions
        conflicts += result.stats.conflicts
        restarts += result.stats.restarts
        deletions += result.stats.learned - live_learned
    assert conflicts > 0
    assert (restarts > 0) == flags["enable_restarts"]
    assert (deletions > 0) == flags["enable_clause_deletion"]
