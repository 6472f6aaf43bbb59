import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from satkit.cnf import Assignment, CnfFormula, evaluate_clause
from satkit.features import FEATURE_COUNT, extract_features
from satkit.generators import planted_ksat
from satkit.rl.observation import (
    ShapeMismatchError,
    build_observation,
    clause_evaluations,
    compute_reward,
    flat_observation_dim,
    signed_adjacency,
)


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


def test_shape_mismatch_raises():
    f = CnfFormula.from_codes(2, [[1, 2]])
    with pytest.raises(ShapeMismatchError):
        build_observation(f, Assignment(2), extract_features(f), expected_shape=(20, 91))


@given(st.integers(min_value=0, max_value=10_000))
def test_clause_evaluations_match_cnf_semantics(seed):
    rng = random.Random(seed)
    f = planted_ksat(6, 14, rng)
    a = Assignment(6)
    for var in range(1, 7):
        state = rng.choice([0, 1, -1])
        if state:
            a.assign(var, state > 0)
    evals = clause_evaluations(f, a)
    for i, clause in enumerate(f.clauses):
        assert evals[i] == evaluate_clause(clause, a)


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
