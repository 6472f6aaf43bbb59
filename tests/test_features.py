import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from satkit.cnf import CnfFormula
from satkit.features import (
    FEATURE_COUNT,
    FEATURE_SCHEMA,
    DegenerateFormulaError,
    extract_features,
)
from satkit.generators import planted_ksat, random_ksat


def test_schema_is_48_slots_with_reserved_tail():
    assert FEATURE_COUNT == 48
    assert len(FEATURE_SCHEMA) == 48
    assert len(set(FEATURE_SCHEMA)) == 48
    reserved = [n for n in FEATURE_SCHEMA if n.startswith("reserved_")]
    assert reserved == [f"reserved_{k}" for k in range(15)]


def test_uf20_shaped_instance_sizes():
    f = planted_ksat(20, 91, random.Random(4))
    fv = extract_features(f)
    assert fv.get("num_vars") == 20
    assert fv.get("num_clauses") == 91
    assert fv.get("clause_var_ratio") == pytest.approx(4.55)
    assert fv.get("var_clause_ratio") == pytest.approx(20 / 91)
    assert fv.get("ratio_gap_4_26") == pytest.approx(abs(91 / 20 - 4.26))
    assert fv.get("frac_ternary_clauses") == 1.0


def test_single_positive_unit_clause():
    f = CnfFormula.from_codes(1, [[1]])
    fv = extract_features(f)
    assert fv.get("var_degree_mean") == 1.0
    assert fv.get("var_degree_vc") == 0.0
    assert fv.get("frac_horn_clauses") == 1.0
    assert fv.get("clause_pos_frac_mean") == 1.0
    assert fv.get("var_horn_count_mean") == 1.0


def test_reserved_slots_are_zero():
    f = planted_ksat(10, 40, random.Random(1))
    fv = extract_features(f)
    for k in range(15):
        assert fv.get(f"reserved_{k}") == 0.0


def test_degenerate_formulas_rejected():
    with pytest.raises(DegenerateFormulaError):
        extract_features(CnfFormula(0, ()))
    with pytest.raises(DegenerateFormulaError):
        extract_features(CnfFormula(3, ()))


def test_unused_variables_count_with_zero_degree():
    f = CnfFormula.from_codes(4, [[1, 2]])
    fv = extract_features(f)
    assert fv.get("var_degree_min") == 0.0
    assert fv.get("var_degree_mean") == pytest.approx(0.5)


def test_recount_oracle_on_random_instances():
    """Straightforward independent recount of a few features."""
    rng = random.Random(2024)
    for _ in range(10):
        f = random_ksat(20, rng.randint(30, 80), rng)
        fv = extract_features(f)

        degrees = Counter()
        horn = 0
        binary = 0
        for clause in f.clauses:
            variables = {abs(code) for code in clause}
            for v in variables:
                degrees[v] += 1
            if sum(1 for code in clause if code > 0) <= 1:
                horn += 1
            if len(variables) == 2:
                binary += 1
        degree_list = [degrees.get(v, 0) for v in range(1, 21)]
        assert fv.get("var_degree_mean") == pytest.approx(sum(degree_list) / 20)
        assert fv.get("var_degree_max") == max(degree_list)
        assert fv.get("var_degree_min") == min(degree_list)
        assert fv.get("frac_horn_clauses") == pytest.approx(horn / f.num_clauses)
        assert fv.get("frac_binary_clauses") == pytest.approx(binary / f.num_clauses)

        counts = Counter(degree_list)
        expected_entropy = -sum(
            (c / 20) * math.log(c / 20) for c in counts.values()
        )
        assert fv.get("var_degree_entropy") == pytest.approx(expected_entropy)


@given(st.integers(min_value=0, max_value=10_000))
def test_permutation_invariance(seed):
    rng = random.Random(seed)
    f = random_ksat(8, rng.randint(5, 25), rng)
    base = extract_features(f).values

    # clause order
    clauses = list(f.clauses)
    rng.shuffle(clauses)
    shuffled = CnfFormula(f.num_vars, tuple(clauses))
    assert np.array_equal(extract_features(shuffled).values, base)

    # literal order within clauses
    roto = CnfFormula(f.num_vars, [reversed(c) for c in f.clauses])
    assert np.array_equal(extract_features(roto).values, base)


@given(st.integers(min_value=0, max_value=10_000))
def test_variable_renaming_invariance(seed):
    rng = random.Random(seed)
    n = 8
    f = random_ksat(n, rng.randint(5, 25), rng)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    renamed = CnfFormula.from_codes(
        n,
        [
            [perm[abs(c) - 1] * (1 if c > 0 else -1) for c in clause]
            for clause in f.clauses
        ],
    )
    assert np.array_equal(extract_features(renamed).values, extract_features(f).values)


@given(st.integers(min_value=0, max_value=10_000))
def test_bounds_on_entropy_and_fractions(seed):
    rng = random.Random(seed)
    f = random_ksat(7, rng.randint(4, 20), rng)
    fv = extract_features(f)
    for name in FEATURE_SCHEMA:
        if name.endswith("_entropy"):
            support = max(f.num_vars, f.num_clauses)
            assert 0.0 <= fv.get(name) <= math.log(support) + 1e-12
        if name.startswith("frac_") or name.endswith("frac_mean"):
            assert 0.0 <= fv.get(name) <= 1.0
    assert np.isfinite(fv.values).all()
