import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from satkit.cnf import CnfFormula
from satkit.features import (
    FEATURE_COUNT,
    FEATURE_SCHEMA,
    DegenerateFormulaError,
    clause_incidence,
    extract_features,
)
from satkit.generators import planted_ksat, random_ksat

from oracles import any_formula, reference_extract_features


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


def reference_features(formula):
    """The per-clause loop ``extract_features`` replaced, kept as its
    oracle: every statistic from Python lists, one sample at a time."""

    def entropy(ordered):
        counts = Counter(ordered)
        k = len(ordered)
        return -sum((c / k) * math.log(c / k) for _, c in sorted(counts.items()))

    def spread(sample):
        ordered = sorted(sample)
        arr = np.asarray(ordered, dtype=np.float64)
        mean = float(arr.mean())
        std = float(arr.std())
        vc = std / mean if mean != 0 else 0.0
        return [mean, vc, ordered[0], ordered[-1], entropy(ordered)]

    n, m = formula.num_vars, formula.num_clauses
    var_degree = [0] * (n + 1)
    pos_occ = [0] * (n + 1)
    neg_occ = [0] * (n + 1)
    horn_count = [0] * (n + 1)
    clause_degrees, clause_pos_fracs, horn_flags = [], [], []
    binary = ternary = 0
    for codes in formula.clauses:
        variables = {abs(code) for code in codes}
        for v in variables:
            var_degree[v] += 1
        positives = 0
        for code in codes:
            if code > 0:
                positives += 1
                pos_occ[code] += 1
            else:
                neg_occ[-code] += 1
        size = len(variables)
        clause_degrees.append(float(size))
        clause_pos_fracs.append(positives / len(codes))
        binary += size == 2
        ternary += size == 3
        horn_flags.append(positives <= 1)
        if positives <= 1:
            for v in variables:
                horn_count[v] += 1
    var_pos_fracs = []
    for v in range(1, n + 1):
        total = pos_occ[v] + neg_occ[v]
        var_pos_fracs.append(pos_occ[v] / total if total else 0.0)
    ratio = m / n
    body = (
        [float(n), float(m), ratio, n / m, abs(ratio - 4.26)]
        + spread([float(d) for d in var_degree[1:]])
        + spread(clause_degrees)
        + spread(clause_pos_fracs)
        + spread(var_pos_fracs)
        + [binary / m, ternary / m, sum(horn_flags) / m]
        + spread([float(h) for h in horn_count[1:]])
    )
    values = np.zeros(FEATURE_COUNT, dtype=np.float64)
    values[: len(body)] = body
    return values


@given(any_formula())
def test_features_match_the_per_clause_loop_bit_for_bit(formula):
    assert extract_features(formula).values.tobytes() == reference_features(formula).tobytes()


def test_features_match_the_per_clause_loop_on_generated_instances():
    rng = random.Random(77)
    for k in range(40):
        n = rng.randint(5, 80)
        m = rng.randint(1, 6 * n)
        make = planted_ksat if k % 2 else random_ksat
        f = make(n, m, rng)
        assert extract_features(f).values.tobytes() == reference_features(f).tobytes()


@given(any_formula())
@example(CnfFormula(1, [[1, -1, 1]]))
@example(CnfFormula(1, [[-1], [1, 1], [-1, 1]]))
@example(CnfFormula(4, [[2, -3, 2, -2]]))
def test_features_match_the_reference_extraction_bit_for_bit(formula):
    expected = reference_extract_features(formula).tobytes()
    assert extract_features(formula).values.tobytes() == expected
    incidence = clause_incidence(formula)
    assert extract_features(formula, incidence).values.tobytes() == expected


def test_features_match_the_reference_extraction_on_generated_instances():
    rng = random.Random(78)
    for k in range(60):
        n = rng.randint(3, 80)
        f = (planted_ksat if k % 2 else random_ksat)(n, rng.randint(1, 6 * n), rng)
        assert extract_features(f).values.tobytes() == reference_extract_features(f).tobytes()
