"""Global CNF statistics packed into a fixed 48-slot feature vector.

The implemented slots are aggregate statistics over the clause-variable
graph and literal polarities: problem size and ratio features, degree
spreads for variable and clause nodes, positive-literal balance per
clause and per variable, small-clause fractions, and Horn-clause
structure. Every implemented feature is invariant under clause
reordering, literal reordering and variable renaming. Slots without an
implemented statistic are named ``reserved_k`` and are exactly 0, so
the vector shape consumed by the learned heuristic never changes.

Entropy here is the natural-log entropy of the empirical distribution
of exact values in a sample, bounded by log(support size). Variation
coefficient is stddev/mean, defined as 0 when the mean is 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .cnf import CnfFormula
from .errors import SatkitError

FEATURE_SCHEMA_VERSION = 1

_STAT_SUFFIXES = ("mean", "vc", "min", "max", "entropy")


def _spread_names(prefix: str) -> list[str]:
    return [f"{prefix}_{s}" for s in _STAT_SUFFIXES]


FEATURE_SCHEMA: tuple[str, ...] = tuple(
    [
        "num_vars",
        "num_clauses",
        "clause_var_ratio",
        "var_clause_ratio",
        "ratio_gap_4_26",
    ]
    + _spread_names("var_degree")
    + _spread_names("clause_degree")
    + _spread_names("clause_pos_frac")
    + _spread_names("var_pos_frac")
    + [
        "frac_binary_clauses",
        "frac_ternary_clauses",
        "frac_horn_clauses",
    ]
    + _spread_names("var_horn_count")
    + [f"reserved_{k}" for k in range(15)]
)

FEATURE_COUNT = len(FEATURE_SCHEMA)
assert FEATURE_COUNT == 48

_INDEX = {name: i for i, name in enumerate(FEATURE_SCHEMA)}


class DegenerateFormulaError(SatkitError):
    """Feature extraction needs at least one variable and one clause."""


@dataclass(frozen=True, eq=False)
class FeatureVector:
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (FEATURE_COUNT,):
            raise ValueError(f"feature vector must have {FEATURE_COUNT} entries")

    @property
    def schema(self) -> tuple[str, ...]:
        return FEATURE_SCHEMA

    def get(self, name: str) -> float:
        return float(self.values[_INDEX[name]])

    def items(self) -> list[tuple[str, float]]:
        return [(name, float(v)) for name, v in zip(FEATURE_SCHEMA, self.values)]


def _entropy(sorted_sample: list[float]) -> float:
    counts = Counter(sorted_sample)
    n = len(sorted_sample)
    return -sum((c / n) * math.log(c / n) for _, c in sorted(counts.items()))


def _spread(sample: list[float]) -> list[float]:
    # Sorting first makes every statistic bit-identical under any
    # permutation of the input (float summation is order-sensitive).
    ordered = sorted(sample)
    arr = np.asarray(ordered, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std())
    vc = std / mean if mean != 0 else 0.0
    return [mean, vc, ordered[0], ordered[-1], _entropy(ordered)]


def extract_features(formula: CnfFormula) -> FeatureVector:
    n, m = formula.num_vars, formula.num_clauses
    if n < 1 or m < 1:
        raise DegenerateFormulaError(
            f"need >= 1 variable and >= 1 clause, got {n} vars / {m} clauses"
        )

    var_degree = [0] * (n + 1)
    pos_occ = [0] * (n + 1)
    neg_occ = [0] * (n + 1)
    horn_count = [0] * (n + 1)

    clause_degrees = []
    clause_pos_fracs = []
    horn_flags = []
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
        if size == 2:
            binary += 1
        elif size == 3:
            ternary += 1
        is_horn = positives <= 1
        horn_flags.append(is_horn)
        if is_horn:
            for v in variables:
                horn_count[v] += 1

    var_pos_fracs = []
    for v in range(1, n + 1):
        total = pos_occ[v] + neg_occ[v]
        var_pos_fracs.append(pos_occ[v] / total if total else 0.0)

    ratio = m / n
    values = np.zeros(FEATURE_COUNT, dtype=np.float64)
    head = [
        float(n),
        float(m),
        ratio,
        n / m,
        abs(ratio - 4.26),
    ]
    body = (
        head
        + _spread([float(d) for d in var_degree[1:]])
        + _spread(clause_degrees)
        + _spread(clause_pos_fracs)
        + _spread(var_pos_fracs)
        + [binary / m, ternary / m, sum(horn_flags) / m]
        + _spread([float(h) for h in horn_count[1:]])
    )
    values[: len(body)] = body
    return FeatureVector(values)
