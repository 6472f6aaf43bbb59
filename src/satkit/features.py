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
from dataclasses import dataclass
from itertools import chain

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


def _spreads(samples: np.ndarray) -> list[list[float]]:
    """Mean, variation coefficient, min, max and entropy of each row.

    Each row is sorted first, which makes every statistic bit-identical
    under any permutation of the sample (float summation is
    order-sensitive); a row's mean and std over the sorted stack equal
    those of the row alone. Entropy sums its terms in Python floats, in
    increasing order of value.
    """
    ordered = np.sort(samples, axis=1)
    rows, k = ordered.shape
    # Runs of equal values in the sorted rows; a run's length is the gap
    # to the next run's start, and a row's last run ends at the next
    # row's first entry.
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    flat = np.flatnonzero(starts)
    sums = [0.0] * rows
    for row, count in zip((flat // k).tolist(), np.diff(flat, append=ordered.size).tolist()):
        sums[row] += (count / k) * math.log(count / k)
    out = []
    stats = zip(ordered.tolist(), ordered.mean(axis=1).tolist(), ordered.std(axis=1).tolist(), sums)
    for row, mean, std, total in stats:
        vc = std / mean if mean != 0 else 0.0
        out.append([mean, vc, row[0], row[-1], -total])
    return out


def extract_features(formula: CnfFormula) -> FeatureVector:
    n, m = formula.num_vars, formula.num_clauses
    if n < 1 or m < 1:
        raise DegenerateFormulaError(
            f"need >= 1 variable and >= 1 clause, got {n} vars / {m} clauses"
        )

    # One entry per literal occurrence, then one per distinct
    # (clause, variable) pair: degrees count a variable once per clause,
    # polarity counts every occurrence.
    clauses = formula.clauses
    lengths = np.fromiter(map(len, clauses), dtype=np.int64, count=m)
    codes = np.fromiter(chain.from_iterable(clauses), dtype=np.int64, count=int(lengths.sum()))
    rows = np.repeat(np.arange(m), lengths)
    variables = np.abs(codes)
    positive = codes > 0
    pairs = np.sort(rows * (n + 1) + variables)
    pairs = pairs[np.append(True, pairs[1:] != pairs[:-1])]
    pair_clause, pair_var = np.divmod(pairs, n + 1)

    positives = np.bincount(rows[positive], minlength=m)
    is_horn = positives <= 1
    clause_degree = np.bincount(pair_clause, minlength=m)
    var_degree = np.bincount(pair_var, minlength=n + 1)[1:]
    horn_count = np.bincount(pair_var[is_horn[pair_clause]], minlength=n + 1)[1:]
    pos_occ = np.bincount(variables[positive], minlength=n + 1)[1:]
    total_occ = np.bincount(variables, minlength=n + 1)[1:]
    var_pos_frac = np.zeros(n)
    np.divide(pos_occ, total_occ, out=var_pos_frac, where=total_occ > 0)

    var_spreads = _spreads(np.stack([var_degree, var_pos_frac, horn_count]).astype(np.float64))
    clause_spreads = _spreads(np.stack([clause_degree, positives / lengths]).astype(np.float64))

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
        + var_spreads[0]
        + clause_spreads[0]
        + clause_spreads[1]
        + var_spreads[1]
        + [
            int(np.count_nonzero(clause_degree == 2)) / m,
            int(np.count_nonzero(clause_degree == 3)) / m,
            int(np.count_nonzero(is_horn)) / m,
        ]
        + var_spreads[2]
    )
    values[: len(body)] = body
    return FeatureVector(values)
