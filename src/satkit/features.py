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
coefficient is stddev/mean, defined as 0 when the mean is 0; mean and
std are the reductions ``np.mean`` and ``np.std`` make, called directly.
``clause_incidence`` decodes the clauses once, for the features and for
the signed adjacency's nonzero entries that the policy folds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional

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

    def get(self, name: str) -> float:
        return float(self.values[_INDEX[name]])

    def items(self) -> list[tuple[str, float]]:
        return [(name, float(v)) for name, v in zip(FEATURE_SCHEMA, self.values)]


class Incidence(NamedTuple):
    """Clause lengths; per literal occurrence its code and clause; per distinct
    (clause, variable) pair, row-major, both and whether the variable is positive."""

    lengths: np.ndarray
    codes: np.ndarray
    rows: np.ndarray
    pair_clause: np.ndarray
    pair_var: np.ndarray
    pair_positive: np.ndarray


def clause_incidence(formula: CnfFormula) -> Incidence:
    n, m = formula.num_vars, formula.num_clauses
    lengths = np.fromiter(map(len, formula.clauses), dtype=np.int64, count=m)
    codes = np.fromiter(chain.from_iterable(formula.clauses), dtype=np.int64, count=int(lengths.sum()))
    rows = np.repeat(np.arange(m), lengths)
    # A set low bit marks a negative occurrence, so a pair's occurrences
    # sort together, any positive one first.
    keys = np.sort((rows * (n + 1) + np.abs(codes)) * 2 + (codes < 0))
    first = np.ones(keys.size, dtype=bool)
    first[1:] = (keys[1:] >> 1) != (keys[:-1] >> 1)
    keys = keys[first]
    pair_clause, pair_var = np.divmod(keys >> 1, n + 1)
    return Incidence(lengths, codes, rows, pair_clause, pair_var, (keys & 1) == 0)


def _spreads(samples: np.ndarray) -> list[list[float]]:
    """Mean, variation coefficient, min, max and entropy of each row.

    Each row is sorted first, which makes every statistic bit-identical
    under any permutation of the sample (float summation is
    order-sensitive). Entropy sums its terms in Python floats, in
    increasing order of value.
    """
    ordered = np.sort(samples, axis=1)
    rows, k = ordered.shape
    means = np.add.reduce(ordered, axis=1) / k
    deviations = ordered - means[:, None]
    stds = np.sqrt(np.add.reduce(deviations * deviations, axis=1) / k)
    # Runs of equal values in the sorted rows; a run ends where the next
    # one starts, a row's last run at the next row's first entry.
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    bounds = np.flatnonzero(starts).tolist()
    sums = [0.0] * rows
    for start, end in zip(bounds, bounds[1:] + [ordered.size]):
        sums[start // k] += ((end - start) / k) * math.log((end - start) / k)
    out = []
    stats = zip(means.tolist(), stds.tolist(), ordered[:, 0].tolist(), ordered[:, -1].tolist(), sums)
    for mean, std, low, high, total in stats:
        out.append([mean, std / mean if mean != 0 else 0.0, low, high, -total])
    return out


def extract_features(formula: CnfFormula, incidence: Optional[Incidence] = None) -> FeatureVector:
    """``formula``'s features, from its ``clause_incidence`` if given."""
    n, m = formula.num_vars, formula.num_clauses
    if n < 1 or m < 1:
        raise DegenerateFormulaError(
            f"need >= 1 variable and >= 1 clause, got {n} vars / {m} clauses"
        )

    # Degrees count a variable once per clause (the distinct pairs),
    # polarity counts every occurrence.
    inc = clause_incidence(formula) if incidence is None else incidence
    variables = np.abs(inc.codes)
    positive = inc.codes > 0
    positives = np.bincount(inc.rows[positive], minlength=m)
    is_horn = positives <= 1
    clause_degree = np.bincount(inc.pair_clause, minlength=m)
    pos_occ = np.bincount(variables[positive], minlength=n + 1)[1:]
    total_occ = np.bincount(variables, minlength=n + 1)[1:]
    var_samples = np.empty((3, n))  # degree, positive fraction (0 if unused), Horn count
    var_samples[0] = np.bincount(inc.pair_var, minlength=n + 1)[1:]
    np.divide(pos_occ, np.maximum(total_occ, 1), out=var_samples[1])
    var_samples[2] = np.bincount(inc.pair_var[is_horn[inc.pair_clause]], minlength=n + 1)[1:]
    clause_samples = np.array([clause_degree, positives / inc.lengths], dtype=np.float64)
    var_spreads = _spreads(var_samples)
    clause_spreads = _spreads(clause_samples)
    degree_counts = np.bincount(clause_degree, minlength=4)

    ratio = m / n
    body = (
        [float(n), float(m), ratio, n / m, abs(ratio - 4.26)]
        + var_spreads[0]
        + clause_spreads[0]
        + clause_spreads[1]
        + var_spreads[1]
        + [int(degree_counts[2]) / m, int(degree_counts[3]) / m, int(np.count_nonzero(is_horn)) / m]
        + var_spreads[2]
    )
    values = np.zeros(FEATURE_COUNT, dtype=np.float64)
    values[: len(body)] = body
    return FeatureVector(values)
