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
``clause_incidence`` decodes the clauses once, for the features, for
the signed adjacency's nonzero entries that the policy folds, and for
the clause block that the learned heuristic evaluates at each decision.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from .cnf import CnfFormula
from .errors import SatkitError

_STAT_SUFFIXES = ("mean", "vc", "min", "max", "entropy")


def _spread_names(prefix: str) -> list[str]:
    return [f"{prefix}_{s}" for s in _STAT_SUFFIXES]


# The schema's version number, FEATURE_SCHEMA_VERSION, lives in the
# numpy-free satkit.config, so that ``satkit --version`` loads no numpy.
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


class DegenerateFormulaError(SatkitError):
    """Feature extraction needs at least one variable and one clause."""


class Incidence(NamedTuple):
    """A formula's clauses decoded into arrays. Per clause: its length
    and the offset of its first literal occurrence. Per occurrence, in
    clause order: its clause, its variable (0-based) and its sign, +1 or
    -1. Per distinct (clause, variable) pair, row-major: its position
    ``clause * n + variable`` in the clause-by-variable adjacency, and
    +1.0 if the variable occurs positively in the clause, else -1.0."""

    lengths: np.ndarray
    starts: np.ndarray
    rows: np.ndarray
    variables: np.ndarray
    signs: np.ndarray
    pairs: np.ndarray
    pair_signs: np.ndarray


# A pair's adjacency value by its key's low bit.
_PAIR_SIGNS = np.array([1.0, -1.0])
_PAIR_SIGNS.flags.writeable = False


def clause_incidence(formula: CnfFormula) -> Incidence:
    n, m = formula.num_vars, formula.num_clauses
    lengths = np.fromiter(map(len, formula.clauses), dtype=np.int64, count=m)
    codes = np.fromiter(chain.from_iterable(formula.clauses), dtype=np.int64)
    starts = lengths.cumsum()
    starts -= lengths
    rows = np.arange(m).repeat(lengths)
    signs = np.sign(codes)
    variables = codes * signs
    variables -= 1
    # Twice the pair's position, plus 1 for a negative occurrence, so a
    # pair's occurrences sort together, any positive one first.
    keys = rows * (2 * n)
    keys += 2 * variables
    keys += codes < 0
    keys.sort()
    pairs = keys >> 1
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    return Incidence(lengths, starts, rows, variables, signs, pairs[first], _PAIR_SIGNS[keys[first] & 1])


def _spreads(samples: np.ndarray, blocks: tuple[np.ndarray, ...]) -> list[list[float]]:
    """Mean, variation coefficient, min, max and entropy of each row of
    ``blocks``, 2-D views that tile the flat array ``samples`` in order.

    Each row is sorted in place first, which makes every statistic
    bit-identical under any permutation of the sample (float summation
    is order-sensitive). Entropy sums its terms in Python floats, in
    increasing order of value.
    """
    means: list[float] = []
    variances: list[float] = []
    widths: list[int] = []
    for block in blocks:
        block.sort(axis=1)
        k = block.shape[1]
        mean = np.add.reduce(block, axis=1) / k
        deviations = block - mean[:, None]
        deviations *= deviations
        means += mean.tolist()
        variances += [total / k for total in np.add.reduce(deviations, axis=1).tolist()]
        widths += [k] * block.shape[0]
    # A run of equal values ends where the next one starts; every row
    # starts one, and a row's last run ends at the next row's start.
    row_starts = [0]
    for k in widths:
        row_starts.append(row_starts[-1] + k)
    new_run = np.empty(samples.size, dtype=bool)
    np.not_equal(samples[1:], samples[:-1], out=new_run[1:])
    new_run[row_starts[:-1]] = True
    bounds = new_run.nonzero()[0]
    run_values = samples[bounds].tolist()
    bounds = bounds.tolist()
    bounds.append(samples.size)
    out = []
    run = 0
    for mean, variance, k, end in zip(means, variances, widths, row_starts[1:]):
        low = run_values[run]
        total = 0.0
        while bounds[run] < end:
            p = (bounds[run + 1] - bounds[run]) / k
            total += p * math.log(p)
            run += 1
        std = math.sqrt(variance)
        # 0.0 - total, not -total: a constant row's entropy is +0.0
        out.append([mean, std / mean if mean != 0 else 0.0, low, run_values[run - 1], 0.0 - total])
    return out


def extract_features(formula: CnfFormula, incidence: Optional[Incidence] = None) -> np.ndarray:
    """``formula``'s ``FEATURE_COUNT`` features in ``FEATURE_SCHEMA``
    order, from its ``clause_incidence`` if given."""
    n, m = formula.num_vars, formula.num_clauses
    if n < 1 or m < 1:
        raise DegenerateFormulaError(
            f"need >= 1 variable and >= 1 clause, got {n} vars / {m} clauses"
        )

    # Degrees count a variable once per clause (the distinct pairs),
    # polarity counts every occurrence.
    inc = clause_incidence(formula) if incidence is None else incidence
    positive = inc.signs > 0
    pair_clause = inc.pairs // n
    pair_var = inc.pairs % n
    positives = np.bincount(inc.rows, weights=positive, minlength=m)
    is_horn = positives <= 1
    clause_degree = np.bincount(pair_clause, minlength=m)
    samples = np.empty(3 * n + 2 * m)
    # Per variable: degree, positive fraction (0 if unused), Horn count;
    # per clause: degree, positive fraction.
    var_samples = samples[: 3 * n].reshape(3, n)
    clause_samples = samples[3 * n :].reshape(2, m)
    var_samples[0] = np.bincount(pair_var, minlength=n)
    total_occ = np.bincount(inc.variables, minlength=n)
    np.maximum(total_occ, 1, out=total_occ)
    np.divide(np.bincount(inc.variables, weights=positive, minlength=n), total_occ, out=var_samples[1])
    var_samples[2] = np.bincount(pair_var, weights=is_horn[pair_clause], minlength=n)
    clause_samples[0] = clause_degree
    np.divide(positives, inc.lengths, out=clause_samples[1])
    spreads = _spreads(samples, (var_samples, clause_samples))
    degree_counts = np.bincount(clause_degree, minlength=4)

    ratio = m / n
    body = (
        [float(n), float(m), ratio, n / m, abs(ratio - 4.26)]
        + spreads[0]
        + spreads[3]
        + spreads[4]
        + spreads[1]
        + [int(degree_counts[2]) / m, int(degree_counts[3]) / m, int(np.count_nonzero(is_horn)) / m]
        + spreads[2]
    )
    values = np.zeros(FEATURE_COUNT, dtype=np.float64)
    values[: len(body)] = body
    return values
