"""Dataset management and the two-heuristic comparison protocol.

``run_comparison`` solves every test instance with the VSIDS baseline
and with the greedy learned policy under identical limits and seeds,
taking the minimum wall time over repetitions. Solve time excludes
parsing; the policy's feature-extraction and setup cost is timed
separately and reported in its own column. ``summarize`` reduces the
records to per-heuristic medians and the fraction of instances where
the learned heuristic is strictly faster (ties excluded from the
numerator, all instances in the denominator).

CSV schema: instance,heuristic,verdict,time_s,decisions,conflicts,
propagations,seed plus a trailing feature_time_s column.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .cnf import CnfFormula
from .dimacs import DimacsError, read_dimacs_file
from .errors import SatkitError
from .rl.heuristic import PolicyHeuristic
from .rl.policy import Policy
from .solver.engine import SolveLimits, Solver, Verdict
from .solver.heuristics import VsidsHeuristic

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = [
    "instance",
    "heuristic",
    "verdict",
    "time_s",
    "decisions",
    "conflicts",
    "propagations",
    "seed",
    "feature_time_s",
]

logger = logging.getLogger(__name__)


class BenchError(SatkitError):
    pass


class MismatchedCoverageError(BenchError):
    """The two heuristics do not cover identical instance sets."""


@dataclass(frozen=True)
class Instance:
    name: str
    formula: CnfFormula


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[str, ...]
    test: tuple[str, ...]
    seed: int


@dataclass
class BenchRecord:
    instance: str
    heuristic: str
    verdict: Verdict
    time_s: float
    decisions: int
    conflicts: int
    propagations: int
    seed: int
    feature_time_s: float = 0.0


@dataclass
class Summary:
    instances: int
    median_time: dict[str, float]
    median_decisions: dict[str, float]
    mean_decisions: dict[str, float]
    mean_conflicts: dict[str, float]
    fraction_rl_faster: float

    def as_flat_dict(self) -> dict[str, float]:
        flat: dict[str, float] = {"instances": self.instances}
        for name, value in sorted(self.median_time.items()):
            flat[f"median_time_s.{name}"] = value
        for name, value in sorted(self.median_decisions.items()):
            flat[f"median_decisions.{name}"] = value
        for name, value in sorted(self.mean_decisions.items()):
            flat[f"mean_decisions.{name}"] = value
        for name, value in sorted(self.mean_conflicts.items()):
            flat[f"mean_conflicts.{name}"] = value
        flat["fraction_rl_faster"] = self.fraction_rl_faster
        return flat

    def render_text(self) -> str:
        lines = [f"instances: {self.instances}"]
        for name in sorted(self.median_time):
            lines.append(
                f"{name}: median_time_s={self.median_time[name]:.6f} "
                f"median_decisions={self.median_decisions[name]:.1f} "
                f"mean_decisions={self.mean_decisions[name]:.2f} "
                f"mean_conflicts={self.mean_conflicts[name]:.2f}"
            )
        lines.append(f"fraction_rl_faster: {self.fraction_rl_faster:.4f}")
        return "\n".join(lines) + "\n"


def load_dataset(
    directory,
    strict: bool = False,
    expect_shape: Optional[tuple[int, int]] = None,
) -> list[Instance]:
    """Parse every *.cnf file in name-sorted order.

    Parse failures are logged and skipped unless ``strict``. With
    ``expect_shape`` each instance must have exactly that
    (num_vars, num_clauses), the uf20-91 integrity check.
    """
    root = Path(directory)
    paths = sorted(root.glob("*.cnf"), key=lambda p: p.name)
    if not paths:
        logger.warning("no .cnf files found in %s", root)
        return []
    out: list[Instance] = []
    for path in paths:
        try:
            formula = read_dimacs_file(path)
            if expect_shape is not None:
                shape = (formula.num_vars, formula.num_clauses)
                if shape != expect_shape:
                    raise BenchError(
                        f"{path.name}: shape {shape}, expected {expect_shape}"
                    )
        except (DimacsError, BenchError, OSError) as exc:
            if strict:
                raise BenchError(f"{path.name}: {exc}") from exc
            logger.warning("skipping %s: %s", path.name, exc)
            continue
        out.append(Instance(path.name, formula))
    return out


def split_dataset(files: Sequence[str], ratio: float = 0.8, seed: int = 0) -> DatasetSplit:
    """Deterministic shuffle of the name-sorted file list, then a prefix
    split with floor(N * ratio) names in train and the rest in test."""
    if not 0 <= ratio < 1:
        raise ValueError("ratio must be in [0, 1)")
    ordered = sorted(files)
    random.Random(seed).shuffle(ordered)
    cut = int(len(ordered) * ratio)
    return DatasetSplit(tuple(ordered[:cut]), tuple(ordered[cut:]), seed)


def run_comparison(
    test_set: Sequence[Instance],
    policy: Policy,
    limits: Optional[SolveLimits] = None,
    repetitions: int = 3,
    seed: int = 0,
) -> list[BenchRecord]:
    """Benchmark VSIDS and the greedy learned policy on each instance.

    Instances run one after another, VSIDS first. Per instance and
    heuristic: ``repetitions`` identical runs, minimum wall time kept;
    verdicts and counters are asserted identical across repetitions
    (the solver is deterministic). Unknown verdicts are recorded, not
    raised.
    """
    if not test_set:
        raise BenchError("empty test set")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    limits = limits or SolveLimits()

    records: list[BenchRecord] = []
    for item in test_set:
        for name in ("vsids", "rl"):
            feature_time = 0.0
            times = []
            reference = None
            for rep in range(repetitions):
                if name == "vsids":
                    heuristic = VsidsHeuristic(item.formula.num_vars)
                else:
                    t0 = time.perf_counter()
                    heuristic = PolicyHeuristic(policy, item.formula, mode="greedy")
                    elapsed = time.perf_counter() - t0
                    feature_time = elapsed if rep == 0 else min(feature_time, elapsed)
                solver = Solver(item.formula, heuristic, limits)
                result = solver.run()
                times.append(result.stats.wall_time_s)
                key = (
                    result.verdict,
                    result.stats.decisions,
                    result.stats.conflicts,
                    result.stats.propagations,
                )
                if reference is None:
                    reference = (key, result)
                elif reference[0] != key:
                    raise BenchError(
                        f"{item.name}/{name}: nondeterministic repetition {reference[0]} vs {key}"
                    )
            _, result = reference
            records.append(
                BenchRecord(
                    instance=item.name,
                    heuristic=name,
                    verdict=result.verdict,
                    time_s=min(times),
                    decisions=result.stats.decisions,
                    conflicts=result.stats.conflicts,
                    propagations=result.stats.propagations,
                    seed=seed,
                    feature_time_s=feature_time,
                )
            )
    records.sort(key=lambda r: (r.instance, r.heuristic))
    return records


def summarize(records: Sequence[BenchRecord]) -> Summary:
    by_heuristic: dict[str, dict[str, BenchRecord]] = {}
    for record in records:
        by_heuristic.setdefault(record.heuristic, {})[record.instance] = record
    if len(by_heuristic) < 2:
        raise MismatchedCoverageError("need records for two heuristics")
    coverage = {name: set(recs) for name, recs in by_heuristic.items()}
    baseline_cov = next(iter(coverage.values()))
    if any(cov != baseline_cov for cov in coverage.values()):
        raise MismatchedCoverageError(
            f"instance sets differ across heuristics: { {k: len(v) for k, v in coverage.items()} }"
        )

    median_time = {}
    median_decisions = {}
    mean_decisions = {}
    mean_conflicts = {}
    for name, recs in by_heuristic.items():
        times = [r.time_s for r in recs.values()]
        decisions = [r.decisions for r in recs.values()]
        conflicts = [r.conflicts for r in recs.values()]
        median_time[name] = float(statistics.median(times))
        median_decisions[name] = float(statistics.median(decisions))
        mean_decisions[name] = float(statistics.mean(decisions))
        mean_conflicts[name] = float(statistics.mean(conflicts))

    fraction = 0.0
    if "rl" in by_heuristic and "vsids" in by_heuristic:
        wins = sum(
            1
            for instance in baseline_cov
            if by_heuristic["rl"][instance].time_s < by_heuristic["vsids"][instance].time_s
        )
        fraction = wins / len(baseline_cov)
    return Summary(
        instances=len(baseline_cov),
        median_time=median_time,
        median_decisions=median_decisions,
        mean_decisions=mean_decisions,
        mean_conflicts=mean_conflicts,
        fraction_rl_faster=fraction,
    )


def records_to_csv(records: Sequence[BenchRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.instance,
                r.heuristic,
                r.verdict.value,
                f"{r.time_s:.6f}",
                r.decisions,
                r.conflicts,
                r.propagations,
                r.seed,
                f"{r.feature_time_s:.6f}",
            ]
        )
    return buffer.getvalue()


def records_from_csv(text: str) -> list[BenchRecord]:
    reader = csv.DictReader(io.StringIO(text))
    out = []
    for row in reader:
        out.append(
            BenchRecord(
                instance=row["instance"],
                heuristic=row["heuristic"],
                verdict=Verdict(row["verdict"]),
                time_s=float(row["time_s"]),
                decisions=int(row["decisions"]),
                conflicts=int(row["conflicts"]),
                propagations=int(row["propagations"]),
                seed=int(row["seed"]),
                feature_time_s=float(row.get("feature_time_s", 0.0)),
            )
        )
    return out


def write_summary_files(summary: Summary, json_path) -> None:
    with open(json_path, "w", encoding="ascii") as fh:
        json.dump(summary.as_flat_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
