"""Dataset management and the race between branching heuristics.

``ENTRANTS`` maps each heuristic in the race to the factory that builds
it for one formula; the others race against ``BASELINE``.
``run_comparison`` solves every given instance with every entrant under
identical limits, timing each entrant's set-up (the factory call) apart
from its solve; neither includes parsing. ``summarize`` reduces the
records to one flat dict. ``split_dataset`` makes the train/test file
lists that ``scripts/run_comparison.py`` writes to two directories; the
benchmark itself runs every instance it is given.

The module imports no numpy, so ``satkit solve --heuristic vsids`` and
``satkit convert``, which read ``ENTRANTS`` and the record writers, do
not load it: the ``rl`` entrant imports ``PolicyHeuristic`` when it is
called, and ``Policy`` is named only in annotations.

``records_to_csv`` writes a dataclass's records with one column per
field, in field order; the bench CSV and the training log are both
written by it. In the bench CSV, ``feature_time_s`` is the set-up time
and ``seed`` the policy's seed.
"""

from __future__ import annotations

import csv
import io
import random
import statistics
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .cnf import CnfFormula
from .dimacs import DimacsError, read_dimacs_file
from .errors import SatkitError
from .solver.engine import Heuristic, SolveLimits, Solver, Verdict
from .solver.heuristics import VsidsHeuristic

if TYPE_CHECKING:
    from .rl.policy import Policy

CSV_SCHEMA_VERSION = 1
TRAIN_SHARE = 0.8  # of a dataset that ``split_dataset`` puts in train


def _policy_heuristic(policy: Policy, formula: CnfFormula) -> Heuristic:
    """The ``rl`` entrant. Building a ``Policy`` has already loaded
    ``satkit.rl`` and with it ``satkit.rl.heuristic``, so the import in
    ``run_comparison``'s timed set-up is a lookup in ``sys.modules``."""
    from .rl.heuristic import PolicyHeuristic

    return PolicyHeuristic(policy, formula)


BASELINE = "vsids"
ENTRANTS: dict[str, Callable[[Policy, CnfFormula], Heuristic]] = {
    "vsids": lambda policy, formula: VsidsHeuristic(formula.num_vars),
    "rl": _policy_heuristic,
}


class BenchError(SatkitError):
    pass


class MismatchedCoverageError(BenchError):
    """The baseline or every other heuristic is missing, or they cover
    different instance sets."""


@dataclass(frozen=True)
class Instance:
    name: str
    formula: CnfFormula


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
    feature_time_s: float


def record_columns(cls) -> list[str]:
    """The field names of the dataclass ``cls``, in order."""
    return [f.name for f in fields(cls)]


def record_values(record) -> list:
    """``record``'s field values in ``record_columns`` order."""
    return [getattr(record, f.name) for f in fields(record)]


def load_dataset(
    directory,
    strict: bool = False,
    expect_shape: Optional[tuple[int, int]] = None,
) -> list[Instance]:
    """Parse every *.cnf file in name-sorted order.

    A file that fails to parse is skipped with a line
    ``warning: skipping <file>: <reason>`` on stderr, or rejected under
    ``strict``. With ``expect_shape`` each instance must have exactly
    that (num_vars, num_clauses); one that does not is skipped the same
    way.
    """
    root = Path(directory)
    paths = sorted(root.glob("*.cnf"), key=lambda p: p.name)
    if not paths:
        print(f"warning: no .cnf files found in {root}", file=sys.stderr)
        return []
    out: list[Instance] = []
    for path in paths:
        try:
            formula = read_dimacs_file(path)
            if expect_shape is not None:
                shape = (formula.num_vars, formula.num_clauses)
                if shape != expect_shape:
                    raise BenchError(f"shape {shape}, expected {expect_shape}")
        except (DimacsError, BenchError, OSError) as exc:
            if strict:
                raise BenchError(f"{path.name}: {exc}") from exc
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        out.append(Instance(path.name, formula))
    return out


def split_dataset(files: Sequence[str], seed: int) -> tuple[list[str], list[str]]:
    """``(train, test)``: a deterministic shuffle of the name-sorted file
    list, split with its first floor(N * TRAIN_SHARE) names in train and
    the rest in test."""
    ordered = sorted(files)
    random.Random(seed).shuffle(ordered)
    cut = int(len(ordered) * TRAIN_SHARE)
    return ordered[:cut], ordered[cut:]


def _counters(result) -> tuple:
    s = result.stats
    return (result.verdict, s.decisions, s.conflicts, s.propagations)


def run_comparison(
    test_set: Sequence[Instance],
    policy: Policy,
    limits: Optional[SolveLimits] = None,
    repetitions: int = 3,
) -> list[BenchRecord]:
    """Benchmark every entrant of ``ENTRANTS`` on each instance.

    Instances run one after another. Per instance, ``repetitions``
    rounds each build and run every entrant once, the table rotated by
    (instance index + round) mod the number of entrants, so the entrant
    that runs first alternates, also at one repetition; each run builds
    its heuristic anew. Per instance and entrant, the minimum set-up
    time and the minimum wall time are kept. Verdicts and counters are
    asserted identical across repetitions (the solver is
    deterministic). Every record carries the policy's seed. Unknown
    verdicts are recorded, not raised. A wall-clock timeout does not
    stop at the same decision twice, so if any repetition times out,
    the first that did is recorded with its own time and the
    repetitions are not compared.
    """
    if not test_set:
        raise BenchError("empty test set")
    if repetitions < 1:
        raise BenchError(f"repetitions must be >= 1, got {repetitions}")
    limits = limits or SolveLimits()

    names = list(ENTRANTS)
    records: list[BenchRecord] = []
    for index, item in enumerate(test_set):
        setup_times: dict[str, list[float]] = {name: [] for name in names}
        runs: dict[str, list] = {name: [] for name in names}
        for rep in range(repetitions):
            # Blocked repetitions in a fixed order favour the entrant that
            # runs later, so the order rotates.
            shift = (index + rep) % len(names)
            for name in names[shift:] + names[:shift]:
                t0 = time.perf_counter()
                heuristic = ENTRANTS[name](policy, item.formula)
                setup_times[name].append(time.perf_counter() - t0)
                runs[name].append(Solver(item.formula, heuristic, limits).run())
        for name in names:
            results = runs[name]
            timed_out = [r for r in results if r.limit == "timeout"]
            if timed_out:
                result = timed_out[0]
                time_s = result.stats.wall_time_s
            else:
                result = results[0]
                key = _counters(result)
                for other in results[1:]:
                    if _counters(other) != key:
                        raise BenchError(
                            f"{item.name}/{name}: nondeterministic repetition "
                            f"{key} vs {_counters(other)}"
                        )
                time_s = min(r.stats.wall_time_s for r in results)
            records.append(
                BenchRecord(
                    instance=item.name,
                    heuristic=name,
                    verdict=result.verdict,
                    time_s=time_s,
                    decisions=result.stats.decisions,
                    conflicts=result.stats.conflicts,
                    propagations=result.stats.propagations,
                    seed=policy.seed,
                    feature_time_s=min(setup_times[name]),
                )
            )
    records.sort(key=lambda r: (r.instance, r.heuristic))
    return records


def summarize(records: Sequence[BenchRecord]) -> dict[str, float]:
    """The flat summary that ``satkit bench`` stores: ``instances``;
    per heuristic, ``median_time_s``, ``median_decisions``,
    ``mean_decisions`` and ``mean_conflicts``, each suffixed
    ``.<name>``; and for each heuristic but ``BASELINE`` the share of
    instances it beats the baseline on strictly (ties lose), by
    ``time_s`` in ``fraction_faster.<name>`` and by ``feature_time_s +
    time_s`` in ``fraction_faster_with_setup.<name>``.
    ``fraction_rl_faster`` is ``fraction_faster.rl`` (0.0 without
    ``rl`` records) under its original name.
    """
    by_heuristic: dict[str, dict[str, BenchRecord]] = {}
    for record in records:
        by_heuristic.setdefault(record.heuristic, {})[record.instance] = record
    if BASELINE not in by_heuristic or len(by_heuristic) < 2:
        raise MismatchedCoverageError(
            f"need records for {BASELINE} and at least one other heuristic, "
            f"got {sorted(by_heuristic)}"
        )
    baseline = by_heuristic[BASELINE]
    if any(recs.keys() != baseline.keys() for recs in by_heuristic.values()):
        raise MismatchedCoverageError(
            f"instance sets differ across heuristics: { {k: len(v) for k, v in by_heuristic.items()} }"
        )

    summary: dict[str, float] = {"instances": len(baseline)}
    for name, recs in sorted(by_heuristic.items()):
        rows = list(recs.values())
        decisions = [r.decisions for r in rows]
        summary[f"median_time_s.{name}"] = float(statistics.median([r.time_s for r in rows]))
        summary[f"median_decisions.{name}"] = float(statistics.median(decisions))
        summary[f"mean_decisions.{name}"] = float(statistics.mean(decisions))
        summary[f"mean_conflicts.{name}"] = float(statistics.mean([r.conflicts for r in rows]))
        if name != BASELINE:
            pairs = [(recs[i], baseline[i]) for i in baseline]
            summary[f"fraction_faster.{name}"] = sum(
                r.time_s < b.time_s for r, b in pairs
            ) / len(pairs)
            summary[f"fraction_faster_with_setup.{name}"] = sum(
                r.feature_time_s + r.time_s < b.feature_time_s + b.time_s for r, b in pairs
            ) / len(pairs)
    summary["fraction_rl_faster"] = summary.get("fraction_faster.rl", 0.0)
    return summary


def _csv_cell(value) -> object:
    if isinstance(value, Verdict):
        return value.value
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


def record_cells(record) -> list:
    """``record_values`` as ``_csv_cell`` writes them."""
    return [_csv_cell(value) for value in record_values(record)]


def records_to_csv(cls, records: Sequence) -> str:
    """A ``record_columns(cls)`` header, then each record's cells."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(record_columns(cls))
    writer.writerows(record_cells(r) for r in records)
    return buffer.getvalue()
