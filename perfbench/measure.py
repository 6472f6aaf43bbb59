"""Timing rules shared by every workload.

Machine speed on a shared host drifts by more than a tenth over
seconds to minutes, and back-to-back repeats of one operation all land
in the same speed phase. So a run makes several passes that each visit
the whole input set, and an operation's time is its minimum over the
passes: the passes spread each operation's repeats across the run,
and the minimum keeps the repeat that ran in the fastest phase.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Callable, Sequence

# A percentile is reported only when at least ten samples lie beyond
# it, so p90 needs 100 operations.
P90_MIN_OPERATIONS = 100


def latency_percentiles(times_s: Sequence[float]) -> dict[str, float]:
    """Median, and p90 when there are enough operations, in ms."""
    if not times_s:
        raise ValueError("no operation times")
    ms = [t * 1000.0 for t in times_s]
    out = {"latency_ms_p50": statistics.median(ms)}
    if len(ms) >= P90_MIN_OPERATIONS:
        out["latency_ms_p90"] = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return out


def min_over_passes(passes: Sequence[dict]) -> dict:
    """Per-operation minimum over passes, each a mapping op -> seconds.
    Every pass must cover the same operations."""
    keys = set(passes[0])
    for p in passes[1:]:
        if set(p) != keys:
            raise ValueError("passes cover different operations")
    return {k: min(p[k] for p in passes) for k in passes[0]}


def window_times(starts_at: float, calls: Sequence[tuple[int, float]]) -> list[float]:
    """Durations of training windows from checkpoint calls.

    ``calls`` holds (window_index, clock) for each checkpoint call made
    with ``checkpoint_every=1``. The training loop calls the checkpoint
    once more after its last window even when that window's own call
    just happened; a call that repeats the previous index ends no
    window and is ignored.
    """
    out = []
    last_index = 0
    last_clock = starts_at
    for index, clock in calls:
        if index == last_index:
            continue
        if index != last_index + 1:
            raise ValueError(f"checkpoint index jumped from {last_index} to {index}")
        out.append(clock - last_clock)
        last_index, last_clock = index, clock
    return out


class SetupClock:
    """Times repeated builds of a workload's inputs, spread over a run.

    The first build in a process pays one-off costs (library pages,
    allocator growth) that depend on how long the machine sat idle, not
    on the code being measured; it is timed apart and its result is the
    run's inputs. Later builds are timed and thrown away. ``due(elapsed)``
    spaces them evenly over the run, so that one slow phase of the
    machine cannot hold all of them.
    """

    def __init__(self, build: Callable[[], object], repeats: int, seconds: float):
        self.build = build
        self.repeats = repeats
        self.seconds = seconds
        self.times: list[float] = []
        started = time.perf_counter()
        self.inputs = build()
        self.first_s = time.perf_counter() - started

    def time_one(self) -> None:
        started = time.perf_counter()
        self.build()
        self.times.append(time.perf_counter() - started)

    def due(self, elapsed: float) -> bool:
        done = len(self.times)
        return done < self.repeats and elapsed >= done * self.seconds / self.repeats

    def median_s(self) -> float:
        while len(self.times) < self.repeats:
            self.time_one()
        return statistics.median(self.times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux
