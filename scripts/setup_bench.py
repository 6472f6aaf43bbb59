#!/usr/bin/env python3
"""Where a learned-policy uf20 solve spends its set-up, timed in the
race's own order.

    python3 scripts/setup_bench.py --seed 1 --passes 15
    python3 scripts/setup_bench.py --checkout ../old --seed 1 --out old.json

The inputs are perfbench's race-uf20 ones (``RaceUf20().build(seed)``:
100 planted uf20-91 from the stored pool and ``Policy(20, 91,
seed=0)``). Each pass shuffles the race's operations, a learned-policy
solve and a VSIDS solve per instance, with ``random.Random(f"order-
{seed}")`` as ``perfbench/run.py`` does, and runs them as the race
does, each output checked by the workload. During a learned-policy
operation the functions that ``PolicyHeuristic`` construction calls
through its module (``clause_incidence``, ``extract_features`` and
``static_entries``) are wrapped to add up their time, and
``Mlp.fold`` is replaced by its two steps, the row gather and the
product, each timed;
``PolicyHeuristic.decide`` and ``Policy.act`` are wrapped for the time
a decision spends outside the policy. Every wrapper is removed when
the passes end. Each figure is the minimum per instance over the
passes, then the median over the instances, in microseconds; the
rest of ``__init__`` and the set-up outside the fold are taken per
operation before the minimum. The wrappers' own cost, a few
microseconds per operation, is in the totals.

``--checkout DIR`` times the satkit in ``DIR/src`` and the perfbench
in ``DIR/perfbench`` (default: this checkout); it must be the first
satkit the process imports. As ``perfbench/run.py`` does, the script
pins ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to min(2, cores) before numpy is imported. The
record is JSON, written to ``--out`` or to standard output after the
table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Construction's callees, as ``satkit.rl.heuristic`` names them.
CONSTRUCTION = ("clause_incidence", "extract_features", "static_entries")
FOLD_PIECES = ("fold row gather", "fold GEMV")
FIGURES = (
    "PolicyHeuristic.__init__",
    *CONSTRUCTION,
    *FOLD_PIECES,
    "rest of __init__",
    "set-up outside the fold",
    "learned-policy solve",
    "per decision: outside Policy.act",
    "per decision: Policy.act",
    "VSIDS solve",
)


def _timed(spent, name, fn):
    clock = time.perf_counter

    def timed(*args, **kwargs):
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += clock() - started

    return timed


def _split_fold(spent):
    """``Mlp.fold``'s two steps, the gather of the first layer's rows at
    ``rows`` and their product with ``x`` plus the bias, each timed."""
    clock = time.perf_counter

    def fold(net, rows, x):
        started = clock()
        gathered = net.weights[0][rows]
        gathered_at = clock()
        out = x @ gathered + net.biases[0]
        spent["fold row gather"] += gathered_at - started
        spent["fold GEMV"] += clock() - gathered_at
        return out

    return fold


def _patches(spent):
    """(owner, attribute, replacement) for every timed name."""
    from satkit.rl import heuristic
    from satkit.rl.network import Mlp
    from satkit.rl.policy import Policy

    out = [(heuristic, name, _timed(spent, name, getattr(heuristic, name))) for name in CONSTRUCTION]
    out.append((heuristic.PolicyHeuristic, "decide", _timed(spent, "decide", heuristic.PolicyHeuristic.decide)))
    out.append((Policy, "act", _timed(spent, "act", Policy.act)))
    out.append((Mlp, "fold", _split_fold(spent)))
    return out


def _run_passes(inputs, workload, seed: int, passes: int) -> dict[str, list[list[float]]]:
    """figure -> per instance, its value in each pass (seconds)."""
    from satkit.rl import heuristic

    spent: dict[str, float] = defaultdict(float)
    patches = _patches(spent)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    order_rng = random.Random(f"order-{seed}")
    clock = time.perf_counter
    figures: dict[str, list[list[float]]] = defaultdict(lambda: [[] for _ in inputs.formulas])
    first: dict = {}
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        for _ in range(passes):
            order = workload.operations(inputs)
            order_rng.shuffle(order)
            for op in order:
                name, i = op
                if name == "vsids":
                    started = clock()
                    result = workload.run_op(inputs, op)
                    figures["VSIDS solve"][i].append(clock() - started)
                else:
                    spent.clear()
                    formula = inputs.formulas[i]
                    started = clock()
                    learned = heuristic.PolicyHeuristic(inputs.policy, formula)
                    built = clock()
                    result = heuristic.Solver(formula, learned).run()
                    solved = clock()
                    init = built - started
                    pieces = CONSTRUCTION + FOLD_PIECES
                    for piece in pieces:
                        figures[piece][i].append(spent[piece])
                    figures["rest of __init__"][i].append(init - sum(spent[p] for p in pieces))
                    figures["PolicyHeuristic.__init__"][i].append(init)
                    figures["set-up outside the fold"][i].append(init - sum(spent[p] for p in FOLD_PIECES))
                    figures["learned-policy solve"][i].append(solved - built)
                    decisions = max(result.stats.decisions, 1)
                    figures["per decision: outside Policy.act"][i].append((spent["decide"] - spent["act"]) / decisions)
                    figures["per decision: Policy.act"][i].append(spent["act"] / decisions)
                workload.check(inputs, op, result, first.get(op))
                first.setdefault(op, result)
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
    return figures


def _machine() -> dict:
    import numpy

    return {
        "cpu": platform.processor() or platform.machine(),
        "logical_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT, help="satkit source tree (default: this one)")
    parser.add_argument("--seed", type=int, default=1, help="race-uf20 seed: the instances and the order")
    parser.add_argument("--passes", type=int, default=15)
    parser.add_argument("--out", default=None, help="JSON output path (default: standard output)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    checkout = args.checkout.resolve()
    loaded = sys.modules.get("satkit")
    if loaded is not None and not Path(loaded.__file__).resolve().is_relative_to(checkout / "src"):
        parser.error(f"satkit is already imported from {Path(loaded.__file__).parent}, not {checkout / 'src'}")
    threads = str(max(1, min(2, os.cpu_count() or 1)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from workloads import RaceUf20

    workload = RaceUf20()
    inputs = workload.build(args.seed)
    figures = _run_passes(inputs, workload, args.seed, args.passes)
    summary = {
        figure: 1e6 * statistics.median(min(passes) for passes in figures[figure])
        for figure in FIGURES
    }
    record = {
        "machine": _machine(),
        "checkout": str(checkout),
        "seed": args.seed,
        "passes": args.passes,
        "instances": len(inputs.formulas),
        "median_of_instance_minima_us": summary,
    }
    width = max(map(len, summary))
    for figure, us in summary.items():
        print(f"{figure:<{width}}  {us:9.1f} us", file=sys.stderr if args.out is None else sys.stdout)
    text = json.dumps(record, indent=1)
    if args.out is None:
        print(text)
    else:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
