"""satkit benchmark: four seeded workloads, checked, timed, optionally traced.

    python3 perfbench/run.py --workload race-uf20 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a satkit checkout; the benchmark imports satkit
from that checkout's ``src/``. One workload runs in this process; ``all``
runs each workload in a process of its own. The last line of standard
output is the result: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("race-uf20", "solve-uniform", "train-uf20", "langsat-docs")
# OpenBLAS otherwise starts one thread per core, and training speed
# depends on the count, so it is fixed here and not read from the
# environment.
BLAS_THREADS = 2
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACE_PASSES = 4  # untraced and traced passes alternate
END_TO_END_UNITS = {"setup_s": "s", "latency_ms_p50": "ms", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def _pin_blas_threads() -> None:
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _import_checkout() -> None:
    """Put the checkout's sources first on the path and refuse any other
    satkit."""
    if not (SRC / "satkit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no satkit sources at {SRC}; run from a satkit checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import satkit

    if Path(satkit.__file__).resolve().parent != SRC / "satkit":
        raise SystemExit(f"benchmark: imported satkit from {satkit.__file__}, not from {SRC}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, run passes until ``seconds`` is spent, check every output.

    Returns the result object and a dict of further figures."""
    import measure
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[name]
    setup = measure.SetupClock(lambda: workload.build(seed), SETUP_REPEATS, seconds)
    inputs = setup.inputs
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    min_passes = MIN_TRACE_PASSES if trace else MIN_PASSES
    order_rng = random.Random(f"order-{seed}")
    clock = time.perf_counter
    started = clock()
    untraced, traced = [], []
    first_outputs: dict = {}
    failed_ops: set = set()
    problems: list[str] = []
    attempted = 0
    pass_seconds = []
    while True:
        pass_started = clock()
        if tracer is not None and len(untraced) > len(traced):
            def mark(op, tracer=tracer):
                tracer.operation = str(op)

            with tracer.installed():
                result = workload.run_pass(inputs, order_rng, mark)
            traced.append({op: t for op, (t, _) in result.items()})
        else:
            result = workload.run_pass(inputs, order_rng)
            untraced.append({op: t for op, (t, _) in result.items()})
        for op, (t, output) in result.items():
            attempted += 1
            if t is None:
                failed_ops.add(op)
                problems.append(f"{op}: {type(output).__name__}: {output}")
                continue
            try:
                workload.check(inputs, op, output, first_outputs.get(op))
            except CheckFailed as exc:
                problems.append(str(exc))
            first_outputs.setdefault(op, output)
        pass_seconds.append(clock() - pass_started)
        if setup.due(clock() - started):
            setup.time_one()
        if len(pass_seconds) >= min_passes and clock() - started + pass_seconds[-1] > seconds:
            break
    setup_s = setup.median_s()

    ops = [op for op in untraced[0] if op not in failed_ops]
    outputs = {op: first_outputs[op] for op in ops}
    times = measure.min_over_passes([{op: p[op] for op in ops} for p in untraced])
    timed = workload.timed_ops(ops)
    latency = measure.latency_percentiles([times[op] for op in timed])
    failed = sum(1 for p in untraced + traced for op, t in p.items() if t is None)
    extra = {
        "workload": name,
        "seed": seed,
        "passes": len(pass_seconds),
        "pass_seconds": pass_seconds,
        "operations_per_pass": len(untraced[0]),
        "timed_operations": len(timed),
        "setup_first_s": setup.first_s,
        "work_unit": workload.work_unit,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        **{k: v for k, v in latency.items() if k != "latency_ms_p50"},
        **workload.details(inputs, times, outputs),
        "problems": problems[:10],
    }
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "latency_ms_p50": latency["latency_ms_p50"],
            "work_per_s": workload.work(inputs, outputs) / sum(times[op] for op in timed),
            "peak_rss_mb": measure.peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        from spans import per_layer_metrics

        traced_times = measure.min_over_passes([{op: p[op] for op in ops} for p in traced])
        overhead_ms = 1000.0 * sum(traced_times[op] - times[op] for op in ops) / len(ops)
        layer = per_layer_metrics(tracer, len(ops) * len(traced), overhead_ms)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        extra["traced_latency_ms_p50"] = measure.latency_percentiles([traced_times[op] for op in timed])["latency_ms_p50"]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{name}-{seed}.jsonl"
        tracer.write_raw(trace_path)
        extra["trace_file"] = str(trace_path.relative_to(HERE.parent))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, extra


def run_all(args) -> int:
    """Every workload in a process of its own; prints a table, then one
    result line per workload."""
    lines = []
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            code = 1
        lines.append((name, result))
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:44s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({name: result for name, result in lines}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _pin_blas_threads()
    _import_checkout()
    if args.workload == "all":
        return run_all(args)
    result, extra = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"result": result, "details": extra}
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    for problem in extra["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"details": extra}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
