#!/usr/bin/env python3
"""Start-up cost of satkit commands: wall time and peak memory of fresh
processes, and the benchmark's ``peak_rss_mb``, for one or more checkouts.

    python3 scripts/startup_bench.py --runs 21 --seed 1
    python3 scripts/startup_bench.py --checkout parent=../old --checkout change=. \\
        --runs 21 --seed 1 --perfbench-pairs 3 --out BENCH_startup.json

Each ``--checkout LABEL=DIR`` names a satkit source tree (default: this
one, labelled ``change``). The inputs go into a temporary directory. A
planted uf20-91 CNF from ``random.Random(seed)`` and a file of 40
expressions over 30 atoms are written once, with this checkout's
satkit, and shared. Each checkout's untrained ``Policy(20, 91,
seed=0)`` checkpoint is written by that checkout's own satkit, in a
process with its ``src/`` on ``PYTHONPATH``, so a checkout's ``solve
--heuristic rl`` row times a solve in the checkpoint format it reads,
also across a change of that format. Each command of
``COMMANDS`` then runs ``--runs`` times as ``satkit.cli``'s main
module in a new process, with the checkout's ``src/`` on
``PYTHONPATH`` and the BLAS thread count pinned as ``perfbench/run.py``
pins it; the checkouts alternate run by run, and the one that goes
first rotates. A run's wall time spans the spawn to the exit of the
child, and its peak memory is the ``VmHWM`` that the child reads from
``/proc/self/status`` as it exits. A child's ``ru_maxrss`` would not
do: it keeps the high-water mark of the memory that the child shared
with its parent until ``exec``. Per command and checkout the min and
median of both are reported, with whether every checkout printed the
same standard output (``wall_time_s`` masked) and exit code.

``--perfbench-pairs P`` also runs ``perfbench/run.py --workload W
--seed S --seconds 25 --trace 0`` P times per workload and checkout,
alternating checkouts and the one that goes first, and records each
run's end-to-end metrics. Their ``peak_rss_mb`` is ``ru_maxrss``, so
the harness writes the inputs in a process of its own and never
imports satkit or numpy: it stays near 19 MB, below every workload's
figure.

The record is JSON, written to ``--out`` or to standard output.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import multiprocessing
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BLAS_THREADS = 2  # as perfbench/run.py pins it
PERFBENCH_SECONDS = 25
WORKLOADS = ("race-uf20", "solve-uniform", "train-uf20", "langsat-docs")
# Label -> arguments of ``satkit``, with {cnf}, {policy} and {expr}
# standing for the input files.
COMMANDS = {
    "solve --heuristic vsids": ["solve", "{cnf}", "--heuristic", "vsids"],
    "solve --heuristic rl --policy": ["solve", "{cnf}", "--heuristic", "rl", "--policy", "{policy}"],
    "convert": ["convert", "{expr}"],
    "--version": ["--version"],
}
_WALL_TIME = re.compile(r"wall_time_s=\S+")


def pinned_env(checkout: Path) -> dict[str, str]:
    """The environment of a child: the checkout's sources first on the
    path and the BLAS thread count fixed."""
    env = dict(os.environ)
    threads = str(max(1, min(BLAS_THREADS, os.cpu_count() or 1)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    return env


def write_inputs(directory: Path, seed: int) -> dict[str, str]:
    """The input files that every checkout shares, written into
    ``directory``. ``main`` runs this in a process of its own."""
    from satkit.dimacs import write_dimacs_file
    from satkit.generators import planted_ksat

    rng = random.Random(seed)
    paths = {name: str(directory / file) for name, file in (("cnf", "uf20.cnf"), ("expr", "exprs.txt"))}
    write_dimacs_file(planted_ksat(20, 91, rng), paths["cnf"])

    def literal() -> str:
        atom = f"X{rng.randint(1, 30)}"
        return atom if rng.random() < 0.5 else f"Not({atom})"

    lines = [f"Or({literal()}, Implies({literal()}, {literal()}))" for _ in range(40)]
    Path(paths["expr"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


# Writes an untrained policy checkpoint to the path in its argument.
_WRITE_POLICY = """
import sys
from satkit.rl.policy import Policy, save_policy_file
save_policy_file(Policy(20, 91, seed=0), sys.argv[1])
"""


def write_policy(checkout: Path, path: Path) -> None:
    """The policy checkpoint for ``checkout``'s runs, written by its own
    satkit in a new process."""
    subprocess.run([sys.executable, "-c", _WRITE_POLICY, str(path)], env=pinned_env(checkout), check=True)


# Runs ``python -m satkit.cli`` with the arguments after the report
# path, and writes the process's own VmHWM (kB) to that path at exit.
_CHILD = """
import atexit, runpy, sys
report = sys.argv.pop(1)

def write_hwm():
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(report, "w", encoding="ascii") as out:
        out.write(kb)

atexit.register(write_hwm)
sys.argv[0] = "satkit"
runpy.run_module("satkit.cli", run_name="__main__", alter_sys=True)
"""


def run_once(args: list[str], env: dict[str, str], cwd: Path) -> tuple[float, float, str, int]:
    """Wall seconds, VmHWM in MB, standard output and exit code of
    ``satkit ARGS`` in one fresh process."""
    report = cwd / "vmhwm.txt"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(report), *args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=cwd, text=True,
    )
    wall_s = time.perf_counter() - started
    peak_mb = int(report.read_text(encoding="ascii")) / 1024.0
    report.unlink()
    return wall_s, peak_mb, proc.stdout, proc.returncode


def _rotated(names: list[str], shift: int) -> list[str]:
    """``names`` starting at position ``shift`` mod their count, so the
    one that runs first changes from round to round."""
    shift %= len(names)
    return names[shift:] + names[:shift]


def time_commands(
    checkouts: dict[str, Path], inputs: dict[str, dict[str, str]], runs: int, cwd: Path
) -> dict:
    """Each command's timings per checkout, on that checkout's inputs."""
    results = {}
    for label, template in COMMANDS.items():
        args = {name: [part.format(**inputs[name]) for part in template] for name in checkouts}
        walls = {name: [] for name in checkouts}
        peaks = {name: [] for name in checkouts}
        outputs = set()
        for run in range(runs):
            for name in _rotated(list(checkouts), run):
                wall_s, peak_mb, text, code = run_once(args[name], pinned_env(checkouts[name]), cwd)
                walls[name].append(wall_s)
                peaks[name].append(peak_mb)
                outputs.add((_WALL_TIME.sub("wall_time_s=*", text), code))
        results[label] = {
            "argv": ["satkit", *template],
            "same_output_and_exit_code": len(outputs) == 1,
            **{
                name: {
                    "wall_ms_min": round(1000 * min(walls[name]), 1),
                    "wall_ms_median": round(1000 * statistics.median(walls[name]), 1),
                    "vmhwm_mb_min": round(min(peaks[name]), 2),
                    "vmhwm_mb_median": round(statistics.median(peaks[name]), 2),
                }
                for name in checkouts
            },
        }
    return results


def perfbench_pairs(checkouts: dict[str, Path], seed: int, pairs: int) -> dict:
    """Each workload's end-to-end metrics per checkout, one run per
    checkout and pair; the checkout that goes first rotates by pair."""
    names = list(checkouts)
    results = {}
    for workload in WORKLOADS:
        rows = []
        for pair in range(pairs):
            row = {}
            for name in _rotated(names, pair):
                checkout = checkouts[name]
                cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                row[name] = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
                row[name]["correct"] = result["correct"]
            rows.append(row)
        results[workload] = rows
    return results


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "logical_cpus": os.cpu_count(),
        "os": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": int(pinned_env(ROOT)["OPENBLAS_NUM_THREADS"]),
    }


def _checkout(spec: str) -> tuple[str, Path]:
    label, sep, path = spec.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {spec!r}")
    root = Path(path).resolve()
    if not (root / "src" / "satkit" / "cli.py").is_file():
        raise argparse.ArgumentTypeError(f"no satkit sources under {root}")
    return label, root


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=_checkout, action="append", metavar="LABEL=DIR")
    parser.add_argument("--runs", type=int, default=21, help="fresh processes per command and checkout")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--perfbench-pairs", type=int, default=0)
    parser.add_argument("--out", default=None, help="JSON output path (default: standard output)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    checkouts = dict(args.checkout or [("change", ROOT)])

    record = {"machine": machine(), "seed": args.seed, "runs": args.runs,
              "checkouts": list(checkouts)}
    with tempfile.TemporaryDirectory(prefix="satkit-startup-") as tmp:
        # Kept out of this process: see the module docstring.
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            shared = pool.submit(write_inputs, Path(tmp), args.seed).result()
        inputs = {}
        for i, (name, checkout) in enumerate(checkouts.items()):
            policy = Path(tmp) / f"policy-{i}.bin"
            write_policy(checkout, policy)
            inputs[name] = {**shared, "policy": str(policy)}
        record["commands"] = time_commands(checkouts, inputs, args.runs, Path(tmp))
    if args.perfbench_pairs > 0:
        record["perfbench"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                       f"--seconds {PERFBENCH_SECONDS} --trace 0",
            "pairs": perfbench_pairs(checkouts, args.seed, args.perfbench_pairs),
        }
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
