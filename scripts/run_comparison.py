#!/usr/bin/env python3
"""End-to-end comparison experiment.

Generates (or reuses) a dataset, splits it 80/20 by seed, trains the
branching policy on the training split, then benchmarks the held-out
split against the VSIDS baseline and prints the summary. The defaults
are desk-scale; raise --train-steps toward 100000 and --count toward
1000 for a full run.

    python scripts/run_comparison.py --workdir runs/demo
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from satkit.bench import split_dataset  # noqa: E402
from satkit.generators import generate_dataset  # noqa: E402


def cli(*args: str) -> None:
    command = [sys.executable, "-m", "satkit.cli", *args]
    print("+", " ".join(command))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(command, env=env)
    if result.returncode != 0:
        raise SystemExit(result.returncode)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--dataset", default=None, help="existing DIMACS dir (else generated)")
    parser.add_argument("--count", type=int, default=100, help="instances to generate")
    parser.add_argument("--vars", type=int, default=20)
    parser.add_argument("--clauses", type=int, default=91)
    parser.add_argument("--train-steps", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hidden", type=int, nargs="+", default=[64, 64])
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if args.dataset:
        data_dir = Path(args.dataset)
    else:
        data_dir = workdir / "data"
        if not data_dir.exists():
            generate_dataset(
                data_dir, args.count, args.vars, args.clauses, args.seed, "planted"
            )
            print(f"generated {args.count} planted instances in {data_dir}")

    files = sorted(p.name for p in data_dir.glob("*.cnf"))
    train_names, test_names = split_dataset(files, args.seed)
    train_dir = workdir / "train"
    test_dir = workdir / "test"
    for directory, names in ((train_dir, train_names), (test_dir, test_names)):
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        for name in names:
            shutil.copyfile(data_dir / name, directory / name)
    print(f"split: {len(train_names)} train / {len(test_names)} test (seed {args.seed})")

    policy = workdir / "policy.bin"
    cli(
        "train",
        "--dataset", str(train_dir),
        "--steps", str(args.train_steps),
        "--seed", str(args.seed),
        "--out", str(policy),
        "--hidden", *map(str, args.hidden),
        "--window", "250",
        "--epochs", "24",
        "--minibatch", "16",
        "--episode-cap", "100",
    )
    cli(
        "bench",
        "--dataset", str(test_dir),
        "--policy", str(policy),
        "--reps", str(args.reps),
        "--out", str(workdir / "records.csv"),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
