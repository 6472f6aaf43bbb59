#!/usr/bin/env python3
"""Print one behaviour digest per stored benchmark pool, one of training
and one of document compilation.

Every instance of ``perfbench/race_pool.json`` (800 planted uf20-91)
and ``perfbench/uniform_pool.json`` (400 uniform n=75 m=320) is
regenerated from its index with ``perfbench/pool.py`` and solved. A
pool's digest covers, per instance and in index order, the feature
vector and signed adjacency bytes, and for each heuristic the verdict,
decisions, conflicts, propagations, learned clauses and model. The
race pool is solved by the greedy untrained ``Policy(20, 91, seed=0)``
and by VSIDS; the uniform pool, whose shape that policy does not fit,
by VSIDS only.

The third line digests ``train`` on the train-uf20 benchmark inputs
(64 planted uf20-91 from ``random.Random(f"train-{seed}")``,
``PpoConfig(rollout_window=150)``, 750 steps) at seeds 1 and 2: every
``TrainWindowLog``'s values in log-column order (``record_values``),
update metrics included, and the bytes of every trained parameter
array, the actor's and then the critic's in ``parameters()`` order. It
reads no checkpoint, so it checks training alone, and a change of
checkpoint format cannot move it.

The fourth line digests the langsat-docs benchmark documents at seeds
1 to 3 (100 each, with the stub translator built from their fixture
table): per document, in order, the ``write_dimacs`` text of
``compile_document``'s formula and the symbol table's names.

The fifth line digests ``satkit bench`` on race-pool indices 0 to 99,
written to a temporary directory, against a saved untrained
``Policy(20, 91, seed=0)`` with ``--reps 1``, run through
``cli.main`` with stdout redirected: every CSV column but ``time_s``
and ``feature_time_s``, and every summary key whose name contains
neither ``time`` nor ``fraction``. It reads nothing but the CLI and
its files, so it fingerprints any version of the CLI.

A change that must keep behaviour identical prints the same five lines
before and after:

    python3 scripts/fingerprint_pools.py

The training line reads the policy's first-layer folds, whose last bits
depend on the BLAS build and its thread count. So, as
``perfbench/run.py`` does, the script sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to min(2, cores) before
numpy is imported, whatever the caller's environment says; the line
then depends only on the machine's BLAS build.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

BLAS_THREADS = str(max(1, min(2, os.cpu_count() or 1)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import pool  # noqa: E402
from workloads import LangsatDocs, TrainUf20  # noqa: E402

from satkit import cli  # noqa: E402
from satkit.bench import record_values  # noqa: E402
from satkit.cnf import CnfFormula  # noqa: E402
from satkit.dimacs import write_dimacs, write_dimacs_file  # noqa: E402
from satkit.features import extract_features  # noqa: E402
from satkit.logic import compile_document  # noqa: E402
from satkit.rl import Policy, PolicyHeuristic, save_policy_file  # noqa: E402
from satkit.rl.observation import signed_adjacency  # noqa: E402
from satkit.rl.train import train  # noqa: E402
from satkit.solver import Solver, VsidsHeuristic  # noqa: E402


def _solve_record(result) -> bytes:
    s = result.stats
    fields = (result.verdict.value, s.decisions, s.conflicts, s.propagations, s.learned, result.model)
    return repr(fields).encode("ascii")


def _digest(num_vars, instances, policy=None) -> str:
    h = hashlib.sha256()
    for clauses in instances:
        formula = CnfFormula(num_vars, clauses)
        h.update(extract_features(formula).tobytes())
        h.update(signed_adjacency(formula).tobytes())
        h.update(_solve_record(Solver(formula, VsidsHeuristic(num_vars)).run()))
        if policy is not None:
            h.update(_solve_record(Solver(formula, PolicyHeuristic(policy, formula)).run()))
    return h.hexdigest()


def _train_digest(seeds) -> str:
    h = hashlib.sha256()
    workload = TrainUf20()
    for seed in seeds:
        inputs = workload.build(seed)
        policy = Policy(20, 91, inputs.config, seed)
        _, logs = train(inputs.dataset, policy, workload.window * workload.windows)
        for log in logs:
            h.update(repr(tuple(record_values(log))).encode("ascii"))
        for arr in policy.actor.parameters() + policy.critic.parameters():
            h.update(arr.tobytes())
    return h.hexdigest()


def _documents_digest(seeds) -> str:
    h = hashlib.sha256()
    workload = LangsatDocs()
    for seed in seeds:
        inputs = workload.build(seed)
        for doc in inputs.documents:
            formula, table = compile_document(doc.text, inputs.translator)
            h.update(write_dimacs(formula).encode("ascii"))
            h.update(repr(table.names()).encode("ascii"))
    return h.hexdigest()


def _bench_digest(count) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = root / "data"
        data.mkdir()
        for i in range(count):
            write_dimacs_file(CnfFormula(20, pool.race_instance(i)), data / f"race-{i:03d}.cnf")
        save_policy_file(Policy(20, 91, seed=0), root / "policy.bin")
        out = root / "records.csv"
        argv = ["bench", "--dataset", str(data), "--policy", str(root / "policy.bin"),
                "--out", str(out), "--reps", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit("satkit bench failed")
        for row in csv.DictReader(out.read_text(encoding="ascii").splitlines()):
            kept = [(k, v) for k, v in row.items() if k not in ("time_s", "feature_time_s")]
            h.update(repr(kept).encode("ascii"))
        summary = json.loads(Path(f"{out}.summary.json").read_text(encoding="ascii"))
        kept = sorted((k, v) for k, v in summary.items() if "time" not in k and "fraction" not in k)
        h.update(repr(kept).encode("ascii"))
    return h.hexdigest()


def main() -> int:
    race = (pool.race_instance(i) for i in range(pool.RACE_POOL_SIZE))
    print("race_pool", pool.RACE_POOL_SIZE, _digest(20, race, Policy(20, 91, seed=0)))
    uniform = (pool.pool_instance(i) for i in range(pool.POOL_SIZE))
    print("uniform_pool", pool.POOL_SIZE, _digest(pool.POOL_VARS, uniform))
    seeds = (1, 2)
    print("train_uf20", *seeds, _train_digest(seeds))
    seeds = (1, 2, 3)
    print("langsat_docs", *seeds, _documents_digest(seeds))
    print("bench", 100, _bench_digest(100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
