#!/usr/bin/env python3
"""Print one behaviour digest per stored benchmark pool.

Every instance of ``perfbench/race_pool.json`` (800 planted uf20-91)
and ``perfbench/uniform_pool.json`` (400 uniform n=75 m=320) is
regenerated from its index with ``perfbench/pool.py`` and solved. A
pool's digest covers, per instance and in index order, the feature
vector and signed adjacency bytes, and for each heuristic the verdict,
decisions, conflicts, propagations, learned clauses and model. The
race pool is solved by the greedy untrained ``Policy(20, 91, seed=0)``
and by VSIDS; the uniform pool, whose shape that policy does not fit,
by VSIDS only. A change that must keep behaviour identical prints the
same lines before and after:

    python3 scripts/fingerprint_pools.py
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import pool  # noqa: E402

from satkit.cnf import CnfFormula  # noqa: E402
from satkit.features import extract_features  # noqa: E402
from satkit.rl import Policy, PolicyHeuristic  # noqa: E402
from satkit.rl.observation import signed_adjacency  # noqa: E402
from satkit.solver import Solver, VsidsHeuristic  # noqa: E402


def _solve_record(result) -> bytes:
    s = result.stats
    fields = (result.verdict.value, s.decisions, s.conflicts, s.propagations, s.learned, result.model)
    return repr(fields).encode("ascii")


def _digest(num_vars, instances, policy=None) -> str:
    h = hashlib.sha256()
    for clauses in instances:
        formula = CnfFormula(num_vars, clauses)
        h.update(extract_features(formula).values.tobytes())
        h.update(signed_adjacency(formula).tobytes())
        h.update(_solve_record(Solver(formula, VsidsHeuristic(num_vars)).run()))
        if policy is not None:
            h.update(_solve_record(Solver(formula, PolicyHeuristic(policy, formula)).run()))
    return h.hexdigest()


def main() -> int:
    race = (pool.race_instance(i) for i in range(pool.RACE_POOL_SIZE))
    print("race_pool", pool.RACE_POOL_SIZE, _digest(20, race, Policy(20, 91, seed=0)))
    uniform = (pool.pool_instance(i) for i in range(pool.POOL_SIZE))
    print("uniform_pool", pool.POOL_SIZE, _digest(pool.POOL_VARS, uniform))
    return 0


if __name__ == "__main__":
    sys.exit(main())
