"""Stored instance pools for solve-uniform and race-uf20.

Instance i of a pool is regenerated from its index by the generators
in ``reference``; the pool file keeps, per instance, a digest of its
clauses (so a changed generator is caught) and how much work satkit
does on it. ``uniform_pool.json`` also keeps the verdict of the
reference DPLL decider and its search nodes; planted instances are
satisfiable by construction.

The work figure (VSIDS propagations for uniform instances, greedy
learned-policy decisions for planted ones) only ranks instances for
the stratified draw in the workloads; no check uses it. Rebuild both
files (about 45 s) with

    python3 perfbench/pool.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import reference

POOL_PATH = Path(__file__).with_name("uniform_pool.json")
POOL_VARS = 75
POOL_CLAUSES = 320  # round(4.26 * 75)
POOL_SIZE = 400
RACE_POOL_PATH = Path(__file__).with_name("race_pool.json")
RACE_POOL_SIZE = 800


def pool_instance(index: int) -> list[list[int]]:
    """Instance ``index`` of the uniform pool."""
    return reference.uniform_3sat(POOL_VARS, POOL_CLAUSES, random.Random(f"uniform-pool-{index}"))


def race_instance(index: int) -> list[list[int]]:
    """Instance ``index`` of the planted uf20-91 pool."""
    return reference.planted_3sat(20, 91, random.Random(f"race-pool-{index}"))[0]


def clauses_digest(clauses) -> str:
    text = ";".join(" ".join(map(str, c)) for c in clauses)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def load_pool() -> list[dict]:
    payload = json.loads(POOL_PATH.read_text(encoding="ascii"))
    if (payload["vars"], payload["clauses"]) != (POOL_VARS, POOL_CLAUSES):
        raise ValueError("uniform pool was written for another instance shape")
    return payload["instances"]


def load_race_pool() -> list[dict]:
    return json.loads(RACE_POOL_PATH.read_text(encoding="ascii"))["instances"]


def _write(path: Path, head: dict, entries: list[dict]) -> None:
    rows = ",\n".join(json.dumps(e) for e in entries)  # one instance per line
    path.write_text(f'{json.dumps(head)[:-1]}, "instances": [\n{rows}\n]}}\n', encoding="ascii")


def write_pools() -> None:
    from satkit.cnf import CnfFormula
    from satkit.rl import Policy, PolicyHeuristic
    from satkit.solver import Solver, VsidsHeuristic

    entries = []
    for index in range(POOL_SIZE):
        clauses = pool_instance(index)
        sat, nodes = reference.dpll(clauses)
        result = Solver(CnfFormula.from_codes(POOL_VARS, clauses), VsidsHeuristic(POOL_VARS)).run()
        entries.append({
            "index": index,
            "digest": clauses_digest(clauses),
            "sat": sat,
            "nodes": nodes,
            "propagations": result.stats.propagations,
        })
    _write(POOL_PATH, {"vars": POOL_VARS, "clauses": POOL_CLAUSES, "decider": "reference.dpll"}, entries)

    policy = Policy(20, 91, seed=0)
    entries = []
    for index in range(RACE_POOL_SIZE):
        clauses = race_instance(index)
        formula = CnfFormula.from_codes(20, clauses)
        result = Solver(formula, PolicyHeuristic(policy, formula)).run()
        entries.append({"index": index, "digest": clauses_digest(clauses), "decisions": result.stats.decisions})
    _write(RACE_POOL_PATH, {"vars": 20, "clauses": 91, "ranked_by": "Policy(20, 91, seed=0) greedy decisions"}, entries)


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    write_pools()
