"""Random k-SAT instance generators.

``random_ksat`` draws uniform random clauses (distinct variables per
clause, independent signs). ``planted_ksat`` additionally rejects any
clause falsified by a hidden assignment, so every instance it emits is
satisfiable by construction; this is the stand-in for SATLIB's uf20-91
family when the original files are not on disk.
"""

from __future__ import annotations

import random
from pathlib import Path

from .cnf import CnfFormula
from .dimacs import write_dimacs_file


def random_ksat(num_vars: int, num_clauses: int, rng: random.Random, k: int = 3) -> CnfFormula:
    if num_vars < k:
        raise ValueError(f"need at least {k} variables for {k}-SAT")
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), k)
        codes = [v if rng.random() < 0.5 else -v for v in variables]
        clauses.append(codes)
    return CnfFormula(num_vars, clauses)


def planted_ksat(num_vars: int, num_clauses: int, rng: random.Random, k: int = 3) -> CnfFormula:
    if num_vars < k:
        raise ValueError(f"need at least {k} variables for {k}-SAT")
    hidden = [rng.random() < 0.5 for _ in range(num_vars)]
    clauses = []
    while len(clauses) < num_clauses:
        variables = rng.sample(range(1, num_vars + 1), k)
        codes = [v if rng.random() < 0.5 else -v for v in variables]
        satisfied = any((c > 0) == hidden[abs(c) - 1] for c in codes)
        if satisfied:
            clauses.append(codes)
    return CnfFormula(num_vars, clauses)


def generate_dataset(
    out_dir,
    count: int,
    num_vars: int,
    num_clauses: int,
    seed: int,
    kind: str = "planted",
) -> list[Path]:
    """Write ``count`` DIMACS files named ``inst_000.cnf`` ... into ``out_dir``."""
    make = {"planted": planted_ksat, "uniform": random_ksat}[kind]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    paths = []
    for i in range(count):
        formula = make(num_vars, num_clauses, rng)
        path = out / f"inst_{i:03d}.cnf"
        write_dimacs_file(formula, path)
        paths.append(path)
    return paths
