"""Reference computations that share no code with satkit.

Everything the benchmark uses to judge satkit's outputs lives here:
instance generators, a DIMACS reader over plain integers, a clause
evaluator, a tree evaluator for the benchmark's own expressions, and a
small DPLL decider. None of it imports satkit, so a fault in satkit
cannot hide itself by agreeing with its own check.

The DPLL decider costs about 0.1 s per uniform n=75 instance, too much
to run inside a timed benchmark run; ``pool.py`` stores its verdicts.
"""

from __future__ import annotations

import itertools
import random

# -- instances -----------------------------------------------------------


def planted_3sat(num_vars: int, num_clauses: int, rng: random.Random):
    """Clauses (lists of signed ints) satisfied by a hidden assignment,
    returned with it; every clause keeps at least one literal true under
    ``hidden`` (``hidden[v - 1]`` is variable v's value)."""
    hidden = [rng.random() < 0.5 for _ in range(num_vars)]
    clauses = []
    while len(clauses) < num_clauses:
        variables = rng.sample(range(1, num_vars + 1), 3)
        codes = [v if rng.random() < 0.5 else -v for v in variables]
        if any((c > 0) == hidden[abs(c) - 1] for c in codes):
            clauses.append(codes)
    return clauses, hidden


def uniform_3sat(num_vars: int, num_clauses: int, rng: random.Random) -> list[list[int]]:
    """Uniform random 3-SAT: three distinct variables, independent signs."""
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


# -- DIMACS and clause evaluation -----------------------------------------


def read_dimacs_ints(text: str) -> tuple[int, list[list[int]]]:
    """(num_vars, clauses) from DIMACS text; comments and the header's
    clause count are not interpreted beyond what a round trip needs."""
    num_vars = -1
    clauses: list[list[int]] = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            num_vars = int(line.split()[2])
            continue
        for tok in line.split():
            code = int(tok)
            if code == 0:
                clauses.append(current)
                current = []
            else:
                current.append(code)
    if num_vars < 0 or current:
        raise ValueError("not a complete DIMACS text")
    return num_vars, clauses


def satisfies(clauses, model) -> bool:
    """True when every clause has a literal true under ``model``, a
    collection of signed ints with one entry per assigned variable."""
    true_lits = set(model)
    return all(any(lit in true_lits for lit in clause) for clause in clauses)


# -- expressions -----------------------------------------------------------
# An expression is a nested tuple: ("atom", name), ("not", e),
# ("and", e1, e2, ...), ("or", e1, e2, ...), ("implies", a, b) or
# ("iff", a, b). It renders to satkit's functional prefix notation.


def eval_expr(expr, env) -> bool:
    kind = expr[0]
    if kind == "atom":
        return env[expr[1]]
    if kind == "not":
        return not eval_expr(expr[1], env)
    if kind == "and":
        return all(eval_expr(e, env) for e in expr[1:])
    if kind == "or":
        return any(eval_expr(e, env) for e in expr[1:])
    if kind == "implies":
        return (not eval_expr(expr[1], env)) or eval_expr(expr[2], env)
    if kind == "iff":
        return eval_expr(expr[1], env) == eval_expr(expr[2], env)
    raise ValueError(f"unknown expression kind {kind!r}")


def render_expr(expr) -> str:
    kind = expr[0]
    if kind == "atom":
        return expr[1]
    name = {"not": "Not", "and": "And", "or": "Or", "implies": "Implies", "iff": "Iff"}[kind]
    return f"{name}({', '.join(render_expr(e) for e in expr[1:])})"


# -- deciders ----------------------------------------------------------------


def dpll(clauses) -> tuple[bool, int]:
    """(satisfiable, search nodes) by DPLL with unit propagation; branches
    on the variable occurring most often in the shortest open clauses."""
    stack = [[list(c) for c in clauses]]
    nodes = 0
    while stack:
        nodes += 1
        current = stack.pop()
        current = _propagate_units(current)
        if current is None:
            continue
        if not current:
            return True, nodes
        shortest = min(len(c) for c in current)
        counts: dict[int, int] = {}
        for c in current:
            if len(c) == shortest:
                for lit in c:
                    counts[abs(lit)] = counts.get(abs(lit), 0) + 1
        var = max(sorted(counts), key=counts.__getitem__)
        stack.append(_assign(current, -var))
        stack.append(_assign(current, var))
    return False, nodes


def _assign(clauses, lit):
    out = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            c = [x for x in c if x != -lit]
        out.append(c)
    return out


def _propagate_units(clauses):
    while True:
        unit = None
        for c in clauses:
            if not c:
                return None
            if len(c) == 1:
                unit = c[0]
                break
        if unit is None:
            return clauses
        clauses = _assign(clauses, unit)


def truth_table_sat(num_vars: int, clauses) -> bool:
    """Satisfiability by enumerating all 2^n assignments (small n only)."""
    for bits in itertools.product((False, True), repeat=num_vars):
        model = [v if bits[v - 1] else -v for v in range(1, num_vars + 1)]
        if satisfies(clauses, model):
            return True
    return False
