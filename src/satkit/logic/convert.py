"""Expression-to-CNF conversion and CNF simplification.

Conversion is by logical equivalence, not Tseytin: arrows are
eliminated, negations pushed to atoms, then Or distributed over And.
The result is equivalent to the input over the same atoms, which the
truth-table tests rely on. Distribution can blow up exponentially, so
a clause cap (default 10,000) guards it.

Simplification applies exactly four equivalence-preserving rules:
duplicate literals within a clause, tautological clauses, duplicate
clauses, and subsumed clauses (strict superset of another clause).
"""

from __future__ import annotations

from ..cnf import CnfFormula
from ..errors import SatkitError
from .expressions import And, Atom, Iff, Implies, LogicalExpr, Not, Or, atoms

DEFAULT_CLAUSE_CAP = 10_000


class BlowupExceededError(SatkitError):
    """Distribution would exceed the clause cap. Tseytin-style encoding
    would sidestep this at the cost of equivalence; not implemented."""


class SymbolTable:
    """Ordered bijection between atom names and 1-based variable indices,
    assigned in first-appearance order."""

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            self._names.append(name)
            idx = len(self._names)
            self._index[name] = idx
        return idx

    def index_of(self, name: str) -> int:
        return self._index[name]

    def name_of(self, index: int) -> str:
        return self._names[index - 1]

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def items(self) -> list[tuple[str, int]]:
        return [(name, i + 1) for i, name in enumerate(self._names)]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._names)


def _nnf(expr: LogicalExpr, negate: bool) -> LogicalExpr:
    """Eliminate Implies/Iff and push negations down to atoms."""
    match expr:
        case Atom(_):
            return Not(expr) if negate else expr
        case Not(child):
            return _nnf(child, not negate)
        case And(children):
            parts = tuple(_nnf(c, negate) for c in children)
            return Or(parts) if negate else And(parts)
        case Or(children):
            parts = tuple(_nnf(c, negate) for c in children)
            return And(parts) if negate else Or(parts)
        case Implies(lhs, rhs):
            if negate:  # ~(a -> b)  ==  a & ~b
                return And((_nnf(lhs, False), _nnf(rhs, True)))
            return Or((_nnf(lhs, True), _nnf(rhs, False)))
        case Iff(lhs, rhs):
            if negate:  # ~(a <-> b)  ==  (a | b) & (~a | ~b)
                return And(
                    (
                        Or((_nnf(lhs, False), _nnf(rhs, False))),
                        Or((_nnf(lhs, True), _nnf(rhs, True))),
                    )
                )
            # a <-> b  ==  (~a | b) & (~b | a)
            return And(
                (
                    Or((_nnf(lhs, True), _nnf(rhs, False))),
                    Or((_nnf(rhs, True), _nnf(lhs, False))),
                )
            )
    raise TypeError(f"not a logical expression: {expr!r}")


def _distribute(expr: LogicalExpr, table: SymbolTable, cap: int) -> list[list[int]]:
    """NNF tree -> clause lists of literal codes, distributing Or over And."""
    match expr:
        case Atom(name):
            return [[table.index_of(name)]]
        case Not(Atom(name)):
            return [[-table.index_of(name)]]
        case And(children):
            out: list[list[int]] = []
            for child in children:
                out.extend(_distribute(child, table, cap))
                if len(out) > cap:
                    raise BlowupExceededError(
                        f"CNF conversion exceeds the {cap}-clause cap"
                    )
            return out
        case Or(children):
            acc: list[list[int]] = [[]]
            for child in children:
                branches = _distribute(child, table, cap)
                if len(acc) * len(branches) > cap:
                    raise BlowupExceededError(
                        f"CNF conversion exceeds the {cap}-clause cap"
                    )
                acc = [a + b for a in acc for b in branches]
            return acc
    raise AssertionError(f"non-NNF node after normalization: {expr!r}")


def to_cnf(
    expr: LogicalExpr,
    table: "SymbolTable | None" = None,
    max_clauses: int = DEFAULT_CLAUSE_CAP,
) -> CnfFormula:
    """Convert an expression to an equivalent CNF formula.

    Atoms are interned into ``table`` in first-appearance order over the
    original expression, so a shared table gives a stable atom-to-index
    mapping across a sequence of expressions.
    """
    if table is None:
        table = SymbolTable()
    for name in atoms(expr):
        table.intern(name)
    clauses = _distribute(_nnf(expr, False), table, max_clauses)
    return CnfFormula(len(table), clauses)


def simplify_cnf(formula: CnfFormula) -> CnfFormula:
    """Apply the four redundancy rules; output is equivalent to the input
    and never larger. The order of clauses and literals is otherwise
    preserved."""
    kept: list[tuple[int, ...]] = []
    kept_sets: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for clause in formula.clauses:
        codes: list[int] = []
        present: set[int] = set()
        for code in clause:
            if code not in present:
                present.add(code)
                codes.append(code)
        if any(-code in present for code in codes):
            continue  # tautology
        key = frozenset(codes)
        if key in seen:
            continue  # duplicate clause
        seen.add(key)
        kept.append(tuple(codes))
        kept_sets.append(key)

    result = []
    for i, codes in enumerate(kept):
        subsumed = any(
            j != i and kept_sets[j] < kept_sets[i] for j in range(len(kept))
        )
        if not subsumed:
            result.append(codes)
    return CnfFormula(formula.num_vars, result)
