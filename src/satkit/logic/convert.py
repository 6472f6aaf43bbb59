"""Expression-to-CNF conversion and CNF simplification.

Conversion is by logical equivalence, not Tseytin. One walk over the
expression, ``_clauses(expr, negate)``, eliminates arrows, pushes
negations to the atoms and distributes Or over And, returning clause
lists directly; no negation normal form tree is built. The result is
equivalent to the input over the same atoms, which the truth-table
tests rely on. Distribution can blow up exponentially, so a clause
cap, ``DEFAULT_CLAUSE_CAP`` unless given, guards it: a conjunction is
checked after each part, a disjunction before each product. An
expression nested past Python's recursion limit is a
``NestingTooDeepError``.

Simplification applies exactly four equivalence-preserving rules:
duplicate literals within a clause, tautological clauses, duplicate
clauses, and subsumed clauses (strict superset of another clause).
"""

from __future__ import annotations

from operator import neg

from ..cnf import CnfFormula
from ..errors import LimitError, SatkitError
from .expressions import And, Atom, Iff, Implies, LogicalExpr, Not, Or, atoms

DEFAULT_CLAUSE_CAP = 10_000


class BlowupExceededError(SatkitError):
    """Distribution would exceed the clause cap. Tseytin-style encoding
    would sidestep this at the cost of equivalence; not implemented."""


class NestingTooDeepError(SatkitError):
    """The expression is nested deeper than the conversion can recurse."""


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

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def items(self) -> list[tuple[str, int]]:
        return [(name, i + 1) for i, name in enumerate(self._names)]

    def __len__(self) -> int:
        return len(self._names)


def _clauses(expr: LogicalExpr, negate: bool, index: dict[str, int], cap: int) -> list[list[int]]:
    """Clause lists of literal codes for ``expr``, or for its negation if
    ``negate``: arrows eliminated, negations pushed to the atoms and Or
    distributed over And in the same walk."""
    kind = type(expr)
    if kind is Atom:
        code = index[expr.name]
        return [[-code if negate else code]]
    if kind is Not:
        return _clauses(expr.child, not negate, index, cap)
    if kind is And or kind is Or:
        parts = [(child, negate) for child in expr.children]
        conjunction = (kind is And) != negate  # ~(a | b) == ~a & ~b
    elif kind is Implies:  # a -> b == ~a | b;  ~(a -> b) == a & ~b
        parts = [(expr.lhs, not negate), (expr.rhs, negate)]
        conjunction = negate
    elif kind is Iff:
        a, b = expr.lhs, expr.rhs
        if negate:  # ~(a <-> b) == (a | b) & ~(a & b)
            parts = [(Or((a, b)), False), (And((a, b)), True)]
        else:  # a <-> b == (a -> b) & (b -> a)
            parts = [(Implies(a, b), False), (Implies(b, a), False)]
        conjunction = True
    else:
        raise TypeError(f"not a logical expression: {expr!r}")

    if conjunction:
        out: list[list[int]] = []
        for part, part_negate in parts:
            out.extend(_clauses(part, part_negate, index, cap))
            if len(out) > cap:
                raise BlowupExceededError(f"CNF conversion exceeds the {cap}-clause cap")
        return out
    acc: list[list[int]] = [[]]
    for part, part_negate in parts:
        branches = _clauses(part, part_negate, index, cap)
        if len(acc) * len(branches) > cap:
            raise BlowupExceededError(f"CNF conversion exceeds the {cap}-clause cap")
        acc = [a + b for a in acc for b in branches]
    return acc


def to_cnf(
    expr: LogicalExpr,
    table: "SymbolTable | None" = None,
    max_clauses: int = DEFAULT_CLAUSE_CAP,
) -> CnfFormula:
    """Convert an expression to an equivalent CNF formula.

    Atoms are interned into ``table`` in first-appearance order over the
    original expression, so a shared table gives a stable atom-to-index
    mapping across a sequence of expressions. A ``max_clauses`` below 1
    is a ``LimitError``.
    """
    if max_clauses < 1:
        raise LimitError(f"max_clauses must be >= 1, got {max_clauses}")
    if table is None:
        table = SymbolTable()
    try:
        for name in atoms(expr):
            table.intern(name)
        clauses = _clauses(expr, False, table._index, max_clauses)
    except RecursionError:
        raise NestingTooDeepError("expression nested too deeply to convert to CNF") from None
    return CnfFormula(len(table), clauses)


def simplify_cnf(formula: CnfFormula) -> CnfFormula:
    """Apply the four redundancy rules; output is equivalent to the input
    and never larger. The order of clauses and literals is otherwise
    preserved."""
    kept: list[tuple[tuple[int, ...], frozenset[int]]] = []
    seen: set[frozenset[int]] = set()
    for clause in formula.clauses:
        key = frozenset(clause)
        if key in seen or not key.isdisjoint(map(neg, key)):
            continue  # duplicate clause or tautology
        seen.add(key)
        codes = clause if len(key) == len(clause) else tuple(dict.fromkeys(clause))
        kept.append((codes, key))

    # A strict subset of a clause holds only literals of that clause, so
    # each clause is listed under its first literal and checked only
    # against the clauses listed under its own literals.
    listed: dict[int, list[frozenset[int]]] = {}
    for codes, key in kept:
        listed.setdefault(codes[0], []).append(key)
    result = [
        codes
        for codes, key in kept
        if not any(other < key for code in codes for other in listed.get(code, ()))
    ]
    return CnfFormula(formula.num_vars, result)
