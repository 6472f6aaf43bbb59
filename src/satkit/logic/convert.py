"""Expression-to-CNF conversion and CNF simplification.

Conversion is by logical equivalence, not Tseytin. One walk over the
expression, ``_clauses(expr, negate)``, interns each atom the first
time it meets one, eliminates arrows, pushes negations to the atoms
and distributes Or over And, returning clause lists directly; no
negation normal form tree is built, and a disjunction of literals
becomes its one clause in a single loop. The result is equivalent to
the input over the same atoms, which the truth-table tests rely on.
Distribution can blow up exponentially, so a clause cap,
``DEFAULT_CLAUSE_CAP`` unless given, guards it: a conjunction is
checked after each part, a disjunction before each product. An
expression nested past Python's recursion limit is a
``NestingTooDeepError``. A failed conversion leaves a shared table
holding only the atoms its walk reached.

Simplification applies exactly four equivalence-preserving rules:
duplicate literals within a clause, tautological clauses, duplicate
clauses, and subsumed clauses (strict superset of another clause).
"""

from __future__ import annotations

from operator import neg

from ..cnf import CnfFormula
from ..errors import LimitError, SatkitError
from .expressions import (
    And,
    Atom,
    Iff,
    Implies,
    LogicalExpr,
    Not,
    Or,
    _and,
    _implies,
    _not,
    _or,
)

DEFAULT_CLAUSE_CAP = 10_000


class BlowupExceededError(SatkitError):
    """Distribution would exceed the clause cap. Tseytin-style encoding
    would sidestep this at the cost of equivalence; not implemented."""


class NestingTooDeepError(SatkitError):
    """The expression is nested deeper than the conversion can recurse."""


class SymbolTable:
    """Ordered bijection between atom names and 1-based variable indices,
    assigned in first-appearance order. One dict holds it: a name's
    index is its insertion position plus one. ``phrases`` maps an atom
    to the source phrase it stands for, where one is known:
    ``pipeline.compile_document`` fills it from the translator's
    replies, and a table built from expressions leaves it empty."""

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self.phrases: dict[str, str] = {}

    def intern(self, name: str) -> int:
        return self._index.setdefault(name, len(self._index) + 1)

    def names(self) -> tuple[str, ...]:
        return tuple(self._index)

    def items(self) -> list[tuple[str, int]]:
        return list(self._index.items())

    def __len__(self) -> int:
        return len(self._index)


def _clauses(expr: LogicalExpr, negate: bool, index: dict[str, int], cap: int) -> list[list[int]]:
    """Clause lists of literal codes for ``expr``, or for its negation if
    ``negate``: arrows eliminated, negations pushed to the atoms and Or
    distributed over And in the same walk. An atom met for the first
    time is interned into ``index``, a ``SymbolTable``'s dict; the walk
    meets atoms in pre-order, an Iff's first part covering its lhs and
    then its rhs, so they are interned in ``atoms(expr)`` order.

    Every part of a node is taken under the node's own ``negate``, so an
    arrow is rewritten to parts that need no other: a -> b as the
    disjunction of Not(a) and b. A literal part, an Atom under any
    number of Nots, is read in place, not by a call of its own."""
    kind = type(expr)
    if kind is Atom:
        code = index.setdefault(expr.name, len(index) + 1)
        return [[-code if negate else code]]
    if kind is Not:
        return _clauses(expr.child, not negate, index, cap)
    if kind is And or kind is Or:
        parts = expr.children
        conjunction = (kind is And) != negate  # ~(a | b) == ~a & ~b
    elif kind is Implies:  # a -> b == ~a | b;  ~(a -> b) == a & ~b
        parts = (_not(expr.lhs), expr.rhs)
        conjunction = negate
    elif kind is Iff:
        a, b = expr.lhs, expr.rhs
        if negate:  # ~(a <-> b) == ~(~(a | b) | (a & b)) == (a | b) & ~(a & b)
            parts = (_not(_or((a, b))), _and((a, b)))
        else:  # a <-> b == (a -> b) & (b -> a)
            parts = (_implies(a, b), _implies(b, a))
        conjunction = True
    else:
        raise TypeError(f"not a logical expression: {expr!r}")

    if conjunction:
        out: list[list[int]] = []
        for part in parts:
            part_negate = negate
            while type(part) is Not:
                part, part_negate = part.child, not part_negate
            if type(part) is Atom:
                code = index.setdefault(part.name, len(index) + 1)
                out.append([-code if part_negate else code])
            else:
                out.extend(_clauses(part, part_negate, index, cap))
            if len(out) > cap:
                raise BlowupExceededError(f"CNF conversion exceeds the {cap}-clause cap")
        return out
    # A disjunction of literals is one clause, its literals in order; the
    # first part that is not a literal hands the parts to the product
    # below, which meets the atoms already interned here again.
    clause: list[int] = []
    for part in parts:
        part_negate = negate
        while type(part) is Not:
            part, part_negate = part.child, not part_negate
        if type(part) is not Atom:
            break
        code = index.setdefault(part.name, len(index) + 1)
        clause.append(-code if part_negate else code)
    else:
        return [clause]
    acc: list[list[int]] = [[]]
    for part in parts:
        branches = _clauses(part, negate, index, cap)
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
    mapping across a sequence of expressions. A conversion that fails
    leaves interned only the atoms its walk reached. A ``max_clauses``
    below 1 is a ``LimitError``.
    """
    if max_clauses < 1:
        raise LimitError(f"max_clauses must be >= 1, got {max_clauses}")
    if table is None:
        table = SymbolTable()
    try:
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
    # against the clauses listed under its own literals. A unit's only
    # strict subset is the empty clause, which no formula holds, so a
    # unit is kept unchecked.
    listed: dict[int, list[frozenset[int]]] = {}
    for codes, key in kept:
        listed.setdefault(codes[0], []).append(key)
    result = [
        codes
        for codes, key in kept
        if len(codes) == 1
        or not any(other < key for code in codes for other in listed.get(code, ()))
    ]
    return CnfFormula(formula.num_vars, result)
