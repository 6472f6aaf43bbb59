"""Integer-encoded CNF formulas and three-valued evaluation.

Variables are 1-based. Externally a literal is encoded as +v (the
variable) or -v (its negation); 0 never encodes a literal. Clause and
formula evaluation is three-valued: TRUE (+1), FALSE (-1), UNDEF (0)
for clauses that are neither satisfied nor fully falsified yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

TRUE = 1
FALSE = -1
UNDEF = 0


@dataclass(frozen=True)
class Literal:
    var: int
    negated: bool = False

    def __post_init__(self) -> None:
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")

    @property
    def code(self) -> int:
        return -self.var if self.negated else self.var

    @classmethod
    def from_code(cls, code: int) -> "Literal":
        if code == 0:
            raise ValueError("0 is the clause terminator, not a literal code")
        return cls(abs(code), code < 0)

    def negate(self) -> "Literal":
        return Literal(self.var, not self.negated)

    def __str__(self) -> str:
        return str(self.code)


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals. Never empty; duplicates are allowed
    (simplification removes them)."""

    literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", tuple(self.literals))
        if not self.literals:
            raise ValueError("a clause must contain at least one literal")

    @classmethod
    def from_codes(cls, codes: Iterable[int]) -> "Clause":
        return cls(tuple(Literal.from_code(c) for c in codes))

    def codes(self) -> tuple[int, ...]:
        return tuple(lit.code for lit in self.literals)

    def variables(self) -> set[int]:
        return {lit.var for lit in self.literals}

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        return " ".join(str(lit) for lit in self.literals)


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(self.clauses))
        if self.num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        for clause in self.clauses:
            for lit in clause:
                if lit.var > self.num_vars:
                    raise ValueError(
                        f"literal {lit.code} exceeds declared variable count {self.num_vars}"
                    )

    @classmethod
    def from_codes(cls, num_vars: int, clause_codes: Iterable[Iterable[int]]) -> "CnfFormula":
        return cls(num_vars, tuple(Clause.from_codes(c) for c in clause_codes))

    def clause_codes(self) -> list[tuple[int, ...]]:
        return [clause.codes() for clause in self.clauses]

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


class Assignment:
    """Mutable per-variable ternary state.

    ``values[i]`` holds +1 (true), -1 (false) or 0 (unassigned) for
    variable ``i + 1``, which is exactly the external encoding.
    """

    __slots__ = ("values",)

    def __init__(self, num_vars: int, values: Optional[list[int]] = None):
        if values is None:
            values = [0] * num_vars
        elif len(values) != num_vars:
            raise ValueError("assignment length must equal num_vars")
        self.values = values

    @property
    def num_vars(self) -> int:
        return len(self.values)

    def value(self, var: int) -> int:
        return self.values[var - 1]

    def is_assigned(self, var: int) -> bool:
        return self.values[var - 1] != 0

    def assign(self, var: int, value: bool) -> None:
        self.values[var - 1] = 1 if value else -1

    def unassign(self, var: int) -> None:
        self.values[var - 1] = 0

    def literal_value(self, code: int) -> int:
        v = self.values[abs(code) - 1]
        if v == 0:
            return UNDEF
        return TRUE if (v > 0) == (code > 0) else FALSE

    def copy(self) -> "Assignment":
        return Assignment(self.num_vars, list(self.values))

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "Assignment":
        vals = list(values)
        return cls(len(vals), vals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Assignment) and self.values == other.values

    def __repr__(self) -> str:
        return f"Assignment({self.values})"


def evaluate_clause(clause: Clause, assignment: Assignment) -> int:
    """Three-valued clause semantics: TRUE if some literal is satisfied,
    FALSE if all are falsified, UNDEF otherwise."""
    any_undef = False
    for lit in clause:
        v = assignment.literal_value(lit.code)
        if v == TRUE:
            return TRUE
        if v == UNDEF:
            any_undef = True
    return UNDEF if any_undef else FALSE


def evaluate_formula(formula: CnfFormula, assignment: Assignment) -> int:
    """Three-valued conjunction over clauses; FALSE dominates UNDEF."""
    any_undef = False
    for clause in formula.clauses:
        v = evaluate_clause(clause, assignment)
        if v == FALSE:
            return FALSE
        if v == UNDEF:
            any_undef = True
    return UNDEF if any_undef else TRUE
