"""Integer-encoded CNF formulas and three-valued evaluation.

Variables are 1-based. A literal is its DIMACS code, +v (the variable)
or -v (its negation); 0 never encodes a literal. A clause is a tuple
of such codes, the one format every layer uses, from the DIMACS reader
and the logic pipeline to the solver, the features and the policy's
observation. An assignment is a plain list of per-variable values,
``values[v - 1]`` being +1 (true), -1 (false) or 0 (unassigned) for
variable v; the solver owns the one live list. Evaluation is
three-valued: TRUE (+1), FALSE (-1), UNDEF (0) for clauses that are
neither satisfied nor fully falsified yet. ``evaluate_clause`` is the
only code that evaluates a clause against an assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

TRUE = 1
FALSE = -1
UNDEF = 0


@dataclass(frozen=True)
class CnfFormula:
    """A variable count and a tuple of clauses. A clause is a non-empty
    tuple of literal codes; duplicates are allowed (simplification
    removes them). Any iterable of iterables is accepted and stored as
    tuples, so formulas built from lists or tuples compare and hash
    equal."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        clauses = tuple(tuple(clause) for clause in self.clauses)
        object.__setattr__(self, "clauses", clauses)
        if self.num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        for clause in clauses:
            if not clause:
                raise ValueError("a clause must contain at least one literal")
            for code in clause:
                if code == 0:
                    raise ValueError("0 is the clause terminator, not a literal code")
                if abs(code) > self.num_vars:
                    raise ValueError(
                        f"literal {code} exceeds declared variable count {self.num_vars}"
                    )

    @classmethod
    def from_codes(cls, num_vars: int, clauses: Iterable[Iterable[int]]) -> "CnfFormula":
        return cls(num_vars, clauses)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def evaluate_clause(clause: tuple[int, ...], values: Sequence[int]) -> int:
    """Three-valued clause semantics: TRUE if some literal is satisfied,
    FALSE if all are falsified, UNDEF otherwise."""
    any_undef = False
    for code in clause:
        v = values[code - 1] if code > 0 else -values[-code - 1]
        if v > 0:
            return TRUE
        if v == 0:
            any_undef = True
    return UNDEF if any_undef else FALSE

