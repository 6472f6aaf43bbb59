"""satkit: compile logic to CNF, solve it with CDCL, learn the branching."""

from .cnf import (
    FALSE,
    TRUE,
    UNDEF,
    CnfFormula,
    evaluate_clause,
)
from .dimacs import parse_dimacs, write_dimacs

__version__ = "0.1.0"

__all__ = [
    "CnfFormula",
    "FALSE",
    "TRUE",
    "UNDEF",
    "evaluate_clause",
    "parse_dimacs",
    "write_dimacs",
    "__version__",
]
