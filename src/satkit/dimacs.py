"""DIMACS-CNF reading and writing.

The reader accepts comment lines anywhere, clauses spanning or sharing
lines (only the ``0`` terminator delimits clauses), and the SATLIB
footer convention: once the declared clause count has been read, the
``%`` and ``0`` tokens of the footer may follow. The header clause
count is otherwise enforced strictly: too few clauses, or any other
token past the count, is a ``ClauseCountMismatchError``.

The writer emits the canonical form used by the round-trip tests: no
comments, one clause per line, LF line endings, ASCII.
"""

from __future__ import annotations

import re

from .cnf import CnfFormula
from .errors import SatkitError

_HEADER = re.compile(r"p\s+cnf\s+(\d+)\s+(\d+)\s*$")


class DimacsError(SatkitError):
    """Malformed DIMACS input."""


class MissingHeaderError(DimacsError):
    pass


class ClauseCountMismatchError(DimacsError):
    pass


class LiteralOutOfRangeError(DimacsError):
    pass


class UnterminatedClauseError(DimacsError):
    pass


def parse_dimacs(data: "str | bytes") -> CnfFormula:
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise DimacsError(f"DIMACS input must be ASCII: {exc}") from None
    else:
        text = data

    lines = text.splitlines()
    num_vars = num_clauses = -1
    body_start = 0
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        m = _HEADER.match(line)
        if m is None:
            raise MissingHeaderError(f"expected 'p cnf V C' header, got {line[:60]!r}")
        num_vars, num_clauses = int(m.group(1)), int(m.group(2))
        body_start = i + 1
        break
    if num_vars < 0:
        raise MissingHeaderError("no 'p cnf' header found")

    clauses: list[list[int]] = []
    current: list[int] = []
    rest = iter(lines[body_start:])
    tail: list[str] = []  # the tokens past the declared count
    done = False
    for raw in rest if num_clauses else ():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = iter(line.split())
        for tok in tokens:
            try:
                code = int(tok)
            except ValueError:
                raise DimacsError(f"invalid token {tok!r} in clause data") from None
            if code == 0:
                if not current:
                    raise DimacsError("empty clause (bare '0') is not supported")
                clauses.append(current)
                current = []
                if len(clauses) == num_clauses:
                    done = True
                    tail = list(tokens)
                    break
            else:
                current.append(code)
        if done:
            break
    # Past the count: only the SATLIB footer, comments and blank lines.
    for raw in rest:
        line = raw.strip()
        if line and not line.startswith("c"):
            tail += line.split()
    if any(tok != "%" and tok != "0" for tok in tail):
        raise ClauseCountMismatchError(
            f"header declares {num_clauses} clauses, more follow: {' '.join(tail)[:60]!r}"
        )

    if current:
        raise UnterminatedClauseError(
            f"clause {' '.join(map(str, current))} is missing its '0' terminator"
        )
    if len(clauses) != num_clauses:
        raise ClauseCountMismatchError(
            f"header declares {num_clauses} clauses, found {len(clauses)}"
        )
    try:
        return CnfFormula(num_vars, clauses)
    except ValueError as exc:
        # The header, terminators and clause count are checked above, so
        # the only check left to the formula is the literal range.
        raise LiteralOutOfRangeError(str(exc)) from None


def write_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def read_dimacs_file(path) -> CnfFormula:
    with open(path, "rb") as fh:
        return parse_dimacs(fh.read())


def write_dimacs_file(formula: CnfFormula, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(write_dimacs(formula))
