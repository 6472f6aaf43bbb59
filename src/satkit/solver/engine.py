"""Conflict-driven clause learning with two watched literals.

The solver follows the classic loop: decide, propagate to fixpoint,
and on conflict learn the first-UIP clause, jump back to its assertion
level and continue. The branching step is a pluggable heuristic that
reads the solver's value list and returns the literal to branch on as
a DIMACS code, the way MiniSat's ``pickBranchLit`` does. The search
jumps back only to a learned clause's assertion level, and every
learned clause is kept for the rest of the run. With a deterministic
heuristic, a seeded one included, a run is deterministic given the
formula: every iteration order is fixed and there is no wall-clock
dependence except the timeout check itself.

The watch table ``Solver.watches`` is a list of ``2n + 1`` lists indexed
by literal code: slot v holds the clauses watching +v and slot
``2n + 1 - v`` those watching -v, so ``watches[lit]`` works directly
for a negative ``lit`` through Python's negative indexing (slot 0 is
unused). Every clause of length >= 2 is listed exactly once under
each of its two watched literals, slots 0 and 1 of the clause. A
literal's value is read inline with a sign test, ``values[l - 1] if
l > 0 else -values[-l - 1]``, which is > 0 for a true literal, < 0 for
a false one and 0 for an unassigned one.

Satisfiability is declared as soon as every original clause evaluates
true; a partial assignment is completed from saved phases before the
model is verified and returned. Unsatisfiability is declared exactly
on a conflict at decision level 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..cnf import CnfFormula, TRUE, evaluate_clause
from ..errors import LimitError


class Verdict(str, Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


@dataclass
class SolveLimits:
    """``None`` is no limit; 0 stops before the first decision."""

    max_decisions: Optional[int] = None
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_decisions", "timeout_s"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise LimitError(f"{name} must be >= 0, got {value}")


@dataclass
class SolveStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0  # implied assignments appended by BCP
    learned: int = 0
    wall_time_s: float = 0.0


@dataclass
class SolveResult:
    verdict: Verdict
    model: Optional[list[int]]  # signed literal codes, one per variable
    stats: SolveStats
    limit: Optional[str] = None  # which limit fired, for UNKNOWN


class Heuristic:
    """Branching-heuristic interface.

    ``decide`` returns the literal to branch on as a DIMACS code, +v to
    set variable v true and -v to set it false; v must be unassigned
    (``solver.values[v - 1] == 0``), and ``decide`` is only called when
    such a variable exists. ``on_conflict`` fires once per learned
    clause, ``on_step`` after the propagation that follows each
    decision has reached a fixpoint (or produced a verdict). Heuristic
    objects are single-solve: create a fresh one per run.
    """

    def attach(self, solver: "Solver") -> None:
        pass

    def decide(self, solver: "Solver") -> int:
        raise NotImplementedError

    def on_conflict(self, solver: "Solver", learned: list[int]) -> None:
        pass

    def on_step(self, solver: "Solver") -> None:
        pass


class Solver:
    def __init__(self, formula: CnfFormula, heuristic: Heuristic, limits: Optional[SolveLimits] = None):
        self.formula = formula
        self.heuristic = heuristic
        self.limits = limits or SolveLimits()

        n = formula.num_vars
        self.num_vars = n
        self.values = [0] * n  # +1 true, -1 false, 0 unassigned; var-1 indexed
        self.level = [0] * (n + 1)
        self.reason: list[Optional[int]] = [None] * (n + 1)
        self.saved_phase = [False] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.stats = SolveStats()

        # Internal clause database: original clauses first (deduped
        # copies, index-aligned with formula.clauses), then learned
        # ones. Watched literals sit at slots 0 and 1. Size-1 clauses
        # are asserted at level 0 instead of being watched.
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
        self._unit_clauses: list[int] = []
        for idx, clause in enumerate(formula.clauses):
            codes = list(clause) if len(set(clause)) == len(clause) else list(dict.fromkeys(clause))
            self.clauses.append(codes)
            if len(codes) == 1:
                self._unit_clauses.append(idx)
            else:
                self.watches[codes[0]].append(idx)
                self.watches[codes[1]].append(idx)

    # -- state inspection ------------------------------------------------

    @property
    def current_level(self) -> int:
        return len(self.trail_lim)

    def original_clauses_satisfied(self) -> bool:
        values = self.values
        for clause in self.formula.clauses:
            if evaluate_clause(clause, values) != TRUE:
                return False
        return True

    # -- trail manipulation ------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[int]) -> None:
        var = abs(lit)
        self.values[var - 1] = 1 if lit > 0 else -1
        self.level[var] = self.current_level
        self.reason[var] = reason
        self.trail.append(lit)

    def propagate(self) -> Optional[int]:
        """Boolean constraint propagation to fixpoint.

        Returns the index of a conflicting clause, or None. Implied
        literals are appended to the trail with their reason clause.
        """
        trail = self.trail
        values = self.values
        watches = self.watches
        clauses = self.clauses
        level = self.level
        reason = self.reason
        current = len(self.trail_lim)  # BCP never opens a level
        qhead = self.qhead
        propagations = 0
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            watchlist = watches[falsified]
            i = 0
            end = len(watchlist)
            while i < end:
                ci = watchlist[i]
                clause = clauses[ci]
                first = clause[0]
                if first == falsified:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = falsified
                value = values[first - 1] if first > 0 else -values[-first - 1]
                if value > 0:
                    i += 1
                    continue
                size = len(clause)
                k = 2
                while k < size:
                    lit = clause[k]
                    if (values[lit - 1] if lit > 0 else -values[-lit - 1]) >= 0:
                        clause[1] = lit
                        clause[k] = falsified
                        watches[lit].append(ci)
                        end -= 1
                        watchlist[i] = watchlist[end]
                        watchlist.pop()
                        break
                    k += 1
                else:
                    if value < 0:
                        self.qhead = len(trail)
                        self.stats.propagations += propagations
                        return ci
                    if first > 0:
                        values[first - 1] = 1
                        level[first] = current
                        reason[first] = ci
                    else:
                        values[-first - 1] = -1
                        level[-first] = current
                        reason[-first] = ci
                    trail.append(first)
                    propagations += 1
                    i += 1
        self.qhead = qhead
        self.stats.propagations += propagations
        return None

    def analyze_conflict(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis.

        Returns (learned, backjump_level) where ``learned[0]`` is the
        asserting literal (negated UIP) and, when present, ``learned[1]``
        carries the backjump-level literal so the watch invariant holds
        right after the jump.
        """
        current = len(self.trail_lim)
        assert current >= 1, "level-0 conflicts short-circuit to UNSAT"
        trail = self.trail
        level = self.level
        reason = self.reason
        clauses = self.clauses
        seen = bytearray(self.num_vars + 1)
        tail: list[int] = []
        counter = 0
        index = len(trail) - 1
        lits = clauses[conflict]

        while True:
            for q in lits:
                var = q if q > 0 else -q
                if not seen[var]:
                    lv = level[var]
                    if lv > 0:
                        seen[var] = 1
                        if lv >= current:
                            counter += 1
                        else:
                            tail.append(q)
            while True:
                p = trail[index]
                index -= 1
                var = p if p > 0 else -p
                if seen[var]:
                    break
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            # Never None here: decisions end the count. Slot 0 of a
            # reason is the literal it asserted, which is p.
            lits = clauses[reason[var]][1:]

        learned = [-p] + tail
        backjump = 0
        if len(learned) > 1:
            pos = 1
            for k in range(1, len(learned)):
                q = learned[k]
                lv = level[q if q > 0 else -q]
                if lv > backjump:
                    backjump = lv
                    pos = k
            learned[1], learned[pos] = learned[pos], learned[1]
        return learned, backjump

    def add_learned_clause(self, learned: list[int]) -> int:
        idx = len(self.clauses)
        self.clauses.append(list(learned))
        if len(learned) >= 2:
            self.watches[learned[0]].append(idx)
            self.watches[learned[1]].append(idx)
        self.stats.learned += 1
        return idx

    def backjump(self, target_level: int) -> None:
        """Unassign everything above ``target_level``."""
        trail_lim = self.trail_lim
        assert target_level < len(trail_lim)
        trail = self.trail
        values = self.values
        saved_phase = self.saved_phase
        reason = self.reason
        level = self.level
        keep = trail_lim[target_level]
        for lit in reversed(trail[keep:]):
            var = lit if lit > 0 else -lit
            saved_phase[var] = lit > 0
            values[var - 1] = 0
            reason[var] = None
            level[var] = 0
        del trail[keep:]
        del trail_lim[target_level:]
        self.qhead = keep

    # -- main loop ------------------------------------------------------

    def _complete_model(self) -> list[int]:
        model = []
        for var in range(1, self.num_vars + 1):
            v = self.values[var - 1]
            positive = v > 0 if v != 0 else self.saved_phase[var]
            model.append(var if positive else -var)
        return model

    def _verify_model(self, model: list[int]) -> None:
        true = set(model)
        for clause in self.formula.clauses:
            if true.isdisjoint(clause):
                raise AssertionError("internal error: SAT model fails verification")

    def _limit_reached(self, started: float) -> Optional[str]:
        if (
            self.limits.max_decisions is not None
            and self.stats.decisions >= self.limits.max_decisions
        ):
            return "decisions"
        if (
            self.limits.timeout_s is not None
            and time.perf_counter() - started >= self.limits.timeout_s
        ):
            return "timeout"
        return None

    def _finish(self, verdict: Verdict, started: float, limit: Optional[str] = None) -> SolveResult:
        self.stats.wall_time_s = time.perf_counter() - started
        model = None
        if verdict == Verdict.SAT:
            model = self._complete_model()
            self._verify_model(model)
        return SolveResult(verdict, model, self.stats, limit)

    def run(self) -> SolveResult:
        started = time.perf_counter()
        self.heuristic.attach(self)

        values = self.values
        for ci in self._unit_clauses:
            lit = self.clauses[ci][0]
            value = values[lit - 1] if lit > 0 else -values[-lit - 1]
            if value < 0:
                return self._finish(Verdict.UNSAT, started)
            if value == 0:
                self._enqueue(lit, ci)
        if self.propagate() is not None:
            return self._finish(Verdict.UNSAT, started)
        if self.original_clauses_satisfied():
            return self._finish(Verdict.SAT, started)

        while True:
            limit = self._limit_reached(started)
            if limit is not None:
                return self._finish(Verdict.UNKNOWN, started, limit)

            lit = self.heuristic.decide(self)
            assert lit and self.values[abs(lit) - 1] == 0, "heuristic picked an assigned variable"
            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

            verdict: Optional[Verdict] = None
            conflict = self.propagate()
            while conflict is not None:
                self.stats.conflicts += 1
                if self.current_level == 0:
                    verdict = Verdict.UNSAT
                    break
                learned, backjump_level = self.analyze_conflict(conflict)
                self.heuristic.on_conflict(self, learned)
                ci = self.add_learned_clause(learned)
                self.backjump(backjump_level)
                self._enqueue(learned[0], ci)
                conflict = self.propagate()

            if verdict is None and self.original_clauses_satisfied():
                verdict = Verdict.SAT
            self.heuristic.on_step(self)
            if verdict is not None:
                return self._finish(verdict, started)
