"""Conflict-driven clause learning with two watched literals.

The solver follows the classic loop: decide, propagate to fixpoint,
and on conflict learn the first-UIP clause, jump back to its assertion
level and continue. The branching step is a pluggable heuristic. A run
is deterministic given (formula, heuristic, seed): every iteration
order is fixed and there is no wall-clock dependence except the
timeout check itself.

Satisfiability is declared as soon as every original clause evaluates
true; a partial assignment is completed from saved phases before the
model is verified and returned. Unsatisfiability is declared exactly
on a conflict at decision level 0. Restarts and learned-clause
deletion exist behind flags and are off by default, which keeps
benchmark runs reproducible decision-for-decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..cnf import Assignment, CnfFormula, FALSE, TRUE, UNDEF, evaluate_clause


class Verdict(str, Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class HeuristicDecision:
    var: int
    value: bool


@dataclass
class SolveLimits:
    max_decisions: Optional[int] = None
    timeout_s: Optional[float] = None


@dataclass
class SolveStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0  # implied assignments appended by BCP
    learned: int = 0
    restarts: int = 0
    wall_time_s: float = 0.0


@dataclass
class SolveResult:
    verdict: Verdict
    model: Optional[list[int]]  # signed literal codes, one per variable
    stats: SolveStats
    limit: Optional[str] = None  # which limit fired, for UNKNOWN


class Heuristic:
    """Branching-heuristic interface.

    ``decide`` must return a decision on an unassigned variable; it is
    only called when one exists. ``on_conflict`` fires once per learned
    clause, ``on_step`` after the propagation that follows each
    decision has reached a fixpoint (or produced a verdict). Heuristic
    objects are single-solve: create a fresh one per run.
    """

    name = "base"

    def attach(self, solver: "Solver") -> None:
        pass

    def decide(self, solver: "Solver") -> HeuristicDecision:
        raise NotImplementedError

    def on_conflict(self, solver: "Solver", learned: list[int]) -> None:
        pass

    def on_step(self, solver: "Solver", verdict: Optional[Verdict]) -> None:
        pass


class Solver:
    def __init__(
        self,
        formula: CnfFormula,
        heuristic: Heuristic,
        limits: Optional[SolveLimits] = None,
        enable_restarts: bool = False,
        restart_interval: int = 100,
        restart_multiplier: float = 1.5,
        enable_clause_deletion: bool = False,
        max_learned_factor: float = 2.0,
    ):
        self.formula = formula
        self.heuristic = heuristic
        self.limits = limits or SolveLimits()
        self.enable_restarts = enable_restarts
        self.restart_threshold = restart_interval
        self.restart_multiplier = restart_multiplier
        self.enable_clause_deletion = enable_clause_deletion
        self.max_learned_factor = max_learned_factor

        n = formula.num_vars
        self.num_vars = n
        self.assignment = Assignment(n)
        self._values = self.assignment.values  # alias: ternary codes, var-1 indexed
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
        self.clauses: list[Optional[list[int]]] = []
        self.watches: dict[int, list[int]] = {}
        for v in range(1, n + 1):
            self.watches[v] = []
            self.watches[-v] = []
        self._unit_clauses: list[int] = []
        for clause in formula.clauses:
            codes = list(dict.fromkeys(clause))
            idx = len(self.clauses)
            self.clauses.append(codes)
            if len(codes) == 1:
                self._unit_clauses.append(idx)
            else:
                self.watches[codes[0]].append(idx)
                self.watches[codes[1]].append(idx)
        self.num_original = len(self.clauses)
        self.num_live_learned = 0  # learned clauses not yet deleted
        self._conflicts_since_restart = 0

    # -- state inspection ------------------------------------------------

    @property
    def current_level(self) -> int:
        return len(self.trail_lim)

    def lit_value(self, lit: int) -> int:
        v = self._values[abs(lit) - 1]
        if v == 0:
            return UNDEF
        return TRUE if (v > 0) == (lit > 0) else FALSE

    def original_clauses_satisfied(self) -> bool:
        assignment = self.assignment
        for clause in self.formula.clauses:
            if evaluate_clause(clause, assignment) != TRUE:
                return False
        return True

    # -- trail manipulation ------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[int]) -> None:
        var = abs(lit)
        self._values[var - 1] = 1 if lit > 0 else -1
        self.level[var] = self.current_level
        self.reason[var] = reason
        self.trail.append(lit)

    def propagate(self) -> Optional[int]:
        """Boolean constraint propagation to fixpoint.

        Returns the index of a conflicting clause, or None. Implied
        literals are appended to the trail with their reason clause.
        """
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            falsified = -lit
            watchlist = self.watches[falsified]
            i = 0
            while i < len(watchlist):
                ci = watchlist[i]
                clause = self.clauses[ci]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self.lit_value(first) == TRUE:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self.lit_value(clause[k]) != FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches[clause[1]].append(ci)
                        watchlist[i] = watchlist[-1]
                        watchlist.pop()
                        moved = True
                        break
                if moved:
                    continue
                value = self.lit_value(first)
                if value == FALSE:
                    self.qhead = len(self.trail)
                    return ci
                if value == UNDEF:
                    self._enqueue(first, ci)
                    self.stats.propagations += 1
                i += 1
        return None

    def analyze_conflict(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis.

        Returns (learned, backjump_level) where ``learned[0]`` is the
        asserting literal (negated UIP) and, when present, ``learned[1]``
        carries the backjump-level literal so the watch invariant holds
        right after the jump.
        """
        assert self.current_level >= 1, "level-0 conflicts short-circuit to UNSAT"
        seen = bytearray(self.num_vars + 1)
        tail: list[int] = []
        counter = 0
        p: Optional[int] = None
        ci = conflict
        index = len(self.trail) - 1
        current = self.current_level

        while True:
            clause = self.clauses[ci]
            start = 0 if p is None else 1  # slot 0 of a reason is its asserted literal
            for q in clause[start:]:
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = 1
                    if self.level[var] >= current:
                        counter += 1
                    else:
                        tail.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            p = self.trail[index]
            var = abs(p)
            seen[var] = 0
            index -= 1
            counter -= 1
            if counter == 0:
                break
            ci = self.reason[var]  # never None here: decisions end the count

        learned = [-p] + tail
        backjump = 0
        if len(learned) > 1:
            pos = 1
            for k in range(1, len(learned)):
                lv = self.level[abs(learned[k])]
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
        self.num_live_learned += 1
        return idx

    def backjump(self, target_level: int) -> None:
        """Unassign everything above ``target_level``."""
        assert target_level < self.current_level
        keep = self.trail_lim[target_level]
        for j in range(len(self.trail) - 1, keep - 1, -1):
            lit = self.trail[j]
            var = abs(lit)
            self.saved_phase[var] = lit > 0
            self._values[var - 1] = 0
            self.reason[var] = None
            self.level[var] = 0
        del self.trail[keep:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # -- learned clause deletion (off by default) ---------------------------

    def _reduce_learned(self) -> None:
        locked = {
            self.reason[abs(lit)]
            for lit in self.trail
            if self.reason[abs(lit)] is not None
        }
        candidates = [
            ci
            for ci in range(self.num_original, len(self.clauses))
            if self.clauses[ci] is not None and ci not in locked
        ]
        candidates.sort(key=lambda ci: (len(self.clauses[ci]), ci))
        for ci in candidates[len(candidates) // 2 :]:
            clause = self.clauses[ci]
            for w in clause[:2]:
                self.watches[w].remove(ci)
            self.clauses[ci] = None
            self.num_live_learned -= 1

    # -- main loop ------------------------------------------------------

    def _complete_model(self) -> list[int]:
        model = []
        for var in range(1, self.num_vars + 1):
            v = self._values[var - 1]
            positive = v > 0 if v != 0 else self.saved_phase[var]
            model.append(var if positive else -var)
        return model

    def _verify_model(self, model: list[int]) -> None:
        phase = {abs(code): code > 0 for code in model}
        for clause in self.formula.clauses:
            if not any(phase[abs(code)] == (code > 0) for code in clause):
                raise AssertionError("internal error: SAT model fails verification")

    def _limit_reached(self, started: float) -> Optional[str]:
        if (
            self.limits.max_decisions is not None
            and self.stats.decisions >= self.limits.max_decisions
        ):
            return "decisions"
        if (
            self.limits.timeout_s is not None
            and time.monotonic() - started >= self.limits.timeout_s
        ):
            return "timeout"
        return None

    def _finish(self, verdict: Verdict, started: float, limit: Optional[str] = None) -> SolveResult:
        self.stats.wall_time_s = time.monotonic() - started
        model = None
        if verdict == Verdict.SAT:
            model = self._complete_model()
            self._verify_model(model)
        return SolveResult(verdict, model, self.stats, limit)

    def run(self) -> SolveResult:
        started = time.monotonic()
        self.heuristic.attach(self)

        for ci in self._unit_clauses:
            lit = self.clauses[ci][0]
            value = self.lit_value(lit)
            if value == FALSE:
                return self._finish(Verdict.UNSAT, started)
            if value == UNDEF:
                self._enqueue(lit, ci)
        if self.propagate() is not None:
            return self._finish(Verdict.UNSAT, started)
        if self.original_clauses_satisfied():
            return self._finish(Verdict.SAT, started)

        while True:
            limit = self._limit_reached(started)
            if limit is not None:
                return self._finish(Verdict.UNKNOWN, started, limit)

            decision = self.heuristic.decide(self)
            assert not self.assignment.is_assigned(decision.var), "heuristic picked an assigned variable"
            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(decision.var if decision.value else -decision.var, None)

            verdict: Optional[Verdict] = None
            conflict = self.propagate()
            while conflict is not None:
                self.stats.conflicts += 1
                self._conflicts_since_restart += 1
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
            self.heuristic.on_step(self, verdict)
            if verdict is not None:
                return self._finish(verdict, started)

            if (
                self.enable_restarts
                and self._conflicts_since_restart >= self.restart_threshold
                and self.current_level > 0
            ):
                self.backjump(0)
                self._conflicts_since_restart = 0
                self.restart_threshold = int(self.restart_threshold * self.restart_multiplier)
                self.stats.restarts += 1
            if (
                self.enable_clause_deletion
                and self.num_live_learned
                > self.max_learned_factor * max(1, self.num_original)
            ):
                self._reduce_learned()

    # -- debug invariants (used by the test suite) -------------------------

    def check_trail_invariants(self) -> None:
        position = {abs(lit): i for i, lit in enumerate(self.trail)}
        last_level = 0
        for i, lit in enumerate(self.trail):
            var = abs(lit)
            assert self.lit_value(lit) == TRUE, "trail literal not assigned true"
            assert self.level[var] >= last_level, "trail levels not monotone"
            last_level = self.level[var]
            reason = self.reason[var]
            if reason is not None:
                clause = self.clauses[reason]
                assert clause[0] == lit or len(clause) == 1, "asserted literal not at slot 0"
                for other in clause:
                    if other == lit:
                        continue
                    assert self.lit_value(other) == FALSE, "reason clause not unit at append"
                    assert position[abs(other)] < i, "reason literal assigned later"


def solve(
    formula: CnfFormula,
    heuristic: Heuristic,
    limits: Optional[SolveLimits] = None,
    **solver_options,
) -> SolveResult:
    return Solver(formula, heuristic, limits, **solver_options).run()
