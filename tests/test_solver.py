import random

import pytest

from satkit.cnf import CnfFormula, FALSE, TRUE, UNDEF
from satkit.generators import planted_ksat, random_ksat
from satkit.solver.engine import (
    Heuristic,
    SolveLimits,
    Solver,
    Verdict,
    solve,
)
from satkit.solver.heuristics import RandomHeuristic, VsidsHeuristic

from oracles import brute_force_satisfiable


class ScriptedHeuristic(Heuristic):
    """Plays back a fixed sequence of literals; for hand-built traces."""

    name = "scripted"

    def __init__(self, literals):
        self.queue = list(literals)

    def decide(self, solver):
        return self.queue.pop(0)


def model_satisfies(formula, model):
    phase = {abs(code): code > 0 for code in model}
    return all(
        any(phase[abs(code)] == (code > 0) for code in clause)
        for clause in formula.clauses
    )


class TestPropagate:
    def test_forced_chain(self):
        f = CnfFormula.from_codes(2, [[1], [-1, 2]])
        solver = Solver(f, VsidsHeuristic(2))
        result = solver.run()
        assert result.verdict == Verdict.SAT
        assert result.model == [1, 2]
        assert result.stats.decisions == 0

    def test_conflicting_units(self):
        f = CnfFormula.from_codes(1, [[1], [-1]])
        assert solve(f, VsidsHeuristic(1)).verdict == Verdict.UNSAT

    def test_unit_from_partial_assignment(self):
        # x1=F, x2=F forces x3=T from (x1 | x2 | x3)
        f = CnfFormula.from_codes(3, [[1, 2, 3]])
        solver = Solver(f, ScriptedHeuristic([-1, -2]))
        result = solver.run()
        assert result.verdict == Verdict.SAT
        assert result.model is not None and 3 in result.model

    def test_propagation_count(self):
        f = CnfFormula.from_codes(3, [[1], [-1, 2], [-2, 3]])
        solver = Solver(f, VsidsHeuristic(3))
        solver.run()
        assert solver.stats.propagations == 2  # x2 and x3 implied; x1 is a unit assert


class TestConflictAnalysis:
    def test_hand_simulated_first_uip_trace(self):
        # Decisions x1=T@1, x2=T@2. Propagating x3 from the first clause
        # falsifies the second; resolving the two clauses on x3 gives
        # (~x1 | ~x2), asserting at level 1.
        f = CnfFormula.from_codes(3, [[-1, -2, 3], [-1, -2, -3]])
        solver = Solver(f, ScriptedHeuristic([1, 2]))

        solver.trail_lim.append(len(solver.trail))
        solver._enqueue(1, None)
        assert solver.propagate() is None
        solver.trail_lim.append(len(solver.trail))
        solver._enqueue(2, None)
        conflict = solver.propagate()
        assert conflict is not None

        learned, backjump_level = solver.analyze_conflict(conflict)
        assert sorted(learned) == [-2, -1]
        assert backjump_level == 1
        # Learned clause is falsified under the pre-backjump trail.
        assert all(solver.lit_value(lit) == FALSE for lit in learned)
        # After the jump, the asserting literal makes the clause unit.
        ci = solver.add_learned_clause(learned)
        solver.backjump(backjump_level)
        others = [lit for lit in learned[1:]]
        assert solver.lit_value(learned[0]) == UNDEF
        assert all(solver.lit_value(lit) == FALSE for lit in others)
        solver._enqueue(learned[0], ci)
        assert solver.propagate() is None
        solver.check_trail_invariants()

    def test_conflict_clause_already_at_first_uip(self):
        # x1=T@1 forces x3=T; deciding x2=T@2 falsifies (~x3 | ~x2),
        # which already has a single current-level literal, so analysis
        # terminates without any resolution step: learned == conflict.
        f = CnfFormula.from_codes(3, [[-1, 3], [-3, -2]])
        solver = Solver(f, ScriptedHeuristic([]))
        solver.trail_lim.append(len(solver.trail))
        solver._enqueue(1, None)
        assert solver.propagate() is None
        assert solver.lit_value(3) == TRUE
        solver.trail_lim.append(len(solver.trail))
        solver._enqueue(2, None)
        conflict = solver.propagate()
        assert conflict == 1
        learned, backjump_level = solver.analyze_conflict(conflict)
        assert learned == [-2, -3]  # asserting literal first
        assert backjump_level == 1

    def test_learned_clauses_falsified_at_learning_time(self):
        rng = random.Random(11)

        class Watcher(VsidsHeuristic):
            def on_conflict(self, solver, learned):
                assert all(solver.lit_value(lit) == FALSE for lit in learned)
                super().on_conflict(solver, learned)

        for _ in range(40):
            f = random_ksat(8, 34, rng)
            solve(f, Watcher(8))


class TestBackjump:
    def _three_level_solver(self):
        f = CnfFormula.from_codes(6, [[1, 2], [3, 4], [5, 6]])
        solver = Solver(f, ScriptedHeuristic([]))
        for var in (1, 3, 5):
            solver.trail_lim.append(len(solver.trail))
            solver._enqueue(var, None)
            assert solver.propagate() is None
        return solver

    def test_jump_to_level_one_removes_exactly_the_suffix(self):
        solver = self._three_level_solver()
        solver.backjump(1)
        assert solver.current_level == 1
        assert solver.trail == [1]
        assert solver.values == [1, 0, 0, 0, 0, 0]

    def test_jump_to_level_zero(self):
        solver = self._three_level_solver()
        solver.backjump(0)
        assert solver.current_level == 0
        assert solver.trail == []

    def test_phase_saved_on_unassign(self):
        solver = self._three_level_solver()
        solver.backjump(0)
        assert solver.saved_phase[1] and solver.saved_phase[3] and solver.saved_phase[5]


class TestSolve:
    def test_two_clause_formula_sat(self):
        f = CnfFormula.from_codes(3, [[1, -2], [-1, 3]])
        result = solve(f, VsidsHeuristic(3))
        assert result.verdict == Verdict.SAT
        assert model_satisfies(f, result.model)

    def test_unsat_pair(self):
        f = CnfFormula.from_codes(1, [[1], [-1]])
        assert solve(f, VsidsHeuristic(1)).verdict == Verdict.UNSAT

    def test_uf20_shaped_instances_all_sat(self):
        rng = random.Random(3)
        for _ in range(10):
            f = planted_ksat(20, 91, rng)
            result = solve(f, VsidsHeuristic(20), SolveLimits(timeout_s=10))
            assert result.verdict == Verdict.SAT
            assert model_satisfies(f, result.model)

    def test_decision_limit_reports_unknown(self):
        rng = random.Random(5)
        f = planted_ksat(20, 91, rng)
        result = solve(f, VsidsHeuristic(20), SolveLimits(max_decisions=0))
        assert result.verdict == Verdict.UNKNOWN
        assert result.limit == "decisions"

    def test_timeout_reports_unknown(self):
        rng = random.Random(6)
        f = random_ksat(12, 55, rng)
        result = solve(f, VsidsHeuristic(12), SolveLimits(timeout_s=0.0))
        assert result.verdict == Verdict.UNKNOWN
        assert result.limit == "timeout"

    def test_verdicts_match_brute_force_both_heuristics(self):
        rng = random.Random(99)
        for i in range(60):
            num_vars = rng.randint(8, 12)
            num_clauses = int(num_vars * (3.5 + 1.5 * rng.random()))
            f = random_ksat(num_vars, num_clauses, rng)
            expected = brute_force_satisfiable(f)
            for heuristic in (VsidsHeuristic(num_vars), RandomHeuristic(seed=i)):
                result = solve(f, heuristic)
                assert result.verdict == (Verdict.SAT if expected else Verdict.UNSAT)
                if result.verdict == Verdict.SAT:
                    assert model_satisfies(f, result.model)

    def test_learned_clauses_are_consequences(self):
        import numpy as np

        from oracles import assignment_matrix, formula_truth_column

        rng = random.Random(17)
        for i in range(15):
            f = random_ksat(9, 38, rng)
            learned_store = []

            class Recorder(VsidsHeuristic):
                def on_conflict(self, solver, learned):
                    learned_store.append(tuple(learned))
                    super().on_conflict(solver, learned)

            solve(f, Recorder(9))
            table = assignment_matrix(9)
            models = formula_truth_column(f, table)
            if not models.any():
                continue
            rows = table[models]
            for learned in learned_store:
                sat = np.zeros(len(rows), dtype=bool)
                for code in learned:
                    col = rows[:, abs(code) - 1]
                    sat |= col if code > 0 else ~col
                assert bool(sat.all()), "learned clause excludes a model of the formula"

    def test_trail_invariants_hold_during_search(self):
        rng = random.Random(23)

        class Checking(VsidsHeuristic):
            def on_step(self, solver, verdict):
                solver.check_trail_invariants()

        for _ in range(10):
            f = random_ksat(10, 44, rng)
            solve(f, Checking(10))

    def test_determinism_given_seed(self):
        rng = random.Random(123)
        f = random_ksat(12, 50, rng)

        def run_stats(seed):
            r = solve(f, RandomHeuristic(seed))
            return (r.verdict, r.stats.decisions, r.stats.conflicts, r.stats.learned, r.model)

        assert run_stats(7) == run_stats(7)

    def test_restarts_and_deletion_flags_preserve_verdicts(self):
        rng = random.Random(31)
        for _ in range(20):
            f = random_ksat(10, 44, rng)
            plain = solve(f, VsidsHeuristic(10)).verdict
            solver = Solver(
                f,
                VsidsHeuristic(10),
                enable_restarts=True,
                restart_interval=5,
                enable_clause_deletion=True,
                max_learned_factor=0.5,
            )
            fancy = solver.run()
            assert fancy.verdict == plain
            if fancy.verdict == Verdict.SAT:
                assert model_satisfies(f, fancy.model)
            live = solver.clauses[solver.num_original :]
            assert solver.num_live_learned == sum(c is not None for c in live)

    def test_live_learned_counter_tracks_deletions(self):
        rng = random.Random(32)
        deleted = 0
        for _ in range(10):
            f = random_ksat(30, 128, rng)
            plain = solve(f, VsidsHeuristic(30)).verdict
            solver = Solver(
                f,
                VsidsHeuristic(30),
                enable_restarts=True,
                restart_interval=5,
                enable_clause_deletion=True,
                max_learned_factor=0.1,
            )
            assert solver.run().verdict == plain
            live = solver.clauses[solver.num_original :]
            assert solver.num_live_learned == sum(c is not None for c in live)
            deleted += solver.num_live_learned < solver.stats.learned
        assert deleted, "no run reached learned-clause deletion"

    def test_restart_interval_one_still_terminates(self):
        # int(1 * 1.5) == 1, so a threshold grown by the multiplier alone
        # restarted after every conflict and, with clause deletion, this
        # greedy policy cycled until the decision limit.
        from satkit.rl.heuristic import PolicyHeuristic
        from satkit.rl.policy import Policy, PpoConfig

        f = random_ksat(10, 45, random.Random(1))
        policy = Policy(10, 45, PpoConfig(hidden_sizes=(8,)), seed=1)
        solver = Solver(
            f,
            PolicyHeuristic(policy, f),
            SolveLimits(max_decisions=20000),
            enable_restarts=True,
            restart_interval=1,
            enable_clause_deletion=True,
            max_learned_factor=0.02,
        )
        result = solver.run()
        assert result.verdict != Verdict.UNKNOWN
        assert result.verdict == (Verdict.SAT if brute_force_satisfiable(f) else Verdict.UNSAT)
        assert result.stats.restarts >= 1

    def test_empty_formula_is_sat(self):
        f = CnfFormula(2, ())
        result = solve(f, VsidsHeuristic(2))
        assert result.verdict == Verdict.SAT
        assert result.model == [-1, -2]  # default phase False

    def test_stats_are_populated(self):
        rng = random.Random(8)
        f = random_ksat(12, 50, rng)
        result = solve(f, VsidsHeuristic(12))
        assert result.stats.wall_time_s >= 0
        assert result.stats.decisions >= 1
