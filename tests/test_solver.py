import random

import pytest

from satkit import bench
from satkit.cnf import CnfFormula, FALSE, TRUE, UNDEF
from satkit.generators import planted_ksat, random_ksat
from satkit.solver.engine import (
    Heuristic,
    SolveLimits,
    Solver,
    Verdict,
)
from satkit.solver.heuristics import VsidsHeuristic

from oracles import (
    RandomHeuristic,
    brute_force_satisfiable,
    check_trail_invariants,
    check_watch_invariants,
)


class ScriptedHeuristic(Heuristic):
    """Plays back a fixed sequence of literals; for hand-built traces."""

    def __init__(self, literals):
        self.queue = list(literals)

    def decide(self, solver):
        return self.queue.pop(0)


# Every entrant of the race meets the soundness oracle, and so does the
# test-only seeded random rule.
HEURISTICS = [*bench.ENTRANTS, "random"]


def make_heuristic(name, formula, seed):
    """A fresh ``name`` heuristic for ``formula``: the seeded random rule,
    or the entrant's, built over an untrained seeded policy if it needs
    one."""
    if name == "random":
        return RandomHeuristic(seed=seed)
    policy = None
    if bench.ENTRANTS[name][0]:
        from satkit.rl.policy import Policy, PpoConfig

        config = PpoConfig(hidden_sizes=(8,))
        policy = Policy(formula.num_vars, formula.num_clauses, config, seed=seed)
    return bench.entrant_factories([name], policy)[name](formula)


def model_satisfies(formula, model):
    phase = {abs(code): code > 0 for code in model}
    return all(
        any(phase[abs(code)] == (code > 0) for code in clause)
        for clause in formula.clauses
    )


class TestModelCheck:
    """``Solver._verify_model``: every original clause must hold a
    literal of the model, repeated and complementary literals included."""

    FORMULA = CnfFormula.from_codes(3, [[1, 1, 2], [3, -3], [-2, -2]])

    def test_accepts_a_model_that_satisfies_every_clause(self):
        Solver(self.FORMULA, VsidsHeuristic(3))._verify_model([1, -2, 3])

    @pytest.mark.parametrize("model", [[-1, -2, 3], [1, 2, -3], [-1, 2, 3]])
    def test_raises_on_a_model_that_falsifies_a_clause(self, model):
        with pytest.raises(AssertionError, match="fails verification"):
            Solver(self.FORMULA, VsidsHeuristic(3))._verify_model(model)

    def test_raises_exactly_when_the_reference_check_fails(self):
        rng = random.Random(12)
        raised = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            clauses = [
                [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 8))
            ]
            f = CnfFormula.from_codes(n, clauses)
            model = [v if rng.random() < 0.5 else -v for v in range(1, n + 1)]
            solver = Solver(f, VsidsHeuristic(n))
            if model_satisfies(f, model):
                solver._verify_model(model)
            else:
                raised += 1
                with pytest.raises(AssertionError):
                    solver._verify_model(model)
        assert 50 < raised < 350


def test_only_clauses_with_a_repeated_literal_are_deduped():
    f = CnfFormula.from_codes(3, [[1, 1, 2], [-2, -2], [3, -3, 3], [1, -3]])
    solver = Solver(f, VsidsHeuristic(3))
    assert solver.clauses == [[1, 2], [-2], [3, -3], [1, -3]]
    assert solver._unit_clauses == [1]
    check_watch_invariants(solver)
    result = solver.run()
    assert result.verdict == Verdict.SAT and model_satisfies(f, result.model)


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
        assert Solver(f, VsidsHeuristic(1)).run().verdict == Verdict.UNSAT

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
        check_trail_invariants(solver)

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
            Solver(f, Watcher(8)).run()


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
        result = Solver(f, VsidsHeuristic(3)).run()
        assert result.verdict == Verdict.SAT
        assert model_satisfies(f, result.model)

    def test_unsat_pair(self):
        f = CnfFormula.from_codes(1, [[1], [-1]])
        assert Solver(f, VsidsHeuristic(1)).run().verdict == Verdict.UNSAT

    def test_uf20_shaped_instances_all_sat(self):
        rng = random.Random(3)
        for _ in range(10):
            f = planted_ksat(20, 91, rng)
            result = Solver(f, VsidsHeuristic(20), SolveLimits(timeout_s=10)).run()
            assert result.verdict == Verdict.SAT
            assert model_satisfies(f, result.model)

    def test_decision_limit_reports_unknown(self):
        rng = random.Random(5)
        f = planted_ksat(20, 91, rng)
        result = Solver(f, VsidsHeuristic(20), SolveLimits(max_decisions=0)).run()
        assert result.verdict == Verdict.UNKNOWN
        assert result.limit == "decisions"

    def test_timeout_reports_unknown(self):
        rng = random.Random(6)
        f = random_ksat(12, 55, rng)
        result = Solver(f, VsidsHeuristic(12), SolveLimits(timeout_s=0.0)).run()
        assert result.verdict == Verdict.UNKNOWN
        assert result.limit == "timeout"

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

            Solver(f, Recorder(9)).run()
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
            def on_step(self, solver):
                check_trail_invariants(solver)
                check_watch_invariants(solver)

        for _ in range(10):
            f = random_ksat(10, 44, rng)
            Solver(f, Checking(10)).run()

    def test_determinism_given_seed(self):
        rng = random.Random(123)
        f = random_ksat(12, 50, rng)

        def run_stats(seed):
            r = Solver(f, RandomHeuristic(seed)).run()
            return (r.verdict, r.stats.decisions, r.stats.conflicts, r.stats.learned, r.model)

        assert run_stats(7) == run_stats(7)

    def test_empty_formula_is_sat(self):
        f = CnfFormula(2, ())
        result = Solver(f, VsidsHeuristic(2)).run()
        assert result.verdict == Verdict.SAT
        assert result.model == [-1, -2]  # default phase False

    def test_stats_are_populated(self):
        rng = random.Random(8)
        f = random_ksat(12, 50, rng)
        result = Solver(f, VsidsHeuristic(12)).run()
        assert result.stats.wall_time_s >= 0
        assert result.stats.decisions >= 1


# Exact counts of the solver, pinned so that an optimisation of the CDCL
# core cannot change which literals it decides, propagates or learns.
# Instance i is random_ksat(n, round(4.26 * n), random.Random(1000 + i))
# with n = GOLDEN_SIZES[i]; "random" runs use RandomHeuristic(seed=i).
# Each entry is (verdict, decisions, conflicts, propagations, learned).
GOLDEN_SIZES = (30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60, 60)
GOLDEN_RUNS = {
    (0, "vsids"): ("UNSAT", 36, 30, 327, 29),
    (0, "random"): ("UNSAT", 43, 36, 429, 35),
    (1, "vsids"): ("SAT", 7, 0, 26, 0),
    (1, "random"): ("SAT", 13, 7, 106, 7),
    (2, "vsids"): ("SAT", 11, 7, 159, 7),
    (2, "random"): ("SAT", 31, 21, 306, 21),
    (3, "vsids"): ("UNSAT", 71, 59, 680, 58),
    (3, "random"): ("UNSAT", 117, 78, 1017, 77),
    (4, "vsids"): ("SAT", 63, 40, 561, 40),
    (4, "random"): ("SAT", 84, 52, 792, 52),
    (5, "vsids"): ("SAT", 12, 4, 82, 4),
    (5, "random"): ("SAT", 17, 7, 171, 7),
    (6, "vsids"): ("SAT", 58, 43, 707, 43),
    (6, "random"): ("SAT", 155, 113, 2003, 113),
    (7, "vsids"): ("UNSAT", 70, 60, 1158, 59),
    (7, "random"): ("UNSAT", 271, 195, 3127, 194),
    (8, "vsids"): ("UNSAT", 97, 82, 1527, 81),
    (8, "random"): ("UNSAT", 161, 116, 1999, 115),
    (9, "vsids"): ("SAT", 51, 26, 496, 26),
    (9, "random"): ("SAT", 46, 19, 351, 19),
    (10, "vsids"): ("UNSAT", 138, 117, 2246, 116),
    (10, "random"): ("UNSAT", 302, 217, 4049, 216),
    (11, "vsids"): ("UNSAT", 118, 89, 1650, 88),
    (11, "random"): ("UNSAT", 316, 218, 4027, 217),
}


class InvariantChecking(Heuristic):
    """Delegates to a heuristic and checks the trail and watch-table
    invariants after every propagation fixpoint, and that each learned
    clause lists every variable once (VSIDS bumps each listed one)."""

    def __init__(self, inner):
        self.inner = inner

    def attach(self, solver):
        self.inner.attach(solver)

    def decide(self, solver):
        return self.inner.decide(solver)

    def on_conflict(self, solver, learned):
        variables = [abs(code) for code in learned]
        assert len(set(variables)) == len(variables), "learned clause repeats a variable"
        self.inner.on_conflict(solver, learned)

    def on_step(self, solver):
        check_trail_invariants(solver)
        check_watch_invariants(solver)
        self.inner.on_step(solver)


class TestGoldenRuns:
    @pytest.mark.parametrize("heuristic", ["vsids", "random"])
    def test_counts_match_the_pinned_table(self, heuristic):
        for i, n in enumerate(GOLDEN_SIZES):
            f = random_ksat(n, round(4.26 * n), random.Random(1000 + i))
            h = VsidsHeuristic(n) if heuristic == "vsids" else RandomHeuristic(seed=i)
            result = Solver(f, h).run()
            s = result.stats
            got = (result.verdict.value, s.decisions, s.conflicts, s.propagations, s.learned)
            assert got == GOLDEN_RUNS[i, heuristic], (i, heuristic)


class TestBruteForceOracle:
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_verdicts_match_brute_force(self, heuristic):
        rng = random.Random(41)
        for i in range(40):
            num_vars = rng.randint(8, 12)
            f = random_ksat(num_vars, round(4.26 * num_vars), rng)
            solver = Solver(f, InvariantChecking(make_heuristic(heuristic, f, i)))
            result = solver.run()
            assert result.verdict == (Verdict.SAT if brute_force_satisfiable(f) else Verdict.UNSAT)
            if result.verdict == Verdict.SAT:
                assert model_satisfies(f, result.model)
                solver._verify_model(result.model)


class TestLearnedClauseDatabase:
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_every_learned_clause_is_kept_to_the_end(self, heuristic):
        rng = random.Random(32)
        total = 0
        for i in range(10):
            f = random_ksat(20, 85, rng)
            recorded = []

            class Recording(InvariantChecking):
                def on_conflict(self, solver, learned):
                    recorded.append(sorted(learned))
                    super().on_conflict(solver, learned)

            solver = Solver(f, Recording(make_heuristic(heuristic, f, i)), SolveLimits(max_decisions=5000))
            result = solver.run()
            assert result.verdict != Verdict.UNKNOWN
            assert len(solver.clauses) == f.num_clauses + result.stats.learned
            assert [sorted(c) for c in solver.clauses[f.num_clauses :]] == recorded
            check_watch_invariants(solver)
            total += result.stats.learned
        assert total, "no run learned a clause"

    @pytest.mark.parametrize("option", ["restart_interval", "max_learned_factor"])
    def test_the_removed_search_options_are_refused(self, option):
        f = random_ksat(5, 21, random.Random(0))
        with pytest.raises(TypeError):
            Solver(f, VsidsHeuristic(5), **{option: 1})
