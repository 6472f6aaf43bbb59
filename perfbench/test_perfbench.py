"""Tests of the benchmark's own logic: references, timing rules, tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest

import documents
import measure
import pool
import reference


def test_evaluator_rejects_a_falsified_model():
    clauses = [[1, 2], [-1, 3], [-2, -3]]
    assert reference.satisfies(clauses, [1, -2, 3])
    assert not reference.satisfies(clauses, [1, 2, 3])  # falsifies [-2, -3]
    assert not reference.satisfies(clauses, [-1, -2, 3])  # falsifies [1, 2]


def test_dpll_agrees_with_truth_table():
    rng = random.Random(0)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(3, 7)
        m = rng.randint(1, 6 * n)
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(1, 3))]
            for _ in range(m)
        ]
        sat, nodes = reference.dpll(clauses)
        assert sat == reference.truth_table_sat(n, clauses)
        assert nodes >= 1
        verdicts.add(sat)
    assert verdicts == {True, False}


def test_percentile_rule_reports_only_the_median_below_100_operations():
    assert set(measure.latency_percentiles([0.001] * 99)) == {"latency_ms_p50"}
    both = measure.latency_percentiles([i / 1000.0 for i in range(1, 101)])
    assert set(both) == {"latency_ms_p50", "latency_ms_p90"}
    assert both["latency_ms_p50"] == pytest.approx(50.5)
    assert both["latency_ms_p90"] == pytest.approx(90.1)


def test_window_timing_ignores_the_repeated_final_checkpoint():
    calls = [(1, 1.0), (2, 3.0), (3, 4.5), (4, 6.0), (4, 6.25)]
    assert measure.window_times(0.0, calls) == [1.0, 2.0, 1.5, 1.5]


def test_window_timing_against_the_training_loop():
    from satkit.cnf import CnfFormula
    from satkit.rl import Policy, PpoConfig, train

    rng = random.Random(1)
    dataset = [CnfFormula.from_codes(20, reference.planted_3sat(20, 91, rng)[0]) for _ in range(8)]
    config = PpoConfig(hidden_sizes=(8,), rollout_window=16, epochs=1, minibatch_size=16)
    calls = []
    _, logs = train(dataset, Policy(20, 91, config, seed=0), 64,
                    checkpoint=lambda p, i: calls.append((i, time.perf_counter())),
                    checkpoint_every=1)
    indices = [i for i, _ in calls]
    assert indices[: len(logs)] == list(range(1, len(logs) + 1))
    assert set(indices[len(logs) :]) <= {len(logs)}  # the loop may repeat its last call
    assert len(measure.window_times(0.0, calls)) == len(logs)


def test_setup_builds_are_spread_over_the_run():
    builds = []
    setup = measure.SetupClock(lambda: builds.append(1) or len(builds), repeats=5, seconds=25.0)
    assert setup.inputs == 1 and setup.times == []
    due = []
    for elapsed in (0.0, 1.0, 4.9, 5.0, 9.0, 12.0, 26.0):
        if setup.due(elapsed):
            setup.time_one()
            due.append(elapsed)
    assert due == [0.0, 5.0, 12.0, 26.0]  # one build per check, at most
    setup.median_s()  # tops up the builds a short run did not reach
    assert len(setup.times) == 5 and len(builds) == 6


def test_min_over_passes_takes_each_operations_minimum():
    passes = [{"a": 3.0, "b": 1.0}, {"a": 2.0, "b": 4.0}]
    assert measure.min_over_passes(passes) == {"a": 2.0, "b": 1.0}
    with pytest.raises(ValueError):
        measure.min_over_passes([{"a": 1.0}, {"b": 1.0}])


def test_expression_evaluator_and_rendering():
    a, b = ("atom", "a"), ("atom", "b")
    expr = ("iff", ("implies", a, b), ("or", ("not", a), b))
    for va, vb in itertools.product((False, True), repeat=2):
        assert reference.eval_expr(expr, {"a": va, "b": vb})
    assert not reference.eval_expr(("and", a, ("not", a)), {"a": True})
    assert reference.render_expr(expr) == "Iff(Implies(a, b), Or(Not(a), b))"


@pytest.mark.parametrize("kind", documents.PAIR_KINDS)
def test_contradictory_pairs_are_unsatisfiable(kind):
    pair = documents.contradictory_pair(kind, "mill_busy", "tower_lit")
    for va, vb in itertools.product((False, True), repeat=2):
        env = {"mill_busy": va, "tower_lit": vb}
        assert not all(reference.eval_expr(e, env) for _, e in pair)


def test_documents_are_true_under_their_hidden_assignment():
    docs = documents.make_documents(16, seed=3)
    assert [d.satisfiable for d in docs] == [i % 4 != 3 for i in range(16)]
    for doc in docs:
        assert doc.words <= documents.MAX_WORDS
        assert len(doc.sentences) == len(doc.exprs)
        if doc.satisfiable:
            assert all(reference.eval_expr(e, doc.hidden) for e in doc.exprs)


def test_pools_match_their_generators():
    entries = pool.load_pool()
    assert len(entries) == pool.POOL_SIZE
    for entry in entries[:5]:
        clauses = pool.pool_instance(entry["index"])
        assert pool.clauses_digest(clauses) == entry["digest"]
        assert reference.dpll(clauses) == (entry["sat"], entry["nodes"])
    race = pool.load_race_pool()
    assert len(race) == pool.RACE_POOL_SIZE
    for entry in race[:5]:
        assert pool.clauses_digest(pool.race_instance(entry["index"])) == entry["digest"]


def test_tracer_self_time_excludes_children():
    from spans import Tracer

    tracer = Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        traced_child()

    traced_child = tracer._wrap("child", child, None)
    tracer._wrap("parent", parent, None)()
    assert tracer.calls("child", parent="parent") == 1
    assert tracer.total_s("parent") >= tracer.total_s("child") >= 0.02
    assert tracer.self_s("parent") == pytest.approx(tracer.total_s("parent") - tracer.total_s("child"))
    assert [span[2] for span in tracer.raw] == ["child", "parent"]


def test_tracer_restores_the_originals():
    import satkit.logic.pipeline
    import satkit.solver.engine
    from spans import Tracer

    run = satkit.solver.engine.Solver.__dict__["run"]
    parse = satkit.logic.pipeline.parse_expression
    with Tracer().installed():
        assert satkit.solver.engine.Solver.__dict__["run"] is not run
        assert satkit.logic.pipeline.parse_expression is not parse
    assert satkit.solver.engine.Solver.__dict__["run"] is run
    assert satkit.logic.pipeline.parse_expression is parse
