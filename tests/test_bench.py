import csv
import io
import random

import pytest

from satkit import bench
from satkit.bench import (
    BenchError,
    BenchRecord,
    Instance,
    MismatchedCoverageError,
    load_dataset,
    record_values,
    records_to_csv,
    run_comparison,
    record_columns,
    split_dataset,
    summarize,
)
from satkit.dimacs import write_dimacs_file
from satkit.generators import generate_dataset, planted_ksat, random_ksat
from satkit.rl.policy import Policy, PpoConfig
from satkit.rl.train import TrainWindowLog
from satkit.solver.engine import SolveLimits, Verdict
from satkit.solver.heuristics import VsidsHeuristic

from oracles import RandomHeuristic

SMALL = PpoConfig(hidden_sizes=(16, 16))


def record(
    instance, heuristic, time_s, verdict=Verdict.SAT, decisions=5, conflicts=1, setup_s=0.0
):
    return BenchRecord(
        instance=instance,
        heuristic=heuristic,
        verdict=verdict,
        time_s=time_s,
        decisions=decisions,
        conflicts=conflicts,
        propagations=17,
        seed=0,
        feature_time_s=setup_s,
    )


class TestSplit:
    def test_thousand_files_split_800_200(self):
        files = [f"uf20-0{i}.cnf" for i in range(1000)]
        train, test = split_dataset(files, seed=1)
        assert len(train) == 800
        assert len(test) == 200
        assert set(train) | set(test) == set(files)
        assert not set(train) & set(test)

    def test_five_files_floor_rule(self):
        train, test = split_dataset(["a", "b", "c", "d", "e"], seed=0)
        assert len(train) == 4
        assert len(test) == 1

    def test_same_seed_same_split(self):
        files = [f"x{i}.cnf" for i in range(50)]
        assert split_dataset(files, 7) == split_dataset(files, 7)
        assert split_dataset(files, 7) != split_dataset(files, 8)

    def test_order_insensitive(self):
        files = [f"x{i}.cnf" for i in range(20)]
        shuffled = list(files)
        random.Random(3).shuffle(shuffled)
        assert split_dataset(files, 5) == split_dataset(shuffled, 5)


class TestLoadDataset:
    def test_loads_sorted_and_parsed(self, tmp_path):
        generate_dataset(tmp_path, count=5, num_vars=10, num_clauses=30, seed=0)
        instances = load_dataset(tmp_path)
        assert [i.name for i in instances] == sorted(i.name for i in instances)
        assert all(i.formula.num_vars == 10 for i in instances)

    def test_empty_directory_warns_and_returns_empty(self, tmp_path, capsys):
        assert load_dataset(tmp_path) == []
        assert capsys.readouterr().err == f"warning: no .cnf files found in {tmp_path}\n"

    def test_corrupt_file_skipped_unless_strict(self, tmp_path, capsys):
        generate_dataset(tmp_path, count=2, num_vars=8, num_clauses=20, seed=1)
        bad = tmp_path / "inst_zzz.cnf"
        bad.write_text("p cnf 2 2\n1 0\n", encoding="ascii")
        instances = load_dataset(tmp_path)
        assert len(instances) == 2
        assert capsys.readouterr().err.startswith("warning: skipping inst_zzz.cnf: ")
        with pytest.raises(BenchError) as exc_info:
            load_dataset(tmp_path, strict=True)
        assert "inst_zzz.cnf" in str(exc_info.value)

    def test_file_with_clauses_past_its_count_skipped_unless_strict(self, tmp_path, capsys):
        generate_dataset(tmp_path, count=2, num_vars=8, num_clauses=20, seed=1)
        (tmp_path / "inst_zzz.cnf").write_text("p cnf 1 1\n1 0\n-1 0\n", encoding="ascii")
        assert len(load_dataset(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("warning: skipping inst_zzz.cnf: header declares 1 clauses, more follow")
        with pytest.raises(BenchError, match="inst_zzz.cnf"):
            load_dataset(tmp_path, strict=True)

    def test_shape_check(self, tmp_path, capsys):
        f = planted_ksat(10, 30, random.Random(0))
        write_dimacs_file(f, tmp_path / "a.cnf")
        assert load_dataset(tmp_path, expect_shape=(10, 30))
        assert load_dataset(tmp_path, expect_shape=(20, 91)) == []
        err = capsys.readouterr().err
        assert err.count("a.cnf") == 1
        assert "(10, 30)" in err
        with pytest.raises(BenchError) as exc_info:
            load_dataset(tmp_path, expect_shape=(20, 91), strict=True)
        assert str(exc_info.value).count("a.cnf") == 1


class TestRunComparison:
    def test_two_records_per_instance(self, tmp_path):
        rng = random.Random(5)
        instances = [
            Instance(f"i{k}.cnf", planted_ksat(10, 35, rng)) for k in range(4)
        ]
        policy = Policy(10, 35, SMALL, seed=3)
        records = run_comparison(instances, policy, repetitions=2)
        assert len(records) == 8
        assert {r.heuristic for r in records} == {"vsids", "rl"}
        assert all(r.verdict == Verdict.SAT for r in records)
        assert all(r.seed == 3 for r in records)
        assert all(r.feature_time_s > 0 for r in records)  # VSIDS set-up is timed too

    def test_an_added_entrant_races_with_no_other_change(self, monkeypatch):
        monkeypatch.setitem(
            bench.ENTRANTS, "random", lambda policy, formula: RandomHeuristic(seed=0)
        )
        rng = random.Random(5)
        instances = [Instance(f"i{k}.cnf", planted_ksat(10, 35, rng)) for k in range(3)]
        records = run_comparison(instances, Policy(10, 35, SMALL, seed=3), repetitions=1)
        assert [(r.instance, r.heuristic) for r in records] == [
            (f"i{k}.cnf", h) for k in range(3) for h in ("random", "rl", "vsids")
        ]
        summary = summarize(records)
        for name in ("random", "rl"):
            assert 0.0 <= summary[f"fraction_faster.{name}"] <= 1.0
            assert 0.0 <= summary[f"fraction_faster_with_setup.{name}"] <= 1.0
        assert "fraction_faster.vsids" not in summary
        assert summary["fraction_rl_faster"] == summary["fraction_faster.rl"]

    @pytest.mark.parametrize(
        "repetitions,expected",
        [
            (1, ["a", "b", "c", "b", "c", "a", "c", "a", "b", "a", "b", "c"]),
            (2, ["a", "b", "c", "b", "c", "a", "b", "c", "a", "c", "a", "b"]),
        ],
    )
    def test_entrants_interleave_and_the_first_rotates(self, monkeypatch, repetitions, expected):
        calls = []

        def entrant(name):
            return lambda policy, formula: calls.append(name) or VsidsHeuristic(formula.num_vars)

        monkeypatch.setattr(bench, "ENTRANTS", {name: entrant(name) for name in "abc"})
        rng = random.Random(5)
        count = 4 // repetitions
        instances = [Instance(f"i{k}.cnf", planted_ksat(10, 35, rng)) for k in range(count)]
        records = run_comparison(instances, Policy(10, 35, SMALL, seed=3), repetitions=repetitions)
        assert calls == expected
        assert [(r.instance, r.heuristic) for r in records] == [
            (f"i{k}.cnf", h) for k in range(count) for h in "abc"
        ]

    def test_unit_propagation_instance_needs_no_decisions(self):
        from satkit.cnf import CnfFormula

        f = CnfFormula.from_codes(2, [[1], [-1, 2]])
        policy = Policy(2, 2, SMALL, seed=0)
        records = run_comparison([Instance("u.cnf", f)], policy, repetitions=1)
        assert all(r.decisions == 0 for r in records)

    def test_unknown_recorded_not_raised(self):
        rng = random.Random(6)
        f = planted_ksat(20, 91, rng)
        policy = Policy(20, 91, SMALL, seed=0)
        records = run_comparison(
            [Instance("t.cnf", f)],
            policy,
            limits=SolveLimits(max_decisions=0),
            repetitions=1,
        )
        assert all(r.verdict == Verdict.UNKNOWN for r in records)

    def test_timeout_recorded_without_comparing_repetitions(self, monkeypatch):
        import types

        from satkit.solver import engine

        def install_clock():
            # Each reading advances further than the last, so a later
            # repetition reaches the timeout after fewer decisions.
            readings = iter(range(10**6))
            clock = types.SimpleNamespace(perf_counter=lambda: float(next(readings) ** 2))
            monkeypatch.setattr(engine, "time", clock)

        f = random_ksat(75, 320, random.Random(9))
        policy = Policy(75, 320, SMALL, seed=0)
        limits = SolveLimits(timeout_s=30.0)
        install_clock()
        records = run_comparison([Instance("t.cnf", f)], policy, limits, repetitions=3)
        assert [r.verdict for r in records] == [Verdict.UNKNOWN, Verdict.UNKNOWN]
        install_clock()
        # records sort rl before vsids, and VSIDS runs first, from the fresh clock
        [_, first] = run_comparison([Instance("t.cnf", f)], policy, limits, repetitions=1)
        vsids = records[1]
        assert first.heuristic == vsids.heuristic == "vsids" and first.decisions > 1
        assert (vsids.decisions, vsids.conflicts, vsids.propagations, vsids.time_s) == (
            first.decisions, first.conflicts, first.propagations, first.time_s
        )

    def test_rerun_is_bit_identical_up_to_wall_time(self):
        rng = random.Random(8)
        instances = [
            Instance(f"r{k}.cnf", planted_ksat(10, 35, rng)) for k in range(3)
        ]
        policy = Policy(10, 35, SMALL, seed=0)
        key = lambda rs: [
            (r.instance, r.heuristic, r.verdict, r.decisions, r.conflicts, r.propagations)
            for r in rs
        ]
        first = run_comparison(instances, policy, repetitions=2)
        second = run_comparison(instances, policy, repetitions=2)
        assert key(first) == key(second)


class TestSummarize:
    def test_fraction_faster_counts_strict_wins_only(self):
        records = [
            record("a", "rl", 1.0),
            record("b", "rl", 2.0),
            record("c", "rl", 3.0),
            record("a", "vsids", 2.0),
            record("b", "vsids", 2.0),
            record("c", "vsids", 2.0),
        ]
        summary = summarize(records)
        assert summary["median_time_s.rl"] == 2.0
        assert summary["median_time_s.vsids"] == 2.0
        assert summary["fraction_rl_faster"] == pytest.approx(1 / 3)

    def test_identical_times_fraction_zero(self):
        records = [record(i, h, 1.5) for i in "abc" for h in ("rl", "vsids")]
        assert summarize(records)["fraction_rl_faster"] == 0.0

    def test_permutation_invariant(self):
        records = [
            record(i, h, t)
            for (i, h, t) in [
                ("a", "rl", 1.0),
                ("a", "vsids", 2.0),
                ("b", "rl", 3.0),
                ("b", "vsids", 1.0),
            ]
        ]
        shuffled = list(records)
        random.Random(0).shuffle(shuffled)
        assert summarize(records) == summarize(shuffled)

    def test_interpolated_median_for_even_counts(self):
        records = [
            record("a", "rl", 1.0),
            record("b", "rl", 2.0),
            record("a", "vsids", 4.0),
            record("b", "vsids", 8.0),
        ]
        summary = summarize(records)
        assert summary["median_time_s.rl"] == 1.5
        assert summary["median_time_s.vsids"] == 6.0

    def test_mismatched_coverage_raises(self):
        records = [
            record("a", "rl", 1.0),
            record("a", "vsids", 1.0),
            record("b", "vsids", 1.0),
        ]
        with pytest.raises(MismatchedCoverageError):
            summarize(records)

    def test_single_heuristic_rejected(self):
        with pytest.raises(MismatchedCoverageError):
            summarize([record("a", "vsids", 1.0)])

    def test_missing_baseline_rejected(self):
        records = [record(i, h, 1.0) for i in "ab" for h in ("rl", "random")]
        with pytest.raises(MismatchedCoverageError):
            summarize(records)

    def test_set_up_can_turn_a_win_into_a_loss(self):
        records = [
            record("a", "rl", 1.0, setup_s=2.0),
            record("a", "vsids", 2.0, setup_s=0.5),
        ]
        summary = summarize(records)
        assert summary["fraction_faster.rl"] == 1.0
        assert summary["fraction_faster_with_setup.rl"] == 0.0
        assert summary["fraction_rl_faster"] == 1.0

    def test_summary_keys(self):
        records = [record(i, h, 1.0) for i in "ab" for h in ("rl", "vsids")]
        assert sorted(summarize(records)) == [
            "fraction_faster.rl",
            "fraction_faster_with_setup.rl",
            "fraction_rl_faster",
            "instances",
            "mean_conflicts.rl",
            "mean_conflicts.vsids",
            "mean_decisions.rl",
            "mean_decisions.vsids",
            "median_decisions.rl",
            "median_decisions.vsids",
            "median_time_s.rl",
            "median_time_s.vsids",
        ]

    def test_fraction_in_unit_interval_and_medians_in_range(self):
        rng = random.Random(9)
        records = []
        for i in range(10):
            records.append(record(f"i{i}", "rl", rng.random()))
            records.append(record(f"i{i}", "vsids", rng.random()))
        summary = summarize(records)
        assert 0.0 <= summary["fraction_rl_faster"] <= 1.0
        for h in ("rl", "vsids"):
            times = [r.time_s for r in records if r.heuristic == h]
            assert min(times) <= summary[f"median_time_s.{h}"] <= max(times)


class TestCsv:
    def test_header_pins_first_eight_columns(self):
        assert record_columns(BenchRecord)[:8] == [
            "instance",
            "heuristic",
            "verdict",
            "time_s",
            "decisions",
            "conflicts",
            "propagations",
            "seed",
        ]

    def test_round_trip(self):
        records = [record("a", "rl", 1.25), record("a", "vsids", 2.5)]
        text = records_to_csv(BenchRecord, records)
        back = csv.DictReader(io.StringIO(text))
        assert [(r["instance"], r["heuristic"], float(r["time_s"])) for r in back] == [
            ("a", "rl", 1.25),
            ("a", "vsids", 2.5),
        ]
        assert text.splitlines()[0] == ",".join(record_columns(BenchRecord))

    def test_row_is_the_record_in_field_order(self):
        row = record("i0", "rl", 1.25, Verdict.UNKNOWN, decisions=7, conflicts=3, setup_s=0.5)
        assert records_to_csv(BenchRecord, [row]).splitlines() == [
            "instance,heuristic,verdict,time_s,decisions,conflicts,propagations,seed,feature_time_s",
            "i0,rl,UNKNOWN,1.250000,7,3,17,0,0.500000",
        ]

    def test_a_training_log_row_is_its_fields_in_order(self):
        log = TrainWindowLog(3, 450, 1.5, 12.25, -0.5, 2.0, 3.25, 0.125)
        assert record_values(log) == [3, 450, 1.5, 12.25, -0.5, 2.0, 3.25, 0.125]
        assert records_to_csv(TrainWindowLog, [log]).splitlines() == [
            "window,steps,mean_reward,mean_decisions,policy_loss,value_loss,entropy,clip_fraction",
            "3,450,1.500000,12.250000,-0.500000,2.000000,3.250000,0.125000",
        ]
