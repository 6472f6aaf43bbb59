import random

import pytest

from satkit.bench import (
    BenchError,
    BenchRecord,
    Instance,
    MismatchedCoverageError,
    load_dataset,
    records_from_csv,
    records_to_csv,
    run_comparison,
    split_dataset,
    summarize,
    CSV_COLUMNS,
)
from satkit.dimacs import write_dimacs_file
from satkit.generators import generate_dataset, planted_ksat
from satkit.rl.policy import Policy, PpoConfig
from satkit.solver.engine import SolveLimits, Verdict

SMALL = PpoConfig(hidden_sizes=(16, 16))


def record(instance, heuristic, time_s, verdict=Verdict.SAT, decisions=5, conflicts=1):
    return BenchRecord(
        instance=instance,
        heuristic=heuristic,
        verdict=verdict,
        time_s=time_s,
        decisions=decisions,
        conflicts=conflicts,
        propagations=17,
        seed=0,
    )


class TestSplit:
    def test_thousand_files_split_800_200(self):
        files = [f"uf20-0{i}.cnf" for i in range(1000)]
        split = split_dataset(files, 0.8, seed=1)
        assert len(split.train) == 800
        assert len(split.test) == 200
        assert set(split.train) | set(split.test) == set(files)
        assert not set(split.train) & set(split.test)

    def test_five_files_floor_rule(self):
        split = split_dataset(["a", "b", "c", "d", "e"], 0.8, seed=0)
        assert len(split.train) == 4
        assert len(split.test) == 1

    def test_same_seed_same_split(self):
        files = [f"x{i}.cnf" for i in range(50)]
        assert split_dataset(files, 0.8, 7) == split_dataset(files, 0.8, 7)
        assert split_dataset(files, 0.8, 7) != split_dataset(files, 0.8, 8)

    def test_order_insensitive(self):
        files = [f"x{i}.cnf" for i in range(20)]
        shuffled = list(files)
        random.Random(3).shuffle(shuffled)
        assert split_dataset(files, 0.8, 5) == split_dataset(shuffled, 0.8, 5)

    def test_ratio_zero_benches_everything(self):
        split = split_dataset(["a", "b"], 0.0, 0)
        assert split.train == ()
        assert len(split.test) == 2


class TestLoadDataset:
    def test_loads_sorted_and_parsed(self, tmp_path):
        generate_dataset(tmp_path, count=5, num_vars=10, num_clauses=30, seed=0)
        instances = load_dataset(tmp_path)
        assert [i.name for i in instances] == sorted(i.name for i in instances)
        assert all(i.formula.num_vars == 10 for i in instances)

    def test_empty_directory_warns_and_returns_empty(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            assert load_dataset(tmp_path) == []
        assert "no .cnf files" in caplog.text

    def test_corrupt_file_skipped_unless_strict(self, tmp_path, caplog):
        generate_dataset(tmp_path, count=2, num_vars=8, num_clauses=20, seed=1)
        bad = tmp_path / "inst_zzz.cnf"
        bad.write_text("p cnf 2 2\n1 0\n", encoding="ascii")
        with caplog.at_level("WARNING"):
            instances = load_dataset(tmp_path)
        assert len(instances) == 2
        assert "inst_zzz.cnf" in caplog.text
        with pytest.raises(BenchError) as exc_info:
            load_dataset(tmp_path, strict=True)
        assert "inst_zzz.cnf" in str(exc_info.value)

    def test_shape_check(self, tmp_path):
        f = planted_ksat(10, 30, random.Random(0))
        write_dimacs_file(f, tmp_path / "a.cnf")
        assert load_dataset(tmp_path, expect_shape=(10, 30))
        with pytest.raises(BenchError):
            load_dataset(tmp_path, expect_shape=(20, 91), strict=True)


class TestRunComparison:
    def test_two_records_per_instance(self, tmp_path):
        rng = random.Random(5)
        instances = [
            Instance(f"i{k}.cnf", planted_ksat(10, 35, rng)) for k in range(4)
        ]
        policy = Policy(10, 35, SMALL, seed=0)
        records = run_comparison(instances, policy, repetitions=2, seed=3)
        assert len(records) == 8
        assert {r.heuristic for r in records} == {"vsids", "rl"}
        assert all(r.verdict == Verdict.SAT for r in records)
        assert all(r.seed == 3 for r in records)
        rl = [r for r in records if r.heuristic == "rl"]
        assert all(r.feature_time_s > 0 for r in rl)

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
        assert summary.median_time["rl"] == 2.0
        assert summary.median_time["vsids"] == 2.0
        assert summary.fraction_rl_faster == pytest.approx(1 / 3)

    def test_identical_times_fraction_zero(self):
        records = [record(i, h, 1.5) for i in "abc" for h in ("rl", "vsids")]
        assert summarize(records).fraction_rl_faster == 0.0

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
        assert summary.median_time["rl"] == 1.5
        assert summary.median_time["vsids"] == 6.0

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

    def test_fraction_in_unit_interval_and_medians_in_range(self):
        rng = random.Random(9)
        records = []
        for i in range(10):
            records.append(record(f"i{i}", "rl", rng.random()))
            records.append(record(f"i{i}", "vsids", rng.random()))
        summary = summarize(records)
        assert 0.0 <= summary.fraction_rl_faster <= 1.0
        for h in ("rl", "vsids"):
            times = [r.time_s for r in records if r.heuristic == h]
            assert min(times) <= summary.median_time[h] <= max(times)


class TestCsv:
    def test_header_pins_first_eight_columns(self):
        assert CSV_COLUMNS[:8] == [
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
        text = records_to_csv(records)
        back = records_from_csv(text)
        assert [(r.instance, r.heuristic, r.time_s) for r in back] == [
            ("a", "rl", 1.25),
            ("a", "vsids", 2.5),
        ]
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
