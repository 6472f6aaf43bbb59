import argparse
import csv
import dataclasses
import json
import math
import random
import re
import shlex
import warnings
from pathlib import Path

import pytest

from satkit import bench, cli
from satkit.cli import main
from satkit.dimacs import parse_dimacs, write_dimacs_file
from satkit.features import FEATURE_SCHEMA
from satkit.generators import generate_dataset, planted_ksat
from satkit.logic.convert import DEFAULT_CLAUSE_CAP
from satkit.rl import policy as policy_module
from satkit.rl import ppo
from satkit.rl.policy import (
    Policy,
    PpoConfig,
    load_policy_file,
    save_policy,
    save_policy_file,
)
from satkit.rl.train import TrainWindowLog
from satkit.solver.engine import SolveStats
from satkit.solver.heuristics import VsidsHeuristic

from oracles import (
    RandomHeuristic,
    format_1_checkpoint,
    format_2_checkpoint,
    reference_extract_features,
)

FIXTURE_PATH = Path(__file__).parent / "data" / "translations.tsv"
SMALL = PpoConfig(hidden_sizes=(16, 16))


@pytest.fixture
def uf_file(tmp_path):
    path = tmp_path / "instance.cnf"
    write_dimacs_file(planted_ksat(20, 91, random.Random(0)), path)
    return path


@pytest.fixture
def small_policy_file(tmp_path):
    path = tmp_path / "policy.bin"
    save_policy_file(Policy(20, 91, SMALL, seed=0), path)
    return path


@pytest.fixture
def extra_entrants(monkeypatch):
    """Adds ``plain``, which needs no policy, and ``learned``, which needs
    one, to ``bench.ENTRANTS``; returns the policies ``learned`` is given."""
    given = []

    def learned(policy):
        given.append(policy)
        return lambda formula: VsidsHeuristic(formula.num_vars)

    monkeypatch.setitem(bench.ENTRANTS, "plain", (False, lambda formula: RandomHeuristic(seed=0)))
    monkeypatch.setitem(bench.ENTRANTS, "learned", (True, learned))
    return given


class TestConvert:
    def test_expr_file_to_dimacs(self, tmp_path, capsys):
        src = tmp_path / "exprs.txt"
        src.write_text("# comment\nAnd(Not(P), Or(Q, R))\n", encoding="utf-8")
        assert main(["convert", str(src)]) == 0
        out = capsys.readouterr().out
        formula = parse_dimacs(out)
        assert formula.num_vars == 3
        assert list(formula.clauses) == [(-1,), (2, 3)]

    def test_a_translator_alone_makes_the_input_english(self, tmp_path, capsys):
        src = tmp_path / "doc.txt"
        src.write_text("The circus has a Ferris wheel or a rollercoaster.", encoding="utf-8")
        assert main(["convert", str(src), "--translator", f"stub:{FIXTURE_PATH}"]) == 0
        assert capsys.readouterr().out == "p cnf 2 1\n1 2 0\n"

    def test_english_mode_with_stub(self, tmp_path, capsys):
        src = tmp_path / "doc.txt"
        src.write_text("The circus has a Ferris wheel or a rollercoaster.", encoding="utf-8")
        out_path = tmp_path / "out.cnf"
        map_path = tmp_path / "out.map"
        code = main(
            [
                "convert",
                str(src),
                "--translator",
                f"stub:{FIXTURE_PATH}",
                "--out",
                str(out_path),
                "--map",
                str(map_path),
            ]
        )
        assert code == 0
        formula = parse_dimacs(out_path.read_text())
        assert formula.num_vars == 2
        assert list(formula.clauses) == [(1, 2)]
        rows = [line.split("\t") for line in map_path.read_text().splitlines()]
        assert rows[0][0] == "P" and rows[0][1] == "1"
        assert rows[0][2] == "The circus has a ferris wheel"

    def test_english_map_has_a_row_per_atom_with_its_phrase(self, tmp_path):
        src = tmp_path / "doc.txt"
        src.write_text(
            "The workshop is open or the library is open. "
            "If the workshop is open then the forge is lit. "
            "The storeroom is not locked. "
            "The forge is lit or the storeroom is not locked.",
            encoding="utf-8",
        )
        map_path = tmp_path / "out.map"
        argv = ["convert", str(src), "--translator", f"stub:{FIXTURE_PATH}"]
        assert main(argv + ["--out", str(tmp_path / "out.cnf"), "--map", str(map_path)]) == 0
        assert map_path.read_text(encoding="utf-8") == (
            "P\t1\tThe workshop is open\n"
            "Q\t2\tThe library is open\n"
            "R\t3\tThe forge is lit\n"
            "S\t4\tThe storeroom is locked\n"
        )

    def test_empty_input_exits_2(self, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("   ", encoding="utf-8")
        code = main(
            ["convert", str(src), "--translator", f"stub:{FIXTURE_PATH}"]
        )
        assert code == 2

    def test_translator_spec_without_slashes_exits_2(self, tmp_path, capsys):
        src = tmp_path / "doc.txt"
        src.write_text("The circus has a Ferris wheel.", encoding="utf-8")
        code = main(["convert", str(src), "--translator", "http:host/x"])
        assert code == 2
        err = capsys.readouterr().err
        assert "http://" in err and "stub:FILE" in err

    @pytest.mark.parametrize(
        "document,fixture",
        [
            (b"The circus has a Ferris wheel.", b"The circus has a Ferris wheel. P\n"),
            (b"The circus has a Ferris wheel.", b"The circus \xff\tP\n"),
            (b"The circus \xff", None),
        ],
        ids=["fixture-line-without-tab", "non-utf8-fixture", "non-utf8-input"],
    )
    def test_unreadable_input_exits_2(self, tmp_path, capsys, document, fixture):
        src = tmp_path / "doc.txt"
        src.write_bytes(document)
        table = tmp_path / "table.tsv"
        table.write_bytes(fixture if fixture is not None else FIXTURE_PATH.read_bytes())
        code = main(["convert", str(src), "--translator", f"stub:{table}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_expression_exits_2_with_line(self, tmp_path, capsys):
        src = tmp_path / "exprs.txt"
        src.write_text("P\nOr(P)\n", encoding="utf-8")
        assert main(["convert", str(src)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_deeply_nested_expression_exits_2(self, tmp_path, capsys):
        src = tmp_path / "exprs.txt"
        src.write_text("P\n" + "Not(" * 1200 + "A" + ")" * 1200 + "\n", encoding="utf-8")
        assert main(["convert", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: expression nested 1200 levels deep")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--max-clauses", "0"]], ids=["max-clauses"])
    def test_out_of_range_convert_flag_exits_2(self, tmp_path, capsys, flags):
        src = tmp_path / "exprs.txt"
        src.write_text("Or(P, Q)\n", encoding="utf-8")
        assert main(["convert", str(src)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_out_of_range_translator_timeout_exits_2(self, tmp_path, capsys, timeout):
        src = tmp_path / "doc.txt"
        src.write_text("The lamp is on.\n", encoding="utf-8")
        args = ["convert", str(src), "--translator", "http://127.0.0.1:1/x"]
        assert main(args + ["--timeout-s", timeout]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: translator timeout") and "Traceback" not in err

    @pytest.mark.parametrize("timeout", ["30", "-1"])
    def test_timeout_without_a_translator_is_a_usage_error(self, tmp_path, capsys, timeout):
        # Refused before any input is read: the input need not exist.
        assert main(["convert", str(tmp_path / "absent.txt"), "--timeout-s", timeout]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --timeout-s applies to an http(s) translator only\n"

    @pytest.mark.parametrize("timeout", ["30", "-1", "nan"])
    def test_timeout_with_a_stub_translator_is_a_usage_error(self, tmp_path, capsys, timeout):
        src = tmp_path / "doc.txt"
        src.write_text("The lamp is on.\n", encoding="utf-8")
        args = ["convert", str(src), "--translator", f"stub:{FIXTURE_PATH}"]
        assert main(args + ["--timeout-s", timeout]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --timeout-s applies to an http(s) translator only\n"

    def test_english_translator_timeout_defaults_to_30_s(self, monkeypatch, tmp_path):
        src = tmp_path / "doc.txt"
        src.write_text("The lamp is on.\n", encoding="utf-8")
        seen = []

        def refuse(spec, timeout_s):
            seen.append(timeout_s)
            raise cli.SatkitError("no translator here")

        monkeypatch.setattr(cli, "_make_translator", refuse)
        argv = ["convert", str(src), "--translator", "http://127.0.0.1:1/x"]
        for extra, expected in (([], 30.0), (["--timeout-s", "2.5"], 2.5)):
            assert main(argv + extra) == 2
            assert seen.pop() == expected

    def test_max_clauses_default_is_the_conversion_cap(self):
        args = cli._build_parser().parse_args(["convert", "-"])
        assert args.max_clauses == DEFAULT_CLAUSE_CAP


class TestSolve:
    def test_out_of_memory_exits_2_with_one_error_line(self, uf_file, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "Solver", exhausted)
        assert main(["solve", str(uf_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    def test_sat_exit_10_with_model(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 3 2\n1 -2 0\n-1 3 0\n", encoding="ascii")
        code = main(["solve", str(path)])
        assert code == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        v_line = next(line for line in out.splitlines() if line.startswith("v "))
        model = [int(tok) for tok in v_line[2:].split() if tok != "0"]
        phase = {abs(c): c > 0 for c in model}
        assert (phase[1] or not phase[2]) and (not phase[1] or phase[3])

    def test_empty_formula_model_line(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 0 0\n", encoding="ascii")
        assert main(["solve", str(path)]) == 10
        assert capsys.readouterr().out.splitlines()[-1] == "v 0"

    def test_unsat_exit_20(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n", encoding="ascii")
        assert main(["solve", str(path)]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_unknown_exit_0(self, uf_file, capsys):
        assert main(["solve", str(uf_file), "--max-decisions", "0"]) == 0
        assert "s UNKNOWN" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [["--timeout-ms", "-1"], ["--max-decisions", "-3"]],
        ids=["timeout-neg", "max-decisions-neg"],
    )
    def test_out_of_range_solve_flag_exits_2(self, uf_file, capsys, flags):
        assert main(["solve", str(uf_file)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert "s UNKNOWN" not in captured.out

    def test_rl_heuristic_with_policy(self, uf_file, small_policy_file, capsys):
        code = main(
            ["solve", str(uf_file), "--heuristic", "rl", "--policy", str(small_policy_file)]
        )
        assert code == 10

    def test_rl_without_policy_is_usage_error(self, uf_file, capsys):
        assert main(["solve", str(uf_file), "--heuristic", "rl"]) == 1

    def test_rl_without_policy_is_refused_before_the_cnf_is_read(self, capsys):
        assert main(["solve", "/nonexistent/file.cnf", "--heuristic", "rl"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --heuristic rl requires --policy FILE\n"

    def test_wrong_shape_policy_exits_2(self, tmp_path, small_policy_file, capsys):
        path = tmp_path / "small.cnf"
        write_dimacs_file(planted_ksat(10, 40, random.Random(1)), path)
        code = main(["solve", str(path), "--heuristic", "rl", "--policy", str(small_policy_file)])
        assert code == 2

    def test_edited_policy_header_exits_2(self, uf_file, tmp_path, small_policy_file, capsys):
        blob = small_policy_file.read_bytes()
        assert b'"epochs"' in blob
        path = tmp_path / "edited.bin"
        path.write_bytes(blob.replace(b'"epochs"', b'"epochz"'))  # same header length
        code = main(["solve", str(uf_file), "--heuristic", "rl", "--policy", str(path)])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_finite_policy_exits_2(self, uf_file, tmp_path, small_policy_file, capsys):
        blob = bytearray(small_policy_file.read_bytes())
        blob[-8:] = b"\x00" * 6 + b"\xf8\x7f"  # the last bias, a little-endian NaN
        path = tmp_path / "nan.bin"
        path.write_bytes(bytes(blob))
        code = main(["solve", str(uf_file), "--heuristic", "rl", "--policy", str(path)])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err

    def test_format_1_policy_exits_2(self, uf_file, tmp_path, capsys):
        path = tmp_path / "format1.bin"
        path.write_bytes(format_1_checkpoint(Policy(20, 91, SMALL, seed=0)))
        code = main(["solve", str(uf_file), "--heuristic", "rl", "--policy", str(path)])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "checkpoint format 1" in err

    def test_format_2_policy_exits_2(self, uf_file, tmp_path, capsys):
        path = tmp_path / "format2.bin"
        path.write_bytes(format_2_checkpoint(Policy(20, 91, SMALL, seed=0)))
        code = main(["solve", str(uf_file), "--heuristic", "rl", "--policy", str(path)])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "checkpoint format 2" in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["solve", "/nonexistent/file.cnf"]) == 2

    def test_heuristic_choices_are_the_entrants(self):
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        solve = commands.choices["solve"]
        [heuristic] = [a for a in solve._actions if a.dest == "heuristic"]
        assert heuristic.choices == list(bench.ENTRANTS)
        assert heuristic.default == bench.BASELINE

    @pytest.mark.parametrize("name", list(bench.ENTRANTS))
    def test_every_entrant_solves(self, uf_file, small_policy_file, capsys, name):
        argv = ["solve", str(uf_file), "--heuristic", name]
        needs_policy, _ = bench.ENTRANTS[name]
        if needs_policy:
            argv += ["--policy", str(small_policy_file)]
        assert main(argv) == 10

    def test_baseline_refuses_a_policy(self, uf_file, tmp_path, capsys):
        # Refused before any file is read: the checkpoint need not exist.
        argv = ["solve", str(uf_file), "--heuristic", bench.BASELINE]
        assert main(argv + ["--policy", str(tmp_path / "absent.bin")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --policy applies only to rl\n"

    def test_an_entrant_that_needs_no_policy_runs_without_one(
        self, uf_file, small_policy_file, extra_entrants, capsys
    ):
        assert main(["solve", str(uf_file), "--heuristic", "plain"]) == 10
        capsys.readouterr()
        argv = ["solve", str(uf_file), "--heuristic", "plain", "--policy", str(small_policy_file)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --policy applies only to rl, learned\n"
        assert extra_entrants == []

    def test_an_entrant_that_needs_a_policy_gets_the_loaded_one(
        self, uf_file, small_policy_file, extra_entrants, capsys
    ):
        assert main(["solve", "/nonexistent/file.cnf", "--heuristic", "learned"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --heuristic learned requires --policy FILE\n"
        argv = ["solve", str(uf_file), "--heuristic", "learned", "--policy", str(small_policy_file)]
        assert main(argv) == 10
        assert [(p.shape, p.seed) for p in extra_entrants] == [((20, 91), 0)]

    def test_clauses_past_the_header_count_exit_2(self, tmp_path, capsys):
        path = tmp_path / "extra.cnf"
        path.write_text("p cnf 1 1\n1 0\n-1 0\n", encoding="ascii")
        assert main(["solve", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: header declares 1 clauses, more follow")

    @pytest.mark.parametrize("flags", [["--heuristic", "random"], ["--seed", "4"]])
    def test_removed_flag_is_usage_error(self, uf_file, capsys, flags):
        assert main(["solve", str(uf_file)] + flags) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_stats_line_is_the_solve_stats_fields(self, uf_file, capsys):
        assert main(["solve", str(uf_file)]) == 10
        tag, *pairs = capsys.readouterr().out.splitlines()[0].split()
        assert tag == "c"
        assert [pair.split("=")[0] for pair in pairs] == bench.record_columns(SolveStats)
        assert all(float(pair.split("=")[1]) >= 0 for pair in pairs)


class TestFeatures:
    def test_prints_48_name_value_lines(self, uf_file, capsys):
        assert main(["features", str(uf_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 48
        assert lines[:3] == ["num_vars=20", "num_clauses=91", "clause_var_ratio=4.55"]
        expected = reference_extract_features(parse_dimacs(uf_file.read_text(encoding="ascii")))
        assert lines == [f"{name}={value:.10g}" for name, value in zip(FEATURE_SCHEMA, expected)]

    def test_no_file_prints_the_48_names(self, capsys):
        assert main(["features"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == list(FEATURE_SCHEMA) and len(FEATURE_SCHEMA) == 48
        assert err == ""


class TestTrainAndBench:
    def test_train_then_bench_end_to_end(self, tmp_path, capsys, monkeypatch):
        saved = []
        real_save = policy_module.save_policy_file
        monkeypatch.setattr(  # train imports save_policy_file from rl.policy when it runs
            policy_module,
            "save_policy_file",
            lambda p, path: saved.append(path) or real_save(p, path),
        )
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=8, num_vars=8, num_clauses=24, seed=5)
        policy_path = tmp_path / "p.bin"
        code = main(
            [
                "train",
                "--dataset",
                str(data_dir),
                "--steps",
                "120",
                "--seed",
                "3",
                "--out",
                str(policy_path),
                "--hidden",
                "16",
                "--window",
                "60",
            ]
        )
        assert code == 0
        assert saved == [str(policy_path)]  # two windows, one write of the final policy
        log_path = Path(f"{policy_path}.log.csv")
        log_lines = log_path.read_text().splitlines()
        assert log_lines[0] == (
            "window,steps,mean_reward,mean_decisions,"
            "policy_loss,value_loss,entropy,clip_fraction"
        )
        assert log_lines[0] == ",".join(bench.record_columns(TrainWindowLog))
        assert len(log_lines) >= 2
        for line in log_lines[1:]:
            values = [float(v) for v in line.split(",")]
            assert len(values) == 8
            assert all(math.isfinite(v) for v in values)

        csv_path = tmp_path / "records.csv"
        code = main(
            [
                "bench",
                "--dataset",
                str(data_dir),
                "--policy",
                str(policy_path),
                "--reps",
                "2",
                "--out",
                str(csv_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("instance,heuristic,verdict,time_s,decisions,")
        assert len(lines) == 1 + 2 * 8  # every instance, two heuristics
        summary = json.loads(Path(f"{csv_path}.summary.json").read_text())
        assert "median_time_s.rl" in summary
        assert "median_time_s.vsids" in summary
        assert 0.0 <= summary["fraction_rl_faster"] <= 1.0
        # stdout: the JSON's keys, sorted, one "key: value" line each
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"records -> {csv_path}; summary -> {csv_path}.summary.json"
        assert out[-1 - len(summary) : -1] == [f"{k}: {summary[k]}" for k in sorted(summary)]

    def test_zero_steps_writes_the_untrained_policy(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=2, num_vars=8, num_clauses=24, seed=5)
        policy_path = tmp_path / "p.bin"
        args = ["train", "--dataset", str(data_dir), "--steps", "0", "--seed", "3"]
        assert main(args + ["--out", str(policy_path), "--hidden", "16"]) == 0
        expected = Policy(8, 24, PpoConfig(hidden_sizes=(16,)), seed=3)
        assert policy_path.read_bytes() == save_policy(expected)
        header = ",".join(bench.record_columns(TrainWindowLog))
        assert Path(f"{policy_path}.log.csv").read_text(encoding="ascii") == header + "\n"

    def test_train_defaults_are_the_config_defaults(self, tmp_path):
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=2, num_vars=8, num_clauses=24, seed=5)
        policy_path = tmp_path / "p.bin"
        args = ["train", "--dataset", str(data_dir), "--steps", "0", "--out", str(policy_path)]
        assert main(args) == 0
        assert load_policy_file(policy_path).config == PpoConfig()

    def test_every_config_field_is_a_train_flag(self, tmp_path):
        # Each field's flag and a value other than its default.
        flags = {
            "learning_rate": ["--lr", "0.001"],
            "hidden_sizes": ["--hidden", "8", "4"],
            "rollout_window": ["--window", "7"],
            "epochs": ["--epochs", "2"],
            "minibatch_size": ["--minibatch", "3"],
            "episode_max_decisions": ["--episode-cap", "9"],
        }
        assert {f.name for f in dataclasses.fields(PpoConfig)} == set(flags)
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        train_flags = {s: a for a in commands.choices["train"]._actions for s in a.option_strings}
        defaults = PpoConfig()
        for name, (flag, *_) in flags.items():
            default = train_flags[flag].default
            if name == "hidden_sizes":
                default = tuple(default)
            assert default == getattr(defaults, name), flag

        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=2, num_vars=8, num_clauses=24, seed=5)
        policy_path = tmp_path / "p.bin"
        args = ["train", "--dataset", str(data_dir), "--steps", "0", "--out", str(policy_path)]
        assert main(args + [arg for flag in flags.values() for arg in flag]) == 0
        config = load_policy_file(policy_path).config
        assert config == PpoConfig(
            learning_rate=0.001,
            hidden_sizes=(8, 4),
            rollout_window=7,
            epochs=2,
            minibatch_size=3,
            episode_max_decisions=9,
        )
        assert all(getattr(config, name) != getattr(defaults, name) for name in flags)

    @pytest.mark.parametrize("header", ["p cnf 0 0", "p cnf 3 0"])
    def test_train_on_a_shape_with_no_variable_or_no_clause_exits_2(self, tmp_path, capsys, header):
        # The first file sets the policy's shape. A policy with no action
        # or no feature vector could never decide, so none is saved.
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "a.cnf").write_text(header + "\n", encoding="ascii")
        policy_path = tmp_path / "p.bin"
        args = ["train", "--dataset", str(data_dir), "--steps", "0", "--out", str(policy_path)]
        assert main(args) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and ">= 1" in err and "Traceback" not in err
        assert not policy_path.exists()
        assert not Path(f"{policy_path}.log.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--episode-cap", "0"],
            ["--minibatch", "0"],
            ["--epochs", "0"],
            ["--window", "0"],
            ["--hidden", "8", "0"],
            ["--lr", "-1"],
            ["--lr", "nan"],
            ["--lr", "inf"],
            ["--steps", "-5"],
            ["--seed", "-1"],
        ],
        ids=[
            "episode-cap", "minibatch", "epochs", "window", "hidden",
            "lr-neg", "lr-nan", "lr-inf", "steps-neg", "seed-neg",
        ],
    )
    def test_out_of_range_training_flag_exits_2(self, tmp_path, capsys, flags):
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=2, num_vars=8, num_clauses=24, seed=5)
        args = ["train", "--dataset", str(data_dir), "--steps", "20", "--hidden", "8"]
        assert main(args + ["--out", str(tmp_path / "p.bin")] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_reward_mode_flag_is_usage_error(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=2, num_vars=8, num_clauses=24, seed=5)
        args = ["train", "--dataset", str(data_dir), "--steps", "0", "--out", str(tmp_path / "p.bin")]
        assert main(args + ["--reward-mode", "absolute"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "p.bin").exists()

    @pytest.mark.parametrize("steps", ["0", "20"])
    def test_mixed_shape_dataset_exits_2(self, tmp_path, capsys, steps):
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=2, num_vars=8, num_clauses=24, seed=5)
        write_dimacs_file(planted_ksat(9, 24, random.Random(0)), data_dir / "z.cnf")
        policy_path = tmp_path / "p.bin"
        args = ["train", "--dataset", str(data_dir), "--steps", steps, "--hidden", "8"]
        assert main(args + ["--out", str(policy_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "instance 2" in err and "(9, 24)" in err
        assert not policy_path.exists()

    def test_overflowing_update_exits_2_without_a_checkpoint(self, tmp_path, capsys, monkeypatch):
        # One update of one Adam step: only the check after the last step
        # sees the weights it leaves non-finite. At t = 1 a step is at most
        # lr, so the optimizer starts late in a run, where the step's scale
        # is about 3 lr and overflows at this lr.
        class LateAdam(ppo.Adam):
            def __init__(self, params, lr):
                super().__init__(params, lr)
                self.t = 1999

        monkeypatch.setattr(ppo, "Adam", LateAdam)
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=4, num_vars=8, num_clauses=24, seed=5)
        policy_path = tmp_path / "p.bin"
        args = ["train", "--dataset", str(data_dir), "--steps", "20", "--window", "20",
                "--hidden", "8", "--epochs", "1", "--minibatch", "32", "--lr", "1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args + ["--out", str(policy_path)]) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err == "error: non-finite parameters after update\n"
        assert not policy_path.exists()

    def test_dataset_without_decisions_exits_2(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "unit.cnf").write_text("p cnf 1 1\n1 0\n", encoding="ascii")
        args = ["train", "--dataset", str(data_dir), "--steps", "20", "--hidden", "8"]
        assert main(args + ["--out", str(tmp_path / "p.bin")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "no decisions" in err

    def test_bench_without_a_policy_names_the_entrants_that_need_one(
        self, tmp_path, extra_entrants, capsys
    ):
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=2, num_vars=8, num_clauses=24, seed=6)
        out_path = tmp_path / "r.csv"
        assert main(["bench", "--dataset", str(data_dir), "--out", str(out_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: racing rl, learned requires --policy FILE\n"
        assert not out_path.exists() and extra_entrants == []

    def test_a_race_that_needs_no_policy_loads_none(self, tmp_path, monkeypatch, capsys):
        # No policy sets a shape, so instances of any shape race, and the
        # seed column is empty.
        monkeypatch.delitem(bench.ENTRANTS, "rl")
        monkeypatch.setitem(bench.ENTRANTS, "plain", (False, lambda formula: RandomHeuristic(seed=0)))
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=2, num_vars=8, num_clauses=24, seed=6)
        write_dimacs_file(planted_ksat(9, 24, random.Random(0)), data_dir / "other.cnf")
        out_path = tmp_path / "r.csv"
        args = ["bench", "--dataset", str(data_dir), "--reps", "1", "--out", str(out_path)]
        assert main(args) == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(out_path.read_text(encoding="ascii").splitlines()))
        assert sorted({row["heuristic"] for row in rows}) == ["plain", "vsids"]
        assert len(rows) == 2 * 3 and {row["seed"] for row in rows} == {""}
        summary = json.loads(Path(f"{out_path}.summary.json").read_text())
        assert "fraction_faster.plain" in summary and "fraction_rl_faster" not in summary
        policy_path = tmp_path / "p.bin"
        save_policy_file(Policy(8, 24, SMALL, seed=0), policy_path)
        assert main(args + ["--policy", str(policy_path)]) == 1
        assert capsys.readouterr().err == "error: --policy applies to no entrant\n"

    def test_bench_parallel_flag_is_usage_error(self, tmp_path, small_policy_file):
        args = ["bench", "--dataset", str(tmp_path), "--policy", str(small_policy_file)]
        assert main(args + ["--out", str(tmp_path / "r.csv"), "--parallel", "2"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [["--reps", "0"], ["--timeout-ms", "-1"], ["--max-decisions", "-3"]],
        ids=["reps", "timeout-neg", "max-decisions-neg"],
    )
    def test_out_of_range_bench_flag_exits_2(self, tmp_path, capsys, small_policy_file, flags):
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=2, num_vars=20, num_clauses=91, seed=6)
        args = ["bench", "--dataset", str(data_dir), "--policy", str(small_policy_file)]
        assert main(args + ["--out", str(tmp_path / "r.csv")] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bench_shape_mismatch_exits_2(self, tmp_path, small_policy_file):
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=2, num_vars=8, num_clauses=24, seed=6)
        code = main(
            [
                "bench",
                "--dataset",
                str(data_dir),
                "--policy",
                str(small_policy_file),
                "--out",
                str(tmp_path / "r.csv"),
            ]
        )
        assert code == 2

    @staticmethod
    def _mixed_shape_bench(tmp_path):
        """Four (8, 24) instances, one (9, 24) among them, an (8, 24)
        policy of seed 11; returns the bench arguments."""
        data_dir = tmp_path / "data"
        generate_dataset(data_dir, count=4, num_vars=8, num_clauses=24, seed=5)
        write_dimacs_file(planted_ksat(9, 24, random.Random(0)), data_dir / "inst_002b.cnf")
        policy_path = tmp_path / "p.bin"
        save_policy_file(Policy(8, 24, SMALL, seed=11), policy_path)
        return [
            "bench",
            "--dataset",
            str(data_dir),
            "--policy",
            str(policy_path),
            "--reps",
            "1",
            "--out",
            str(tmp_path / "r.csv"),
        ]

    def test_bench_skips_a_file_of_another_shape(self, tmp_path, capsys):
        args = self._mixed_shape_bench(tmp_path)
        assert main(args) == 0
        err = capsys.readouterr().err
        assert err == "warning: skipping inst_002b.cnf: shape (9, 24), expected (8, 24)\n"
        rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 4
        assert not any(row.startswith("inst_002b.cnf") for row in rows)

    def test_strict_bench_rejects_a_file_of_another_shape(self, tmp_path, capsys):
        args = self._mixed_shape_bench(tmp_path)
        assert main(args + ["--strict"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert err.count("inst_002b.cnf") == 1 and "(9, 24)" in err
        assert not (tmp_path / "r.csv").exists()

    def test_bench_rows_carry_the_policy_seed(self, tmp_path, capsys):
        args = self._mixed_shape_bench(tmp_path)
        (tmp_path / "data" / "inst_002b.cnf").unlink()
        assert main(args) == 0
        rows = list(csv.DictReader((tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()))
        assert len(rows) == 2 * 4
        assert {row["seed"] for row in rows} == {"11"}


class TestTopLevel:
    def test_version_prints_schema_versions(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "satkit 0.1.0",
            "policy-checkpoint-format 3",
            "feature-schema 1",
            f"bench-csv-schema {bench.CSV_SCHEMA_VERSION}",
        ]

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["solve", "--frobnicate"]) == 1

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["--verbose", "features"], ["features", "--schema"], ["convert", "-", "--mode", "expr"]],
        ids=["verbose", "schema", "mode"],
    )
    def test_removed_option_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: unrecognized arguments")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{cnf}/x"],
            ["features", "{cnf}/x"],
            ["convert", "{expr}", "--out", "{cnf}/x"],
            ["convert", "{expr}", "--map", "{cnf}/x"],
            ["solve", "{cnf}", "--heuristic", "rl", "--policy", "{cnf}/x"],
        ],
        ids=["solve", "features", "convert-out", "convert-map", "solve-policy"],
    )
    def test_file_as_directory_component_exits_2(self, uf_file, tmp_path, capsys, argv):
        expr = tmp_path / "e.txt"
        expr.write_text("Or(P, Q)\n", encoding="utf-8")
        argv = [a.format(cnf=uf_file, expr=expr) for a in argv]
        assert main(argv) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def readme_commands():
    """Every ``satkit ...`` command in the README's bash blocks, as an
    argument list: continuation lines joined, pipelines split."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            lexer = shlex.shlex(line, posix=True, punctuation_chars="|")
            lexer.whitespace_split = True
            lexer.commenters = "#"
            tokens = list(lexer)
            while tokens:
                stage = tokens[: tokens.index("|")] if "|" in tokens else tokens
                tokens = tokens[len(stage) + 1 :]
                if stage[:1] == ["satkit"]:
                    commands.append(stage[1:])
    return commands


class TestReadme:
    def test_examples_are_found(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} >= {"convert", "solve", "train", "bench"}

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_cli_example_parses(self, argv):
        cli._build_parser().parse_args(argv)
