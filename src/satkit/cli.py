"""Command-line entry point.

Subcommands: convert (text or expressions to DIMACS), solve, features,
train, bench. Exit codes follow SAT-competition convention for solve
(10 satisfiable, 20 unsatisfiable, 0 unknown); elsewhere 0 means
success, 1 is a usage error, 2 an input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .bench import (
    CSV_SCHEMA_VERSION,
    load_dataset,
    records_to_csv,
    run_comparison,
    split_dataset,
    summarize,
    write_summary_files,
)
from .cnf import CnfFormula
from .dimacs import read_dimacs_file, write_dimacs
from .errors import SatkitError
from .features import FEATURE_SCHEMA, FEATURE_SCHEMA_VERSION, extract_features
from .logic.convert import SymbolTable, simplify_cnf, to_cnf
from .logic.parser import parse_expression
from .logic.pipeline import compile_document, conjoin
from .logic.translate import HttpTranslator, StubTranslator
from .rl.heuristic import PolicyHeuristic
from .rl.policy import (
    POLICY_FORMAT_VERSION,
    Policy,
    PpoConfig,
    load_policy_file,
    save_policy_file,
)
from .rl.train import train
from .solver.engine import SolveLimits, Solver, Verdict
from .solver.heuristics import RandomHeuristic, VsidsHeuristic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the convention here is 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="satkit", description=__doc__)
    parser.add_argument("--version", action="store_true", help="print tool and schema versions")
    parser.add_argument("--verbose", action="store_true", help="print the effective configuration")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("convert", help="compile text or expressions to DIMACS")
    p.add_argument("input", help="input file, or '-' for stdin")
    p.add_argument("--mode", choices=["english", "expr"], default="expr")
    p.add_argument(
        "--translator",
        default=None,
        help="'stub:FILE' or an http(s):// URL (english mode only)",
    )
    p.add_argument("--timeout-s", type=float, default=30.0, help="translator timeout")
    p.add_argument("--out", default="-", help="DIMACS output path, '-' for stdout")
    p.add_argument("--map", dest="map_path", default=None, help="atom/index/phrase table output")
    p.add_argument("--max-clauses", type=int, default=10_000)

    p = sub.add_parser("solve", help="solve a DIMACS file")
    p.add_argument("cnf", help="DIMACS-CNF file")
    p.add_argument("--heuristic", choices=["vsids", "rl", "random"], default="vsids")
    p.add_argument("--policy", default=None, help="policy checkpoint (rl heuristic)")
    p.add_argument("--max-decisions", type=int, default=None)
    p.add_argument("--timeout-ms", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("features", help="print the 48 global features of a CNF file")
    p.add_argument("cnf", nargs="?", help="DIMACS-CNF file")
    p.add_argument("--schema", action="store_true", help="print feature names only")

    p = sub.add_parser("train", help="train the branching policy")
    p.add_argument("--dataset", required=True, help="directory of DIMACS files")
    p.add_argument("--steps", type=int, default=100_000, help="decision-transitions to collect")
    p.add_argument("--lr", type=float, default=0.0002)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="policy checkpoint path")
    p.add_argument("--log", default=None, help="training log CSV (default OUT.log.csv)")
    p.add_argument("--hidden", type=int, nargs="+", default=[256, 256])
    p.add_argument("--window", type=int, default=2048, help="rollout window size")
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--minibatch", type=int, default=64)
    p.add_argument("--episode-cap", type=int, default=500)
    p.add_argument("--reward-mode", choices=["absolute", "delta"], default="absolute")
    p.add_argument("--strict", action="store_true", help="abort on unparseable dataset files")

    p = sub.add_parser("bench", help="compare VSIDS against the learned policy")
    p.add_argument("--dataset", required=True, help="directory of DIMACS files")
    p.add_argument("--policy", required=True, help="policy checkpoint")
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument(
        "--split-ratio",
        type=float,
        default=0.8,
        help="train fraction withheld from the bench (0 benches everything)",
    )
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--timeout-ms", type=int, default=None)
    p.add_argument("--max-decisions", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="records CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path (default OUT.summary.json)")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--uf-check", action="store_true", help="require 20 vars / 91 clauses per instance")
    return parser


def _print_versions() -> None:
    print(f"satkit {__version__}")
    print(f"policy-checkpoint-format {POLICY_FORMAT_VERSION}")
    print(f"feature-schema {FEATURE_SCHEMA_VERSION}")
    print(f"bench-csv-schema {CSV_SCHEMA_VERSION}")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _make_translator(spec: str, timeout_s: float):
    if spec is None:
        raise SatkitError("english mode needs --translator stub:FILE or an http(s) endpoint")
    if spec.startswith("stub:"):
        return StubTranslator.from_fixture_file(spec[len("stub:") :])
    if spec.startswith("http://") or spec.startswith("https://"):
        return HttpTranslator(spec, timeout_s=timeout_s)
    raise SatkitError(
        f"unknown translator spec {spec!r}: expected 'stub:FILE' or an http:// or https:// URL"
    )


def _cmd_convert(args) -> int:
    text = _read_input(args.input)
    if args.mode == "english":
        client = _make_translator(args.translator, args.timeout_s)
        formula, table = compile_document(text, client, max_clauses=args.max_clauses)
        glossary = dict(client.glossary)
    else:
        exprs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                exprs.append(parse_expression(line))
            except SatkitError as exc:
                raise SatkitError(f"line {lineno}: {exc}") from None
        if not exprs:
            raise SatkitError("no expressions in input")
        table = SymbolTable()
        formula = simplify_cnf(to_cnf(conjoin(exprs), table, args.max_clauses))
        glossary = {}

    dimacs = write_dimacs(formula)
    if args.out == "-":
        sys.stdout.write(dimacs)
    else:
        Path(args.out).write_text(dimacs, encoding="ascii", newline="\n")
    if args.map_path:
        rows = [
            f"{name}\t{index}\t{glossary.get(name, '')}"
            for name, index in table.items()
        ]
        Path(args.map_path).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return EXIT_OK


def _make_limits(args) -> SolveLimits:
    timeout_s = args.timeout_ms / 1000.0 if args.timeout_ms is not None else None
    return SolveLimits(max_decisions=args.max_decisions, timeout_s=timeout_s)


def _cmd_solve(args) -> int:
    formula = read_dimacs_file(args.cnf)
    if args.heuristic == "vsids":
        heuristic = VsidsHeuristic(formula.num_vars)
    elif args.heuristic == "random":
        heuristic = RandomHeuristic(seed=args.seed)
    else:
        if not args.policy:
            raise _UsageError("--heuristic rl requires --policy FILE")
        policy = load_policy_file(args.policy)
        heuristic = PolicyHeuristic(policy, formula, mode="greedy")
    result = Solver(formula, heuristic, _make_limits(args)).run()
    s = result.stats
    print(
        f"c decisions={s.decisions} conflicts={s.conflicts} propagations={s.propagations} "
        f"learned={s.learned} restarts={s.restarts} time_s={s.wall_time_s:.6f}"
    )
    if result.verdict == Verdict.SAT:
        print("s SATISFIABLE")
        print("v " + " ".join(str(code) for code in result.model) + " 0")
        return EXIT_SAT
    if result.verdict == Verdict.UNSAT:
        print("s UNSATISFIABLE")
        return EXIT_UNSAT
    print(f"s UNKNOWN ({result.limit})")
    return EXIT_UNKNOWN


def _cmd_features(args) -> int:
    if args.schema:
        for name in FEATURE_SCHEMA:
            print(name)
        return EXIT_OK
    if not args.cnf:
        raise _UsageError("features needs a CNF file (or --schema)")
    formula = read_dimacs_file(args.cnf)
    vector = extract_features(formula)
    for name, value in vector.items():
        print(f"{name}={value:.10g}")
    return EXIT_OK


def _load_training_set(args) -> list[CnfFormula]:
    instances = load_dataset(args.dataset, strict=args.strict)
    if not instances:
        raise SatkitError(f"no usable instances in {args.dataset}")
    shape = (instances[0].formula.num_vars, instances[0].formula.num_clauses)
    for inst in instances:
        if (inst.formula.num_vars, inst.formula.num_clauses) != shape:
            raise SatkitError(
                f"{inst.name}: shape {(inst.formula.num_vars, inst.formula.num_clauses)} "
                f"differs from {shape}; training needs a fixed shape"
            )
    return [inst.formula for inst in instances]


def _cmd_train(args) -> int:
    dataset = _load_training_set(args)
    shape = (dataset[0].num_vars, dataset[0].num_clauses)
    config = PpoConfig(
        learning_rate=args.lr,
        hidden_sizes=tuple(args.hidden),
        rollout_window=args.window,
        epochs=args.epochs,
        minibatch_size=args.minibatch,
        episode_max_decisions=args.episode_cap,
        reward_mode=args.reward_mode,
    )
    policy = Policy(shape[0], shape[1], config, seed=args.seed)

    def checkpoint(p, window):
        save_policy_file(p, args.out)

    trained, logs = train(dataset, policy, args.steps, checkpoint=checkpoint)
    if not logs:  # no window ran, so no checkpoint wrote the untrained policy
        save_policy_file(trained, args.out)
    log_path = args.log or f"{args.out}.log.csv"
    with open(log_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(
            "window,steps,mean_reward,mean_decisions,"
            "policy_loss,value_loss,entropy,clip_fraction\n"
        )
        for row in logs:
            m = row.metrics
            fh.write(
                f"{row.window},{row.steps},{row.mean_reward:.6f},{row.mean_decisions:.6f},"
                f"{m.policy_loss:.6f},{m.value_loss:.6f},{m.entropy:.6f},{m.clip_fraction:.6f}\n"
            )
    print(f"trained {len(logs)} windows; policy -> {args.out}; log -> {log_path}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    expect = (20, 91) if args.uf_check else None
    instances = load_dataset(args.dataset, strict=args.strict, expect_shape=expect)
    if not instances:
        raise SatkitError(f"no usable instances in {args.dataset}")
    split = split_dataset([inst.name for inst in instances], args.split_ratio, args.split_seed)
    test_names = set(split.test)
    test_set = [inst for inst in instances if inst.name in test_names]
    policy = load_policy_file(args.policy)
    records = run_comparison(
        test_set,
        policy,
        limits=_make_limits(args),
        repetitions=args.reps,
        seed=args.seed,
    )
    Path(args.out).write_text(records_to_csv(records), encoding="ascii", newline="\n")
    summary = summarize(records)
    summary_path = args.summary or f"{args.out}.summary.json"
    write_summary_files(summary, summary_path)
    sys.stdout.write(summary.render_text())
    print(f"records -> {args.out}; summary -> {summary_path}")
    return EXIT_OK


_COMMANDS = {
    "convert": _cmd_convert,
    "solve": _cmd_solve,
    "features": _cmd_features,
    "train": _cmd_train,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.version:
        _print_versions()
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.verbose:
        config = {k: v for k, v in sorted(vars(args).items()) if k != "verbose"}
        print(f"c config: {config}", file=sys.stderr)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SatkitError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
