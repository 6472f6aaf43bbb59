"""Command-line entry point.

Subcommands: convert (text or expressions to DIMACS), solve, features,
train, bench. ``solve --heuristic`` names an entrant of
``bench.ENTRANTS``, and every column or ``name=value`` pair printed is
a field of a library record (``BenchRecord``, ``TrainWindowLog``,
``SolveStats``). Exit codes follow SAT-competition convention for solve
(10 satisfiable, 20 unsatisfiable, 0 unknown); elsewhere 0 means
success, 1 is a usage error, 2 an input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# numpy loads with satkit.features and satkit.rl, so the commands that
# run them (features, train, bench and solve with any heuristic but
# vsids) import them where they run; convert, solve --heuristic vsids
# and --version start without numpy.
from . import __version__
from .bench import (
    BASELINE,
    CSV_SCHEMA_VERSION,
    ENTRANTS,
    BenchRecord,
    load_dataset,
    record_cells,
    record_columns,
    records_to_csv,
    run_comparison,
    summarize,
)
from .config import FEATURE_SCHEMA_VERSION, POLICY_FORMAT_VERSION, PpoConfig
from .dimacs import read_dimacs_file, write_dimacs
from .errors import SatkitError
from .logic.convert import DEFAULT_CLAUSE_CAP
from .logic.parser import parse_expression
from .logic.pipeline import compile_document, compile_expressions
from .logic.translate import HttpTranslator, StubTranslator
from .solver.engine import SolveLimits, SolveStats, Solver, Verdict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0
DEFAULT_TRANSLATOR_TIMEOUT_S = 30.0


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
    p.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help=f"translator timeout in seconds (http(s) translator only; default {DEFAULT_TRANSLATOR_TIMEOUT_S})",
    )
    p.add_argument("--out", default="-", help="DIMACS output path, '-' for stdout")
    p.add_argument("--map", dest="map_path", default=None, help="atom/index/phrase table output")
    p.add_argument("--max-clauses", type=int, default=DEFAULT_CLAUSE_CAP)

    p = sub.add_parser("solve", help="solve a DIMACS file")
    p.add_argument("cnf", help="DIMACS-CNF file")
    p.add_argument("--heuristic", choices=list(ENTRANTS), default=BASELINE)
    p.add_argument(
        "--policy", default=None, help=f"policy checkpoint (any heuristic but {BASELINE})"
    )
    p.add_argument("--max-decisions", type=int, default=None)
    p.add_argument("--timeout-ms", type=int, default=None)

    p = sub.add_parser("features", help="print the 48 global features of a CNF file")
    p.add_argument("cnf", nargs="?", help="DIMACS-CNF file")
    p.add_argument("--schema", action="store_true", help="print feature names only")

    defaults = PpoConfig()
    p = sub.add_parser("train", help="train the branching policy")
    p.add_argument("--dataset", required=True, help="directory of DIMACS files")
    p.add_argument("--steps", type=int, default=100_000, help="decision-transitions to collect")
    p.add_argument("--lr", type=float, default=defaults.learning_rate)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="policy checkpoint path")
    p.add_argument("--log", default=None, help="training log CSV (default OUT.log.csv)")
    p.add_argument("--hidden", type=int, nargs="+", default=list(defaults.hidden_sizes))
    p.add_argument("--window", type=int, default=defaults.rollout_window, help="rollout window size")
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--minibatch", type=int, default=defaults.minibatch_size)
    p.add_argument("--episode-cap", type=int, default=defaults.episode_max_decisions)
    p.add_argument("--strict", action="store_true", help="abort on unparseable dataset files")

    p = sub.add_parser("bench", help="compare VSIDS against the learned policy")
    p.add_argument("--dataset", required=True, help="directory of DIMACS files")
    p.add_argument("--policy", required=True, help="policy checkpoint")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--timeout-ms", type=int, default=None)
    p.add_argument("--max-decisions", type=int, default=None)
    p.add_argument("--out", required=True, help="records CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path (default OUT.summary.json)")
    p.add_argument("--strict", action="store_true", help="abort on unparseable or other-shape files")
    return parser


def _print_versions() -> None:
    print(f"satkit {__version__}")
    print(f"policy-checkpoint-format {POLICY_FORMAT_VERSION}")
    print(f"feature-schema {FEATURE_SCHEMA_VERSION}")
    print(f"bench-csv-schema {CSV_SCHEMA_VERSION}")


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SatkitError(f"{path}: not UTF-8 text ({exc.reason})") from None


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
    if args.mode != "english":
        for flag, value in (("--translator", args.translator), ("--timeout-s", args.timeout_s)):
            if value is not None:
                raise _UsageError(f"{flag} applies to --mode english only")
    elif args.timeout_s is not None and (args.translator or "").startswith("stub:"):
        raise _UsageError("--timeout-s applies to an http(s) translator only")
    text = _read_input(args.input)
    if args.mode == "english":
        timeout_s = DEFAULT_TRANSLATOR_TIMEOUT_S if args.timeout_s is None else args.timeout_s
        client = _make_translator(args.translator, timeout_s)
        formula, table = compile_document(text, client, max_clauses=args.max_clauses)
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
        formula, table = compile_expressions(exprs, args.max_clauses)

    dimacs = write_dimacs(formula)
    if args.out == "-":
        sys.stdout.write(dimacs)
    else:
        Path(args.out).write_text(dimacs, encoding="ascii", newline="\n")
    if args.map_path:
        rows = [f"{name}\t{index}\t{table.phrases.get(name, '')}" for name, index in table.items()]
        Path(args.map_path).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return EXIT_OK


def _make_limits(args) -> SolveLimits:
    timeout_s = args.timeout_ms / 1000.0 if args.timeout_ms is not None else None
    return SolveLimits(max_decisions=args.max_decisions, timeout_s=timeout_s)


def _cmd_solve(args) -> int:
    if args.heuristic == BASELINE and args.policy is not None:
        raise _UsageError(f"--policy applies to every heuristic but {BASELINE}")
    formula = read_dimacs_file(args.cnf)
    policy = None
    if args.heuristic != BASELINE:
        if not args.policy:
            raise _UsageError(f"--heuristic {args.heuristic} requires --policy FILE")
        from .rl.policy import load_policy_file

        policy = load_policy_file(args.policy)
    heuristic = ENTRANTS[args.heuristic](policy, formula)
    result = Solver(formula, heuristic, _make_limits(args)).run()
    stats = zip(record_columns(SolveStats), record_cells(result.stats))
    print("c", *(f"{name}={cell}" for name, cell in stats))
    if result.verdict == Verdict.SAT:
        print("s SATISFIABLE")
        print("v", *result.model, 0)
        return EXIT_SAT
    if result.verdict == Verdict.UNSAT:
        print("s UNSATISFIABLE")
        return EXIT_UNSAT
    print(f"s UNKNOWN ({result.limit})")
    return EXIT_UNKNOWN


def _cmd_features(args) -> int:
    from .features import FEATURE_SCHEMA, extract_features

    if args.schema:
        if args.cnf:
            raise _UsageError("--schema prints the feature names and reads no CNF file")
        for name in FEATURE_SCHEMA:
            print(name)
        return EXIT_OK
    if not args.cnf:
        raise _UsageError("features needs a CNF file (or --schema)")
    features = extract_features(read_dimacs_file(args.cnf))
    for name, value in zip(FEATURE_SCHEMA, features):
        print(f"{name}={value:.10g}")
    return EXIT_OK


def _load_instances(args, expect_shape=None):
    instances = load_dataset(args.dataset, strict=args.strict, expect_shape=expect_shape)
    if not instances:
        raise SatkitError(f"no usable instances in {args.dataset}")
    return instances


def _cmd_train(args) -> int:
    from .rl.policy import Policy, save_policy_file
    from .rl.train import TrainWindowLog, train

    dataset = [inst.formula for inst in _load_instances(args)]
    shape = (dataset[0].num_vars, dataset[0].num_clauses)
    config = PpoConfig(
        learning_rate=args.lr,
        hidden_sizes=tuple(args.hidden),
        rollout_window=args.window,
        epochs=args.epochs,
        minibatch_size=args.minibatch,
        episode_max_decisions=args.episode_cap,
    )
    policy = Policy(shape[0], shape[1], config, seed=args.seed)

    def checkpoint(p, window):
        save_policy_file(p, args.out)

    trained, logs = train(dataset, policy, args.steps, checkpoint=checkpoint)
    if not logs:  # no window ran, so no checkpoint wrote the untrained policy
        save_policy_file(trained, args.out)
    log_path = args.log or f"{args.out}.log.csv"
    log = records_to_csv(TrainWindowLog, logs)
    Path(log_path).write_text(log, encoding="ascii", newline="\n")
    print(f"trained {len(logs)} windows; policy -> {args.out}; log -> {log_path}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .rl.policy import load_policy_file

    policy = load_policy_file(args.policy)
    instances = _load_instances(args, policy.shape)
    records = run_comparison(instances, policy, _make_limits(args), args.reps)
    Path(args.out).write_text(records_to_csv(BenchRecord, records), encoding="ascii", newline="\n")
    summary = summarize(records)
    summary_path = args.summary or f"{args.out}.summary.json"
    summary_json = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    Path(summary_path).write_text(summary_json, encoding="ascii")
    for key, value in sorted(summary.items()):
        print(f"{key}: {value}")
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
    except (SatkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
