"""Command-line entry point.

Subcommands: convert (English with ``--translator``, else expressions,
to DIMACS), solve, features (the names alone with no file), train,
bench. ``solve --heuristic`` names an entrant of
``bench.ENTRANTS``, which ``bench`` races, and every column or ``name=value`` pair printed is
a field of a library record (``BenchRecord``, ``TrainWindowLog``,
``SolveStats``). Exit codes follow SAT-competition convention for solve
(10 satisfiable, 20 unsatisfiable, 0 unknown); elsewhere 0 means
success, 1 is a usage error, 2 an input error. The settings objects
(``SolveLimits``, ``PpoConfig``, the translator) are built before any
input is read, so an out-of-range setting is refused, under its own
rule and name, first.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# numpy loads with satkit.features and satkit.rl, so the commands that
# run them (features, train, and solve or bench with an entrant that
# needs a policy) import them where they run; convert, solve --heuristic
# vsids and --version start without numpy.
from . import __version__
from .bench import (
    BASELINE,
    CSV_SCHEMA_VERSION,
    ENTRANTS,
    BenchRecord,
    entrant_factories,
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
_HTTP_SCHEMES = ("http://", "https://")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the convention here is 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="satkit", description=__doc__)
    parser.add_argument("--version", action="store_true", help="print tool and schema versions")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("convert", help="compile English or expressions to DIMACS")
    p.add_argument("input", help="input file, or '-' for stdin")
    p.add_argument(
        "--translator",
        default=None,
        help="'stub:FILE' or an http(s):// URL; the input is English with one, expressions without",
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
    p.add_argument("--policy", default=None, help="policy checkpoint, for a heuristic that needs one")
    p.add_argument("--max-decisions", type=int, default=None)
    p.add_argument("--timeout-ms", type=int, default=None)

    p = sub.add_parser("features", help="print the 48 global features of a CNF file")
    p.add_argument("cnf", nargs="?", help="DIMACS-CNF file; without one, the feature names")

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

    p = sub.add_parser("bench", help=f"race {', '.join(ENTRANTS)} against each other")
    p.add_argument("--dataset", required=True, help="directory of DIMACS files")
    p.add_argument("--policy", default=None, help="policy checkpoint, if an entrant needs one")
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
    if spec.startswith("stub:"):
        return StubTranslator.from_fixture_file(spec[len("stub:") :])
    if spec.startswith(_HTTP_SCHEMES):
        return HttpTranslator(spec, timeout_s=timeout_s)
    raise SatkitError(
        f"unknown translator spec {spec!r}: expected 'stub:FILE' or an http:// or https:// URL"
    )


def _cmd_convert(args) -> int:
    if args.timeout_s is not None and not (args.translator or "").startswith(_HTTP_SCHEMES):
        raise _UsageError("--timeout-s applies to an http(s) translator only")
    client = None
    if args.translator is not None:
        timeout_s = DEFAULT_TRANSLATOR_TIMEOUT_S if args.timeout_s is None else args.timeout_s
        client = _make_translator(args.translator, timeout_s)
    text = _read_input(args.input)
    if client is not None:
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


def _load_policy_for(names, args, label: str):
    """The policy that the entrants ``names`` need, loaded from
    ``--policy``, or None when, as ``ENTRANTS`` says, none needs one.
    ``--policy`` is a usage error unless given exactly then; ``label``
    leads the error that names the entrants needing it."""
    takers = [name for name, (needs_policy, _) in ENTRANTS.items() if needs_policy]
    needing = [name for name in names if name in takers]
    if needing and not args.policy:
        raise _UsageError(f"{label} {', '.join(needing)} requires --policy FILE")
    if not needing:
        if args.policy is not None:
            only = f"applies only to {', '.join(takers)}" if takers else "applies to no entrant"
            raise _UsageError(f"--policy {only}")
        return None
    from .rl.policy import load_policy_file

    return load_policy_file(args.policy)


def _cmd_solve(args) -> int:
    limits = _make_limits(args)
    policy = _load_policy_for([args.heuristic], args, "--heuristic")
    formula = read_dimacs_file(args.cnf)
    heuristic = entrant_factories([args.heuristic], policy)[args.heuristic](formula)
    result = Solver(formula, heuristic, limits).run()
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

    if not args.cnf:
        for name in FEATURE_SCHEMA:
            print(name)
        return EXIT_OK
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
    config = PpoConfig(
        learning_rate=args.lr,
        hidden_sizes=tuple(args.hidden),
        rollout_window=args.window,
        epochs=args.epochs,
        minibatch_size=args.minibatch,
        episode_max_decisions=args.episode_cap,
    )
    from .rl.policy import Policy, save_policy_file
    from .rl.train import TrainWindowLog, train

    dataset = [inst.formula for inst in _load_instances(args)]
    shape = (dataset[0].num_vars, dataset[0].num_clauses)
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
    limits = _make_limits(args)
    policy = _load_policy_for(ENTRANTS, args, "racing")
    shape, seed = (None, None) if policy is None else (policy.shape, policy.seed)
    instances = _load_instances(args, shape)
    factories = entrant_factories(ENTRANTS, policy)
    records = run_comparison(instances, factories, limits, args.reps, seed)
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
