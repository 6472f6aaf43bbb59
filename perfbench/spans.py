"""In-memory span tracing around satkit's layers, from outside satkit.

``Tracer.installed()`` replaces the public functions and methods
listed in ``TARGETS`` with wrappers that record a span per call: its
name, the enclosing span, the operation it belongs to, start and end.
Leaving the block puts the originals back, so untraced passes run
satkit's own code untouched. A span's self time is its duration minus
the durations of the spans it encloses.

Hot accessors (``Solver.lit_value``, ``Assignment.*``), the free
functions behind the VSIDS methods (``vsids_pick``,
``vsids_on_conflict``) and ``Policy.preprocess`` are not wrapped:
they run per literal or inside a wrapped call, and a span each would
cost more than the work they do.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from satkit.rl.heuristic import PolicyHeuristic
from satkit.rl.network import Adam, Mlp
from satkit.rl.policy import Policy
from satkit.rl.ppo import PpoOptimizer
from satkit.solver.engine import Solver
from satkit.solver.heuristics import VsidsHeuristic


def _count_run(counters, args, result):
    counters["solver.decisions"] += result.stats.decisions
    counters["solver.conflicts"] += result.stats.conflicts
    counters["solver.propagations"] += result.stats.propagations


def _count_batch(counters, args, result):
    counters["ppo.batch_bytes"] += sum(t.observation.nbytes + t.mask.nbytes for t in args[1])


def _count_sentences(counters, args, result):
    counters["logic.sentences"] += len(result)


def _count_clauses(key):
    def count(counters, args, result):
        counters[key] += result.num_clauses

    return count


def _count_bytes(counters, args, result):
    counters["dimacs.bytes"] += len(result)


# (span name, owner, attribute, counter). The owner is a class, or the
# name of the module that defines a function; such a function is
# replaced in every loaded module that holds it under that name, since
# satkit imports functions by name across modules.
TARGETS = [
    ("solver.run", Solver, "run", _count_run),
    ("solver.propagate", Solver, "propagate", None),
    ("solver.analyze_conflict", Solver, "analyze_conflict", None),
    ("solver.add_learned_clause", Solver, "add_learned_clause", None),
    ("solver.backjump", Solver, "backjump", None),
    ("solver.original_clauses_satisfied", Solver, "original_clauses_satisfied", None),
    ("vsids.decide", VsidsHeuristic, "decide", None),
    ("vsids.on_conflict", VsidsHeuristic, "on_conflict", None),
    ("features.extract", "satkit.features", "extract_features", None),
    ("policy.heuristic_init", PolicyHeuristic, "__init__", None),
    ("policy.decide", PolicyHeuristic, "decide", None),
    ("policy.on_step", PolicyHeuristic, "on_step", None),
    ("policy.adjacency", "satkit.rl.observation", "signed_adjacency", None),
    ("policy.observation", "satkit.rl.observation", "build_observation", None),
    ("policy.clause_evaluations", "satkit.rl.observation", "clause_evaluations", None),
    ("policy.mask", "satkit.rl.policy", "legal_action_mask", None),
    ("policy.act", Policy, "act", None),
    ("policy.critic", Policy, "value", None),
    ("network.call", Mlp, "__call__", None),
    ("network.forward", Mlp, "forward", None),
    ("network.backward", Mlp, "backward", None),
    ("network.adam_step", Adam, "step", None),
    ("train.run_episode", "satkit.rl.train", "run_episode", None),
    ("ppo.update", PpoOptimizer, "update", _count_batch),
    ("ppo.loss_and_grads", "satkit.rl.ppo", "ppo_loss_and_grads", None),
    ("ppo.compute_gae", "satkit.rl.ppo", "compute_gae", None),
    ("logic.compile_document", "satkit.logic.pipeline", "compile_document", None),
    ("logic.split_sentences", "satkit.logic.sentences", "split_sentences", _count_sentences),
    ("logic.translate", "satkit.logic.translate", "translate_sentence", None),
    ("logic.parse", "satkit.logic.parser", "parse_expression", None),
    ("logic.to_cnf", "satkit.logic.convert", "to_cnf", _count_clauses("logic.clauses_in")),
    ("logic.simplify", "satkit.logic.convert", "simplify_cnf", _count_clauses("logic.clauses_out")),
    ("dimacs.write", "satkit.dimacs", "write_dimacs", _count_bytes),
    ("dimacs.parse", "satkit.dimacs", "parse_dimacs", None),
]


class Tracer:
    """Span recorder. Aggregates every span by (name, parent name) and
    keeps the first ``raw_limit`` spans whole for the trace file."""

    def __init__(self, raw_limit: int = 20000):
        self.raw_limit = raw_limit
        self.raw: list[tuple] = []
        self.agg: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.operation = None
        self._stack: list[list] = []  # [name, start, child_seconds, span_id]
        self._next_id = 0

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, count):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                entry = tracer.agg[(name, parent[0] if parent else "")]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if len(tracer.raw) < tracer.raw_limit:
                    tracer.raw.append(
                        (span_id, parent[3] if parent else None, name, frame[1], end, tracer.operation)
                    )
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper inside the block."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(("satkit", "workloads"))]
        patches = []
        for name, owner, attr, count in TARGETS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                patches.append((owner, attr, original, self._wrap(name, original, count)))
            else:
                original = getattr(importlib.import_module(owner), attr)
                wrapper = self._wrap(name, original, count)
                patches += [(m, attr, original, wrapper) for m in modules if m.__dict__.get(attr) is original]
        try:
            for owner, attr, _, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------

    def calls(self, name: str, parent: "str | None" = None) -> int:
        return sum(v[0] for (n, p), v in self.agg.items() if n == name and (parent is None or p == parent))

    def total_s(self, name: str, parent: "str | None" = None, exclude_parent: "str | None" = None) -> float:
        return sum(
            v[1]
            for (n, p), v in self.agg.items()
            if n == name and (parent is None or p == parent) and p != exclude_parent
        )

    def self_s(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.agg.items() if n == name)

    def write_raw(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, name, start, end, op in self.raw:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent_id, "name": name,
                         "start": start, "end": end, "op": op}
                    )
                    + "\n"
                )


# (metric, unit, function of (tracer, operations) -> value). Times and
# counts are per operation, averaged over the traced operations.
def per_layer_metrics(tr: Tracer, ops: int, overhead_ms: float) -> dict[str, tuple[float, str]]:
    def per_op_ms(seconds: float) -> float:
        return seconds * 1000.0 / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tr.counters
    updates = tr.calls("ppo.update")
    out = {
        "solver.propagate.calls": (tr.calls("solver.propagate") / ops, "count"),
        "solver.propagate.self_ms": (per_op_ms(tr.self_s("solver.propagate")), "ms"),
        "solver.analyze_conflict.self_ms": (per_op_ms(tr.self_s("solver.analyze_conflict")), "ms"),
        "solver.backjump.self_ms": (per_op_ms(tr.self_s("solver.backjump")), "ms"),
        "solver.original_clauses_satisfied.calls": (tr.calls("solver.original_clauses_satisfied") / ops, "count"),
        "solver.original_clauses_satisfied.self_ms": (per_op_ms(tr.self_s("solver.original_clauses_satisfied")), "ms"),
        "solver.run.self_ms": (per_op_ms(tr.self_s("solver.run")), "ms"),
        "solver.decisions": (c["solver.decisions"] / ops, "count"),
        "solver.conflicts": (c["solver.conflicts"] / ops, "count"),
        "solver.propagations": (c["solver.propagations"] / ops, "count"),
        "vsids.decide.self_ms": (per_op_ms(tr.self_s("vsids.decide")), "ms"),
        "vsids.on_conflict.self_ms": (per_op_ms(tr.self_s("vsids.on_conflict")), "ms"),
        "vsids.us_per_decision": (1e6 * ratio(tr.total_s("vsids.decide"), tr.calls("vsids.decide")), "us"),
        "features.extract.ms": (per_op_ms(tr.total_s("features.extract")), "ms"),
        "policy.adjacency.ms": (per_op_ms(tr.total_s("policy.adjacency")), "ms"),
        "policy.heuristic_init.ms": (per_op_ms(tr.total_s("policy.heuristic_init")), "ms"),
        "policy.observation.self_ms": (per_op_ms(tr.self_s("policy.observation")), "ms"),
        "policy.clause_evaluations.calls": (tr.calls("policy.clause_evaluations") / ops, "count"),
        "policy.clause_evaluations.ms": (per_op_ms(tr.total_s("policy.clause_evaluations")), "ms"),
        "policy.mask.ms": (per_op_ms(tr.total_s("policy.mask")), "ms"),
        "policy.actor.ms": (per_op_ms(tr.total_s("network.call", parent="policy.act")), "ms"),
        "policy.critic.calls": (tr.calls("policy.critic") / ops, "count"),
        "policy.critic.ms": (per_op_ms(tr.total_s("policy.critic")), "ms"),
        "policy.act.self_ms": (per_op_ms(tr.self_s("policy.act")), "ms"),
        "policy.us_per_decision": (1e6 * ratio(tr.total_s("policy.decide"), tr.calls("policy.decide")), "us"),
        "train.collect.ms": (per_op_ms(tr.total_s("train.run_episode")), "ms"),
        "ppo.update.calls": (updates / ops, "count"),
        "ppo.update.ms": (per_op_ms(tr.total_s("ppo.update")), "ms"),
        "ppo.update.self_ms": (per_op_ms(tr.self_s("ppo.update")), "ms"),
        "ppo.loss_and_grads.self_ms": (per_op_ms(tr.self_s("ppo.loss_and_grads")), "ms"),
        "network.forward.ms": (per_op_ms(tr.total_s("network.forward", exclude_parent="network.call")), "ms"),
        "network.backward.ms": (per_op_ms(tr.total_s("network.backward")), "ms"),
        "network.adam_step.calls": (tr.calls("network.adam_step") / ops, "count"),
        "network.adam_step.ms": (per_op_ms(tr.total_s("network.adam_step")), "ms"),
        "ppo.batch_mb": (ratio(c["ppo.batch_bytes"], updates) / 1e6, "MB"),
        "logic.split_sentences.ms": (per_op_ms(tr.total_s("logic.split_sentences")), "ms"),
        "logic.translate.self_ms": (per_op_ms(tr.self_s("logic.translate")), "ms"),
        "logic.parse.ms": (per_op_ms(tr.total_s("logic.parse")), "ms"),
        "logic.parse.calls_per_sentence": (ratio(tr.calls("logic.parse"), c["logic.sentences"]), "calls/sentence"),
        "logic.to_cnf.ms": (per_op_ms(tr.total_s("logic.to_cnf")), "ms"),
        "logic.simplify.ms": (per_op_ms(tr.total_s("logic.simplify")), "ms"),
        "logic.clauses_in": (c["logic.clauses_in"] / ops, "count"),
        "logic.clauses_out": (c["logic.clauses_out"] / ops, "count"),
        "dimacs.write.ms": (per_op_ms(tr.total_s("dimacs.write")), "ms"),
        "dimacs.parse.ms": (per_op_ms(tr.total_s("dimacs.parse")), "ms"),
        "dimacs.bytes": (c["dimacs.bytes"] / ops, "bytes"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }
    return out
