"""The four workloads: inputs, one operation, and the checks on its output.

Each workload is a closed loop: one client in one process starts the
next operation when the previous one returns. ``build`` makes the
inputs from the seed (this is what ``setup_s`` times), ``run_pass``
runs every operation once and times each, ``check`` judges one output
against the references in ``reference.py`` and raises ``CheckFailed``
on a wrong answer.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from satkit.cnf import CnfFormula
from satkit.dimacs import parse_dimacs, write_dimacs
from satkit.logic import compile_document
from satkit.logic.translate import StubTranslator
from satkit.rl import Policy, PolicyHeuristic, PpoConfig, train
from satkit.solver import Solver, Verdict, VsidsHeuristic

import documents
import pool
import reference
from measure import window_times

OUT_DIR = Path(__file__).with_name("out")


class CheckFailed(Exception):
    """An output disagrees with the reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _stats(result) -> tuple[int, int, int]:
    s = result.stats
    return (s.decisions, s.conflicts, s.propagations)


def _check_solve(result, clauses, expect_sat: bool, first, what: str) -> None:
    _require(result.verdict is not Verdict.UNKNOWN, f"{what}: UNKNOWN")
    _require((result.verdict is Verdict.SAT) == expect_sat, f"{what}: verdict {result.verdict.value}")
    if expect_sat:
        _require(reference.satisfies(clauses, result.model), f"{what}: model falsifies a clause")
    if first is not None:
        _require(_stats(result) == _stats(first), f"{what}: counts differ between passes")


def _draw(entries, key: str, k: int, rng: random.Random, make) -> dict:
    """index -> clauses of ``k`` pool instances, one from each of ``k``
    equal strata of the pool ranked by ``key``."""
    ranked = sorted(range(len(entries)), key=lambda i: (entries[i][key], i))
    out = {}
    for j in range(k):
        i = rng.choice(ranked[j * len(ranked) // k : (j + 1) * len(ranked) // k])
        clauses = make(i)
        if pool.clauses_digest(clauses) != entries[i]["digest"]:
            raise RuntimeError(f"pool instance {i} no longer matches its stored digest")
        out[i] = clauses
    return out


class Workload:
    """Per-operation timing; subclasses give the operations."""

    name = ""
    work_unit = ""

    def build(self, seed: int):
        raise NotImplementedError

    def operations(self, inputs) -> list:
        raise NotImplementedError

    def run_op(self, inputs, op):
        raise NotImplementedError

    def run_pass(self, inputs, rng: random.Random, mark=lambda op: None) -> dict:
        """op -> (seconds, output), or (None, exception) for a failed op.
        ``mark(op)`` is called as each operation starts."""
        order = self.operations(inputs)
        rng.shuffle(order)
        clock = time.perf_counter
        out = {}
        for op in order:
            mark(op)
            started = clock()
            try:
                output = self.run_op(inputs, op)
            except Exception as exc:  # counted as a failed operation
                out[op] = (None, exc)
                continue
            out[op] = (clock() - started, output)
        return out

    def check(self, inputs, op, output, first) -> None:
        raise NotImplementedError

    def timed_ops(self, ops) -> list:
        """The operations whose times make the latency figures."""
        return list(ops)

    def work(self, inputs, outputs) -> float:
        raise NotImplementedError

    def details(self, inputs, times, outputs) -> dict:
        return {}


# -- race-uf20 -------------------------------------------------------------------


@dataclass
class RaceInputs:
    clauses: list
    formulas: list
    policy: Policy


class RaceUf20(Workload):
    """Planted uf20-91 solved by the greedy learned policy, and by VSIDS.

    A policy solve costs about half a millisecond per decision, and the
    decisions an instance needs vary from a handful to twenty, so the
    instances come from the stored pool by stratum of greedy decisions,
    as solve-uniform's do by propagations.
    """

    name = "race-uf20"
    work_unit = "learned-policy decisions"
    instances = 100

    def build(self, seed):
        drawn = _draw(pool.load_race_pool(), "decisions", self.instances,
                      random.Random(f"race-{seed}"), pool.race_instance)
        clauses = list(drawn.values())
        formulas = [CnfFormula.from_codes(20, c) for c in clauses]
        return RaceInputs(clauses, formulas, Policy(20, 91, seed=0))

    def operations(self, inputs):
        return [(h, i) for i in range(len(inputs.formulas)) for h in ("rl", "vsids")]

    def run_op(self, inputs, op):
        heuristic_name, i = op
        formula = inputs.formulas[i]
        if heuristic_name == "rl":
            heuristic = PolicyHeuristic(inputs.policy, formula)
        else:
            heuristic = VsidsHeuristic(formula.num_vars)
        return Solver(formula, heuristic).run()

    def check(self, inputs, op, output, first):
        _check_solve(output, inputs.clauses[op[1]], True, first, f"{op[0]} on instance {op[1]}")

    def timed_ops(self, ops):
        return [op for op in ops if op[0] == "rl"]

    def work(self, inputs, outputs):
        return sum(r.stats.decisions for (h, _), r in outputs.items() if h == "rl")

    def details(self, inputs, times, outputs):
        n = len(inputs.formulas)
        vsids = sorted(times[("vsids", i)] for i in range(n))
        wins = sum(times[("rl", i)] < times[("vsids", i)] for i in range(n))
        return {
            "vsids_ms_p50": 1000.0 * float(np.median(vsids)),
            "fraction_rl_faster": wins / n,
            "decisions_rl": self.work(inputs, outputs),
            "decisions_vsids": sum(r.stats.decisions for (h, _), r in outputs.items() if h == "vsids"),
        }


# -- solve-uniform ---------------------------------------------------------------


@dataclass
class UniformInputs:
    clauses: dict
    formulas: dict
    expected: dict


class SolveUniform(Workload):
    """Uniform random 3-SAT, n=75 and m=320, drawn from the stored pool.

    Solve times are heavy-tailed, so a plain random draw would move the
    median from seed to seed. The pool is ranked by the propagations
    VSIDS needs, which set its solve time, and cut into equal strata;
    the seed picks one instance from each, so every run solves the same
    spread of difficulty.
    """

    name = "solve-uniform"
    work_unit = "propagations"
    instances = 50

    def build(self, seed):
        entries = pool.load_pool()
        clauses = _draw(entries, "propagations", self.instances,
                        random.Random(f"uniform-{seed}"), pool.pool_instance)
        formulas = {i: CnfFormula.from_codes(pool.POOL_VARS, c) for i, c in clauses.items()}
        expected = {i: entries[i]["sat"] for i in clauses}
        return UniformInputs(clauses, formulas, expected)

    def operations(self, inputs):
        return sorted(inputs.formulas)

    def run_op(self, inputs, op):
        formula = inputs.formulas[op]
        return Solver(formula, VsidsHeuristic(formula.num_vars)).run()

    def check(self, inputs, op, output, first):
        _check_solve(output, inputs.clauses[op], inputs.expected[op], first, f"pool instance {op}")

    def work(self, inputs, outputs):
        return sum(r.stats.propagations for r in outputs.values())

    def details(self, inputs, times, outputs):
        return {
            "sat_instances": sum(inputs.expected.values()),
            "decisions": sum(r.stats.decisions for r in outputs.values()),
            "conflicts": sum(r.stats.conflicts for r in outputs.values()),
        }


# -- train-uf20 ------------------------------------------------------------------


@dataclass
class TrainInputs:
    dataset: list
    config: PpoConfig
    seed: int
    initial: list  # parameter arrays of the seeded, untrained policy
    final: "list | None" = None  # parameters after the first pass


def _parameters(policy: Policy) -> list:
    return [p.copy() for p in policy.actor.parameters() + policy.critic.parameters()]


class TrainUf20(Workload):
    """PPO training on planted uf20-91; one operation is one rollout window.

    The CLI defaults apply ((256,256), 4 epochs, minibatch 64) except the
    rollout window, which is small so that a run times several windows.
    A window closes once it holds at least 150 transitions; episodes on
    uf20 are short, so it holds 150 to about 170, and every full window
    makes 3 minibatches an epoch (a window of exactly 128 would make 2,
    and cost a third less). The step budget cuts the last window short,
    to a seed-dependent size, so it runs but is not timed. A pass is one
    ``train`` call from the seed, so every pass repeats the same windows
    bit for bit and a window's time is its minimum over the passes like
    any other operation's.
    """

    name = "train-uf20"
    work_unit = "transitions"
    window = 150
    windows = 5
    dataset_size = 64

    def build(self, seed):
        rng = random.Random(f"train-{seed}")
        dataset = [
            CnfFormula.from_codes(20, reference.planted_3sat(20, 91, rng)[0])
            for _ in range(self.dataset_size)
        ]
        config = PpoConfig(rollout_window=self.window)
        return TrainInputs(dataset, config, seed, _parameters(Policy(20, 91, config, seed)))

    def run_pass(self, inputs, rng, mark=lambda op: None):
        policy = Policy(20, 91, inputs.config, inputs.seed)
        calls = []
        clock = time.perf_counter

        def checkpoint(_policy, window_index):
            calls.append((window_index, clock()))
            mark(window_index)

        mark(0)
        started = clock()
        try:
            _, logs = train(
                inputs.dataset, policy, self.window * self.windows,
                checkpoint=checkpoint, checkpoint_every=1,
            )
        except Exception as exc:  # the whole pass failed
            return {i: (None, exc) for i in range(self.windows)}
        times = window_times(started, calls)
        params = _parameters(policy)
        return {i: (t, (log, params if i == len(logs) - 1 else None)) for i, (t, log) in enumerate(zip(times, logs))}

    def check(self, inputs, op, output, first):
        log, params = output
        _require(-91.0 <= log.mean_reward <= 91.0, f"window {op}: mean reward {log.mean_reward}")
        if first is not None:
            _require(log.steps == first[0].steps and log.mean_reward == first[0].mean_reward,
                     f"window {op}: differs between passes")
        if params is None:
            return
        _require(log.steps == self.window * self.windows, f"collected {log.steps} transitions")
        for p, p0 in zip(params, inputs.initial):
            _require(bool(np.isfinite(p).all()), "a parameter is not finite")
            _require(not np.array_equal(p, p0), "a parameter array did not move")
        if inputs.final is None:
            inputs.final = params
        else:
            _require(all(np.array_equal(p, q) for p, q in zip(params, inputs.final)),
                     "two passes from one seed gave different parameters")

    def timed_ops(self, ops):
        return sorted(ops)[:-1]

    def work(self, inputs, outputs):
        return outputs[self.timed_ops(outputs)[-1]][0].steps  # cumulative, windows run in order

    def details(self, inputs, times, outputs):
        return {"windows": len(times), "timed_windows": len(self.timed_ops(times))}


# -- langsat-docs ----------------------------------------------------------------


@dataclass
class DocumentInputs:
    documents: list
    translator: StubTranslator


@dataclass
class DocumentOutput:
    formula: CnfFormula
    names: list  # atom name per variable index - 1
    dimacs: str
    parsed: CnfFormula
    result: object


class LangsatDocs(Workload):
    """English document -> translator fixture -> CNF -> DIMACS -> VSIDS,
    as ``satkit convert --mode english`` then ``satkit solve`` do."""

    name = "langsat-docs"
    work_unit = "words"
    count = 100
    samples = 16  # assignments per document for the CNF-equivalence check

    def build(self, seed):
        docs = documents.make_documents(self.count, seed)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"fixtures-{seed}-{os.getpid()}.tsv"
        path.write_text(documents.fixture_text(docs), encoding="utf-8")
        try:
            translator = StubTranslator.from_fixture_file(path)
        finally:
            path.unlink()
        return DocumentInputs(docs, translator)

    def operations(self, inputs):
        return list(range(len(inputs.documents)))

    def run_op(self, inputs, op):
        formula, table = compile_document(inputs.documents[op].text, inputs.translator)
        text = write_dimacs(formula)
        parsed = parse_dimacs(text)
        result = Solver(parsed, VsidsHeuristic(parsed.num_vars)).run()
        return DocumentOutput(formula, list(table.names()), text, parsed, result)

    def check(self, inputs, op, out, first):
        doc = inputs.documents[op]
        what = f"document {op}"
        _check_solve(out.result, [], doc.satisfiable, None if first is None else first.result, what)
        if first is not None:
            _require(out.dimacs == first.dimacs and out.result.model == first.result.model,
                     f"{what}: CNF or model differs between passes")
            return
        _require(out.parsed == out.formula, f"{what}: DIMACS round trip changed the formula")
        num_vars, clauses = reference.read_dimacs_ints(out.dimacs)
        _require(num_vars == len(out.names), f"{what}: {num_vars} variables for {len(out.names)} atoms")
        if out.result.verdict is Verdict.SAT:
            _require(reference.satisfies(clauses, out.result.model), f"{what}: model falsifies a clause")
            env = {name: out.result.model[i] > 0 for i, name in enumerate(out.names)}
            _require(all(reference.eval_expr(e, env) for e in doc.exprs),
                     f"{what}: model falsifies a source sentence")
        rng = random.Random(op)
        for k in range(self.samples):
            if k % 2 == 0:  # near the hidden assignment, where the CNF can be true
                env = dict(doc.hidden)
                for name in rng.sample(out.names, k // 4):
                    env[name] = not env[name]
            else:
                env = {name: rng.random() < 0.5 for name in out.names}
            model = [i + 1 if env[name] else -(i + 1) for i, name in enumerate(out.names)]
            _require(reference.satisfies(clauses, model) == all(reference.eval_expr(e, env) for e in doc.exprs),
                     f"{what}: CNF and sentences disagree on an assignment")

    def work(self, inputs, outputs):
        return sum(inputs.documents[op].words for op in outputs)

    def details(self, inputs, times, outputs):
        return {
            "cnf_clauses": sum(o.formula.num_clauses for o in outputs.values()),
            "sentences": sum(len(d.sentences) for d in inputs.documents),
            "unsat_documents": sum(not d.satisfiable for d in inputs.documents),
        }


WORKLOADS = {w.name: w for w in (RaceUf20(), SolveUniform(), TrainUf20(), LangsatDocs())}
