"""Independent brute-force oracles used to pin expected values.

Everything here enumerates truth tables directly, or is a plain
reference implementation, and shares no code with the conversion or
solving paths it checks. The ``reference_*`` functions are the
character-loop sentence splitter, the token-object parser and the
two-walk (negation normal form, then distribution) CNF conversion with
all-pairs subsumption that the one-pass Lang2Logic stages must match
result for result and error for error. They share only the error
classes and ``SymbolTable`` with the code they check. Likewise
``reference_fold`` is the fold over the whole static block that the
nonzero-row fold replaced, and ``reference_extract_features`` the
feature extraction (``np.mean``/``np.std`` over stacked samples) that
the leaner one must match bit for bit. ``check_watch_invariants`` and
``check_trail_invariants`` assert a solver's internal invariants.
"""

from __future__ import annotations

import math
import random
import re
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np
from hypothesis import strategies as st

from satkit.cnf import FALSE, TRUE, CnfFormula
from satkit.features import FEATURE_COUNT
from satkit.logic.convert import BlowupExceededError, SymbolTable
from satkit.logic.expressions import And, Atom, Iff, Implies, LogicalExpr, Not, Or
from satkit.logic.parser import ArityError, ExpressionSyntaxError
from satkit.logic.sentences import DEFAULT_ABBREVIATIONS, EmptyInputError


def assignment_matrix(num_vars: int) -> np.ndarray:
    """(2**n, n) boolean matrix; column j is variable j+1, row index bit j."""
    if num_vars > 20:
        raise ValueError("oracle enumeration capped at 20 variables")
    rows = np.arange(2**num_vars, dtype=np.uint32)
    return ((rows[:, None] >> np.arange(num_vars)) & 1).astype(bool)


def formula_truth_column(formula: CnfFormula, table: np.ndarray) -> np.ndarray:
    """Boolean satisfaction column of the formula over assignment rows."""
    result = np.ones(table.shape[0], dtype=bool)
    for clause in formula.clauses:
        clause_sat = np.zeros(table.shape[0], dtype=bool)
        for code in clause:
            col = table[:, abs(code) - 1]
            clause_sat |= col if code > 0 else ~col
        result &= clause_sat
    return result


@st.composite
def any_formula(draw):
    """Clauses of 1 to 6 literals, with duplicated and complementary
    literals and unused variables allowed."""
    n = draw(st.integers(min_value=1, max_value=30))
    literal = st.integers(min_value=1, max_value=n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=6), min_size=1, max_size=60))
    return CnfFormula(n, clauses)


def brute_force_satisfiable(formula: CnfFormula) -> bool:
    if formula.num_vars == 0:
        return len(formula.clauses) == 0
    return bool(formula_truth_column(formula, assignment_matrix(formula.num_vars)).any())


def brute_force_models(formula: CnfFormula) -> list[dict[int, bool]]:
    table = assignment_matrix(formula.num_vars)
    sat = formula_truth_column(formula, table)
    return [
        {v + 1: bool(row[v]) for v in range(formula.num_vars)}
        for row in table[sat]
    ]


def expr_truth_column(expr: LogicalExpr, atom_order: list[str], table: np.ndarray) -> np.ndarray:
    """Vectorized truth column of an expression over assignment rows."""
    env = {name: table[:, i] for i, name in enumerate(atom_order)}

    def ev(node: LogicalExpr) -> np.ndarray:
        match node:
            case Atom(name):
                return env[name]
            case Not(child):
                return ~ev(child)
            case And(children):
                out = ev(children[0])
                for c in children[1:]:
                    out = out & ev(c)
                return out
            case Or(children):
                out = ev(children[0])
                for c in children[1:]:
                    out = out | ev(c)
                return out
            case Implies(lhs, rhs):
                return ~ev(lhs) | ev(rhs)
            case Iff(lhs, rhs):
                return ev(lhs) == ev(rhs)
        raise TypeError(node)

    return ev(expr)


def expr_equivalent_to_formula(
    expr: LogicalExpr, formula: CnfFormula, table: SymbolTable
) -> bool:
    """Exhaustive 2**k equivalence check of an expression against a CNF
    formula whose variables are mapped through ``table``."""
    atom_order = [table.name_of(i) for i in range(1, len(table) + 1)]
    assignments = assignment_matrix(len(table))
    lhs = expr_truth_column(expr, atom_order, assignments)
    rhs = formula_truth_column(formula, assignments)
    return bool(np.array_equal(lhs, rhs))


def full_logits(policy, obs: np.ndarray) -> np.ndarray:
    """Actor logits for a whole observation, through the whole first
    layer: the reference the folded inference path must match."""
    return policy.actor(policy.preprocess(obs)[None, :])[0]


def full_value(policy, obs: np.ndarray) -> float:
    """Critic value for a whole observation, unfolded."""
    return float(policy.critic(policy.preprocess(obs)[None, :])[0, 0])


def fold_block(policy, net, static: np.ndarray) -> np.ndarray:
    """``policy.fold`` of a whole static block, through its nonzero
    entries."""
    index = np.flatnonzero(static)
    return policy.fold(net, index, static[index])


def reference_fold(policy, net, static: np.ndarray) -> np.ndarray:
    """The dense fold: the whole preprocessed static block times the
    first layer's trailing rows, bias included."""
    w = net.weights[0]
    tail = policy.preprocess(static)
    return tail @ w[w.shape[0] - tail.shape[-1] :] + net.biases[0]


def run_bandit(
    updates: int = 200,
    lr: float = 0.01,
    seed: int = 0,
    batch_size: int = 64,
    target: float = 0.9,
) -> tuple[int, float]:
    """Two-armed bandit sanity oracle for the policy optimizer.

    A single dummy observation, two actions, reward +1 for action 0.
    Returns (updates_used, final_probability_of_action_0); stops early
    once the probability beats ``target``.
    """
    from satkit.rl.policy import Policy, PpoConfig, masked_log_softmax
    from satkit.rl.ppo import PpoOptimizer, Transition

    config = PpoConfig(
        learning_rate=lr,
        hidden_sizes=(8, 8),
        epochs=4,
        minibatch_size=batch_size,
        rollout_window=batch_size,
    )
    policy = Policy(1, 1, config, seed)  # one variable -> two actions
    optimizer = PpoOptimizer(policy)
    rng = np.random.default_rng(seed)
    obs = np.zeros(policy.obs_dim)
    obs[0] = 1.0
    mask = np.ones(2, dtype=bool)

    dynamic, static = obs[: policy.dynamic_dim], obs[policy.dynamic_dim :]

    prob_best = 0.0
    for u in range(1, updates + 1):
        actor_fold = fold_block(policy, policy.actor, static)
        value = policy.value(dynamic, fold_block(policy, policy.critic, static))
        batch = []
        for _ in range(batch_size):
            action, logp = policy.act(dynamic, mask, actor_fold, rng)
            reward = 1.0 if action == 0 else 0.0
            batch.append(Transition(obs.copy(), action, logp, reward, value, True, mask.copy()))
        optimizer.update(batch)
        logits = full_logits(policy, obs)
        prob_best = float(np.exp(masked_log_softmax(logits[None, :], mask[None, :])[0])[0])
        if prob_best > target:
            return u, prob_best
    return updates, prob_best


def finite_difference_check(policy, batch, h: float = 1e-6, tol: float = 1e-4) -> float:
    """Compare analytic gradients (actor parameters, then critic) against
    central finite differences of the total loss; returns the worst
    relative error."""
    from satkit.rl.ppo import ppo_loss_and_grads

    obs = np.stack([t.observation for t in batch])
    actions = np.array([t.action for t in batch])
    old_logp = np.array([t.log_prob for t in batch])
    advantages = np.array([0.7 * (i + 1) for i in range(len(batch))])
    returns = np.array([1.3] * len(batch))
    masks = np.stack([t.mask for t in batch])
    cfg = policy.config

    def total_loss():
        metrics, _ = ppo_loss_and_grads(
            policy, obs, actions, old_logp, advantages, returns, masks
        )
        return metrics[0] + cfg.value_coef * metrics[1] - cfg.entropy_coef * metrics[2]

    _, grads = ppo_loss_and_grads(policy, obs, actions, old_logp, advantages, returns, masks)
    params = policy.actor.parameters() + policy.critic.parameters()
    assert len(grads) == len(params)
    worst = 0.0
    for param, grad in zip(params, grads):
        assert grad.shape == param.shape
        for index in np.ndindex(param.shape):
            keep = param[index]
            param[index] = keep + h
            up = total_loss()
            param[index] = keep - h
            down = total_loss()
            param[index] = keep
            fd = (up - down) / (2 * h)
            an = grad[index]
            err = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
            worst = max(worst, err)
            assert err < tol, f"grad mismatch: analytic {an}, fd {fd}"
    return worst


def random_expression(rng: random.Random, max_atoms: int = 8, max_depth: int = 5) -> LogicalExpr:
    """Seeded random expression tree within the stated atom/depth bounds."""
    names = [f"A{i}" for i in range(max_atoms)]

    def build(depth: int) -> LogicalExpr:
        if depth >= max_depth or rng.random() < 0.3:
            return Atom(rng.choice(names))
        kind = rng.choice(["And", "Or", "Not", "Implies", "Iff"])
        if kind == "Not":
            return Not(build(depth + 1))
        if kind == "Implies":
            return Implies(build(depth + 1), build(depth + 1))
        if kind == "Iff":
            return Iff(build(depth + 1), build(depth + 1))
        width = rng.randint(2, 3)
        children = tuple(build(depth + 1) for _ in range(width))
        return And(children) if kind == "And" else Or(children)

    return build(0)


# -- Lang2Logic references -------------------------------------------------------


def reference_split_sentences(
    text: str, abbreviations: Iterable[str] = DEFAULT_ABBREVIATIONS
) -> list[str]:
    """The splitter one character at a time."""
    if not text or not text.strip():
        raise EmptyInputError("input text is empty")
    protect = frozenset(abbreviations)

    sentences = []
    start = 0
    i, n = 0, len(text)
    while i < n:
        if text[i] in ".!?":
            trailing = text[start : i + 1].split()
            token = trailing[-1] if trailing else ""
            if token in protect:
                i += 1
                continue
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j > i + 1 and j < n and text[j].isupper():
                sentences.append(text[start : i + 1].strip())
                start = j
                i = j
                continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


_REFERENCE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REFERENCE_ARITY = {"And": (2, None), "Or": (2, None), "Not": (1, 1), "Implies": (2, 2), "Iff": (2, 2)}


class _Token(NamedTuple):
    kind: str  # IDENT | LPAREN | RPAREN | COMMA | END
    text: str
    offset: int


def _reference_tokenize(line: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),":
            tokens.append(_Token({"(": "LPAREN", ")": "RPAREN", ",": "COMMA"}[ch], ch, i))
            i += 1
        else:
            m = _REFERENCE_IDENT.match(line, i)
            if m is None:
                raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
            tokens.append(_Token("IDENT", m.group(), i))
            i = m.end()
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok.kind != kind:
            raise ExpressionSyntaxError(f"expected {what}, got {tok.text or 'end of input'!r}", tok.offset)
        return tok

    def parse_expr(self) -> LogicalExpr:
        tok = self.expect("IDENT", "an identifier")
        if tok.text not in _REFERENCE_ARITY:
            return Atom(tok.text)
        self.expect("LPAREN", f"'(' after operator {tok.text}")
        args = [self.parse_expr()]
        while self.peek().kind == "COMMA":
            self.pos += 1
            args.append(self.parse_expr())
        self.expect("RPAREN", "')' or ','")
        lo, hi = _REFERENCE_ARITY[tok.text]
        if len(args) < lo or (hi is not None and len(args) > hi):
            bound = f"exactly {lo}" if hi == lo else f"at least {lo}"
            raise ArityError(f"{tok.text} takes {bound} argument(s), got {len(args)}", tok.offset)
        match tok.text:
            case "And":
                return And(tuple(args))
            case "Or":
                return Or(tuple(args))
            case "Not":
                return Not(args[0])
            case "Implies":
                return Implies(args[0], args[1])
            case "Iff":
                return Iff(args[0], args[1])
        raise AssertionError("unreachable")


def reference_parse_expression(line: str) -> LogicalExpr:
    """Tokens as (kind, text, offset) records, parsed by a parser object."""
    parser = _Parser(_reference_tokenize(line))
    expr = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ExpressionSyntaxError(f"unexpected trailing input {tail.text!r}", tail.offset)
    return expr


def _reference_atoms(expr: LogicalExpr) -> list[str]:
    seen: dict[str, None] = {}

    def walk(node: LogicalExpr) -> None:
        match node:
            case Atom(name):
                seen.setdefault(name, None)
            case Not(child):
                walk(child)
            case And(children) | Or(children):
                for c in children:
                    walk(c)
            case Implies(lhs, rhs) | Iff(lhs, rhs):
                walk(lhs)
                walk(rhs)

    walk(expr)
    return list(seen)


def _reference_nnf(expr: LogicalExpr, negate: bool) -> LogicalExpr:
    """Eliminate Implies/Iff and push negations down to atoms."""
    match expr:
        case Atom(_):
            return Not(expr) if negate else expr
        case Not(child):
            return _reference_nnf(child, not negate)
        case And(children):
            parts = tuple(_reference_nnf(c, negate) for c in children)
            return Or(parts) if negate else And(parts)
        case Or(children):
            parts = tuple(_reference_nnf(c, negate) for c in children)
            return And(parts) if negate else Or(parts)
        case Implies(lhs, rhs):
            if negate:
                return And((_reference_nnf(lhs, False), _reference_nnf(rhs, True)))
            return Or((_reference_nnf(lhs, True), _reference_nnf(rhs, False)))
        case Iff(lhs, rhs):
            if negate:
                return And((
                    Or((_reference_nnf(lhs, False), _reference_nnf(rhs, False))),
                    Or((_reference_nnf(lhs, True), _reference_nnf(rhs, True))),
                ))
            return And((
                Or((_reference_nnf(lhs, True), _reference_nnf(rhs, False))),
                Or((_reference_nnf(rhs, True), _reference_nnf(lhs, False))),
            ))
    raise TypeError(f"not a logical expression: {expr!r}")


def _reference_distribute(expr: LogicalExpr, table: SymbolTable, cap: int) -> list[list[int]]:
    """NNF tree -> clause lists of literal codes, distributing Or over And."""
    match expr:
        case Atom(name):
            return [[table.index_of(name)]]
        case Not(Atom(name)):
            return [[-table.index_of(name)]]
        case And(children):
            out: list[list[int]] = []
            for child in children:
                out.extend(_reference_distribute(child, table, cap))
                if len(out) > cap:
                    raise BlowupExceededError(f"CNF conversion exceeds the {cap}-clause cap")
            return out
        case Or(children):
            acc: list[list[int]] = [[]]
            for child in children:
                branches = _reference_distribute(child, table, cap)
                if len(acc) * len(branches) > cap:
                    raise BlowupExceededError(f"CNF conversion exceeds the {cap}-clause cap")
                acc = [a + b for a in acc for b in branches]
            return acc
    raise AssertionError(f"non-NNF node after normalization: {expr!r}")


def reference_to_cnf(expr: LogicalExpr, table: SymbolTable, max_clauses: int) -> CnfFormula:
    """A negation normal form tree first, then a second walk that
    distributes Or over And."""
    for name in _reference_atoms(expr):
        table.intern(name)
    return CnfFormula(len(table), _reference_distribute(_reference_nnf(expr, False), table, max_clauses))


def reference_simplify_cnf(formula: CnfFormula) -> CnfFormula:
    """The four redundancy rules, subsumption by comparing every pair."""
    kept: list[tuple[int, ...]] = []
    kept_sets: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for clause in formula.clauses:
        codes = list(dict.fromkeys(clause))
        if any(-code in codes for code in codes):
            continue
        key = frozenset(codes)
        if key in seen:
            continue
        seen.add(key)
        kept.append(tuple(codes))
        kept_sets.append(key)
    result = [
        codes
        for i, codes in enumerate(kept)
        if not any(j != i and kept_sets[j] < kept_sets[i] for j in range(len(kept)))
    ]
    return CnfFormula(formula.num_vars, result)


def _reference_spreads(samples: np.ndarray) -> list[list[float]]:
    """Mean, variation coefficient, min, max and entropy of each sorted
    row, through ``np.mean``, ``np.std`` and ``np.diff(append=)``."""
    ordered = np.sort(samples, axis=1)
    rows, k = ordered.shape
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    flat = np.flatnonzero(starts)
    sums = [0.0] * rows
    for row, count in zip((flat // k).tolist(), np.diff(flat, append=ordered.size).tolist()):
        sums[row] += (count / k) * math.log(count / k)
    out = []
    stats = zip(ordered.tolist(), ordered.mean(axis=1).tolist(), ordered.std(axis=1).tolist(), sums)
    for row, mean, std, total in stats:
        vc = std / mean if mean != 0 else 0.0
        out.append([mean, vc, row[0], row[-1], -total])
    return out


def reference_extract_features(formula: CnfFormula) -> np.ndarray:
    """The feature values, from stacked samples and one decode per call."""
    n, m = formula.num_vars, formula.num_clauses
    clauses = formula.clauses
    lengths = np.fromiter(map(len, clauses), dtype=np.int64, count=m)
    codes = np.fromiter(chain.from_iterable(clauses), dtype=np.int64, count=int(lengths.sum()))
    rows = np.repeat(np.arange(m), lengths)
    variables = np.abs(codes)
    positive = codes > 0
    pairs = np.sort(rows * (n + 1) + variables)
    pairs = pairs[np.append(True, pairs[1:] != pairs[:-1])]
    pair_clause, pair_var = np.divmod(pairs, n + 1)

    positives = np.bincount(rows[positive], minlength=m)
    is_horn = positives <= 1
    clause_degree = np.bincount(pair_clause, minlength=m)
    var_degree = np.bincount(pair_var, minlength=n + 1)[1:]
    horn_count = np.bincount(pair_var[is_horn[pair_clause]], minlength=n + 1)[1:]
    pos_occ = np.bincount(variables[positive], minlength=n + 1)[1:]
    total_occ = np.bincount(variables, minlength=n + 1)[1:]
    var_pos_frac = np.zeros(n)
    np.divide(pos_occ, total_occ, out=var_pos_frac, where=total_occ > 0)

    var_spreads = _reference_spreads(np.stack([var_degree, var_pos_frac, horn_count]).astype(np.float64))
    clause_spreads = _reference_spreads(np.stack([clause_degree, positives / lengths]).astype(np.float64))

    ratio = m / n
    body = (
        [float(n), float(m), ratio, n / m, abs(ratio - 4.26)]
        + var_spreads[0]
        + clause_spreads[0]
        + clause_spreads[1]
        + var_spreads[1]
        + [
            int(np.count_nonzero(clause_degree == 2)) / m,
            int(np.count_nonzero(clause_degree == 3)) / m,
            int(np.count_nonzero(is_horn)) / m,
        ]
        + var_spreads[2]
    )
    values = np.zeros(FEATURE_COUNT, dtype=np.float64)
    values[: len(body)] = body
    return values


def check_watch_invariants(solver) -> None:
    """The solver's watch table lists every live clause of length >= 2
    exactly once under each of its two watched literals, slots 0 and 1."""
    n = solver.num_vars
    assert len(solver.watches) == 2 * n + 1 and not solver.watches[0], "watch table shape"
    expected = set()
    for ci, clause in enumerate(solver.clauses):
        if clause is not None and len(clause) >= 2:
            assert clause[0] != clause[1], "clause watches one literal twice"
            expected.add((clause[0], ci))
            expected.add((clause[1], ci))
    listed = [(lit, ci) for v in range(1, n + 1) for lit in (v, -v) for ci in solver.watches[lit]]
    assert len(listed) == len(set(listed)), "clause listed twice under one literal"
    assert set(listed) == expected, "watch lists do not match the clauses' watched slots"


def check_trail_invariants(solver) -> None:
    """Every trail literal is true, levels never fall along the trail,
    and a reason clause asserted its literal at slot 0 with every other
    literal false and assigned earlier."""
    position = {abs(lit): i for i, lit in enumerate(solver.trail)}
    last_level = 0
    for i, lit in enumerate(solver.trail):
        var = abs(lit)
        assert solver.lit_value(lit) == TRUE, "trail literal not assigned true"
        assert solver.level[var] >= last_level, "trail levels not monotone"
        last_level = solver.level[var]
        reason = solver.reason[var]
        if reason is not None:
            clause = solver.clauses[reason]
            assert clause[0] == lit or len(clause) == 1, "asserted literal not at slot 0"
            for other in clause:
                if other == lit:
                    continue
                assert solver.lit_value(other) == FALSE, "reason clause not unit at append"
                assert position[abs(other)] < i, "reason literal assigned later"
