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
the leaner one must match bit for bit, and ``adam_step_reference`` the
whole-array Adam step that the blocked ``Adam.step`` must match bit for
bit, and ``textbook_adam_step`` Algorithm 1 of the Adam paper, which it
must match within 1e-12, and ``dense_ppo_loss_and_grads`` the PPO loss
over whole observations that the compact-batch one must match, and
``householder_orthogonal_init`` the Householder QR initialisation whose
Q the Cholesky QR one must match within 1e-12. ``compute_reward`` is
the from-scratch reward, which the learned heuristic's clause block
(``observation.dynamic_block``) must sum to, and
``reference_construction`` that heuristic's static part (features,
static entries and actor fold) as it was built beside a second decode
of the clauses, which the one-decode construction must match byte for
byte.
``format_1_checkpoint`` and ``format_2_checkpoint`` write a policy as
the retired checkpoint formats 1 and 2 did, for the loader to refuse.
``check_watch_invariants`` and ``check_trail_invariants`` assert a
solver's internal invariants, and ``RandomHeuristic`` is a seeded third
branching heuristic for the solver's golden counts and the race.
``format_expr`` prints an expression in the notation the parser reads,
and ``reference_atoms`` lists its atoms in pre-order of first
appearance, the order the CNF conversion interns them in.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import asdict
from itertools import chain
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from satkit.cnf import FALSE, TRUE, CnfFormula
from satkit.features import FEATURE_COUNT
from satkit.logic.convert import BlowupExceededError, SymbolTable
from satkit.logic.expressions import And, Atom, Iff, Implies, LogicalExpr, Not, Or
from satkit.logic.parser import ArityError, ExpressionSyntaxError
from satkit.logic.sentences import DEFAULT_ABBREVIATIONS, EmptyInputError
from satkit.rl.network import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from satkit.solver.engine import Heuristic, Solver


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
    atom_order = list(table.names())
    assignments = assignment_matrix(len(table))
    lhs = expr_truth_column(expr, atom_order, assignments)
    rhs = formula_truth_column(formula, assignments)
    return bool(np.array_equal(lhs, rhs))


def compute_reward(clause_eval: np.ndarray) -> int:
    """Satisfied clauses count +1 each, falsified -1, pending 0."""
    return int((clause_eval == 1.0).sum()) - int((clause_eval == -1.0).sum())


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


def _retired_header(policy, version: int) -> dict:
    """The header checkpoint formats 1 and 2 both wrote: the config also
    held the five PPO coefficients, at the values the update now holds
    as constants."""
    coefficients = {
        "clip_epsilon": 0.2,
        "discount": 0.99,
        "gae_lambda": 0.95,
        "entropy_coef": 0.01,
        "value_coef": 0.5,
    }
    return {
        "format_version": version,
        "num_vars": policy.num_vars,
        "num_clauses": policy.num_clauses,
        "seed": policy.seed,
        "config": {**asdict(policy.config), **coefficients},
    }


def _checkpoint_bytes(policy, header: dict) -> bytes:
    """``header`` and then ``policy``'s weights, in the payload every
    format has saved."""
    header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
    payload = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for arr in policy.actor.parameters() + policy.critic.parameters()
    )
    return b"CNFPOLICY\x00" + len(header_bytes).to_bytes(8, "little") + header_bytes + payload


def format_2_checkpoint(policy) -> bytes:
    """``policy`` as checkpoint format 2 saved it: the header's config
    also held the five PPO coefficients."""
    return _checkpoint_bytes(policy, _retired_header(policy, 2))


def format_1_checkpoint(policy) -> bytes:
    """``policy`` as checkpoint format 1 saved it: the header's config
    also held the five PPO coefficients and ``reward_mode``, and the
    header an ``arrays`` manifest of every parameter's name and shape."""
    header = _retired_header(policy, 1)
    header["config"]["reward_mode"] = "absolute"
    nets = (("actor", policy.actor), ("critic", policy.critic))
    header["arrays"] = [
        {"name": f"{name}.{i}", "shape": list(arr.shape)}
        for name, net in nets
        for i, arr in enumerate(net.parameters())
    ]
    return _checkpoint_bytes(policy, header)


def reference_fold(policy, net, static: np.ndarray) -> np.ndarray:
    """The dense fold: the whole preprocessed static block times the
    first layer's trailing rows, bias included."""
    w = net.weights[0]
    tail = policy.preprocess(static)
    return tail @ w[w.shape[0] - tail.shape[-1] :] + net.biases[0]


def adam_step_reference(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    m: list[np.ndarray],
    v: list[np.ndarray],
    t: int,
    lr: float,
) -> None:
    """Adam step ``t`` (1-based) over whole arrays, updating ``params``,
    ``m`` and ``v`` in place, with the moments kept as unnormalised sums
    and the bias corrections folded into two scalars, as ``Adam.step``
    keeps them."""
    root = math.sqrt((1.0 - ADAM_BETA2**t) / (1.0 - ADAM_BETA2))
    k = lr * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1**t) * root
    eps = ADAM_EPS * root
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= ADAM_BETA1
        mi += g
        vi *= ADAM_BETA2
        vi += g * g
        p -= k * (mi / (np.sqrt(vi) + eps))


def textbook_adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    m: list[np.ndarray],
    v: list[np.ndarray],
    t: int,
    lr: float,
) -> None:
    """Adam step ``t`` (1-based) as Kingma & Ba's Algorithm 1 writes it,
    over whole arrays: the moments are the biased estimates and the bias
    corrections are applied term by term."""
    b1t = 1.0 - ADAM_BETA1**t
    b2t = 1.0 - ADAM_BETA2**t
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= ADAM_BETA1
        mi += (1.0 - ADAM_BETA1) * g
        vi *= ADAM_BETA2
        vi += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (mi / b1t) / (np.sqrt(vi / b2t) + ADAM_EPS)


def householder_orthogonal_init(rng: np.random.Generator, shape: tuple[int, int], gain: float) -> np.ndarray:
    """``orthogonal_init`` by Householder QR (``np.linalg.qr``) of the
    same Gaussian draw, with R's diagonal made positive."""
    rows, cols = shape
    big, small = max(rows, cols), min(rows, cols)
    a = rng.standard_normal((big, small))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    w = q if rows >= cols else q.T
    return np.ascontiguousarray(gain * w, dtype=np.float64)


def assert_close(actual, expected, rel=1e-12):
    """Equal up to ``rel`` times the largest magnitude in ``expected``."""
    actual, expected = np.atleast_1d(actual), np.atleast_1d(expected)
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= rel * scale


def gradient_buffers(policy) -> list[np.ndarray]:
    """One array per parameter, actor then critic, for ``ppo_loss_and_grads``
    to write into."""
    return [np.empty_like(p) for p in policy.actor.parameters() + policy.critic.parameters()]


def whole_observations(batch) -> np.ndarray:
    """Each transition's whole observation, dynamic then static block."""
    return np.stack([np.concatenate([t.observation, t.static]) for t in batch])


def _dense_forward(net, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's activation, input first, through whole layers."""
    acts = [x]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if i < len(net.weights) - 1 else z)
    return acts


def _dense_backward(net, acts: list[np.ndarray], g: np.ndarray) -> list[np.ndarray]:
    """Weight and bias gradients, in ``parameters()`` order, by plain
    backprop over whole rows."""
    grads = [None] * (2 * len(net.weights))
    for i in range(len(net.weights) - 1, -1, -1):
        grads[2 * i] = acts[i].T @ g
        grads[2 * i + 1] = g.sum(axis=0)
        g = (g @ net.weights[i].T) * (1.0 - acts[i] ** 2)
    return grads


def dense_ppo_loss_and_grads(policy, obs, actions, old_logp, advantages, returns, masks):
    """``ppo_loss_and_grads`` over whole observations: every row through
    the whole first layer of each net, and fresh gradient arrays."""
    from satkit.rl.policy import masked_log_softmax
    from satkit.rl.ppo import CLIP_EPSILON, ENTROPY_COEF, VALUE_COEF

    batch = len(obs)
    rows = np.arange(batch)
    x = policy.preprocess(obs)
    actor_acts = _dense_forward(policy.actor, x)
    critic_acts = _dense_forward(policy.critic, x)

    logp_all = masked_log_softmax(actor_acts[-1], masks)
    safe_logp = np.where(masks, logp_all, 0.0)
    probs = np.exp(safe_logp) * masks
    ratio = np.exp(logp_all[rows, actions] - old_logp)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON) * advantages
    surrogate = np.minimum(unclipped, clipped)
    entropy = -(probs * safe_logp).sum(axis=1)
    value_err = critic_acts[-1][:, 0] - returns

    coef = np.where(unclipped == surrogate, unclipped, 0.0) / batch
    one_hot = np.zeros_like(logp_all)
    one_hot[rows, actions] = 1.0
    grad_logits = -coef[:, None] * (one_hot - probs)
    # the entropy bonus: d(-H)/dz = p * (log p + H)
    grad_logits += ENTROPY_COEF * probs * (safe_logp + entropy[:, None]) / batch
    grad_logits = np.where(masks, grad_logits, 0.0)
    grad_value = (VALUE_COEF * 2.0 * value_err / batch)[:, None]

    metrics = np.array(
        [
            -surrogate.mean(),
            np.mean(value_err**2),
            entropy.mean(),
            np.mean(np.abs(ratio - 1.0) > CLIP_EPSILON),
        ]
    )
    grads = _dense_backward(policy.actor, actor_acts, grad_logits)
    grads += _dense_backward(policy.critic, critic_acts, grad_value)
    return metrics, grads


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
    from satkit.rl.heuristic import Transition
    from satkit.rl.ppo import PpoOptimizer

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
        # Actions are drawn from the whole network's softmax, not by
        # Policy.act, whose code the oracle checks.
        logp = masked_log_softmax(full_logits(policy, obs)[None, :], mask[None, :])[0]
        batch = []
        for _ in range(batch_size):
            action = int(rng.choice(2, p=np.exp(logp)))
            reward = 1.0 if action == 0 else 0.0
            batch.append(
                Transition(dynamic.copy(), static, action, float(logp[action]), reward, True, mask.copy())
            )
        optimizer.update(batch)
        logits = full_logits(policy, obs)
        prob_best = float(np.exp(masked_log_softmax(logits[None, :], mask[None, :])[0])[0])
        if prob_best > target:
            return u, prob_best
    return updates, prob_best


def finite_difference_check(policy, batch, h: float = 1e-6, tol: float = 1e-4) -> float:
    """Compare the compact batch's analytic gradients (actor parameters,
    then critic) against central finite differences of the total loss;
    returns the worst relative error."""
    from satkit.rl.ppo import ENTROPY_COEF, VALUE_COEF, _batch_arrays, ppo_loss_and_grads

    dynamic, statics, episodes, actions, old_logp, _, _, masks = _batch_arrays(batch)
    advantages = np.array([0.7 * (i + 1) for i in range(len(batch))])
    returns = np.array([1.3] * len(batch))
    args = (dynamic, statics, episodes, actions, old_logp, advantages, returns, masks)
    args += (gradient_buffers(policy),)

    def total_loss():
        metrics, _ = ppo_loss_and_grads(policy, *args)
        return metrics[0] + VALUE_COEF * metrics[1] - ENTROPY_COEF * metrics[2]

    _, grads = ppo_loss_and_grads(policy, *args)
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


def format_expr(expr: LogicalExpr) -> str:
    """Render back to the functional prefix notation the parser accepts."""
    match expr:
        case Atom(name):
            return name
        case Not(child):
            return f"Not({format_expr(child)})"
        case And(children):
            return f"And({', '.join(format_expr(c) for c in children)})"
        case Or(children):
            return f"Or({', '.join(format_expr(c) for c in children)})"
        case Implies(lhs, rhs):
            return f"Implies({format_expr(lhs)}, {format_expr(rhs)})"
        case Iff(lhs, rhs):
            return f"Iff({format_expr(lhs)}, {format_expr(rhs)})"
    raise TypeError(f"not a logical expression: {expr!r}")


# -- Lang2Logic references -------------------------------------------------------


def reference_split_sentences(text: str) -> list[str]:
    """The splitter one character at a time."""
    if not text or not text.strip():
        raise EmptyInputError("input text is empty")

    sentences = []
    start = 0
    i, n = 0, len(text)
    while i < n:
        if text[i] in ".!?":
            trailing = text[start : i + 1].split()
            token = trailing[-1] if trailing else ""
            if token in DEFAULT_ABBREVIATIONS:
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


def reference_atoms(expr: LogicalExpr) -> list[str]:
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


def _reference_distribute(expr: LogicalExpr, index: dict[str, int], cap: int) -> list[list[int]]:
    """NNF tree -> clause lists of literal codes, distributing Or over And."""
    match expr:
        case Atom(name):
            return [[index[name]]]
        case Not(Atom(name)):
            return [[-index[name]]]
        case And(children):
            out: list[list[int]] = []
            for child in children:
                out.extend(_reference_distribute(child, index, cap))
                if len(out) > cap:
                    raise BlowupExceededError(f"CNF conversion exceeds the {cap}-clause cap")
            return out
        case Or(children):
            acc: list[list[int]] = [[]]
            for child in children:
                branches = _reference_distribute(child, index, cap)
                if len(acc) * len(branches) > cap:
                    raise BlowupExceededError(f"CNF conversion exceeds the {cap}-clause cap")
                acc = [a + b for a in acc for b in branches]
            return acc
    raise AssertionError(f"non-NNF node after normalization: {expr!r}")


def reference_to_cnf(expr: LogicalExpr, table: SymbolTable, max_clauses: int) -> CnfFormula:
    """A negation normal form tree first, then a second walk that
    distributes Or over And."""
    for name in reference_atoms(expr):
        table.intern(name)
    clauses = _reference_distribute(_reference_nnf(expr, False), dict(table.items()), max_clauses)
    return CnfFormula(len(table), clauses)


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
        out.append([mean, vc, row[0], row[-1], 0.0 - total])
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


def reference_construction(policy, formula: CnfFormula) -> dict[str, np.ndarray]:
    """The static part of a ``PolicyHeuristic`` as construction built it
    when a ``ClauseStatus`` tracker decoded the clauses a second time:
    the feature values (``reference_extract_features``, which that
    construction's features matched bit for bit), the static block's
    nonzero positions (``index``) and values, and the actor's fold of
    them. The signed adjacency's entries came from sorted
    ``(clause * (n + 1) + |code|) * 2 + negative`` keys, the first of
    each (clause, variable) pair kept."""
    n, m = formula.num_vars, formula.num_clauses
    lengths = np.fromiter(map(len, formula.clauses), dtype=np.int64, count=m)
    codes = np.fromiter(chain.from_iterable(formula.clauses), dtype=np.int64, count=int(lengths.sum()))
    rows = np.repeat(np.arange(m), lengths)
    keys = np.sort((rows * (n + 1) + np.abs(codes)) * 2 + (codes < 0))
    first = np.ones(keys.size, dtype=bool)
    first[1:] = (keys[1:] >> 1) != (keys[:-1] >> 1)
    keys = keys[first]
    pair_clause, pair_var = np.divmod(keys >> 1, n + 1)
    features = reference_extract_features(formula)
    nonzero = np.flatnonzero(features)
    index = np.concatenate([pair_clause * n + (pair_var - 1), m * n + nonzero])
    values = np.concatenate([np.where((keys & 1) == 0, 1.0, -1.0), features[nonzero]])
    return {
        "features": features,
        "index": index,
        "values": values,
        "actor_fold": policy.fold(policy.actor, index, values),
    }


def check_watch_invariants(solver) -> None:
    """The solver's watch table lists every clause of length >= 2
    exactly once under each of its two watched literals, slots 0 and 1."""
    n = solver.num_vars
    assert len(solver.watches) == 2 * n + 1 and not solver.watches[0], "watch table shape"
    expected = set()
    for ci, clause in enumerate(solver.clauses):
        if len(clause) >= 2:
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


class RandomHeuristic(Heuristic):
    """Uniform random unassigned variable, uniform random polarity."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def decide(self, solver: Solver) -> int:
        unassigned = [var for var, value in enumerate(solver.values, 1) if not value]
        var = self.rng.choice(unassigned)
        return var if self.rng.random() < 0.5 else -var
