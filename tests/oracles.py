"""Independent brute-force oracles used to pin expected values.

Everything here enumerates truth tables directly and shares no code
with the conversion or solving paths it checks.
"""

from __future__ import annotations

import random

import numpy as np

from satkit.cnf import CnfFormula
from satkit.logic.convert import SymbolTable
from satkit.logic.expressions import And, Atom, Iff, Implies, LogicalExpr, Not, Or


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
        actor_fold = policy.fold(policy.actor, static)
        value = policy.value(dynamic, policy.fold(policy.critic, static))
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
