import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satkit.cnf import CnfFormula
from satkit.logic.convert import (
    BlowupExceededError,
    NestingTooDeepError,
    SymbolTable,
    simplify_cnf,
    to_cnf,
)
from satkit.logic.expressions import And, Atom, Iff, Implies, Not, Or
from satkit.logic.parser import parse_expression

from oracles import expr_equivalent_to_formula, random_expression

P, Q, R = Atom("P"), Atom("Q"), Atom("R")


class TestSymbolTable:
    def test_first_appearance_order(self):
        table = SymbolTable()
        to_cnf(parse_expression("And(Q, Or(P, Q))"), table)
        assert table.items() == [("Q", 1), ("P", 2)]

    def test_shared_across_expressions(self):
        table = SymbolTable()
        to_cnf(parse_expression("Or(P, Q)"), table)
        f2 = to_cnf(parse_expression("Or(Q, R)"), table)
        assert table.items() == [("P", 1), ("Q", 2), ("R", 3)]
        assert list(f2.clauses) == [(2, 3)]

    def test_determinism(self):
        t1, t2 = SymbolTable(), SymbolTable()
        expr = parse_expression("Iff(C, And(A, Or(B, C)))")
        to_cnf(expr, t1)
        to_cnf(expr, t2)
        assert t1.items() == t2.items()


class TestToCnf:
    def test_conjunction_of_literal_and_disjunction(self):
        # ~P & (Q | R) is already CNF: two clauses.
        table = SymbolTable()
        formula = to_cnf(And((Not(P), Or((Q, R)))), table)
        assert list(formula.clauses) == [(-1,), (2, 3)]
        assert expr_equivalent_to_formula(And((Not(P), Or((Q, R)))), formula, table)

    def test_distribution_of_or_over_and(self):
        # ~P | (Q & R) distributes to (~P | Q) & (~P | R).
        table = SymbolTable()
        expr = Or((Not(P), And((Q, R))))
        formula = to_cnf(expr, table)
        assert list(formula.clauses) == [(-1, 2), (-1, 3)]
        assert expr_equivalent_to_formula(expr, formula, table)

    def test_cnf_input_is_fixed_point(self):
        table = SymbolTable()
        expr = And((P, Or((Q, R))))
        formula = to_cnf(expr, table)
        assert list(formula.clauses) == [(1,), (2, 3)]

    def test_implication_elimination(self):
        formula = to_cnf(Implies(P, Q))
        assert list(formula.clauses) == [(-1, 2)]

    def test_iff_expansion(self):
        table = SymbolTable()
        formula = to_cnf(Iff(P, Q), table)
        assert list(formula.clauses) == [(-1, 2), (-2, 1)]
        assert expr_equivalent_to_formula(Iff(P, Q), formula, table)

    def test_double_negation(self):
        formula = to_cnf(Not(Not(P)))
        assert list(formula.clauses) == [(1,)]

    def test_blowup_cap(self):
        # (A1&B1) | (A2&B2) | ... distributes to 2**k clauses.
        parts = tuple(
            And((Atom(f"A{i}"), Atom(f"B{i}"))) for i in range(12)
        )
        with pytest.raises(BlowupExceededError):
            to_cnf(Or(parts), max_clauses=1000)

    @given(st.integers(min_value=0, max_value=5000))
    def test_equivalence_on_random_expressions(self, seed):
        rng = random.Random(seed)
        expr = random_expression(rng, max_atoms=6, max_depth=4)
        table = SymbolTable()
        formula = to_cnf(expr, table)
        assert expr_equivalent_to_formula(expr, formula, table)
        assert expr_equivalent_to_formula(expr, simplify_cnf(formula), table)


class TestSimplify:
    def test_duplicate_clause_removed(self):
        f = CnfFormula.from_codes(3, [[1], [-2, 3], [-2, 3]])
        assert list(simplify_cnf(f).clauses) == [(1,), (-2, 3)]

    def test_tautology_removed(self):
        f = CnfFormula.from_codes(2, [[1, -1], [2]])
        assert list(simplify_cnf(f).clauses) == [(2,)]

    def test_subsumed_clause_removed(self):
        f = CnfFormula.from_codes(2, [[1], [1, 2]])
        assert list(simplify_cnf(f).clauses) == [(1,)]

    def test_duplicate_literals_dropped(self):
        f = CnfFormula.from_codes(2, [[1, 1, 2]])
        assert list(simplify_cnf(f).clauses) == [(1, 2)]

    def test_duplicate_detection_ignores_literal_order(self):
        f = CnfFormula.from_codes(2, [[1, 2], [2, 1]])
        assert list(simplify_cnf(f).clauses) == [(1, 2)]

    def test_all_clauses_tautological_gives_empty_formula(self):
        f = CnfFormula.from_codes(1, [[1, -1]])
        simplified = simplify_cnf(f)
        assert simplified.num_clauses == 0
        assert simplified.num_vars == 1

    @given(st.integers(min_value=0, max_value=5000))
    def test_idempotence_and_shrinkage(self, seed):
        rng = random.Random(seed)
        expr = random_expression(rng, max_atoms=5, max_depth=4)
        formula = to_cnf(expr)
        once = simplify_cnf(formula)
        assert simplify_cnf(once) == once
        assert once.num_clauses <= formula.num_clauses
        total = lambda f: sum(len(c) for c in f.clauses)
        assert total(once) <= total(formula)


def test_expression_nested_past_the_recursion_limit_is_a_typed_error():
    expr = P
    for _ in range(5000):  # built directly: the parser refuses such depth
        expr = Not(expr)
    table = SymbolTable()
    with pytest.raises(NestingTooDeepError):
        to_cnf(expr, table)
    assert table.names() == ("P",)  # a failed conversion still interns every atom
