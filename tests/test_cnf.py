import pytest
from hypothesis import given
from hypothesis import strategies as st

from satkit.cnf import (
    FALSE,
    TRUE,
    UNDEF,
    CnfFormula,
    evaluate_clause,
)


def clause_strategy(max_var=6):
    codes = st.integers(min_value=1, max_value=max_var).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    return st.lists(codes, min_size=1, max_size=5).map(tuple)


def partial_assignment_strategy(num_vars=6):
    return st.lists(st.sampled_from([1, -1, 0]), min_size=num_vars, max_size=num_vars)


class TestClauseAndFormula:
    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula(1, [()])

    def test_duplicate_literals_allowed(self):
        formula = CnfFormula.from_codes(2, [[1, 1, -2]])
        assert formula.clauses == ((1, 1, -2),)

    @pytest.mark.parametrize(
        "num_vars, clauses",
        [
            (2, [[1, 0]]),  # 0 terminates a clause, it is no literal
            (2, [[1, 3]]),
            (2, [[-3, 1]]),
            (2, [[1], []]),
            (-1, []),
        ],
        ids=["zero-code", "above-range", "below-range", "empty-clause", "negative-num-vars"],
    )
    def test_malformed_formula_rejected(self, num_vars, clauses):
        with pytest.raises(ValueError):
            CnfFormula(num_vars, clauses)

    def test_lists_and_tuples_build_equal_formulas(self):
        from_lists = CnfFormula.from_codes(3, [[1, -2], [3]])
        from_tuples = CnfFormula(3, ((1, -2), (3,)))
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)
        assert from_lists.clauses == ((1, -2), (3,))

    def test_literal_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula.from_codes(2, [[3]])

    def test_negative_num_vars_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula(-1, ())

    def test_gaps_allowed(self):
        formula = CnfFormula.from_codes(5, [[1, -5]])
        assert formula.num_vars == 5
        assert formula.num_clauses == 1


class TestEvaluation:
    def test_satisfied_literal(self):
        clause = (1, 2)
        assert evaluate_clause(clause, [1, 0]) == TRUE

    def test_all_falsified(self):
        clause = (1, 2)
        assert evaluate_clause(clause, [-1, -1]) == FALSE

    def test_pending_literal(self):
        clause = (1, 2)
        assert evaluate_clause(clause, [-1, 0]) == UNDEF

    @given(clause_strategy(), partial_assignment_strategy())
    def test_extension_never_flips_determined_value(self, clause, values):
        before = evaluate_clause(clause, values)
        extended = [v or (1 if var % 2 == 0 else -1) for var, v in enumerate(values, 1)]
        after = evaluate_clause(clause, extended)
        if before == TRUE:
            assert after == TRUE
        if before == FALSE:
            assert after == FALSE

