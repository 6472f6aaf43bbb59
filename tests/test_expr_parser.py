import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satkit.logic.expressions import And, Atom, Iff, Implies, Not, Or, atoms, evaluate, format_expr
from satkit.logic.parser import ArityError, ExpressionSyntaxError, parse_expression

from oracles import random_expression


class TestParse:
    def test_nesting_past_the_recursion_limit_fails_at_its_deepest_token(self):
        line = "Or(Q, " + "Not(" * 1200 + "A" + ")" * 1201
        with pytest.raises(ExpressionSyntaxError, match="nested 1201 levels deep") as exc_info:
            parse_expression(line)
        assert exc_info.value.offset == line.index("A")

    def test_nested_operators(self):
        expr = parse_expression("And(Not(P), Or(Q, R))")
        assert expr == And((Not(Atom("P")), Or((Atom("Q"), Atom("R")))))

    def test_bare_atom(self):
        assert parse_expression("P") == Atom("P")

    def test_whitespace_insignificant(self):
        assert parse_expression(" And ( P ,  Q ) ") == parse_expression("And(P,Q)")

    def test_keywords_case_sensitive(self):
        # lowercase 'and' is an ordinary atom name
        assert parse_expression("and") == Atom("and")

    def test_wide_and(self):
        expr = parse_expression("And(P, Q, R, S)")
        assert isinstance(expr, And) and len(expr.children) == 4

    def test_iff_and_implies(self):
        assert parse_expression("Implies(P, Q)") == Implies(Atom("P"), Atom("Q"))
        assert parse_expression("Iff(P, Q)") == Iff(Atom("P"), Atom("Q"))


class TestErrors:
    def test_or_requires_two_children(self):
        with pytest.raises(ArityError):
            parse_expression("Or(P)")

    def test_not_is_unary(self):
        with pytest.raises(ArityError):
            parse_expression("Not(P, Q)")

    def test_implies_is_binary(self):
        with pytest.raises(ArityError):
            parse_expression("Implies(P, Q, R)")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExpressionSyntaxError) as exc_info:
            parse_expression("And(P, %)")
        assert exc_info.value.offset == 7

    def test_operator_without_parens(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("And")

    def test_trailing_input(self):
        with pytest.raises(ExpressionSyntaxError) as exc_info:
            parse_expression("P Q")
        assert exc_info.value.offset == 2

    def test_unclosed_paren(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("And(P, Q")

    def test_empty_line(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("")


class TestRoundTrip:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_print_then_parse_is_identity(self, seed):
        expr = random_expression(random.Random(seed))
        assert parse_expression(format_expr(expr)) == expr

    def test_atoms_first_appearance_order(self):
        expr = parse_expression("And(Q, Or(P, Q), Not(R))")
        assert atoms(expr) == ["Q", "P", "R"]

    def test_evaluate_matches_python_semantics(self):
        expr = parse_expression("Iff(Implies(P, Q), Or(Not(P), Q))")
        for p in (False, True):
            for q in (False, True):
                assert evaluate(expr, {"P": p, "Q": q}) is True
