import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satkit.cnf import CnfFormula
from satkit.dimacs import (
    ClauseCountMismatchError,
    DimacsError,
    LiteralOutOfRangeError,
    MissingHeaderError,
    UnterminatedClauseError,
    parse_dimacs,
    write_dimacs,
)
from satkit.generators import planted_ksat


def formula_strategy():
    def build(num_vars, clause_specs):
        clauses = []
        for spec in clause_specs:
            codes = [(v % num_vars) + 1 if s else -((v % num_vars) + 1) for v, s in spec]
            clauses.append(codes)
        return CnfFormula(num_vars, clauses)

    return st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.lists(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=n * 3), st.booleans()),
                min_size=1,
                max_size=6,
            ),
            min_size=0,
            max_size=10,
        ).map(lambda specs: build(n, specs))
    )


class TestParse:
    def test_two_clause_example(self):
        f = parse_dimacs("p cnf 3 2\n1 -2 0\n-1 3 0\n")
        assert f.num_vars == 3
        assert list(f.clauses) == [(1, -2), (-1, 3)]

    def test_no_clauses(self):
        f = parse_dimacs("p cnf 1 0\n")
        assert f.num_vars == 1
        assert f.num_clauses == 0

    def test_accepts_bytes_and_crlf(self):
        f = parse_dimacs(b"c comment\r\np cnf 2 1\r\n1 2 0\r\n")
        assert list(f.clauses) == [(1, 2)]

    def test_comments_anywhere(self):
        f = parse_dimacs("c head\np cnf 2 2\nc mid\n1 0\nc another\n2 0\n")
        assert f.num_clauses == 2

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1\n-2\n3 0\n")
        assert list(f.clauses) == [(1, -2, 3)]

    def test_clauses_sharing_a_line(self):
        f = parse_dimacs("p cnf 3 2\n1 -2 0 -1 3 0\n")
        assert list(f.clauses) == [(1, -2), (-1, 3)]

    def test_satlib_footer_tolerated(self):
        text = "p cnf 2 2\n1 2 0\n-1 -2 0\n%\n0\n"
        f = parse_dimacs(text)
        assert f.num_clauses == 2

    def test_satlib_footer_with_comments_and_blank_lines_tolerated(self):
        text = "p cnf 2 2\n1 2 0\n-1 -2 0\nc end of clauses\n\n%\n\nc footer\n0\n\n"
        f = parse_dimacs(text)
        assert list(f.clauses) == [(1, 2), (-1, -2)]

    @pytest.mark.parametrize(
        "text",
        [
            "p cnf 1 1\n1 0\n-1 0\n",  # the dropped clause would make it UNSAT
            "p cnf 3 1\n1 0 -1 0\n",  # past the count on the count's own line
            "p cnf 2 0\n1 0\n",  # a clause under a header that declares none
        ],
        ids=["next-line", "same-line", "zero-count"],
    )
    def test_clause_past_the_declared_count_rejected(self, text):
        with pytest.raises(ClauseCountMismatchError, match="more follow"):
            parse_dimacs(text)

    def test_missing_header(self):
        with pytest.raises(MissingHeaderError):
            parse_dimacs("1 -2 0\n")
        with pytest.raises(MissingHeaderError):
            parse_dimacs("c only comments\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ClauseCountMismatchError):
            parse_dimacs("p cnf 2 3\n1 0\n2 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(LiteralOutOfRangeError):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_literal_out_of_range_message(self):
        with pytest.raises(LiteralOutOfRangeError, match=r"^literal -3 exceeds declared variable count 2$"):
            parse_dimacs("p cnf 2 2\n1 2 0\n-3 1 0\n")

    def test_clause_structure_is_reported_before_the_literal_range(self):
        # The range is checked once, by CnfFormula, after every clause is read.
        with pytest.raises(UnterminatedClauseError):
            parse_dimacs("p cnf 2 2\n3 0\n1 2\n")
        with pytest.raises(ClauseCountMismatchError):
            parse_dimacs("p cnf 2 3\n3 0\n1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(UnterminatedClauseError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_garbage_token(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 1\n1 x 0\n")

    def test_non_ascii_rejected(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 1 1\n1 0\n".encode("utf-16"))

    def test_uf20_shaped_instance(self):
        formula = planted_ksat(20, 91, random.Random(7))
        reparsed = parse_dimacs(write_dimacs(formula))
        assert reparsed.num_vars == 20
        assert reparsed.num_clauses == 91


class TestWrite:
    def test_canonical_form(self):
        f = CnfFormula.from_codes(3, [[1, -2], [-1, 3]])
        assert write_dimacs(f) == "p cnf 3 2\n1 -2 0\n-1 3 0\n"

    def test_empty_formula(self):
        assert write_dimacs(CnfFormula(0, ())) == "p cnf 0 0\n"

    def test_round_trip_ten_var_formula(self):
        rng = random.Random(42)
        formula = planted_ksat(10, 40, rng)
        assert parse_dimacs(write_dimacs(formula)) == formula

    @given(formula_strategy())
    def test_round_trip_property(self, formula):
        assert parse_dimacs(write_dimacs(formula)) == formula
