"""Differential tests: each one-pass Lang2Logic stage against its
reference in ``oracles.py``, result for result and error for error
(class, message and, for expression errors, offset)."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satkit.cnf import CnfFormula
from satkit.logic.convert import (
    DEFAULT_CLAUSE_CAP,
    BlowupExceededError,
    SymbolTable,
    simplify_cnf,
    to_cnf,
)
from satkit.logic.expressions import And, Atom, Iff, Implies, Not, Or, atoms, format_expr
from satkit.logic.parser import parse_expression
from satkit.logic.sentences import split_sentences

from oracles import (
    reference_parse_expression,
    reference_simplify_cnf,
    reference_split_sentences,
    reference_to_cnf,
)

UNICODE_SPACES = ["\x1c", "\x85", "\xa0", "\u2009", "\u3000"]
NON_ASCII = ["é", "É", "Σ", "ǅ", "ß", "\u0301"]


def outcome(fn, *args):
    """The result of a call, or what identifies the error it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the error is the outcome under comparison
        return ("error", type(exc), str(exc), getattr(exc, "offset", None))


# -- split_sentences ---------------------------------------------------------------

sentence_words = st.sampled_from(
    ["The", "the", "A", "it", "Dr.", "Mr.", "Mrs.", "e.g.", "i.e.", "3.50", "end.", "Stop!", "Why?",
     ".", "?!", "x.", "Élan.", "élan", "ǅ", "Σ", "ß.", "\u0301."]
)
sentence_gaps = st.sampled_from(["", " ", "  ", "\n", "\t", *UNICODE_SPACES])


@given(st.lists(st.tuples(sentence_words, sentence_gaps), max_size=30))
def test_split_sentences_matches_the_character_loop(pieces):
    text = "".join(word + gap for word, gap in pieces)
    assert outcome(split_sentences, text) == outcome(reference_split_sentences, text)


@given(st.text(max_size=60))
def test_split_sentences_matches_on_any_text(text):
    assert outcome(split_sentences, text) == outcome(reference_split_sentences, text)


def test_split_sentences_treats_unicode_whitespace_as_whitespace():
    for space in UNICODE_SPACES:
        text = f"It is lit.{space}The mill is busy.{space}"
        assert split_sentences(text) == reference_split_sentences(text) == ["It is lit.", "The mill is busy."]


# -- parse_expression ----------------------------------------------------------------

names = st.sampled_from(["A", "B", "C", "D", "x_1", "_y", "Dr"])
expressions = st.recursive(
    names.map(Atom),
    lambda sub: st.one_of(
        sub.map(Not),
        st.lists(sub, min_size=2, max_size=4).map(lambda c: And(tuple(c))),
        st.lists(sub, min_size=2, max_size=4).map(lambda c: Or(tuple(c))),
        st.tuples(sub, sub).map(lambda p: Implies(*p)),
        st.tuples(sub, sub).map(lambda p: Iff(*p)),
    ),
    max_leaves=16,
)
line_pieces = ["And", "Or", "Not", "Implies", "Iff", "(", ")", ",", "A", "b1", "_", "9", "$", " ", "\n",
               *UNICODE_SPACES, *NON_ASCII]


@st.composite
def corrupted_lines(draw):
    """A printed expression with characters inserted, deleted or replaced."""
    line = format_expr(draw(expressions))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = draw(st.sampled_from(line_pieces))
        if edit == "insert":
            line = line[:i] + piece + line[i:]
        elif edit == "delete":
            line = line[:i] + line[i + 1 :]
        else:
            line = line[:i] + piece + line[i + 1 :]
    return line


@given(st.one_of(
    expressions.map(format_expr),
    corrupted_lines(),
    st.lists(st.sampled_from(line_pieces), max_size=24).map("".join),
    st.text(max_size=30),
))
def test_parse_expression_matches_the_token_parser(line):
    assert outcome(parse_expression, line) == outcome(reference_parse_expression, line)


def nodes(expr):
    """Every node of a tree, in pre-order."""
    yield expr
    match expr:
        case Not(child):
            yield from nodes(child)
        case And(children) | Or(children):
            for child in children:
                yield from nodes(child)
        case Implies(lhs, rhs) | Iff(lhs, rhs):
            yield from nodes(lhs)
            yield from nodes(rhs)


@given(expressions.map(format_expr))
def test_parsed_nodes_are_the_public_constructors_nodes(line):
    """The parser builds its nodes without the public constructors'
    checks; node for node they are the same values, as frozen."""
    got = parse_expression(line)
    for node, want in zip(nodes(got), nodes(reference_parse_expression(line)), strict=True):
        assert type(node) is type(want)
        assert node == want and hash(node) == hash(want) and repr(node) == repr(want)
        field = node.__match_args__[0]
        with pytest.raises(FrozenInstanceError):
            setattr(node, field, getattr(want, field))
    assert pickle.loads(pickle.dumps(got)) == got == copy.deepcopy(got)


@pytest.mark.parametrize(
    "name", ["a\n", "a ", "", "1a", "a-b", "é", "a\u0301", "And", "Or", "Not", "Implies", "Iff"]
)
def test_atom_refuses_a_name_the_tokenizer_would_not_read(name):
    with pytest.raises(ValueError, match="invalid atom name"):
        Atom(name)


@pytest.mark.parametrize("line", ["", "   ", "And(A", "And(A,", "And(A B)", "Not", "Not(A, B)", "Or(A)",
                                  "A B", "A)", "(A)", "And(,A)", "9", "a\x85b", "And(A,\xa0é)", "Iff(A,B,C)"])
def test_parse_expression_errors_match(line):
    got = outcome(parse_expression, line)
    assert got[0] == "error"
    assert got == outcome(reference_parse_expression, line)


# -- to_cnf and simplify_cnf ---------------------------------------------------------

@given(
    st.lists(expressions, min_size=1, max_size=3),
    st.one_of(st.sampled_from([DEFAULT_CLAUSE_CAP, 7, 30]), st.integers(1, 40)),
)
def test_to_cnf_and_simplify_match_the_two_walk_conversion(exprs, cap):
    table, reference_table = SymbolTable(), SymbolTable()
    for table_ in (table, reference_table):  # a shared table that already holds names
        table_.intern("D")
    for expr in exprs:
        got = outcome(to_cnf, expr, table, cap)
        assert got == outcome(reference_to_cnf, expr, reference_table, cap)
        if got[0] == "ok":
            assert table.names() == reference_table.names()
            assert simplify_cnf(got[1]) == reference_simplify_cnf(got[1])
        else:  # the reference interned every atom first; go on from the walk's table
            reference_table = SymbolTable()
            for name in table.names():
                reference_table.intern(name)


@given(st.lists(expressions, min_size=1, max_size=3), st.integers(1, 40))
def test_to_cnf_interns_in_atoms_order_also_when_it_fails(exprs, cap):
    """One walk interns as it converts: a shared table ends with the
    names ``atoms`` lists, after those it already held. A failed
    conversion stops its walk, so it adds only a leading part of them."""
    table = SymbolTable()
    table.intern("D")
    for expr in exprs:
        held = list(table.names())
        new = [name for name in atoms(expr) if name not in held]
        try:
            to_cnf(expr, table, cap)
        except BlowupExceededError:
            added = list(table.names())[len(held):]
            assert added == new[: len(added)]
        else:
            assert list(table.names()) == held + new


@pytest.mark.parametrize("line, cap, names", [
    ("Iff(A, A)", 1, ("D", "A")),
    ("And(Or(And(A, B), And(C, A)), E)", 3, ("D", "A", "B", "C", "E")),
    ("Or(And(B, C), And(A, B), Not(Not(E)))", 2, ("D", "B", "C", "A", "E")),
])
def test_a_blowup_leaves_every_atom_interned(line, cap, names):
    """The blowup is raised as the reference raises it. The reference
    interns every atom first; the one walk stops at the blowup, so its
    table holds a leading part of the same names."""
    table, reference_table = SymbolTable(), SymbolTable()
    for table_ in (table, reference_table):
        table_.intern("D")
    got = outcome(to_cnf, parse_expression(line), table, cap)
    assert got[0] == "error" and got[1] is BlowupExceededError
    assert got == outcome(reference_to_cnf, parse_expression(line), reference_table, cap)
    assert reference_table.names() == names
    assert names[: len(table)] == table.names()


literal_parts = st.one_of(
    names.map(Atom), names.map(lambda n: Not(Atom(n))), names.map(lambda n: Not(Not(Atom(n))))
)
disjunctions = st.recursive(
    st.lists(literal_parts, min_size=2, max_size=5).map(lambda c: Or(tuple(c))),
    lambda sub: st.one_of(
        st.lists(st.one_of(literal_parts, sub), min_size=2, max_size=4).map(lambda c: Or(tuple(c))),
        st.lists(st.one_of(literal_parts, sub), min_size=2, max_size=3).map(lambda c: And(tuple(c))),
        sub.map(Not),
    ),
    max_leaves=10,
)


@given(disjunctions, st.one_of(st.just(DEFAULT_CLAUSE_CAP), st.integers(1, 12)))
def test_disjunctions_of_literals_match_the_two_walk_conversion(expr, cap):
    """Flat and nested disjunctions, whose literal parts become one
    clause in a single loop, with repeated and doubly negated atoms."""
    table, reference_table = SymbolTable(), SymbolTable()
    got = outcome(to_cnf, expr, table, cap)
    assert got == outcome(reference_to_cnf, expr, reference_table, cap)
    if got[0] == "ok":  # the reference interns every atom, also when it fails
        assert table.names() == reference_table.names()


@pytest.mark.parametrize("line, clauses", [
    ("Or(A, A)", [(1, 1)]),
    ("Or(A, Not(Not(A)), Not(A))", [(1, 1, -1)]),
    ("Or(Not(B), A, Not(Not(C)))", [(-1, 2, 3)]),
    ("Implies(Not(A), B)", [(1, 2)]),
    ("Not(And(A, Not(B)))", [(-1, 2)]),
    ("Or(A, Or(B, Not(C)), Not(Not(A)))", [(1, 2, -3, 1)]),
    ("Or(A, And(B, C), Not(Not(A)))", [(1, 2, 1), (1, 3, 1)]),
    ("Not(Iff(A, Not(B)))", [(1, -2), (-1, 2)]),
])
def test_literal_disjunctions_keep_order_and_duplicates(line, clauses):
    expr = parse_expression(line)
    assert list(to_cnf(expr).clauses) == clauses
    assert to_cnf(expr) == reference_to_cnf(expr, SymbolTable(), DEFAULT_CLAUSE_CAP)


@pytest.mark.parametrize("line", ["And(A, B, C, D, E, F, G, H)", "Or(And(A, B), And(C, D, E, F))",
                                  "Iff(And(A, B), Or(C, D))", "Not(Implies(Or(A, B), And(C, D, E, F)))"])
@pytest.mark.parametrize("cap", [7, 8])
def test_to_cnf_clause_cap_boundary_matches(line, cap):
    expr = parse_expression(line)
    got = outcome(to_cnf, expr, SymbolTable(), cap)
    assert got == outcome(reference_to_cnf, expr, SymbolTable(), cap)


literals = st.integers(1, 6).flatmap(lambda v: st.sampled_from([v, -v]))


@given(st.lists(st.lists(literals, min_size=1, max_size=5), max_size=30))
def test_simplify_cnf_matches_all_pairs_subsumption(clauses):
    formula = CnfFormula(6, clauses)
    assert simplify_cnf(formula) == reference_simplify_cnf(formula)


units = st.lists(literals, min_size=1, max_size=1)


@given(st.lists(st.one_of(units, units, st.lists(literals, min_size=2, max_size=4)), max_size=30))
def test_simplify_cnf_matches_all_pairs_subsumption_on_unit_rich_cnfs(clauses):
    # Two thirds of the clauses are units: repeated, complementary, and
    # subsuming longer clauses.
    formula = CnfFormula(6, clauses)
    assert simplify_cnf(formula) == reference_simplify_cnf(formula)
