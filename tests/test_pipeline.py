import importlib
from pathlib import Path

import pytest

from satkit.logic import pipeline
from satkit.logic.convert import SymbolTable, to_cnf
from satkit.logic.parser import parse_expression
from satkit.logic.pipeline import DocumentError, compile_document, compile_expressions, conjoin
from satkit.logic.sentences import EmptyInputError
from satkit.logic.translate import (
    MalformedTranslationError,
    StubTranslator,
    TranslationResponse,
    translate_sentence,
)

FIXTURE_PATH = Path(__file__).parent / "data" / "translations.tsv"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PARAGRAPH = (
    "The workshop is open or the library is open. "
    "If the workshop is open then the forge is lit. "
    "The storeroom is not locked. "
    "The forge is lit or the storeroom is not locked."
)


@pytest.fixture
def stub():
    return StubTranslator.from_fixture_file(FIXTURE_PATH)


def test_single_sentence_document(stub):
    formula, table = compile_document(
        "The circus has a Ferris wheel or a rollercoaster.", stub
    )
    assert formula.num_vars == 2
    assert list(formula.clauses) == [(1, 2)]
    assert table.items() == [("P", 1), ("Q", 2)]


def test_paragraph_has_four_vars_four_clauses_before_simplification(stub):
    sentences = [
        "The workshop is open or the library is open.",
        "If the workshop is open then the forge is lit.",
        "The storeroom is not locked.",
        "The forge is lit or the storeroom is not locked.",
    ]
    exprs = [
        parse_expression(translate_sentence(stub, s).expression) for s in sentences
    ]
    table = SymbolTable()
    unsimplified = to_cnf(conjoin(exprs), table)
    assert unsimplified.num_vars == 4
    assert unsimplified.num_clauses == 4


def test_paragraph_compiles_and_simplifies(stub):
    formula, table = compile_document(PARAGRAPH, stub)
    assert formula.num_vars == 4
    # (R | ~S) is subsumed by the unit clause (~S)
    assert list(formula.clauses) == [(1, 2), (-1, 3), (-4,)]
    assert len(table) == 4


def test_each_document_keeps_its_own_phrases(stub):
    """One client, two documents that give P different phrases."""
    _, lamp = compile_document("The lamp is on.", stub)
    _, workshop = compile_document("The workshop is open or the library is open.", stub)
    assert lamp.phrases == {"P": "The lamp is on"}
    assert workshop.phrases == {"P": "The workshop is open", "Q": "The library is open"}


def test_the_first_phrase_for_an_atom_wins_within_a_document():
    client = StubTranslator(
        {
            "It is first.": TranslationResponse("P", {"P": "first phrase"}),
            "It is second.": TranslationResponse("Or(P, Q)", {"P": "second phrase", "Q": "other"}),
        }
    )
    _, table = compile_document("It is first. It is second.", client)
    assert table.phrases == {"P": "first phrase", "Q": "other"}


def test_compiled_expressions_have_no_phrases():
    _, table = compile_expressions([parse_expression("Or(P, Q)")])
    assert table.names() == ("P", "Q")
    assert table.phrases == {}


def test_contradictory_document_still_compiles(stub):
    formula, _ = compile_document("The lamp is on. The lamp is not on.", stub)
    assert list(formula.clauses) == [(1,), (-1,)]


def test_unknown_sentence_aggregated_with_index(stub):
    text = "The lamp is on. Completely unknown sentence here. The lamp is not on."
    with pytest.raises(DocumentError) as exc_info:
        compile_document(text, stub)
    failures = exc_info.value.failures
    assert len(failures) == 1
    assert failures[0][0] == 1
    assert "unknown" in failures[0][1].lower()


def test_all_failures_collected(stub):
    with pytest.raises(DocumentError) as exc_info:
        compile_document("Mystery one. Mystery two.", stub)
    assert [f[0] for f in exc_info.value.failures] == [0, 1]


def test_deeply_nested_translation_is_a_per_sentence_failure(stub):
    deep = "Not(" * 1200 + "P" + ")" * 1200
    stub.table["The tower is deep."] = TranslationResponse(deep)
    with pytest.raises(DocumentError) as exc_info:
        compile_document("The lamp is on. The tower is deep.", stub)
    [(index, sentence, error)] = exc_info.value.failures
    assert (index, sentence) == (1, "The tower is deep.")
    assert isinstance(error, MalformedTranslationError)
    assert "nested 1200 levels deep" in str(error)


def test_each_sentence_is_parsed_once(stub, monkeypatch):
    import satkit.logic.pipeline
    import satkit.logic.translate

    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_expression(text)

    for module in (satkit.logic.pipeline, satkit.logic.translate):
        if hasattr(module, "parse_expression"):
            monkeypatch.setattr(module, "parse_expression", counting_parse)
    compile_document(PARAGRAPH, stub)
    assert len(calls) == 4


def test_empty_document(stub):
    with pytest.raises(EmptyInputError):
        compile_document("   ", stub)


class TestBenchmarkTracer:
    """perfbench's tracer wraps the Lang2Logic stages by module and
    function name from outside the package, so a rename in satkit would
    otherwise break only a traced langsat-docs run."""

    def test_traced_document_compilation(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        spans = importlib.import_module("spans")
        documents = importlib.import_module("documents")
        docs = documents.make_documents(4, seed=1)
        stub = StubTranslator.from_fixture_text(documents.fixture_text(docs))
        tracer = spans.Tracer()
        with tracer.installed():
            for doc in docs:
                pipeline.compile_document(doc.text, stub)
        sentences = sum(len(doc.sentences) for doc in docs)
        assert tracer.calls("logic.compile_document") == len(docs)
        assert tracer.calls("logic.parse") == tracer.counters["logic.sentences"] == sentences
        assert tracer.calls("logic.translate") == sentences
        assert tracer.calls("logic.to_cnf") == tracer.calls("logic.simplify") == len(docs)
        assert tracer.counters["logic.clauses_in"] >= tracer.counters["logic.clauses_out"] > 0
