"""End-to-end document compilation: sentences -> expressions -> CNF,
with each atom's source phrase kept on the returned ``SymbolTable``."""

from __future__ import annotations

from ..cnf import CnfFormula
from ..errors import SatkitError
from .convert import DEFAULT_CLAUSE_CAP, SymbolTable, simplify_cnf, to_cnf
from .expressions import And, LogicalExpr
from .parser import ExpressionError, parse_expression
from .sentences import split_sentences
from .translate import (
    MalformedTranslationError,
    TranslatorClient,
    TranslatorError,
    translate_sentence,
)


class DocumentError(SatkitError):
    """One or more sentences failed to translate or parse.

    ``failures`` is a list of (sentence_index, sentence, error).
    """

    def __init__(self, failures: list[tuple[int, str, Exception]]):
        detail = "; ".join(f"sentence {i}: {err}" for i, _, err in failures)
        super().__init__(f"document compilation failed: {detail}")
        self.failures = failures


def conjoin(exprs: list[LogicalExpr]) -> LogicalExpr:
    if not exprs:
        raise ValueError("nothing to conjoin")
    return exprs[0] if len(exprs) == 1 else And(tuple(exprs))


def compile_expressions(
    exprs: list[LogicalExpr], max_clauses: int = DEFAULT_CLAUSE_CAP
) -> tuple[CnfFormula, SymbolTable]:
    """Conjoin the expressions, convert them to CNF over a new symbol
    table and simplify."""
    table = SymbolTable()
    return simplify_cnf(to_cnf(conjoin(exprs), table, max_clauses)), table


def compile_document(
    text: str,
    client: TranslatorClient,
    max_clauses: int = DEFAULT_CLAUSE_CAP,
) -> tuple[CnfFormula, SymbolTable]:
    """Split, translate and parse each sentence, then compile the
    expressions with ``compile_expressions``. Each reply is parsed once;
    one that does not parse is a MalformedTranslationError carrying the
    reply. Per-sentence failures are aggregated into a single
    DocumentError carrying the sentence indices. The returned table's
    ``phrases`` hold each atom's first phrase in the replies' glossaries."""
    sentences = split_sentences(text)
    exprs: list[LogicalExpr] = []
    phrases: dict[str, str] = {}
    failures: list[tuple[int, str, Exception]] = []
    for i, sentence in enumerate(sentences):
        try:
            response = translate_sentence(client, sentence)
        except TranslatorError as exc:
            failures.append((i, sentence, exc))
            continue
        for atom, phrase in response.glossary.items():
            phrases.setdefault(atom, phrase)
        try:
            exprs.append(parse_expression(response.expression))
        except ExpressionError as exc:
            error = MalformedTranslationError(
                f"translated expression does not parse ({exc})", response.expression
            )
            failures.append((i, sentence, error))
    if failures:
        raise DocumentError(failures)
    formula, table = compile_expressions(exprs, max_clauses)
    table.phrases = phrases
    return formula, table
