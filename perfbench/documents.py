"""Seeded English documents whose satisfiability is known by construction.

Each document talks about places in a town ("The forge is lit.",
"If the mill is busy then the tower is not guarded."). A hidden
assignment fixes which statements are true, and every generated
sentence is true under it, so a document is satisfiable. Every fourth
document also carries a contradictory pair of sentences, which no
assignment satisfies, so it is unsatisfiable whatever else it says.

A document comes with the fixture rows a translator would return for
its sentences: the expression in satkit's prefix notation and a
glossary entry per atom. Shares no code with satkit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import eval_expr, render_expr

SUBJECTS = (
    "workshop", "library", "forge", "storeroom", "garden", "bakery", "harbor",
    "tower", "chapel", "market", "stable", "mill", "school", "clinic", "theater",
    "museum", "station", "granary", "kitchen", "armory",
)
PREDICATES = ("open", "lit", "locked", "busy", "quiet", "painted", "guarded", "heated")
MAX_WORDS = 450  # the paper's upper bound on a description
ATOMS_PER_DOCUMENT = 36
CONTRADICTION_EVERY = 4  # documents i with i % 4 == 3 are unsatisfiable


@dataclass(frozen=True)
class Document:
    text: str
    words: int
    sentences: tuple[str, ...]
    exprs: tuple  # one reference expression per sentence
    satisfiable: bool
    hidden: dict  # atom -> bool; satisfies every sentence when satisfiable


def _phrase(atom: str, positive: bool) -> str:
    subject, predicate = atom.split("_")
    return f"the {subject} is {predicate}" if positive else f"the {subject} is not {predicate}"


def _lit(atom: str, positive: bool):
    return ("atom", atom) if positive else ("not", ("atom", atom))


def _sentence(kind: str, lits) -> tuple[str, tuple]:
    """English text and expression for a sentence shape over literals
    given as (atom, positive) pairs."""
    p = [_phrase(a, s) for a, s in lits]
    e = [_lit(a, s) for a, s in lits]
    if kind == "fact":
        text, expr = p[0], e[0]
    elif kind == "or":
        text, expr = f"{p[0]} or {p[1]}", ("or", e[0], e[1])
    elif kind == "either":
        text, expr = f"either {p[0]} or {p[1]} or {p[2]}", ("or", e[0], e[1], e[2])
    elif kind == "and":
        text, expr = f"{p[0]} and {p[1]}", ("and", e[0], e[1])
    elif kind == "implies":
        text, expr = f"if {p[0]} then {p[1]}", ("implies", e[0], e[1])
    elif kind == "iff":
        text, expr = f"{p[0]} if and only if {p[1]}", ("iff", e[0], e[1])
    elif kind == "neither":
        # literals stay positive here: "neither ... is not ..." reads badly
        lits = [(a, True) for a, _ in lits]
        p = [_phrase(a, True) for a, _ in lits]
        text = f"neither {p[0]} nor {p[1]}"
        expr = ("not", ("or", ("atom", lits[0][0]), ("atom", lits[1][0])))
    else:
        raise ValueError(kind)
    return text[0].upper() + text[1:] + ".", expr


ARITY = {"fact": 1, "or": 2, "either": 3, "and": 2, "implies": 2, "iff": 2, "neither": 2}
KINDS = tuple(ARITY)


def contradictory_pair(kind: str, a: str, b: str):
    """Two sentences that no assignment satisfies together."""
    if kind == "fact":
        return [_sentence("fact", [(a, True)]), _sentence("fact", [(a, False)])]
    if kind == "implies":
        return [_sentence("implies", [(a, True), (b, True)]), _sentence("and", [(a, True), (b, False)])]
    if kind == "iff":
        return [_sentence("iff", [(a, True), (b, True)]), _sentence("and", [(a, False), (b, True)])]
    if kind == "neither":
        return [_sentence("neither", [(a, True), (b, True)]), _sentence("or", [(a, True), (b, True)])]
    raise ValueError(kind)


PAIR_KINDS = ("fact", "implies", "iff", "neither")


def make_document(rng: random.Random, satisfiable: bool, target: int) -> Document:
    """A document of at most ``target`` words, close to it."""
    atoms = rng.sample([f"{s}_{p}" for s in SUBJECTS for p in PREDICATES], ATOMS_PER_DOCUMENT)
    hidden = {a: rng.random() < 0.5 for a in atoms}
    pair = []
    if not satisfiable:
        a, b = rng.sample(atoms, 2)
        pair = contradictory_pair(rng.choice(PAIR_KINDS), a, b)
    budget = target - sum(len(t.split()) for t, _ in pair)
    body = []
    words = 0
    while True:
        kind = rng.choice(KINDS)
        chosen = rng.sample(atoms, ARITY[kind])
        text, expr = _sentence(kind, [(a, rng.random() < 0.5) for a in chosen])
        if not eval_expr(expr, hidden):
            continue
        n = len(text.split())
        if words + n > budget:
            break
        body.append((text, expr))
        words += n
    for sentence in pair:
        body.insert(rng.randint(0, len(body)), sentence)
    sentences = tuple(t for t, _ in body)
    text = " ".join(sentences)
    return Document(
        text=text,
        words=len(text.split()),
        sentences=sentences,
        exprs=tuple(e for _, e in body),
        satisfiable=satisfiable,
        hidden=hidden,
    )


def make_documents(count: int, seed: int) -> list[Document]:
    """``count`` documents; their lengths step evenly from 300 to 450
    words over every 16, so each run has the same spread of lengths."""
    rng = random.Random(f"documents-{seed}")
    return [
        make_document(
            rng,
            satisfiable=(i % CONTRADICTION_EVERY != CONTRADICTION_EVERY - 1),
            target=MAX_WORDS - 10 * (i % 16),
        )
        for i in range(count)
    ]


def fixture_text(documents) -> str:
    """Translator fixture table, one ``sentence TAB expression TAB
    atom=phrase;...`` row per distinct sentence."""
    rows = {}
    for doc in documents:
        for sentence, expr in zip(doc.sentences, doc.exprs):
            if sentence not in rows:
                glossary = ";".join(f"{a}={_phrase(a, True)}" for a in sorted(_atoms(expr)))
                rows[sentence] = f"{sentence}\t{render_expr(expr)}\t{glossary}"
    return "\n".join(rows.values()) + "\n"


def _atoms(expr) -> set:
    if expr[0] == "atom":
        return {expr[1]}
    return set().union(*(_atoms(e) for e in expr[1:]))
