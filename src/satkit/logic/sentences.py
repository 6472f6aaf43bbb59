"""Deterministic rule-based sentence splitting.

A sentence boundary is '.', '!' or '?' followed by whitespace and an
uppercase letter, unless the whitespace-free token the terminator ends
is in ``DEFAULT_ABBREVIATIONS`` ("Dr.", "e.g."). One compiled
regex finds the candidates, terminators followed by whitespace; the
loop applies only the uppercase test and then the abbreviation test to
each. Joining the output with single spaces reproduces the input up to
inter-sentence whitespace.
"""

from __future__ import annotations

import re

from ..errors import SatkitError

DEFAULT_ABBREVIATIONS = frozenset({"Mr.", "Mrs.", "Dr.", "e.g.", "i.e."})

_CANDIDATE = re.compile(r"[.!?]\s+")


class EmptyInputError(SatkitError):
    pass


def split_sentences(text: str) -> list[str]:
    """Split ``text`` into sentences. Intended for descriptions of up to
    about 450 words; longer input is not rejected, just untested terrain."""
    if not text or not text.strip():
        raise EmptyInputError("input text is empty")
    sentences = []
    start = 0
    n = len(text)
    for m in _CANDIDATE.finditer(text):
        j = m.end()
        if j < n and text[j].isupper():
            sentence = text[start : m.start() + 1]
            if sentence.rsplit(None, 1)[-1] not in DEFAULT_ABBREVIATIONS:
                sentences.append(sentence.strip())
                start = j
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences
