import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satkit.logic.sentences import EmptyInputError, split_sentences


def test_single_sentence():
    out = split_sentences("The circus has a Ferris wheel or a rollercoaster.")
    assert out == ["The circus has a Ferris wheel or a rollercoaster."]


def test_two_sentences():
    assert split_sentences("A is true. B is false.") == ["A is true.", "B is false."]


def test_abbreviation_protected():
    out = split_sentences("Dr. Smith left. It rained.")
    assert out == ["Dr. Smith left.", "It rained."]


def test_eg_protected():
    out = split_sentences("Use a tool, e.g. Pliers, to fix it. Then stop.")
    assert out == ["Use a tool, e.g. Pliers, to fix it.", "Then stop."]


def test_question_and_exclamation():
    out = split_sentences("Is it on? It is on! Good.")
    assert out == ["Is it on?", "It is on!", "Good."]


def test_lowercase_continuation_does_not_split():
    out = split_sentences("It cost 3.50 dollars. the end")
    assert out == ["It cost 3.50 dollars. the end"]


def test_no_terminal_punctuation():
    assert split_sentences("no punctuation here") == ["no punctuation here"]


def test_empty_input_raises():
    with pytest.raises(EmptyInputError):
        split_sentences("")
    with pytest.raises(EmptyInputError):
        split_sentences("   \n ")


sentence_words = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "Delta", "it", "rains"]),
    min_size=1,
    max_size=5,
)


@given(st.lists(sentence_words, min_size=1, max_size=6))
def test_concatenation_preserves_text(word_lists):
    text = " ".join(" ".join(ws).capitalize() + "." for ws in word_lists)
    out = split_sentences(text)
    normalize = lambda s: re.sub(r"\s+", " ", s).strip()
    assert normalize(" ".join(out)) == normalize(text)
