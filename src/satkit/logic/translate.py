"""Translator-client boundary for the natural-language stage.

Translation itself is delegated to an external service; this module
fixes the contract. ``StubTranslator`` answers from a fixture table and
is what every test uses, so the suite never needs the network.
``HttpTranslator`` speaks the JSON contract to a live endpoint, with
the credential taken from an environment variable. It imports ``uuid``
when it is built, and ``json`` and the HTTP client (``urllib.request``,
which loads ``http.client`` and ``ssl``) on its first request, so a
process that sends no request never loads them. A reply whose
expression does not parse is rejected where it is parsed, in
``pipeline.compile_document``.

Session contract: a client holds no state between calls. Each reply
carries its own glossary (atom -> source phrase), and repeated concepts
reuse the same atom name. ``pipeline.compile_document`` keeps the first
phrase per atom on the ``SymbolTable`` it returns.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Mapping, Protocol

from ..errors import LimitError, SatkitError

INSTRUCTION_TEMPLATE = "functional-prefix-v1"
DEFAULT_API_KEY_ENV = "SATKIT_TRANSLATOR_API_KEY"

# What a glossary phrase may not hold, since it becomes one field of one
# UTF-8 row of the ``--map`` table: the tab, every line boundary that
# ``str.splitlines`` splits at, and the lone surrogates that a JSON
# ``\ud800`` escape can produce and UTF-8 cannot encode.
_NOT_IN_PHRASE = re.compile("[\t\n\r\v\f\x1c-\x1e\x85\u2028\u2029\ud800-\udfff]")


class TranslatorError(SatkitError):
    pass


class TranslatorUnavailableError(TranslatorError):
    """Network, HTTP or authentication failure while contacting the service."""


class MalformedTranslationError(TranslatorError):
    """The service replied, but the reply is unusable. Carries the raw reply."""

    def __init__(self, message: str, raw: str):
        super().__init__(f"{message}: {raw!r}")
        self.raw = raw


@dataclass(frozen=True)
class TranslationResponse:
    expression: str
    glossary: Mapping[str, str] = field(default_factory=dict)


class TranslatorClient(Protocol):
    def translate(self, sentence: str) -> TranslationResponse: ...


class StubTranslator:
    """Deterministic fixture-table translator.

    Fixture lines are ``sentence TAB expression TAB atom=phrase;...``
    with the glossary field optional. Unknown sentences raise
    MalformedTranslationError, mirroring a service that cannot answer.
    """

    def __init__(self, table: Mapping[str, TranslationResponse]):
        self.table = dict(table)

    @classmethod
    def from_fixture_text(cls, text: str) -> "StubTranslator":
        table = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise TranslatorError(f"fixture line {lineno} needs 'sentence<TAB>expression'")
            sentence, expression = parts[0].strip(), parts[1].strip()
            glossary = {}
            if len(parts) > 2 and parts[2].strip():
                for entry in parts[2].split(";"):
                    entry = entry.strip()
                    if not entry:
                        continue
                    atom, _, phrase = entry.partition("=")
                    glossary[atom.strip()] = phrase.strip()
            table[sentence] = TranslationResponse(expression, glossary)
        return cls(table)

    @classmethod
    def from_fixture_file(cls, path) -> "StubTranslator":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise TranslatorError(f"fixture {path}: not UTF-8 text ({exc.reason})") from None
        return cls.from_fixture_text(text)

    def translate(self, sentence: str) -> TranslationResponse:
        key = sentence.strip()
        if key not in self.table:
            raise MalformedTranslationError("sentence not in fixture table", key)
        return self.table[key]


class HttpTranslator:
    """JSON-over-HTTP client for a live translation endpoint.

    Request body: {"sentence", "session_id", "instruction_template"},
    with a fresh ``session_id`` per client and the template
    ``INSTRUCTION_TEMPLATE``. Expected reply: {"expression": str,
    "glossary": {atom: phrase}}, where ``glossary`` may be left out and
    each phrase is a string with no tab and no line break; any other
    reply is a ``MalformedTranslationError``. Each request waits up to
    ``timeout_s`` seconds, which must be finite and > 0 (a
    ``LimitError`` otherwise, raised before any connection is made).
    """

    def __init__(self, endpoint: str, timeout_s: float, api_key_env: str = DEFAULT_API_KEY_ENV):
        import uuid

        if not (math.isfinite(timeout_s) and timeout_s > 0):
            raise LimitError(f"translator timeout must be finite and > 0, got {timeout_s}")
        self.endpoint = endpoint
        self.timeout_s = timeout_s
        self.api_key_env = api_key_env
        self.session_id = uuid.uuid4().hex

    def translate(self, sentence: str) -> TranslationResponse:
        import json
        import urllib.error
        import urllib.request

        body = json.dumps(
            {
                "sentence": sentence,
                "session_id": self.session_id,
                "instruction_template": INSTRUCTION_TEMPLATE,
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        request = urllib.request.Request(self.endpoint, data=body, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as reply:
                raw = reply.read().decode("utf-8", errors="replace")
        except urllib.error.HTTPError as exc:
            raise TranslatorUnavailableError(f"translator returned HTTP {exc.code}") from exc
        except (urllib.error.URLError, OSError) as exc:
            raise TranslatorUnavailableError(f"translator unreachable: {exc}") from exc
        try:
            payload = json.loads(raw)
            expression = payload["expression"]
            glossary = payload.get("glossary", {})
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
            raise MalformedTranslationError("reply is not the expected JSON shape", raw) from None
        if not isinstance(expression, str):
            raise MalformedTranslationError("'expression' is not a string", raw)
        if not (
            isinstance(glossary, dict)
            and all(isinstance(p, str) and not _NOT_IN_PHRASE.search(p) for p in glossary.values())
        ):
            raise MalformedTranslationError("'glossary' is not an object of one-line phrases", raw)
        return TranslationResponse(expression, glossary)


def translate_sentence(client: TranslatorClient, sentence: str) -> TranslationResponse:
    """The client's reply for one sentence, unparsed."""
    return client.translate(sentence)
