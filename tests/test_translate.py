import http.server
import json
import threading

import pytest

from satkit.cli import main
from satkit.errors import LimitError
from satkit.logic.pipeline import DocumentError, compile_document
from satkit.logic.translate import (
    HttpTranslator,
    MalformedTranslationError,
    StubTranslator,
    TranslatorUnavailableError,
    translate_sentence,
)

FIXTURES = """\
# sentence <TAB> expression <TAB> glossary
The circus has a Ferris wheel or a rollercoaster.\tOr(P, Q)\tP=The circus has a ferris wheel;Q=The circus has a rollercoaster
The lamp is on.\tP\tP=The lamp is on
Broken reply here.\tOr(P
"""


def assert_malformed_reply(client, sentence, raw):
    """A reply that does not parse fails its sentence in compile_document
    as a MalformedTranslationError carrying the reply."""
    with pytest.raises(DocumentError) as exc_info:
        compile_document(sentence, client)
    [(index, _, error)] = exc_info.value.failures
    assert index == 0
    assert isinstance(error, MalformedTranslationError)
    assert error.raw == raw
    assert "does not parse" in str(error)


class TestStub:
    def test_fixture_lookup(self):
        stub = StubTranslator.from_fixture_text(FIXTURES)
        response = translate_sentence(stub, "The circus has a Ferris wheel or a rollercoaster.")
        assert response.expression == "Or(P, Q)"
        assert response.glossary["P"] == "The circus has a ferris wheel"

    def test_single_atom_sentence(self):
        stub = StubTranslator.from_fixture_text(FIXTURES)
        response = translate_sentence(stub, "The lamp is on.")
        assert response.expression == "P"

    def test_unknown_sentence(self):
        stub = StubTranslator.from_fixture_text(FIXTURES)
        with pytest.raises(MalformedTranslationError):
            translate_sentence(stub, "Never seen before.")

    def test_unparseable_reply_carries_raw(self):
        stub = StubTranslator.from_fixture_text(FIXTURES)
        assert_malformed_reply(stub, "Broken reply here.", "Or(P")

    def test_fixture_file(self, tmp_path):
        path = tmp_path / "fixtures.tsv"
        path.write_text(FIXTURES, encoding="utf-8")
        stub = StubTranslator.from_fixture_file(path)
        assert "The lamp is on." in stub.table


class _Handler(http.server.BaseHTTPRequestHandler):
    reply: bytes = b"{}"
    status: int = 200
    last_request: dict = {}
    last_authorization: "str | None" = None

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        type(self).last_request = json.loads(self.rfile.read(length))
        type(self).last_authorization = self.headers.get("Authorization")
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(self.reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    # shutdown() waits for the loop's next poll, 0.5 s apart by default.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/translate"
    server.shutdown()
    server.server_close()
    thread.join()


class TestHttpClient:
    def test_success(self, http_server, monkeypatch):
        monkeypatch.setenv("SATKIT_TRANSLATOR_API_KEY", "secret-token")
        _Handler.status = 200
        _Handler.reply = json.dumps(
            {"expression": "Or(P, Q)", "glossary": {"P": "a", "Q": "b"}}
        ).encode()
        client = HttpTranslator(http_server, timeout_s=5)
        response = translate_sentence(client, "The circus has a Ferris wheel or a rollercoaster.")
        assert response.expression == "Or(P, Q)"
        assert response.glossary == {"P": "a", "Q": "b"}
        assert _Handler.last_request["session_id"] == client.session_id
        assert _Handler.last_request["sentence"].startswith("The circus")
        assert _Handler.last_authorization == "Bearer secret-token"

    def test_http_error_is_unavailable(self, http_server):
        _Handler.status = 503
        _Handler.reply = b"busy"
        client = HttpTranslator(http_server, timeout_s=5)
        with pytest.raises(TranslatorUnavailableError):
            client.translate("anything")

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan"), float("inf")], ids=repr)
    def test_timeout_that_is_not_finite_and_positive_rejected(self, timeout_s):
        with pytest.raises(LimitError, match="timeout"):
            HttpTranslator("http://127.0.0.1:1/translate", timeout_s=timeout_s)

    def test_connection_refused_is_unavailable(self):
        client = HttpTranslator("http://127.0.0.1:1/translate", timeout_s=0.5)
        with pytest.raises(TranslatorUnavailableError):
            client.translate("anything")

    def test_non_json_reply_is_malformed(self, http_server):
        _Handler.status = 200
        _Handler.reply = b"not json at all"
        client = HttpTranslator(http_server, timeout_s=5)
        with pytest.raises(MalformedTranslationError) as exc_info:
            client.translate("anything")
        assert exc_info.value.raw == "not json at all"

    def test_unparseable_expression_is_malformed(self, http_server):
        _Handler.status = 200
        _Handler.reply = json.dumps({"expression": "Or(P"}).encode()
        client = HttpTranslator(http_server, timeout_s=5)
        assert_malformed_reply(client, "Anything goes here.", "Or(P")

    @pytest.mark.parametrize(
        "glossary",
        [
            pytest.param("abc", id="string"),
            pytest.param(["P", "rain"], id="list"),
            pytest.param({"P": None}, id="null-phrase"),
            pytest.param({"P": 1}, id="number-phrase"),
            pytest.param({"P": "rain\nfall"}, id="line-break"),
            pytest.param({"P": "rain\tfall"}, id="tab"),
            pytest.param({"P": "\ud800"}, id="lone-surrogate"),
        ],
    )
    def test_glossary_that_is_not_one_line_phrases_is_malformed(self, http_server, glossary):
        _Handler.status = 200
        _Handler.reply = json.dumps({"expression": "P", "glossary": glossary}).encode()
        client = HttpTranslator(http_server, timeout_s=5)
        with pytest.raises(MalformedTranslationError) as exc_info:
            client.translate("It rains.")
        assert exc_info.value.raw == _Handler.reply.decode()

    @pytest.mark.parametrize(
        "glossary", ["abc", {"P": None}, {"P": "rain\nfall"}], ids=["string", "null", "line-break"]
    )
    def test_convert_exits_2_on_a_bad_glossary(self, http_server, tmp_path, capsys, glossary):
        _Handler.status = 200
        _Handler.reply = json.dumps({"expression": "P", "glossary": glossary}).encode()
        src = tmp_path / "doc.txt"
        src.write_text("It rains.")
        argv = ["convert", str(src), "--translator", http_server]
        code = main(argv + ["--out", str(tmp_path / "doc.cnf"), "--map", str(tmp_path / "m.tsv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "m.tsv").exists()
