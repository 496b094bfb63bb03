from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from expdesign.backends import (
    HttpBackend,
    RetryPolicy,
    SamplingParams,
    ScriptedBackend,
    chat_with_retry,
)
from expdesign.cli import main
from expdesign.errors import BackendError, ParseError, TransientBackendError
from expdesign.pool import write_embeddings, write_measurements

from conftest import DATA_DIR, random_pool


class TestScriptedBackend:
    def test_texts_in_order(self):
        backend = ScriptedBackend(texts=["first", "second"])
        assert backend.chat("s", "u") == "first"
        assert backend.chat("s", "u") == "second"

    def test_exhaustion(self):
        backend = ScriptedBackend(texts=["only"])
        backend.chat("s", "u")
        with pytest.raises(BackendError, match="exhausted"):
            backend.chat("s", "u")

    def test_from_dir_reads_round_files(self):
        backend = ScriptedBackend.from_dir(DATA_DIR / "il2-fixtures")
        first = backend.chat("s", "round 1")
        assert "## ABL1" in first
        second = backend.chat("s", "round 2")
        assert "## MYBL2" in second

    def test_from_dir_repeated_prompt_rereads_its_file(self):
        backend = ScriptedBackend.from_dir(DATA_DIR / "il2-fixtures")
        first = backend.chat("s", "round 1")
        assert backend.chat("s", "round 1") == first  # a re-prompt
        assert "## MYBL2" in backend.chat("s", "round 2")
        assert backend.chat("s", "round 1") == first
        assert "## RPS27" in backend.chat("other system", "round 1")  # new prompt
        assert backend.calls == 5

    def test_from_dir_missing_fixture(self, tmp_path):
        (tmp_path / "round-1.txt").write_text("**Solution:\n## A", encoding="utf-8")
        backend = ScriptedBackend.from_dir(tmp_path)
        backend.chat("s", "round 1")
        with pytest.raises(BackendError, match="round-2"):
            backend.chat("s", "round 2")

    def test_from_dir_nonexistent(self, tmp_path):
        with pytest.raises(BackendError, match="not found"):
            ScriptedBackend.from_dir(tmp_path / "nope")

    def test_fn_receives_call_index(self):
        backend = ScriptedBackend(fn=lambda i, s, u: f"call-{i}:{u}")
        assert backend.chat("s", "hello") == "call-1:hello"
        assert backend.chat("s", "again") == "call-2:again"

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            ScriptedBackend()
        with pytest.raises(ValueError):
            ScriptedBackend(texts=["a"], fn=lambda i, s, u: "b")


class TestChatWithRetry:
    def test_first_attempt_returns_once(self):
        backend = ScriptedBackend(texts=["one", "two"])
        out = chat_with_retry(backend, "s", "u", RetryPolicy(max_attempts=3))
        assert out == "one"
        assert backend.calls == 1

    def test_succeeds_on_third_call(self):
        def flaky(i, system, user):
            if i <= 2:
                raise TransientBackendError(f"boom {i}")
            return "recovered"

        backend = ScriptedBackend(fn=flaky)
        out = chat_with_retry(backend, "s", "u", RetryPolicy(max_attempts=3))
        assert out == "recovered"
        assert backend.calls == 3

    def test_exhausted_attempts(self):
        def always(i, system, user):
            raise TransientBackendError("down")

        backend = ScriptedBackend(fn=always)
        with pytest.raises(BackendError, match="after 2 attempts"):
            chat_with_retry(backend, "s", "u", RetryPolicy(max_attempts=2))

    def test_permanent_error_not_retried(self):
        calls = []

        def broken(i, system, user):
            calls.append(i)
            raise BackendError("fatal")

        backend = ScriptedBackend(fn=broken)
        with pytest.raises(BackendError, match="fatal"):
            chat_with_retry(backend, "s", "u", RetryPolicy(max_attempts=5))
        assert calls == [1]

    def test_validator_triggers_retry(self):
        backend = ScriptedBackend(texts=["garbage", "**Solution:\n## A"])

        def validator(text):
            if "**Solution:" not in text:
                raise ParseError("no solution")

        out = chat_with_retry(backend, "s", "u", RetryPolicy(max_attempts=3),
                              validator=validator)
        assert out.endswith("## A")
        assert backend.calls == 2

    def test_validator_exhaustion(self):
        backend = ScriptedBackend(fn=lambda i, s, u: "still garbage")

        def validator(text):
            raise ParseError("nope")

        with pytest.raises(BackendError, match="after 3 attempts"):
            chat_with_retry(backend, "s", "u", RetryPolicy(max_attempts=3),
                            validator=validator)

    def test_max_attempts_must_be_positive(self):
        backend = ScriptedBackend(texts=["x"])
        with pytest.raises(ValueError):
            chat_with_retry(backend, "s", "u", RetryPolicy(max_attempts=0))


class _ChatHandler(BaseHTTPRequestHandler):
    """Configurable chat-completions stub: a list of (status, body) steps."""

    steps: list[tuple[int, dict | str]] = []
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        _ChatHandler.requests_seen.append(
            {"payload": payload, "auth": self.headers.get("Authorization")}
        )
        status, body = _ChatHandler.steps.pop(0) if _ChatHandler.steps else (
            200,
            {"choices": [{"message": {"content": "fallback"}}]},
        )
        data = body if isinstance(body, str) else json.dumps(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(data.encode("utf-8"))

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ChatHandler.steps = []
    _ChatHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _reply(text):
    return {"choices": [{"message": {"content": text}}]}


class TestHttpBackend:
    def test_success_and_wire_format(self, chat_server, monkeypatch):
        monkeypatch.setenv("EXPDESIGN_API_KEY", "sk-test-123")
        _ChatHandler.steps = [(200, _reply("hello back"))]
        backend = HttpBackend(chat_server, model="test-model")
        out = backend.chat("sys text", "user text",
                           SamplingParams(temperature=0.5, max_tokens=64))
        assert out == "hello back"
        seen = _ChatHandler.requests_seen[0]
        assert seen["auth"] == "Bearer sk-test-123"
        assert seen["payload"]["model"] == "test-model"
        assert seen["payload"]["temperature"] == 0.5
        assert seen["payload"]["max_tokens"] == 64
        assert seen["payload"]["messages"] == [
            {"role": "system", "content": "sys text"},
            {"role": "user", "content": "user text"},
        ]

    def test_429_retried_until_success(self, chat_server):
        _ChatHandler.steps = [(429, {}), (200, _reply("after backoff"))]
        backend = HttpBackend(chat_server, model="m", api_key="k")
        out = chat_with_retry(backend, "s", "u", RetryPolicy(max_attempts=3))
        assert out == "after backoff"

    def test_500_is_transient(self, chat_server):
        _ChatHandler.steps = [(500, {}), (200, _reply("ok"))]
        backend = HttpBackend(chat_server, model="m", api_key="k")
        assert chat_with_retry(backend, "s", "u", RetryPolicy(max_attempts=2)) == "ok"

    def test_404_fails_immediately(self, chat_server):
        _ChatHandler.steps = [(404, {"error": "no such model"})]
        backend = HttpBackend(chat_server, model="m", api_key="k")
        with pytest.raises(BackendError, match="404"):
            chat_with_retry(backend, "s", "u", RetryPolicy(max_attempts=5))
        assert len(_ChatHandler.requests_seen) == 1

    def test_malformed_body(self, chat_server):
        _ChatHandler.steps = [(200, {"unexpected": True})]
        backend = HttpBackend(chat_server, model="m", api_key="k")
        with pytest.raises(BackendError, match="malformed"):
            backend.chat("s", "u")

    @pytest.mark.parametrize("content", [None, 3, ["## A"], {"text": "## A"}])
    def test_content_that_is_not_a_string(self, chat_server, content):
        _ChatHandler.steps = [(200, {"choices": [{"message": {"content": content}}]})]
        backend = HttpBackend(chat_server, model="m", api_key="k")
        with pytest.raises(BackendError, match="malformed chat-completions response"):
            chat_with_retry(backend, "s", "u", RetryPolicy(max_attempts=3))
        assert len(_ChatHandler.requests_seen) == 1

    def test_null_content_aborts_the_run_exit_2(self, chat_server, tmp_path, capsys):
        # One line on stderr and exit 2, not a traceback from the reply's
        # parser.
        pool = random_pool(np.random.default_rng(0), 40, 3)
        meas, emb = tmp_path / "measurements.csv", tmp_path / "embeddings.csv"
        write_measurements(pool, meas)
        write_embeddings(pool, emb)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "dataset_key": "il2", "rounds": 2, "batch_size": 6, "runs": 1,
            "llm": {"endpoint": chat_server, "model": "m"},
        }), encoding="utf-8")
        _ChatHandler.steps = [(200, {"choices": [{"message": {"content": None}}]})]
        argv = ["run", "--config", str(config_path), "--agent", "llmnn",
                "--dataset", str(meas), "--embeddings", str(emb)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failure:") and err.count("\n") == 1
        assert "malformed chat-completions response" in err

    def test_connection_refused_is_transient(self):
        backend = HttpBackend("http://127.0.0.1:1/nope", model="m", api_key="k",
                              timeout=0.5)
        with pytest.raises(TransientBackendError):
            backend.chat("s", "u")

    def test_no_key_sends_no_auth_header(self, chat_server, monkeypatch):
        monkeypatch.delenv("EXPDESIGN_API_KEY", raising=False)
        _ChatHandler.steps = [(200, _reply("anon"))]
        backend = HttpBackend(chat_server, model="m")
        backend.chat("s", "u")
        assert _ChatHandler.requests_seen[0]["auth"] is None
