"""LLM backends: deterministic scripted replay and a chat-completions client."""

from __future__ import annotations

import http.client
import json
import os
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import BackendError, ParseError, TransientBackendError

API_KEY_ENV = "EXPDESIGN_API_KEY"


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 1.0
    max_tokens: int = 4096


class LlmBackend:
    """Behavioral contract: turn a (system, user) pair into raw text."""

    def chat(self, system: str, user: str, params: SamplingParams | None = None) -> str:
        raise NotImplementedError


class ScriptedBackend(LlmBackend):
    """Deterministic replay backend keyed by call index (1-based).

    Sources, exactly one of:
      * ``texts`` - the i-th call returns texts[i-1];
      * ``fn`` - the i-th call returns fn(i, system, user), which must be a
        pure function of its arguments (``from_dir`` keeps its own prompt
        index instead).

    Each instance owns its call counter, so one backend serves one run.
    """

    def __init__(
        self,
        texts: list[str] | None = None,
        fn: Callable[[int, str, str], str] | None = None,
    ):
        if (texts is None) == (fn is None):
            raise ValueError("provide exactly one of texts or fn")
        self._texts = list(texts) if texts is not None else None
        self._fn = fn
        self.calls = 0

    @classmethod
    def from_dir(cls, fixtures_dir: str | Path) -> "ScriptedBackend":
        """Replay UTF-8 fixture files named round-<i>.txt from a directory.

        The i-th distinct (system, user) prompt reads round-<i>.txt; a prompt
        asked again (a re-prompt or a retry after a rejected reply) re-reads
        its own file, so a transcript replays however often each prompt is
        sent.
        """
        fixtures = Path(fixtures_dir)
        if not fixtures.is_dir():
            raise BackendError(f"fixtures directory not found: {fixtures}")
        prompt_index: dict[tuple[str, str], int] = {}

        def read_fixture(call: int, system: str, user: str) -> str:
            index = prompt_index.setdefault((system, user), len(prompt_index) + 1)
            path = fixtures / f"round-{index}.txt"
            if not path.is_file():
                raise BackendError(f"missing scripted fixture {path}")
            try:
                return path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise BackendError(f"scripted fixture {path} is not UTF-8 text: {exc}") from None
            except OSError as exc:  # permission denied, removed since the check
                raise BackendError(f"cannot read scripted fixture {path}: {exc}") from None

        return cls(fn=read_fixture)

    def chat(self, system: str, user: str, params: SamplingParams | None = None) -> str:
        self.calls += 1
        if self._texts is not None:
            if self.calls > len(self._texts):
                raise BackendError(
                    f"scripted backend exhausted after {len(self._texts)} calls"
                )
            return self._texts[self.calls - 1]
        return self._fn(self.calls, system, user)


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Follows no redirect: a 3xx reply reaches the caller as an error
    status, so the Authorization header never leaves the configured host."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class HttpBackend(LlmBackend):
    """Chat-completions-style HTTP client on the standard library.

    Sends ``{"model", "messages": [system, user], "temperature",
    "max_tokens"}`` and reads ``choices[0].message.content``. The API key
    comes from the EXPDESIGN_API_KEY environment variable unless given
    explicitly. 429 and 5xx responses (and transport errors) raise
    :class:`TransientBackendError`; other 4xx responses, and every 3xx
    (no redirect is followed), fail immediately. The endpoint must be an
    absolute http or https URL with a host. Proxies come from the
    environment (``HTTP(S)_PROXY``, ``NO_PROXY``) when the backend is built,
    and each call opens its own connection.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 120.0,
    ):
        if not endpoint:
            raise BackendError("HTTP backend needs an endpoint URL")
        try:
            url = urllib.parse.urlsplit(endpoint)
            url.port  # a port that is not a number in 0-65535 raises ValueError
            usable = url.scheme in ("http", "https") and bool(url.hostname)
        except ValueError:
            usable = False
        if not usable:
            raise BackendError(
                f"HTTP backend needs an absolute http or https URL with a host, got {endpoint!r}"
            )
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        self._opener = urllib.request.build_opener(_NoRedirect)

    def chat(self, system: str, user: str, params: SamplingParams | None = None) -> str:
        params = params or SamplingParams()
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps(payload, allow_nan=False).encode("utf-8"),
            headers=headers,
            method="POST",
        )
        try:
            try:
                with self._opener.open(request, timeout=self.timeout) as resp:
                    status, body = resp.status, resp.read()
            except urllib.error.HTTPError as exc:
                with exc:  # an error status arrives as HTTPError, holding the response
                    status, body = exc.code, exc.read()
        except (OSError, http.client.HTTPException) as exc:
            raise TransientBackendError(f"transport failure: {exc}") from exc
        if status == 429 or status >= 500:
            raise TransientBackendError(f"HTTP {status} from {self.endpoint}")
        if status >= 300:
            text = body.decode("utf-8", errors="replace")
            raise BackendError(f"HTTP {status} from {self.endpoint}: {text[:200]}")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}, not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat-completions response: {exc}") from exc
        return content


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3


def chat_with_retry(
    backend: LlmBackend,
    system: str,
    user: str,
    policy: RetryPolicy | None = None,
    params: SamplingParams | None = None,
    validator: Callable[[str], object] | None = None,
) -> str:
    """Call the backend until a response survives transport and validation.

    Retries transient transport failures and validator rejections (raised as
    :class:`ParseError`) up to ``policy.max_attempts``; permanent backend
    errors propagate immediately.
    """
    policy = policy or RetryPolicy()
    if policy.max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    last_exc: Exception | None = None
    for _ in range(policy.max_attempts):
        try:
            text = backend.chat(system, user, params)
        except TransientBackendError as exc:
            last_exc = exc
            continue
        if validator is not None:
            try:
                validator(text)
            except ParseError as exc:
                last_exc = exc
                continue
        return text
    raise BackendError(
        f"no valid response after {policy.max_attempts} attempts"
    ) from last_exc
