"""LLM stand-ins: the scripted hit-seeking policy and a chat-completions stub.

Every reply is a pure function of the prompt (and, for the HTTP stub, of the
request body), so runs replay exactly. The stub also injects faults on a
fixed schedule: bodies are told apart by their sha256, and the first arrival
of every fourth distinct body gets a 503 or, alternately, a reply without a
``**Solution:`` marker. Each body is faulted at most once, so a retry budget
of two or more attempts absorbs every fault. The schedule counts distinct
bodies rather than drawing from the hash, so every seed meets the same
number of faults and the endpoint wait does not vary with the seed.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Sequence

import numpy as np

_COUNT = re.compile(r"^## <\w+ (\d+)>$", re.MULTILINE)

# Shares of a direct (bda) batch that name unknown or already explored
# candidates, so re-prompts and random top-up both happen.
UNKNOWN_SHARE = 0.1
EXPLORED_SHARE = 0.1


def requested_count(user: str) -> int:
    """How many names the prompt asks for (its last ``## <Item N>`` line)."""
    counts = [int(m) for m in _COUNT.findall(user)]
    if not counts:
        raise ValueError("prompt has no '## <Item N>' placeholder")
    return max(counts)


def feedback_tables(user: str) -> tuple[list[tuple[float, str]], list[str]]:
    """(score, name) rows of the [HITS] table and names of [OTHER RESULTS]."""
    if "[HITS]\n" not in user:
        return [], []
    hits_block, rest = user.split("[HITS]\n", 1)[1].split("[OTHER RESULTS]\n", 1)
    others_block = rest.split("\nHere is a strategy", 1)[0]

    def rows(block: str) -> list[tuple[float, str]]:
        out = []
        for line in block.strip().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts != ["name", "score"]:
                out.append((float(parts[1]), parts[0]))
        return out

    return rows(hits_block), [name for _, name in rows(others_block)]


def solution(names: Sequence[str]) -> str:
    return "**Solution:\n" + "\n".join(f"## {n}" for n in names)


def hit_seeking_reply(user: str, pool_names: Sequence[str]) -> str:
    """Centers = the best-scoring hits so far; the first pool names before any."""
    want = requested_count(user)
    hits, _ = feedback_tables(user)
    names = [name for _, name in sorted(hits, reverse=True)[:want]]
    return solution(names or list(pool_names[:want]))


def direct_batch_reply(user: str, key: int, pool_names: Sequence[str]) -> str:
    """A whole batch: mostly unexplored pool names, plus fixed shares of
    unknown and already explored names, drawn from a generator seeded by
    ``key``."""
    want = requested_count(user)
    hits, others = feedback_tables(user)
    explored = [name for _, name in hits] + others
    explored_set = set(explored)
    rng = np.random.default_rng(key)
    n_unknown = int(UNKNOWN_SHARE * want)
    n_explored = min(int(EXPLORED_SHARE * want), len(explored))
    unexplored = [n for n in pool_names if n not in explored_set]
    n_valid = min(want - n_unknown - n_explored, len(unexplored))
    picks = [unexplored[i] for i in rng.choice(len(unexplored), n_valid, replace=False)]
    picks += [explored[i] for i in rng.choice(len(explored), n_explored, replace=False)]
    # Lower-case letters never occur in generated gene names.
    picks += [f"Unk{key % 100000}x{i}" for i in range(n_unknown)]
    return solution([picks[i] for i in rng.permutation(len(picks))])


def scripted_policy(pool_names: Sequence[str]):
    """In-process ``ScriptedBackend(fn=...)`` policy for the LLMNN agents."""

    def reply(index: int, system: str, user: str) -> str:
        return hit_seeking_reply(user, pool_names)

    return reply


class ChatStub:
    """A chat-completions endpoint on localhost, served from one thread.

    Replies wait ``delay_s`` first, like a remote model. LLMNN prompts get
    hit-seeking centers and direct-batch prompts get a mixed batch. Call
    :meth:`reset` to forget which bodies have arrived, so that a repeated
    sweep meets the same faults.
    """

    def __init__(self, pool_names: Sequence[str], delay_s: float):
        self.pool_names = tuple(pool_names)
        self.delay_s = delay_s
        self.requests = 0
        self.faults = {"503": 0, "no-marker": 0}
        self._seen: set[str] = set()
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                status, payload = stub.respond(body)
                data = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "ChatStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def reset(self) -> None:
        with self._lock:
            self._seen.clear()

    def respond(self, body: bytes) -> tuple[int, dict]:
        digest = hashlib.sha256(body).hexdigest()
        key = int(digest[:12], 16)
        with self._lock:
            self.requests += 1
            first = digest not in self._seen
            self._seen.add(digest)
            distinct = len(self._seen)
        time.sleep(self.delay_s)
        fault = distinct % 8 if first else None
        if fault == 3:
            self.faults["503"] += 1
            return 503, {"error": "overloaded"}
        user = json.loads(body)["messages"][1]["content"]
        if fault == 7:
            self.faults["no-marker"] += 1
            text = "**Reflection: I need more time to think about this."
        elif "closest to your predicted" in user:
            text = hit_seeking_reply(user, self.pool_names)
        else:
            text = direct_batch_reply(user, key, self.pool_names)
        return 200, {"choices": [{"message": {"role": "assistant", "content": text}}]}
