"""Spans and counts around the calls into each layer of the program.

The tracer wraps public functions where their caller looks them up (for
example ``expdesign.agents.render_prompt``, which the agents module imported
by name), plus the methods the layers call on each other. Nothing under the
program's source tree changes: wrappers are installed for a traced sweep and
removed after it, so untraced sweeps run the program's own functions.

A span is (name, start, end, parent). The first part of a span name is the
layer: pool, memory, agents, surrogates, prompts, backends, feedback or
harness. A layer's self time is the time its spans cover minus the time
their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Callable

from expdesign import agents, backends, harness, memory, pool, surrogates
from expdesign.errors import BackendError, ParseError, TransientBackendError

AGENT_CLASSES = tuple(
    cls for cls in vars(agents).values()
    if isinstance(cls, type) and issubclass(cls, agents.Agent) and "select" in vars(cls)
)


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace ``owner.attr`` with ``make(original)`` for each
    (owner, attr, make) in ``targets``; restore in reverse order."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class RoundClock:
    """Times every ``select`` call: one round, from its start to the batch.

    A round is (agent kind, wall seconds, CPU seconds of the calling
    thread). Installed for traced and untraced sweeps alike; it adds four
    clock reads per round.
    """

    def __init__(self):
        self.rounds: list[tuple[str, float, float]] = []

    def _wrap(self, select):
        rounds = self.rounds

        @functools.wraps(select)
        def timed(agent, *args, **kwargs):
            start, cpu_start = time.perf_counter(), time.thread_time()
            batch = select(agent, *args, **kwargs)
            rounds.append((agent.kind, time.perf_counter() - start,
                           time.thread_time() - cpu_start))
            return batch

        return timed

    def installed(self):
        return patched([(cls, "select", self._wrap) for cls in AGENT_CLASSES])


class Tracer:
    """In-memory spans and counts for one traced sweep."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str | Callable, before=None, after=None, errors=()):
        """Wrapper factory: span named ``name`` (or ``name(args)``), optional
        hooks on the arguments and on the result, and a count per exception
        type in ``errors`` (a sequence of (type, count name))."""
        tracer = self
        caught = tuple(exc_type for exc_type, _ in errors)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if before is not None:
                    before(tracer.counts, args)
                with tracer.span(name(args) if callable(name) else name):
                    try:
                        result = fn(*args, **kwargs)
                    except caught as exc:
                        for exc_type, count in errors:
                            if isinstance(exc, exc_type):
                                tracer.counts[count] += 1
                                break
                        raise
                if after is not None:
                    after(tracer.counts, args, result)
                return result

            return traced

        return make

    def installed(self):
        w = self._wrap

        def scan(counts, args):
            counts["memory.scan_bytes"] += args[0].nbytes

        def rendered(counts, args, result):
            counts["prompts.user_bytes"] += len(result[1].encode("utf-8"))

        def selected(counts, args, batch):
            feedback = args[3]
            counts["feedback.records"] += 0 if feedback is None else len(feedback)
            counts[f"agents.slots.{args[0].kind}"] += len(batch)

        def agent_event(counts, args, result):
            agent, event = args[0], args[1]
            if event["event"] == "center_substitution":
                counts[f"agents.{agent.kind}.center_substitutions"] += 1
            elif event["event"] == "random_top_up":
                counts[f"agents.{agent.kind}.top_up_slots"] += len(event["names"])

        def http_attempt(counts, args):
            counts["backends.http_attempts"] += 1

        transient = ((TransientBackendError, "backends.transient_errors"),)
        targets = [
            (harness, "load_pool", w("pool.load")),
            (pool, "resolve_hit_policy", w("pool.resolve_hit_policy")),
            (memory, "embedding_distances", w("memory.scan", before=scan)),
            (agents, "embedding_distances", w("memory.scan", before=scan)),
            (memory.CandidateMemory, "nearest_unexplored", w("memory.nearest_unexplored")),
            (memory.CandidateMemory, "allocate_batch", w("memory.allocate_batch")),
            (memory.CandidateMemory, "mark_explored", w("memory.mark_explored")),
            (agents, "coreset_select", w("agents.coreset_select")),
            (agents._LlmAgentBase, "trace", w("harness.trace_write", after=agent_event)),
            (agents, "select_top_b", w("surrogates.top_b")),
            (agents, "median_heuristic", w("surrogates.median_heuristic")),
            (surrogates, "median_heuristic", w("surrogates.median_heuristic")),
            (surrogates.LinUcb, "fit_batch", w("surrogates.linucb.fit")),
            (surrogates.LinUcb, "score_many", w("surrogates.linucb.score")),
            (surrogates.GaussianProcess, "fit", w("surrogates.gp.fit")),
            (surrogates.GaussianProcess, "posterior_many", w("surrogates.gp.posterior")),
            (agents, "render_prompt", w("prompts.render", after=rendered)),
            (agents, "parse_solution",
             w("prompts.parse", errors=((ParseError, "backends.parse_rejections"),))),
            (agents, "chat_with_retry",
             w("backends.chat_with_retry", errors=((BackendError, "backends.failed"),))),
            (backends.HttpBackend, "chat",
             w("backends.chat", before=http_attempt, errors=transient)),
            (backends.ScriptedBackend, "chat", w("backends.chat", errors=transient)),
            (harness, "randomize_feedback", w("feedback.randomize")),
            (harness, "make_agent", w("harness.make_agent")),
            (harness, "run_experiment", w("harness.run_experiment")),
        ]
        targets += [
            (cls, "select", w(lambda args: f"agents.select.{args[0].kind}", after=selected))
            for cls in AGENT_CLASSES
        ]
        return patched(targets)

    def span_table(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, inclusive seconds, self seconds."""
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        child_time: Counter = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[index]
        return calls, inclusive, self_s
