"""The benchmark's tracer (perfbench/tracer.py) against the program.

The tracer wraps functions and methods where their callers look them up, by
name. A refactor that moves or renames one of them breaks traced benchmark
runs; these tests show it in the unit suite.
"""

from __future__ import annotations

import importlib.util
import threading
from pathlib import Path

import numpy as np

from expdesign.agents import make_agent
from expdesign.feedback import Feedback, FeedbackRecord
from expdesign.harness import ExperimentConfig
from expdesign.memory import CandidateMemory

from conftest import count_thread_starts, random_pool

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_patched_and_restored(monkeypatch):
    tracer = load_tracer()
    targets = []
    patched = tracer.patched

    def recording(items):
        items = list(items)
        targets.extend((owner, attr) for owner, attr, _ in items)
        return patched(items)

    monkeypatch.setattr(tracer, "patched", recording)
    installs = [tracer.Tracer().installed(), tracer.RoundClock().installed()]
    assert targets
    # The tracer reads each target as vars(owner)[attr]: a missing one is a
    # KeyError here, as it is in a traced run.
    originals = [vars(owner)[attr] for owner, attr in targets]
    with installs[0], installs[1]:
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr] is not original, (owner, attr)
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner)[attr] is original, (owner, attr)


def test_surrogate_rounds_reach_the_wrapped_names():
    # One round of each surrogate agent after some observations, over more
    # than one block of unexplored rows, where the GP takes its bound pass:
    # the spans show that the agents call the names the tracer wraps. A
    # full pass with observations over at most one block (a gp round, or a
    # linucb round in the dual form) scores from the run's whitened rows,
    # which no wrapped name covers: its time shows only under the agent's
    # select span.
    tracer = load_tracer()
    pool = random_pool(np.random.default_rng(1), 2100, 8)
    observed = np.arange(20)
    feedback = Feedback(tuple(
        FeedbackRecord(pool.names[i], float(pool.scores[i]), False) for i in observed
    ))

    def spans(explored):
        trace = tracer.Tracer()
        with trace.installed():
            for kind in ("gp", "linucb"):
                memory = CandidateMemory(pool)
                memory.explore(explored)
                agent = make_agent(ExperimentConfig(agent=kind, batch_size=8), pool, None, None)
                agent.select(2, memory, feedback, np.random.default_rng(0))
        return {span["name"] for span in trace.span_table()}

    assert {
        "agents.select.gp", "agents.select.linucb", "surrogates.top_b",
        "surrogates.gp.fit", "surrogates.gp.posterior",
        "surrogates.linucb.fit", "surrogates.linucb.score",
    } <= spans(observed)
    whitened = spans(np.arange(100))  # 2,000 unexplored rows: one block
    assert {"agents.select.gp", "surrogates.top_b"} <= whitened
    assert not {"surrogates.gp.fit", "surrogates.gp.posterior"} & whitened


def test_memory_spans_open_no_traced_span_off_the_calling_thread(threaded_scan, monkeypatch):
    # Tracer.span keeps one stack for all threads, so a traced name called
    # from a scan's worker thread would take another thread's span as its
    # parent. A random-centroids round over a pool of many spans, on
    # threads: every span, the direct formula's (memory.scan) included,
    # opens on the calling thread.
    tracer = load_tracer()
    opened = []

    class ThreadTracer(tracer.Tracer):
        def span(self, name):
            opened.append((name, threading.get_ident()))
            return super().span(name)

    pool = random_pool(np.random.default_rng(2), 300, 8)
    memory = CandidateMemory(pool)
    memory.explore(np.arange(20))
    agent = make_agent(ExperimentConfig(agent="random-centroids", batch_size=16), pool, None, None)
    started = count_thread_starts(monkeypatch)
    trace = ThreadTracer()
    with trace.installed():
        assert agent.select(2, memory, None, np.random.default_rng(0)).size == 16
    assert started
    assert {"agents.select.random-centroids", "memory.allocate_batch", "memory.scan"} <= {
        name for name, _ in opened
    }
    assert {ident for _, ident in opened} == {threading.get_ident()}
