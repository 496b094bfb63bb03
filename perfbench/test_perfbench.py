"""Checks of the benchmark itself, at toy size.

Run from the repository root: ``python -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import yardstick
from expdesign import RunResult
from workloads import END_TO_END, PER_LAYER, WORKLOADS, smoke

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_mode_passes_every_check():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"correct": True}


def test_benchmark_json_matches_the_metrics_the_runs_print():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (name, *spec) for name, spec in END_TO_END.items()
    ]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER.items())


def test_output_schema_and_counts_of_a_traced_run():
    result = run.run_workload(smoke(WORKLOADS["llm-http"]), run.DEFAULT_SEED, 0.0, True,
                              "smoke")
    assert result["correct"], result["problems"]
    assert list(result["metrics"]) == list(PER_LAYER)
    assert all(m["unit"] == PER_LAYER[name] for name, m in result["metrics"].items())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # Every injected fault is absorbed by a retry, and re-prompted bda
    # batches are topped up.
    assert metrics["backends.failed"] == 0
    assert metrics["backends.attempts"] > metrics["backends.calls"]
    assert 0 < metrics["agents.bda.kept_ratio"] < 1
    assert metrics["agents.bda.top_up_slots"] > 0
    assert result["extras"]["backends.http_attempts"] == result["stub"]["requests_per_sweep"]
    line = json.loads(run.last_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_fingerprint_mismatch_fails_the_run():
    toy = smoke(WORKLOADS["gene-screen"])
    clean = run.run_workload(toy, run.DEFAULT_SEED, 0.0, False, "smoke")
    assert clean["correct"] and clean["failed"] == 0
    assert list(clean["metrics"]) == list(END_TO_END)

    reference = json.loads(json.dumps(clean["fingerprints"]))
    reference["linucb"][0]["final_hits"] += 1
    assert run.reference_mismatches(clean["fingerprints"], reference) == ["linucb"]
    tampered = run.run_workload(toy, run.DEFAULT_SEED, 0.0, False, "smoke", reference)
    assert not tampered["correct"]
    assert tampered["failed"] == tampered["attempted"] // len(toy.agents)
    assert tampered["extras"]["runs_failed_frac"] > 0


def test_check_run_catches_broken_invariants():
    class Pool:
        names = [f"G{i}" for i in range(30)]

        def __len__(self):
            return len(self.names)

        def is_hit(self, name):
            return name in ("G1", "G5")

    repeated = RunResult(seed=0, selections=[["G0", "G1"], ["G1", "G2"]],
                         hits=[["G1"], ["G1"]], cumulative_hits=[1, 2])
    problems = run.check_run(repeated, Pool(), batch_size=2, rounds=2)
    assert any("repeats" in p for p in problems)

    short = RunResult(seed=0, selections=[["G0", "G1"], ["G2"]],
                      hits=[["G1"], []], cumulative_hits=[1, 0])
    problems = run.check_run(short, Pool(), batch_size=2, rounds=2)
    assert any("batch of 1" in p for p in problems)
    assert any("decreased" in p for p in problems)


def test_yardstick_rescales_only_the_busy_part():
    # Half of 2 s was waiting; the busy half ran at half the reference speed.
    assert yardstick.adjusted(2.0, 1.0, 2 * yardstick.REF_S) == 1.0 + 0.5 ** yardstick.SENSITIVITY
    assert yardstick.adjusted(2.0, 0.0, 7 * yardstick.REF_S) == 2.0
    assert yardstick.measure() > 0
