#!/usr/bin/env python3
"""Benchmark of the expdesign closed loop on seeded synthetic pools.

Run from the repository root:

    python3 perfbench/run.py --workload gene-screen --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload llm-http --seed 3 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke

One run generates the workload's pool from ``--seed`` and writes it to CSV,
times ``ExperimentConfig.load_pool`` on those files (set-up), then repeats
sweeps of the workload's agents through ``run_many``, ``aggregate_runs`` and
``write_report`` for about ``--seconds`` seconds; the first sweep is a
warm-up and is not timed. The reported times are host-speed adjusted: the
CPU time of the loads and of each sweep is rescaled by a reference kernel
timed between its parts (``yardstick.py``), so that neighbours on a shared
machine slowing every core for minutes do not read as a change of the
program.
Waiting, such as on the LLM stub, counts as measured, and the unadjusted
times are printed and kept in the details file. Every run is checked
(disjoint batches, batch sizes, monotone hits, byte-identical reports and
identical fingerprints across sweeps, and the reference fingerprints in
``reference.json`` at the default seed); a failed check makes the run count
as failed and the command exit 1. After a deliberate behaviour change,
re-record the references with ``--workload NAME --record-reference`` for
each workload and with ``--smoke --record-reference``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` sweeps alternate untraced and traced; the traced ones
record spans around the calls into each layer (see ``tracer.py``) and the
last line carries the per-layer metrics and the tracing overhead.

Everything the run writes goes under ``.perfbench/`` in the repository
root: details and spans under ``results/``; generated pools and reports
under ``work/``, which is deleted at the end. Exit codes: 0 all checks
passed, 1 a check failed, 2 the program could not be set up.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

# BLAS runs on one thread. OpenBLAS would otherwise start one spin-waiting
# thread per CPU, which stalls whenever a neighbour on a shared machine takes
# one of those CPUs, and whose reduction order depends on the CPU count, so
# fingerprints would differ between machines. Must be set before numpy is
# imported.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

try:
    import numpy as np
    import scipy

    from expdesign import (
        ExperimentConfig,
        ScriptedBackend,
        aggregate_runs,
        run_many,
        write_report,
    )
    from pools import write_pool
    from stub import ChatStub, scripted_policy
    from tracer import RoundClock, Tracer
    from workloads import END_TO_END, LAYERS, PER_LAYER, WORKLOADS, smoke
    import yardstick
except ImportError as exc:
    print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
    sys.exit(2)

DEFAULT_SEED = 0
# The stub answers a repeated body identically, so bda re-prompts only add
# endpoint waits; two are enough to exercise re-prompting and top-up.
BDA_RETRIES = 2
# Set-up is timed at least SETUP_REPEATS times, and more (up to five times
# as many) while the loads together take under SETUP_SECONDS.
SETUP_REPEATS = 3
SETUP_SECONDS = 5.0
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench"


@dataclasses.dataclass
class Sweep:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0  # of the thread that runs the loop
    adjusted_s: float = 0.0  # wall_s with cpu_s at the yardstick's reference speed
    agent_s: dict = dataclasses.field(default_factory=dict)  # label -> adjusted s
    rounds: list = dataclasses.field(default_factory=list)  # (kind, wall ms, adjusted ms)
    yardstick_s: list = dataclasses.field(default_factory=list)  # measurements
    reports: dict = dataclasses.field(default_factory=dict)  # label -> sha256s
    fingerprints: dict = dataclasses.field(default_factory=dict)  # label -> list
    runs: dict = dataclasses.field(default_factory=dict)  # label -> runs attempted
    failed: dict = dataclasses.field(default_factory=dict)  # label -> runs failed
    problems: list = dataclasses.field(default_factory=list)
    stub_requests: int = 0
    tracer: Tracer | None = None


def fingerprint(result) -> dict:
    """Final hits and a sha256 of the selections of one run."""
    text = "\n".join(",".join(batch) for batch in result.selections)
    return {
        "seed": result.seed,
        "final_hits": result.final_hits,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def check_run(result, pool, batch_size: int, rounds: int) -> list[str]:
    """Loop invariants of one finished run."""
    problems = []
    if not result.complete:
        problems.append(f"run aborted: {result.error}")
    if len(result.selections) != rounds:
        problems.append(f"{len(result.selections)} rounds, expected {rounds}")
    seen: set[str] = set()
    remaining = len(pool)
    total = 0
    for i, batch in enumerate(result.selections):
        if len(batch) != min(batch_size, remaining):
            problems.append(f"round {i + 1}: batch of {len(batch)}, "
                            f"expected {min(batch_size, remaining)}")
        if len(set(batch)) != len(batch) or not seen.isdisjoint(batch):
            problems.append(f"round {i + 1}: batch repeats a candidate")
        seen.update(batch)
        remaining = len(pool) - len(seen)
        hits = [name for name in batch if pool.is_hit(name)]
        total += len(hits)
        if result.hits[i] != hits or result.cumulative_hits[i] != total:
            problems.append(f"round {i + 1}: hit tally disagrees with the pool")
        if i and result.cumulative_hits[i] < result.cumulative_hits[i - 1]:
            problems.append(f"round {i + 1}: cumulative hits decreased")
    return problems


def file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_sweep(workload, base: ExperimentConfig, pool, work: Path, stub, clock: RoundClock,
              traced: bool) -> Sweep:
    """Every agent of the workload once; timed parts are the public API calls.

    The yardstick runs before the first agent and after each one, and the
    sweep's CPU time is rescaled by the mean of those measurements: one
    measurement is too noisy to rescale the agent run next to it.
    """
    sweep = Sweep(traced=traced, tracer=Tracer() if traced else None)
    if stub is not None:
        stub.reset()
        requests_before = stub.requests
    span = sweep.tracer.span if traced else (lambda name: contextlib.nullcontext())
    timings = []  # (label, wall to the end of run_many, its CPU, wall, CPU)
    gc.collect()
    sweep.yardstick_s.append(yardstick.measure())
    with sweep.tracer.installed() if traced else contextlib.nullcontext():
        for spec in workload.agents:
            out = work / "reports" / spec.label
            config = dataclasses.replace(base, agent=spec.kind, feedback=spec.feedback,
                                         out=str(out))
            factory = None
            if spec.scripted:
                policy = scripted_policy(pool.names)
                factory = lambda run_index: ScriptedBackend(fn=policy)  # noqa: E731
            start, cpu_start = time.perf_counter(), time.thread_time()
            with span("harness.run_many"):
                results = run_many(config, pool=pool, backend_factory=factory)
            ran, cpu_ran = time.perf_counter(), time.thread_time()
            try:
                with span("harness.aggregate"):
                    summary = aggregate_runs(results)
                with span("harness.write_report"):
                    write_report(summary, results, out, agent=config.agent,
                                 dataset=config.dataset_key, config=config)
            except ValueError as exc:
                sweep.problems.append(f"{spec.label}: no report: {exc}")
            timings.append((spec.label, ran - start, cpu_ran - cpu_start,
                            time.perf_counter() - start, time.thread_time() - cpu_start))
            sweep.yardstick_s.append(yardstick.measure())

            failed = 0
            for result in results:
                problems = check_run(result, pool, workload.batch_size, workload.rounds)
                sweep.problems += [f"{spec.label} seed {result.seed}: {p}" for p in problems]
                failed += bool(problems)
            sweep.runs[spec.label] = len(results)
            sweep.failed[spec.label] = failed
            sweep.fingerprints[spec.label] = [fingerprint(r) for r in results]
            sweep.reports[spec.label] = [
                file_sha(out / name) if (out / name).is_file() else None
                for name in ("runs.csv", "summary.json")
            ]
    if stub is not None:
        sweep.stub_requests = stub.requests - requests_before

    yard = statistics.mean(sweep.yardstick_s)
    for label, ran, cpu_ran, wall, cpu in timings:
        sweep.wall_s += wall
        sweep.cpu_s += cpu
        sweep.adjusted_s += yardstick.adjusted(wall, cpu, yard)
        sweep.agent_s[label] = yardstick.adjusted(ran, cpu_ran, yard)
    sweep.rounds = [(kind, w * 1e3, yardstick.adjusted(w, c, yard) * 1e3)
                    for kind, w, c in clock.rounds]
    clock.rounds.clear()
    return sweep


def compare_sweeps(first: Sweep, other: Sweep) -> None:
    """Mark every run of an agent failed when its reports or fingerprints
    differ from the first sweep's."""
    for label, runs in other.runs.items():
        if other.reports[label] != first.reports[label]:
            other.problems.append(f"{label}: report bytes differ between sweeps")
            other.failed[label] = runs
        if other.fingerprints[label] != first.fingerprints[label]:
            other.problems.append(f"{label}: fingerprints differ between sweeps")
            other.failed[label] = runs
    if other.stub_requests != first.stub_requests:
        other.problems.append("the stub served a different number of requests")


def reference_mismatches(fingerprints: dict, reference: dict) -> list[str]:
    """Agent labels whose fingerprints differ from the recorded reference."""
    labels = sorted(set(fingerprints) | set(reference))
    return [label for label in labels if fingerprints.get(label) != reference.get(label)]


def percentile_tail(min_rounds: int) -> float:
    """The highest ladder percentile with at least ten rounds beyond it."""
    return max(p for p in TAIL_LADDER if min_rounds * (100.0 - p) / 100.0 >= 10.0)


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        llc = 0
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "llc_bytes": llc,
    }


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced sweep, and the per-agent extras."""
    calls, incl, self_s = tracer.totals()
    counts = tracer.counts
    bda_slots = counts["agents.slots.bda"]
    bda_top_up = counts["agents.bda.top_up_slots"]
    renders = calls["prompts.render"]
    m = {
        "memory.scans": calls["memory.scan"],
        "memory.scan_s": incl["memory.scan"],
        "memory.scan_mb": counts["memory.scan_bytes"] / 1e6,
        "memory.nearest_unexplored.calls": calls["memory.nearest_unexplored"],
        "memory.nearest_unexplored_s": incl["memory.nearest_unexplored"],
        "memory.allocate_batch_s": incl["memory.allocate_batch"],
        "memory.mark_explored_s": incl["memory.mark_explored"],
        "agents.select_self_s": sum(v for k, v in self_s.items() if k.startswith("agents.")),
        "agents.bda.kept_ratio": (bda_slots - bda_top_up) / bda_slots if bda_slots else 0,
        "agents.bda.top_up_slots": bda_top_up,
        "agents.llmnn.center_substitutions":
            counts["agents.llmnn.center_substitutions"]
            + counts["agents.llmnn-noexp.center_substitutions"],
        "surrogates.linucb.fit_s": incl["surrogates.linucb.fit"],
        "surrogates.linucb.score_s": incl["surrogates.linucb.score"],
        "surrogates.gp.fit_s": incl["surrogates.gp.fit"],
        "surrogates.gp.posterior_s": incl["surrogates.gp.posterior"],
        "surrogates.median_heuristic_s": incl["surrogates.median_heuristic"],
        "surrogates.top_b_s": incl["surrogates.top_b"],
        "prompts.render_s": incl["prompts.render"],
        "prompts.parse_s": incl["prompts.parse"],
        "prompts.user_kb": counts["prompts.user_bytes"] / 1024 / renders if renders else 0,
        "backends.calls": calls["backends.chat_with_retry"],
        "backends.attempts": calls["backends.chat"],
        "backends.transient_errors": counts["backends.transient_errors"],
        "backends.parse_rejections": counts["backends.parse_rejections"],
        "backends.failed": counts["backends.failed"],
        "backends.wait_s": incl["backends.chat"],
        "backends.useful_ratio": (calls["backends.chat_with_retry"] / calls["backends.chat"]
                                  if calls["backends.chat"] else 0),
        "feedback.randomize.calls": calls["feedback.randomize"],
        "feedback.randomize_s": incl["feedback.randomize"],
        "feedback.records": counts["feedback.records"],
        "harness.self_s": sum(v for k, v in self_s.items() if k.startswith("harness.")
                              and k not in ("harness.aggregate", "harness.write_report")),
        "harness.aggregate_s": incl["harness.aggregate"],
        "harness.write_report_s": incl["harness.write_report"],
    }
    extras = {f"agents.select_self_s.{k.rsplit('.', 1)[1]}": v
              for k, v in self_s.items() if k.startswith("agents.select.")}
    extras["backends.http_attempts"] = counts["backends.http_attempts"]
    for layer in ("memory", "agents", "surrogates", "prompts", "backends", "feedback",
                  "harness"):
        extras[f"self_s.{layer}"] = sum(v for k, v in self_s.items()
                                        if k.startswith(layer + "."))
    return m, extras


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def run_workload(workload, seed: int, seconds: float, trace: bool, size: str = "full",
                 reference: dict | None = None) -> dict:
    """One benchmark run of one workload; returns metrics, checks and records."""
    tag = f"{workload.name}-{size}-seed{seed}"
    work = OUT / "work" / tag
    try:
        files = write_pool(workload.shape, seed, work, "pool")
        csv_bytes = files.csv_bytes
        base = ExperimentConfig(
            dataset=str(files.measurements),
            embeddings=str(files.embeddings),
            metric=workload.metric,
            element_filter=workload.element_filter,
            dataset_key=workload.dataset_key,
            rounds=workload.rounds,
            batch_size=workload.batch_size,
            num_centers=workload.num_centers,
            runs=workload.runs,
            seed=seed,
            bda_retries=BDA_RETRIES,
            llm_model="stub",
        )
        setup_times = []
        setup_walls = []
        pool_metrics = {}
        if trace:
            load_tracer = Tracer()
            with load_tracer.installed():
                pool = base.load_pool()
            _, incl, _ = load_tracer.totals()
            pool_metrics = {"pool.load_s": incl["pool.load"],
                            "pool.resolve_hit_policy_s": incl["pool.resolve_hit_policy"]}
        else:
            # Rescaled as sweeps are: by the mean yardstick around the loads.
            setup_cpus = []
            yards = [yardstick.measure()]
            while len(setup_walls) < SETUP_REPEATS or (
                sum(setup_walls) < SETUP_SECONDS and len(setup_walls) < 5 * SETUP_REPEATS
            ):
                pool = None
                gc.collect()
                start, cpu_start = time.perf_counter(), time.thread_time()
                pool = base.load_pool()
                setup_walls.append(time.perf_counter() - start)
                setup_cpus.append(time.thread_time() - cpu_start)
                yards.append(yardstick.measure())
            setup_times = [yardstick.adjusted(w, c, statistics.mean(yards))
                           for w, c in zip(setup_walls, setup_cpus)]
        pool_metrics.update({"pool.csv_mb": csv_bytes / 1e6, "pool.rows": len(pool)})

        clock = RoundClock()
        sweeps: list[Sweep] = []
        with contextlib.ExitStack() as stack:
            stub = None
            if workload.service_delay_s:
                stub = stack.enter_context(ChatStub(pool.names, workload.service_delay_s))
                base = dataclasses.replace(base, llm_endpoint=stub.url)
                for var in ("no_proxy", "NO_PROXY"):
                    os.environ[var] = ",".join(filter(None, (os.environ.get(var), "127.0.0.1")))
            stack.enter_context(clock.installed())
            # Sweep 0 warms caches and is not timed; with --trace 1 the
            # timed sweeps alternate traced and untraced.
            need = 3 if trace else workload.min_sweeps + 1
            start = time.perf_counter()
            while True:
                traced = trace and len(sweeps) % 2 == 1
                sweeps.append(run_sweep(workload, base, pool, work, stub, clock, traced))
                if len(sweeps) > 1:
                    compare_sweeps(sweeps[0], sweeps[-1])
                elapsed = time.perf_counter() - start
                if len(sweeps) >= need and elapsed + sweeps[-1].wall_s > seconds:
                    break
            stub_faults = dict(stub.faults) if stub else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for s in sweeps for p in s.problems]
    failed = {label: sum(s.failed[label] for s in sweeps) for label in sweeps[0].failed}
    attempted = sum(sum(s.runs.values()) for s in sweeps)
    fingerprints = sweeps[0].fingerprints
    if reference is not None and seed == DEFAULT_SEED:
        for label in reference_mismatches(fingerprints, reference):
            problems.append(f"{label}: fingerprints differ from the recorded reference")
            failed[label] = sum(s.runs.get(label, 0) for s in sweeps)
    machine = machine_record()
    if machine["blas_threads"] not in (None, BLAS_THREADS):
        problems.append(f"BLAS runs {machine['blas_threads']} threads, expected {BLAS_THREADS}")
    for s in sweeps:
        if s.traced and s.tracer.counts["backends.http_attempts"] != s.stub_requests:
            problems.append("backend attempts disagree with the requests the stub served")

    untraced = [s for s in sweeps[1:] if not s.traced]
    rounds = [r for s in untraced for r in s.rounds]
    adjusted_ms = [a for _, _, a in rounds]
    wall_ms = [w for _, w, _ in rounds]
    tail_p = percentile_tail(workload.min_sweeps * workload.rounds_per_sweep)
    extras = {
        f"agent_s.{label}": statistics.median(s.agent_s[label] for s in untraced)
        for label in sweeps[0].agent_s
    }
    extras["runs_failed_frac"] = sum(failed.values()) / attempted
    extras["yardstick_s"] = statistics.median(y for s in sweeps for y in s.yardstick_s)
    extras["experiment_wall_s"] = statistics.median(s.wall_s for s in untraced)
    if trace:
        traced_sweeps = [s for s in sweeps if s.traced]
        per_sweep = [layer_metrics(s.tracer) for s in traced_sweeps]
        metrics = {**pool_metrics, **median_of([m for m, _ in per_sweep])}
        metrics["trace.overhead_s"] = (
            statistics.median(s.adjusted_s for s in traced_sweeps)
            - statistics.median(s.adjusted_s for s in untraced)
        )
        extras.update(median_of([e for _, e in per_sweep]))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "experiment_s": statistics.median(s.adjusted_s for s in untraced),
            "round_ms.p50": float(np.percentile(adjusted_ms, 50.0, method="lower")),
            "round_ms.tail": float(np.percentile(adjusted_ms, tail_p, method="lower")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extras["setup_wall_s"] = statistics.median(setup_walls)
        extras["round_wall_ms.p50"] = float(np.percentile(wall_ms, 50.0, method="lower"))
        extras["round_wall_ms.tail"] = float(np.percentile(wall_ms, tail_p, method="lower"))
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    return {
        "workload": workload.name,
        "size": size,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(failed.values()),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "extras": extras,
        "rounds": {
            "count": len(rounds),
            "tail_percentile": tail_p,
            "median_adjusted_ms_by_kind": {
                kind: statistics.median(a for k, _, a in rounds if k == kind)
                for kind in sorted({k for k, _, _ in rounds})
            },
        },
        "layers": LAYERS,
        "sweeps": {"count": len(sweeps), "traced": sum(s.traced for s in sweeps),
                   "wall_s": [s.wall_s for s in sweeps], "cpu_s": [s.cpu_s for s in sweeps],
                   "adjusted_s": [s.adjusted_s for s in sweeps],
                   "yardstick_s": [s.yardstick_s for s in sweeps]},
        "stub": {"requests_per_sweep": sweeps[0].stub_requests, "faults": stub_faults},
        "machine": machine,
        "inputs": {
            "rows_written": files.rows,
            "pool": [len(pool), pool.embeddings.dim],
            "csv_bytes": csv_bytes,
            "embedding_bytes": pool.embeddings.matrix.nbytes,
            "llc_bytes": machine["llc_bytes"],
        },
        "fingerprints": fingerprints,
        "problems": problems,
        "spans": [
            {"sweep": i, **span} for i, s in enumerate(sweeps) if s.traced
            for span in s.tracer.span_table()
        ],
    }


def report_lines(result: dict) -> list[str]:
    """Human-readable summary: machine, inputs, then every metric with unit."""
    m, i = result["machine"], result["inputs"]
    lines = [
        f"# perfbench {result['workload']} size={result['size']} seed={result['seed']} "
        f"trace={result['trace']}",
        f"# machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
        f"scipy={m['scipy']} blas={m['blas']} blas_threads={m['blas_threads']}",
        f"# inputs: pool {i['pool'][0]} x {i['pool'][1]} ({i['rows_written']} rows written), "
        f"csv {i['csv_bytes'] / 1e6:.1f} MB, embeddings {i['embedding_bytes'] / 1e6:.1f} MB "
        f"vs last-level cache {i['llc_bytes'] / 1e6:.1f} MB",
        f"# sweeps: {result['sweeps']['count']} ({result['sweeps']['traced']} traced, "
        f"1 warm-up); runs: {result['attempted']} attempted, {result['failed']} failed",
        f"# times are host-speed adjusted: CPU time rescaled to a yardstick of "
        f"{yardstick.REF_S:g} s (measured {result['extras']['yardstick_s']:.4f} s); "
        f"*_wall_* are as measured",
    ]
    if result["stub"]["requests_per_sweep"]:
        lines.append(f"# stub: {result['stub']['requests_per_sweep']} requests per sweep, "
                     f"faults {result['stub']['faults']}")
    rounds = result["rounds"]
    for name, metric in result["metrics"].items():
        note = ""
        if name.startswith("round_ms."):
            p = 50.0 if name.endswith("p50") else rounds["tail_percentile"]
            note = f"  (p{p:g} of {rounds['count']} rounds)"
        lines.append(f"{name:<40} {metric['value']:>14.6g} {metric['unit']}{note}")
    for name, value in sorted(result["extras"].items()):
        unit = {"runs_failed_frac": "frac", "backends.http_attempts": "count"}.get(
            name, "ms" if "_ms." in name else "s")
        lines.append(f"{name:<40} {value:>14.6g} {unit}")
    lines += [f"! {p}" for p in result["problems"][:20]]
    return lines


def write_details(result: dict) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-{result['size']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans")
    if spans:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def last_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def smoke_main(seconds: float) -> int:
    """All workloads at toy size, untraced and traced; checks the output
    schema and the reference fingerprints."""
    reference = load_reference()
    ok = True
    for workload in WORKLOADS.values():
        toy = smoke(workload)
        for trace in (False, True):
            result = run_workload(toy, DEFAULT_SEED, seconds, trace, "smoke",
                                  reference.get(f"smoke/{toy.name}"))
            expected = PER_LAYER if trace else END_TO_END
            schema_ok = list(result["metrics"]) == list(expected)
            print("\n".join(report_lines(result)))
            write_details(result)
            ok = ok and result["correct"] and schema_ok
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default 25; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the output")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's fingerprints as the reference "
                             "(default seed only)")
    args = parser.parse_args(argv)
    size = "smoke" if args.smoke else "full"
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 25.0
    if args.smoke and not args.record_reference:
        return smoke_main(args.seconds)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")
    if args.record_reference:
        if args.seed != DEFAULT_SEED:
            parser.error("references are recorded at the default seed")
        reference = load_reference()
        names = sorted(WORKLOADS) if args.workload is None else [args.workload]
        for name in names:
            workload = smoke(WORKLOADS[name]) if args.smoke else WORKLOADS[name]
            result = run_workload(workload, args.seed, 0.0, False, size)
            if not result["correct"]:
                print("\n".join(report_lines(result)))
                return 1
            reference[f"{size}/{name}"] = result["fingerprints"]
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        return 0
    workload = WORKLOADS[args.workload]
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), size,
                          load_reference().get(f"{size}/{args.workload}"))
    print("\n".join(report_lines(result)))
    write_details(result)
    print(last_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
