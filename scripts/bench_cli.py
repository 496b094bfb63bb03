"""Alternating parent/change pairs of ``python -m expdesign run``, timed end to end.

    python3 scripts/bench_cli.py --parent DIR --change DIR --parent-rev REV \\
        --out BENCH_19.json molecule:random-centroids:0:5 gene-screen:linucb:0:5

``DIR`` holds the files of one commit (``git archive`` into an empty
directory). Each ``WORKLOAD:AGENT:SEED:PAIRS`` writes the benchmark
workload's pool at that seed once (``perfbench/pools.py`` of the change),
then runs ``PAIRS`` pairs of ``python -m expdesign run`` on it with the
workload's rounds, batch size, centers and runs and the agent's feedback
mode, once with each directory's ``src`` on the path, alternating which
side runs first. The BLAS thread variables (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) are removed from the children's
environment, so each run uses the thread model the CLI sets itself, as it
does for a user. ``perfbench/run.py`` pins the threads before it loads
numpy, so it cannot time this path.

Each run records its wall time, CPU time and peak resident size (from
``os.wait4``), and whether its ``runs.csv`` and ``summary.json`` equal the
other side's bytes. The result is written under the key ``cli`` of the
output file, whose other keys are kept (``scripts/bench_pairs.py`` may have
written them).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import spread

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPORTS = ("runs.csv", "summary.json")


def write_config(change: Path, workload_name: str, agent: str, seed: int, tmp: Path) -> Path:
    """The workload's pool at this seed and a config file running the agent on it."""
    for path in (str(change / "src"), str(change / "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from expdesign.harness import ExperimentConfig
    from pools import write_pool
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    spec = next(s for s in workload.agents if s.kind == agent)
    files = write_pool(workload.shape, seed, tmp, f"{workload_name}-{seed}")
    config = ExperimentConfig(
        agent=agent,
        feedback=spec.feedback,
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
    )
    path = tmp / f"{workload_name}-{agent}-{seed}.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


def run_side(checkout: Path, config: Path, out: Path) -> dict:
    """One ``expdesign run`` with this checkout's sources, timed."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(checkout / "src")
    with open(out.with_suffix(".stderr"), "w+b") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "expdesign", "run", "--config", str(config),
             "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=stderr,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        stderr.seek(0)
        message = stderr.read().decode()[-2000:]
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "stderr": message,
    }


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for case in dict.fromkeys(p["case"] for p in pairs):
        mine = [p for p in pairs if p["case"] == case]
        metrics = {}
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            parent = [p["parent"][name] for p in mine]
            change = [p["change"][name] for p in mine]
            metrics[name] = {
                "parent": spread(parent),
                "change": spread(change),
                "change_wins": sum(c < p for p, c in zip(parent, change)),
            }
        out[case] = {
            "pairs": len(mine),
            "ok": all(p[s]["exit"] == 0 for p in mine for s in ("parent", "change")),
            "reports_equal": all(p["reports_equal"] for p in mine),
            "metrics": metrics,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-rev", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("specs", nargs="+", help="WORKLOAD:AGENT:SEED:PAIRS")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for spec in args.specs:
            workload, agent, seed, count = spec.split(":")
            config = write_config(sides["change"], workload, agent, int(seed), tmp)
            for _ in range(int(count)):
                first = "parent" if len(pairs) % 2 == 0 else "change"
                order = ["parent", "change"] if first == "parent" else ["change", "parent"]
                pair = {"case": f"{workload}:{agent}", "seed": int(seed), "first": first}
                # Both sides write to one directory, which summary.json names.
                reports = {}
                for side in order:
                    pair[side] = run_side(sides[side], config, tmp / "out")
                    reports[side] = [(tmp / "out" / name).read_bytes() for name in REPORTS]
                pair["reports_equal"] = reports["parent"] == reports["change"]
                pairs.append(pair)
                print(pair["case"], seed,
                      {s: round(pair[s]["wall_s"], 3) for s in order}, flush=True)
    result = {
        "command": " ".join(["python3", "scripts/bench_cli.py", *sys.argv[1:]]),
        "parent_rev": args.parent_rev,
        "cpus": len(os.sched_getaffinity(0)),
        "cases": summarize(pairs),
        "runs": pairs,
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["cli"] = result
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
