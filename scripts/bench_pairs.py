"""Alternating parent/change pairs of the benchmark, written as a trajectory file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --parent-rev REV \\
        --out BENCH_13.json gene-screen:0:5 gene-screen:7:5 molecule:0:5 llm-http:0:5

``DIR`` holds the files of one commit (``git archive`` into an empty
directory). Each ``WORKLOAD:SEED:PAIRS`` runs ``PAIRS`` pairs of
``perfbench/run.py --workload WORKLOAD --seed SEED --seconds 25 --trace 0``,
once in each directory, alternating which side runs first, and reads each
run's details file. Every run also records, for each set-up load, the
loading process's wall and CPU time and the CPU time and peak resident size
of the processes it forked (``RUSAGE_CHILDREN``), which the benchmark does
not report: the run calls ``main`` of the directory's ``perfbench/run.py``
with ``ExperimentConfig.load_pool`` wrapped (``--measure-loads``).

Each run also keeps where the time went, from its details file:
``extras.experiment_wall_s``, ``extras.round_wall_ms.p50`` and
``extras.round_wall_ms.tail``, every ``extras.agent_s.*`` and
``rounds.median_adjusted_ms_by_kind``. The benchmark's adjusted times count
the CPU time of worker threads as waiting, so these show a saving apart
from the end-to-end metrics, and the wall-clock rounds one that threads
make.

The output holds, per workload: the pair count, each side's median and
quartiles of every end-to-end metric with the change's wins, each side's
medians of those time breakdowns and of the load times, and the seed-0
fingerprints; then every run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUN_ARGS = ["--seconds", "25", "--trace", "0"]


def measure_loads(checkout: str, out: str, args: list[str]) -> int:
    """run.py's main in this process, with every load_pool call timed."""
    spec = importlib.util.spec_from_file_location("perfbench_run", f"{checkout}/perfbench/run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run
    spec.loader.exec_module(run)
    loads = []
    load_pool = run.ExperimentConfig.load_pool

    def timed(self, *a, **k):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            return load_pool(self, *a, **k)
        finally:
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            loads.append({
                "wall_s": time.perf_counter() - wall,
                "cpu_s": time.thread_time() - cpu,
                "children_cpu_s": (after.ru_utime + after.ru_stime)
                - (before.ru_utime + before.ru_stime),
                "children_peak_rss_mb": after.ru_maxrss / 1024,
            })

    run.ExperimentConfig.load_pool = timed
    code = run.main(args)
    Path(out).write_text(json.dumps(loads))
    return code


def run_side(checkout: Path, workload: str, seed: int, tmp: Path) -> dict:
    loads = tmp / "loads.json"
    loads.unlink(missing_ok=True)
    args = ["--workload", workload, "--seed", str(seed), *RUN_ARGS]
    proc = subprocess.run(
        [sys.executable, __file__, "--measure-loads", str(checkout), str(loads), *args],
        capture_output=True, text=True,
    )
    details = json.loads(
        (checkout / ".perfbench" / "results" / f"{workload}-full-seed{seed}-trace0.json")
        .read_text()
    )
    extras = details["extras"]
    return {
        "exit": proc.returncode,
        "correct": details["correct"],
        "metrics": {name: m["value"] for name, m in details["metrics"].items()},
        "units": {name: m["unit"] for name, m in details["metrics"].items()},
        "setup_wall_s": extras["setup_wall_s"],
        "breakdown": {
            "experiment_wall_s": extras["experiment_wall_s"],
            "round_wall_ms.p50": extras["round_wall_ms.p50"],
            "round_wall_ms.tail": extras["round_wall_ms.tail"],
            **{name: value for name, value in extras.items() if name.startswith("agent_s.")},
            **{f"round_ms.{kind}": value for kind, value
               in details["rounds"]["median_adjusted_ms_by_kind"].items()},
        },
        "loads": json.loads(loads.read_text()) if loads.exists() else [],
        "fingerprints": details["fingerprints"],
        "machine": details["machine"],
    }


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Per workload: pairs, per-metric spreads and wins, loads, seed-0 fingerprints."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        units = pairs[0]["parent"]["units"]
        metrics = {}
        for name, unit in units.items():
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            metrics[name] = {
                "unit": unit,
                "parent": spread(parent),
                "change": spread(change),
                "change_wins": sum(c < p for p, c in zip(parent, change)),
            }
        loads = {
            side: {key: statistics.median(load[key] for p in pairs for load in p[side]["loads"])
                   for key in ("wall_s", "cpu_s", "children_cpu_s", "children_peak_rss_mb")}
            for side in ("parent", "change")
        }
        breakdown = {
            side: {key: statistics.median(p[side]["breakdown"][key] for p in pairs)
                   for key in pairs[0][side]["breakdown"]}
            for side in ("parent", "change")
        }
        seed0 = [p for p in pairs if p["seed"] == 0]
        out[workload] = {
            "pairs": len(pairs),
            "seeds": sorted({p["seed"] for p in pairs}),
            "correct": all(p[s]["correct"] and p[s]["exit"] == 0
                           for p in pairs for s in ("parent", "change")),
            "metrics": metrics,
            "breakdown_median": breakdown,
            "loads_median": loads,
            "fingerprints_seed0": {
                "parent": seed0[0]["parent"]["fingerprints"] if seed0 else None,
                "change": seed0[0]["change"]["fingerprints"] if seed0 else None,
                "equal": all(p["parent"]["fingerprints"] == p["change"]["fingerprints"]
                             for p in seed0),
            },
        }
    return out


def main() -> int:
    if sys.argv[1:2] == ["--measure-loads"]:
        checkout, out, *args = sys.argv[2:]
        return measure_loads(checkout, out, args)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-rev", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("specs", nargs="+", help="WORKLOAD:SEED:PAIRS")
    args = parser.parse_args()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for spec in args.specs:
            workload, seed, count = spec.split(":")
            for _ in range(int(count)):
                first = "parent" if len(runs) % 2 == 0 else "change"
                pair = {"workload": workload, "seed": int(seed), "first": first}
                sides = ["parent", "change"] if first == "parent" else ["change", "parent"]
                for side in sides:
                    pair[side] = run_side(getattr(args, side).resolve(), workload, int(seed),
                                          Path(tmp))
                runs.append(pair)
                print(workload, seed, {s: round(pair[s]["metrics"]["setup_s"], 3) for s in sides},
                      flush=True)
    summary = {
        "command": " ".join(["python3", "scripts/bench_pairs.py", *sys.argv[1:]]),
        "parent_rev": args.parent_rev,
        "run_args": RUN_ARGS,
        "machine": runs[0]["parent"]["machine"],
        "workloads": summarize(runs),
        "runs": runs,
    }
    for pair in runs:
        for side in ("parent", "change"):
            del pair[side]["machine"], pair[side]["units"], pair[side]["fingerprints"]
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
