"""Command-line entry point: run experiments, validate datasets, re-aggregate.

Exit codes: 0 success, 1 configuration/dataset error, 2 run failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import ConfigError, DatasetError, ExpdesignError
from .harness import (
    ExperimentConfig,
    aggregate_runs,
    read_runs_csv,
    run_many,
    write_report,
    RUNS_CSV,
)

_METRIC_ALIASES = {"cosine": "cosine", "l2sq": "l2-squared", "l2-squared": "l2-squared"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expdesign",
        description="Batch closed-loop experiment design over embedded candidate pools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded multi-run experiment")
    run.add_argument("--config", help="JSON config file; flags below override it")
    run.add_argument("--agent", help="agent kind (random, coreset, linucb, gp, bda, llmnn, llmnn-noexp, random-centroids)")
    run.add_argument("--rounds", type=int, help="number of rounds N")
    run.add_argument("--batch", type=int, help="candidates per round B")
    run.add_argument("--centers", type=int, help="cluster centers per round n_c")
    run.add_argument("--runs", type=int, help="number of seeded runs R")
    run.add_argument("--seed", type=int, help="base seed; run r uses seed + r")
    run.add_argument("--feedback", choices=["true", "randomized"], help="feedback mode")
    run.add_argument("--dataset", help="measurements CSV (name,score[,hit])")
    run.add_argument("--embeddings", help="embeddings CSV (name,v1,...,vd)")
    run.add_argument("--metric", choices=sorted(_METRIC_ALIASES), help="distance metric")
    run.add_argument("--fixtures", help="scripted LLM fixtures directory")
    run.add_argument("--out", help="output directory for runs.csv / summary.json / traces")

    val = sub.add_parser("validate", help="ingestion checks only: load the pool as run does")
    val.add_argument("--config", help="JSON config file; flags below override it")
    val.add_argument("--dataset", help="measurements CSV (name,score[,hit])")
    val.add_argument("--embeddings", help="embeddings CSV (name,v1,...,vd)")
    val.add_argument("--metric", choices=sorted(_METRIC_ALIASES), help="distance metric")
    val.add_argument("--expected-dim", type=int, help="required embedding dimension")
    val.add_argument("--percentile", type=float, help="hit percentile")

    rep = sub.add_parser("report", help="re-aggregate a finished run directory")
    rep.add_argument("--in", dest="in_dir", required=True, help="directory holding runs.csv")
    return parser


# Command-line flag -> config field, for the flags each command has.
_OVERRIDES = {
    "agent": "agent",
    "rounds": "rounds",
    "batch": "batch_size",
    "centers": "num_centers",
    "runs": "runs",
    "seed": "seed",
    "feedback": "feedback",
    "dataset": "dataset",
    "embeddings": "embeddings",
    "fixtures": "llm_fixtures",
    "out": "out",
    "expected_dim": "expected_dim",
    "percentile": "percentile",
}


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The ``--config`` file's config (defaults without one), overridden by
    the flags given on the command line, validated."""
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    for flag, value in vars(args).items():
        if flag in _OVERRIDES and value is not None:
            setattr(config, _OVERRIDES[flag], value)
    if args.metric is not None:
        config.metric = _METRIC_ALIASES[args.metric]
    config.validate()
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config(args)
    results = run_many(config, pool=config.load_pool())
    if not any(r.complete for r in results):
        first_error = next((r.error for r in results if r.error), "unknown")
        print(f"run failure: all {len(results)} run(s) aborted ({first_error})",
              file=sys.stderr)
        return 2
    summary = aggregate_runs(results)
    dataset_name = config.dataset_key or (config.dataset or "pool")
    if config.out:
        csv_path, json_path = write_report(
            summary,
            results,
            config.out,
            agent=config.agent,
            dataset=dataset_name,
            config=config,
        )
        print(f"wrote {csv_path} and {json_path}")
    print(
        f"{config.agent} on {dataset_name}: "
        f"mean final hits {summary.mean_final_hits:.2f} "
        f"(std {summary.std_final_hits:.2f}, {summary.num_runs} runs)"
    )
    failed = [r for r in results if not r.complete]
    if failed:
        print(f"{len(failed)} run(s) aborted and were excluded", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    pool = _config(args).load_pool()
    policy = pool.hit_policy
    threshold = "n/a" if policy.threshold is None else f"{policy.threshold:.6g}"
    print(
        f"ok: {len(pool)} candidates, dim {pool.embeddings.dim}, "
        f"{int(pool.hit_mask.sum())} hits ({policy.mode}, threshold {threshold})"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    csv_path = Path(args.in_dir) / RUNS_CSV
    if not csv_path.is_file():
        raise ConfigError(f"no {RUNS_CSV} in {args.in_dir}")
    results = read_runs_csv(csv_path)
    if not any(r.complete for r in results):
        print(f"run failure: {csv_path} holds no completed runs", file=sys.stderr)
        return 2
    try:
        summary = aggregate_runs(results)
    except ValueError as exc:  # completed runs of different lengths
        raise ConfigError(f"{csv_path}: {exc}") from None
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_report(args)
    except (ConfigError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExpdesignError as exc:
        print(f"run failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
