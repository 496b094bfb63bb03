"""The round loop, seeded multi-run execution, aggregation, and reporting.

Reproducibility contract: every stochastic choice in a run draws from one
numpy PCG64 generator seeded with the run seed; run seeds are base seed +
run index; the feedback-randomization ablation draws from a separate
generator seeded with (run seed, round number) so it never perturbs the
selection stream.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import re
import sys
import typing
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .agents import AGENT_KINDS, LLM_AGENT_KINDS, make_agent
from .backends import HttpBackend, LlmBackend, ScriptedBackend
from .errors import BackendError, ConfigError, PromptError
from .feedback import Feedback, FeedbackRecord, randomize_feedback
from .memory import CandidateMemory
from .pool import (
    CandidatePool,
    HIT_MODES,
    METRIC_L2_SQUARED,
    METRICS,
    _csv_reader,
    load_pool,
)
from .prompts import DATASET_DESCRIPTORS, DOMAINS, DatasetDescriptors, PromptSpec
from .surrogates import square_is_normal

logger = logging.getLogger(__name__)

FEEDBACK_TRUE = "true"
FEEDBACK_RANDOMIZED = "randomized"

REPORT_SCHEMA_VERSION = 1
RUNS_CSV = "runs.csv"
SUMMARY_JSON = "summary.json"


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; JSON-loadable, CLI-overridable."""

    agent: str = "random"
    dataset: str | None = None
    embeddings: str | None = None
    out: str | None = None
    rounds: int = 5
    batch_size: int = 128
    num_centers: int = 5
    runs: int = 5
    seed: int = 0
    feedback: str = FEEDBACK_TRUE
    randomize_level1: bool = True
    randomize_level2: bool = True
    randomize_fresh_each_round: bool = True
    metric: str = METRIC_L2_SQUARED
    expected_dim: int | None = None
    hit_mode: str | None = None
    percentile: float = 90.0
    element_filter: tuple[str, ...] | None = None
    score_range: tuple[float, float] | None = None
    domain: str | None = None
    dataset_key: str | None = None
    func_desc: str | None = None
    score_desc: str | None = None
    candidate_space_info: str | None = None
    linucb_ridge: float = 1.0
    linucb_alpha: float = 1.0
    linucb_standardize: bool = True
    gp_beta: float = 2.0
    gp_length_scale: float | None = None
    gp_signal_var: float | None = None
    gp_noise_var: float | None = None
    gp_standardize: bool = True
    gp_subsample: int = 512
    llm_endpoint: str | None = None
    llm_model: str | None = None
    llm_temperature: float = 1.0
    llm_max_tokens: int = 4096
    llm_max_attempts: int = 3
    llm_fixtures: str | None = None
    bda_retries: int = 5

    _NESTED = {"llm", "linucb", "gp"}
    # field -> (bound, strict): the value must exceed the bound (strict) or
    # reach it; unset optional fields are not checked.
    _LOWER_BOUNDS = {
        "linucb_ridge": (0, True),
        "linucb_alpha": (0, False),
        "gp_beta": (0, False),
        "gp_length_scale": (0, True),
        "gp_signal_var": (0, True),
        "gp_noise_var": (0, False),
        "gp_subsample": (2, False),
        "llm_max_attempts": (1, False),
        "llm_max_tokens": (1, False),
        "llm_temperature": (0, False),
        "bda_retries": (0, False),
        "expected_dim": (1, False),
    }

    @classmethod
    def _label(cls, key: str) -> str:
        """Config-file spelling of a field: ``llm_model`` is ``llm.model``."""
        head, _, tail = key.partition("_")
        return f"{head}.{tail}" if head in cls._NESTED else key

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build from a JSON-style dict; group keys like ``llm.endpoint`` live
        in nested objects (``{"llm": {"endpoint": ...}}``)."""
        flat: dict = {}
        fields = {f.name for f in dataclasses.fields(cls)}
        for key, value in data.items():
            if key in cls._NESTED:
                if not isinstance(value, dict):
                    raise ConfigError(f"config key {key!r} must be an object")
                for sub, subval in value.items():
                    flat[f"{key}_{sub}"] = subval
            elif cls._label(key) != key:
                raise ConfigError(
                    f"config key {key!r} belongs in a nested object: write {cls._label(key)!r}"
                )
            else:
                flat[key] = value
        unknown = sorted(cls._label(key) for key in set(flat) - fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        hints = typing.get_type_hints(cls)
        return cls(**{k: _typed(cls._label(k), hints[k], v) for k, v in flat.items()})

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        """Nested-form dict mirroring the config file format."""
        out: dict = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            head, _, tail = f.name.partition("_")
            if head in self._NESTED:
                out.setdefault(head, {})[tail] = value
            else:
                out[f.name] = value
        return out

    def validate(self, pool_size: int | None = None) -> None:
        if self.agent not in AGENT_KINDS:
            raise ConfigError(f"unknown agent kind {self.agent!r}")
        if min(self.rounds, self.batch_size, self.num_centers, self.runs) < 1:
            raise ConfigError("rounds, batch, centers, and runs must all be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        for key, (bound, strict) in self._LOWER_BOUNDS.items():
            value = getattr(self, key)
            if value is not None and not (value > bound if strict else value >= bound):
                raise ConfigError(
                    f"config key {self._label(key)!r} must be "
                    f"{'>' if strict else '>='} {bound}, got {value!r}"
                )
        if self.gp_length_scale is not None and not square_is_normal(self.gp_length_scale):
            raise ConfigError(
                "config key 'gp.length_scale' must be a length whose square is a "
                f"positive normal float, got {self.gp_length_scale!r}"
            )
        if self.feedback not in (FEEDBACK_TRUE, FEEDBACK_RANDOMIZED):
            raise ConfigError("feedback mode must be 'true' or 'randomized'")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.hit_mode is not None and self.hit_mode not in HIT_MODES:
            raise ConfigError(f"unknown hit mode {self.hit_mode!r}")
        if self.domain is not None and self.domain not in DOMAINS:
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.dataset_key is not None and self.dataset_key not in DATASET_DESCRIPTORS:
            raise ConfigError(f"unknown dataset key {self.dataset_key!r}")
        if self.agent in LLM_AGENT_KINDS:
            self.prompt_spec()
        if pool_size is not None and self.rounds * self.batch_size > pool_size:
            warnings.warn(
                f"budget {self.rounds}x{self.batch_size} exceeds pool size "
                f"{pool_size}; later rounds will select fewer candidates",
                stacklevel=2,
            )

    def descriptor_args(self) -> dict:
        """Resolved prompt descriptors: each explicit string, else the
        ``dataset_key`` registry entry's."""
        desc = DATASET_DESCRIPTORS.get(self.dataset_key)
        return {
            f.name: getattr(self, f.name) or getattr(desc, f.name, None)
            for f in dataclasses.fields(DatasetDescriptors)
        }

    def prompt_spec(self) -> PromptSpec:
        """Round 1's prompt spec for LLM agent ``self.agent`` (its kind is the
        prompt variant); a spec that cannot render is a ConfigError."""
        try:
            return PromptSpec(
                variant=self.agent,
                round_num=1,
                batch_len=self.batch_size,
                num_centers=self.num_centers,
                num_rounds=self.rounds,
                **self.descriptor_args(),
            )
        except PromptError as exc:
            raise ConfigError(f"agent {self.agent!r} prompt descriptors: {exc}") from None

    def load_pool(self) -> CandidatePool:
        if self.dataset is None or self.embeddings is None:
            raise ConfigError("config needs dataset and embeddings paths")
        return load_pool(
            self.dataset,
            self.embeddings,
            metric=self.metric,
            expected_dim=self.expected_dim,
            hit_mode=self.hit_mode,
            percentile=self.percentile,
            element_filter=self.element_filter,
            score_range=self.score_range,
        )

    def make_backend(self) -> LlmBackend | None:
        """Fresh backend for one run (scripted call counters are per-run);
        unusable backend settings are a ConfigError."""
        if self.agent not in LLM_AGENT_KINDS:
            return None
        if self.llm_fixtures is not None:
            if not Path(self.llm_fixtures).is_dir():
                raise ConfigError(f"llm.fixtures directory not found: {self.llm_fixtures}")
            return ScriptedBackend.from_dir(self.llm_fixtures)
        if not self.llm_endpoint:
            raise ConfigError(
                f"agent {self.agent!r} needs llm.fixtures or llm.endpoint"
            )
        if not self.llm_model:
            raise ConfigError("llm.endpoint needs llm.model")
        try:
            return HttpBackend(self.llm_endpoint, self.llm_model)
        except BackendError as exc:
            raise ConfigError(f"llm.endpoint: {exc}") from None


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _typed(label: str, hint, value):
    """``value`` if it fits the config field type ``hint``; else ConfigError.

    JSON ints pass for float fields and bools never pass for numbers; a
    number for a float field must be a finite float (``json`` parses
    ``Infinity``, ``NaN`` and integers of any size). Lists become tuples,
    with float members converted.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        hint = args[0]
    if typing.get_origin(hint) is tuple:
        members = typing.get_args(hint)
        fixed = Ellipsis not in members
        if not isinstance(value, (list, tuple)) or (fixed and len(value) != len(members)):
            size = f" of {len(members)} items" if fixed else ""
            raise ConfigError(f"config key {label!r} must be a list{size}, got {value!r}")
        return tuple(members[0](_typed(label, members[0], v)) for v in value)
    accepted = (int, float) if hint is float else hint
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"config key {label!r} must be {_TYPE_NAMES[hint]}, got {value!r}")
    if hint is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config key {label!r} must be a finite number, got {value!r}")
    return value


@dataclass
class RunResult:
    """One run's trajectory: selections, hits, and cumulative hit counts."""

    seed: int
    selections: list[list[str]] = field(default_factory=list)
    hits: list[list[str]] = field(default_factory=list)
    cumulative_hits: list[int] = field(default_factory=list)
    complete: bool = True
    error: str | None = None
    trace_path: str | None = None

    @property
    def final_hits(self) -> int:
        return self.cumulative_hits[-1] if self.cumulative_hits else 0


class _TraceWriter:
    """JSON-lines event log for one run."""

    def __init__(self, path: str | Path | None):
        self.path = str(path) if path is not None else None
        self._fh = _create(path) if path is not None else None

    def __call__(self, event: dict) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(event, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def _create(path: str | Path, newline: str | None = None):
    """``path`` opened for writing UTF-8 text; a path that cannot be written
    (a directory in its place, a missing permission) is a ConfigError."""
    try:
        return open(path, "w", newline=newline, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _make_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from None


def _feedback_rng(seed: int, round_num: int) -> np.random.Generator:
    # Separate stream per (run, round): ablation shuffles never consume
    # draws from the agent's generator.
    return np.random.default_rng([seed, round_num])


def run_experiment(
    config: ExperimentConfig,
    seed: int,
    pool: CandidatePool | None = None,
    backend: LlmBackend | None = None,
    trace_path: str | Path | None = None,
) -> RunResult:
    """Execute one seeded run of the closed loop.

    Round 1 sees no feedback; round i > 1 sees every candidate selected in
    rounds 1..i-1 with its measurement and hit flag (randomized when the
    ablation is on). A permanent LLM-backend failure aborts the run and
    returns a partial result flagged incomplete.
    """
    if pool is None:
        pool = config.load_pool()
    config.validate(pool_size=len(pool))
    if backend is None:
        backend = config.make_backend()
    trace = _TraceWriter(trace_path)
    memory = CandidateMemory(pool)
    rng = np.random.default_rng(seed)
    result = RunResult(seed=seed, trace_path=trace.path)
    records: list[FeedbackRecord] = []
    frozen_randomized: list[FeedbackRecord] = []
    total_hits = 0
    try:
        agent = make_agent(config, pool, backend, trace)
        for round_num in range(1, config.rounds + 1):
            if memory.num_unexplored == 0:
                logger.warning(
                    "pool exhausted before round %d; selecting nothing", round_num
                )
                result.selections.append([])
                result.hits.append([])
                result.cumulative_hits.append(total_hits)
                continue
            feedback: Feedback | None = None
            if records:
                if config.feedback == FEEDBACK_RANDOMIZED:
                    # Fresh shuffles randomize every record each round; frozen
                    # ones randomize each round's records once, on arrival.
                    if config.randomize_fresh_each_round:
                        frozen_randomized.clear()
                    shuffled = randomize_feedback(
                        Feedback(tuple(records[len(frozen_randomized) :])),
                        config.randomize_level1,
                        config.randomize_level2,
                        _feedback_rng(seed, round_num),
                    )
                    frozen_randomized.extend(shuffled.records)
                    feedback = Feedback(tuple(frozen_randomized))
                else:
                    feedback = Feedback(tuple(records))
            try:
                idx = agent.select(round_num, memory, feedback, rng)
            except BackendError as exc:
                logger.error("run aborted in round %d: %s", round_num, exc)
                result.complete = False
                result.error = str(exc)
                break
            names = [pool.names[i] for i in idx.tolist()]
            hit = pool.hit_mask[idx].tolist()
            round_hits = [n for n, h in zip(names, hit) if h]
            total_hits += len(round_hits)
            records.extend(map(FeedbackRecord, names, pool.scores[idx].tolist(), hit))
            result.selections.append(names)
            result.hits.append(round_hits)
            result.cumulative_hits.append(total_hits)
            trace(
                {
                    "event": "round_complete",
                    "round": round_num,
                    "selected": len(names),
                    "hits": len(round_hits),
                    "cumulative_hits": total_hits,
                }
            )
    finally:
        trace.close()
    return result


def run_many(
    config: ExperimentConfig,
    pool: CandidatePool | None = None,
    backend_factory: Callable[[int], LlmBackend] | None = None,
) -> list[RunResult]:
    """Execute ``config.runs`` independent runs with seeds base+0..base+R-1."""
    if pool is None:
        pool = config.load_pool()
    out_dir = Path(config.out) if config.out else None
    if out_dir is not None:
        _make_dir(out_dir)
    results = []
    for run_index in range(config.runs):
        seed = config.seed + run_index
        backend = backend_factory(run_index) if backend_factory else config.make_backend()
        trace_path = (
            out_dir / f"trace-run{run_index}.jsonl" if out_dir is not None else None
        )
        results.append(
            run_experiment(config, seed, pool=pool, backend=backend, trace_path=trace_path)
        )
    return results


@dataclass(frozen=True)
class RunSummary:
    """Mean/std of final cumulative hits plus the per-round mean trajectory."""

    num_runs: int
    final_hits: tuple[int, ...]
    mean_final_hits: float
    std_final_hits: float
    mean_trajectory: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "num_runs": self.num_runs,
            "final_hits": list(self.final_hits),
            "mean_final_hits": self.mean_final_hits,
            "std_final_hits": self.std_final_hits,
            "mean_trajectory": list(self.mean_trajectory),
        }


def aggregate_runs(results: Iterable[RunResult]) -> RunSummary:
    """Average the final and per-round cumulative hits across runs.

    Incomplete (aborted) runs are excluded; the standard deviation is the
    population one, matching averaging over a fixed run set.
    """
    used = [r for r in results if r.complete]
    if not used:
        raise ValueError("no completed runs to aggregate")
    lengths = {len(r.cumulative_hits) for r in used}
    if len(lengths) != 1:
        raise ValueError(f"mixed run shapes (rounds: {sorted(lengths)})")
    finals = [r.final_hits for r in used]
    trajectory = np.array([r.cumulative_hits for r in used], dtype=np.float64)
    return RunSummary(
        num_runs=len(used),
        final_hits=tuple(finals),
        mean_final_hits=float(np.mean(finals)),
        std_final_hits=float(np.std(finals)),
        mean_trajectory=tuple(float(v) for v in trajectory.mean(axis=0)),
    )


def write_report(
    summary: RunSummary,
    results: list[RunResult],
    out_dir: str | Path,
    *,
    agent: str,
    dataset: str,
    config: ExperimentConfig | None = None,
) -> tuple[Path, Path]:
    """Write runs.csv (one row per run) and summary.json.

    Output bytes are a pure function of the inputs: rerunning an identical
    experiment overwrites both files with identical content.
    """
    out_dir = Path(out_dir)
    _make_dir(out_dir)
    rounds = max((len(r.cumulative_hits) for r in results), default=0)
    csv_path = out_dir / RUNS_CSV
    with _create(csv_path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["agent", "dataset", "run", "seed", "complete", "final_hits"]
            + [f"hits_r{i}" for i in range(1, rounds + 1)]
        )
        for run_index, r in enumerate(results):
            cells = [agent, dataset, run_index, r.seed, int(r.complete), r.final_hits]
            cells += list(r.cumulative_hits) + [""] * (rounds - len(r.cumulative_hits))
            writer.writerow(cells)
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "agent": agent,
        "dataset": dataset,
        "summary": summary.to_dict(),
    }
    if config is not None:
        doc["config"] = config.to_dict()
    json_path = out_dir / SUMMARY_JSON
    with _create(json_path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


def read_runs_csv(path: str | Path) -> list[RunResult]:
    """Rebuild per-run trajectories from a runs.csv (for re-aggregation)."""
    results: list[RunResult] = []
    with _csv_reader(Path(path), ConfigError) as reader:
        header = next(reader, [])
        if not {"seed", "complete", "final_hits"} <= set(header):
            raise ConfigError(f"{path}: not a runs.csv report")
        round_cols = [c for c in header if re.fullmatch(r"hits_r\d+", c)]
        round_cols.sort(key=lambda c: int(c[len("hits_r") :]))
        for cells in reader:
            if not cells:
                continue
            row = dict(zip(header, cells))
            try:
                cumulative = [int(row[c]) for c in round_cols if row[c] != ""]
                seed = int(row["seed"])
                complete = {"0": False, "1": True}[row["complete"]]
            except (TypeError, ValueError, KeyError):
                raise ConfigError(
                    f"{path}:{reader.line_num}: seed and hits_r* cells must be "
                    "integers and complete 0 or 1"
                ) from None
            results.append(RunResult(seed=seed, cumulative_hits=cumulative, complete=complete))
    return results
