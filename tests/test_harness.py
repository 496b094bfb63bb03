from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expdesign.agents import Agent, LinUcbAgent
from expdesign.backends import ScriptedBackend
from expdesign import cli
from expdesign import harness as harness_module
from expdesign import pool as pool_module
from expdesign.cli import main
from expdesign.errors import ConfigError, NumericalError
from expdesign.feedback import FeedbackRecord
from expdesign.harness import (
    ExperimentConfig,
    RunResult,
    aggregate_runs,
    read_runs_csv,
    run_experiment,
    run_many,
    write_report,
)
from expdesign.pool import build_pool, write_embeddings, write_measurements
from expdesign.surrogates import LinUcb

from conftest import DATA_DIR


def hypergeometric_pool(seed=0, n=1000, hits=100, dim=4):
    """Pool with exactly `hits` ground-truth hits and random embeddings."""
    rng = np.random.default_rng(seed)
    names = [f"c{i}" for i in range(n)]
    scores = rng.permutation(n).astype(float)
    truth = {names[i] for i in np.argsort(-scores)[:hits]}
    return build_pool(names, scores, rng.standard_normal((n, dim)),
                      hit_mode="ground-truth-set", ground_truth=truth)


class TestRunExperiment:
    def test_random_agent_matches_hypergeometric_expectation(self):
        # 640 of 1000 sampled without replacement, 100 true hits: mean 64.
        pool = hypergeometric_pool()
        config = ExperimentConfig(agent="random", rounds=5, batch_size=128, runs=1)
        finals = [
            run_experiment(config, seed=s, pool=pool).final_hits for s in range(50)
        ]
        assert 54.0 <= float(np.mean(finals)) <= 74.0

    def test_single_round_builds_no_feedback(self):
        pool = hypergeometric_pool()
        seen = []

        class SpyAgent(Agent):
            kind = "spy"

            def select(self, round_num, memory, feedback, rng):
                seen.append(feedback)
                idx = memory.unexplored()[:4]
                memory.explore(idx)
                return idx

        config = ExperimentConfig(agent="random", rounds=1, batch_size=4)
        # drive the loop manually through a pre-built agent via monkeypatching
        import expdesign.harness as harness_mod

        original = harness_mod.make_agent
        harness_mod.make_agent = lambda *a: SpyAgent(*a)
        try:
            result = run_experiment(config, seed=0, pool=pool)
        finally:
            harness_mod.make_agent = original
        assert seen == [None]
        assert len(result.selections) == 1

    def test_feedback_contains_exactly_prior_selections(self):
        pool = hypergeometric_pool()
        rounds_seen = {}

        class SpyAgent(Agent):
            kind = "spy"

            def select(self, round_num, memory, feedback, rng):
                rounds_seen[round_num] = (
                    None if feedback is None else [r.name for r in feedback.records]
                )
                idx = memory.unexplored()[:3]
                memory.explore(idx)
                return idx

        import expdesign.harness as harness_mod

        original = harness_mod.make_agent
        harness_mod.make_agent = lambda *a: SpyAgent(*a)
        try:
            result = run_experiment(
                ExperimentConfig(agent="random", rounds=4, batch_size=3),
                seed=1,
                pool=pool,
            )
        finally:
            harness_mod.make_agent = original
        assert rounds_seen[1] is None
        for i in (2, 3, 4):
            expected = [n for batch in result.selections[: i - 1] for n in batch]
            assert rounds_seen[i] == expected

    @pytest.mark.parametrize("hit_mode", ["ground-truth-set", "top-percentile"])
    def test_feedback_and_hits_match_the_is_hit_oracle(self, monkeypatch, hit_mode):
        rng = np.random.default_rng(11)
        names = [f"c{i}" for i in range(300)]
        scores = rng.standard_normal(300)
        pool = build_pool(names, scores, rng.standard_normal((300, 3)), hit_mode=hit_mode,
                          ground_truth=set(names[::7]), percentile=80.0)
        seen = []

        class SpyAgent(Agent):
            kind = "spy"

            def select(self, round_num, memory, feedback, rng):
                seen.append(feedback)
                idx = rng.permutation(memory.unexplored())[:40]
                memory.explore(idx)
                return idx

        import expdesign.harness as harness_mod

        monkeypatch.setattr(harness_mod, "make_agent", lambda *a: SpyAgent(*a))
        result = run_experiment(
            ExperimentConfig(agent="random", rounds=4, batch_size=40), seed=3, pool=pool
        )
        for selected, hits in zip(result.selections, result.hits):
            assert hits == [n for n in selected if pool.is_hit(n)]
        selected = [n for batch in result.selections[:3] for n in batch]
        expected = [
            FeedbackRecord(n, float(pool.scores[pool.index_of(n)]), pool.is_hit(n))
            for n in selected
        ]
        assert list(seen[-1].records) == expected
        assert {(type(r.score), type(r.hit)) for r in seen[-1].records} == {(float, bool)}
        assert sum(map(len, result.hits)) == result.final_hits > 0

    def test_exhaustion_warns_and_selects_fewer(self):
        pool = build_pool(
            [f"c{i}" for i in range(10)],
            np.arange(10, dtype=float),
            np.random.default_rng(0).standard_normal((10, 2)),
            percentile=90.0,
        )
        config = ExperimentConfig(agent="random", rounds=5, batch_size=4, runs=1)
        with pytest.warns(UserWarning, match="exceeds pool size"):
            result = run_experiment(config, seed=0, pool=pool)
        assert [len(s) for s in result.selections] == [4, 4, 2, 0, 0]
        assert result.cumulative_hits == sorted(result.cumulative_hits)

    def test_deterministic_given_seed(self):
        pool = hypergeometric_pool()
        config = ExperimentConfig(agent="random", rounds=3, batch_size=16)
        a = run_experiment(config, seed=7, pool=pool)
        b = run_experiment(config, seed=7, pool=pool)
        assert a.selections == b.selections
        assert a.cumulative_hits == b.cumulative_hits

    def test_llm_abort_yields_partial_result(self):
        pool = hypergeometric_pool()
        config = ExperimentConfig(
            agent="llmnn",
            rounds=3,
            batch_size=8,
            dataset_key="il2",
            llm_max_attempts=1,
        )
        backend = ScriptedBackend(
            texts=["**Solution:\n## c1\n## c2\n## c3\n## c4\n## c5"]
        )
        result = run_experiment(config, seed=0, pool=pool, backend=backend)
        assert not result.complete
        assert "attempts" in result.error or "exhausted" in result.error
        assert len(result.selections) == 1  # round 1 finished, round 2 aborted

    def test_randomized_feedback_keeps_selections_identical_for_fixed_llm(self):
        # A fixture-scripted agent ignores feedback content, so the
        # randomization ablation must not change what gets selected.
        pool = hypergeometric_pool()
        fixtures = [
            "**Solution:\n## c10\n## c20\n## c30\n## c40\n## c50",
            "**Solution:\n## c11\n## c21\n## c31\n## c41\n## c51",
            "**Solution:\n## c12\n## c22\n## c32\n## c42\n## c52",
        ]
        base = dict(agent="llmnn", rounds=3, batch_size=16, dataset_key="il2")
        res_true = run_experiment(
            ExperimentConfig(**base, feedback="true"),
            seed=3, pool=pool, backend=ScriptedBackend(texts=list(fixtures)),
        )
        res_rand = run_experiment(
            ExperimentConfig(**base, feedback="randomized"),
            seed=3, pool=pool, backend=ScriptedBackend(texts=list(fixtures)),
        )
        assert res_true.selections == res_rand.selections

    def test_linucb_fits_on_the_feedback_it_is_handed(self, monkeypatch):
        # Fresh-each-round randomization re-permutes the whole history every
        # round; the bandit must fit on exactly the records it is handed.
        pool = hypergeometric_pool()
        handed, fits = [], []
        select, fit_batch = LinUcbAgent.select, LinUcb.fit_batch

        def spy_select(agent, round_num, memory, feedback, rng):
            handed.append(feedback)
            fits.append(None)
            return select(agent, round_num, memory, feedback, rng)

        def spy_fit(model, X, y):
            fits[-1] = (np.array(X), np.array(y))
            return fit_batch(model, X, y)

        monkeypatch.setattr(LinUcbAgent, "select", spy_select)
        monkeypatch.setattr(LinUcb, "fit_batch", spy_fit)
        config = ExperimentConfig(agent="linucb", rounds=4, batch_size=8,
                                  feedback="randomized")
        run_experiment(config, seed=2, pool=pool)
        assert len(handed) == 4 and handed[0] is None
        for feedback, (X, y) in zip(handed[1:], fits[1:]):
            rows = [pool.index_of(r.name) for r in feedback.records]
            scores = np.array([r.score for r in feedback.records])
            assert np.array_equal(X, pool.embeddings.matrix[rows])
            assert np.allclose(y, (scores - scores.mean()) / scores.std(),
                               rtol=1e-12, atol=1e-12)

    def test_frozen_randomization_mode_runs(self):
        pool = hypergeometric_pool()
        fixtures = ["**Solution:\n## c1\n## c2\n## c3\n## c4\n## c5"] * 3
        config = ExperimentConfig(
            agent="llmnn", rounds=3, batch_size=8, dataset_key="il2",
            feedback="randomized", randomize_fresh_each_round=False,
        )
        result = run_experiment(
            config, seed=0, pool=pool, backend=ScriptedBackend(texts=fixtures)
        )
        assert result.complete

    def test_agent_that_cannot_be_built_closes_its_trace(self, tmp_path, monkeypatch):
        # The median heuristic of embeddings scaled by 1e160 overflows, so
        # the gp agent cannot be built; the trace file, opened before it, is
        # closed all the same.
        writers = []

        class Recorded(harness_module._TraceWriter):
            def __init__(self, path):
                super().__init__(path)
                writers.append(self)

        monkeypatch.setattr(harness_module, "_TraceWriter", Recorded)
        rng = np.random.default_rng(3)
        pool = build_pool([f"c{i}" for i in range(60)], rng.permutation(60).astype(float),
                          rng.standard_normal((60, 4)) * 1e160)
        config = ExperimentConfig(agent="gp", rounds=3, batch_size=6, runs=1)
        with pytest.raises(NumericalError, match="median-heuristic"):
            run_experiment(config, seed=0, pool=pool, trace_path=tmp_path / "trace.jsonl")
        assert len(writers) == 1 and writers[0]._fh.closed


class TestAggregateRuns:
    def make(self, finals, rounds=3, complete=True):
        out = []
        for f in finals:
            cum = [min(f, (i + 1) * f // rounds if rounds > 1 else f) for i in range(rounds)]
            cum[-1] = f
            out.append(RunResult(seed=0, cumulative_hits=cum, complete=complete))
        return out

    def test_mean_of_three(self):
        summary = aggregate_runs(self.make([1, 2, 3]))
        assert summary.mean_final_hits == 2.0

    def test_single_run(self):
        summary = aggregate_runs(self.make([5]))
        assert summary.mean_final_hits == 5.0
        assert summary.std_final_hits == 0.0

    def test_constant_runs(self):
        summary = aggregate_runs(self.make([10, 10, 10, 10, 10]))
        assert summary.mean_final_hits == 10.0
        assert summary.std_final_hits == 0.0

    def test_population_std(self):
        summary = aggregate_runs(self.make([1, 3]))
        assert summary.std_final_hits == 1.0

    def test_trajectory_is_round_mean(self):
        results = [
            RunResult(seed=0, cumulative_hits=[1, 2, 4]),
            RunResult(seed=1, cumulative_hits=[3, 4, 6]),
        ]
        summary = aggregate_runs(results)
        assert summary.mean_trajectory == (2.0, 3.0, 5.0)

    def test_incomplete_excluded_by_default(self):
        results = self.make([4, 6]) + [
            RunResult(seed=9, cumulative_hits=[1], complete=False)
        ]
        summary = aggregate_runs(results)
        assert summary.num_runs == 2
        assert summary.mean_final_hits == 5.0

    def test_mixed_shapes_rejected(self):
        results = [
            RunResult(seed=0, cumulative_hits=[1, 2]),
            RunResult(seed=1, cumulative_hits=[1, 2, 3]),
        ]
        with pytest.raises(ValueError, match="mixed"):
            aggregate_runs(results)

    def test_no_completed_runs(self):
        with pytest.raises(ValueError, match="no completed"):
            aggregate_runs([RunResult(seed=0, cumulative_hits=[1], complete=False)])


class TestReports:
    def results(self):
        return [
            RunResult(seed=10 + i, cumulative_hits=[i + 1, i + 3, i + 4])
            for i in range(5)
        ]

    def test_csv_shape_and_round_columns(self, tmp_path):
        results = self.results()
        summary = aggregate_runs(results)
        csv_path, json_path = write_report(
            summary, results, tmp_path, agent="random", dataset="demo"
        )
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 runs
        header = lines[0].split(",")
        assert header[:6] == ["agent", "dataset", "run", "seed", "complete", "final_hits"]
        assert header[6:] == ["hits_r1", "hits_r2", "hits_r3"]
        doc = json.loads(json_path.read_text())
        assert doc["schema_version"] == 1
        assert doc["summary"]["mean_final_hits"] == summary.mean_final_hits

    def test_rewrite_is_byte_identical(self, tmp_path):
        results = self.results()
        summary = aggregate_runs(results)
        write_report(summary, results, tmp_path, agent="a", dataset="d")
        first = (tmp_path / "runs.csv").read_bytes(), (tmp_path / "summary.json").read_bytes()
        write_report(summary, results, tmp_path, agent="a", dataset="d")
        second = (tmp_path / "runs.csv").read_bytes(), (tmp_path / "summary.json").read_bytes()
        assert first == second

    def test_read_runs_csv_roundtrip(self, tmp_path):
        results = self.results()
        summary = aggregate_runs(results)
        csv_path, _ = write_report(summary, results, tmp_path, agent="a", dataset="d")
        loaded = read_runs_csv(csv_path)
        assert [r.cumulative_hits for r in loaded] == [
            r.cumulative_hits for r in results
        ]
        assert aggregate_runs(loaded).mean_final_hits == summary.mean_final_hits


class TestExperimentConfig:
    def test_nested_llm_keys(self):
        config = ExperimentConfig.from_dict(
            {
                "agent": "llmnn",
                "dataset_key": "il2",
                "llm": {"endpoint": "http://x", "model": "m", "temperature": 0.2,
                        "max_attempts": 4},
            }
        )
        assert config.llm_endpoint == "http://x"
        assert config.llm_model == "m"
        assert config.llm_temperature == 0.2
        assert config.llm_max_attempts == 4
        back = config.to_dict()
        assert back["llm"]["endpoint"] == "http://x"

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"agnet": "random"}, r"unknown config keys: \['agnet'\]"),
            ({"llm": {"modle": "x"}}, r"unknown config keys: \['llm.modle'\]"),
            ({"llm_model": "x"}, r"'llm_model' belongs in a nested object: write 'llm.model'"),
            ({"gp_beta": 1.0}, r"write 'gp.beta'"),
            ({"linucb_ridge": 1.0}, r"write 'linucb.ridge'"),
        ],
        ids=["top-level", "nested", "flat-llm", "flat-gp", "flat-linucb"],
    )
    def test_unknown_keys_rejected(self, data, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(data)

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="agent"):
            ExperimentConfig(agent="nope").validate()
        with pytest.raises(ConfigError, match=">= 1"):
            ExperimentConfig(rounds=0).validate()
        with pytest.raises(ConfigError, match="feedback"):
            ExperimentConfig(feedback="shuffled").validate()
        with pytest.raises(ConfigError, match="metric"):
            ExperimentConfig(metric="cityblock").validate()
        with pytest.raises(ConfigError, match="needs llm"):
            ExperimentConfig(agent="bda", dataset_key="il2").make_backend()
        with pytest.raises(ConfigError, match="llm.model"):
            ExperimentConfig(agent="bda", dataset_key="il2",
                             llm_endpoint="http://localhost:1/v1").make_backend()
        with pytest.raises(ConfigError, match="descriptors"):
            ExperimentConfig(agent="llmnn", llm_fixtures="x").validate()

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"rounds": "3"}, "rounds"),
            ({"seed": True}, "seed"),
            ({"gp": {"beta": "x"}}, "gp.beta"),
            ({"score_range": [1.0]}, "score_range"),
            ({"linucb": {"alpha": math.inf}}, "linucb.alpha"),
            ({"gp": {"beta": math.inf}}, "gp.beta"),
            ({"gp": {"length_scale": math.inf}}, "gp.length_scale"),
            ({"percentile": math.nan}, "percentile"),
            ({"llm": {"temperature": -math.inf}}, "llm.temperature"),
            ({"score_range": [0.0, math.inf]}, "score_range"),
            ({"gp": {"beta": 10**400}}, "gp.beta"),  # overflows a float
        ],
    )
    def test_wrongly_typed_values_rejected(self, data, key):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            ExperimentConfig.from_dict(data)

    def test_json_ints_pass_for_float_fields(self):
        config = ExperimentConfig.from_dict({"gp": {"beta": 3}, "score_range": [0, 5]})
        assert config.gp_beta == 3
        assert config.score_range == (0.0, 5.0)

    def test_descriptor_resolution_from_registry(self):
        config = ExperimentConfig(agent="llmnn", dataset_key="esol")
        args = config.descriptor_args()
        assert args["domain"] == "molecules"
        assert "solubility" in args["func_desc"]


class TestRunMany:
    def test_seeds_are_base_plus_index(self, tmp_path):
        pool = hypergeometric_pool()
        config = ExperimentConfig(agent="random", rounds=2, batch_size=8, runs=3,
                                  seed=100, out=str(tmp_path / "out"))
        results = run_many(config, pool=pool)
        assert [r.seed for r in results] == [100, 101, 102]
        # trace files exist per run
        for i in range(3):
            assert (tmp_path / "out" / f"trace-run{i}.jsonl").exists()


def write_cli_dataset(tmp_path: Path, n=60, dim=3, hits=6):
    pool = hypergeometric_pool(seed=1, n=n, hits=hits, dim=dim)
    meas = tmp_path / "measurements.csv"
    emb = tmp_path / "embeddings.csv"
    write_measurements(pool, meas)
    write_embeddings(pool, emb)
    return meas, emb


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Loaded at start-up from a directory put first on PYTHONPATH: it logs each
# fork made by the process and, at exit, the BLAS thread variables it ran
# with. A forked parser leaves through os._exit and logs nothing.
FORK_LOG_HOOK = """\
import atexit
import os

_log = os.environ.get("EXPDESIGN_FORK_LOG")
if _log:
    _fork = os.fork

    def _logged_fork():
        pid = _fork()
        if pid:
            with open(_log, "a") as fh:
                fh.write("fork\\n")
        return pid

    def _log_blas():
        with open(_log, "a") as fh:
            fh.write(" ".join(os.environ.get(v, "-") for v in %r) + "\\n")

    os.fork = _logged_fork
    atexit.register(_log_blas)
""" % (BLAS_VARS,)


class TestCli:
    def run_cli(self, *args, timeout=None):
        return subprocess.run(
            [sys.executable, "-m", "expdesign", *args],
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the split needs two CPUs")
    def test_run_sets_one_blas_thread_and_splits_ingest(self, tmp_path):
        # With the BLAS thread variables unset, `expdesign run` sets them to
        # 1 before numpy loads, so its process has one OS thread at ingest
        # and a file of over two split sizes is parsed by a forked child.
        # Its reports equal those of a run with the variables set to 1, and
        # a value the user sets is kept.
        rng = np.random.default_rng(3)
        n, dim = 4200, 128  # more than two scoring blocks, LinUCB's bound path
        pool = build_pool([f"g{i}" for i in range(n)], rng.standard_normal(n),
                          rng.standard_normal((n, dim)))
        meas, emb = tmp_path / "measurements.csv", tmp_path / "embeddings.csv"
        write_measurements(pool, meas)
        write_embeddings(pool, emb)
        assert emb.stat().st_size > 2 * pool_module._SPLIT_MIN_BYTES
        hook = tmp_path / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(FORK_LOG_HOOK, encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"

        def run(name, **blas):
            env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
            env.update(blas, EXPDESIGN_FORK_LOG=str(tmp_path / f"{name}.log"))
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(hook), str(src), os.environ.get("PYTHONPATH")])
            )
            proc = subprocess.run(
                [sys.executable, "-m", "expdesign", "run", "--agent", "linucb",
                 "--rounds", "3", "--batch", "16", "--runs", "2", "--seed", "4",
                 "--dataset", str(meas), "--embeddings", str(emb),
                 "--out", str(tmp_path / name)],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            out = tmp_path / name
            reports = [(out / "runs.csv").read_bytes()]
            reports += [(out / f"trace-run{r}.jsonl").read_bytes() for r in range(2)]
            return (tmp_path / f"{name}.log").read_text().splitlines(), reports

        unset_log, unset_reports = run("unset")
        set_log, set_reports = run("set", **dict.fromkeys(BLAS_VARS, "1"))
        assert unset_log == set_log == ["fork", "1 1 1"]
        assert unset_reports == set_reports
        kept_log, _ = run("kept", OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="1")
        assert kept_log == ["2 1 1"]  # BLAS threads run, so ingest does not fork

    def test_validate_ok(self, tmp_path):
        meas, emb = write_cli_dataset(tmp_path)
        proc = self.run_cli("validate", "--dataset", str(meas), "--embeddings", str(emb))
        assert proc.returncode == 0, proc.stderr
        assert "ok: 60 candidates" in proc.stdout

    def test_validate_failure_exit_1(self, tmp_path):
        meas, emb = write_cli_dataset(tmp_path)
        proc = self.run_cli(
            "validate", "--dataset", str(meas), "--embeddings", str(emb),
            "--expected-dim", "10",
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_run_and_report(self, tmp_path):
        meas, emb = write_cli_dataset(tmp_path)
        out = tmp_path / "out"
        proc = self.run_cli(
            "run", "--agent", "random", "--rounds", "2", "--batch", "8",
            "--runs", "2", "--seed", "5", "--dataset", str(meas),
            "--embeddings", str(emb), "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "runs.csv").exists()
        assert (out / "summary.json").exists()

        rep = self.run_cli("report", "--in", str(out))
        assert rep.returncode == 0, rep.stderr
        doc = json.loads(rep.stdout)
        assert doc["num_runs"] == 2

    def test_run_with_config_file_and_override(self, tmp_path):
        meas, emb = write_cli_dataset(tmp_path)
        config = {
            "agent": "coreset",
            "rounds": 2,
            "batch_size": 4,
            "runs": 1,
            "dataset": str(meas),
            "embeddings": str(emb),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        proc = self.run_cli(
            "run", "--config", str(config_path), "--agent", "random",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        header_row = (out / "runs.csv").read_text().splitlines()[1]
        assert header_row.startswith("random,")  # CLI flag overrode the config

    def test_bad_config_exit_1(self, tmp_path):
        proc = self.run_cli("run", "--config", str(tmp_path / "missing.json"))
        assert proc.returncode == 1

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_exit_1(self, tmp_path, capsys, under):
        meas, emb = write_cli_dataset(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out = taken / "out" if under else taken
        assert main(["run", "--dataset", str(meas), "--embeddings", str(emb), "--agent",
                     "random", "--rounds", "1", "--batch", "4", "--runs", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["trace-run0.jsonl", "runs.csv"])
    def test_output_file_taken_by_a_directory_exit_1(self, tmp_path, capsys, name):
        # The trace opens before the run, the report after it: either is a
        # one-line error, not an IsADirectoryError traceback.
        meas, emb = write_cli_dataset(tmp_path)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["run", "--dataset", str(meas), "--embeddings", str(emb), "--agent",
                     "random", "--rounds", "1", "--batch", "4", "--runs", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / name}: ")
        assert err.count("\n") == 1

    def test_surrogate_runs_load_no_scipy_or_requests(self, tmp_path):
        # The program's linear algebra is numpy's alone, so a process that
        # runs both surrogates loads one BLAS library; scipy is for tests.
        # The HTTP backend speaks through the standard library, so neither
        # requests nor what it pulls in takes memory in any run. What the
        # interpreter loaded before the program (a site .pth file may import
        # certifi) is not counted.
        meas, emb = write_cli_dataset(tmp_path)
        script = (
            "import sys\n"
            "startup = set(sys.modules)\n"
            "from expdesign.cli import main\n"
            "for agent in ('gp', 'linucb'):\n"
            f"    assert main(['run', '--dataset', {str(meas)!r}, '--embeddings', {str(emb)!r},"
            " '--agent', agent, '--rounds', '3', '--batch', '4', '--runs', '1']) == 0\n"
            "print(sorted(m for m in set(sys.modules) - startup if m.partition('.')[0] in"
            " {'scipy', 'requests', 'urllib3', 'idna', 'charset_normalizer', 'certifi'}))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{", "config file is not valid JSON"),
            ("[]", "config file must hold a JSON object"),
            ('{"seed": -1}', "seed must be nonnegative"),
            ('{"hit_mode": "top-3"}', "unknown hit mode 'top-3'"),
            ('{"domain": "plants"}', "unknown domain 'plants'"),
            ('{"dataset_key": "nope"}', "unknown dataset key 'nope'"),
            ('{"agent": "random"}', "config needs dataset and embeddings paths"),
        ],
        ids=["invalid-json", "json-list", "negative-seed", "hit-mode", "domain", "dataset-key",
             "no-dataset-paths"],
    )
    def test_unusable_config_file_exit_1(self, tmp_path, capsys, text, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_mistyped_config_value_exit_1(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"rounds": "3"}), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 1
        assert "config key 'rounds'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_finite_config_value_exit_1(self, tmp_path, capsys, command):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"agent": "gp", "gp": {"beta": Infinity}}', encoding="utf-8")
        assert main([command, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: config key 'gp.beta' must be a finite number, got inf\n"

    def test_validate_loads_the_pool_run_loads(self, tmp_path, capsys, monkeypatch):
        # The config's element filter drops the chlorine rows for validate
        # as for run; a flag still overrides the file.
        names = [f"{'C' * i}O" for i in range(1, 31)] + [f"{'C' * i}Cl" for i in range(1, 11)]
        rng = np.random.default_rng(3)
        pool = build_pool(names, rng.permutation(40).astype(float),
                          rng.standard_normal((40, 3)))
        meas, emb = tmp_path / "measurements.csv", tmp_path / "embeddings.csv"
        write_measurements(pool, meas)
        write_embeddings(pool, emb)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "dataset": str(meas), "embeddings": str(emb), "element_filter": ["C", "H", "O"],
            "percentile": 80.0, "rounds": 1, "batch_size": 4, "runs": 1,
        }), encoding="utf-8")
        loaded = []
        real_run_many = cli.run_many
        monkeypatch.setattr(cli, "run_many", lambda config, pool: (
            loaded.append(pool) or real_run_many(config, pool=pool)))
        assert main(["run", "--config", str(config_path)]) == 0
        hits = int(loaded[0].hit_mask.sum())
        assert (len(loaded[0]), hits) == (30, 6)
        assert main(["validate", "--config", str(config_path)]) == 0
        assert main(["validate", "--dataset", str(meas), "--embeddings", str(emb)]) == 0
        assert main(["validate", "--config", str(config_path), "--percentile", "90"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-3].startswith(f"ok: 30 candidates, dim 3, {hits} hits (top-percentile")
        assert out[-2].startswith("ok: 40 candidates, dim 3, 4 hits (top-percentile")
        assert out[-1].startswith("ok: 30 candidates, dim 3, 3 hits (top-percentile")

    UNUSABLE_LLM_CONFIGS = {
        "gene-without-score-desc": "gene prompts need a score description",
        "bda-on-molecules": "'bda' is not supported for domain 'molecules'",
        "missing-fixtures": "llm.fixtures directory not found",
    }

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("case", UNUSABLE_LLM_CONFIGS)
    def test_unusable_llm_config_exit_1(self, tmp_path, capsys, case, command):
        # validate accepts what run accepts, and both check before the pool
        # loads: the dataset does not exist.
        config = {"agent": "llmnn", "dataset_key": "il2", "rounds": 1, "batch_size": 4,
                  "runs": 1, "dataset": str(tmp_path / "missing.csv"),
                  "embeddings": str(tmp_path / "missing-embeddings.csv"),
                  "llm": {"fixtures": str(DATA_DIR / "il2-fixtures")}}
        if case == "gene-without-score-desc":
            del config["dataset_key"]
            config.update(domain="genes", func_desc="regulate the production of IL-2")
        elif case == "bda-on-molecules":
            config.update(agent="bda", dataset_key="esol")
        else:
            config.update(llm={"fixtures": str(tmp_path / "none")})
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main([command, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert self.UNUSABLE_LLM_CONFIGS[case] in err
        if case != "missing-fixtures":
            assert "descriptors" in err

    def test_zero_cosine_embedding_exit_1(self, tmp_path, capsys):
        meas, emb = write_cli_dataset(tmp_path)
        rows = emb.read_text(encoding="utf-8").splitlines()
        rows[0] = ",".join([rows[0].split(",")[0], "0.0", "0.0", "0.0"])
        emb.write_text("\n".join(rows) + "\n", encoding="utf-8")
        data = ["--dataset", str(meas), "--embeddings", str(emb), "--metric", "cosine"]
        for argv in (
            ["validate", *data],
            ["run", *data, "--agent", "random", "--rounds", "1", "--batch", "4",
             "--runs", "1"],
        ):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and "zero vector" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("broken", ["dataset", "embeddings"])
    @pytest.mark.parametrize("fault", ["missing", "not-utf8", "oversized-field"])
    def test_unreadable_data_file_exit_1(self, tmp_path, capsys, broken, fault):
        meas, emb = write_cli_dataset(tmp_path)
        paths = {"dataset": meas, "embeddings": emb}
        if fault == "missing":
            paths[broken] = tmp_path / "nonexistent.csv"
        elif fault == "not-utf8":
            paths[broken].write_bytes(paths[broken].read_bytes() + b"\xff,1.0\n")
        else:  # beyond the csv module's field size limit
            paths[broken].write_bytes(paths[broken].read_bytes() + b"x" * 200_000 + b",1.0\n")
        data = ["--dataset", str(paths["dataset"]), "--embeddings", str(paths["embeddings"])]
        for argv in (
            ["validate", *data],
            ["run", *data, "--agent", "random", "--rounds", "1", "--batch", "4",
             "--runs", "1", "--out", str(tmp_path / "out")],
        ):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {paths[broken]}:") and err.count("\n") == 1

    @pytest.mark.parametrize("broken", ["config", "runs-csv", "fixture"])
    def test_input_file_not_utf8(self, tmp_path, capsys, broken):
        # A 0xff byte in any file the CLI reads is one line on stderr naming
        # the file, never a traceback: exit 1 for the config file and
        # runs.csv, and a run failure (exit 2) for a scripted fixture.
        meas, emb = write_cli_dataset(tmp_path)
        data = ["--dataset", str(meas), "--embeddings", str(emb)]
        if broken == "config":
            path = tmp_path / "config.json"
            path.write_bytes(b'{"agent": "random", "rounds": 1\xff}')
            argvs = [["run", "--config", str(path), *data], ["validate", "--config", str(path)]]
            code, prefix = 1, "error:"
        elif broken == "runs-csv":
            path = tmp_path / "runs.csv"
            path.write_bytes(b"agent,dataset,run,seed,complete,final_hits,hits_r1\n"
                             b"random,d\xff,0,0,1,1,1\n")
            argvs = [["report", "--in", str(tmp_path)]]
            code, prefix = 1, "error:"
        else:
            fixtures = tmp_path / "fixtures"
            fixtures.mkdir()
            path = fixtures / "round-1.txt"
            path.write_bytes(b"**Solution:\n## c1\xff\n")
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"dataset_key": "il2"}), encoding="utf-8")
            argvs = [["run", "--config", str(config_path), *data, "--agent", "llmnn",
                      "--rounds", "1", "--batch", "4", "--runs", "1",
                      "--fixtures", str(fixtures)]]
            code, prefix = 2, "run failure:"
        for argv in argvs:
            assert main(argv) == code, argv
            err = capsys.readouterr().err
            assert err.startswith(prefix) and str(path) in err and "UTF-8" in err, err
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_unreadable_fixture_exit_2(self, tmp_path, capsys, monkeypatch):
        # A fixture that exists but cannot be read (permission denied, or
        # removed after the check) is a run failure naming the file, never a
        # traceback.
        meas, emb = write_cli_dataset(tmp_path)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        path = fixtures / "round-1.txt"
        path.write_text("**Solution:\n## c1\n", encoding="utf-8")
        read_text = Path.read_text

        def denied(self, *args, **kwargs):
            if self == path:
                raise PermissionError(13, "Permission denied", str(self))
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", denied)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"dataset_key": "il2"}), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--dataset", str(meas),
                     "--embeddings", str(emb), "--agent", "llmnn", "--rounds", "1",
                     "--batch", "4", "--runs", "1", "--fixtures", str(fixtures),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failure:") and str(path) in err, err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bda_replays_fixtures_with_default_retries(self, tmp_path):
        # Each fixture names 5 genes for a batch of 20, so every round
        # re-prompts; a re-prompt must re-read its own round's file.
        fixtures = DATA_DIR / "il2-fixtures"
        genes = sorted({
            line[3:].strip()
            for path in fixtures.glob("round-*.txt")
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.startswith("## ")
        })
        rng = np.random.default_rng(0)
        names = genes + [f"FILLER{i}" for i in range(100)]
        pool = build_pool(names, rng.normal(size=len(names)),
                          rng.standard_normal((len(names), 4)))
        meas, emb = tmp_path / "measurements.csv", tmp_path / "embeddings.csv"
        write_measurements(pool, meas)
        write_embeddings(pool, emb)
        config = {"agent": "bda", "dataset_key": "il2", "rounds": 5, "batch_size": 20,
                  "runs": 1, "dataset": str(meas), "embeddings": str(emb),
                  "llm": {"fixtures": str(fixtures)}}
        assert ExperimentConfig.from_dict(config).bda_retries == 5
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        proc = self.run_cli("run", "--config", str(config_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        events = [json.loads(line) for line in
                  (out / "trace-run0.jsonl").read_text(encoding="utf-8").splitlines()]
        calls = [e for e in events if e["event"] == "llm_call"]
        assert len({e["round"] for e in calls}) == 5
        assert len(calls) == 5 * 6  # one prompt and 5 re-prompts per round
        assert "MYBL2" in next(e for e in calls if e["round"] == 2)["parsed"]

    def test_aborted_runs_exit_2(self, tmp_path):
        # Fixtures cover only round 1 of 2: the run aborts and the CLI
        # reports a run failure.
        meas, emb = write_cli_dataset(tmp_path)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "round-1.txt").write_text(
            "**Solution:\n## c1\n## c2\n## c3\n## c4\n## c5", encoding="utf-8"
        )
        config = {
            "agent": "llmnn",
            "dataset_key": "il2",
            "rounds": 2,
            "batch_size": 6,
            "runs": 1,
            "dataset": str(meas),
            "embeddings": str(emb),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        proc = self.run_cli(
            "run", "--config", str(config_path), "--fixtures", str(fixtures),
            "--out", str(tmp_path / "out"),
        )
        assert proc.returncode == 2

    def test_singular_linucb_factor_is_a_run_failure(self, tmp_path, capsys):
        # Rows of norm about 480 in 16 dimensions and a ridge of 1e-12:
        # round 2 (6 rows, the dual form) fits, and round 3 (12 rows, 3n >
        # 2d, the primal form) meets a d x d matrix A that is singular in
        # floats. The run fails with one line and exit 2, not a traceback.
        rng = np.random.default_rng(3)
        names = [f"c{i}" for i in range(40)]
        emb = rng.standard_normal((40, 16)) * 120.0
        pool = build_pool(names, rng.permutation(40).astype(float), emb)
        meas, embeddings = tmp_path / "measurements.csv", tmp_path / "embeddings.csv"
        write_measurements(pool, meas)
        write_embeddings(pool, embeddings)
        config = {"agent": "linucb", "rounds": 3, "batch_size": 6, "runs": 1,
                  "dataset": str(meas), "embeddings": str(embeddings),
                  "linucb": {"ridge": 1e-12}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failure: LinUCB matrix A is not positive-definite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "agent, scale, gp, code, message",
        [
            # A length whose square underflows to 0 or overflows to inf.
            ("gp", 1.0, {"length_scale": 1e-300}, 1, "error: config key 'gp.length_scale'"),
            ("gp", 1.0, {"length_scale": 1e300}, 1, "error: config key 'gp.length_scale'"),
            # Huge but finite embeddings: LinUCB's A overflows, and the
            # median heuristic's distances overflow to an inf length; with a
            # length set, the GP's kernel matrix turns NaN.
            ("linucb", 1e160, {}, 2, "run failure: LinUCB matrix A is not finite"),
            ("gp", 1e160, {}, 2, "run failure: the median-heuristic GP length scale inf"),
            ("gp", 1e160, {"length_scale": 1.0}, 2, "run failure: GP kernel matrix is not finite"),
        ],
    )
    def test_length_or_embeddings_out_of_float_range(
        self, tmp_path, capsys, agent, scale, gp, code, message
    ):
        # Each input passes validation at load; the run ends with one line
        # and the documented exit code, never a traceback.
        rng = np.random.default_rng(3)
        pool = build_pool([f"c{i}" for i in range(60)], rng.permutation(60).astype(float),
                          rng.standard_normal((60, 4)) * scale)
        meas, embeddings = tmp_path / "measurements.csv", tmp_path / "embeddings.csv"
        write_measurements(pool, meas)
        write_embeddings(pool, embeddings)
        config = {"agent": agent, "rounds": 3, "batch_size": 6, "runs": 1,
                  "dataset": str(meas), "embeddings": str(embeddings), "gp": gp}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("scale, gp", [
        # 1e-12 of the signal variance underflows to 0, and so does the noise.
        (1.0, {"signal_var": 5e-324}),
        # Unstandardized scores of 1e-160 to 2e-160 have a target variance
        # of about 1e-321, which becomes the signal.
        (1e-160, {"standardize": False}),
    ])
    def test_signal_too_small_for_jitter_exit_2(self, tmp_path, scale, gp):
        # The kernel matrix of the first batch, whose rows 0 and 1 share an
        # embedding, cannot be factored, and there is no jitter to add: the
        # run ends with one line and exit 2, not a loop without end.
        rng = np.random.default_rng(5)
        embeddings = rng.standard_normal((60, 4))
        embeddings[1] = embeddings[0]
        pool = build_pool([f"c{i}" for i in range(60)],
                          scale * (1.0 + rng.permutation(60) / 60.0), embeddings)
        meas, emb = tmp_path / "measurements.csv", tmp_path / "embeddings.csv"
        write_measurements(pool, meas)
        write_embeddings(pool, emb)
        config = {"agent": "gp", "rounds": 3, "batch_size": 6, "runs": 1,
                  "dataset": str(meas), "embeddings": str(emb), "gp": gp}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        proc = self.run_cli("run", "--config", str(config_path), "--out",
                            str(tmp_path / "out"), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("run failure: ") and proc.stderr.count("\n") == 1
        assert "not positive-definite even after jitter" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_some_runs_aborted_exit_2_and_report_written(self, tmp_path, capsys, monkeypatch):
        meas, emb = write_cli_dataset(tmp_path)
        results = [RunResult(seed=0, cumulative_hits=[1, 2]),
                   RunResult(seed=1, cumulative_hits=[1], complete=False, error="aborted")]
        monkeypatch.setattr(cli, "run_many", lambda config, pool: results)
        out = tmp_path / "out"
        argv = ["run", "--agent", "random", "--rounds", "2", "--batch", "4", "--runs", "2",
                "--dataset", str(meas), "--embeddings", str(emb), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "1 run(s) aborted and were excluded\n"
        assert [r.complete for r in read_runs_csv(out / "runs.csv")] == [True, False]
        assert json.loads((out / "summary.json").read_text())["summary"]["num_runs"] == 1

    def test_scripted_llmnn_run_via_cli(self, tmp_path):
        meas, emb = write_cli_dataset(tmp_path)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        for i in range(1, 3):
            (fixtures / f"round-{i}.txt").write_text(
                "**Solution:\n## c1\n## c2\n## c3\n## c4\n## c5", encoding="utf-8"
            )
        out = tmp_path / "out"
        config = {
            "agent": "llmnn",
            "dataset_key": "il2",
            "rounds": 2,
            "batch_size": 10,
            "runs": 1,
            "dataset": str(meas),
            "embeddings": str(emb),
            "llm": {"fixtures": str(fixtures)},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        proc = self.run_cli("run", "--config", str(config_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        trace = (out / "trace-run0.jsonl").read_text().strip().splitlines()
        events = [json.loads(line) for line in trace]
        assert any(e["event"] == "llm_call" for e in events)
        assert any(e["event"] == "round_complete" for e in events)

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"linucb": {"ridge": 0}}, "linucb.ridge"),
            ({"linucb": {"alpha": -0.5}}, "linucb.alpha"),
            ({"gp": {"beta": -1}}, "gp.beta"),
            ({"gp": {"length_scale": -1}}, "gp.length_scale"),
            ({"gp": {"length_scale": 0}}, "gp.length_scale"),
            ({"gp": {"length_scale": 1e-300}}, "gp.length_scale"),
            ({"gp": {"length_scale": 1e300}}, "gp.length_scale"),
            ({"gp": {"signal_var": 0}}, "gp.signal_var"),
            ({"gp": {"noise_var": -1e-3}}, "gp.noise_var"),
            ({"gp": {"subsample": 1}}, "gp.subsample"),
            ({"llm": {"max_attempts": 0}}, "llm.max_attempts"),
            ({"llm": {"max_tokens": 0}}, "llm.max_tokens"),
            ({"llm": {"temperature": -0.1}}, "llm.temperature"),
            ({"bda_retries": -1}, "bda_retries"),
            ({"expected_dim": 0}, "expected_dim"),
            ({"llm": 5}, "llm"),
        ],
    )
    def test_out_of_range_config_value_exit_1(self, tmp_path, capsys, data, key):
        meas, emb = write_cli_dataset(tmp_path)
        config = {"agent": "random", "rounds": 1, "batch_size": 4, "runs": 1,
                  "dataset": str(meas), "embeddings": str(emb), **data}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key '{key}' must be") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "bad_row",
        ["random,d,1,1,1,2,1,two", "random,d,1,x,1,2,1,2", "random,d,1,1,yes,2,1,2",
         "random,d,1,1,1,2,1"],
    )
    def test_report_rejects_malformed_cells(self, tmp_path, capsys, bad_row):
        (tmp_path / "runs.csv").write_text(
            "agent,dataset,run,seed,complete,final_hits,hits_r1,hits_r2\n"
            f"random,d,0,0,1,3,1,3\n{bad_row}\n",
            encoding="utf-8",
        )
        assert main(["report", "--in", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{tmp_path / 'runs.csv'}:3:" in err
        assert err.count("\n") == 1

    def test_report_without_completed_runs_exit_2(self, tmp_path, capsys):
        (tmp_path / "runs.csv").write_text(
            "agent,dataset,run,seed,complete,final_hits,hits_r1\n"
            "llmnn,d,0,0,0,1,1\nllmnn,d,1,1,0,1,1\n",
            encoding="utf-8",
        )
        assert main(["report", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failure:") and err.count("\n") == 1

    def test_report_without_runs_csv_exit_1(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: no runs.csv in {tmp_path}\n"

    def test_report_of_mixed_run_shapes_exit_1(self, tmp_path, capsys):
        (tmp_path / "runs.csv").write_text(
            "agent,dataset,run,seed,complete,final_hits,hits_r1,hits_r2\n"
            "random,d,0,0,1,3,1,3\nrandom,d,1,1,1,1,1,\n",
            encoding="utf-8",
        )
        assert main(["report", "--in", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mixed run shapes" in err
        assert err.count("\n") == 1
