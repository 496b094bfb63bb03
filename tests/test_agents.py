from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdesign.agents import coreset_select, make_agent
from expdesign.backends import ScriptedBackend
from expdesign.errors import ConfigError
from expdesign.feedback import Feedback, FeedbackRecord, randomize_feedback
from expdesign.harness import ExperimentConfig
from expdesign.memory import CandidateMemory
from expdesign.pool import build_pool

from conftest import DATA_DIR, naive_allocate

FIXTURE_GENES = [
    "ABL1", "HNF4A", "MAPK14", "PAK4", "SMAD2",
    "MYBL2", "GBF1", "DDX41", "ZMAT2", "RPL4",
    "RPS27", "SF3B1", "DDX3X", "RPS15", "NOLC1",
    "RPL22", "RPS11", "RPL14", "RPS4X", "RPL32",
    "RPL38", "RPL31", "RPL18A", "SNRNP70",
]


def gene_pool(seed=0, fillers=26, dim=8):
    rng = np.random.default_rng(seed)
    names = FIXTURE_GENES + [f"FILLER{i}" for i in range(fillers)]
    scores = np.round(rng.normal(0, 0.4, len(names)), 2)
    emb = rng.standard_normal((len(names), dim))
    truth = {n for n in names if scores[names.index(n)] > 0.35}
    return build_pool(names, scores, emb, hit_mode="ground-truth-set", ground_truth=truth)


def descriptor_kwargs():
    return dict(
        domain="genes",
        func_desc="regulate the production of Interleukin-2 (IL-2)",
        score_desc="log fold change in Interleukin-2 (IL-2) normalized read counts",
    )


def build(kind, pool, backend=None, trace=None, **fields):
    """The agent make_agent builds from a config with ``fields`` set."""
    return make_agent(ExperimentConfig(agent=kind, **fields), pool, backend, trace)


def make_feedback(pool, names):
    return Feedback(
        tuple(
            FeedbackRecord(n, float(pool.scores[pool.index_of(n)]), pool.is_hit(n))
            for n in names
        )
    )


def names_of(pool, idx):
    """The names of a selection (an array of pool indices), in order."""
    assert isinstance(idx, np.ndarray) and idx.dtype.kind == "i"
    return [pool.names[i] for i in idx]


def is_explored(memory, name):
    return memory.pool.index_of(name) not in memory.unexplored()


class TestRandomizeFeedback:
    def sample(self):
        return Feedback(
            (
                FeedbackRecord("A", 0.5, True),
                FeedbackRecord("B", 0.4, False),
                FeedbackRecord("C", 0.1, False),
                FeedbackRecord("D", -0.2, True),
                FeedbackRecord("E", 0.9, False),
            )
        )

    def test_single_record_unchanged(self):
        fb = Feedback((FeedbackRecord("X", 1.0, True),))
        rng = np.random.default_rng(0)
        assert randomize_feedback(fb, True, True, rng) == fb

    def test_level1_preserves_score_multiset(self):
        fb = self.sample()
        out = randomize_feedback(fb, True, False, np.random.default_rng(1))
        assert [r.name for r in out.records] == [r.name for r in fb.records]
        assert sorted(r.score for r in out.records) == sorted(
            r.score for r in fb.records
        )
        assert [r.hit for r in out.records] == [r.hit for r in fb.records]

    def test_level2_preserves_hit_count(self):
        fb = self.sample()
        out = randomize_feedback(fb, False, True, np.random.default_rng(2))
        assert sum(r.hit for r in out.records) == sum(r.hit for r in fb.records)
        assert [r.score for r in out.records] == [r.score for r in fb.records]

    def test_both_levels(self):
        fb = self.sample()
        out = randomize_feedback(fb, True, True, np.random.default_rng(3))
        assert {r.name for r in out.records} == {r.name for r in fb.records}
        assert sorted(r.score for r in out.records) == sorted(
            r.score for r in fb.records
        )
        assert sum(r.hit for r in out.records) == 2

    def test_seeded_replay_is_exact(self):
        fb = self.sample()
        a = randomize_feedback(fb, True, True, np.random.default_rng(7))
        b = randomize_feedback(fb, True, True, np.random.default_rng(7))
        assert a == b

    def test_level1_shuffle_matches_documented_permutation(self):
        fb = Feedback(
            (
                FeedbackRecord("A", 0.5, False),
                FeedbackRecord("B", 0.4, False),
                FeedbackRecord("C", 0.1, False),
            )
        )
        seed = 11
        perm = np.random.default_rng(seed).permutation(3)
        scores = [fb.records[i].score for i in perm]
        out = randomize_feedback(fb, True, False, np.random.default_rng(seed))
        assert [r.score for r in out.records] == scores

    def test_empty_feedback_passthrough(self):
        fb = Feedback(())
        assert randomize_feedback(fb, True, True, np.random.default_rng(0)) is fb


class TestCoreset:
    def test_greedy_from_scratch(self):
        pool = build_pool(
            ["a", "b", "c", "d"], [1.0, 2.0, 3.0, 4.0],
            [[0.0], [1.0], [2.0], [10.0]], percentile=50.0,
        )
        memory = CandidateMemory(pool)
        assert names_of(pool, coreset_select(memory, 2)) == ["a", "d"]
        assert is_explored(memory, "a") and is_explored(memory, "d")

    def test_farthest_from_prior_cover(self):
        pool = build_pool(
            ["a", "b", "c"], [1.0, 2.0, 3.0], [[0.0], [1.0], [10.0]], percentile=50.0
        )
        memory = CandidateMemory(pool)
        memory.mark_explored(["a"])
        assert names_of(pool, coreset_select(memory, 1)) == ["c"]

    def test_identical_embeddings_tie_to_index(self):
        pool = build_pool(
            ["a", "b", "c", "d"], [1.0, 2.0, 3.0, 4.0],
            np.ones((4, 2)), percentile=50.0,
        )
        memory = CandidateMemory(pool)
        assert names_of(pool, coreset_select(memory, 2)) == ["a", "b"]

    def test_exhaustion(self):
        pool = build_pool(["a", "b"], [1.0, 2.0], np.eye(2), percentile=50.0)
        memory = CandidateMemory(pool)
        assert names_of(pool, coreset_select(memory, 10)) == ["a", "b"]


class TestClassicalAgents:
    def test_random_rounds_are_disjoint(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        agent = build("random", pool, batch_size=10)
        rng = np.random.default_rng(0)
        seen: set[str] = set()
        for round_num in range(1, 6):
            batch = names_of(pool, agent.select(round_num, memory, None, rng))
            assert len(batch) == min(10, 50 - len(seen))
            assert seen.isdisjoint(batch)
            seen.update(batch)
        assert len(seen) == 50

    def test_linucb_learns_linear_signal(self):
        rng = np.random.default_rng(5)
        n, dim = 300, 6
        w = rng.standard_normal(dim)
        emb = rng.standard_normal((n, dim))
        scores = emb @ w
        pool = build_pool([f"c{i}" for i in range(n)], scores, emb)
        memory = CandidateMemory(pool)
        agent = build("linucb", pool, batch_size=20, linucb_alpha=0.5)
        batch1 = names_of(pool, agent.select(1, memory, None, rng))
        feedback = make_feedback(pool, batch1)
        batch2 = names_of(pool, agent.select(2, memory, feedback, rng))
        # After one round of updates the top of the pool should be enriched.
        top = set(np.array(pool.names)[np.argsort(-pool.scores)[:60]])
        assert len(top & set(batch2)) >= 10

    def test_gp_agent_round_one_is_deterministic(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        agent = build("gp", pool, batch_size=5)
        batch = names_of(pool, agent.select(1, memory, None, np.random.default_rng(0)))
        # No data: constant acquisition, ties resolve to the first indexes.
        assert batch == list(pool.names[:5])

    def test_gp_agent_exploits_after_feedback(self):
        rng = np.random.default_rng(8)
        n = 200
        emb = rng.uniform(-2, 2, size=(n, 2))
        target = np.array([1.0, -1.0])
        scores = -np.linalg.norm(emb - target, axis=1)
        pool = build_pool([f"c{i}" for i in range(n)], scores, emb)
        memory = CandidateMemory(pool)
        agent = build("gp", pool, batch_size=15, gp_beta=1.0)
        batch1 = names_of(pool, agent.select(1, memory, None, rng))
        batch2 = names_of(pool, agent.select(2, memory, make_feedback(pool, batch1), rng))
        top = set(np.array(pool.names)[np.argsort(-pool.scores)[:50]])
        assert len(top & set(batch2)) >= 5

    def test_gp_length_scale_is_computed_once_per_subsample(self, monkeypatch):
        # The median heuristic depends only on the immutable table and the
        # subsample size: two runs on one pool compute it once, with the
        # bits of a fresh computation, and another size gets its own.
        from expdesign import agents
        from expdesign.harness import run_many
        from expdesign.surrogates import median_heuristic

        sizes = []

        def counted(X, max_points):
            sizes.append(max_points)
            return median_heuristic(X, max_points)

        monkeypatch.setattr(agents, "median_heuristic", counted)
        pool = gene_pool()
        matrix = pool.embeddings.matrix
        run_many(ExperimentConfig(agent="gp", rounds=2, batch_size=5, runs=2), pool=pool)
        assert sizes == [512]
        memoized = build("gp", pool, batch_size=5).model.length_scale
        assert sizes == [512]
        fresh = median_heuristic(matrix, 512)
        assert np.float64(memoized).tobytes() == np.float64(fresh).tobytes()
        other = build("gp", pool, batch_size=5, gp_subsample=7).model.length_scale
        build("gp", pool, batch_size=5, gp_subsample=7)
        assert sizes == [512, 7]
        assert other == median_heuristic(matrix, 7) != memoized

    def test_random_centroids_uses_allocation(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        agent = build("random-centroids", pool, batch_size=10, num_centers=5)
        batch = names_of(pool, agent.select(1, memory, None, np.random.default_rng(1)))
        assert len(batch) == 10
        assert len(set(batch)) == 10
        assert all(is_explored(memory, n) for n in batch)

    def test_linucb_beats_random_3x_on_linear_signal(self):
        # Linear response w.x + noise: the bandit should find at least three
        # times as many hits as uniform sampling, averaged over 20 seeds.
        from expdesign.harness import ExperimentConfig, run_experiment

        ratios = {}
        for kind in ("linucb", "random"):
            finals = []
            for seed in range(20):
                rng = np.random.default_rng([seed, 999])
                n, dim = 1000, 8
                emb = rng.standard_normal((n, dim))
                w = rng.standard_normal(dim)
                scores = emb @ w + rng.normal(0.0, 0.1, n)
                pool = build_pool([f"c{i}" for i in range(n)], scores, emb,
                                  percentile=90.0)
                config = ExperimentConfig(agent=kind, rounds=5, batch_size=40)
                finals.append(run_experiment(config, seed=seed, pool=pool).final_hits)
            ratios[kind] = float(np.mean(finals))
        assert ratios["linucb"] >= 3.0 * ratios["random"]


class TestLlmnnAgent:
    def make_agent(self, pool, backend, kind="llmnn", trace=None):
        return build(kind, pool, backend, trace, batch_size=10, num_centers=5,
                     **descriptor_kwargs())

    def test_replays_recorded_transcript(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        events = []
        backend = ScriptedBackend.from_dir(DATA_DIR / "il2-fixtures")
        agent = self.make_agent(pool, backend, trace=events.append)
        rng = np.random.default_rng(0)

        batch = names_of(pool, agent.select(1, memory, None, rng))
        call = next(e for e in events if e["event"] == "llm_call")
        assert call["parsed"] == ["ABL1", "HNF4A", "MAPK14", "PAK4", "SMAD2"]
        centers = [pool.embeddings.matrix[pool.index_of(n)] for n in call["parsed"]]
        expected = naive_allocate(pool, set(), centers, 10)
        assert batch == expected
        # The proposed centers are nearest to themselves, so they lead
        # their own neighborhoods.
        assert set(call["parsed"]) <= set(batch)

        feedback = make_feedback(pool, batch)
        batch2 = names_of(pool, agent.select(2, memory, feedback, rng))
        call2 = [e for e in events if e["event"] == "llm_call"][1]
        assert call2["parsed"] == ["MYBL2", "GBF1", "DDX41", "ZMAT2", "RPL4"]
        assert set(batch).isdisjoint(batch2)
        assert "[HITS]" in call2["user"]

    def test_unknown_center_replaced_randomly(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        events = []
        backend = ScriptedBackend(
            texts=["**Solution:\n## NOT-A-GENE\n## ABL1\n## MYBL2\n## GBF1\n## DDX41"]
        )
        agent = self.make_agent(pool, backend, trace=events.append)
        batch = names_of(pool, agent.select(1, memory, None, np.random.default_rng(3)))
        subs = [e for e in events if e["event"] == "center_substitution"]
        assert len(subs) == 1
        assert subs[0]["proposed"] == "NOT-A-GENE"
        assert subs[0]["replacement"] in pool.names
        assert len(batch) == 10

    def test_explored_centers_are_allowed(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        memory.mark_explored(["ABL1"])
        backend = ScriptedBackend(
            texts=["**Solution:\n## ABL1\n## MYBL2\n## GBF1\n## DDX41\n## ZMAT2"]
        )
        agent = self.make_agent(pool, backend)
        batch = names_of(pool, agent.select(1, memory, None, np.random.default_rng(0)))
        assert "ABL1" not in batch  # explored: usable as a center, never reselected
        assert len(batch) == 10

    def test_duplicate_centers_deduplicated(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        events = []
        backend = ScriptedBackend(
            texts=["**Solution:\n## ABL1\n## ABL1\n## ABL1\n## MYBL2\n## GBF1"]
        )
        agent = self.make_agent(pool, backend, trace=events.append)
        agent.select(1, memory, None, np.random.default_rng(0))
        call = next(e for e in events if e["event"] == "llm_call")
        assert call["parsed"] == ["ABL1", "ABL1", "ABL1", "MYBL2", "GBF1"]
        # three centers after dedup -> quotas 4/3/3 on a batch of 10
        sel = next(e for e in events if e["event"] == "selection")
        assert len(sel["names"]) == 10

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_explored=st.integers(0, 49),
        batch_size=st.integers(1, 60),
        num_centers=st.integers(1, 6),
        picks=st.lists(
            st.tuples(st.sampled_from(["unknown", "explored", "unexplored", "repeat"]),
                      st.integers(0, 99)),
            min_size=1, max_size=8,
        ),
    )
    def test_batch_is_full_without_a_top_up(self, seed, num_explored, batch_size,
                                            num_centers, picks):
        # Allocation fills min(B, unexplored) slots whatever the centers, so
        # the generator moves only for the substitutes of unknown names.
        pool = gene_pool()
        memory = CandidateMemory(pool)
        memory.explore(np.arange(num_explored, dtype=np.intp))
        explored, unexplored = pool.names[:num_explored], pool.names[num_explored:]
        proposed: list[str] = []
        for pick, k in picks:
            if pick == "unknown":
                proposed.append(f"NOT-A-GENE-{k % 3}")
            elif pick == "explored" and explored:
                proposed.append(explored[k % len(explored)])
            elif pick == "repeat" and proposed:
                proposed.append(proposed[k % len(proposed)])
            else:
                proposed.append(unexplored[k % len(unexplored)])
        events = []
        reply = "**Solution:\n" + "\n".join(f"## {n}" for n in proposed)
        backend = ScriptedBackend(texts=[reply])
        agent = build("llmnn", pool, backend, events.append, batch_size=batch_size,
                      num_centers=num_centers, **descriptor_kwargs())
        rng = np.random.default_rng(seed)
        batch = names_of(pool, agent.select(1, memory, None, rng))

        assert len(batch) == min(batch_size, len(unexplored))
        assert len(set(batch)) == len(batch) and set(batch) <= set(unexplored)
        assert not any(e["event"] == "random_top_up" for e in events)
        subs = [e for e in events if e["event"] == "center_substitution"]
        centers = dict.fromkeys(proposed[:num_centers])
        assert len(subs) == sum(name not in pool for name in centers)
        reference = np.random.default_rng(seed)
        for _ in subs:
            reference.integers(len(unexplored))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_noexp_variant_prompts_without_reasoning(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        events = []
        backend = ScriptedBackend(
            texts=["**Solution:\n## ABL1\n## MYBL2\n## GBF1\n## DDX41\n## ZMAT2"]
        )
        agent = self.make_agent(pool, backend, kind="llmnn-noexp",
                                trace=events.append)
        agent.select(1, memory, None, np.random.default_rng(0))
        call = next(e for e in events if e["event"] == "llm_call")
        assert "**Reflection" not in call["user"]
        assert "**Solution:" in call["user"]


class TestBdaAgent:
    def make_agent(self, pool, backend, batch_size=6, trace=None, **fields):
        return build("bda", pool, backend, trace, batch_size=batch_size,
                     num_centers=5, **descriptor_kwargs(), **fields)

    def test_selects_exactly_named_candidates(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        wanted = ["ABL1", "MYBL2", "GBF1", "DDX41", "ZMAT2", "RPL4"]
        backend = ScriptedBackend(
            texts=["**Solution:\n" + "\n".join(f"## {n}" for n in wanted)]
        )
        agent = self.make_agent(pool, backend)
        batch = names_of(pool, agent.select(1, memory, None, np.random.default_rng(0)))
        assert batch == wanted
        assert all(is_explored(memory, n) for n in wanted)

    def test_invalid_names_trigger_replacement_prompt(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        events = []
        backend = ScriptedBackend(
            texts=[
                "**Solution:\n## FAKE1\n## ABL1\n## FAKE2\n## MYBL2\n## ABL1\n## FAKE3",
                "**Solution:\n## GBF1\n## DDX41\n## ZMAT2\n## RPL4\n## RPS27\n## SF3B1",
            ]
        )
        agent = self.make_agent(pool, backend, trace=events.append)
        batch = names_of(pool, agent.select(1, memory, None, np.random.default_rng(0)))
        assert batch == ["ABL1", "MYBL2", "GBF1", "DDX41", "ZMAT2", "RPL4"]
        rejected = [e["name"] for e in events if e["event"] == "rejected_name"]
        assert rejected == ["FAKE1", "FAKE2", "FAKE3"]
        assert backend.calls == 2

    def test_random_top_up_after_retry_budget(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        events = []
        backend = ScriptedBackend(fn=lambda i, s, u: "**Solution:\n## NOPE")
        agent = self.make_agent(pool, backend, batch_size=4,
                                bda_retries=2, trace=events.append)
        batch = names_of(pool, agent.select(1, memory, None, np.random.default_rng(4)))
        assert backend.calls == 3  # initial prompt + two replacements
        assert len(batch) == 4
        assert all(n in pool.names for n in batch)
        assert any(e["event"] == "random_top_up" for e in events)

    def test_never_returns_explored_or_foreign_names(self):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        explored_before = ["ABL1", "MYBL2", "GBF1"]
        memory.mark_explored(explored_before)

        def junk(i, system, user):
            # mixes explored names, unknown names, and a few valid picks
            return (
                "**Solution:\n## ABL1\n## WHO-KNOWS\n## GBF1\n## DDX41\n"
                "## ZMAT2\n## ALSO-FAKE\n## RPL4\n## RPS27"
            )

        agent = self.make_agent(pool, ScriptedBackend(fn=junk), batch_size=5)
        batch = names_of(pool, agent.select(1, memory, None, np.random.default_rng(9)))
        assert len(batch) == 5
        assert all(n in pool.names for n in batch)
        assert set(batch).isdisjoint(explored_before)

    def test_batch_capped_by_unexplored(self):
        pool = build_pool(["a", "b", "c"], [1.0, 2.0, 3.0], np.eye(3), percentile=50.0)
        memory = CandidateMemory(pool)
        memory.mark_explored(["a"])
        backend = ScriptedBackend(fn=lambda i, s, u: "**Solution:\n## b\n## c")
        agent = build("bda", pool, backend, batch_size=5, num_centers=2,
                      **descriptor_kwargs())
        batch = names_of(pool, agent.select(1, memory, None, np.random.default_rng(0)))
        assert sorted(batch) == ["b", "c"]


class TestMakeAgent:
    def test_builds_every_classical_kind(self):
        pool = gene_pool()
        for kind in ("random", "coreset", "linucb", "gp", "random-centroids"):
            agent = build(kind, pool, batch_size=4)
            assert agent.kind == kind

    def test_llm_kinds_require_backend(self):
        pool = gene_pool()
        with pytest.raises(ConfigError, match="backend"):
            build("llmnn", pool, batch_size=4, **descriptor_kwargs())

    def test_llm_kinds_require_descriptors(self):
        pool = gene_pool()
        backend = ScriptedBackend(texts=["**Solution:\n## ABL1"])
        with pytest.raises(ConfigError, match="descriptors"):
            build("llmnn", pool, backend, batch_size=4)

    def test_unknown_kind(self):
        pool = gene_pool()
        with pytest.raises(ConfigError, match="unknown agent"):
            build("thompson", pool, batch_size=4)

    def test_llm_kind_construction(self):
        pool = gene_pool()
        backend = ScriptedBackend(texts=["**Solution:\n## ABL1"])
        for kind in ("llmnn", "llmnn-noexp", "bda"):
            agent = build(kind, pool, backend, batch_size=4, **descriptor_kwargs())
            assert agent.kind == kind

    @pytest.mark.parametrize("kind", ["random", "coreset", "linucb", "gp", "bda",
                                      "llmnn", "llmnn-noexp", "random-centroids"])
    def test_select_returns_explored_pool_indices(self, kind):
        pool = gene_pool()
        memory = CandidateMemory(pool)
        memory.mark_explored(["ABL1", "RPL4"])
        backend = ScriptedBackend(
            fn=lambda i, s, u: "**Solution:\n## ABL1\n## NOPE\n## MYBL2\n## MYBL2\n## GBF1"
        )
        agent = build(kind, pool, backend, batch_size=7, num_centers=3,
                      bda_retries=0, **descriptor_kwargs())
        before = set(memory.unexplored().tolist())
        batch = agent.select(1, memory, None, np.random.default_rng(2))
        assert isinstance(batch, np.ndarray) and batch.dtype.kind == "i"
        assert len(batch) == 7 and len(set(batch.tolist())) == 7
        assert set(batch.tolist()) <= before
        assert set(memory.unexplored().tolist()) == before - set(batch.tolist())
