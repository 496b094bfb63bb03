"""Property tests: the loop invariants hold for any valid input.

Random small pools (l2-squared and cosine, with tied and duplicated
embeddings, or a large common offset), batch sizes, round counts, center
counts and feedback modes, for every agent kind. LLM kinds talk to scripted
policies that answer with junk names, duplicates, already-explored names,
short and overlong lists, and now and then a reply with no solution at all
(never twice in a row, so the retry budget always absorbs it). Center
allocation on the same pools must match the direct-formula scan exactly,
and the certified shortlist behind it must match a full sort on adversarial
keys and lower ends.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdesign.agents import AGENT_KINDS
from expdesign.backends import ScriptedBackend
from expdesign.harness import ExperimentConfig, run_experiment
from expdesign.memory import CandidateMemory, certified_least
from expdesign.pool import METRIC_L2_SQUARED, METRICS, build_pool

from conftest import direct_allocate

FEEDBACK_MODES = (("true", True), ("randomized", True), ("randomized", False))


EMBEDDINGS = ("tied", "duplicate-rows", "offset")


def tied_pool(seed: int, n: int, dim: int, metric: str, embeddings: str):
    """Small-integer scores, so scores tie often, and embeddings that are
    small integers (distances tie often), a few repeated rows (exact ties),
    or a large common offset plus noise (the expanded l2 distance cancels)."""
    rng = np.random.default_rng(seed)
    names = [f"c{i:03d}" for i in range(n)]
    emb = rng.integers(-2, 3, (n, dim)).astype(float)
    if embeddings == "duplicate-rows":
        emb = emb[rng.integers(0, max(1, n // 4), n)]
    elif embeddings == "offset":
        emb = 1e6 + rng.standard_normal((n, dim))
    emb[np.all(emb == 0.0, axis=1), 0] = 1.0  # cosine needs nonzero rows
    scores = rng.integers(0, 4, n).astype(float)
    truth = [name for name, hit in zip(names, rng.random(n) < 0.3) if hit]
    return build_pool(names, scores, emb, metric=metric,
                      hit_mode="ground-truth-set", ground_truth=truth)


def messy_policy(names, batch_size: int, seed: int):
    """A pure function of (call index, prompt), like a replayed transcript."""

    def reply(index: int, system: str, user: str) -> str:
        rng = np.random.default_rng([seed, index])
        if index % 3 == 1 and rng.random() < 0.3:
            return "I would rather not say."
        seen = [name for name in names if name in user]  # explored by now
        picks = []
        for _ in range(int(rng.integers(1, 2 * batch_size + 4))):
            u = rng.random()
            if u < 0.2:
                picks.append(f"JUNK-{int(rng.integers(5))}")
            elif u < 0.35 and picks:
                picks.append(picks[int(rng.integers(len(picks)))])
            elif u < 0.55 and seen:
                picks.append(seen[int(rng.integers(len(seen)))])
            else:
                picks.append(names[int(rng.integers(len(names)))])
        return "**Solution:\n" + "\n".join(f"## {p}" for p in picks)

    return reply


@pytest.mark.parametrize("kind", AGENT_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    pool_seed=st.integers(0, 2**16),
    n=st.integers(3, 30),
    dim=st.integers(1, 3),
    metric=st.sampled_from(METRICS),
    embeddings=st.sampled_from(EMBEDDINGS),
    batch_size=st.integers(1, 9),
    rounds=st.integers(1, 5),
    num_centers=st.integers(1, 4),
    feedback=st.sampled_from(FEEDBACK_MODES),
    bda_retries=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_loop_invariants(kind, pool_seed, n, dim, metric, embeddings, batch_size, rounds,
                         num_centers, feedback, bda_retries, seed):
    pool = tied_pool(pool_seed, n, dim, metric, embeddings)
    config = ExperimentConfig(
        agent=kind, rounds=rounds, batch_size=batch_size, num_centers=num_centers,
        feedback=feedback[0], randomize_fresh_each_round=feedback[1],
        metric=metric, dataset_key="il2", bda_retries=bda_retries,
    )

    def run():
        backend = ScriptedBackend(fn=messy_policy(pool.names, batch_size, seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # budgets beyond the pool size
            return run_experiment(config, seed, pool=pool, backend=backend)

    result = run()
    assert result.complete, result.error
    assert len(result.selections) == rounds
    seen: set[str] = set()
    total = 0
    for batch, hits, cumulative in zip(result.selections, result.hits,
                                       result.cumulative_hits):
        assert len(batch) == min(batch_size, n - len(seen))
        assert len(set(batch)) == len(batch) and seen.isdisjoint(batch)
        assert set(batch) <= set(pool.names)
        seen.update(batch)
        assert hits == [name for name in batch if pool.is_hit(name)]
        assert cumulative == total + len(hits) >= total
        total = cumulative

    again = run()
    assert again.selections == result.selections
    assert again.cumulative_hits == result.cumulative_hits


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    pool_seed=st.integers(0, 2**16),
    n=st.integers(3, 60),
    dim=st.integers(1, 5),
    embeddings=st.sampled_from(EMBEDDINGS),
    rounds=st.lists(st.tuples(st.lists(st.integers(0, 59), min_size=1, max_size=5),
                              st.integers(1, 20)), min_size=1, max_size=6),
)
def test_allocation_matches_direct_formula(pool_seed, n, dim, embeddings, rounds):
    pool = tied_pool(pool_seed, n, dim, METRIC_L2_SQUARED, embeddings)
    memory = CandidateMemory(pool)
    explored = np.zeros(n, dtype=bool)
    for centers, batch_size in rounds:
        centers = [c % n for c in centers]
        expected = direct_allocate(pool.embeddings.matrix, explored, centers, batch_size)
        np.testing.assert_array_equal(memory.allocate_batch(centers, batch_size), expected)
        explored[expected] = True


def test_allocation_matches_direct_formula_on_threads(threaded_scan):
    test_allocation_matches_direct_formula()


@st.composite
def shortlist_inputs(draw):
    """Keys with heavy ties and inf and NaN among them, lower ends equal to
    the keys, below them or -inf, non-candidates (inf or NaN lower end)
    whose keys would win, and k and min_rows up to and past the number of
    candidates."""
    n = draw(st.integers(0, 40))
    keys = np.array(draw(st.lists(
        st.sampled_from([-1.0, 0.0, 1.0, 2.0, math.inf, math.nan]), min_size=n, max_size=n)))
    low = keys.copy()
    for i in range(n):
        end = draw(st.sampled_from(["key", "below", "-inf", "none"]))
        if end == "none":
            low[i], keys[i] = draw(st.sampled_from([math.inf, math.nan])), -2.0
        elif end == "-inf":
            low[i] = -math.inf
        elif end == "below" or not keys[i] < 2.0:
            low[i] = (keys[i] if keys[i] < 2.0 else 2.0) - draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    return low, keys, draw(st.integers(0, n + 3)), draw(st.integers(0, n + 5))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(shortlist_inputs())
def test_certified_least_matches_full_sort(inputs):
    low, keys, k, min_rows = inputs
    live = np.flatnonzero(low < np.inf)
    expected = live[np.lexsort((live, keys[live]))[:k]]

    def exact(rows):
        assert np.all(np.diff(rows) > 0) and np.all(low[rows] < np.inf)
        assert rows.size >= min(min_rows, live.size)
        return keys[rows]

    got, got_keys = certified_least(low, k, exact, min_rows=min_rows)
    np.testing.assert_array_equal(got, expected)
    assert got_keys.tobytes() == keys[expected].tobytes()
