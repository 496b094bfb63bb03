from __future__ import annotations

import numpy as np
import pytest

from expdesign.errors import DatasetError
from expdesign.memory import (
    CandidateMemory,
    center_quotas,
    distance,
    embedding_distances,
)
from expdesign.pool import build_pool

from conftest import naive_allocate, naive_nearest_unexplored, random_pool


class TestDistance:
    def test_cosine_identity_is_zero(self):
        v = [0.3, -1.2, 4.0]
        assert distance("cosine", v, v) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_orthogonal(self):
        assert distance("cosine", [1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_cosine_opposite_is_two(self):
        assert distance("cosine", [1.0, 0.0], [-2.0, 0.0]) == pytest.approx(2.0)

    def test_l2_squared_hand_value(self):
        # (4-1)^2 + (6-2)^2 = 9 + 16
        assert distance("l2-squared", [1.0, 2.0], [4.0, 6.0]) == 25.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            distance("l2-squared", [1.0], [1.0, 2.0])

    def test_cosine_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            distance("cosine", [0.0, 0.0], [1.0, 0.0])

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            distance("manhattan", [1.0], [1.0])


class TestCandidateMemory:
    def test_nearest_basic(self):
        pool = build_pool(
            ["A", "B", "C"], [1.0, 2.0, 3.0], [[0.0], [1.0], [2.0]], percentile=50.0
        )
        memory = CandidateMemory(pool)
        assert memory.nearest_unexplored([0.9], 2) == ["B", "A"]

    def test_nearest_skips_explored(self):
        pool = build_pool(
            ["A", "B", "C"], [1.0, 2.0, 3.0], [[0.0], [1.0], [2.0]], percentile=50.0
        )
        memory = CandidateMemory(pool)
        memory.mark_explored(["B"])
        assert memory.nearest_unexplored([0.9], 2) == ["A", "C"]

    def test_nearest_k_exceeds_pool(self, line_pool):
        memory = CandidateMemory(line_pool)
        memory.mark_explored(["D"])
        assert memory.nearest_unexplored([0.0], 10) == ["A", "B", "C"]

    def test_nearest_dim_mismatch(self, line_pool):
        memory = CandidateMemory(line_pool)
        with pytest.raises(ValueError, match="shape"):
            memory.nearest_unexplored([0.0, 1.0], 1)

    def test_cosine_zero_query(self):
        pool = build_pool(
            ["A", "B"], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]],
            metric="cosine", percentile=50.0,
        )
        memory = CandidateMemory(pool)
        with pytest.raises(ValueError, match="zero"):
            memory.nearest_unexplored([0.0, 0.0], 1)

    def test_mark_idempotent(self, line_pool):
        memory = CandidateMemory(line_pool)
        memory.mark_explored(["A"])
        memory.mark_explored(["A"])
        memory.explore([0])
        assert memory.num_unexplored == 3
        assert memory.unexplored().tolist() == [1, 2, 3]

    def test_mark_atomic_on_unknown(self, line_pool):
        memory = CandidateMemory(line_pool)
        with pytest.raises(DatasetError, match="unknown"):
            memory.mark_explored(["A", "XYZ-NOT-IN-POOL"])
        assert memory.num_unexplored == 4
        assert memory.unexplored().tolist() == [0, 1, 2, 3]

    def test_exhaustion_returns_empty(self, line_pool):
        memory = CandidateMemory(line_pool)
        memory.mark_explored(list(line_pool.names))
        assert memory.nearest_unexplored([0.0], 3) == []


class TestAllocateBatch:
    def test_quota_split_128_over_5(self):
        assert center_quotas(128, 5) == [26, 26, 26, 25, 25]

    def test_quota_split_exact(self):
        assert center_quotas(4, 1) == [4]
        assert center_quotas(6, 3) == [2, 2, 2]

    def test_quota_small_budget(self):
        assert center_quotas(3, 5) == [1, 1, 1, 0, 0]

    def test_single_center(self, line_pool):
        memory = CandidateMemory(line_pool)
        assert memory.allocate_batch([0], 4).tolist() == [0, 1, 2, 3]
        assert memory.num_unexplored == 0

    def test_identical_centers_dedupe(self, line_pool):
        # Sequential marking: the second identical center continues outward.
        memory = CandidateMemory(line_pool)
        batch = memory.allocate_batch([0, 0], 4)
        assert batch.tolist() == [0, 1, 2, 3]

    def test_never_reselects(self, line_pool):
        memory = CandidateMemory(line_pool)
        first = memory.allocate_batch([0], 2)
        # Re-querying any prior center only ever returns unexplored names.
        assert set(memory.nearest_unexplored([0.0], 4)).isdisjoint(
            line_pool.names[i] for i in first
        )
        second = memory.allocate_batch([0], 2)
        assert set(first.tolist()).isdisjoint(second.tolist())

    def test_shortfall_on_exhaustion(self, line_pool):
        memory = CandidateMemory(line_pool)
        assert len(memory.allocate_batch([3], 10)) == 4
        assert len(memory.allocate_batch([3], 10)) == 0

    def test_empty_centers(self, line_pool):
        memory = CandidateMemory(line_pool)
        with pytest.raises(ValueError, match="empty"):
            memory.allocate_batch([], 4)


class TestOracleEquivalence:
    @pytest.mark.parametrize("metric", ["l2-squared", "cosine"])
    def test_matches_naive_scan(self, metric):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(5, 300))
            dim = int(rng.integers(1, 16))
            pool = random_pool(rng, n, dim, metric)
            memory = CandidateMemory(pool)
            explored = set(
                pool.names[i] for i in rng.permutation(n)[: int(rng.integers(0, n))]
            )
            if explored:
                memory.mark_explored(sorted(explored))
            query = rng.standard_normal(dim)
            if metric == "cosine":
                query /= np.linalg.norm(query)
            k = int(rng.integers(1, 12))
            assert memory.nearest_unexplored(query, k) == naive_nearest_unexplored(
                pool, explored, query, k
            )

    @pytest.mark.parametrize("metric", ["l2-squared", "cosine"])
    def test_allocate_from_center_indices_matches_naive(self, metric):
        rng = np.random.default_rng(12)
        for _ in range(15):
            n = int(rng.integers(5, 200))
            pool = random_pool(rng, n, int(rng.integers(1, 8)), metric)
            memory = CandidateMemory(pool)
            explored = set(
                pool.names[i] for i in rng.permutation(n)[: int(rng.integers(0, n))]
            )
            memory.mark_explored(sorted(explored))
            centers = rng.integers(0, n, int(rng.integers(1, 6)))
            batch_size = int(rng.integers(1, 40))
            got = memory.allocate_batch(centers, batch_size)
            expected = naive_allocate(
                pool, explored, [pool.embeddings.matrix[i] for i in centers], batch_size
            )
            assert [pool.names[i] for i in got] == expected
            assert memory.num_unexplored == n - len(explored) - len(expected)

    def test_tied_duplicates_break_by_index(self):
        pool = build_pool(
            ["a", "b", "c", "d"],
            [1.0, 2.0, 3.0, 4.0],
            [[1.0], [5.0], [1.0], [1.0]],
            percentile=50.0,
        )
        memory = CandidateMemory(pool)
        assert memory.nearest_unexplored([1.0], 3) == ["a", "c", "d"]

    def test_storage_order_only_affects_ties(self):
        rng = np.random.default_rng(5)
        n, dim = 60, 4
        names = [f"c{i}" for i in range(n)]
        scores = rng.permutation(n).astype(float)
        emb = rng.standard_normal((n, dim))
        pool = build_pool(names, scores, emb)
        perm = rng.permutation(n)
        shuffled = build_pool(
            [names[i] for i in perm], scores[perm], emb[perm]
        )
        query = rng.standard_normal(dim)
        a = CandidateMemory(pool).nearest_unexplored(query, 7)
        b = CandidateMemory(shuffled).nearest_unexplored(query, 7)
        assert a == b  # no exact ties in continuous random data


def test_embedding_distances_matches_scalar():
    rng = np.random.default_rng(2)
    matrix = rng.standard_normal((40, 6))
    query = rng.standard_normal(6)
    for metric in ("l2-squared", "cosine"):
        vec = embedding_distances(matrix, query, metric)
        for i in range(40):
            assert vec[i] == pytest.approx(distance(metric, matrix[i], query), abs=1e-12)
