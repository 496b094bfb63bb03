from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from expdesign import memory as memory_module
from expdesign import pool as pool_module
from expdesign.agents import coreset_select
from expdesign.errors import DatasetError
from expdesign.memory import CandidateMemory, center_quotas, embedding_distances
from expdesign.pool import build_pool

from conftest import (
    coreset_oracle,
    count_thread_starts,
    direct_allocate,
    direct_nearest,
    naive_allocate,
    naive_nearest_unexplored,
    random_pool,
)
from test_acceptance import test_criterion_1_nearest_neighbor_oracle as nearest_oracle


def pair_distance(metric, a, b):
    """Distance between two vectors through the vectorized scan."""
    return float(embedding_distances(np.array([a], dtype=float), np.array(b, dtype=float), metric)[0])


class TestDistance:
    def test_cosine_identity_is_zero(self):
        v = [0.3, -1.2, 4.0]
        assert pair_distance("cosine", v, v) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_orthogonal(self):
        assert pair_distance("cosine", [1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_cosine_opposite_is_two(self):
        assert pair_distance("cosine", [1.0, 0.0], [-2.0, 0.0]) == pytest.approx(2.0)

    def test_l2_squared_hand_value(self):
        # (4-1)^2 + (6-2)^2 = 9 + 16
        assert pair_distance("l2-squared", [1.0, 2.0], [4.0, 6.0]) == 25.0

    def test_cosine_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            pair_distance("cosine", [1.0, 0.0], [0.0, 0.0])


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

    @pytest.mark.parametrize("metric", ["l2-squared", "cosine"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nearest_rejects_non_finite_query(self, metric, bad, monkeypatch):
        pool = random_pool(np.random.default_rng(4), 30, 3, metric)
        memory = CandidateMemory(pool)

        def no_scan(*args):
            raise AssertionError("scanned a non-finite query")

        monkeypatch.setattr(CandidateMemory, "_lower_ends", no_scan)
        query = pool.embeddings.matrix[0].copy()
        query[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            memory.nearest_unexplored(query, 3)

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


def hard_embeddings(kind: str, rng: np.random.Generator, n: int = 240, dim: int = 6):
    """Pools where the expanded l2 distance is far from the direct one or
    where exact ties abound."""
    if kind == "duplicate-rows":
        return rng.integers(-2, 3, (n // 8, dim)).astype(float)[rng.integers(0, n // 8, n)]
    if kind == "lattice":
        return rng.integers(-3, 4, (n, dim)).astype(float)
    if kind == "offset":  # |x|^2 - 2 x.q + |q|^2 cancels catastrophically
        return 1e6 + rng.standard_normal((n, dim))
    if kind == "offset-near-ties":
        near = rng.integers(-2, 3, (n, dim)) * 1e-4 + rng.standard_normal((n, dim)) * 1e-12
        return 1e6 + near
    if kind == "near-overflow":  # |x|^2 overflows, |x - q|^2 often does not
        return 1e154 * (1.0 + 1e-3 * rng.standard_normal((n, dim)))
    if kind == "overflow":  # direct distances overflow to inf as well
        return 1e154 * rng.standard_normal((n, dim))
    if kind == "subnormal":  # squares underflow into the subnormals, and tie
        lattice = rng.integers(-3, 4, (2, n, dim)).astype(float)
        return 1e-161 * lattice[0] + 1e-164 * lattice[1]
    if kind == "mixed-scales":
        return rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-150, 150, (n, 1))
    if kind == "gate-edge":  # norms at, just inside and just outside 2^62
        rows = rng.integers(-3, 4, (n, dim)) * 2.0**60  # inside while |row|^2 <= 16 * 2^120
        edge = rng.choice(n, n // 4, replace=False)
        rows[edge] = 0.0
        rows[edge, 0] = 2.0**62 * rng.choice([1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52], edge.size)
        return rows
    if kind == "f32-underflow":  # f32 products of about 1e-44 are subnormal
        return 1e-22 * (rng.integers(-3, 4, (n, dim)) + 0.1 * rng.standard_normal((n, dim)))
    if kind == "f32-subnormal":  # components are subnormal in f32, products flush to 0
        return 1e-41 * (rng.integers(-3, 4, (n, dim)) + 0.1 * rng.standard_normal((n, dim)))
    if kind == "f32-flush":  # components flush to 0 in f32
        return 1e-47 * (rng.integers(-3, 4, (n, dim)) + 0.1 * rng.standard_normal((n, dim)))
    if kind == "f32-overflow":  # f32 products overflow
        return 1e30 * rng.standard_normal((n, dim))
    if kind == "f32-inf":  # components overflow f32
        return 1e39 * rng.standard_normal((n, dim))
    if kind == "f32-worst":
        return f32_worst_embeddings(rng, n)
    if kind in ("near-parallel", "near-antiparallel"):
        # Scaled copies of one direction, nudged by 1e-9 relative steps:
        # cosine distances near 0 (and near 2 for the flipped half) cancel
        # to a few ulps and tie.
        base = rng.standard_normal(dim)
        rows = base * rng.choice([0.5, 1.0, 3.0], (n, 1))
        rows += 1e-9 * np.abs(base).max() * rng.integers(-2, 3, (n, dim))
        if kind == "near-antiparallel":
            rows[rng.random(n) < 0.5] *= -1.0
        return rows
    raise ValueError(kind)


def f32_worst_embeddings(rng: np.random.Generator, n: int) -> np.ndarray:
    """1-dim rows whose f32 cross term with the first row is off by nearly
    the most the bound allows, up for half of them and down for the rest.

    The first row q is an f32 number just above 1, so that products with it
    stay in [1, 2) and round by up to a relative 2^-24. Every other row lies
    at an f32 midpoint, about 1e-3 from q, and rounds by nearly as much;
    the n - 1 rows where both roundings add up are kept. Their distances to
    q are packed far closer than the errors are wide, so a bound half as
    large leaves true neighbours off the shortlist.
    """
    step = 2.0**-23
    q = 1.0 + step * int(rng.integers(2**14, 2**15))
    offsets = np.arange(8400, 10080)
    offsets = np.concatenate([offsets, -offsets])
    x = q + step * (np.repeat(offsets, 2) + np.tile([0.499, 0.501], offsets.size))
    cross = (x.astype(np.float32) * np.float32(q)).astype(np.float64)
    error = np.abs((x * x - 2.0 * cross + q * q) - (x - q) ** 2)
    worst = x[np.argsort(-error, kind="stable")[: n - 1]]
    return np.concatenate([[q], rng.permutation(worst)])[:, None]


HARD_KINDS = ("duplicate-rows", "lattice", "offset", "offset-near-ties", "near-overflow",
              "overflow", "subnormal", "mixed-scales", "gate-edge", "f32-underflow",
              "f32-subnormal", "f32-flush", "f32-overflow", "f32-inf", "f32-worst",
              "near-parallel", "near-antiparallel")
METRICS = ("l2-squared", "cosine")


def nonzero_rows(emb: np.ndarray) -> np.ndarray:
    """The rows, with a 1 in the first component of each row whose squared
    norm is 0 (a cosine pool rejects such rows)."""
    emb[np.square(emb).sum(axis=1) == 0.0, 0] = 1.0
    return emb


def hard_pool(emb: np.ndarray, metric: str):
    """A pool of these rows under the metric, scores by index."""
    if metric == "cosine":
        emb = nonzero_rows(emb)
    n = len(emb)
    return build_pool([f"c{i}" for i in range(n)], np.arange(n, dtype=float), emb,
                      metric=metric, percentile=50.0)


def names(memory: CandidateMemory, idx) -> list[str]:
    return [memory.pool.names[i] for i in idx]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", HARD_KINDS)
def test_cosine_norms_from_squared_norms(kind):
    """The cosine norms, sqrt of the table's squared norms, are the bits of
    np.linalg.norm on the rows, overflow and underflow included."""
    emb = nonzero_rows(hard_embeddings(kind, np.random.default_rng(5)))
    pool = build_pool([f"c{i}" for i in range(len(emb))], np.zeros(len(emb)), emb,
                      metric="cosine")
    norms = CandidateMemory(pool)._norms
    expected = np.linalg.norm(pool.embeddings.matrix, axis=1)
    assert norms.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestExactScan:
    """Allocation and nearest return exactly the direct formula's indices."""

    def memory(self, emb, explored=(), metric="l2-squared"):
        memory = CandidateMemory(hard_pool(emb, metric))
        memory.explore(np.asarray(explored, dtype=np.intp))
        return memory

    # The l2 cases keep the bare kind as their id.
    @pytest.mark.parametrize(
        "kind, metric",
        [pytest.param(k, m, id=k if m == "l2-squared" else f"{k}-{m}")
         for m in METRICS for k in HARD_KINDS],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_allocate_and_nearest_match_direct_formula(self, kind, metric, seed):
        rng = np.random.default_rng(seed)
        emb = hard_embeddings(kind, rng)
        n = len(emb)
        explored = np.zeros(n, dtype=bool)
        explored[rng.choice(n, n // 5, replace=False)] = True
        memory = self.memory(emb, np.flatnonzero(explored), metric)
        matrix = memory.pool.embeddings.matrix
        for round_num in range(8):
            centers = list(rng.integers(0, n, int(rng.integers(1, 6))))
            if round_num % 2 == 0:
                centers[0] = 0  # the designed query of f32-worst
            if round_num % 3 == 1:
                centers += centers[:2]  # duplicate centers
            if round_num % 3 == 2:
                centers.append(int(np.flatnonzero(explored)[0]))  # an explored center
            batch_size = int(rng.integers(1, 40))
            expected = direct_allocate(matrix, explored, centers, batch_size, metric)
            got = memory.allocate_batch(centers, batch_size)
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, expected)
            explored[expected] = True
            for query in (matrix[int(rng.integers(n))], matrix[centers[0]] * (1 + 1e-9)):
                k = int(rng.integers(1, 30))
                expected = direct_nearest(matrix, explored, query, k, metric)
                assert memory.nearest_unexplored(query, k) == names(memory, expected)

    @pytest.mark.parametrize("kind", ("duplicate-rows", "offset", "overflow"))
    def test_k_at_least_unexplored(self, kind):
        rng = np.random.default_rng(7)
        emb = hard_embeddings(kind, rng, n=40)
        explored = np.zeros(40, dtype=bool)
        explored[::3] = True
        memory = self.memory(emb, np.flatnonzero(explored))
        matrix = memory.pool.embeddings.matrix
        for k in (26, 27, 100):
            expected = direct_nearest(matrix, explored, matrix[0], k)
            assert memory.nearest_unexplored(matrix[0], k) == names(memory, expected)
        expected = direct_allocate(matrix, explored, [0, 5, 5], 100)
        assert len(expected) == 26
        np.testing.assert_array_equal(memory.allocate_batch([0, 5, 5], 100), expected)
        assert memory.num_unexplored == 0

    def test_overflowing_distances_never_return_explored_rows(self):
        emb = np.array([[1e154], [-1e154], [2e154], [-3e154]])
        memory = self.memory(emb, explored=[0])
        # Rows 0, 1 and 2 are all at distance inf from row 3; row 0 is explored.
        assert memory.nearest_unexplored(emb[3], 2) == names(memory, [3, 1])

    @pytest.mark.parametrize(
        "kind, metric",
        [pytest.param(k, m, id=k if m == "l2-squared" else f"{k}-{m}")
         for m in METRICS for k in HARD_KINDS],
    )
    def test_direct_formula_on_rows_matches_full_matrix(self, kind, metric):
        rng = np.random.default_rng(3)
        matrix = hard_pool(hard_embeddings(kind, rng, n=500, dim=37), metric).embeddings.matrix
        assert_rows_match_full_scan(matrix, matrix[11], metric, rng)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("dim", (1, 2, 3, 7, 64, 255, 768, 1001))
    def test_direct_formula_bits_do_not_depend_on_the_call(self, metric, dim):
        rng = np.random.default_rng(dim)
        matrix = rng.standard_normal((300, dim))
        for query in (matrix[7], rng.standard_normal(dim)):
            assert_rows_match_full_scan(matrix, query, metric, rng)

    @pytest.mark.parametrize("metric", METRICS)
    def test_rows_and_queries_outside_the_gate_get_minus_inf(self, metric):
        # Rows 30-39 lie just outside the 2^62 range gate and rows 40-44 on
        # its edge, inside. Every f32 value stays finite here, so only the
        # gate makes the lower ends of the rows outside it -inf, and those
        # of every row for a query outside it.
        rng = np.random.default_rng(8)
        emb = np.abs(rng.standard_normal((45, 3))) + 1.0
        emb[30:, :] = 0.0
        emb[30:40, 0] = -(2.0**62) * (1.0 + 2.0**-52)
        emb[40:, 1] = -(2.0**62)
        memory = self.memory(emb, metric=metric)
        table = memory.pool.embeddings
        queries = [0, 40, 30]
        low, _ = memory._lower_ends(
            table.matrix[queries], table.sq_norms[queries], np.empty(0, dtype=np.intp)
        )
        outside = np.zeros((3, 45), dtype=bool)
        outside[:, 30:40] = True
        outside[2] = True
        np.testing.assert_array_equal(np.isneginf(low), outside)
        assert np.isfinite(low[~outside]).all()


def assert_rows_match_full_scan(matrix, query, metric, rng):
    """The direct formula over gathered rows, slices and single rows, with
    the cosine norms given or not, equals a whole-matrix scan bit for bit."""
    n = len(matrix)
    full = embedding_distances(matrix, query, metric)
    norms = np.linalg.norm(matrix, axis=1) if metric == "cosine" else None
    lo = int(rng.integers(n - 1))
    for rows in (np.arange(n), np.array([11]), rng.choice(n, 60, replace=False),
                 np.sort(rng.choice(n, 7, replace=False)), slice(lo, n),
                 slice(lo, lo + 1), slice(0, n, 3)):
        got = embedding_distances(matrix[rows], query, metric)
        assert got.tobytes() == full[rows].tobytes()
        if norms is not None:
            got = embedding_distances(matrix[rows], query, metric, norms[rows])
            assert got.tobytes() == full[rows].tobytes()


COVER_KINDS = ("lattice", "duplicate-rows", "offset", "overflow", "mixed-scales", "gate-edge",
               "f32-underflow", "f32-subnormal", "f32-flush", "f32-overflow", "f32-inf",
               "f32-worst", "subnormal", "near-parallel", "near-antiparallel")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestCover:
    """The incremental cover and coreset equal a rebuild from scratch."""

    def pool(self, kind, metric, rng, n=120):
        if kind == "gaussian":
            emb = rng.standard_normal((n, 5))
            emb[n // 2 :] = emb[: n - n // 2]  # duplicate rows tie exactly
        else:
            emb = hard_embeddings(kind, rng, n=n, dim=5)
        return hard_pool(emb, metric)

    def assert_cover_rebuilt(self, memory):
        matrix = memory.pool.embeddings.matrix
        expected = np.full(len(matrix), np.inf)
        for row in np.setdiff1d(np.arange(len(matrix)), memory.unexplored()):
            expected = np.minimum(
                expected, embedding_distances(matrix, matrix[row], memory.pool.metric)
            )
        assert memory.distance_to_explored().tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "kind, metric", [(k, m) for m in METRICS for k in COVER_KINDS] + [("gaussian", "cosine")]
    )
    def test_coreset_interleaved_with_other_agents_matches_oracle(self, kind, metric):
        rng = np.random.default_rng(17)
        pool = self.pool(kind, metric, rng)
        n = len(pool)
        memory = CandidateMemory(pool)
        step = 0
        while memory.num_unexplored:
            batch_size = int(rng.integers(1, 12))
            if step % 3 == 0:
                oracle = CandidateMemory(pool)
                oracle.explore(np.setdiff1d(np.arange(n), memory.unexplored()))
                expected = coreset_oracle(oracle, batch_size)
                np.testing.assert_array_equal(coreset_select(memory, batch_size), expected)
                self.assert_cover_rebuilt(memory)
            elif step % 3 == 1:
                memory.allocate_batch(rng.integers(0, n, 3), batch_size)
            else:
                avail = memory.unexplored()
                memory.explore(avail[rng.permutation(avail.size)[:batch_size]])
            step += 1
        assert coreset_select(memory, 3).size == 0

    def test_cover_is_read_only_and_inf_before_any_exploration(self):
        memory = CandidateMemory(self.pool("lattice", "l2-squared", np.random.default_rng(1)))
        cover = memory.distance_to_explored()
        assert np.isinf(cover).all()
        with pytest.raises(ValueError):
            cover[0] = 0.0


@pytest.mark.usefixtures("threaded_scan")
class TestExactScanOnThreads(TestExactScan):
    """TestExactScan with the scan cut into spans of a few rows, on three
    threads."""


@pytest.mark.usefixtures("threaded_scan")
class TestCoverOnThreads(TestCover):
    """TestCover with the scan cut into spans of a few rows, on three
    threads."""


def test_nearest_neighbor_oracle_on_threads(threaded_scan):
    nearest_oracle()


class TestScanSpans:
    def test_exception_in_a_span_reaches_the_caller(self, threaded_scan, monkeypatch):
        # The calling thread's span fails while a worker thread is still in
        # one of its own: the caller gets the exception only once every
        # thread has stopped, and nothing is explored.
        started = count_thread_starts(monkeypatch)
        caller = threading.get_ident()
        worker_busy = threading.Event()
        bound = memory_module._l2_error_bound

        def failing(*args):
            if threading.get_ident() == caller:
                worker_busy.wait(5.0)
                raise FloatingPointError("span bound")
            worker_busy.set()
            time.sleep(0.1)
            return bound(*args)

        monkeypatch.setattr(memory_module, "_l2_error_bound", failing)
        memory = CandidateMemory(random_pool(np.random.default_rng(0), 100, 4))
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="span bound"):
            memory.allocate_batch([0, 1], 10)
        assert worker_busy.is_set()
        assert not any(thread.is_alive() for thread in started)
        assert threading.active_count() == before
        assert memory.num_unexplored == 100

    @pytest.mark.parametrize("less, threads", [(1, 0), (0, 2)])
    def test_one_span_starts_no_thread(self, monkeypatch, less, threads):
        # A pool of fewer than two span lengths is one span and scans on the
        # calling thread; at two span lengths the f32 copy and the scan of
        # two centres each start one thread.
        monkeypatch.setattr(pool_module, "_available_cpus", lambda: 3)
        started = count_thread_starts(monkeypatch)
        pool = random_pool(np.random.default_rng(1), 2 * memory_module._SPAN_ROWS - less, 2)
        batch = CandidateMemory(pool).allocate_batch([0, 1], 5)
        assert batch.size == 5
        assert len(started) == threads

    @pytest.mark.parametrize("metric", ["l2-squared", "cosine"])
    def test_one_query_is_one_span_on_the_calling_thread(self, threaded_scan, monkeypatch,
                                                         metric):
        # A one-query scan (a nearest-neighbour query, or a coreset pick
        # absorbed into the cover) is one span on the calling thread, though
        # the pool has many spans; allocation around five centres keeps its
        # spans on threads.
        pool = random_pool(np.random.default_rng(3), 100, 4, metric)
        memory = CandidateMemory(pool)
        memory._scan_rows()  # the f32 copy, made at the first query, keeps its spans
        started = count_thread_starts(monkeypatch)
        memory.nearest_unexplored(pool.embeddings.matrix[5], 3)
        assert coreset_select(memory, 6).size == 6
        assert not started
        assert memory.allocate_batch([0, 1, 2, 3, 4], 20).size == 20
        assert started


def test_embedding_distances_matches_scalar():
    rng = np.random.default_rng(2)
    matrix = rng.standard_normal((40, 6))
    query = rng.standard_normal(6)
    for metric in ("l2-squared", "cosine"):
        vec = embedding_distances(matrix, query, metric)
        for i in range(40):
            row = matrix[i]
            if metric == "l2-squared":
                expected = float(np.sum((row - query) ** 2))
            else:
                expected = 1.0 - float(row @ query) / float(np.linalg.norm(row) * np.linalg.norm(query))
            assert vec[i] == pytest.approx(expected, abs=1e-12)
