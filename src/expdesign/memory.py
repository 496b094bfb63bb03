"""Explored-state tracking and nearest-unexplored-neighbor batch allocation.

The memory wraps an immutable pool with one mutable bit per candidate.
Candidates are pool indices: queries return index arrays and the batch
allocator marks what it selects explored before returning it. All
neighbor queries are exact brute-force scans: pools stay small enough
(tens of thousands of rows) that O(n*d) per query is cheap, and exactness
lets tests compare against an independent naive implementation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .pool import METRIC_COSINE, METRIC_L2_SQUARED, METRICS, CandidatePool


def distance(metric: str, a: Sequence[float], b: Sequence[float]) -> float:
    """Scalar distance between two vectors under a pool metric.

    cosine: 1 - a.b / (|a||b|), defined only for nonzero vectors, in [0, 2].
    l2-squared: sum((a_i - b_i)^2).
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1:
        raise ValueError(f"vector length mismatch: {av.shape} vs {bv.shape}")
    if metric == METRIC_L2_SQUARED:
        diff = av - bv
        return float(np.square(diff).sum())
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine distance undefined for zero vectors")
    return float(1.0 - float(av @ bv) / (na * nb))


def embedding_distances(
    matrix: np.ndarray,
    query: np.ndarray,
    metric: str,
    norms: np.ndarray | None = None,
) -> np.ndarray:
    """Distances from every matrix row to the query vector (vectorized)."""
    if metric == METRIC_L2_SQUARED:
        diff = matrix - query
        return np.square(diff).sum(axis=1)
    if norms is None:
        norms = np.linalg.norm(matrix, axis=1)
    qn = float(np.linalg.norm(query))
    if qn == 0.0:
        raise ValueError("cosine distance undefined for a zero query vector")
    return 1.0 - (matrix @ query) / (norms * qn)


def center_quotas(batch_size: int, num_centers: int) -> list[int]:
    """Equal per-center budgets; the first batch_size % num_centers centers
    get one extra so the quotas sum to batch_size."""
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    if num_centers < 1:
        raise ValueError("need at least one center")
    base, extra = divmod(batch_size, num_centers)
    return [base + 1] * extra + [base] * (num_centers - extra)


class CandidateMemory:
    """Explored flags over a pool plus exact nearest-unexplored queries.

    Candidates are pool indices; the name-taking ``mark_explored`` and the
    name-returning ``nearest_unexplored`` are thin wrappers for callers that
    hold names. Flags only move false -> true. One memory belongs to one run;
    queries between mutations are safe, concurrent mutation is not supported.
    """

    def __init__(self, pool: CandidatePool):
        self._pool = pool
        self._explored = np.zeros(len(pool), dtype=bool)
        self._norms: np.ndarray | None = None
        if pool.metric == METRIC_COSINE:
            self._norms = np.linalg.norm(pool.embeddings.matrix, axis=1)

    @property
    def pool(self) -> CandidatePool:
        return self._pool

    @property
    def num_unexplored(self) -> int:
        return len(self._pool) - int(self._explored.sum())

    def unexplored(self) -> np.ndarray:
        """Indices of the unexplored candidates, ascending."""
        return np.flatnonzero(~self._explored)

    def explore(self, idx: Sequence[int] | np.ndarray) -> None:
        """Flag the candidates at these pool indices as explored."""
        self._explored[idx] = True

    def mark_explored(self, names: Iterable[str]) -> None:
        """Flag named candidates as explored. All-or-nothing: an unknown name
        leaves every flag untouched. Re-marking is a no-op."""
        self.explore([self._pool.index_of(name) for name in names])

    def nearest(self, query: np.ndarray, k: int) -> np.ndarray:
        """Indices of the k unexplored candidates nearest the query vector.

        Sorted by ascending distance under the pool metric; exact distance
        ties break toward the lower candidate index. Returns fewer than k
        only when fewer unexplored candidates remain. The query is used as
        given: callers pass a pool row or a checked vector.
        """
        dists = embedding_distances(
            self._pool.embeddings.matrix, query, self._pool.metric, self._norms
        )
        dists = np.where(self._explored, np.inf, dists)
        return np.argsort(dists, kind="stable")[: min(k, self.num_unexplored)]

    def nearest_unexplored(self, query: Sequence[float], k: int) -> list[str]:
        """Names of the k unexplored candidates nearest an outside query
        vector; see :meth:`nearest`."""
        if k < 1:
            raise ValueError("k must be positive")
        q = np.asarray(query, dtype=np.float64)
        if q.ndim != 1 or q.shape[0] != self._pool.embeddings.dim:
            raise ValueError(
                f"query has shape {q.shape}, pool dim is {self._pool.embeddings.dim}"
            )
        return [self._pool.names[i] for i in self.nearest(q, k)]

    def allocate_batch(self, center_idx: Sequence[int], batch_size: int) -> np.ndarray:
        """Fill a batch by expanding each center (a pool index) over its
        nearest unexplored neighbors.

        Centers are processed in order under equal quotas; every selected
        candidate is marked explored immediately, so later centers can never
        reselect it. Returns the indices of min(batch_size, unexplored)
        candidates, duplicate-free.
        """
        if len(center_idx) == 0:
            raise ValueError("centers list is empty")
        matrix = self._pool.embeddings.matrix
        selected: list[int] = []
        for center, quota in zip(center_idx, center_quotas(batch_size, len(center_idx))):
            if quota == 0:
                continue
            if self.num_unexplored == 0:
                break
            got = self.nearest(matrix[center], quota)
            self.explore(got)
            selected.extend(got)
        return np.array(selected, dtype=np.intp)
