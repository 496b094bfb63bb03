"""Explored-state tracking and nearest-unexplored-neighbor batch allocation.

The memory wraps an immutable pool with one mutable bit per candidate.
Candidates are pool indices: queries return index arrays and the batch
allocator marks what it selects explored before returning it.

Every query returns exactly what a full scan with the direct formula
(:func:`embedding_distances`) would return: the k unexplored rows of least
distance, ties broken toward the lower index. Under l2-squared the scan is
not made row by row. The expansion ``|x|^2 - 2 x.q + |q|^2`` gives
approximate distances for all queries of a round in one matrix product over
the pool (row norms are computed once per pool), each within a proven
floating-point bound of the direct value (see :func:`_l2_error_bound`). Only
the rows whose bound interval reaches below the worst bound of an
approximate top k can be among the k nearest; that shortlist is re-ranked
with the direct formula, so the result matches the full scan bit for bit,
exact ties included. Cosine queries keep one direct scan per query, and use
the same shortlist step with a zero bound in place of a full sort.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .pool import METRIC_COSINE, METRIC_L2_SQUARED, CandidatePool, EmbeddingTable


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
        query = np.asarray(query, dtype=np.float64)
        if self._pool.metric == METRIC_COSINE:
            return self._nearest_cosine(query, k)
        approx, bound = _l2_approximate(self._pool.embeddings, query[None, :])
        return self._nearest_l2(approx[0], bound[0], query, k)

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
        centers = np.asarray(center_idx, dtype=np.intp)
        table = self._pool.embeddings
        cosine = self._pool.metric == METRIC_COSINE
        if not cosine:
            approx, bound = _l2_approximate(table, table.matrix[centers])
        selected: list[np.ndarray] = []
        for j, quota in enumerate(center_quotas(batch_size, len(centers))):
            if quota == 0:
                continue
            if self.num_unexplored == 0:
                break
            query = table.matrix[centers[j]]
            if cosine:
                got = self._nearest_cosine(query, quota)
            else:
                got = self._nearest_l2(approx[j], bound[j], query, quota)
            self.explore(got)
            selected.append(got)
        return np.concatenate(selected) if selected else np.empty(0, dtype=np.intp)

    def _nearest_cosine(self, query: np.ndarray, k: int) -> np.ndarray:
        dists = embedding_distances(
            self._pool.embeddings.matrix, query, METRIC_COSINE, self._norms
        )
        return _certified_top_k(self.unexplored(), dists, None, k, dists.__getitem__)

    def _nearest_l2(
        self, approx: np.ndarray, bound: np.ndarray, query: np.ndarray, k: int
    ) -> np.ndarray:
        matrix = self._pool.embeddings.matrix

        def direct(rows: np.ndarray) -> np.ndarray:
            return embedding_distances(matrix[rows], query, METRIC_L2_SQUARED)

        return _certified_top_k(self.unexplored(), approx, bound, k, direct)


def _l2_approximate(
    table: EmbeddingTable, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expanded l2-squared distances from every row to each query, one
    matrix product for all queries, and their error bounds; both (q, n).
    Values that overflow come out non-finite and are ranked directly."""
    with np.errstate(over="ignore", invalid="ignore"):
        query_sq_norms = np.einsum("ij,ij->i", queries, queries)[:, None]
        approx = queries @ table.matrix.T
        approx *= -2.0
        approx += table.sq_norms
        approx += query_sq_norms
        bound = _l2_error_bound(
            np.sqrt(table.sq_norms), np.sqrt(query_sq_norms), table.dim
        )
    return approx, bound


def _l2_error_bound(row_norms: np.ndarray, query_norms: np.ndarray, dim: int) -> np.ndarray:
    """Bound on |expanded - direct| for l2-squared distances.

    With unit roundoff u = eps/2 and g_m = m*u / (1 - m*u), take a row x, a
    query q and the exact distance D = |x - q|^2 <= (|x| + |q|)^2.

    * Direct formula d = fl(sum fl(fl(x_j - q_j)^2)): each term is off by a
      relative g_3 and the sum, in any order, by g_(dim-1) of the sum of
      its nonnegative terms, so |d - D| <= g_(dim+2) * D.
    * Expansion a = fl(fl(s_x - 2 g) + s_q), where s_x, g and s_q are the
      computed |x|^2, x.q and |q|^2: any summation order (BLAS blocking,
      FMA) keeps each within g_dim of the sum of absolute products, which
      is |x|^2, at most |x||q| (Cauchy-Schwarz) and |q|^2. The two final
      roundings add g_2 of |s_x| + 2|g| + s_q. So |a - D| <= g_(dim+2) *
      (|x| + |q|)^2, to first order in u.

    Hence |a - d| <= 2 g_(dim+2) (|x| + |q|)^2 < 2 (dim + 3) u (|x| + |q|)^2.
    The bound returned is twice that, 2 (dim + 3) eps (|x| + |q|)^2. The
    spare half covers the rounding of the bound itself and of the norms it
    is computed from, and of a +- e in the comparisons of the shortlist (a
    few u (|x| + |q|)^2 in all). Products that underflow are off by at most
    half the smallest subnormal each instead of a relative u; the 4 dim + 4
    of them a distance can involve are covered by as many times the
    smallest normal number, added as a floor.
    """
    tiny = np.finfo(np.float64).tiny
    eps = np.finfo(np.float64).eps
    bound = np.add(row_norms, query_norms)
    np.square(bound, out=bound)
    bound *= 2.0 * (dim + 3) * eps
    bound += 4.0 * (dim + 1) * tiny
    return bound


def _certified_top_k(
    candidates: np.ndarray,
    approx: np.ndarray,
    bound: np.ndarray | None,
    k: int,
    direct: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """The k candidates of least direct distance, ties toward lower index.

    ``candidates`` are ascending row indices; ``approx`` and ``bound`` hold
    an approximate distance for every row and a bound on its error (None:
    exact), and ``direct(rows)`` computes the direct distances of some rows.
    Any k candidates have a k-th least distance at most T, the largest of
    their approx + bound; a candidate whose approx - bound exceeds T is
    strictly farther than that and cannot be selected. The rest, ties at
    the boundary included, are ranked by their direct distances. With a
    non-finite approximation or bound every candidate is ranked; a direct
    distance that overflows has an approx + bound that overflows too.
    """
    k = min(k, candidates.size)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k < candidates.size:
        near = approx[candidates]
        low = high = near
        if bound is not None:
            slack = bound[candidates]
            with np.errstate(over="ignore", invalid="ignore"):
                low, high = near - slack, near + slack
        if np.isfinite(low).all() and np.isfinite(high).all():
            top = np.argpartition(near, k - 1)[:k]
            candidates = candidates[low <= high[top].max()]
    return candidates[np.argsort(direct(candidates), kind="stable")[:k]]
