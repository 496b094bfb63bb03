"""Explored-state tracking, nearest-unexplored-neighbor batch allocation,
and the distance-to-explored cover.

The memory wraps an immutable pool with one mutable bit per candidate.
Candidates are pool indices: queries return index arrays and the batch
allocator marks what it selects explored before returning it.

Every query returns exactly what a full scan with the direct formula
(:func:`embedding_distances`) would return: the k unexplored rows of least
distance, ties broken toward the lower index. Under l2-squared, center
allocation does not scan row by row. At its first l2 allocation or cover
query a memory makes an f32 copy of the pool, half the bytes of the matrix,
which lives as long as the memory (one run). The expansion
``|x|^2 - 2 x.q + |q|^2`` takes the cross terms of all centers of a round
from one f32 matrix product over that copy, and the squared norms from the
f64 rows. Each value lies within a proven bound of the direct value (see
:func:`_l2_error_bound`), which covers the rounding of the inputs to f32
and of the f32 sums, subnormal results included. It holds
inside a range gate, a norm of at most 2^62 for the row and the query,
within which no f32 value overflows. A row or query outside the gate gets
an infinite bound: a query outside it, or one that meets an unexplored row
outside it, gives every candidate a lower end of -inf. Otherwise each
row's lower end is its approximation minus its bound.
:func:`certified_least` turns lower ends into the exact top k: it ranks
the rows of least lower end with the direct formula, then, if need be,
every row whose lower end reaches the k-th least direct distance among
them, so the result matches the full scan bit for bit, exact ties
included. Cosine allocation, and an outside query under either metric
(:meth:`CandidateMemory.nearest`), take one direct scan of the pool per
query and pass its distances as their own lower ends.

The cover (:meth:`CandidateMemory.distance_to_explored`) holds each
candidate's distance to its nearest explored candidate, as the direct
formula gives it. It is updated lazily: a query absorbs only the rows
explored since the one before. Under l2 the expansion and its bound prove
most candidates no closer to an absorbed row than their current cover
distance, and only the rest get a direct distance; cosine absorbs a row by
one direct scan. Minima are exact, so the cover equals one rebuilt from
scratch bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .pool import METRIC_COSINE, METRIC_L2_SQUARED, CandidatePool

# Range gate of the f32 stage (see _l2_error_bound): the greatest squared
# norm of a row or query.
_F32_MAX_SQ_NORM = 2.0**124

# Rows per block of direct distances; cover rows absorbed per f32 matrix
# product.
_BLOCK_ROWS = 1024
_ABSORB_ROWS = 32


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
        # The l2 scan's f32 copy and the rows' norms (inf outside the range
        # gate), built at the first l2 query.
        self._rows32: np.ndarray | None = None
        self._scan_norms: np.ndarray | None = None
        # The cover and which explored rows it has absorbed, built at the
        # first distance_to_explored call.
        self._cover: np.ndarray | None = None
        self._absorbed: np.ndarray | None = None

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
        dists = embedding_distances(
            self._pool.embeddings.matrix, query, self._pool.metric, self._norms
        )
        low = np.where(np.isfinite(dists), dists, -np.inf)
        low[self._explored] = np.inf
        return certified_least(low, k, dists.__getitem__)[0]

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
        matrix = self._pool.embeddings.matrix
        cosine = self._pool.metric == METRIC_COSINE
        if not cosine:
            rows32, norms = self._scan_rows()
            low = self._l2_lower_ends(
                rows32[centers], self._pool.embeddings.sq_norms[centers], norms[centers]
            )
        remaining = self.num_unexplored
        selected: list[np.ndarray] = []
        for j, quota in enumerate(center_quotas(batch_size, len(centers))):
            if quota == 0:
                continue
            if remaining == 0:
                break
            query = matrix[centers[j]]
            if cosine:
                got = self.nearest(query, quota)
            else:
                got = certified_least(
                    low[j], quota, lambda rows: _direct_l2(matrix, rows, query)
                )[0]
                low[:, got] = np.inf
            self.explore(got)
            selected.append(got)
            remaining -= got.size
        return np.concatenate(selected) if selected else np.empty(0, dtype=np.intp)

    def distance_to_explored(self) -> np.ndarray:
        """Every candidate's distance under the pool metric to its nearest
        explored candidate, inf while none is explored. Read-only.

        The values are the direct formula's (the least of
        :func:`embedding_distances` over the explored rows, bit for bit).
        Each call absorbs only the rows explored since the previous call.
        """
        if self._cover is None:
            self._cover = np.full(len(self._pool), np.inf)
            self._absorbed = np.zeros(len(self._pool), dtype=bool)
        fresh = np.flatnonzero(self._explored & ~self._absorbed)
        if fresh.size:
            self._absorb(fresh)
            self._absorbed[fresh] = True
        cover = self._cover.view()
        cover.setflags(write=False)
        return cover

    def _absorb(self, rows: np.ndarray) -> None:
        """Lower the cover to each of these rows' direct distances."""
        table = self._pool.embeddings
        matrix = table.matrix
        cover = self._cover
        if self._pool.metric == METRIC_COSINE:
            for row in rows:
                dists = embedding_distances(matrix, matrix[row], METRIC_COSINE, self._norms)
                np.minimum(cover, dists, out=cover)
            return
        rows32, norms = self._scan_rows()
        for start in range(0, rows.size, _ABSORB_ROWS):
            block = rows[start : start + _ABSORB_ROWS]
            approx, bound = self._l2_approximate(
                rows32[block], table.sq_norms[block], norms[block], table.sq_norms
            )
            with np.errstate(invalid="ignore"):
                approx -= bound
            for low, row in zip(approx, block):
                # A row is skipped only when its lower end provably stays at
                # or above its cover; NaN (a non-finite bound) is never.
                with np.errstate(invalid="ignore"):
                    closer = np.flatnonzero(~(low >= cover))
                if closer.size:
                    dists = _direct_l2(matrix, closer, matrix[row])
                    cover[closer] = np.minimum(cover[closer], dists)

    def _scan_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The f32 copy of the pool and the rows' gated norms, built at the
        first call."""
        if self._rows32 is None:
            table = self._pool.embeddings
            with np.errstate(over="ignore"):
                self._rows32 = table.matrix.astype(np.float32)
            self._scan_norms = _gated_norms(table.sq_norms)
        return self._rows32, self._scan_norms

    def _l2_lower_ends(
        self, queries32: np.ndarray, query_sq_norms: np.ndarray, query_norms: np.ndarray
    ) -> np.ndarray:
        """Lower ends of every row's l2-squared distance to each query,
        (q, n), inf or NaN on the explored rows (arguments as for
        :meth:`_l2_approximate`). Inside the range gate the ends are finite;
        a query outside it, or with an unexplored row outside it, gets -inf
        on every unexplored row instead, so that all are ranked."""
        explored = self._explored
        _, norms = self._scan_rows()
        low, bound = self._l2_approximate(
            queries32,
            query_sq_norms,
            query_norms,
            np.where(explored, np.inf, self._pool.embeddings.sq_norms),
        )
        with np.errstate(invalid="ignore"):
            low -= bound
        certified = np.isfinite(query_norms) & (np.isfinite(norms) | explored).all()
        if not certified.all():
            low[~certified] = np.where(explored, np.inf, -np.inf)
        return low

    def _l2_approximate(
        self,
        queries32: np.ndarray,
        query_sq_norms: np.ndarray,
        query_norms: np.ndarray,
        row_sq_norms: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expanded l2-squared distances from every row to each query and
        their error bounds, both (q, n). ``queries32`` are the queries in
        f32, ``query_sq_norms`` their f64 squared norms, ``query_norms`` their
        gated norms (inf outside the range gate), and ``row_sq_norms`` the
        rows' f64 squared norms (inf makes a row's distance inf)."""
        table = self._pool.embeddings
        rows32, norms = self._scan_rows()
        # Outside the gate values may overflow; their bounds are inf.
        with np.errstate(over="ignore", invalid="ignore"):
            cross = rows32 @ queries32.T
            approx = np.multiply(cross.T, -2.0, dtype=np.float64)
            approx += row_sq_norms
            approx += query_sq_norms[:, None]
        return approx, _l2_error_bound(norms, query_norms, table.dim)


def _gated_norms(sq_norms: np.ndarray) -> np.ndarray:
    """Norms from f64 squared norms, or inf outside the f32 stage's range
    gate (a squared norm above 2^124)."""
    return np.where(sq_norms <= _F32_MAX_SQ_NORM, np.sqrt(sq_norms), np.inf)


def _direct_l2(matrix: np.ndarray, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Direct l2-squared distances of some matrix rows, in blocks of rows,
    equal bit for bit to those of a scan over the whole matrix."""
    out = np.empty(rows.size)
    for start in range(0, rows.size, _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        out[start : start + block.size] = embedding_distances(
            matrix[block], query, METRIC_L2_SQUARED
        )
    return out


def _l2_error_bound(row_norms: np.ndarray, query_norms: np.ndarray, dim: int) -> np.ndarray:
    """Bound on |expanded - direct| for l2-squared distances whose cross
    terms come from f32 copies of the rows and queries; (q, n).

    With unit roundoffs u = 2^-53 (f64) and v = 2^-24 (f32), and
    g_m(w) = m w / (1 - m w), take a row x, a query q and the exact distance
    D = |x - q|^2 <= (|x| + |q|)^2.

    * Direct formula d = fl(sum fl(fl(x_j - q_j)^2)) in f64: each term is off
      by a relative g_3(u) and the sum, in any order, by g_(dim-1)(u) of the
      sum of its nonnegative terms, so |d - D| <= g_(dim+2)(u) D.
    * Cross term c: the f32 sum of the products of x' = fl32(x) and
      q' = fl32(q). Inside the range gate |x|, |q| <= 2^62, so no component,
      product or partial sum overflows f32. Each f32 rounding (of a
      component, a product, or a sum in any order, BLAS blocking and FMA
      included) is off by a relative v or, where its result is subnormal,
      by at most 2^-150 absolute; an addition whose result is subnormal is
      exact. The relative parts give (1 + g_dim(v))(1 + v)^2 - 1 <=
      g_(dim+2)(v) of sum |x_j q_j| <= |x| |q| (Cauchy-Schwarz). The
      absolute parts of the components add at most 2^-150 times their
      partners' magnitudes, 2^-149 (|x|_1 + |q|_1) <= 2^-149 sqrt(dim)
      (|x| + |q|) with the sum's relative error, and those of the dim
      products and dim sums at most 4 dim 2^-150 with it (for dim up to
      2^23; the bound is inf beyond). So
      |c - x.q| <= g_(dim+2)(v) |x| |q| + 2^-149 sqrt(dim) (|x| + |q|)
      + dim 2^-147.
    * Expansion a = fl(fl(s_x - 2 c) + s_q), where s_x and s_q are the
      computed f64 |x|^2 and |q|^2, each within g_dim(u) of the sum of its
      terms. The two final roundings add g_2(u) of |s_x| + 2|c| + s_q. So
      |a - D| <= 2 |c - x.q| + g_(dim+2)(u) (|x| + |q|)^2, to first order
      in u.

    Hence |a - d| <= 2 g_(dim+2)(v) |x| |q| + 2^-148 sqrt(dim) (|x| + |q|)
    + dim 2^-146 + 2 (dim + 3) u (|x| + |q|)^2. The bound returned is the
    f32 terms as they stand plus twice the f64 term, 2 (dim + 3) eps
    (|x| + |q|)^2 with eps = 2u. The spare half covers the rounding of the
    bound itself and of the norms it is computed from, and of a +- e in the
    comparisons of the shortlist and the cover (a few u (|x| + |q|)^2 in
    all). Products that underflow in f64 are off by at most half the
    smallest subnormal each instead of a relative u; the 4 dim + 4 of them
    a distance can involve are covered by as many times the smallest normal
    number, added to the floor. A norm of inf (outside the gate) makes the
    bound inf, or NaN against a zero norm; both send a query to direct
    ranking.
    """
    # The terms in (|x| + |q|)^2 and |x| + |q| are expanded, so that only
    # the |x| |q| term takes a (q, n) product.
    c64 = 2.0 * (dim + 3) * np.finfo(np.float64).eps
    c32 = 2.0**-148 * math.sqrt(dim)
    m = (dim + 2) * 2.0**-24
    gamma32 = m / (1.0 - m) if m <= 0.5 else math.inf
    floor = dim * 2.0**-146 + 4.0 * (dim + 1) * np.finfo(np.float64).tiny
    with np.errstate(invalid="ignore"):
        bound = np.multiply.outer((2.0 * c64 + 2.0 * gamma32) * query_norms, row_norms)
        bound += row_norms * (c64 * row_norms + c32)
        bound += (query_norms * (c64 * query_norms + c32) + floor)[:, None]
    return bound


def certified_least(
    low: np.ndarray,
    k: int,
    exact: Callable[[np.ndarray], np.ndarray],
    min_rows: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the k candidates of least exact key, ranked, ties toward
    the lower position, and their keys.

    ``low`` holds a lower end of every candidate's key, and inf (or NaN) at
    a position that is not a candidate; ``exact(positions)`` computes the
    exact keys of some candidates, given in ascending order. First the
    candidates whose lower end is at most the m-th least, m = max(k,
    min_rows), are computed (all candidates, if fewer than m). With t the
    k-th least of their keys, a candidate whose lower end exceeds t has a
    key above t and is not among the k least. If any candidate with a lower
    end of at most t (ties at the boundary included) was left out, the keys
    of all of them are computed; that set holds the k least, so one growth
    certifies the result. With t = inf (or NaN) that is every candidate. So
    the result is that of ranking all candidates by exact key, and each
    ``exact`` call gets at least min(min_rows, candidates) positions.
    """
    if k <= 0:
        return np.empty(0, dtype=np.intp), np.empty(0)
    m = max(k, min_rows)
    edge = np.partition(low, m - 1)[m - 1] if m < low.size else np.inf
    rows = np.flatnonzero(low <= edge if edge < np.inf else low < np.inf)
    keys = exact(rows)
    if edge < np.inf:
        t = np.partition(keys, k - 1)[k - 1]
        if not t <= edge:
            more = np.flatnonzero(low <= t if t < np.inf else low < np.inf)
            if more.size > rows.size:
                rows, keys = more, exact(more)
    order = np.argsort(keys, kind="stable")[:k]
    return rows[order], keys[order]
