"""Explored-state tracking, nearest-unexplored-neighbor batch allocation,
and the distance-to-explored cover.

The memory wraps an immutable pool with one mutable bit per candidate.
Candidates are pool indices: queries return index arrays and the batch
allocator marks what it selects explored before returning it.

Every query returns exactly what a full scan with the direct formula
(:func:`embedding_distances`) would return: the k unexplored rows of least
distance, ties broken toward the lower index. Center allocation, the cover
and an outside query (:meth:`CandidateMemory.nearest_unexplored`) all take
one path under both metrics: lower ends of every row's distance to each
query vector, then the direct formula only where a lower end says it can
matter. The pool is not scanned row by row. At its first query a memory
makes an f32 copy of the pool, half the bytes of the matrix, which lives as
long as the memory (one run), and takes the cross terms ``x.q`` of all
queries of a call from f32 matrix products over spans of that copy's rows.
The spans run on as many threads as the process has CPUs and spans;
which spans there are depends on the row count alone, and a pool of one
span starts no thread. The copy itself is one cast on the calling thread:
at 18k x 256 it took no longer than filling it span by span on two.
Under l2-squared the cross terms enter the expansion ``|x|^2 - 2 x.q +
|q|^2`` with the f64 squared norms; under cosine they enter ``1 - x.q /
(|x| |q|)`` with the direct formula's own f64 norms and denominator. Each
value lies within a proven bound of the direct value (see
:func:`_l2_error_bound` and :func:`_cosine_error_bound`), which covers the
rounding of the inputs to f32 and of the f32 sums, in any summation order,
subnormal results included, so it does not depend on the spans. It holds
inside a range gate, a norm of at most 2^62 for the row and the query,
within which no f32 value overflows. A row or query outside the gate gets
an infinite bound. Each row's lower end is its approximation minus its
bound; a non-finite lower end is made -inf, so that its row is always
ranked by its direct distance.

The direct formula gives a row the same bits whatever other rows share its
call: the l2 sum and the cosine dot are reductions along the row (not a
BLAS product, whose blocking depends on the call's shape), so ranking a
shortlist directly matches the full scan bit for bit.

:func:`certified_least` turns lower ends into the exact top k: it ranks
the rows of least lower end with the direct formula, then, if need be,
every row whose lower end reaches the k-th least direct distance among
them, so the result matches the full scan bit for bit, exact ties
included.

The cover (:meth:`CandidateMemory.distance_to_explored`) holds each
candidate's distance to its nearest explored candidate, as the direct
formula gives it. It is updated lazily: a query absorbs only the rows
explored since the one before. The lower ends prove most candidates no
closer to an absorbed row than their current cover distance, and only the
rest take a direct distance. Minima are exact, so the cover equals one
rebuilt from scratch bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .pool import METRIC_COSINE, METRIC_L2_SQUARED, CandidatePool, _on_threads

# Range gate of the f32 stage (see _l2_error_bound): the greatest squared
# norm of a row or query.
_F32_MAX_SQ_NORM = 2.0**124

# Rows per block of direct distances; cover rows absorbed per lower-ends
# call.
_BLOCK_ROWS = 1024
_ABSORB_ROWS = 32

# Fewest rows per span of the f32 scan: n rows are cut into
# max(1, n // _SPAN_ROWS) spans of nearly equal size (see _on_spans). On
# gene-screen (18k x 256, 2 CPUs, one BLAS thread; perfbench seed 0,
# `--seconds 12`, four alternating runs each) `round_ms.p50` read a median of
# 8.34 ms without spans, 7.20 ms at 2048, 6.79 ms at 4096 and 6.44 ms at 8192
# (two spans of 9000 rows); spans of exactly 4096 or 8192 rows, the last one
# shorter, read 6.99 and 7.37 ms over three runs. llm-http's 6k rows and
# molecule's 2k are one span.
_SPAN_ROWS = 8192


def embedding_distances(
    matrix: np.ndarray,
    query: np.ndarray,
    metric: str,
    norms: np.ndarray | None = None,
) -> np.ndarray:
    """Distances from every matrix row to the query vector (vectorized).

    The direct formula: ``sum((x - q)^2)`` under l2-squared, and
    ``1 - x.q / (|x| |q|)`` under cosine, ``norms`` being the rows' norms
    (computed when not given). Both reduce along each row on their own, so
    a row's distance has the same bits in a call over any set of rows.
    """
    if metric == METRIC_L2_SQUARED:
        diff = matrix - query
        return np.square(diff).sum(axis=1)
    if norms is None:
        norms = np.linalg.norm(matrix, axis=1)
    return 1.0 - np.einsum("ij,j->i", matrix, query) / (norms * _query_norm(query))


def _query_norm(query: np.ndarray) -> float:
    """The cosine query norm of the direct formula; a zero norm is a
    ValueError."""
    qn = float(np.linalg.norm(query))
    if qn == 0.0:
        raise ValueError("cosine distance undefined for a zero query vector")
    return qn


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
    name-returning ``nearest_unexplored`` serve callers that hold names.
    Flags only move false -> true. One memory belongs to one run; queries
    between mutations are safe, concurrent mutation is not supported.
    """

    def __init__(self, pool: CandidatePool):
        self._pool = pool
        self._explored = np.zeros(len(pool), dtype=bool)
        # The cosine direct formula's row norms.
        self._norms: np.ndarray | None = None
        if pool.metric == METRIC_COSINE:
            self._norms = np.sqrt(pool.embeddings.sq_norms)
        # The scan's f32 copy and the rows' norms (inf outside the range
        # gate), built at the first query.
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

    def nearest_unexplored(self, query: Sequence[float], k: int) -> list[str]:
        """Names of the k unexplored candidates nearest an outside query
        vector.

        Sorted by ascending distance under the pool metric; exact distance
        ties break toward the lower candidate index. Returns fewer than k
        only when fewer unexplored candidates remain. A query of the wrong
        shape or with a non-finite component is a ValueError.
        """
        if k < 1:
            raise ValueError("k must be positive")
        q = np.asarray(query, dtype=np.float64)
        if q.ndim != 1 or q.shape[0] != self._pool.embeddings.dim:
            raise ValueError(
                f"query has shape {q.shape}, pool dim is {self._pool.embeddings.dim}"
            )
        if not np.isfinite(q).all():
            raise ValueError("query has a non-finite component")
        queries = q[None, :]
        low, exact = self._lower_ends(queries, np.square(queries).sum(axis=1), self._explored)
        idx = certified_least(low[0], k, lambda rows: exact(0, rows))[0]
        return [self._pool.names[i] for i in idx]

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
        low, exact = self._lower_ends(
            table.matrix[centers], table.sq_norms[centers], self._explored
        )
        remaining = self.num_unexplored
        selected: list[np.ndarray] = []
        for j, quota in enumerate(center_quotas(batch_size, len(centers))):
            if quota == 0:
                continue
            if remaining == 0:
                break
            got = certified_least(low[j], quota, lambda rows: exact(j, rows))[0]
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
        cover = self._cover
        skip = np.empty(0, dtype=np.intp)
        for start in range(0, rows.size, _ABSORB_ROWS):
            block = rows[start : start + _ABSORB_ROWS]
            low, exact = self._lower_ends(table.matrix[block], table.sq_norms[block], skip)
            for j in range(block.size):
                # A row is skipped only when its lower end provably stays at
                # or above its cover; a NaN cover is never.
                closer = np.flatnonzero(~(low[j] >= cover))
                if closer.size:
                    cover[closer] = np.minimum(cover[closer], exact(j, closer))

    def _lower_ends(
        self, queries: np.ndarray, query_sq_norms: np.ndarray, skip: np.ndarray
    ) -> tuple[np.ndarray, Callable[[int, np.ndarray], np.ndarray]]:
        """Lower ends of every row's distance to each query vector, (q, n),
        inf on the ``skip`` rows (a mask or indices), and ``exact(j, rows)``,
        the direct formula's distances of some rows to query j.

        ``query_sq_norms`` are the queries' f64 squared norms. The cross
        terms of all queries come from an f32 matrix product over each span
        of rows. A row's lower end is its approximate distance minus its
        error bound: under l2-squared the expanded distance, under cosine
        ``1 - c / D`` with D the direct formula's own denominator (the same
        bits). A non-finite lower end (a row or query outside the range
        gate, whose bound is inf) is made -inf, so that its row is ranked by
        its direct distance.

        The spans run on threads (:func:`_on_spans`); each writes only its
        own columns of the result. A one-query call (a nearest-neighbour
        query, or a row the coreset's cover absorbs) is one span on the
        calling thread: its product is a matrix-vector product bound by
        memory bandwidth, which a second thread does not speed up. Both
        bounds hold in any summation order, so a lower end does not depend
        on the span or thread that computed it. What depends on the queries
        alone (a cosine zero-query ValueError) is computed before any
        thread starts, and ``exact`` runs on the calling thread.
        """
        table = self._pool.embeddings
        matrix = table.matrix
        dim = matrix.shape[1]
        rows32, norms = self._scan_rows()
        query_norms = _gated_norms(query_sq_norms)
        cosine = self._pool.metric == METRIC_COSINE
        if cosine:
            direct_norms = np.array([_query_norm(q) for q in queries])
        with np.errstate(over="ignore"):
            queries32 = queries.astype(np.float32).T
        low = np.empty((len(queries), len(matrix)))

        def span(rows: slice) -> None:
            out = low[:, rows]
            # Outside the gate values may overflow; their bounds are inf.
            with np.errstate(over="ignore", invalid="ignore"):
                cross = (rows32[rows] @ queries32).T
                if cosine:
                    denom = np.multiply.outer(direct_norms, self._norms[rows])
                    np.divide(cross, denom, out=out)
                    np.subtract(1.0, out, out=out)
                    out -= _cosine_error_bound(norms[rows], query_norms, denom, dim)
                else:
                    np.multiply(cross, -2.0, out=out, dtype=np.float64)
                    out += table.sq_norms[rows]
                    out += query_sq_norms[:, None]
                    out -= _l2_error_bound(norms[rows], query_norms, dim)
            out[~np.isfinite(out)] = -np.inf

        if len(queries) == 1:
            span(slice(0, len(matrix)))
        else:
            _on_spans(span, len(matrix))
        low[:, skip] = np.inf

        def exact(j: int, rows: np.ndarray) -> np.ndarray:
            return _direct(matrix, rows, queries[j], self._pool.metric, self._norms)

        return low, exact

    def _scan_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The f32 copy of the pool, cast in one call on the calling thread
        (rows outside the range gate may overflow to inf), and the rows'
        gated norms, built at the first query under either metric."""
        if self._rows32 is None:
            table = self._pool.embeddings
            with np.errstate(over="ignore"):
                self._rows32 = table.matrix.astype(np.float32)
            self._scan_norms = _gated_norms(table.sq_norms)
        return self._rows32, self._scan_norms


def _on_spans(task: Callable[[slice], None], n: int) -> None:
    """``task(rows)`` for n rows cut into max(1, n // _SPAN_ROWS) consecutive
    spans of nearly equal size, by ``pool._on_threads``: on min(CPUs
    available, spans) threads counting the calling one. The spans depend on
    n alone, and a pool of fewer than 2 _SPAN_ROWS rows is one span, which
    starts no thread. No task may call a function that perfbench's tracer
    wraps (``embedding_distances`` among them): its span stack is shared by
    all threads."""
    count = max(1, n // _SPAN_ROWS)
    cuts = [n * i // count for i in range(count + 1)]
    spans = [slice(lo, end) for lo, end in zip(cuts, cuts[1:])]
    _on_threads(task, spans)


def _gated_norms(sq_norms: np.ndarray) -> np.ndarray:
    """Norms from f64 squared norms, or inf outside the f32 stage's range
    gate (a squared norm above 2^124)."""
    return np.where(sq_norms <= _F32_MAX_SQ_NORM, np.sqrt(sq_norms), np.inf)


def _direct(
    matrix: np.ndarray,
    rows: np.ndarray,
    query: np.ndarray,
    metric: str,
    norms: np.ndarray | None,
) -> np.ndarray:
    """Direct distances of some matrix rows, in blocks of rows, equal bit
    for bit to those of a scan over the whole matrix; ``norms`` are every
    row's cosine norms (None under l2-squared)."""
    out = np.empty(rows.size)
    for start in range(0, rows.size, _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        out[start : start + block.size] = embedding_distances(
            matrix[block], query, metric, None if norms is None else norms[block]
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
    bound inf, or NaN against a zero norm; either makes the lower end
    non-finite, which ranks the row by its direct distance.
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


def _cosine_error_bound(
    row_norms: np.ndarray, query_norms: np.ndarray, denom: np.ndarray, dim: int
) -> np.ndarray:
    """Bound on |approximate - direct| for cosine distances whose cross
    terms come from f32 copies of the rows and queries; (q, n).

    With u, v and g_m(w) as in :func:`_l2_error_bound`, take a row x, a
    query q, S = sum |x_j q_j| <= |x| |q|, and the direct formula's norms
    n_x, n_q and denominator D = fl(n_x n_q), which the approximation
    shares bit for bit. The direct distance is d = fl(1 - fl(p / D)), p the
    f64 dot, and the approximation a = fl(1 - fl(c / D)), c the f32 cross
    term. Both divide by the same D, so the norms' own rounding cancels
    from the difference; it only enters through S / D.

    * Cross term, as in :func:`_l2_error_bound` (inside the range gate):
      |c - x.q| <= g_(dim+2)(v) S + 2^-149 sqrt(dim) (|x| + |q|) + dim 2^-147.
    * Direct dot, the f64 sum of the dim products in any order: each
      product is off by a relative u or, if it underflows, by at most
      2^-1075, and subnormal sums are exact, so
      |p - x.q| <= g_dim(u) S + dim 2^-1074.
    * Division and subtraction: each quotient is off by a relative u plus
      at most 2^-1075, and each subtraction from 1 by a relative u of
      |1 - r| <= 1 + |r|. With |c| + |p| <= 2 S + both errors above,
      |a - d| <= ((1 + 3u) (g_(dim+2)(v) + g_dim(u)) + 5u) S / D
      + (1 + 3u) (f32 and f64 floors) / D + 2u + 2^-1073.
    * Norms: a computed norm n_x = fl(sqrt(s_x)), s_x the f64 sum of the
      squares in any order, gives |x| <= (1 + (dim/2 + 2) u) (n_x + f)
      with f = sqrt(dim) 2^-537 for squares that underflow; and
      n_x n_q <= (1 + 2u) D + 2^-1075. So S / D <= (1 + (dim + 8) u)
      + (f (n_x + n_q) + f^2 + 2^-1075) / D, to first order in u.

    With (dim + 8) u <= 0.01 (any dim below 2^46) and g_(dim+2)(v) <= 1
    (dim + 2 <= 2^23; beyond, the bound is inf), this gives |a - d| <= T =
    1.01 g_(dim+2)(v) + (dim + 8) eps + 2u + (2^-148 sqrt(dim) (n_x + n_q)
    + dim 2^-146) / D + 2^-1073, eps = 2u: the products of f with the tiny
    coefficients are folded into the floors, whose f32 parts are doubled.
    The bound returned is E = 1.01 g_(dim+2)(v) + 2 (dim + 8) eps +
    (2^-147 sqrt(dim) (n_x' + n_q') + dim 2^-145) / D, where n_x' and n_q'
    may be any computed norms (the rooted squared norms of the table and
    of the caller); they are within a relative (dim + 2) u of n_x and n_q.
    E exceeds T by at least (2 dim + 14) u plus nearly T's floor term. That
    spare covers the rounding of E (a relative 7u of each nonnegative term)
    and of the lower end a - E (u of |a| + E, where |a| <= 3.1 plus three
    times the floor term), so the computed lower end is at most d. Inside
    the gate D >= 2^-1074 > 0 for nonzero norms (each is at least 2^-537),
    and the floors make E large wherever n_x or n_q is too small for the
    f32 stage. A gated norm of inf (outside the gate) makes E inf, which
    makes the lower end non-finite; its row is ranked by its direct
    distance. ``row_norms`` and ``query_norms`` are the gated n_x' and
    n_q', ``denom`` the direct formula's denominators.
    """
    m = (dim + 2) * 2.0**-24
    gamma32 = m / (1.0 - m) if m <= 0.5 else math.inf
    relative = 1.01 * gamma32 + 2.0 * (dim + 8) * np.finfo(np.float64).eps
    bound = np.add.outer(query_norms, row_norms)
    bound *= 2.0**-147 * math.sqrt(dim)
    bound += dim * 2.0**-145
    bound /= denom
    bound += relative
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
