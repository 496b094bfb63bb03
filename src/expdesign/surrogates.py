"""Embedding-conditioned baselines: a linear-UCB bandit and GP regression.

Both models score candidates from their embeddings alone; batch selection is
a plain top-B over the acquisition scores with index tie-breaking.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dtrtri
from scipy.spatial.distance import pdist

from .errors import NumericalError
from .memory import CandidateMemory


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """L^-1 of a lower Cholesky factor L by LAPACK's triangular inverse
    (trtri). It overwrites ``chol`` when that is Fortran-ordered, so callers
    are done with the factor.

    Callers pass the factor of a successful Cholesky of a finite matrix, so
    its entries are finite and its diagonal is positive.
    """
    inv, info = dtrtri(chol, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"triangular inverse failed (LAPACK info {info})")
    return inv


class LinUcb:
    """Ridge-regularized linear bandit with an uncertainty bonus.

    Maintains A = ridge*I + sum(x x^T) and b = sum(y x); the score of a
    feature vector is theta.x + alpha * sqrt(x^T A^-1 x) with theta = A^-1 b.
    Every change to A factors it once as L L^T (lower Cholesky) and keeps
    theta and L^-1 (inverted in place). Scoring is then a map over rows: the
    widths x^T A^-1 x = |L^-1 x|^2 are row norms of one matrix product
    X L^-T, so a stack of candidates costs a GEMM rather than triangular
    solves with one right-hand side per candidate, and a pool can be scored
    in row blocks (:func:`score_blocks`) with temporaries of one block.
    With no observations A = ridge*I, and L^-1 = I/sqrt(ridge) is applied
    as a scaling: each entry of the GEMM against it has a single nonzero
    term, so the scores have the same bits.
    """

    def __init__(self, dim: int, ridge: float = 1.0, alpha: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be positive")
        if ridge <= 0.0:
            raise ValueError("ridge weight must be positive")
        if alpha < 0.0:
            raise ValueError("exploration weight must be nonnegative")
        self.dim = dim
        self.ridge = float(ridge)
        self.alpha = float(alpha)
        self._reset()

    def _reset(self) -> None:
        """The state without observations: A = ridge*I, theta = 0, and
        L^-1 = I/sqrt(ridge), kept implicit (None)."""
        self.A = self.ridge * np.eye(self.dim)
        self.b = np.zeros(self.dim)
        self._theta = np.zeros(self.dim)
        self._chol_inv: np.ndarray | None = None

    def _check(self, x: Sequence[float]) -> np.ndarray:
        xv = np.asarray(x, dtype=np.float64)
        if xv.ndim != 1 or xv.shape[0] != self.dim:
            raise ValueError(f"feature vector has shape {xv.shape}, expected ({self.dim},)")
        return xv

    def update(self, x: Sequence[float], y: float) -> None:
        """Rank-one update with one (features, response) observation."""
        xv = self._check(x)
        y = float(y)
        if not math.isfinite(y):
            raise ValueError("response must be finite")
        self.A += np.outer(xv, xv)
        self.b += y * xv
        self._factor()

    def fit_batch(self, X: np.ndarray, y: Sequence[float]) -> None:
        """Reset and ingest a whole batch; equal to update() row by row."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim or X.shape[0] != y.shape[0]:
            raise ValueError("feature matrix and responses do not line up")
        if X.shape[0] == 0:
            self._reset()
            return
        self.A = self.ridge * np.eye(self.dim) + X.T @ X
        self.b = X.T @ y
        self._factor()

    def _factor(self) -> None:
        """theta = A^-1 b and L^-1 from one Cholesky factor A = L L^T."""
        chol = cholesky(self.A, lower=True)
        self._theta = cho_solve((chol, True), self.b)
        self._chol_inv = _lower_inverse(chol)

    @property
    def theta(self) -> np.ndarray:
        """Current ridge estimate A^-1 b."""
        return self._theta

    def score_many(self, X: np.ndarray) -> np.ndarray:
        """UCB scores for a stack of feature rows, which are taken as finite
        (pool embeddings are checked at load)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"feature matrix has shape {X.shape}, expected (*, {self.dim})")
        if self._chol_inv is None:
            W = X * (1.0 / math.sqrt(self.ridge))
        else:
            W = X @ self._chol_inv.T
        return X @ self._theta + self.alpha * np.sqrt(np.einsum("ij,ij->i", W, W))


def median_heuristic(X: np.ndarray, max_points: int = 512) -> float:
    """Median pairwise Euclidean distance over an evenly spaced subsample.

    The standard RBF length-scale default. Falls back to 1.0 when the
    subsample collapses onto a single point.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        return 1.0
    take = min(max_points, X.shape[0])
    idx = np.linspace(0, X.shape[0] - 1, take).astype(int)
    med = float(np.median(pdist(X[idx])))
    return med if med > 0.0 else 1.0


class GaussianProcess:
    """GP regression with an RBF kernel and a UCB acquisition.

    k(a, b) = signal_var * exp(-|a - b|^2 / (2 length_scale^2)). Unset
    hyperparameters are resolved at fit time: length_scale by the median
    heuristic on the training inputs, signal_var as the variance of the
    (possibly standardized) targets, noise_var as 1e-4 * signal_var. With
    ``standardize`` on, targets are z-scored before fitting and explicit
    signal/noise variances are interpreted in the standardized space;
    posteriors are mapped back to raw units.

    A fit factors the training kernel once (K + noise*I = L L^T) and keeps
    L^-1; a posterior applies it to the cross-kernel block by one matrix
    product (v = L^-1 k_*, var = signal - |v|^2) instead of a triangular
    solve with one right-hand side per query row. Each query row's posterior
    depends on that row alone, so a pool can be scored in row blocks
    (:func:`score_blocks`), with kernel-sized temporaries of one block rather
    than of the pool.
    """

    def __init__(
        self,
        length_scale: float | None = None,
        signal_var: float | None = None,
        noise_var: float | None = None,
        beta: float = 2.0,
        standardize: bool = True,
    ):
        if length_scale is not None and length_scale <= 0.0:
            raise ValueError("length scale must be positive")
        if signal_var is not None and signal_var <= 0.0:
            raise ValueError("signal variance must be positive")
        if noise_var is not None and noise_var < 0.0:
            raise ValueError("noise variance must be nonnegative")
        if beta < 0.0:
            raise ValueError("exploration weight must be nonnegative")
        self.length_scale = length_scale
        self.signal_var = signal_var
        self.noise_var = noise_var
        self.beta = float(beta)
        self.standardize = standardize
        self._X: np.ndarray | None = None
        self._chol_inv: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._mu = 0.0
        self._sd = 1.0
        self._length = length_scale
        self._signal = signal_var if signal_var is not None else 1.0

    def _kernel(
        self, A: np.ndarray, B: np.ndarray, b_sq_norms: np.ndarray | None = None
    ) -> np.ndarray:
        """k(A, B) as (|a|^2 + |b|^2) - 2 A B^T, clipped at 0, times -0.5,
        over length^2, exp, times signal: each step in place, in this order,
        so two blocks of len(A) x len(B) are live at most. ``b_sq_norms``,
        when given, must be ``np.square(B).sum(axis=1)``."""
        if b_sq_norms is None:
            b_sq_norms = np.square(B).sum(axis=1)
        sq = np.add.outer(np.square(A).sum(axis=1), b_sq_norms)
        cross = A @ B.T
        cross *= 2.0
        sq -= cross
        np.clip(sq, 0.0, None, out=sq)
        sq *= -0.5
        sq /= self._length**2
        np.exp(sq, out=sq)
        sq *= self._signal
        return sq

    def fit(self, X: np.ndarray, y: Sequence[float]) -> None:
        """Refit on the full training set (replaces any previous fit)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have matching lengths")
        if X.shape[0] == 0:
            self._X = None
            self._chol_inv = None
            self._alpha = None
            self._mu, self._sd = 0.0, 1.0
            return
        if self.standardize:
            self._mu = float(y.mean())
            sd = float(y.std())
            self._sd = sd if sd > 0.0 else 1.0
        else:
            self._mu, self._sd = 0.0, 1.0
        z = (y - self._mu) / self._sd

        self._length = (
            self.length_scale if self.length_scale is not None else median_heuristic(X)
        )
        if self.signal_var is not None:
            self._signal = self.signal_var
        else:
            var = float(z.var())
            self._signal = var if var > 0.0 else 1.0
        noise = self.noise_var if self.noise_var is not None else 1e-4 * self._signal

        K = self._kernel(X, X)
        n = K.shape[0]
        jitter = 0.0
        while True:
            try:
                chol = np.linalg.cholesky(K + (noise + jitter) * np.eye(n))
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter * 10.0, 1e-12 * self._signal)
                if jitter > 1e-4 * self._signal:
                    raise NumericalError(
                        "kernel matrix is not positive-definite even after jitter"
                    ) from None
        self._X = X
        self._alpha = cho_solve((chol, True), z)
        self._chol_inv = _lower_inverse(chol)

    def posterior_many(
        self, X: np.ndarray, sq_norms: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at a stack of query rows (raw units),
        which are taken as finite (pool embeddings are checked at load).
        ``sq_norms``, when given, must be the rows' squared norms as
        ``np.square(X).sum(axis=1)`` computes them (``EmbeddingTable.sq_norms``
        does); otherwise they are computed here."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self._X is None:
            prior_var = self.signal_var if self.signal_var is not None else 1.0
            return (
                np.zeros(X.shape[0]),
                np.full(X.shape[0], prior_var * self._sd**2),
            )
        k_star = self._kernel(self._X, X, sq_norms)
        mean_z = k_star.T @ self._alpha
        v = self._chol_inv @ k_star
        var_z = np.clip(self._signal - np.einsum("ij,ij->j", v, v), 0.0, None)
        return self._mu + self._sd * mean_z, self._sd**2 * var_z

    def acquisition(self, X: np.ndarray, sq_norms: np.ndarray | None = None) -> np.ndarray:
        """UCB scores: posterior mean + beta * posterior stddev (``sq_norms``
        as for :meth:`posterior_many`)."""
        mean, var = self.posterior_many(X, sq_norms)
        return mean + self.beta * np.sqrt(var)


# Rows per scoring block. The temporaries of one block (a 2048 x 256 gather
# is 4 MB, a 512 x 2048 kernel 8 MB) stay near cache size however large the
# pool; 2048 beat 1024 and 4096 on gene-screen scale (18k x 256, one thread).
_BLOCK_ROWS = 2048


def score_blocks(idx: np.ndarray, score: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``score(rows)`` over consecutive blocks of _BLOCK_ROWS of the pool
    indices ``idx``, in one float array aligned with ``idx``. ``score``
    gathers and scores the rows of one block.

    The last block is the final _BLOCK_ROWS indices, overlapping its
    predecessor, so with more indices than one block every call has the same
    shape. BLAS rounds a product's rows alike only within one kernel: a
    small product, or the last few rows of one whose length is not a
    multiple of the kernel's tile, can take another summation order. With
    equal shapes, every row of ``LinUcb.score_many`` and
    ``GaussianProcess.acquisition`` comes out of the same kernel, so a
    candidate's score does not depend on how many others are scored. It
    equals the score from a single call over all of ``idx`` when that call's
    products, too, use one kernel for every row (with OpenBLAS, for instance,
    when ``idx.size`` is a multiple of 8 and the products are not small).
    """
    idx = np.asarray(idx)
    out = np.empty(idx.size)
    for start in range(0, idx.size, _BLOCK_ROWS):
        lo = max(0, min(start, idx.size - _BLOCK_ROWS))
        out[start : start + _BLOCK_ROWS] = score(idx[lo : start + _BLOCK_ROWS])[start - lo :]
    return out


def select_top_b(
    idx: np.ndarray, scores: np.ndarray, memory: CandidateMemory, batch_size: int
) -> np.ndarray:
    """The batch_size candidates of ``idx`` (pool indices, callers pass the
    unexplored ones) with the largest matching ``scores``.

    Ties break toward the lower pool index. The selected indices are marked
    explored and returned in rank order.
    """
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    idx = np.asarray(idx)
    order = np.lexsort((idx, -np.asarray(scores, dtype=np.float64)))
    chosen = idx[order[:batch_size]]
    memory.explore(chosen)
    return chosen
