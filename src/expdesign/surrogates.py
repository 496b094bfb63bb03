"""Embedding-conditioned baselines: a linear-UCB bandit and GP regression.

Both models score candidates from their embeddings alone; batch selection is
a plain top-B over the acquisition scores with index tie-breaking.

A pass over many candidates runs in same-shape blocks of _BLOCK_ROWS rows
(:func:`score_blocks`), each scored as two half-block calls where its row
count allows, on as many threads as the process has CPUs and calls. Which
calls are made depends on the row count alone. With one BLAS thread per
product, a row's bits depend only on its call's shape, not on the thread
that scored it or on the call's other rows, so passes over the whole pool
slice the embedding matrix instead of gathering the unexplored rows, and
drop the explored rows' scores after. :class:`LinUcb` scores the rows it
is handed, :class:`DualLinUcb` their products with its training rows, and
:class:`GaussianProcess` either, when the caller hands the products
(``products``): a full pass with observations reads them from the run's
memo of observed-row products (``agents._ObservedProducts``), and gathers
no embedding row. Only the agents' scorers, through
``agents._certified_top_b``, read a call's rows, squared norms or
products. The temporaries alive are those of one call per thread: at 512
training rows, a GP half block's kernel and its product with L^-1 are 4 MB
each, besides its rows when they are gathered.

GP-UCB certifies its top-B from a cheap upper bound on every candidate's
score and scores exactly only the candidates that can reach it
(``agents.GpAgent``, through ``memory.certified_least``). The bound
(:meth:`GaussianProcess.bound_fn`) builds the kernel in a factored form
that costs one GEMM, one in-place exp and one 3-row GEMM per call, and
bounds how far the exact pass's kernel bits can lie from it. It rests on
three assumptions: IEEE basic operations in round to nearest, with u =
2^-53, eta = 2^-1075 and g_k = k u / (1 - k u), in any summation order and
with FMA; |np.exp(t) - e^t| <= kappa max(e^t, tiny) for every f64 t, with
kappa = _EXP_ACCURACY = 2^-40 and tiny the smallest normal f64 (a tier-1
test checks it with headroom); and the range gate below.

The factored kernel. With c the mean training row, x' = x - c and b' = b -
c, |x - b|^2 = |x'|^2 + |b'|^2 - 2 x'.b', so k(x, b) = f_b e_x exp(x'.b' /
l^2) with e_x = exp(-|x'|^2 / 2 l^2) and f_b = s exp(-|b'|^2 / 2 l^2), l^2
the float ``length**2`` that the exact pass divides by.
:meth:`GaussianProcess.bound_fn` builds A = (X - c) / l^2, A c and the
training factors e_i from the current fit, on the calling thread, and
returns a function that keeps them; a call of it computes E = exp(A B^T -
A c), f_j from |b_j - c|^2 = |b_j|^2 - 2 b_j.c + |c|^2, and k~_ij = f_j e_i
E_ij (a real product of floats, never rounded).

The log-ratio. Let tau = -|x - b|^2 / 2 l^2 in exact arithmetic.

* The exact pass (``_kernel``, from the uncentred squared norms) computes
  an exponent within g_(d+4) (|x|^2 + |b|^2) / l^2 of tau: its squared
  norms and cross product are each within g_d of their terms' sum, its
  sum, difference and quotient add a u each, and the clip at 0 only moves
  toward |x - b|^2 >= 0. One exp and the product with s follow.
* The factored side's exponents, of e_i, E_ij and f_j, add up to tau
  within g_(d+4) (R + |b| + |c|)^2 / 2 l^2, R = max_i |x_i - c|: A's
  entries are within g_2 of x'/l^2, so A B^T - A c is within g_(d+4) |x'|
  (|b| + |c|) / l^2 of x'.b' / l^2; the computed |b - c|^2 is within
  g_(d+2) (|b| + |c|)^2 of |b'|^2, and the computed |x - c|^2 within
  g_(d+3) |x'|^2 of |x'|^2. Three exps and the product with s follow.
* A product or quotient that underflows is off by up to eta rather than a
  relative u; all of them add less than 2^-1064 (d (1 + 1/l^2) + sqrt(d)
  (|b| + |c|)) to the exponents.

So with Delta the sum of these terms and of 4 kappa (1 + kappa) + 2 u (1 +
u) (the four exps and two products with s), the exact pass's kernel entry
k_ij is within the factor e^(+-Delta) of k~_ij, and |k_ij - k~_ij| <= rho
k~_ij with rho = Delta (1 + Delta) >= e^Delta - 1 for Delta <= 1.

The range gate. A fit is inside it when R^2 / l^2 <= 256 (_GP_GATE), 2^-1000
<= l^2 <= 2^1000, 2^-256 <= s <= 2^256 and (2n + d + 8) u <= 0.01; a row,
when its computed |b - c|^2 plus that value's error bound is at most 256
l^2 and Delta <= 1/2. Then the exponents of E lie in [-257, 257], those of
e and f in [-129, 1], and those of the exact pass in [-513, 0], so every exp
result is at least 2^-741 and every kernel entry of the exact pass at
least 2^-997: all are normal numbers, kappa is a relative error wherever it
is used, and exp cannot overflow. A row outside the gate, or in a fit
outside it, gets an inf bound and is always scored exactly.

The mean. The exact pass's k^T alpha, a GEMV in any order, is at most
sum_i alpha_i k~_ij + (rho + g_n (1 + rho)) sum_i |alpha_i| k~_ij + n eta.
The terms hold the rows alpha e, |alpha e| (its floats' absolute values)
and e, so one GEMM gives y1, y2 and y3, within g_n of the sums of alpha_i e_i
E_ij (up to the rounding of alpha e), |alpha_i| e_i E_ij and e_i E_ij.
Hence k^T alpha <= f (y1 + omega y2) + n (2^-698 f + 2^-1070), with omega
= (1 + g) rho + 2 g, g = g_(2n+8), which also covers the roundings of
evaluating that sum.

The variance. The posterior computes Q = fl(|fl(G k)|^2), G = L^-1 over
the n training rows, and the variance fl(s - Q), clipped at 0. Each entry
of fl(G k) is within g_n of its terms' sum, so Q >= |G k|^2 - 8 g'_n
|G|_F^2 (|k|^2 + (n + 2) tiny) - 4 (n + 2) tiny, g'_n = n eps / (1 - n
eps), underflows included (``_GpBound.slack_scale``, 8 g'_n |G|_F^2). G is
lower triangular, as a fit keeps it, so with p = _BOUND_PREFIX, |G k| >=
|G_p k_p| >= |G_p k~_p| - |G_p|_F rho |k~_p|. The prefix product y =
fl(G_p diag(e_p) E_p), kept as its p x p left factor, is within g_(p+1)
|G_p|_F |k~_p| / f of G_p k~_p / f, and K = (s (1 + rho) f y3 (1 + g))^(1/2)
bounds |k~_p| (each k~ is at most s (1 + rho), and f y3 is their sum
within g). So |G k| >= f |y| (1 - g_(2p+8)) - (rho + g_(2p+8)) |G_p|_F K -
p 2^-534 f, whose square (0 when negative) is taken rounded down as P. The
slack bounds |k|^2 by (1 + rho) K^2, that is s (1 + rho)^2 f y3 (1 + g),
since each k is at most s (1 + rho) and their sum at most (1 + rho) times
that of k~. var_ub = min(s, up(up(s - P) + slack)), rounded up with
``np.nextafter``, is then at least s - Q in exact arithmetic, so at least
fl(s - Q), as rounding is monotone, and clipping it to [0, s], where the
computed variance lies, keeps that.

Every upper end above is evaluated in floats from nonnegative terms and
multiplied by _SPARE = 1 + 2^-46, which exceeds the at most 60 roundings of
its evaluation; the lower end of |G k| takes the spare of g_(2p+8) over
g_(p+2). f (y1 + omega y2) and var_ub then go through exactly the
arithmetic that turns the exact pass's sum and variance into the score
(:meth:`GaussianProcess.posterior_many`, then ``acquisition``): mu + sd
sum, sd^2 var, mean + beta sqrt(var). Each step is a correctly rounded,
monotone function for sd > 0 and beta >= 0, so the bound is at least the
score as a float, for an exact pass of any call shape. A non-finite bound
is made inf.

LinUCB has two forms with the same scores up to rounding. The primal
(:class:`LinUcb`) factors the d x d matrix A = ridge*I + X^T X of the n
observed rows X. The dual (:class:`DualLinUcb`, the linear-kernel case of
KernelUCB) factors the n x n Gram matrix C = X X^T + ridge*I = L L^T and
keeps w = C^-1 y and G = L^-1. Since X^T C^-1 = A^-1 X^T, theta = X^T w, so
with k = X x the mean is x.theta = k.w, and x^T A^-1 x = (|x|^2 - k^T C^-1
k) / ridge = (|x|^2 - |G k|^2) / ridge. The dual reads no embedding row:
its fit is handed X X^T, and a call over the rows X_q is handed k = X_q
X^T and their squared norms |x|^2, computes v = k G^T, and scores a row
k.w + alpha sqrt(max(0, |x|^2 - |v|^2) / ridge). Every product is
row-wise, so a row's bits depend only on its call's shape and on its
handed products, and :func:`score_blocks` gives them the same guarantees
as the primal's; they are not the primal's bits. On the perfbench
molecule pools (seeds 0-9) the two forms' scores differed by at most
1.5e-12 relative, and every selection was the same. The difference |x|^2 -
|v|^2 cancels for a row near the span of X, where a variance error e
becomes a width error of up to sqrt(e). The dual has no bound:
``agents.LinUcbAgent`` takes it only in a full pass, with observations and
3n <= 2d.

In a full pass with observations, the dual's Gram matrix and k, and the
GP's fit and exact pass, read their products of training rows with other
rows from the run's memo (``agents._ObservedProducts``), which computes
each observed row's products with the whole pool once, in the round after
it is observed. These are the products of a call in other GEMM shapes,
and a dgemm entry's bits can depend on the shape, so a row's score depends
on the memo's shapes (a function of the feedback alone) instead of the
call's. With OpenBLAS, on 2,000-row Gaussian-mixture pools, fits and
scores from the memo had the bits of those from each call's own product
X_train X_q^T at d = 8 to 768 with B from 8 to 128, but not at d = 5 with
B = 1 or d = 300 with B = 100, where scores differed by up to 1.8e-10
relative; the selections were the same on all of them.

The primal form certifies its top-B as GP-UCB does
(``agents.LinUcbAgent``), from a bound that recomputes the score in f32
(:meth:`LinUcb.bound_fn`). With G = L^-1 (of A = L L^T) and theta as a fit
keeps them, the score of a row x is S = x.theta +
alpha |G x| in real arithmetic, and ``score_many`` computes s =
fl(fl(x.theta) + fl(alpha fl(sqrt(fl(|fl(G x)|^2))))) in f64. The bound
takes f32 copies x', G' and theta' (G' and theta' made by ``bound_fn``), one
f32 product x' G'^T whose row norms r' are summed and rooted in f32, and
the f32 product m' = x'.theta'. Take u = 2^-53, v = 2^-24, g_k(w) = k w /
(1 - k w), and the norms |x|, |theta| and |G|_F.

* The f64 score. Each entry of fl(G x) is within g_d(u) sum_j |G_ij| |x_j|
  of (G x)_i in any summation order, so fl(G x) is within g_d(u) |G|_F |x|
  of G x; its sum of squares and root add g_(d+1)(u) of its norm, the
  product with alpha and the final sum one u each, and fl(x.theta) is
  within g_d(u) |x| |theta| of x.theta. So |s - S| <= g_(3d+3)(u) |x|
  (|theta| + alpha |G|_F), and a few (d + 2) tiny and alpha sqrt((d + 2)
  tiny) more for products that underflow, tiny the smallest normal f64.
* The f32 mean, as the cross term of ``memory._l2_error_bound``: each f32
  rounding is off by a relative v or, where its result is subnormal, by at
  most 2^-150, so |m' - x.theta| <= g_(d+2)(v) |x| |theta| + 2^-149
  sqrt(d) (|x| + |theta|) + d 2^-147.
* The f32 width. Entry i of x' G'^T is off from (G x)_i as the mean is,
  with row i of G for theta; over the d entries that is g_(d+2)(v) |G|_F
  |x| + 2^-149 sqrt(d) (sqrt(d) |x| + |G|_F) + d^1.5 2^-147 in norm. The
  f32 sum of squares is within g_d(v) of its terms' sum and d 2^-147 for
  the ones that underflow, and sqrt(a + b) <= sqrt(a) + sqrt(b); with the
  root's own rounding, |r' - |G x|| <= g_(2d+3)(v) |G|_F |x| + 2^-148 (d
  |x| + sqrt(d) |G|_F) + d^1.5 2^-146 + sqrt(d) 2^-73.

The bound is up(fl(m' + alpha r') + E), rounded to nearest and then, for
the last sum, ``np.nextafter`` toward inf, with E the f32 mean's terms,
alpha times the f32 width's, and twice the f64 score's relative term,
(3d + 6) eps |x| (|theta| + alpha |G|_F), eps = 2u. The f32 floors exceed
the f64 score's underflow terms many times over. m' and r' are f32 values,
exact in f64, and fl(m' + alpha r') is within 2u (1 + g_(2d+3)(v)) |x|
(|theta| + alpha |G|_F) of m' + alpha r', plus 2u of the floors. The spare
half of the f64 term, and the factor of 1.4 or more by which each floor
exceeds what it covers, take up that rounding, the rounding of E itself and
that of the norms it is computed from (``EmbeddingTable.sq_norms``, whose
underflow the floors cover too). So the bound is at least fl(m' + alpha r')
+ E >= S + |s - S| >= s in real arithmetic, for a call of any shape. The
range gate of ``memory._gated_norms`` (a norm of at most 2^62) makes E inf
for a row, and for every row when theta or G is outside it; so does a
dimension with (2d + 3) v > 0.1, which keeps each g_k(v) below 0.12. An
overflow in the f32 stage, possible when |x| |G|_F exceeds 2^64, leaves a
non-finite value; every non-finite bound is made inf, so its row is always
scored exactly.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericalError
from .memory import CandidateMemory, _gated_norms
from .pool import _on_threads


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """L^-1 of a lower-triangular factor L, as a new C-ordered array with
    exact zeros above the diagonal; ``chol`` is not written.

    Blocked from GEMMs: with L = [[L11, 0], [L21, L22]], the inverse is
    [[G11, 0], [G21, G22]] with G11 = L11^-1, G22 = L22^-1 and G21 = -G22
    (L21 G11), halving down to blocks of at most _INVERSE_BASE rows, each
    inverted by np.linalg.inv and cut to its lower triangle. A zero on the
    diagonal (a singular factor) is a NumericalError.
    """
    if not np.diagonal(chol).all():
        raise NumericalError("triangular inverse failed: the factor is singular")
    inv = np.zeros(chol.shape)
    _fill_lower_inverse(chol, inv)
    return inv


def _fill_lower_inverse(chol: np.ndarray, inv: np.ndarray) -> None:
    """Write L^-1 into the lower triangle of ``inv`` (see :func:`_lower_inverse`)."""
    n = chol.shape[0]
    if n <= _INVERSE_BASE:
        inv[...] = np.tril(np.linalg.inv(chol))
        return
    h = n // 2
    _fill_lower_inverse(chol[:h, :h], inv[:h, :h])
    _fill_lower_inverse(chol[h:, h:], inv[h:, h:])
    lower = inv[h:, :h]
    np.matmul(inv[h:, h:], chol[h:, :h] @ inv[:h, :h], out=lower)
    np.negative(lower, out=lower)


def _cholesky(matrix: np.ndarray, name: str) -> np.ndarray:
    """The lower Cholesky factor of a symmetric matrix (np.linalg.cholesky),
    or a NumericalError naming it when it is not finite (embeddings so large
    that their products overflow) or not positive-definite in floats (a
    ridge too small against the rows' norms)."""
    if not np.isfinite(matrix).all():
        raise NumericalError(
            f"{name} is not finite; the embeddings are too large for their products"
        )
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"{name} is not positive-definite; a larger linucb ridge may help"
        ) from None


class LinUcb:
    """Ridge-regularized linear bandit with an uncertainty bonus.

    Maintains A = ridge*I + sum(x x^T) and b = sum(y x); the score of a
    feature vector is theta.x + alpha * sqrt(x^T A^-1 x) with theta = A^-1 b.
    Every change to A factors it once as L L^T (lower Cholesky) and keeps
    L^-1 (:func:`_lower_inverse`) and theta = L^-T (L^-1 b). Scoring is then
    a map over rows: the widths x^T A^-1 x = |L^-1 x|^2 are row norms of one
    matrix product X L^-T, so a stack of candidates costs a GEMM rather than
    triangular solves with one right-hand side per candidate, and a pool can
    be scored in row blocks (:func:`score_blocks`) with temporaries of one
    block. With no observations A = ridge*I, and L^-1 = I/sqrt(ridge) is applied
    as a scaling: each entry of the GEMM against it has a single nonzero
    term, so the scores have the same bits. :meth:`bound_fn` returns a
    function that bounds the scores of a fitted model from f32 copies of
    L^-1 and theta.
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
        # ridge*I + X^T X without d x d temporaries and with the same bits:
        # adding 0.0 turns -0.0 into +0.0 as the zeros of ridge*I do. An
        # overflow leaves a non-finite A, which _factor rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            self.A = X.T @ X
            self.A += 0.0
            self.A.flat[:: self.dim + 1] += self.ridge
            self.b = X.T @ y
        self._factor()

    def _factor(self) -> None:
        """theta = A^-1 b and L^-1 from one Cholesky factor A = L L^T."""
        G = _lower_inverse(_cholesky(self.A, "LinUCB matrix A"))
        self._theta = G.T @ (G @ self.b)
        self._chol_inv = G

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
            # The scaled rows in chunks, so no copy of the call's rows is
            # made: the sum reduces each row on its own, so the bits are
            # those of one pass over all of them.
            scale = 1.0 / math.sqrt(self.ridge)
            step = max(1, _SCALED_FLOATS // self.dim)
            widths = np.empty(X.shape[0])
            with np.errstate(over="ignore"):
                for lo in range(0, X.shape[0], step):
                    W = X[lo : lo + step] * scale
                    np.einsum("ij,ij->i", W, W, out=widths[lo : lo + step])
        else:
            W = X @ self._chol_inv.T
            widths = np.einsum("ij,ij->i", W, W)
        return X @ self._theta + self.alpha * np.sqrt(widths)

    def bound_fn(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """``bound(X, sq_norms)``: upper bounds on the :meth:`score_many`
        scores of a stack of rows under this fit, which must be on
        observations, from the rows' squared norms as
        ``np.square(X).sum(axis=1)`` computes them (``EmbeddingTable.sq_norms``
        does). Each bound is at least the row's score from a call of any
        shape, and is inf for a row outside the range gate (see the module
        docstring). The function keeps the f32 copies of L^-1 and theta made
        here, so a later fit does not change it.
        """
        if self._chol_inv is None:
            raise ValueError("the UCB bound needs a model fitted on observations")
        chol_inv32, theta32, per_norm, floor = _linucb_bound_terms(
            self._chol_inv, self._theta, self.alpha
        )
        alpha = self.alpha

        def bound(X: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):
                X32 = np.asarray(X, dtype=np.float32)
                W = X32 @ chol_inv32.T
                width = np.sqrt(np.einsum("ij,ij->i", W, W)).astype(np.float64)
                approx = (X32 @ theta32).astype(np.float64) + alpha * width
                error = _gated_norms(sq_norms) * per_norm + floor
                out = np.nextafter(approx + error, np.inf)
            out[~np.isfinite(out)] = np.inf
            return out

        return bound


def _linucb_bound_terms(
    chol_inv: np.ndarray, theta: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """f32 copies of L^-1 and theta, and the error term of
    :meth:`LinUcb.bound_fn` as E = |x| per_norm + floor (see the module
    docstring); per_norm is inf or NaN outside the range gate, which makes
    every bound inf."""
    dim = theta.size
    with np.errstate(over="ignore"):
        theta_norm, inv_norm = _gated_norms(
            np.array([np.square(theta).sum(), np.square(chol_inv).sum()])
        )
        chol_inv32, theta32 = chol_inv.astype(np.float32), theta.astype(np.float32)
    v = 2.0**-24
    gamma_mean = gamma_width = math.inf
    if (2 * dim + 3) * v <= 0.1:
        gamma_mean = (dim + 2) * v / (1.0 - (dim + 2) * v)
        gamma_width = (2 * dim + 3) * v / (1.0 - (2 * dim + 3) * v)
    c64 = (3 * dim + 6) * np.finfo(np.float64).eps
    root = math.sqrt(dim)
    with np.errstate(invalid="ignore"):
        per_norm = (
            (gamma_mean + c64) * theta_norm
            + 2.0**-149 * root
            + alpha * ((gamma_width + c64) * inv_norm + 2.0**-148 * dim)
        )
        floor = (
            2.0**-149 * root * theta_norm
            + dim * 2.0**-147
            + alpha * (2.0**-148 * root * inv_norm + dim * root * 2.0**-146 + root * 2.0**-73)
        )
    return chol_inv32, theta32, float(per_norm), float(floor)


class DualLinUcb:
    """The scores of :class:`LinUcb` fitted on n rows X and their responses
    y, from the products of X alone: the fit factors the n x n Gram matrix
    C = X X^T + ridge*I = L L^T instead of A, and keeps w = C^-1 y and G =
    L^-1; a row x scores k.w + alpha sqrt(max(0, |x|^2 - |G k|^2) / ridge)
    with k = X x (see the module docstring for the identity and the bits).
    ``gram`` is X X^T (n x n), overwritten by C; the caller computes it and
    every k. Scoring m rows from their products costs a product of m x n x
    n against the primal's m x d x d, and the fit an n x n factor against a
    d x d one.
    """

    def __init__(self, gram: np.ndarray, y: Sequence[float], ridge: float = 1.0,
                 alpha: float = 1.0):
        y = np.asarray(y, dtype=np.float64)
        n = y.shape[0]
        if gram.shape != (n, n):
            raise ValueError(f"Gram matrix has shape {gram.shape}, expected ({n}, {n})")
        if n == 0:
            raise ValueError("the dual form needs observations")
        if ridge <= 0.0:
            raise ValueError("ridge weight must be positive")
        if alpha < 0.0:
            raise ValueError("exploration weight must be nonnegative")
        self.ridge = float(ridge)
        self.alpha = float(alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            gram.flat[:: n + 1] += self.ridge
        G = _lower_inverse(_cholesky(gram, "LinUCB Gram matrix X X^T + ridge*I"))
        self._weights = G.T @ (G @ y)
        self._chol_inv = G

    def score_many(self, products: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
        """UCB scores of a stack of rows from their products with the
        training rows, X X_train^T (m x n), and their squared norms as
        ``np.square(X).sum(axis=1)`` computes them (``EmbeddingTable.sq_norms``
        does); the rows are taken as finite."""
        v = products @ self._chol_inv.T
        explained = np.einsum("ij,ij->i", v, v)
        width = np.sqrt(np.maximum(sq_norms - explained, 0.0) / self.ridge)
        return products @ self._weights + self.alpha * width


def square_is_normal(value: float) -> bool:
    """Whether ``value * value`` is a positive normal float: neither 0, a
    subnormal, inf nor NaN."""
    square = value * value
    return sys.float_info.min <= square <= sys.float_info.max


def median_heuristic(X: np.ndarray, max_points: int = 512) -> float:
    """Median pairwise Euclidean distance over an evenly spaced subsample.

    The standard RBF length-scale default. Falls back to 1.0 when the
    subsample collapses onto a single point. The distances are numpy's, one
    row at a time (:func:`_pairwise_distances`): 215 ms for 512 rows of 768
    dimensions and 62 ms for 512 of 256 (one thread), about 5x SciPy's
    ``pdist``, paid once per embedding table and subsample size
    (``GpAgent``).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        return 1.0
    take = min(max_points, X.shape[0])
    idx = np.linspace(0, X.shape[0] - 1, take).astype(int)
    med = float(np.median(_pairwise_distances(X[idx])))
    return med if med > 0.0 else 1.0


def _pairwise_distances(X: np.ndarray) -> np.ndarray:
    """Euclidean distances of every pair i < j of rows, in the order of
    SciPy's ``pdist`` and with its bits.

    Each pair's squared differences are summed over the dimensions in
    order, as ``pdist`` does: a row against every later row is a (d, m - i -
    1) block reduced over axis 0, which numpy adds one dimension at a time.
    A single pair would reduce along its one axis, which numpy sums
    pairwise, so the last pair is summed by a loop. Distances too large for
    floats are inf, with no warning; the caller checks the median.
    """
    m = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    out = np.empty(m * (m - 1) // 2)
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(m - 2):
            block = XT[:, i + 1 :] - XT[:, i : i + 1]
            np.square(block, out=block)
            np.add.reduce(block, axis=0, out=out[lo : lo + m - i - 1])
            lo += m - i - 1
        total = 0.0
        for a, b in zip(X[m - 2].tolist(), X[m - 1].tolist()):
            total += (a - b) * (a - b)
        out[lo] = total
        np.sqrt(out, out=out)
    return out


class GaussianProcess:
    """GP regression with an RBF kernel and a UCB acquisition.

    k(a, b) = signal_var * exp(-|a - b|^2 / (2 length_scale^2)). Unset
    variances are resolved at fit time: signal_var as the variance of the
    (possibly standardized) targets, noise_var as 1e-4 * signal_var. With
    ``standardize`` on, targets are z-scored before fitting and explicit
    signal/noise variances are interpreted in the standardized space;
    posteriors are mapped back to raw units.

    A fit factors the training kernel once (K + noise*I = L L^T) and keeps
    L^-1 and the training rows' squared norms; a posterior applies L^-1 to
    the cross-kernel block by one matrix product (v = L^-1 k_*,
    var = signal - |v|^2) instead of a triangular solve with one right-hand
    side per query row. The posterior and the acquisition build that block
    from the query rows they are handed and their squared norms, or from
    the products of the training rows with them when those are handed
    (``products``, as the fit takes its training rows' own); the function
    :meth:`bound_fn` returns builds a factored kernel from terms of its
    fit. Each query row's posterior depends on that row alone, so a pool
    can be scored in row blocks (:func:`score_blocks`), with kernel-sized
    temporaries of one block rather than of the pool.

    The length scale must have a square that is a positive normal float
    (:func:`square_is_normal`), which the kernel divides by.
    """

    def __init__(
        self,
        length_scale: float,
        signal_var: float | None = None,
        noise_var: float | None = None,
        beta: float = 2.0,
        standardize: bool = True,
    ):
        if not (length_scale > 0.0 and square_is_normal(length_scale)):
            raise ValueError("length scale must be positive, with a normal float square")
        if signal_var is not None and signal_var <= 0.0:
            raise ValueError("signal variance must be positive")
        if noise_var is not None and noise_var < 0.0:
            raise ValueError("noise variance must be nonnegative")
        if beta < 0.0:
            raise ValueError("exploration weight must be nonnegative")
        self.length_scale = float(length_scale)
        self.signal_var = signal_var
        self.noise_var = noise_var
        self.beta = float(beta)
        self.standardize = standardize
        self._X: np.ndarray | None = None
        self._sq_norms: np.ndarray | None = None
        self._chol_inv: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._mu = 0.0
        self._sd = 1.0
        self._signal = signal_var if signal_var is not None else 1.0

    def _kernel(
        self,
        A: np.ndarray,
        B: np.ndarray | None,
        b_sq_norms: np.ndarray | None = None,
        a_sq_norms: np.ndarray | None = None,
        products: np.ndarray | None = None,
    ) -> np.ndarray:
        """k(A, B) as (|a|^2 + |b|^2) - 2 A B^T, clipped at 0, times -0.5,
        over length^2, exp, times signal. ``b_sq_norms`` and ``a_sq_norms``,
        when given, must be ``np.square(B).sum(axis=1)`` and
        ``np.square(A).sum(axis=1)``. ``products``, when given, is A B^T as
        computed elsewhere, C-ordered, and becomes the kernel in place; B is
        then not read, and ``b_sq_norms`` must be given.

        Every step after the product runs in place on _KERNEL_ROWS rows of
        it at a time, so each chunk stays in cache through all of them and
        one block of len(A) x len(B) is live. The subtraction is taken as
        (-2 A B^T) + (|a|^2 + |b|^2): the factor -2 is exact and IEEE
        addition commutes, so every value keeps the bits of the steps in
        the order above."""
        if b_sq_norms is None:
            b_sq_norms = np.square(B).sum(axis=1)
        if a_sq_norms is None:
            a_sq_norms = np.square(A).sum(axis=1)
        out = A @ B.T if products is None else products
        norms = np.empty((min(_KERNEL_ROWS, out.shape[0]), out.shape[1]))
        length_sq = self.length_scale**2
        for lo in range(0, out.shape[0], _KERNEL_ROWS):
            chunk = out[lo : lo + _KERNEL_ROWS]
            sq = norms[: chunk.shape[0]]
            np.add.outer(a_sq_norms[lo : lo + _KERNEL_ROWS], b_sq_norms, out=sq)
            chunk *= -2.0
            chunk += sq
            np.clip(chunk, 0.0, None, out=chunk)
            chunk *= -0.5
            chunk /= length_sq
            np.exp(chunk, out=chunk)
            chunk *= self._signal
        return out

    def fit(
        self, X: np.ndarray, y: Sequence[float], products: np.ndarray | None = None
    ) -> None:
        """Refit on the full training set (replaces any previous fit).
        ``products``, when given, is X X^T as computed elsewhere, C-ordered;
        it is overwritten. A kernel matrix that is not finite (embeddings so
        large that their squares overflow) is a NumericalError."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have matching lengths")
        if X.shape[0] == 0:
            self._X = None
            self._sq_norms = None
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

        if self.signal_var is not None:
            self._signal = self.signal_var
        else:
            var = float(z.var())
            self._signal = var if var > 0.0 else 1.0
        noise = self.noise_var if self.noise_var is not None else 1e-4 * self._signal

        with np.errstate(over="ignore", invalid="ignore"):
            sq_norms = np.square(X).sum(axis=1)
            K = self._kernel(X, X, sq_norms, sq_norms, products)
        if not np.isfinite(K).all():
            raise NumericalError(
                "GP kernel matrix is not finite; the embeddings are too large for their squares"
            )
        n = K.shape[0]
        jitter = 0.0
        while True:
            try:
                chol = np.linalg.cholesky(K + (noise + jitter) * np.eye(n))
                break
            except np.linalg.LinAlgError:
                # A signal so small that 1e-12 of it underflows to 0 has
                # no jitter to try.
                jitter = max(jitter * 10.0, 1e-12 * self._signal)
                if not 0.0 < jitter <= 1e-4 * self._signal:
                    raise NumericalError(
                        "kernel matrix is not positive-definite even after jitter"
                    ) from None
        self._X = X
        self._sq_norms = sq_norms
        G = _lower_inverse(chol)
        self._alpha = G.T @ (G @ z)
        self._chol_inv = G

    def posterior_many(
        self,
        X: np.ndarray | None,
        sq_norms: np.ndarray | None = None,
        products: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at a stack of query rows (raw units),
        which are taken as finite (pool embeddings are checked at load).
        ``sq_norms``, when given, must be the rows' squared norms as
        ``np.square(X).sum(axis=1)`` computes them (``EmbeddingTable.sq_norms``
        does); otherwise they are computed here. ``products``, when given,
        is the training rows' products with the query rows, X_train X^T (n x
        m) as computed elsewhere, C-ordered; it is overwritten, X is not read
        (it may be None), and ``sq_norms`` must be given."""
        if products is None:
            X = np.atleast_2d(np.asarray(X, dtype=np.float64))
            rows = X.shape[0]
        else:
            rows = products.shape[1]
        if self._X is None:
            prior_var = self.signal_var if self.signal_var is not None else 1.0
            return np.zeros(rows), np.full(rows, prior_var * self._sd**2)
        k_star = self._kernel(self._X, X, sq_norms, self._sq_norms, products)
        v = self._chol_inv @ k_star
        var_z = np.clip(self._signal - np.einsum("ij,ij->j", v, v), 0.0, None)
        return self._mu + self._sd * (k_star.T @ self._alpha), self._sd**2 * var_z

    def acquisition(
        self,
        X: np.ndarray | None,
        sq_norms: np.ndarray | None = None,
        products: np.ndarray | None = None,
    ) -> np.ndarray:
        """UCB scores: posterior mean + beta * posterior stddev (arguments
        as for :meth:`posterior_many`)."""
        mean, var = self.posterior_many(X, sq_norms, products)
        return mean + self.beta * np.sqrt(var)

    def bound_fn(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """``bound(X, sq_norms)``: upper bounds on the :meth:`acquisition`
        scores of a stack of query rows under this fit, which must be on
        observations, from the rows' squared norms as
        ``np.square(X).sum(axis=1)`` computes them (``EmbeddingTable.sq_norms``
        does). Each bound is at least the row's score from a call of any
        shape, and is inf for a row outside the range gate (see the module
        docstring). The function keeps the bound terms built here
        (:func:`_gp_bound_terms`) and mu, sd and beta, so a later fit does
        not change it.
        """
        if self._X is None:
            raise ValueError("the UCB bound needs a model fitted on observations")
        terms = _gp_bound_terms(self._X, self._sq_norms, self._alpha, self._chol_inv,
                                self.length_scale**2, self._signal)
        mu, sd, beta = self._mu, self._sd, self.beta

        def bound(X: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
            X = np.atleast_2d(np.asarray(X, dtype=np.float64))
            if terms is None:
                return np.full(X.shape[0], np.inf)
            mean_z, var_ub, rho = _bound_moments(terms, X, sq_norms)
            with np.errstate(over="ignore", invalid="ignore"):
                out = mu + sd * mean_z + beta * np.sqrt(sd**2 * var_ub)
            out[~(np.isfinite(out) & np.isfinite(rho))] = np.inf
            return out

        return bound


class _GpBound(NamedTuple):
    """What a :meth:`GaussianProcess.bound_fn` function keeps of a fit: the
    factored kernel's training side, the weights of its three sums and of
    the prefix product, and the constants of the margin (see the module
    docstring; every norm here is an upper end of the exact one)."""

    scaled: np.ndarray  # A = (X - c) / l^2, n x d
    shift: np.ndarray  # A c
    centre: np.ndarray  # c, the mean training row
    centre_sq: float  # |c|^2 as computed
    centre_norm: float  # >= |c|
    weights: np.ndarray  # the rows alpha e, |alpha e| and e
    prefix: np.ndarray  # G[:p, :p] diag(e[:p])
    prefix_norm: float  # >= |G[:p, :p]|_F
    radius: float  # >= R = max |x_i - c|
    log_base: float  # the exps and products with s, the floors and the max |x_i|^2 term
    length_sq: float  # l^2, as the exact pass divides by it
    signal: float  # s
    slack_scale: float  # 8 g'_n |G|_F^2


def _factored_kernel(
    terms: _GpBound, X: np.ndarray, sq_norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factored kernel of the query rows: E = exp(A (X - c)^T), n x m,
    computed as exp(A X^T - A c); the row scales f = s exp(-|x - c|^2 / 2
    l^2); and each row's margin rho, inf outside the range gate. With e the
    fit's training factors, the exact pass's kernel entry is within rho
    times f_j e_i E_ij of it."""
    length_sq = terms.length_sq
    dim = X.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        E = terms.scaled @ X.T
        E -= terms.shift[:, None]
        np.exp(E, out=E)
        centred_sq = sq_norms - 2.0 * (X @ terms.centre)
        centred_sq += terms.centre_sq
        f = terms.signal * np.exp(-0.5 * centred_sq / length_sq)
        sq_upper = _sq_upper(sq_norms, dim)
        reach = np.sqrt(sq_upper) * _SPARE + terms.centre_norm
        log_ratio = _SPARE * (
            terms.log_base
            + _gamma(dim + 4) / length_sq * (sq_upper + 0.5 * np.square(terms.radius + reach))
            + 2.0**-1064 * math.sqrt(dim) * reach
        )
        rho = _SPARE * log_ratio * (1.0 + log_ratio)
        gate = (
            centred_sq + _gamma(dim + 3) * np.square(reach) + dim * 2.0**-1072
        ) / length_sq
    rho[~((gate <= _GP_GATE) & (log_ratio <= _GP_GATE_LOG_RATIO))] = np.inf
    return E, f, rho


def _bound_moments(
    terms: _GpBound, X: np.ndarray, sq_norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per query row, an upper end of the exact pass's kernel-weighted sum
    k^T alpha (its mean in standardized units before mu and sd), an upper
    end var_ub of its standardized variance, and the margin rho (see the
    module docstring). Both ends are meaningful only where rho is
    finite."""
    E, f, rho = _factored_kernel(terms, X, sq_norms)
    n, p = E.shape[0], terms.prefix.shape[0]
    signal = terms.signal
    gain, prefix_gain = _gamma(2 * n + 8), _gamma(2 * p + 8)
    tiny = np.finfo(np.float64).tiny
    with np.errstate(over="ignore", invalid="ignore"):
        weighted, absolute, total = terms.weights @ E
        prefix = terms.prefix @ E[:p]
        omega = (1.0 + gain) * rho + 2.0 * gain
        mean = f * (weighted + omega * absolute) + n * (2.0**-698 * f + 2.0**-1070)
        k_norm = _SPARE * np.sqrt(
            signal * (1.0 + rho) * f * (total * (1.0 + gain) + n * 2.0**-1070)
        )
        # A lower end of |G_p k_p| for the exact pass's kernel column k.
        norm_low = f * np.sqrt(np.einsum("ij,ij->j", prefix, prefix)) * (1.0 - prefix_gain)
        norm_low -= _SPARE * (
            (rho + prefix_gain) * terms.prefix_norm * k_norm + f * (p * 2.0**-534)
        )
        explained = np.nextafter(np.square(np.maximum(norm_low, 0.0)), 0.0)
        k_sq = _SPARE * (1.0 + rho) * np.square(k_norm)
        slack = terms.slack_scale * (k_sq + (n + 2) * tiny) + 4.0 * (n + 2) * tiny
        var_ub = np.nextafter(np.nextafter(signal - explained, np.inf) + slack, np.inf)
        np.clip(var_ub, 0.0, signal, out=var_ub)
    return mean, var_ub, rho


def _gamma(k: int) -> float:
    """An upper end of gamma_k = k u / (1 - k u), u = 2^-53."""
    ku = k * 2.0**-53
    return _SPARE * ku / (1.0 - ku)


def _sq_upper(sq: np.ndarray | float, dim: int) -> np.ndarray | float:
    """Upper ends of the exact squared norms of rows of dim floats, from
    their squares summed in floats in any order, or from the floats of
    their differences with one vector, each a rounding away."""
    return sq * (1.0 + 2.0 * _gamma(dim + 2)) + dim * 2.0**-1073


def _gp_bound_terms(
    X: np.ndarray,
    sq_norms: np.ndarray,
    alpha: np.ndarray,
    chol_inv: np.ndarray,
    length_sq: float,
    signal: float,
) -> _GpBound | None:
    """The bound terms of a fit on the rows X, or None when the fit is
    outside the range gate (see the module docstring), which makes every
    bound inf."""
    n, dim = X.shape
    if not (
        2.0**-1000 <= length_sq <= 2.0**1000
        and 2.0**-256 <= signal <= 2.0**256
        and (2 * n + dim + 8) * 2.0**-53 <= 0.01
    ):
        return None
    centre = X.mean(axis=0)
    scaled = X - centre
    centred_sq = np.einsum("ij,ij->i", scaled, scaled)
    radius = _SPARE * math.sqrt(_sq_upper(float(centred_sq.max()), dim))
    if not radius * radius / length_sq <= _GP_GATE:
        return None
    e = np.exp(-0.5 * centred_sq / length_sq)
    scaled /= length_sq
    weighted = alpha * e
    p = min(_BOUND_PREFIX, n)
    prefix = chol_inv[:p, :p]
    centre_sq = float(np.square(centre).sum())
    kappa, u = _EXP_ACCURACY, 2.0**-53
    m = n * np.finfo(np.float64).eps  # at most 0.01 inside the gate
    with np.errstate(over="ignore"):
        inv_sq = float(np.square(chol_inv).sum())
    return _GpBound(
        scaled=scaled,
        shift=scaled @ centre,
        centre=centre,
        centre_sq=centre_sq,
        centre_norm=_SPARE * math.sqrt(_sq_upper(centre_sq, dim)),
        weights=np.stack([weighted, np.abs(weighted), e]),
        prefix=prefix * e[:p],
        prefix_norm=_SPARE * math.sqrt(_sq_upper(float(np.square(prefix).sum()), p * p)),
        radius=radius,
        log_base=4.0 * kappa * (1.0 + kappa)
        + 2.0 * u * (1.0 + u)
        + 2.0**-1064 * dim * (1.0 + 1.0 / length_sq)
        + _gamma(dim + 4) / length_sq * _sq_upper(float(sq_norms.max()), dim),
        length_sq=length_sq,
        signal=signal,
        slack_scale=8.0 * (m / (1.0 - m)) * inv_sq,
    )


# Rows of the kernel's cross product per elementwise chunk: every kernel
# call over more than one block is a 1024-column half, so a chunk of 16 rows
# is 128 kB. Against whole-block passes chunks took a 384 x 2048 kernel
# block from 20 to 15 ms. On a 512 x 1024 block at 256 dimensions a kernel
# call took 8.7 ms at 16 rows and 8.4 ms at 32 (the product alone 5.4 ms;
# one thread, medians of 6 alternating rounds of 5 calls). The bits do not
# depend on the value.
_KERNEL_ROWS = 16

# Most rows of a diagonal block that _lower_inverse inverts by np.linalg.inv
# rather than halving. A fit's factor, inverse and solve (one thread, medians
# of 7 rounds of 5 calls on a 768-dimension Gram matrix, three runs) took
# 0.32 ms at n = 128 against 0.23 ms with LAPACK's trtri and cho_solve, and
# about as long at 256 to 768 (1.2, 2.9-3.9, 6.6 and 16-22 ms, the old path
# 1.2-1.7, 3.5-3.9, 5.8-7.6 and 16-22 ms). Blocks of 16 or 64 rows were no
# faster; the bits of L^-1 and the weights were within 1.3e-15 relative of
# trtri's.
_INVERSE_BASE = 32

# Leading rows and columns of L^-1 behind GaussianProcess.bound_fn. The
# bound costs a p x p product per candidate; 32 left at most 1,900 of about
# 18k gene-screen candidates able to reach a top-128.
_BOUND_PREFIX = 32

# np.exp's assumed accuracy: |np.exp(t) - e^t| <= _EXP_ACCURACY max(e^t,
# tiny) for every f64 t, tiny the smallest normal f64. A tier-1 test checks
# it against math.exp over the range gate's arguments with headroom; with
# numpy 2.4 on an x86-64 VM the largest error there was 2^-52 relative.
_EXP_ACCURACY = 2.0**-40

# Range gate of GaussianProcess.bound_fn: the greatest |x - c|^2 / l^2 of a
# training or query row, and the greatest log-ratio bound between the exact
# pass's kernel and the factored one. Inside it every np.exp result of
# either pass is a normal number (see the module docstring).
_GP_GATE = 256.0
_GP_GATE_LOG_RATIO = 0.5

# Factor on every upper end that the GP bound evaluates in floats from
# nonnegative terms: it exceeds the at most 60 roundings of an evaluation.
_SPARE = 1.0 + 2.0**-46

# Floats per chunk of LinUcb.score_many's scaled rows before a fit (256 kB).
# One call (one thread, medians of 7 rounds of 50 calls) took 1.24 ms as one
# scaled copy and 0.98 ms in these chunks at 1040 x 768 (0.99 ms in chunks of
# 64 rows), 0.34 and 0.28 ms at 1024 x 256, and 0.054 and 0.060 ms at 1024 x
# 64, where chunks of 64 rows took 0.104 ms.
_SCALED_FLOATS = 1 << 15

# Rows per scoring block. The temporaries of one block (a 2048 x 256 gather
# is 4 MB, a 512 x 2048 kernel 8 MB) stay near cache size however large the
# pool. With blocks cut into half-block calls on 2 CPUs (one BLAS thread,
# perfbench seed 0, two runs each), gene-screen (18k x 256) `experiment_s`
# read 0.79-0.80 s at 1024, 0.66-0.68 s at 2048 and 0.68-0.72 s at 4096, whose
# `peak_rss_mb` was 224 MB against 202 MB.
_BLOCK_ROWS = 2048

# Fewest rows of either half of a block scored as two calls. Products of a
# few hundred rows may take other BLAS kernels than the whole block's.
_HALF_MIN_ROWS = 256


def score_blocks(
    idx: np.ndarray | int, score: Callable[[np.ndarray | slice], np.ndarray]
) -> np.ndarray:
    """``score(rows)`` over consecutive blocks of _BLOCK_ROWS of the pool
    indices ``idx``, in one float array aligned with ``idx``. ``score``
    scores the rows of one call, a part of ``idx``. An int ``idx`` = n
    stands for the rows 0..n-1, and each call's rows are then passed as a
    slice, so that ``score`` can read a view of them rather than gather them.

    The last block is the final _BLOCK_ROWS indices, overlapping its
    predecessor, so with more indices than one block every block has the
    same shape. A block whose row count is a multiple of 8 is scored as two
    calls, cut at the multiple of 64 at or below its middle, when each half
    keeps at least _HALF_MIN_ROWS rows: a full block as two calls of
    _BLOCK_ROWS / 2 rows. Any other block is one call. Each call writes only
    the rows from its block's first unwritten row on, and a half with no
    such row is not called. The calls are a function of the row count alone.

    BLAS rounds a product's rows alike only within one kernel: a small
    product, or the last few rows of one whose length is not a multiple of
    the kernel's tile, can take another summation order. With more indices
    than one block every call is a half block, so every row of
    ``LinUcb.score_many`` and ``GaussianProcess.acquisition`` comes out of
    the same kernel: a candidate's score does not depend on how many others
    are scored, nor on whether its block was gathered or sliced. It equals
    the score from a single call over all of ``idx`` when that call's
    products, too, use one kernel for every row. With OpenBLAS a row's bits
    are the same in any call of a multiple of 8 rows that is not small,
    which is why only such blocks are cut: a block of at most _BLOCK_ROWS
    rows gives the bits of one call over it.

    The calls run by ``pool._on_threads``, on min(CPUs available to the
    process, calls) threads, the calling thread one of them. The calls are fixed before any thread takes
    one, each thread writes only its calls' part of the result, and with
    one BLAS thread per product (as CI and the benchmark run) the kernel
    does not depend on the calling thread either, so neither do a row's
    bits. Each thread has one call in flight, so the temporaries of at most
    that many calls are alive at once. With one CPU or one call the calls
    run in turn on the calling thread and no thread starts. Threads live for
    one ``score_blocks`` call; an exception raised by ``score`` is re-raised
    here once every thread has stopped.
    """
    gather = not isinstance(idx, (int, np.integer))
    if gather:
        idx = np.asarray(idx)
    size = idx.size if gather else int(idx)
    out = np.empty(size)

    def run(call: tuple[int, int, int]) -> None:
        lo, end, keep = call
        out[keep:end] = score(idx[lo:end] if gather else slice(lo, end))[keep - lo :]

    calls = [call for start in range(0, size, _BLOCK_ROWS) for call in _block_calls(start, size)]
    _on_threads(run, calls)
    return out


def _block_calls(start: int, size: int) -> list[tuple[int, int, int]]:
    """The ``score`` calls ``(lo, end, keep)`` of the :func:`score_blocks`
    block that writes rows ``start`` on of ``size``: each scores rows
    lo..end-1 and writes rows keep..end-1."""
    lo = max(0, min(start, size - _BLOCK_ROWS))
    end = min(start + _BLOCK_ROWS, size)
    cut = (end - lo) // 128 * 64
    cuts = [lo, lo + cut, end] if (end - lo) % 8 == 0 and cut >= _HALF_MIN_ROWS else [lo, end]
    return [(a, b, max(a, start)) for a, b in zip(cuts, cuts[1:]) if b > start]


def select_top_b(
    idx: np.ndarray, scores: np.ndarray, memory: CandidateMemory, batch_size: int
) -> np.ndarray:
    """The batch_size candidates of ``idx`` (pool indices, callers pass the
    unexplored ones) with the largest matching ``scores``.

    Ties break toward the lower pool index, and NaN scores rank last. The
    selected indices are marked explored and returned in rank order.
    """
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    idx = np.asarray(idx)
    keys = -np.asarray(scores, dtype=np.float64)
    if keys.shape != idx.shape:
        raise ValueError("scores and indices do not line up")
    if batch_size < keys.size:
        # Only rows at or above the batch_size-th key can be chosen. Every
        # row tied with it is kept, so the kept rows rank as in a full sort.
        kth = np.partition(keys, batch_size - 1)[batch_size - 1]
        if not np.isnan(kth):
            keep = np.flatnonzero(keys <= kth)
            idx, keys = idx[keep], keys[keep]
    order = np.lexsort((idx, keys))
    chosen = idx[order[:batch_size]]
    memory.explore(chosen)
    return chosen
