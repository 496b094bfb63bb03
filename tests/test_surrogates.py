from __future__ import annotations

import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky
from scipy.spatial.distance import pdist

from expdesign import agents as agents_module
from expdesign import pool as pool_module
from expdesign import surrogates
from expdesign.agents import _score_unexplored, make_agent
from expdesign.errors import NumericalError
from expdesign.feedback import Feedback, FeedbackRecord
from expdesign.harness import (
    ExperimentConfig,
    aggregate_runs,
    run_experiment,
    run_many,
    write_report,
)
from expdesign.memory import CandidateMemory
from expdesign.pool import EmbeddingTable, build_pool
from expdesign.surrogates import (
    GaussianProcess,
    LinUcb,
    WhitenedRows,
    _lower_inverse,
    _pairwise_distances,
    median_heuristic,
    score_blocks,
    select_top_b,
)

from conftest import (
    count_thread_starts,
    linucb_direct,
    one_expression_rbf,
    random_pool,
    ridge_theta,
    textbook_gp,
)


class TestLinUcb:
    def test_hand_example_1d(self):
        model = LinUcb(1, ridge=1.0, alpha=1.0)
        model.update([1.0], 1.0)
        assert model.A == pytest.approx(np.array([[2.0]]))
        assert model.b == pytest.approx(np.array([1.0]))
        assert model.theta == pytest.approx(np.array([0.5]))

    def test_score_after_one_update(self):
        model = LinUcb(1, ridge=1.0, alpha=0.0)
        model.update([1.0], 1.0)
        assert model.score_many(np.array([[1.0]])) == pytest.approx([0.5])

    def test_zero_feature_update_is_noop(self):
        model = LinUcb(3)
        before_A, before_b = model.A.copy(), model.b.copy()
        model.update([0.0, 0.0, 0.0], 5.0)
        assert np.array_equal(model.A, before_A)
        assert np.array_equal(model.b, before_b)

    def test_updates_commute(self):
        rng = np.random.default_rng(0)
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        m1, m2 = LinUcb(4), LinUcb(4)
        m1.update(x1, 1.5)
        m1.update(x2, -0.5)
        m2.update(x2, -0.5)
        m2.update(x1, 1.5)
        assert m1.A == pytest.approx(m2.A)
        assert m1.b == pytest.approx(m2.b)

    def test_fresh_state_scores_by_norm(self):
        model = LinUcb(3, ridge=1.0, alpha=1.0)
        xs = np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [0.1, 0.1, 0.1]])
        scores = model.score_many(xs)
        assert scores == pytest.approx(np.linalg.norm(xs, axis=1))

    def test_fresh_state_is_the_empty_fit(self):
        for d, ridge in ((1, 1.0), (5, 0.3), (40, 7.0)):
            X = np.random.default_rng(d).standard_normal((9, d))
            fresh, fitted = LinUcb(d, ridge=ridge), LinUcb(d, ridge=ridge)
            fitted.fit_batch(np.empty((0, d)), [])
            assert same_bits(fresh.score_many(X), fitted.score_many(X))

    @pytest.mark.parametrize("d", [1, 64, 256, 768])
    def test_empty_fit_scores_are_the_gemm_against_the_scaled_identity(self, d):
        rng = np.random.default_rng(d)
        X = rng.standard_normal((300, d))
        for ridge in (1.0, 0.3, 7.0):
            model = LinUcb(d, ridge=ridge, alpha=1.7)
            model.fit_batch(rng.standard_normal((5, d)), rng.standard_normal(5))
            model.fit_batch(np.empty((0, d)), [])
            W = X @ (np.eye(d) / math.sqrt(ridge)).T
            expected = X @ np.zeros(d) + 1.7 * np.sqrt(np.einsum("ij,ij->i", W, W))
            assert same_bits(model.score_many(X), expected)
            assert same_bits(model.theta, np.zeros(d))
            assert same_bits(model.A, ridge * np.eye(d))

    def test_matches_closed_form_ridge(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            d = int(rng.integers(1, 8))
            n = int(rng.integers(1, 30))
            lam = float(rng.uniform(0.1, 3.0))
            xs = rng.standard_normal((n, d))
            ys = rng.standard_normal(n)
            model = LinUcb(d, ridge=lam)
            for x, y in zip(xs, ys):
                model.update(x, y)
            expected = ridge_theta(xs, ys, lam)
            assert np.allclose(model.theta, expected, rtol=1e-8, atol=1e-10)

    def test_uncertainty_shrinks_monotonically(self):
        rng = np.random.default_rng(1)
        model = LinUcb(5, ridge=1.0, alpha=1.0)
        probe = rng.standard_normal(5)

        def width():
            solved = np.linalg.solve(model.A, probe)
            return float(probe @ solved)

        last = width()
        for _ in range(30):
            model.update(rng.standard_normal(5), float(rng.standard_normal()))
            now = width()
            assert now <= last + 1e-12
            last = now

    def test_alpha_preserves_order_only_under_equal_uncertainty(self):
        # Symmetric pair x and -x: equal uncertainty, so any alpha keeps the
        # mean-based ordering.
        model = LinUcb(2, ridge=1.0, alpha=0.0)
        model.update([1.0, 0.5], 1.0)
        x = np.array([0.8, 0.3])
        pair = np.stack([x, -x])
        order0 = np.argsort(model.score_many(pair))
        model.alpha = 2.0
        order2 = np.argsort(model.score_many(pair))
        assert np.array_equal(order0, order2)

    def test_scores_match_direct_formula(self):
        # x.theta + alpha * sqrt(x^T (lam*I + X^T X)^-1 x) by dense solves,
        # including an empty history, d > n and ridge weights down to 1e-3.
        rng = np.random.default_rng(31)
        for case in range(80):
            d = int(rng.integers(1, 41))
            n = 0 if case < 5 else int(rng.integers(0, 81))
            lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(5.0))))
            alpha = [0.0, 1.0, 2.5][case % 3]
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            Xq = np.vstack([rng.standard_normal((20, d)), X[:5]])
            model = LinUcb(d, ridge=lam, alpha=alpha)
            model.fit_batch(X, y)
            expected = linucb_direct(X, y, lam, alpha, Xq)
            assert np.allclose(model.score_many(Xq), expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "d, n", [(1, 1), (1, 512), (2, 3), (17, 5), (64, 128), (256, 512), (768, 1), (768, 512)]
    )
    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e-160, 1e150, 1e160])
    def test_fit_matrix_is_the_old_expression(self, monkeypatch, d, n, scale):
        # A = ridge*I + X^T X, bit for bit, on inputs whose products
        # underflow to +-0.0 or subnormals, or overflow to inf and NaN.
        rng = np.random.default_rng([d, n])
        X = rng.standard_normal((n, d)) * scale
        X[:, ::3] = 0.0
        X[rng.random((n, d)) < 0.1] *= -1e-200
        monkeypatch.setattr(LinUcb, "_factor", lambda self: None)
        for ridge in (1.0, 0.3, 1e-300):
            model = LinUcb(d, ridge=ridge)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                model.fit_batch(X, np.ones(n))
                expected = ridge * np.eye(d) + X.T @ X
            assert model.A.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [1, 41, 42, 43, 1040])
    def test_empty_fit_scores_rows_in_chunks_with_one_pass_bits(self, rows):
        # Before a fit, the scaled rows are summed in chunks (of 42 rows at
        # 768 dimensions): the bits are those of one scaled copy of all the
        # rows, and a call holds no copy of its rows (1040 x 768, 6.4 MB, is
        # a half block at molecule's width).
        rng = np.random.default_rng(rows)
        X = rng.standard_normal((rows, 768))
        model = LinUcb(768, ridge=0.3, alpha=1.7)
        W = X * (1.0 / math.sqrt(0.3))
        expected = X @ np.zeros(768) + 1.7 * np.sqrt(np.einsum("ij,ij->i", W, W))
        tracemalloc.start()
        try:
            scores = model.score_many(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same_bits(scores, expected)
        assert peak < X.nbytes / 8 + 2 * surrogates._SCALED_FLOATS * X.itemsize, peak

    def test_empty_query(self):
        model = LinUcb(3)
        assert model.score_many(np.empty((0, 3))).shape == (0,)
        model.update([1.0, 2.0, 0.5], 1.0)
        assert model.score_many(np.empty((0, 3))).shape == (0,)

    def test_dim_mismatch(self):
        model = LinUcb(2)
        with pytest.raises(ValueError):
            model.update([1.0], 1.0)
        with pytest.raises(ValueError):
            model.score_many(np.array([[1.0, 2.0, 3.0]]))

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            LinUcb(2, ridge=0.0)
        with pytest.raises(ValueError):
            LinUcb(2, alpha=-1.0)
        with pytest.raises(ValueError):
            LinUcb(0)


def dual_tolerance(X, y, lam, alpha, Xq, width):
    """How far the dual form's scores of the rows Xq may lie from
    ``linucb_direct``'s, whose widths sqrt(x^T A^-1 x) are ``width``.

    Both sides solve with a matrix of condition number kappa = 1 +
    sigma_max(X)^2 / lam: A = lam*I + X^T X for the direct solves, C = X X^T
    + lam*I for the dual, whose nonzero spectrum is A's. A backward-stable
    solve, factor or triangular inverse errs by a relative g kappa, g a
    small multiple of (n + d) u; here g = 4 (n + d) u, which covers both
    sides with headroom. So each mean is within g kappa |x| (|theta| + |X|_F
    |w|) of x.theta (the dual's terms k = X x and w = C^-1 y are within g |X|_F
    |x| and g kappa |w| of theirs), and each x^T A^-1 x within g kappa
    |x|^2 / lam (|G k|^2 <= |x|^2, and |x|^2 / lam bounds the variance).
    Near the clip the square root turns a variance error e into a width
    error of up to sqrt(e); elsewhere |sqrt(a) - sqrt(b)| <= |a - b| /
    sqrt(b), which is far smaller.
    """
    n, d = X.shape
    u = 2.0**-53
    A = lam * np.eye(d) + X.T @ X
    theta = np.linalg.solve(A, X.T @ y)
    w = np.linalg.solve(X @ X.T + lam * np.eye(n), y)
    g = 4 * (n + d) * u * (1.0 + np.linalg.norm(X, 2) ** 2 / lam)
    sq = np.square(Xq).sum(axis=1)
    mean_tol = g * np.sqrt(sq) * (np.linalg.norm(theta) + np.linalg.norm(X) * np.linalg.norm(w))
    var_tol = g * sq / lam
    with np.errstate(divide="ignore"):
        width_tol = np.minimum(np.sqrt(var_tol), var_tol / width)
    return mean_tol + alpha * width_tol


DUAL_NAME = ("LinUCB Gram matrix X X^T + ridge*I", "; a larger linucb ridge may help")


def whitened(P, capacity=None, name=DUAL_NAME):
    """Whitened rows over the pool rows P, a function writing the products
    of pool rows with every pool row, as the agents' does, and the pool
    rows' squared norms."""
    white = WhitenedRows(len(P), len(P) if capacity is None else capacity, *name)

    def products(out, rows):
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(P[rows], P.T, out=out)

    with np.errstate(over="ignore"):
        return white, products, np.square(P).sum(axis=1)


class TestDualScores:
    """LinUCB's dual form on the whitened rows against the direct formula,
    and its failures."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        extra=st.integers(1, 30),
        lam=st.floats(1e-3, 5.0),
        alpha=st.sampled_from([0.0, 1.0, 2.5]),
        scale=st.sampled_from([1e-2, 1.0, 30.0]),
        near_twin=st.booleans(),
        first=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scores_match_direct_formula(self, n, extra, lam, alpha, scale, near_twin, first,
                                         seed):
        # n < d, query rows among them equal to every training row (where
        # |x|^2 - |v|^2 cancels toward the clip at 0), and a training row
        # nearly equal to another (a large condition number). The state is
        # built at once, or from its first rows and then extended.
        d = n + extra
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * scale
        if near_twin and n > 1:
            X[-1] = X[0] + 1e-6 * scale * rng.standard_normal(d)
        y = rng.standard_normal(n)
        Xq = np.vstack([rng.standard_normal((10, d)) * scale, X])
        white, products, sq_norms = whitened(Xq)
        rows = np.arange(10, 10 + n)
        model = LinUcb(d, ridge=lam, alpha=alpha)
        if 0 < first < n:
            model.dual_scores(white, rows[:first], y[:first], products, sq_norms)
        got = model.dual_scores(white, rows, y, products, sq_norms)
        mean = linucb_direct(X, y, lam, 0.0, Xq)
        width = linucb_direct(X, y, lam, 1.0, Xq) - mean
        expected = mean + alpha * width
        assert np.all(np.abs(got - expected) <= dual_tolerance(X, y, lam, alpha, Xq, width))

    def test_singular_factor_is_a_numerical_error(self):
        # A ridge far below the rounding of the rows' products: with 8 rows
        # of norm about 480 in 64 dimensions, A = X^T X + ridge*I is
        # singular in floats, and so is the Gram matrix when the rows
        # repeat, whether the state takes all 16 rows at once or extends
        # the first 8 by their copies (whose Schur complement fails, and so
        # does the rebuild). A later call on the first 8 rows rebuilds them.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 64))
        X *= 480.0 / np.linalg.norm(X, axis=1, keepdims=True)
        with pytest.raises(NumericalError, match="LinUCB matrix A"):
            LinUcb(64, ridge=1e-12).fit_batch(X, np.ones(8))
        model = LinUcb(64, ridge=1e-12)
        white, products, sq_norms = whitened(np.vstack([X, X]))
        rows = np.arange(16)
        for first in (0, 8):
            if first:
                model.dual_scores(white, rows[:first], np.ones(first), products, sq_norms)
            with pytest.raises(NumericalError,
                               match="LinUCB Gram matrix .* is not positive-definite"):
                model.dual_scores(white, rows, np.ones(16), products, sq_norms)
        scores = model.dual_scores(white, rows[:8], np.ones(8), products, sq_norms)
        assert np.isfinite(scores).all()

    def test_products_that_overflow_are_a_numerical_error(self):
        # Rows of norm near 1e160: X^T X and X X^T overflow, and a Gram
        # matrix may hold a single inf; each fit says so instead of
        # factoring them.
        X = np.random.default_rng(1).standard_normal((4, 8)) * 1e160
        with pytest.raises(NumericalError, match="LinUCB matrix A is not finite"):
            LinUcb(8).fit_batch(X, np.ones(4))
        white, products, sq_norms = whitened(X)
        with pytest.raises(NumericalError, match="LinUCB Gram matrix .* is not finite"):
            LinUcb(8).dual_scores(white, np.arange(4), np.ones(4), products, sq_norms)
        gram = np.eye(4)
        gram[2, 1] = np.inf
        white = WhitenedRows(4, 4, *DUAL_NAME)
        with pytest.raises(NumericalError, match="LinUCB Gram matrix .* is not finite"):
            LinUcb(8).dual_scores(white, np.arange(4), np.ones(4),
                                  lambda out, rows: np.copyto(out, gram[rows]), np.ones(4))


class TestGaussianProcess:
    def test_noiseless_interpolation(self):
        gp = GaussianProcess(length_scale=1.0, signal_var=1.0, noise_var=0.0,
                             standardize=False)
        X = np.array([[0.0], [1.5], [3.0]])
        y = [0.2, -1.0, 0.7]
        gp.fit(X, y)
        mean, var = gp.posterior_many(X)
        assert mean == pytest.approx(y, abs=1e-8)
        assert var == pytest.approx([0.0] * 3, abs=1e-8)

    def test_far_query_reverts_to_prior(self):
        gp = GaussianProcess(length_scale=1.0, signal_var=2.5, noise_var=1e-6,
                             standardize=False)
        gp.fit(np.array([[0.0]]), [3.0])
        mean, var = gp.posterior_many(np.array([[1e6]]))
        assert mean == pytest.approx([0.0], abs=1e-12)
        assert var == pytest.approx([2.5], abs=1e-8)

    def test_single_point_hand_formula(self):
        # mean at query 1.0 = k(0,1) * y / (k(0,0) + noise) ~= exp(-0.5)
        gp = GaussianProcess(length_scale=1.0, signal_var=1.0, noise_var=1e-6,
                             standardize=False)
        gp.fit(np.array([[0.0]]), [1.0])
        mean, _ = gp.posterior_many(np.array([[1.0]]))
        assert mean == pytest.approx([np.exp(-0.5)], abs=1e-4)

    def test_zero_observations_prior(self):
        gp = GaussianProcess(length_scale=1.0, signal_var=1.0)
        mean, var = gp.posterior_many(np.array([[0.3, 0.4]]))
        assert mean.tolist() == [0.0]
        assert var.tolist() == [1.0]

    def test_matches_textbook_formulas(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            d = int(rng.integers(1, 17))
            n = int(rng.integers(1, 40))
            X = rng.uniform(-3, 3, size=(n, d))
            y = rng.standard_normal(n)
            Xq = np.vstack([rng.uniform(-4, 4, size=(6, d)), X[:2] + 0.05])
            length = float(rng.uniform(0.3, 2.0)) * np.sqrt(d)
            signal = float(rng.uniform(0.5, 3.0))
            noise = float(rng.uniform(1e-6, 1e-2))
            gp = GaussianProcess(length_scale=length, signal_var=signal,
                                 noise_var=noise, standardize=False)
            gp.fit(X, y)
            mean, var = gp.posterior_many(Xq)
            emean, evar = textbook_gp(X, y, Xq, length, signal, noise)
            assert np.allclose(mean, emean, rtol=1e-8, atol=1e-10)
            assert np.allclose(var, np.clip(evar, 0.0, None), rtol=1e-8, atol=1e-8)

    def test_kernel_bit_identical_to_one_expression(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n, m, d = (int(v) for v in rng.integers(0, 50, 3))
            A = rng.standard_normal((n, d + 1)) * float(rng.choice([1e-3, 1.0, 30.0]))
            B = rng.standard_normal((m, d + 1))
            B[: min(n, m) // 2] = A[: min(n, m) // 2]  # zero distances clip
            gp = GaussianProcess(length_scale=float(rng.uniform(0.1, 5.0)),
                                 signal_var=float(rng.uniform(0.1, 3.0)))
            expected = one_expression_rbf(A, B, gp.length_scale, gp.signal_var)
            got = gp._kernel(A, B)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_empty_query(self):
        gp = GaussianProcess(length_scale=1.0, signal_var=1.0)
        for fitted in (False, True):
            if fitted:
                gp.fit(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.5, -0.5])
            mean, var = gp.posterior_many(np.empty((0, 2)))
            assert mean.shape == var.shape == (0,)
            assert gp.acquisition(np.empty((0, 2))).shape == (0,)

    def test_standardization_round_trip(self):
        # Standardized fit must equal manual z-score -> fit -> untransform.
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 2))
        y = 5.0 + 3.0 * rng.standard_normal(8)
        Xq = rng.standard_normal((4, 2))
        gp = GaussianProcess(length_scale=1.0, standardize=True)
        gp.fit(X, y)
        mean, var = gp.posterior_many(Xq)

        mu, sd = y.mean(), y.std()
        z = (y - mu) / sd
        raw = GaussianProcess(length_scale=1.0, standardize=False)
        raw.fit(X, z)
        zmean, zvar = raw.posterior_many(Xq)
        assert np.allclose(mean, mu + sd * zmean, rtol=1e-10)
        assert np.allclose(var, sd**2 * zvar, rtol=1e-10)

    def test_acquisition_is_mean_plus_beta_std(self):
        rng = np.random.default_rng(6)
        gp = GaussianProcess(length_scale=1.0, beta=2.0, standardize=False,
                             signal_var=1.0, noise_var=1e-4)
        X = rng.standard_normal((5, 2))
        gp.fit(X, rng.standard_normal(5))
        Xq = rng.standard_normal((7, 2))
        mean, var = gp.posterior_many(Xq)
        assert gp.acquisition(Xq) == pytest.approx(mean + 2.0 * np.sqrt(var))

    @pytest.mark.parametrize("length", [1e-300, 1e-160, 1e155, 1e300, math.inf, math.nan,
                                        0.0, -1.0])
    def test_length_whose_square_is_not_normal(self, length):
        # The kernel divides by length**2, which must be a positive normal
        # float: 1e-160 squares to a subnormal, 1e155 and 1e300 overflow.
        with pytest.raises(ValueError, match="length scale"):
            GaussianProcess(length_scale=length)
        GaussianProcess(length_scale=1e-150)
        GaussianProcess(length_scale=1e150)

    def test_kernel_that_overflows_is_a_numerical_error(self):
        # Rows of norm near 1e160: their squared norms overflow and the
        # kernel matrix turns NaN, and the fit says so instead of factoring
        # it.
        X = np.random.default_rng(4).standard_normal((6, 3)) * 1e160
        gp = GaussianProcess(length_scale=1.0)
        with pytest.raises(NumericalError, match="kernel matrix is not finite"):
            gp.fit(X, np.arange(6.0))

    def test_constant_targets_do_not_crash(self):
        gp = GaussianProcess(length_scale=1.0)
        gp.fit(np.array([[0.0], [1.0]]), [2.0, 2.0])
        mean, var = gp.posterior_many(np.array([[0.5]]))
        assert np.isfinite(mean).all() and np.isfinite(var).all()

    def test_duplicate_inputs_need_jitter(self):
        # Every row appears three times (two copies shifted by ~1e-14) with
        # equal targets, so K is singular and the fit must add jitter. The
        # noise-free posterior of the distinct rows is then the oracle: the
        # textbook inverse of the singular K is too inaccurate to be one.
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = int(rng.integers(1, 17))
            n = int(rng.integers(3, 15))
            base = rng.uniform(-2, 2, size=(n, d))
            rows = np.tile(np.arange(n), 3)
            X = base[rows]
            X[n:] += 1e-14 * rng.standard_normal((2 * n, d))
            y_base = rng.standard_normal(n)
            length = float(rng.uniform(0.3, 1.0)) * pdist(base).min()
            signal = float(rng.uniform(0.5, 3.0))
            gp = GaussianProcess(length_scale=length, signal_var=signal,
                                 noise_var=0.0, standardize=False)
            gp.fit(X, y_base[rows])
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(gp._kernel(X, X))
            Xq = np.vstack([rng.uniform(-2.5, 2.5, size=(6, d)), base[:3] + 0.01, base[:2]])
            mean, var = gp.posterior_many(Xq)
            emean, evar = textbook_gp(base, y_base, Xq, length, signal, 0.0)
            assert np.allclose(mean, emean, rtol=1e-8, atol=1e-10)
            assert np.allclose(var, np.clip(evar, 0.0, None), rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("offset, copies, signal_var", [
        (0.0, 2, None), (0.0, 3, 1e-3), (0.0, 8, 5.0), (1e3, 2, None),
    ])
    def test_jittered_fit_has_the_first_factoring_rungs_bits(self, offset, copies, signal_var):
        # Duplicated rows without noise: K has no factor, and the fit's L^-1
        # is that of K + (noise + j s) I at the first j of _GP_JITTERS that
        # has one, bit for bit. Rows offset by 1e3 lose bits of their
        # distances to cancellation; with OpenBLAS their K needs the third
        # rung, 1e-10 s.
        rng = np.random.default_rng(copies)
        X = np.tile(rng.standard_normal((6, 3)) + offset, (copies, 1))
        gp = GaussianProcess(length_scale=1.5, signal_var=signal_var, noise_var=0.0)
        gp.fit(X, rng.standard_normal(len(X)))
        K, eye = gp._kernel(X, X), np.eye(len(X))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(K)
        for jitter in surrogates._GP_JITTERS:
            try:
                chol = np.linalg.cholesky(K + (0.0 + jitter * gp._signal) * eye)
                break
            except np.linalg.LinAlgError:
                continue
        assert same_bits(gp._chol_inv, _lower_inverse(chol))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestScoreBlocks:
    BLOCK = surrogates._BLOCK_ROWS

    def models(self, rng, table, n_train):
        """A fitted LinUCB, a fitted GP and an unfitted GP, each with its
        blocked scorer (reading from ``table``) and its one-shot scorer. The
        GP's bound is not among them: its three kernel sums are one GEMM
        whose bits depend on the call's row count."""
        train = rng.choice(len(table), n_train, replace=False)
        y = rng.standard_normal(n_train)
        matrix = table.matrix
        lin = LinUcb(table.dim, ridge=0.5, alpha=1.5)
        lin.fit_batch(matrix[train], y)
        fitted = GaussianProcess(length_scale=float(np.sqrt(table.dim)))
        fitted.fit(matrix[train], y)
        unfitted = GaussianProcess(length_scale=1.0, signal_var=2.0)
        sq_norms = table.sq_norms
        return [
            (lambda rows: lin.score_many(matrix[rows]), lin.score_many),
            (lambda rows: fitted.acquisition(matrix[rows], sq_norms[rows]), fitted.acquisition),
            (lambda rows: unfitted.acquisition(matrix[rows], sq_norms[rows]), unfitted.acquisition),
        ]

    def test_equals_one_shot_scoring(self):
        # Non-contiguous indices over three full blocks and a short last one
        # (a multiple of 8 rows, so the one-shot products use one BLAS
        # kernel throughout too).
        rng = np.random.default_rng(5)
        table = EmbeddingTable(rng.standard_normal((4 * self.BLOCK, 64)))
        idx = np.sort(rng.choice(len(table), 3 * self.BLOCK + 320, replace=False))
        assert not np.all(np.diff(idx) == 1)
        for blocked, one_shot in self.models(rng, table, 64):
            assert same_bits(score_blocks(idx, blocked), one_shot(table.matrix[idx]))

    def test_score_independent_of_how_many_are_scored(self):
        # Any number of indices from one block up, with odd-sized remainders:
        # every candidate's score is the bits it gets among all pool rows.
        rng = np.random.default_rng(8)
        table = EmbeddingTable(rng.standard_normal((3 * self.BLOCK + 77, 48)))
        every = np.arange(len(table))
        for blocked, _ in self.models(rng, table, 40):
            reference = score_blocks(every, blocked)
            for size in (self.BLOCK, self.BLOCK + 1, 2 * self.BLOCK + 37, 3 * self.BLOCK + 5):
                idx = np.sort(rng.choice(len(table), size, replace=False))
                assert same_bits(score_blocks(idx, blocked), reference[idx])

    def test_fewer_rows_than_a_block_is_one_call(self):
        rng = np.random.default_rng(9)
        table = EmbeddingTable(rng.standard_normal((300, 16)))
        idx = np.arange(0, 300, 3)
        for blocked, one_shot in self.models(rng, table, 20):
            assert same_bits(score_blocks(idx, blocked), one_shot(table.matrix[idx]))
            assert score_blocks(idx[:0], blocked).shape == (0,)

    @staticmethod
    def gp_round(pool, observed, workers, monkeypatch):
        """The batch and the traced allocation peak of one gp round after
        ``observed``, scoring blocks on ``workers`` threads."""
        monkeypatch.setattr(pool_module, "_available_cpus", lambda: workers)
        memory = CandidateMemory(pool)
        agent = make_agent(ExperimentConfig(agent="gp", batch_size=16), pool, None, None)
        memory.explore(observed)
        feedback = Feedback(tuple(
            FeedbackRecord(pool.names[i], float(pool.scores[i]), False) for i in observed
        ))
        tracemalloc.start()
        try:
            batch = agent.select(2, memory, feedback, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return batch, peak, agent.model

    def test_gp_select_holds_no_pool_sized_temporary(self, monkeypatch):
        # One gp round over a pool of four blocks and more: its peak of
        # traced allocations must stay under half the embedding matrix, which
        # one gather of every unexplored row alone would exceed. On two
        # threads, with two blocks in flight, it may exceed the serial peak
        # by one block's temporaries at most.
        rng = np.random.default_rng(3)
        pool = random_pool(rng, 4 * self.BLOCK + 300, 128)
        observed = np.arange(64)
        batch, serial, model = self.gp_round(pool, observed, 1, monkeypatch)
        assert batch.size == 16
        assert serial < pool.embeddings.matrix.nbytes / 2, serial
        table = pool.embeddings
        rows = np.arange(self.BLOCK) + 64
        tracemalloc.start()
        try:
            model.acquisition(table.matrix[rows], table.sq_norms[rows])
            _, block = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        threaded, peak, _ = self.gp_round(pool, observed, 2, monkeypatch)
        assert threaded.tolist() == batch.tolist()
        assert peak <= serial + block, (peak, serial, block)

    SIZES = (0, 300, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK + 5)

    def test_threads_give_the_serial_bits(self, monkeypatch):
        # Zero to four blocks, an overlapping last block among them, scored
        # by index arrays and by slices (an int ``idx``): every scorer gives
        # the bits of the serial loop over the same indices on 1 to 3
        # threads (three may exceed the CPU count).
        rng = np.random.default_rng(12)
        table = EmbeddingTable(rng.standard_normal((3 * self.BLOCK + 40, 24)))
        models = [blocked for blocked, _ in self.models(rng, table, 40)]
        model = GaussianProcess(length_scale=5.0)
        model.fit(table.matrix[:30], rng.standard_normal(30))
        models.append(lambda rows: model.acquisition(table.matrix[rows], table.sq_norms[rows]))
        monkeypatch.setattr(pool_module, "_available_cpus", lambda: 1)
        reference = {
            (i, size): score_blocks(np.arange(size), blocked)
            for i, blocked in enumerate(models) for size in self.SIZES
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(pool_module, "_available_cpus", lambda: workers)
                for (i, size), expected in reference.items():
                    assert same_bits(score_blocks(np.arange(size), models[i]), expected)
                    assert same_bits(score_blocks(size, models[i]), expected)
        finally:
            sys.setswitchinterval(interval)

    def test_unexplored_rows_keep_their_call_shape(self):
        # Up to one block, the unexplored rows are scored as they are (the
        # call's shape sets the bits, and a 2048-row slice gives other
        # bits); past one block, by same-shape slices of the whole pool.
        rng = np.random.default_rng(13)
        table = EmbeddingTable(rng.standard_normal((2 * self.BLOCK + 300, 16)))
        model = GaussianProcess(length_scale=4.0)
        model.fit(table.matrix[:40], rng.standard_normal(40))

        def score(rows):
            return model.acquisition(table.matrix[rows], table.sq_norms[rows])

        every = score_blocks(len(table), score)
        for size in (301, self.BLOCK, self.BLOCK + 1, len(table) - 40):
            avail = np.sort(rng.choice(len(table), size, replace=False))
            got = _score_unexplored(avail, len(table), score)
            expected = score_blocks(avail, score) if size <= self.BLOCK else every[avail]
            assert same_bits(got, expected)

    # The score calls (row ranges, in row order) each row count makes on any
    # number of CPUs: a block of a multiple of 8 rows is cut into halves at
    # the multiple of 64 at or below its middle when both keep 256 rows or
    # more, and the overlapping last block's first half is not called when
    # all its rows belong to the block before.
    CALLS = {
        0: [],
        300: [(0, 300)],
        504: [(0, 504)],
        512: [(0, 256), (256, 512)],
        1001: [(0, 1001)],
        2000: [(0, 960), (960, 2000)],
        BLOCK - 1: [(0, BLOCK - 1)],
        BLOCK: [(0, BLOCK // 2), (BLOCK // 2, BLOCK)],
        BLOCK + 1: [(0, BLOCK // 2), (BLOCK // 2, BLOCK), (BLOCK // 2 + 1, BLOCK + 1)],
        2 * BLOCK: [(0, BLOCK // 2), (BLOCK // 2, BLOCK), (BLOCK, 3 * BLOCK // 2),
                    (3 * BLOCK // 2, 2 * BLOCK)],
        3 * BLOCK + 5: [(0, BLOCK // 2), (BLOCK // 2, BLOCK), (BLOCK, 3 * BLOCK // 2),
                        (3 * BLOCK // 2, 2 * BLOCK), (2 * BLOCK, 5 * BLOCK // 2),
                        (5 * BLOCK // 2, 3 * BLOCK), (5 * BLOCK // 2 + 5, 3 * BLOCK + 5)],
    }

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_calls_depend_on_the_row_count_alone(self, monkeypatch, workers):
        # Every row is written by the first call that scores it: the score
        # returns each call's first row, so a row written by another call,
        # twice or not at all shows in the result.
        monkeypatch.setattr(pool_module, "_available_cpus", lambda: workers)
        for size, expected in self.CALLS.items():
            calls = []

            def score(rows):
                calls.append((rows.start, rows.stop))
                return np.full(rows.stop - rows.start, float(rows.start))

            owner = np.empty(size)
            for lo, end in reversed(expected):
                owner[lo:end] = lo
            assert same_bits(score_blocks(size, score), owner), size
            assert sorted(calls) == expected, size

    def test_halves_give_the_one_call_bits(self, monkeypatch):
        # A block cut into two calls gives every row the bits of one call
        # over all of ``idx`` (and over the first rows, sliced), for row
        # counts cut in two and not, with 512 training rows, on 1 to 3 CPUs.
        rng = np.random.default_rng(14)
        for dim in (24, 256, 768):
            table = EmbeddingTable(rng.standard_normal((self.BLOCK + 100, dim)))
            models = self.models(rng, table, 512)
            for size in (512, 1000, 1488, 2000, self.BLOCK, 1001, 1999):
                idx = np.sort(rng.choice(len(table), size, replace=False))
                for blocked, one_shot in models:
                    gathered = one_shot(table.matrix[idx])
                    sliced = one_shot(table.matrix[:size])
                    for workers in (1, 2, 3):
                        monkeypatch.setattr(pool_module, "_available_cpus", lambda: workers)
                        assert same_bits(score_blocks(idx, blocked), gathered), (dim, size)
                        assert same_bits(score_blocks(size, blocked), sliced), (dim, size)

    @pytest.mark.parametrize("workers, size, threads", [
        (1, 3 * BLOCK + 5, 0), (3, BLOCK, 1), (3, 300, 0), (2, 3 * BLOCK + 5, 1),
        (3, 2 * BLOCK, 2), (3, 3 * BLOCK + 5, 2), (3, 504, 0), (3, BLOCK - 1, 0),
        (2, 512, 1),
    ])
    def test_threads_start_only_for_several_blocks_and_cpus(
        self, monkeypatch, workers, size, threads
    ):
        # Threads start for several calls and CPUs: a block cut in two is
        # two calls, a block that is not (too few rows, or not a multiple
        # of 8) one.
        monkeypatch.setattr(pool_module, "_available_cpus", lambda: workers)
        started = count_thread_starts(monkeypatch)
        callers = []

        def score(rows):
            callers.append(threading.get_ident())
            return np.zeros(len(range(size)[rows]))

        before = threading.active_count()
        assert score_blocks(size, score).shape == (size,)
        assert len(callers) == len(self.CALLS[size])
        assert len(started) == threads
        assert not any(thread.is_alive() for thread in started)
        assert threading.active_count() == before
        if not threads:
            assert set(callers) == {threading.get_ident()}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("failing", ["one", "all"])
    def test_block_exception_reaches_the_caller(self, monkeypatch, workers, failing):
        monkeypatch.setattr(pool_module, "_available_cpus", lambda: workers)

        def score(rows):
            if failing == "all" or rows.start == 2 * self.BLOCK:
                raise FloatingPointError(f"block at {rows.start}")
            return np.zeros(len(range(4 * self.BLOCK)[rows]))

        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="block at"):
            score_blocks(4 * self.BLOCK, score)
        assert threading.active_count() == before

    @pytest.mark.parametrize("agent", ["linucb", "gp"])
    def test_reports_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch, agent):
        pool = random_pool(np.random.default_rng(4), 3 * self.BLOCK + 100, 16)
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(pool_module, "_available_cpus", lambda: workers)
            out = tmp_path / str(workers)
            config = ExperimentConfig(agent=agent, rounds=3, batch_size=32, runs=2,
                                      out=str(out))
            results = run_many(config, pool=pool)
            write_report(aggregate_runs(results), results, out, agent=agent, dataset="d")
            reports.append([(out / name).read_bytes() for name in ("runs.csv", "summary.json")])
        assert reports[0] == reports[1]


def prefix_deficit(model: GaussianProcess, k: np.ndarray) -> Fraction:
    """s - |G[:p,:p] k[:p]|^2 in exact arithmetic, from the stored floats of
    G = L^-1 and of one kernel column k."""
    p = min(surrogates._BOUND_PREFIX, k.size)
    G = [[Fraction(g) for g in row[: i + 1]] for i, row in enumerate(model._chol_inv[:p].tolist())]
    kf = [Fraction(v) for v in k[:p].tolist()]
    return Fraction(model._signal) - sum(sum(g * v for g, v in zip(row, kf)) ** 2 for row in G)


def exact_scorer(model, table):
    """Exact scores of pool rows (indices or a slice) from a fitted model."""
    if isinstance(model, LinUcb):
        return lambda rows: model.score_many(table.matrix[rows])
    return lambda rows: model.acquisition(table.matrix[rows], table.sq_norms[rows])


def fitted_model(agent, pool, observed):
    """The agent's model fitted on the observed rows as a round after them
    fits it: a LinUCB agent's primal form on the z-scored responses, a GP
    agent's model on the raw ones. A bound pass has made the same fit, with
    the same bits; a full pass with observations scores from the run's
    whitened rows and fits neither (its scores are the fit's up to
    rounding)."""
    X, y = pool.embeddings.matrix[observed], pool.scores[observed]
    if isinstance(agent, agents_module.LinUcbAgent):
        if agent.standardize and y.size:
            sd = float(y.std())
            y = (y - y.mean()) / (sd if sd > 0.0 else 1.0)
        agent.primal.fit_batch(X, y)
        return agent.primal
    agent.model.fit(X, y)
    return agent.model


def surrogate_round(kind, pool, observed, batch_size=32, **config):
    """One round of the ``kind`` agent after ``observed``, against full-pass
    scoring: the batch is the full pass's, in the same order, and the bound
    is at least the exact score bits on every unexplored row. Returns the
    model, the unexplored indices and their exact scores and bounds."""
    agent = make_agent(ExperimentConfig(agent=kind, batch_size=batch_size, **config), pool,
                       None, None)
    memory = CandidateMemory(pool)
    memory.explore(observed)
    feedback = Feedback(tuple(
        FeedbackRecord(pool.names[i], float(pool.scores[i]), False) for i in observed
    ))
    avail = memory.unexplored()
    batch = agent.select(2, memory, feedback, np.random.default_rng(0))
    model, table = fitted_model(agent, pool, observed), pool.embeddings
    exact = score_blocks(avail, exact_scorer(model, table))
    assert batch.tolist() == avail[np.lexsort((avail, -exact))[:batch_size]].tolist()
    bound_fn = model.bound_fn()
    bound = score_blocks(avail, lambda rows: bound_fn(table.matrix[rows], table.sq_norms[rows]))
    assert np.all(bound >= exact)
    return model, avail, exact, bound


@pytest.fixture
def linucb_bound_on_any_dim(monkeypatch):
    """LinUCB takes the bound path on the small test pools too."""
    monkeypatch.setattr(agents_module, "_LINUCB_BOUND_MIN_DIM", 1)


# Per agent kind: the model class and the name of its exact scoring method.
SURROGATES = {
    "gp": (GaussianProcess, "acquisition"),
    "linucb": (LinUcb, "score_many"),
}


def gp_terms(model: GaussianProcess):
    """The bound terms of a fitted GP, as its bound_fn builds them."""
    return surrogates._gp_bound_terms(model._X, model._sq_norms, model._alpha, model._chol_inv,
                                      model.length_scale**2, model._signal)


def recorded_bound_calls(monkeypatch, cls) -> list:
    """The row count of every call of a function that ``cls.bound_fn``
    returns, in a list that grows as they are made."""
    calls = []
    bound_fn = cls.bound_fn

    def recorded(self):
        bound = bound_fn(self)

        def counted(X, *args):
            calls.append(len(X))
            return bound(X, *args)

        return counted

    monkeypatch.setattr(cls, "bound_fn", recorded)
    return calls


@pytest.mark.usefixtures("linucb_bound_on_any_dim")
class TestShortlist:
    """Either surrogate agent's path: the full pass, or a bound pass and an
    exact pass over the shortlist, whose calls all score half a block."""

    BLOCK = surrogates._BLOCK_ROWS

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("kind", SURROGATES)
    def test_one_block_and_one_more_row(self, kind, extra):
        # 2048 unexplored rows take the full pass; 2049 the shortlist.
        rng = np.random.default_rng(10)
        pool = random_pool(rng, self.BLOCK + extra + 64, 5)
        _, avail, _, _ = surrogate_round(kind, pool, np.arange(64))
        assert avail.size == self.BLOCK + extra

    @pytest.mark.parametrize("kind", SURROGATES)
    def test_bound_and_exact_calls_have_one_shape_on_any_cpu_count(self, monkeypatch, kind):
        # The bound and the exact pass are compared row by row: over more
        # than one block, every call of the bound pass and of the exact pass
        # scores half a block, whatever the CPU count, and so the calls and
        # the batch do not depend on it.
        rng = np.random.default_rng(15)
        pool = random_pool(rng, 2 * self.BLOCK + 500, 6)
        observed = rng.choice(len(pool), 90, replace=False)
        feedback = Feedback(tuple(
            FeedbackRecord(pool.names[i], float(pool.scores[i]), False) for i in observed
        ))
        cls, name = SURROGATES[kind]
        log = {"bound": recorded_bound_calls(monkeypatch, cls), name: []}
        method = getattr(cls, name)

        def recorded(self, X, *args):
            log[name].append(len(X))
            return method(self, X, *args)

        monkeypatch.setattr(cls, name, recorded)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(pool_module, "_available_cpus", lambda: workers)
            for calls in log.values():
                calls.clear()
            memory = CandidateMemory(pool)
            memory.explore(observed)
            agent = make_agent(ExperimentConfig(agent=kind, batch_size=32), pool, None, None)
            batch = agent.select(2, memory, feedback, np.random.default_rng(0))
            assert all(log.values())
            assert set().union(*log.values()) == {self.BLOCK // 2}
            runs.append((batch.tolist(), {name: list(calls) for name, calls in log.items()}))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("observed", [64, 0])
    @pytest.mark.parametrize("kind", SURROGATES)
    def test_full_pass_computes_no_bound(self, monkeypatch, kind, observed):
        # One block of unexplored rows after 64 observations, and a first
        # round over a pool of more than two blocks: both score every row
        # in one full pass, so the bound is never computed.
        def no_bound(*args):
            raise AssertionError("bound_fn called")

        monkeypatch.setattr(SURROGATES[kind][0], "bound_fn", no_bound)
        rng = np.random.default_rng(13)
        pool = random_pool(rng, self.BLOCK + 64 if observed else 2 * self.BLOCK + 300, 5)
        memory = CandidateMemory(pool)
        memory.explore(np.arange(observed))
        feedback = Feedback(tuple(
            FeedbackRecord(pool.names[i], float(pool.scores[i]), False) for i in range(observed)
        )) if observed else None
        agent = make_agent(ExperimentConfig(agent=kind, batch_size=32), pool, None, None)
        avail = memory.unexplored()
        batch = agent.select(2 if observed else 1, memory, feedback, np.random.default_rng(0))
        model = fitted_model(agent, pool, np.arange(observed))
        exact = score_blocks(avail, exact_scorer(model, pool.embeddings))
        assert batch.tolist() == avail[np.lexsort((avail, -exact))[:32]].tolist()


class TestBoundValues:
    """A bound factory builds its terms once per bound pass, on the thread
    that runs the round, into a function that no later fit changes."""

    BLOCK = surrogates._BLOCK_ROWS

    @pytest.mark.parametrize("kind", SURROGATES)
    def test_refit_leaves_a_bound_function_unchanged(self, kind):
        # A refit on other rows and responses, and one on no observations,
        # leave the bits of a bound function's values as they were, while
        # the new fit's bounds differ.
        rng = np.random.default_rng(27)
        X = rng.standard_normal((300, 6))
        sq_norms = np.square(X).sum(axis=1)
        if kind == "linucb":
            model = LinUcb(6, ridge=0.5, alpha=1.2)
            refit = model.fit_batch
        else:
            model = GaussianProcess(length_scale=3.0)
            refit = model.fit
        refit(X[:40], rng.standard_normal(40))
        bound = model.bound_fn()
        before = bound(X, sq_norms)
        assert np.isfinite(before).all()
        refit(2.0 * X[40:90], 5.0 + 3.0 * rng.standard_normal(50))
        after = model.bound_fn()(X, sq_norms)
        assert np.isfinite(after).all() and not same_bits(after, before)
        assert same_bits(bound(X, sq_norms), before)
        refit(X[:0], np.empty(0))
        assert same_bits(bound(X, sq_norms), before)

    @pytest.mark.usefixtures("threaded_scan", "linucb_bound_on_any_dim")
    @pytest.mark.parametrize("kind", SURROGATES)
    def test_terms_are_built_once_per_bound_pass_on_the_calling_thread(
        self, monkeypatch, kind
    ):
        # Rounds 2 and 3 take a bound pass over more than two blocks, scored
        # on three threads; each builds its terms once, on the thread that
        # runs the round. Round 1 (no observations) builds none.
        builder = "_linucb_bound_terms" if kind == "linucb" else "_gp_bound_terms"
        terms = getattr(surrogates, builder)
        built = []

        def spy(*args):
            built.append(threading.get_ident())
            return terms(*args)

        monkeypatch.setattr(surrogates, builder, spy)
        monkeypatch.setattr(pool_module, "_available_cpus", lambda: 3)
        started = count_thread_starts(monkeypatch)
        bound_calls = recorded_bound_calls(monkeypatch, SURROGATES[kind][0])
        pool = random_pool(np.random.default_rng(28), 2 * self.BLOCK + 300, 6)
        config = ExperimentConfig(agent=kind, rounds=3, batch_size=32, runs=1)
        run_experiment(config, seed=0, pool=pool)
        assert built == [threading.get_ident()] * 2
        assert len(bound_calls) > 2 and started


class TestGpShortlist:
    """GP-UCB's prefix bound: at least the exact score bits on every
    unexplored row, and at least s minus the exact prefix norm."""

    BLOCK = surrogates._BLOCK_ROWS

    def select(self, pool, observed, batch_size=32, **gp):
        return surrogate_round("gp", pool, observed, batch_size, **gp)

    def check_prefix_deficit(self, model, pool, rows):
        """Inside the range gate, the variance bound is at least s minus the
        exact prefix norm of the exact pass's own kernel column, in exact
        arithmetic; outside it the row's bound is inf."""
        table = pool.embeddings
        X, sq_norms = table.matrix[rows], table.sq_norms[rows]
        k_star = model._kernel(model._X, X, sq_norms, model._sq_norms)
        bound = model.bound_fn()(X, sq_norms)
        terms = gp_terms(model)
        if terms is None:
            assert np.all(bound == np.inf)
            return
        _, var_ub, rho = surrogates._bound_moments(terms, X, sq_norms)
        for j in range(rows.size):
            if np.isfinite(rho[j]):
                assert Fraction(var_ub[j]) >= prefix_deficit(model, k_star[:, j]), rows[j]
            else:
                assert bound[j] == np.inf, rows[j]

    def test_lower_inverse_is_lower_triangular(self):
        # The prefix bound needs G[:p, p:] = 0 exactly.
        rng = np.random.default_rng(1)
        gp = GaussianProcess(length_scale=3.0)
        gp.fit(rng.standard_normal((70, 5)), rng.standard_normal(70))
        assert not np.triu(gp._chol_inv, 1).any()

    @pytest.mark.parametrize("gp", [
        {},
        {"gp_beta": 0.0},
        {"gp_signal_var": 3.0, "gp_noise_var": 1e-3},
        {"gp_standardize": False},
        {"gp_standardize": False, "gp_signal_var": 0.5, "gp_noise_var": 0.0, "gp_beta": 5.0},
    ])
    def test_matches_full_pass(self, gp):
        rng = np.random.default_rng(4)
        pool = random_pool(rng, 2 * self.BLOCK + 500, 6)
        observed = rng.choice(len(pool), 90, replace=False)
        model, avail, _, _ = self.select(pool, observed, **gp)
        self.check_prefix_deficit(model, pool, avail[:40])

    def test_tied_duplicate_rows_around_the_threshold(self):
        # Every embedding five times over, so equal scores straddle the
        # batch boundary (batch size 33) and the tie rule decides.
        rng = np.random.default_rng(6)
        base = rng.standard_normal((900, 4))
        emb = base[rng.permutation(np.arange(4500) % 900)]
        pool = build_pool([f"c{i}" for i in range(4500)], rng.standard_normal(4500), emb)
        observed = rng.choice(4500, 60, replace=False)
        _, avail, exact, _ = self.select(pool, observed, batch_size=33)
        threshold = np.sort(exact)[-33]
        assert np.count_nonzero(exact > threshold) < 33 < np.count_nonzero(exact >= threshold)

    def test_kernel_underflow(self, monkeypatch):
        # A length scale so small that every unexplored row's kernel column
        # is exactly 0: all scores tie at the prior. The training rows are
        # outside the range gate, so every bound is inf and the agent scores
        # every row (as does the full pass the round is checked against).
        scored = []
        acquisition = GaussianProcess.acquisition

        def counted(self, X, *args):
            scored.append(len(X))
            return acquisition(self, X, *args)

        monkeypatch.setattr(GaussianProcess, "acquisition", counted)
        rng = np.random.default_rng(7)
        pool = random_pool(rng, self.BLOCK + 700, 5)
        observed = np.arange(50)
        model, avail, exact, bound = self.select(pool, observed, gp_length_scale=1e-3)
        assert np.all(exact == exact[0]) and np.all(bound == np.inf)
        assert sum(scored) >= 2 * avail.size
        self.check_prefix_deficit(model, pool, avail[:10])

    def test_duplicate_training_rows_need_jitter(self):
        rng = np.random.default_rng(8)
        pool = random_pool(rng, self.BLOCK + 600, 4)
        matrix = pool.embeddings.matrix.copy()
        matrix[1:40] = matrix[0]  # the first 40 observed rows coincide
        pool = build_pool(list(pool.names), pool.scores, matrix)
        observed = np.arange(70)
        model, avail, _, _ = self.select(pool, observed, gp_noise_var=0.0,
                                         gp_length_scale=2.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(model._kernel(model._X, model._X))
        self.check_prefix_deficit(model, pool, avail[:20])

    def test_fewer_observations_than_the_prefix(self):
        rng = np.random.default_rng(9)
        pool = random_pool(rng, self.BLOCK + 900, 5)
        observed = rng.choice(len(pool), surrogates._BOUND_PREFIX - 7, replace=False)
        model, avail, _, _ = self.select(pool, observed)
        self.check_prefix_deficit(model, pool, avail[:30])

    def test_designed_near_worst_case_rows(self):
        # The first p observed rows form one tight cluster and the others a
        # distant one, so G is block diagonal and the prefix sees the whole
        # posterior of the candidates next to the first cluster: s - P is
        # their variance, small against s, and their bound is the score but
        # for the rounding term E. The check in exact arithmetic fails there
        # if E is left out.
        rng = np.random.default_rng(12)
        p = surrogates._BOUND_PREFIX
        emb = rng.standard_normal((2 * self.BLOCK + 300, 6))
        emb[:p] = 0.3 * rng.standard_normal((p, 6))
        emb[p : 3 * p] = 100.0 + 0.3 * rng.standard_normal((2 * p, 6))
        near = np.arange(3 * p, 3 * p + 200)
        emb[near] = emb[near % p] + 1e-3 * rng.standard_normal((near.size, 6))
        pool = build_pool([f"c{i}" for i in range(len(emb))], rng.standard_normal(len(emb)), emb)
        model, _, _, _ = self.select(pool, np.arange(3 * p), gp_length_scale=0.5)
        assert not model._chol_inv[p:, :p].any()
        _, var = model.posterior_many(emb[near])
        deficit = np.array([float(prefix_deficit(model, k)) for k in
                            model._kernel(model._X, emb[near]).T])
        assert np.allclose(var / model._sd**2, deficit, rtol=1e-6, atol=0.0)
        assert np.all(var / model._sd**2 < 0.01 * model._signal)
        self.check_prefix_deficit(model, pool, near)

    def test_pool_far_from_the_origin(self):
        # A common offset 10^4 times the rows' spread: the exact pass's own
        # kernel may lose 7 of its 16 digits to its uncentred norms (rho is
        # about 2.4e-7 here), the factored kernel is centred on the training
        # mean, and the margin covers both, so rows stay inside the gate.
        rng = np.random.default_rng(20)
        emb = 1e4 + rng.standard_normal((self.BLOCK + 600, 6))
        pool = build_pool([f"c{i}" for i in range(len(emb))], rng.standard_normal(len(emb)), emb)
        observed = rng.choice(len(pool), 80, replace=False)
        model, avail, _, bound = self.select(pool, observed)
        assert np.isfinite(bound).mean() > 0.9
        self.check_prefix_deficit(model, pool, avail[:30])

    def test_unexplored_rows_equal_training_rows(self):
        # Copies of observed rows among the unexplored ones: their exact
        # kernel entry against the original is s, or within rounding of it.
        rng = np.random.default_rng(21)
        emb = rng.standard_normal((self.BLOCK + 500, 5))
        observed = np.arange(60)
        copies = np.arange(60, 60 + 3 * 60)
        emb[copies] = emb[copies % 60]
        pool = build_pool([f"c{i}" for i in range(len(emb))], rng.standard_normal(len(emb)), emb)
        model, avail, _, bound = self.select(pool, observed, batch_size=40)
        k_star = model._kernel(model._X, emb[copies[:60]])
        assert np.all(k_star.max(axis=0) >= model._signal * (1.0 - 1e-12))
        assert np.isfinite(bound).all()
        self.check_prefix_deficit(model, pool, copies[:40])

    @pytest.mark.parametrize("side", ["inside", "outside"])
    def test_length_scale_at_the_gate(self, side):
        # The length scale at which the farthest training row from the
        # training mean sits at |x - c|^2 / l^2 = 256, nudged to either side
        # of the gate: inside it some unexplored rows are bounded and those
        # farther out are inf; outside it every bound is inf.
        rng = np.random.default_rng(22)
        pool = random_pool(rng, self.BLOCK + 600, 5)
        observed = rng.choice(len(pool), 90, replace=False)
        probe = GaussianProcess(length_scale=1.0)
        probe.fit(pool.embeddings.matrix[observed], pool.scores[observed])
        edge = gp_terms(probe).radius / math.sqrt(surrogates._GP_GATE)
        length = edge * (1.0 + 2.0**-30 if side == "inside" else 1.0 - 2.0**-30)
        model, avail, _, bound = self.select(pool, observed, gp_length_scale=length)
        if side == "outside":
            assert gp_terms(model) is None and np.all(bound == np.inf)
            return
        assert gp_terms(model) is not None
        assert 0 < np.isfinite(bound).sum() < bound.size
        check_gate(model, pool.embeddings.matrix[avail], bound)
        self.check_prefix_deficit(model, pool, avail[:30])


def check_gate(model, B, bound):
    """Every training row, and every row of B with a finite bound, has
    |x - c|^2 / l^2 at most the gate in exact arithmetic (and a hair over
    for the gate's own roundings); every row of B well outside the gate has
    an inf bound."""
    centre = [Fraction(v) for v in gp_terms(model).centre.tolist()]
    length_sq = Fraction(model.length_scale**2)
    gate = Fraction(surrogates._GP_GATE)

    def reach(row):
        return sum((Fraction(v) - c) ** 2 for v, c in zip(row, centre)) / length_sq

    assert max(reach(row) for row in model._X.tolist()) <= gate
    for row, b in zip(B.tolist(), bound.tolist()):
        r = reach(row)
        if b < math.inf:
            assert r <= gate * (1 + Fraction(1, 2**40))
        elif r > gate * (1 + Fraction(1, 2**20)):
            assert b == math.inf


def root_up(value: Fraction) -> Fraction:
    """A float at least the square root of a nonnegative Fraction."""
    root = math.sqrt(float(value))
    while Fraction(root) ** 2 < value:
        root = float(np.nextafter(root, np.inf))
    return Fraction(root)


def gp_log_ratio_reference(model: GaussianProcess, B: np.ndarray) -> list[Fraction]:
    """What the log-ratio Delta of GaussianProcess.bound_fn must cover for
    each row of B, as the module docstring derives it, in exact arithmetic
    from the exact norms: four exp accuracies and two roundings, the exact
    pass's gamma_(d+4) (|x|^2 + |b|^2) / 2 l^2 over max |x|^2, the factored
    kernel's gamma_(d+4) (R + |b| + |c|)^2 / 2 l^2, and the floors."""
    u, eta = Fraction(1, 2**53), Fraction(1, 2**1075)
    kappa = Fraction(surrogates._EXP_ACCURACY)
    dim = B.shape[1]

    def g(k):
        return k * u / (1 - k * u)

    length_sq = Fraction(model.length_scale**2)
    centre = [Fraction(v) for v in gp_terms(model).centre.tolist()]
    rows = [[Fraction(v) for v in row] for row in model._X.tolist()]
    max_sq = max(sum(v * v for v in row) for row in rows)
    radius = root_up(max(sum((v - c) ** 2 for v, c in zip(row, centre)) for row in rows))
    centre_norm = root_up(sum(c * c for c in centre))
    root_dim = root_up(Fraction(dim))
    out = []
    for row in B.tolist():
        b_sq = sum(Fraction(v) ** 2 for v in row)
        reach = root_up(b_sq) + centre_norm
        out.append(
            4 * (kappa + kappa**2) + 2 * (u + u**2)
            + g(dim + 4) * (max_sq + b_sq) / length_sq
            + g(dim + 4) * (radius + reach) ** 2 / (2 * length_sq)
            + eta * (2 * root_dim * reach + 2 * dim + 6 + (7 * dim + 3) / length_sq)
        )
    return out


def gp_margin_pools():
    """Fitted GPs and query rows for the margin checks: gaussian rows at
    several scales and length scales, a pool far from the origin, queries
    equal to training rows, and queries near the range gate."""
    rng = np.random.default_rng(30)
    cases = []
    for dim, scale, length, offset in [(1, 1.0, 0.7, 0.0), (5, 1.0, 2.0, 0.0),
                                       (16, 30.0, 50.0, 0.0), (64, 1.0, 11.0, 0.0),
                                       (6, 1.0, 3.0, 1e4), (3, 1e-150, 1e-150, 0.0),
                                       (4, 1e100, 3e100, -5e100)]:
        X = offset + scale * rng.standard_normal((40, dim))
        model = GaussianProcess(length_scale=length)
        model.fit(X, rng.standard_normal(40))
        edge = 15.9 * length / math.sqrt(dim)  # |b - offset| = 15.9 l
        B = np.vstack([offset + scale * rng.standard_normal((20, dim)), X[:6],
                       X[:6] + 1e-9 * scale * rng.standard_normal((6, dim)),
                       offset + edge * rng.choice([-1.0, 1.0], (4, dim))])
        cases.append((model, B))
    return cases


class TestGpBoundMargin:
    """The factored kernel of GaussianProcess.bound_fn against the exact
    pass's kernel bits, and the assumptions its margin rests on."""

    def test_np_exp_is_within_the_assumed_accuracy(self):
        # |np.exp(t) - e^t| <= kappa max(e^t, tiny) with 64-fold headroom,
        # against math.exp (itself within about an ulp), over the range
        # gate's arguments (-513 to 257) and on to results below the
        # smallest normal number; on arrays as the bound calls it: in place
        # over a 2-d block, and on a strided view.
        rng = np.random.default_rng(31)
        t = np.concatenate([
            rng.uniform(-513.0, 257.0, 60_000),
            rng.uniform(-1.0, 1.0, 20_000),
            np.linspace(-745.2, -700.0, 20_000),
            rng.uniform(-709.0, 709.7, 20_000),
        ])
        expected = np.array([math.exp(v) for v in t.tolist()])
        block = t.reshape(-1, 1000).copy()
        np.exp(block, out=block)
        strided = np.exp(np.repeat(t, 2)[::2])
        scale = np.maximum(expected, np.finfo(np.float64).tiny)
        for got in (np.exp(t), block.ravel(), strided):
            error = np.abs(got - expected) / scale
            assert error.max() <= surrogates._EXP_ACCURACY / 64, error.max()

    def test_margin_covers_the_derivation(self):
        # rho >= Delta (1 + Delta) >= e^Delta - 1 in exact arithmetic, with
        # Delta every term the module docstring derives, on every row inside
        # the gate.
        checked = 0
        for model, B in gp_margin_pools():
            _, _, rho = surrogates._factored_kernel(gp_terms(model), B, np.square(B).sum(axis=1))
            for j, delta in enumerate(gp_log_ratio_reference(model, B)):
                if np.isfinite(rho[j]):
                    assert Fraction(rho[j]) >= delta * (1 + delta), j
                    checked += 1
        assert checked > 150

    def test_mean_end_covers_the_factored_sum_and_its_margin(self):
        # The mean's upper end is at least sum_i alpha_i k~_ij + rho_j sum_i
        # |alpha_i| k~_ij in exact arithmetic, with k~_ij = f_j e_i E_ij and
        # rho_j the factored kernel's own: with the margin check below, at
        # least the exact pass's k^T alpha.
        checked = 0
        for model, B in gp_margin_pools():
            terms = gp_terms(model)
            sq_norms = np.square(B).sum(axis=1)
            E, f, rho = surrogates._factored_kernel(terms, B, sq_norms)
            mean, _, _ = surrogates._bound_moments(terms, B, sq_norms)
            alpha = [Fraction(a) for a in model._alpha.tolist()]
            e = [Fraction(v) for v in terms.weights[2].tolist()]
            for j in np.flatnonzero(np.isfinite(rho)):
                factored = [Fraction(f[j]) * e_i * Fraction(E_ij)
                            for e_i, E_ij in zip(e, E[:, j].tolist())]
                weighted = sum(a * k for a, k in zip(alpha, factored))
                absolute = sum(abs(a) * k for a, k in zip(alpha, factored))
                assert Fraction(mean[j]) >= weighted + Fraction(rho[j]) * absolute, j
                checked += 1
        assert checked > 150

    def test_factored_kernel_within_margin_of_the_exact_pass(self):
        # |k_ij - f_j e_i E_ij| <= rho_j f_j e_i E_ij in exact arithmetic,
        # k the exact pass's kernel bits; and on every row of the gate's
        # range the exact pass's kernel and the factored parts are normal
        # numbers.
        tiny = np.finfo(np.float64).tiny
        for model, B in gp_margin_pools():
            k_star = model._kernel(model._X, B)
            terms = gp_terms(model)
            E, f, rho = surrogates._factored_kernel(terms, B, np.square(B).sum(axis=1))
            e = terms.weights[2]
            inside = np.isfinite(rho)
            assert inside[:32].all()
            for j in np.flatnonzero(inside):
                assert k_star[:, j].min() >= tiny and f[j] >= tiny and E[:, j].min() >= tiny
                margin = Fraction(rho[j])
                for i in range(k_star.shape[0]):
                    factored = Fraction(f[j]) * Fraction(e[i]) * Fraction(E[i, j])
                    assert abs(Fraction(k_star[i, j]) - factored) <= margin * factored, (i, j)
            check_gate(model, B, np.where(inside, 0.0, np.inf))


def linucb_error_reference(dim, alpha, row_norm, theta_norm, inv_norm) -> Fraction:
    """What the error term of LinUcb.bound_fn must cover, as the module
    docstring derives it, in exact arithmetic from upper ends of the norms
    (dim a square): the f32 mean's relative term and alpha times the f32
    width's, the f64 score's g_(3d+3)(u) term, and the floors for
    subnormal f32 values, which E states at 1.4 times or more of what they
    cover."""
    u, v = Fraction(1, 2**53), Fraction(1, 2**24)
    root = math.isqrt(dim)
    assert root * root == dim

    def g(k, w):
        return k * w / (1 - k * w)

    x, t, G = (Fraction(n) for n in (row_norm, theta_norm, inv_norm))
    a = Fraction(alpha)
    relative = g(dim + 2, v) * x * t + a * g(2 * dim + 3, v) * G * x
    floors = (Fraction(root, 2**149) * (x + t) + Fraction(dim, 2**147)
              + a * (Fraction(1, 2**148) * (dim * x + root * G) + Fraction(dim * root, 2**146)
                     + Fraction(root, 2**73)))
    return relative + floors / Fraction(14, 10) + g(3 * dim + 3, u) * x * (t + a * G)


def upper_norm(values: np.ndarray) -> float:
    """A float at least the exact Euclidean norm of the values."""
    sq = sum(Fraction(v) ** 2 for v in values.ravel().tolist())
    norm = math.sqrt(float(sq))
    while Fraction(norm) ** 2 < sq:
        norm = float(np.nextafter(norm, np.inf))
    return norm


def fitted_linucb(dim, alpha, theta, chol_inv, ridge=1.0):
    """A LinUcb with the given theta and L^-1 (the state a fit keeps)."""
    model = LinUcb(dim, ridge=ridge, alpha=alpha)
    model.fit_batch(np.ones((1, dim)), [1.0])
    model._theta = np.asarray(theta, dtype=np.float64)
    model._chol_inv = np.asarray(chol_inv, dtype=np.float64)
    return model


def linucb_worst_case(rng, n, alpha):
    """A 1-dim LinUCB state and n rows whose f32 recomputation of the score
    falls short by nearly the most the f32 terms of the bound allow.

    theta and L^-1 lie just below f32 midpoints a little above 1, and so
    does every row, so each rounds down by nearly a relative 2^-24. Of many
    such rows, eight in each f32 cell, the n whose f32 mean and width fall
    furthest below their f64 score are kept: there the roundings of x,
    L^-1, theta and the f32 products add up. Rows of one cell differ by far
    less than the error is wide.
    """
    step = 2.0**-23
    theta, g = (1.0 + step * (int(rng.integers(2**14, 2**15)) + 0.4999) for _ in range(2))
    cells = np.arange(2**14, 2**14 + 3 * n)
    x = 1.0 + step * (np.repeat(cells, 8) + np.tile(0.49 + 0.00125 * np.arange(8), cells.size))
    x32 = x.astype(np.float32)
    w = x32 * np.float32(g)
    mean = (x32 * np.float32(theta)).astype(np.float64)
    approx = mean + alpha * np.sqrt(w * w).astype(np.float64)
    short = x * theta + alpha * np.sqrt((x * g) ** 2) - approx
    rows = x[np.argsort(-short, kind="stable")[:n]]
    return theta, g, rng.permutation(rows)[:, None]


def linucb_hard_pool(kind, rng, n, dim=4):
    """A pool of one LinUCB hard kind; its first 64 rows are observed."""
    if kind == "f32-worst":
        emb = linucb_worst_case(rng, n, 1.0)[2]
    elif kind == "subnormal":  # components subnormal in f32, scores about 1e-41
        emb = 1e-41 * (rng.integers(-3, 4, (n, dim)) + 0.1 * rng.standard_normal((n, dim)))
    elif kind == "near-overflow":  # squared norms near the f64 limit, far outside the gate
        emb = 1e150 * (1.0 + 1e-3 * rng.standard_normal((n, dim)))
    elif kind == "gate-edge":  # norms at, just inside and just outside 2^62
        emb = rng.integers(-3, 4, (n, dim)) * 2.0**59
        edge = rng.choice(np.arange(64, n), n // 4, replace=False)
        emb[edge] = 0.0
        emb[edge, 0] = 2.0**62 * rng.choice([1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52], edge.size)
    elif kind == "inf-bound":  # x' (L^-1)'^T overflows f32 off the observed span
        emb = rng.standard_normal((n, dim))
        emb[:, -1] = 0.0
        far = rng.choice(np.arange(64, n), n // 8, replace=False)
        emb[far, -1] = 1e18 * rng.uniform(1.0, 2.0, far.size)
    else:
        raise ValueError(kind)
    return build_pool([f"c{i}" for i in range(n)], rng.standard_normal(n), emb)


LINUCB_HARD_KINDS = ("f32-worst", "subnormal", "near-overflow", "gate-edge", "inf-bound")


class TestLinUcbBound:
    """LinUcb.bound_fn: at least the f64 score of every row, for the
    computed floats; and the agent's shortlist against its full pass."""

    BLOCK = surrogates._BLOCK_ROWS

    @pytest.mark.parametrize("dim", [1, 4, 16, 64, 256])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 7.5])
    def test_error_term_covers_every_rounding(self, dim, alpha):
        # The error term, as computed, covers the f32 mean, alpha times the
        # f32 width and the f64 score in exact arithmetic, for row norms from
        # subnormal in f32 to large.
        rng = np.random.default_rng(dim)
        X = rng.standard_normal((40, dim)) * 10.0 ** rng.integers(-45, 18, (40, 1))
        lin = LinUcb(dim, ridge=0.3, alpha=alpha)
        lin.fit_batch(rng.standard_normal((2 * dim + 3, dim)), rng.standard_normal(2 * dim + 3))
        _, _, per_norm, floor = surrogates._linucb_bound_terms(lin._chol_inv, lin.theta, alpha)
        theta_norm, inv_norm = upper_norm(lin.theta), upper_norm(lin._chol_inv)
        sq_norms = np.square(X).sum(axis=1)
        error = np.sqrt(sq_norms) * per_norm + floor  # as the bound function computes it
        for row, e in zip(X, error):
            assert Fraction(e) >= linucb_error_reference(dim, alpha, upper_norm(row),
                                                         theta_norm, inv_norm)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 2.0**-30])
    def test_bound_is_the_rounded_up_sum(self, alpha):
        # In exact arithmetic the bound is at least fl(m' + alpha r') + E:
        # the f32 mean and width and the error term, the last sum rounded
        # up.
        rng = np.random.default_rng(21)
        theta, g, X = linucb_worst_case(rng, 400, alpha)
        model = fitted_linucb(1, alpha, [theta], [[g]])
        bound = model.bound_fn()(X, np.square(X).sum(axis=1))
        _, _, per_norm, floor = surrogates._linucb_bound_terms(model._chol_inv, model.theta, alpha)
        error = np.sqrt(np.square(X).sum(axis=1)) * per_norm + floor
        x32 = X[:, 0].astype(np.float32)
        w = x32 * np.float32(g)
        mean = (x32 * np.float32(theta)).astype(np.float64)
        approx = mean + alpha * np.sqrt(w * w).astype(np.float64)
        for b, a, e in zip(bound, approx, error):
            assert Fraction(b) >= Fraction(a) + Fraction(e)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
    def test_designed_worst_case_rows(self, alpha):
        # The f32 roundings of x, L^-1 and theta add up on every row, and
        # the short fall of the f32 recomputation is more than half the f32
        # terms of the bound on some of them: a bound with half those terms
        # fails here.
        rng = np.random.default_rng(22)
        theta, g, X = linucb_worst_case(rng, 600, alpha)
        model = fitted_linucb(1, alpha, [theta], [[g]])
        exact = model.score_many(X)
        bound = model.bound_fn()(X, np.square(X).sum(axis=1))
        assert np.all(bound >= exact)
        v = 2.0**-24
        f32_terms = X[:, 0] * (3 * v * theta + alpha * 5 * v * g)
        x32 = X[:, 0].astype(np.float32)
        w = x32 * np.float32(g)
        mean = (x32 * np.float32(theta)).astype(np.float64)
        approx = mean + alpha * np.sqrt(w * w).astype(np.float64)
        assert np.max((exact - approx) / f32_terms) > 0.55
        # The scores lie closer together than the bound is above them.
        assert np.median(bound - exact) > 10 * np.median(np.diff(np.sort(exact)))

    @pytest.mark.usefixtures("linucb_bound_on_any_dim")
    @pytest.mark.parametrize("kind", LINUCB_HARD_KINDS)
    def test_hard_kinds_match_full_pass(self, kind):
        rng = np.random.default_rng(LINUCB_HARD_KINDS.index(kind))
        pool = linucb_hard_pool(kind, rng, 2 * self.BLOCK + 300)
        config = {"linucb_ridge": 1e-6} if kind == "inf-bound" else {}
        _, avail, _, bound = surrogate_round("linucb", pool, np.arange(64), batch_size=40,
                                             **config)
        sq = pool.embeddings.sq_norms[avail]
        outside = ~(sq <= 2.0**124)
        assert np.all(np.isinf(bound[outside]))
        if kind == "near-overflow":
            assert outside.all()
        if kind == "gate-edge":
            assert outside.any() and not outside.all()
        if kind == "inf-bound":
            far = pool.embeddings.matrix[avail, -1] != 0.0
            assert far.any() and not outside[far].any()
            assert np.all(np.isinf(bound[far])) and np.all(np.isfinite(bound[~far]))
        if kind in ("f32-worst", "subnormal"):
            assert np.all(np.isfinite(bound))

    @pytest.mark.parametrize("observed, dual", [(64, True), (128, False)])
    def test_low_dimensions_take_the_full_pass(self, monkeypatch, observed, dual):
        # Below _LINUCB_BOUND_MIN_DIM the f32 call saves too little: every
        # round scores every unexplored row in one full pass, in the dual
        # form while 3n <= 2d (64 rows at 127 dimensions) and in the primal
        # form after. Either selects the primal fit's top batch.
        def no_bound(*args):
            raise AssertionError("bound_fn called")

        monkeypatch.setattr(LinUcb, "bound_fn", no_bound)
        built = TestLinUcbForm.dual_fits(monkeypatch)
        rng = np.random.default_rng(24)
        pool = random_pool(rng, 2 * self.BLOCK + 300, agents_module._LINUCB_BOUND_MIN_DIM - 1)
        agent = make_agent(ExperimentConfig(agent="linucb", batch_size=32), pool, None, None)
        memory = CandidateMemory(pool)
        memory.explore(np.arange(observed))
        feedback = Feedback(tuple(
            FeedbackRecord(pool.names[i], float(pool.scores[i]), False) for i in range(observed)
        ))
        avail = memory.unexplored()
        batch = agent.select(2, memory, feedback, np.random.default_rng(0))
        assert built == ([observed] if dual else [])
        model = fitted_model(agent, pool, np.arange(observed))
        exact = score_blocks(avail, exact_scorer(model, pool.embeddings))
        assert batch.tolist() == avail[np.lexsort((avail, -exact))[:32]].tolist()


class TestLinUcbForm:
    """Which rounds fit LinUCB in its dual form, and that they select the
    primal form's batches."""

    BLOCK = surrogates._BLOCK_ROWS

    @staticmethod
    def dual_fits(monkeypatch):
        """The observation count of every dual-form round the agents score."""
        built = []
        dual_scores = LinUcb.dual_scores

        def spy(self, white, rows, *args):
            built.append(rows.size)
            return dual_scores(self, white, rows, *args)

        monkeypatch.setattr(LinUcb, "dual_scores", spy)
        return built

    @pytest.mark.parametrize("standardize", [True, False])
    def test_dual_rounds_select_the_primal_batches(self, monkeypatch, standardize):
        # At most one block of unexplored rows in 96 dimensions, B=16:
        # rounds 2-5 (n = 16..64, 3n <= 2d) take the dual, round 1 (no
        # observations) and round 6 (n = 80) the primal. A run that never
        # takes the dual selects the same batches.
        pool = random_pool(np.random.default_rng(30), 1000, 96)
        config = ExperimentConfig(agent="linucb", rounds=6, batch_size=16, runs=1,
                                  linucb_standardize=standardize)
        built = self.dual_fits(monkeypatch)
        dual = run_experiment(config, seed=0, pool=pool)
        assert built == [16, 32, 48, 64]
        monkeypatch.setattr(agents_module, "_use_dual", lambda rows, dim: False)
        primal = run_experiment(config, seed=0, pool=pool)
        assert built == [16, 32, 48, 64]
        assert dual.selections == primal.selections

    def test_bound_path_takes_the_primal(self, monkeypatch):
        # More than one block of unexplored rows at 128 dimensions: rounds
        # 2 and 3 (n = 32, 64) take the bound path, never the dual.
        built = self.dual_fits(monkeypatch)
        bounds = recorded_bound_calls(monkeypatch, LinUcb)
        pool = random_pool(np.random.default_rng(31), 2 * self.BLOCK + 300, 128)
        config = ExperimentConfig(agent="linucb", rounds=3, batch_size=32, runs=1)
        run_experiment(config, seed=0, pool=pool)
        assert bounds and built == []

    def test_dual_round_gathers_no_observed_row(self, monkeypatch):
        # A dual round reads its 20 observed rows only through the run's
        # products, which this test computes from the plain matrix; the
        # round itself indexes no row of the pool's matrix.
        pool = random_pool(np.random.default_rng(32), 300, 96)
        plain = pool.embeddings.matrix
        gathers = []

        class Recording(np.ndarray):
            def __getitem__(self, key):
                gathers.append(key)
                return plain[key]

        monkeypatch.setattr(pool.embeddings, "_matrix", plain.view(Recording))
        products_into = agents_module._products_into
        monkeypatch.setattr(agents_module, "_products_into",
                            lambda out, matrix, rows: products_into(out, plain, rows))
        built = self.dual_fits(monkeypatch)
        observed = np.arange(0, 60, 3)
        memory = CandidateMemory(pool)
        memory.explore(observed)
        feedback = Feedback(tuple(
            FeedbackRecord(pool.names[i], float(pool.scores[i]), False) for i in observed
        ))
        agent = make_agent(ExperimentConfig(agent="linucb", batch_size=16), pool, None, None)
        assert agent.select(2, memory, feedback, np.random.default_rng(0)).size == 16
        assert built == [20]
        assert gathers == []

    @pytest.mark.parametrize("rows, dim, dual", [
        (0, 768, False), (1, 2, True), (2, 2, False), (128, 768, True), (512, 768, True),
        (513, 768, False), (128, 256, True), (128, 64, False),
    ])
    def test_dual_needs_observations_and_3n_at_most_2d(self, rows, dim, dual):
        assert agents_module._use_dual(rows, dim) is dual


def mixture_pool(seed: int, n: int, dim: int, clusters: int = 32):
    """A pool shaped like perfbench's: a Gaussian mixture, with scores that
    rise along one hidden direction plus noise."""
    rng = np.random.default_rng([seed, n, dim])
    centers = rng.standard_normal((clusters, dim)) * 2.0
    emb = centers[rng.integers(0, clusters, n)] + rng.standard_normal((n, dim))
    direction = rng.standard_normal(dim)
    scores = emb @ (direction / np.linalg.norm(direction)) + rng.normal(0.0, 0.5, n)
    return build_pool([f"m{i:05d}" for i in range(n)], scores, emb)


def memo_rows(monkeypatch) -> list:
    """The pool indices of every row whose products with the pool the
    agents' whitened rows compute, one array per call, in a list that grows
    as they are computed."""
    computed = []
    products_into = agents_module._products_into

    def spy(out, matrix, rows):
        computed.append(rows.copy())
        products_into(out, matrix, rows)

    monkeypatch.setattr(agents_module, "_products_into", spy)
    return computed


def rebuild_every_round(monkeypatch):
    """The whitened rows are rebuilt from zero rows on every call."""
    update = WhitenedRows.update

    def rebuilt(self, rows, *args):
        self.rows = rows[:0]
        return update(self, rows, *args)

    monkeypatch.setattr(WhitenedRows, "update", rebuilt)


def fresh_scores(kind, table, rows, y, **gp):
    """Every pool row's score under a fresh fit on the gathered rows: the
    GP's ``fit`` and ``acquisition``, or the primal LinUCB's ``fit_batch``
    and ``score_many`` (ridge 0.5)."""
    if kind == "linucb":
        model = LinUcb(table.dim, ridge=0.5)
        model.fit_batch(table.matrix[rows], y)
        return model.score_many(table.matrix)
    model = GaussianProcess(**gp)
    model.fit(table.matrix[rows], y)
    return model.acquisition(table.matrix, table.sq_norms)


def whitened_scores(kind, white, table, rows, y, products, **gp):
    """Every pool row's score from the whitened rows, brought to ``rows``."""
    if kind == "linucb":
        model = LinUcb(table.dim, ridge=0.5)
        return model.dual_scores(white, rows, y, products, table.sq_norms)
    return GaussianProcess(**gp).whitened_scores(white, rows, y, products, table.sq_norms)


def close_scores(computed, fresh):
    """Within 1e-9 of the largest fresh score."""
    return np.max(np.abs(computed - fresh)) <= 1e-9 * np.max(np.abs(fresh))


class TestWhitenedRows:
    """The run's whitened observed rows, which full passes with observations
    extend by each round's new rows instead of refitting."""

    @pytest.mark.parametrize("dim, batch, rounds, seeds", [
        (768, 128, 5, range(10)), (64, 8, 5, range(3)), (8, 1, 6, range(3)),
    ])
    @pytest.mark.parametrize("kind", ["gp", "linucb"])
    def test_extended_state_selects_the_rebuilt_batches(self, monkeypatch, kind, dim, batch,
                                                        rounds, seeds):
        # Molecule-shaped pools (2,000 rows, B = 128) and pools of 64 and 8
        # dimensions, with batches small enough for linucb's dual form
        # (3n <= 2d): every round after the first scores one block in a
        # full pass from the whitened rows, extended by the new rows alone.
        # A state rebuilt from zero rows each round (other GEMM shapes and
        # another factor order, so other bits) selects the same batches.
        config = ExperimentConfig(agent=kind, rounds=rounds, batch_size=batch, runs=1)
        for seed in seeds:
            pool = mixture_pool(seed, 2000, dim)
            computed = memo_rows(monkeypatch)
            extended = run_experiment(config, seed=0, pool=pool)
            assert [rows.size for rows in computed] == [batch] * (rounds - 1)
            rebuild_every_round(monkeypatch)
            rebuilt = run_experiment(config, seed=0, pool=pool)
            assert [rows.size for rows in computed[rounds - 1:]] == [
                batch * r for r in range(1, rounds)
            ]
            monkeypatch.undo()
            assert extended.selections == rebuilt.selections

    def test_a_run_computes_each_observed_row_once(self, monkeypatch):
        # gp and linucb (dual) on a 2,000 x 768 pool: rounds 2-5 each
        # compute the products of the last round's 128 rows, in selection
        # order, and nothing else.
        pool = mixture_pool(0, 2000, 768)
        built = TestLinUcbForm.dual_fits(monkeypatch)
        for kind in ("gp", "linucb"):
            computed = memo_rows(monkeypatch)
            config = ExperimentConfig(agent=kind, rounds=5, batch_size=128, runs=1)
            result = run_experiment(config, seed=0, pool=pool)
            assert [rows.size for rows in computed] == [128] * 4
            order = [pool.index_of(name) for names in result.selections[:4] for name in names]
            assert np.concatenate(computed).tolist() == order
        assert built == [128, 256, 384, 512]

    @pytest.mark.parametrize("kind", ["gp", "linucb"])
    def test_feedback_that_does_not_extend_the_rows_rebuilds_them(self, kind):
        # Rows that extend the kept ones compute only the new rows; fewer
        # rows, another order, one row changed, other rows, and more rows
        # than the room for 64 (which takes larger arrays) compute all of
        # theirs; the same rows again compute none. Every call's scores are
        # a fresh fit's on its rows.
        rng = np.random.default_rng(40)
        table = EmbeddingTable(rng.standard_normal((300, 16)))
        white, products, _ = whitened(table.matrix, 64)
        computed = []

        def counted(out, rows):
            computed.append(rows.copy())
            products(out, rows)

        gp = {"length_scale": 4.0}
        y = rng.standard_normal(300)

        def check(rows):
            scores = whitened_scores(kind, white, table, rows, y[rows], counted, **gp)
            assert close_scores(scores, fresh_scores(kind, table, rows, y[rows], **gp))

        first = rng.choice(300, 40, replace=False)
        check(first)
        extended = np.concatenate([first, np.setdiff1d(np.arange(300), first)[:20]])
        check(extended)
        assert computed[-1].tolist() == extended[40:].tolist()
        changed = extended.copy()
        changed[7] = 299
        for rows in (extended[:30], extended[::-1], changed, np.arange(200, 260),
                     np.arange(100)):
            check(rows)
            assert computed[-1].tolist() == rows.tolist()
        calls = len(computed)
        check(np.arange(100))
        assert len(computed) == calls

    @pytest.mark.parametrize("gp, extends", [
        ({}, True),
        ({"signal_var": 2.0, "noise_var": 1e-3}, True),
        ({"noise_var": 1e-3}, False),
    ])
    def test_a_changed_reg_rebuilds(self, gp, extends):
        # Unstandardized responses, so the signal (their variance, when
        # unset) moves when rows are added. reg is 1e-4 by default and
        # noise / signal for a set noise: constant with the signal set too,
        # changed with the signal unset, which rebuilds every row.
        rng = np.random.default_rng(41)
        table = EmbeddingTable(rng.standard_normal((300, 16)))
        white, products, _ = whitened(table.matrix)
        computed = []

        def counted(out, rows):
            computed.append(rows.copy())
            products(out, rows)

        gp = {"length_scale": 4.0, "standardize": False, **gp}
        y = 3.0 + rng.standard_normal(300)
        rows = rng.choice(300, 60, replace=False)
        whitened_scores("gp", white, table, rows[:40], y[rows[:40]], counted, **gp)
        scores = whitened_scores("gp", white, table, rows, y[rows], counted, **gp)
        assert computed[-1].tolist() == (rows[40:] if extends else rows).tolist()
        assert close_scores(scores, fresh_scores("gp", table, rows, y[rows], **gp))

    def test_a_schur_complement_that_is_not_positive_definite_rebuilds(self):
        # Without noise, ten new rows equal to a kept one make the Schur
        # complement zero but for rounding, which leaves it indefinite: the
        # state rebuilds every row, jittered as the fit is (whose factor
        # fails without jitter too), and a later extension keeps that
        # jitter. The responses of the copies are equal, so the jittered
        # fits agree.
        rng = np.random.default_rng(42)
        matrix = rng.standard_normal((300, 6))
        matrix[250:260] = matrix[3]
        table = EmbeddingTable(matrix)
        white, products, _ = whitened(table.matrix)
        computed = []

        def counted(out, rows):
            computed.append(rows.copy())
            products(out, rows)

        gp = {"length_scale": 3.0, "signal_var": 1.0, "noise_var": 0.0, "standardize": False}
        y = rng.standard_normal(300)
        y[250:260] = y[3]
        rows = np.concatenate([np.arange(40), np.arange(250, 260), np.arange(100, 110)])
        whitened_scores("gp", white, table, rows[:40], y[rows[:40]], counted, **gp)
        assert white.jitter == 0.0
        copies = rows[:50]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(GaussianProcess(**gp)._kernel(matrix[copies], matrix[copies]))
        scores = whitened_scores("gp", white, table, copies, y[copies], counted, **gp)
        assert computed[-1].tolist() == copies.tolist()
        assert white.jitter > 0.0
        assert close_scores(scores, fresh_scores("gp", table, copies, y[copies], **gp))
        scores = whitened_scores("gp", white, table, rows, y[rows], counted, **gp)
        assert computed[-1].tolist() == rows[50:].tolist()
        assert close_scores(scores, fresh_scores("gp", table, rows, y[rows], **gp))

    @pytest.mark.parametrize("dim", [8, 64, 768])
    def test_extended_scores_match_fresh_fits(self, dim):
        # Scores from a state built on half the training rows and extended
        # by the rest, against fresh fits on the gathered rows: within 1e-9
        # of the largest score.
        pool = mixture_pool(1, 1200, dim)
        table = pool.embeddings
        rng = np.random.default_rng(dim)
        train = rng.choice(len(pool), min(256, 2 * dim // 3), replace=False)
        y = pool.scores[train]
        gp = {"length_scale": median_heuristic(table.matrix)}
        for kind in ("gp", "linucb"):
            white, products, _ = whitened(table.matrix, train.size)
            half = train.size // 2
            whitened_scores(kind, white, table, train[:half], y[:half], products, **gp)
            scores = whitened_scores(kind, white, table, train, y, products, **gp)
            assert close_scores(scores, fresh_scores(kind, table, train, y, **gp))

    def test_bits_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # The whitening runs in two column halves fixed by the pool size:
        # on one thread or two, the state and the scores have the same bits.
        pool = mixture_pool(2, 1000, 64)
        table = pool.embeddings
        rows = np.arange(0, 300, 3)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(pool_module, "_available_cpus", lambda: workers)
            white, products, _ = whitened(table.matrix)
            whitened_scores("gp", white, table, rows[:60], pool.scores[rows[:60]], products,
                            length_scale=8.0)
            scores = whitened_scores("gp", white, table, rows, pool.scores[rows], products,
                                     length_scale=8.0)
            runs.append((scores, white.sums.copy()))
        assert same_bits(runs[0][0], runs[1][0]) and same_bits(runs[0][1], runs[1][1])


def test_lower_inverse_rejects_singular_factor():
    L = np.tril(np.arange(1.0, 10.0).reshape(3, 3))
    assert np.allclose(_lower_inverse(L.copy()) @ L, np.eye(3), rtol=0, atol=1e-12)
    L[1, 1] = 0.0
    with pytest.raises(NumericalError):
        _lower_inverse(L)


BASE = surrogates._INVERSE_BASE


@pytest.mark.parametrize("n", [1, BASE - 1, BASE, BASE + 1, 2 * BASE + 1, 5 * BASE + 3])
def test_lower_inverse_on_both_sides_of_the_base_case(n):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, n + 4))
    L = np.linalg.cholesky(X @ X.T + 0.5 * np.eye(n))
    before = L.copy()
    G = _lower_inverse(L)
    assert np.array_equal(L, before)  # the factor is not written
    assert not np.triu(G, 1).any()  # exact zeros above the diagonal
    assert np.abs(L @ G - np.eye(n)).max() <= 1e-12
    for pos in {0, n // 2, n - 1}:  # a zero pivot in the first, a middle or the last block
        singular = L.copy()
        singular[pos, pos] = 0.0
        with pytest.raises(NumericalError, match="singular"):
            _lower_inverse(singular)


# Both sides solve the same system from factors of the same matrix, each
# backward stable, so they differ by about cond * 2^-52 relative; the
# systems below are conditioned well enough that 1e-11 holds by a margin.
SOLVE_RTOL = 1e-11


def close_to(computed, oracle):
    return np.abs(computed - oracle).max() <= SOLVE_RTOL * np.abs(oracle).max()


@pytest.mark.parametrize("dim", [5, BASE + 7, 3 * BASE])
def test_linucb_theta_matches_cho_solve(dim):
    rng = np.random.default_rng(dim)
    X = rng.standard_normal((2 * dim, dim))
    model = LinUcb(dim, ridge=0.7)
    model.fit_batch(X, rng.standard_normal(2 * dim))
    assert close_to(model.theta, cho_solve((cholesky(model.A, lower=True), True), model.b))


@pytest.mark.parametrize("n", [5, BASE + 7, 3 * BASE])
def test_whitened_weights_match_cho_solve(n):
    # The factor of a state built on the first rows and extended by the
    # rest: its G^T (G y) solves (X X^T + ridge*I) w = y.
    rng = np.random.default_rng(n)
    X, y = rng.standard_normal((n, 2 * n)), rng.standard_normal(n)
    white, products, sq_norms = whitened(X)
    model = LinUcb(2 * n, ridge=0.5)
    model.dual_scores(white, np.arange(n // 2 + 1), y[: n // 2 + 1], products, sq_norms)
    model.dual_scores(white, np.arange(n), y, products, sq_norms)
    G = white._G[:n, :n]
    assert not np.triu(G, 1).any()
    C = X @ X.T + 0.5 * np.eye(n)
    assert close_to(G.T @ (G @ y), cho_solve((cholesky(C, lower=True), True), y))


@pytest.mark.parametrize("n", [5, BASE + 7, 3 * BASE])
def test_gp_alpha_matches_cho_solve(n):
    rng = np.random.default_rng(n)
    X, y = rng.standard_normal((n, 4)), rng.standard_normal(n)
    gp = GaussianProcess(length_scale=1.5, signal_var=1.0, noise_var=1e-2, standardize=False)
    gp.fit(X, y)
    K = gp._kernel(X, X) + 1e-2 * np.eye(n)
    assert close_to(gp._alpha, cho_solve((cholesky(K, lower=True), True), y))


@pytest.mark.parametrize("kind", ["linucb", "gp"])
def test_bound_needs_observations(kind):
    # Fresh, and refitted on no observations after a fit on some: the bound
    # is a ValueError, not an arithmetic error on the missing fit.
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 4))
    model = LinUcb(4) if kind == "linucb" else GaussianProcess(length_scale=1.0)
    refit = model.fit_batch if kind == "linucb" else model.fit
    for observed in (0, 5, 0):
        refit(X[:observed], rng.standard_normal(observed))
        if observed:
            assert model.bound_fn()(X, np.square(X).sum(axis=1)).shape == (5,)
            continue
        with pytest.raises(ValueError, match="fitted on observations"):
            model.bound_fn()


def test_median_heuristic_basics():
    X = np.array([[0.0], [1.0], [2.0]])
    assert median_heuristic(X) == pytest.approx(1.0)
    assert median_heuristic(np.zeros((5, 2))) == 1.0
    assert median_heuristic(np.zeros((1, 2))) == 1.0


@pytest.mark.parametrize("rows", [2, 3, 4, 41])
@pytest.mark.parametrize("dim", [1, 3, 8, 64, 256, 768])
def test_pairwise_distances_have_the_bits_of_pdist(rows, dim):
    # 2 and 3 rows leave one or two pairs for the last rows.
    rng = np.random.default_rng(rows * 1000 + dim)
    X = rng.standard_normal((rows, dim)) * rng.uniform(0.1, 10.0, dim)
    assert np.array_equal(_pairwise_distances(X), pdist(X))


def test_median_heuristic_has_the_bits_of_pdist_at_512_rows():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((700, 64))
    idx = np.linspace(0, 699, 512).astype(int)
    assert median_heuristic(X) == float(np.median(pdist(X[idx])))


def test_median_heuristic_of_huge_embeddings_is_a_length_scale_error():
    # Distances near 1e160 overflow to inf silently (no RuntimeWarning),
    # and the agent turns the median into its typed error.
    rng = np.random.default_rng(4)
    emb = rng.standard_normal((60, 4)) * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert median_heuristic(emb) == math.inf
        pool = build_pool([f"c{i}" for i in range(60)], rng.standard_normal(60), emb)
        with pytest.raises(NumericalError, match="median-heuristic GP length scale inf"):
            make_agent(ExperimentConfig(agent="gp", batch_size=4), pool, None, None)


class TestSelectTopB:
    def make_memory(self):
        pool = build_pool(
            ["A", "B", "C"], [1.0, 2.0, 3.0], np.eye(3), percentile=50.0
        )
        return CandidateMemory(pool)

    def test_largest_first(self):
        memory = self.make_memory()
        chosen = select_top_b(np.arange(3), np.array([1.0, 2.0, 3.0]), memory, 2)
        assert chosen.tolist() == [2, 1]
        assert memory.unexplored().tolist() == [0]

    def test_ties_by_index(self):
        memory = self.make_memory()
        assert select_top_b(np.arange(3), np.ones(3), memory, 2).tolist() == [0, 1]
        # Ties follow the pool index, not the position in the index array.
        memory = self.make_memory()
        assert select_top_b(np.array([2, 0, 1]), np.ones(3), memory, 2).tolist() == [0, 1]

    def test_b_exceeds_available(self):
        memory = self.make_memory()
        chosen = select_top_b(np.arange(3), np.array([1.0, 3.0, 2.0]), memory, 10)
        assert chosen.tolist() == [1, 2, 0]

    def test_b_must_be_positive(self):
        memory = self.make_memory()
        with pytest.raises(ValueError):
            select_top_b(np.arange(3), np.ones(3), memory, 0)

    def test_scores_must_match_indices(self):
        memory = self.make_memory()
        with pytest.raises(ValueError):
            select_top_b(np.arange(3), np.array([1.0]), memory, 1)

    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]),
            min_size=1,
            max_size=40,
        ),
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 50),
    )
    def test_matches_full_lexsort(self, scores, seed, batch):
        # Heavy ties, +-inf, NaN and batch sizes at or above the size.
        n = len(scores)
        pool = build_pool([f"c{i}" for i in range(n)], np.zeros(n), np.ones((n, 1)),
                          hit_mode="ground-truth-set")
        idx = np.random.default_rng(seed).permutation(n)
        expected = idx[np.lexsort((idx, -np.array(scores)))[:batch]]
        chosen = select_top_b(idx, np.array(scores), CandidateMemory(pool), batch)
        assert chosen.tolist() == expected.tolist()

    def test_matches_sorted_reference_with_ties(self):
        # Reference: a plain sort on (-score, index) over the unexplored set.
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 400))
            pool = random_pool(rng, n, 2)
            memory = CandidateMemory(pool)
            memory.mark_explored([pool.names[i] for i in rng.permutation(n)[: n // 3]])
            idx = memory.unexplored()
            scores = rng.integers(0, 5, idx.size).astype(float)  # many ties
            b = int(rng.integers(1, n + 1))
            ranked = sorted(range(idx.size), key=lambda j: (-scores[j], idx[j]))
            expected = [idx[j] for j in ranked[:b]]
            assert select_top_b(idx, scores, memory, b).tolist() == expected
