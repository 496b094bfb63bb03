from __future__ import annotations

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from expdesign import surrogates
from expdesign.agents import _score_unexplored, make_agent
from expdesign.errors import NumericalError
from expdesign.feedback import Feedback, FeedbackRecord
from expdesign.harness import ExperimentConfig, aggregate_runs, run_many, write_report
from expdesign.memory import CandidateMemory
from expdesign.pool import EmbeddingTable, build_pool
from expdesign.surrogates import (
    GaussianProcess,
    LinUcb,
    _lower_inverse,
    median_heuristic,
    score_blocks,
    select_top_b,
)

from conftest import (
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
        gp = GaussianProcess(signal_var=1.0)
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

    def test_constant_targets_do_not_crash(self):
        gp = GaussianProcess()
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


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestScoreBlocks:
    BLOCK = surrogates._BLOCK_ROWS

    def models(self, rng, table, n_train):
        """A fitted LinUCB, a fitted GP, an unfitted GP and the fitted GP's
        bound, each with its blocked scorer (reading from ``table``) and its
        one-shot scorer."""
        train = rng.choice(len(table), n_train, replace=False)
        y = rng.standard_normal(n_train)
        matrix = table.matrix
        lin = LinUcb(table.dim, ridge=0.5, alpha=1.5)
        lin.fit_batch(matrix[train], y)
        fitted = GaussianProcess(length_scale=float(np.sqrt(table.dim)))
        fitted.fit(matrix[train], y)
        unfitted = GaussianProcess(signal_var=2.0)
        sq_norms = table.sq_norms
        return [
            (lambda rows: lin.score_many(matrix[rows]), lin.score_many),
            (lambda rows: fitted.acquisition(matrix[rows], sq_norms[rows]), fitted.acquisition),
            (lambda rows: unfitted.acquisition(matrix[rows], sq_norms[rows]), unfitted.acquisition),
            (lambda rows: fitted.ucb_bound(matrix[rows], sq_norms[rows]), fitted.ucb_bound),
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
        monkeypatch.setattr(surrogates, "_available_cpus", lambda: workers)
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
        tracemalloc.start()
        try:
            model.acquisition(table.matrix, table.sq_norms, np.arange(self.BLOCK) + 64)
            _, block = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        threaded, peak, _ = self.gp_round(pool, observed, 2, monkeypatch)
        assert threaded.tolist() == batch.tolist()
        assert peak <= serial + block, (peak, serial, block)

    def test_exact_block_drops_its_gather_before_the_product(self):
        # A block of 2048 gathered rows of 256 dims (4 MB) against 256
        # training rows: the kernel block and L^-1 times it are 4 MB each.
        # With the gather alive through the product the peak would be 12 MB.
        rng = np.random.default_rng(6)
        table = EmbeddingTable(rng.standard_normal((self.BLOCK + 300, 256)))
        model = GaussianProcess(length_scale=16.0)
        model.fit(table.matrix[:256], rng.standard_normal(256))
        rows = np.arange(256, 256 + self.BLOCK)
        kernel_bytes = 256 * self.BLOCK * 8
        tracemalloc.start()
        try:
            scores = model.acquisition(table.matrix, table.sq_norms, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same_bits(scores, model.acquisition(table.matrix[rows], table.sq_norms[rows]))
        assert peak < 2 * kernel_bytes + table.matrix[rows].nbytes / 2, peak

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
        models.append(lambda rows: model.acquisition(table.matrix, table.sq_norms, rows))
        monkeypatch.setattr(surrogates, "_available_cpus", lambda: 1)
        reference = {
            (i, size): score_blocks(np.arange(size), blocked)
            for i, blocked in enumerate(models) for size in self.SIZES
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(surrogates, "_available_cpus", lambda: workers)
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
            return model.acquisition(table.matrix, table.sq_norms, rows)

        every = score_blocks(len(table), score)
        for size in (301, self.BLOCK, self.BLOCK + 1, len(table) - 40):
            avail = np.sort(rng.choice(len(table), size, replace=False))
            got = _score_unexplored(avail, len(table), score)
            expected = score_blocks(avail, score) if size <= self.BLOCK else every[avail]
            assert same_bits(got, expected)

    @staticmethod
    def count_thread_starts(monkeypatch) -> list:
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(surrogates.threading, "Thread", Counted)
        return started

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
        monkeypatch.setattr(surrogates, "_available_cpus", lambda: workers)
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
                        monkeypatch.setattr(surrogates, "_available_cpus", lambda: workers)
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
        monkeypatch.setattr(surrogates, "_available_cpus", lambda: workers)
        started = self.count_thread_starts(monkeypatch)
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
        monkeypatch.setattr(surrogates, "_available_cpus", lambda: workers)

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
            monkeypatch.setattr(surrogates, "_available_cpus", lambda: workers)
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


class TestGpShortlist:
    """GpAgent.select against full-pass scoring: same batch, same order, and
    an upper bound at least the exact score bits on every unexplored row."""

    BLOCK = surrogates._BLOCK_ROWS

    def select(self, pool, observed, batch_size=32, **gp):
        """One gp round after ``observed``; returns the model, the unexplored
        indices and their exact scores and bounds from full passes."""
        agent = make_agent(ExperimentConfig(agent="gp", batch_size=batch_size, **gp), pool,
                           None, None)
        memory = CandidateMemory(pool)
        memory.explore(observed)
        feedback = Feedback(tuple(
            FeedbackRecord(pool.names[i], float(pool.scores[i]), False) for i in observed
        ))
        avail = memory.unexplored()
        batch = agent.select(2, memory, feedback, np.random.default_rng(0))
        model, table = agent.model, pool.embeddings

        def full_pass(method):
            return score_blocks(avail, lambda rows: method(table.matrix[rows], table.sq_norms[rows]))

        exact = full_pass(model.acquisition)
        assert batch.tolist() == avail[np.lexsort((avail, -exact))[:batch_size]].tolist()
        bound = full_pass(model.ucb_bound)
        assert np.all(bound >= exact)
        return model, avail, exact, bound

    def check_prefix_deficit(self, model, pool, rows):
        """The variance bound is at least s minus the exact prefix norm."""
        table = pool.embeddings
        k_star = model._kernel(model._X, table.matrix[rows], table.sq_norms[rows])
        var_ub = model._variance_bound(k_star)
        for j in range(rows.size):
            assert Fraction(var_ub[j]) >= prefix_deficit(model, k_star[:, j]), rows[j]

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

    def test_kernel_underflow(self):
        # A length scale so small that every unexplored row's kernel column
        # is exactly 0: all scores tie at the prior and every row is scored.
        rng = np.random.default_rng(7)
        pool = random_pool(rng, self.BLOCK + 700, 5)
        observed = np.arange(50)
        model, avail, exact, bound = self.select(pool, observed, gp_length_scale=1e-3)
        assert np.all(exact == exact[0]) and np.array_equal(bound, exact)
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

    @pytest.mark.parametrize("extra", [0, 1])
    def test_one_block_and_one_more_row(self, extra):
        # 2048 unexplored rows take the full pass; 2049 the shortlist.
        rng = np.random.default_rng(10)
        pool = random_pool(rng, self.BLOCK + extra + 64, 5)
        model, avail, _, _ = self.select(pool, np.arange(64))
        assert avail.size == self.BLOCK + extra

    def test_bound_and_exact_calls_have_one_shape_on_any_cpu_count(self, monkeypatch):
        # The bound's proof holds for a bound and a score computed in calls
        # of one shape: over more than one block, every call of the bound
        # pass and of the exact pass scores half a block, whatever the CPU
        # count, and so the calls and the batch do not depend on it.
        rng = np.random.default_rng(15)
        pool = random_pool(rng, 2 * self.BLOCK + 500, 6)
        observed = rng.choice(len(pool), 90, replace=False)
        feedback = Feedback(tuple(
            FeedbackRecord(pool.names[i], float(pool.scores[i]), False) for i in observed
        ))
        log = {"ucb_bound": [], "acquisition": []}
        for name, calls in log.items():
            def recorded(self, X, sq_norms=None, rows=None,
                         method=getattr(GaussianProcess, name), calls=calls):
                calls.append(len(range(len(X))[rows]) if isinstance(rows, slice) else len(rows))
                return method(self, X, sq_norms, rows)

            monkeypatch.setattr(GaussianProcess, name, recorded)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(surrogates, "_available_cpus", lambda: workers)
            for calls in log.values():
                calls.clear()
            memory = CandidateMemory(pool)
            memory.explore(observed)
            agent = make_agent(ExperimentConfig(agent="gp", batch_size=32), pool, None, None)
            batch = agent.select(2, memory, feedback, np.random.default_rng(0))
            assert log["ucb_bound"] and log["acquisition"]
            assert set(log["ucb_bound"]) | set(log["acquisition"]) == {self.BLOCK // 2}
            runs.append((batch.tolist(), {name: list(calls) for name, calls in log.items()}))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("observed", [64, 0])
    def test_full_pass_computes_no_bound(self, monkeypatch, observed):
        # One block of unexplored rows after 64 observations, and a first
        # round over a pool of more than two blocks: both score every row
        # in one full pass, so the bound is never computed.
        def no_bound(*args):
            raise AssertionError("ucb_bound called")

        monkeypatch.setattr(GaussianProcess, "ucb_bound", no_bound)
        rng = np.random.default_rng(13)
        pool = random_pool(rng, self.BLOCK + 64 if observed else 2 * self.BLOCK + 300, 5)
        memory = CandidateMemory(pool)
        memory.explore(np.arange(observed))
        feedback = Feedback(tuple(
            FeedbackRecord(pool.names[i], float(pool.scores[i]), False) for i in range(observed)
        )) if observed else None
        agent = make_agent(ExperimentConfig(agent="gp", batch_size=32), pool, None, None)
        avail = memory.unexplored()
        batch = agent.select(2 if observed else 1, memory, feedback, np.random.default_rng(0))
        table = pool.embeddings
        exact = score_blocks(avail, lambda rows: agent.model.acquisition(
            table.matrix[rows], table.sq_norms[rows]))
        assert batch.tolist() == avail[np.lexsort((avail, -exact))[:32]].tolist()

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


def test_lower_inverse_rejects_singular_factor():
    L = np.tril(np.arange(1.0, 10.0).reshape(3, 3))
    assert np.allclose(_lower_inverse(L.copy()) @ L, np.eye(3), rtol=0, atol=1e-12)
    L[1, 1] = 0.0
    with pytest.raises(NumericalError):
        _lower_inverse(L)


def test_median_heuristic_basics():
    X = np.array([[0.0], [1.0], [2.0]])
    assert median_heuristic(X) == pytest.approx(1.0)
    assert median_heuristic(np.zeros((5, 2))) == 1.0
    assert median_heuristic(np.zeros((1, 2))) == 1.0


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
