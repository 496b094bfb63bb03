from __future__ import annotations

import csv
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from expdesign import memory as memory_module
from expdesign import pool as pool_module
from expdesign.pool import build_pool

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


def write_dataset(
    directory: Path,
    names,
    scores,
    embeddings,
    hits=None,
    stem: str = "pool",
) -> tuple[Path, Path]:
    """Write a measurements CSV and an embeddings CSV for load_pool tests,
    with LF line ends (as ``write_embeddings`` writes them), so the
    embeddings take the plain parse."""
    meas = directory / f"{stem}-measurements.csv"
    emb = directory / f"{stem}-embeddings.csv"
    with open(meas, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if hits is None:
            writer.writerow(["name", "score"])
            writer.writerows(zip(names, scores))
        else:
            writer.writerow(["name", "score", "hit"])
            writer.writerows(zip(names, scores, hits))
    with open(emb, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for name, row in zip(names, np.asarray(embeddings)):
            writer.writerow([name] + [repr(float(v)) for v in row])
    return meas, emb


@pytest.fixture
def threaded_scan(monkeypatch):
    """Memory scans cut into spans of a few rows, and every
    ``pool._on_threads`` call run on up to three threads (more than the
    CPUs a test machine may have), which switch as often as the interpreter
    lets them."""
    monkeypatch.setattr(memory_module, "_SPAN_ROWS", 7)
    monkeypatch.setattr(pool_module, "_available_cpus", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def count_thread_starts(monkeypatch) -> list:
    """The threads started from now on, in a list that grows as they start."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@pytest.fixture
def line_pool():
    """1-dim pool A=[0], B=[1], C=[2], D=[3]; hits = {D} (top 25%)."""
    return build_pool(
        ["A", "B", "C", "D"],
        [0.0, 1.0, 2.0, 3.0],
        np.array([[0.0], [1.0], [2.0], [3.0]]),
        percentile=75.0,
    )


def random_pool(rng: np.random.Generator, n: int, dim: int, metric: str = "l2-squared"):
    """Synthetic pool with distinct integer scores and gaussian embeddings."""
    names = [f"c{i:05d}" for i in range(n)]
    scores = rng.permutation(n).astype(float)
    emb = rng.standard_normal((n, dim))
    if metric == "cosine":
        emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    return build_pool(names, scores, emb, metric=metric)


def name_hit_oracle(names, scores, mode: str, percentile: float, ground_truth):
    """The name-based hit rule: (hit names, threshold), or None when a
    percentile mode selects no hit. Percentile modes rank by the Python sort
    key (-score, index), on |score| for the absolute mode, and keep the
    first floor(n * (100 - p) / 100); the threshold is the next key."""
    if mode == "ground-truth-set":
        return frozenset(ground_truth), None
    n = len(names)
    k = int(math.floor(n * (100.0 - percentile) / 100.0))
    if k == 0:
        return None
    key = [abs(s) for s in scores] if mode == "abs-top-percentile" else list(scores)
    order = sorted(range(n), key=lambda i: (-key[i], i))
    return frozenset(names[i] for i in order[:k]), float(key[order[k]])


def naive_nearest_unexplored(pool, explored: set[str], query, k: int) -> list[str]:
    """Independent oracle: plain-python full scan sorted by (distance, index)."""
    scored = []
    for i, name in enumerate(pool.names):
        if name in explored:
            continue
        vec = pool.embeddings.matrix[i]
        if pool.metric == "l2-squared":
            d = sum((float(a) - float(b)) ** 2 for a, b in zip(vec, query))
        else:
            dot = sum(float(a) * float(b) for a, b in zip(vec, query))
            na = math.sqrt(sum(float(a) ** 2 for a in vec))
            nb = math.sqrt(sum(float(b) ** 2 for b in query))
            d = 1.0 - dot / (na * nb)
        scored.append((d, i, name))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [name for _, _, name in scored[:k]]


def naive_allocate(pool, explored: set[str], centers, batch_size: int) -> list[str]:
    """Independent oracle for center-by-center allocation with dedup."""
    base, extra = divmod(batch_size, len(centers))
    quotas = [base + 1] * extra + [base] * (len(centers) - extra)
    taken = set(explored)
    out: list[str] = []
    for center, quota in zip(centers, quotas):
        if quota == 0:
            continue
        got = naive_nearest_unexplored(pool, taken, center, quota)
        taken.update(got)
        out.extend(got)
    return out


def direct_nearest(matrix, explored, query, k: int, metric: str = "l2-squared") -> np.ndarray:
    """Bit-faithful oracle: the k unexplored rows of least direct distance,
    ``np.square(M - q).sum(1)`` under l2-squared and
    ``embedding_distances(M, q, "cosine")`` over the whole matrix under
    cosine, by a stable sort, so exact ties go to the lower index and NaN
    comes last. ``explored`` is a boolean mask over the rows."""
    from expdesign.memory import embedding_distances

    rows = np.flatnonzero(~np.asarray(explored))
    if metric == "cosine":
        dists = embedding_distances(matrix, query, metric)[rows]
    else:
        dists = np.square(matrix[rows] - query).sum(axis=1)
    return rows[np.argsort(dists, kind="stable")[:k]]


def direct_allocate(
    matrix, explored, centers, batch_size: int, metric: str = "l2-squared"
) -> np.ndarray:
    """Center-by-center allocation over :func:`direct_nearest`; centers are
    row indices and ``explored`` is not modified."""
    base, extra = divmod(batch_size, len(centers))
    quotas = [base + 1] * extra + [base] * (len(centers) - extra)
    taken = np.array(explored, dtype=bool)
    out: list[int] = []
    for center, quota in zip(centers, quotas):
        if quota == 0:
            continue
        got = direct_nearest(matrix, taken, matrix[center], quota, metric)
        taken[got] = True
        out.extend(got)
    return np.array(out, dtype=np.intp)


def coreset_oracle(memory, batch_size: int) -> np.ndarray:
    """Greedy farthest-point selection rebuilt from scratch: the cover
    starts as every explored row, each row absorbed by a full direct scan;
    with nothing explored the lowest unexplored index seeds it. Each step
    picks the unexplored row farthest from the cover, ties to the lower
    index. Selections are marked explored."""
    from expdesign.memory import embedding_distances

    pool = memory.pool
    matrix = pool.embeddings.matrix
    n = len(pool)
    unexplored = memory.unexplored()
    if unexplored.size == 0:
        return unexplored
    avail = np.zeros(n, dtype=bool)
    avail[unexplored] = True
    min_dist = np.full(n, np.inf)

    def absorb(vec):
        np.minimum(min_dist, embedding_distances(matrix, vec, pool.metric), out=min_dist)

    selected: list[int] = []
    for i in np.flatnonzero(~avail):
        absorb(matrix[i])
    if unexplored.size == n:
        first = int(unexplored[0])
        selected.append(first)
        avail[first] = False
        absorb(matrix[first])
    while len(selected) < batch_size and avail.any():
        pick = int(np.argmax(np.where(avail, min_dist, -np.inf)))
        selected.append(pick)
        avail[pick] = False
        absorb(matrix[pick])
    chosen = np.array(selected, dtype=np.intp)
    memory.explore(chosen)
    return chosen


def ridge_theta(xs, ys, lam):
    """Independent closed-form ridge solution (lam*I + X^T X)^-1 X^T y."""
    X = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    d = X.shape[1]
    return np.linalg.solve(lam * np.eye(d) + X.T @ X, X.T @ y)


def linucb_direct(X, y, lam, alpha, Xq) -> np.ndarray:
    """LinUCB scores x.theta + alpha * sqrt(x^T (lam*I + X^T X)^-1 x) by dense
    solves, one query row at a time."""
    X = np.asarray(X, dtype=float)
    A = lam * np.eye(X.shape[1]) + X.T @ X
    theta = np.linalg.solve(A, X.T @ np.asarray(y, dtype=float))
    return np.array(
        [x @ theta + alpha * np.sqrt(x @ np.linalg.solve(A, x)) for x in np.asarray(Xq, float)]
    )


def textbook_gp(X, y, Xq, length, signal, noise):
    """Direct implementation of the GP posterior equations via matrix inverse."""
    X = np.asarray(X, float)
    Xq = np.asarray(Xq, float)
    y = np.asarray(y, float)

    def k(A, B):
        sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
        return signal * np.exp(-0.5 * sq / length**2)

    Kinv = np.linalg.inv(k(X, X) + noise * np.eye(len(X)))
    ks = k(X, Xq)
    mean = ks.T @ Kinv @ y
    var = signal - np.einsum("ij,jk,ki->i", ks.T, Kinv, ks)
    return mean, var


def one_expression_rbf(A, B, length, signal) -> np.ndarray:
    """The RBF kernel in expanded form as one expression with temporaries;
    ``GaussianProcess._kernel`` must reproduce its bits."""
    sq = (
        np.square(A).sum(axis=1)[:, None]
        + np.square(B).sum(axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.clip(sq, 0.0, None, out=sq)
    return signal * np.exp(-0.5 * sq / (length**2))
