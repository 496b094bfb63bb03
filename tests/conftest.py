from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

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
    """Write a measurements CSV and an embeddings CSV for load_pool tests."""
    meas = directory / f"{stem}-measurements.csv"
    emb = directory / f"{stem}-embeddings.csv"
    with open(meas, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if hits is None:
            writer.writerow(["name", "score"])
            writer.writerows(zip(names, scores))
        else:
            writer.writerow(["name", "score", "hit"])
            writer.writerows(zip(names, scores, hits))
    with open(emb, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for name, row in zip(names, np.asarray(embeddings)):
            writer.writerow([name] + [repr(float(v)) for v in row])
    return meas, emb


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


def naive_nearest_unexplored(pool, explored: set[str], query, k: int) -> list[str]:
    """Independent oracle: plain-python full scan sorted by (distance, index)."""
    import math

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


def direct_nearest(matrix, explored, query, k: int) -> np.ndarray:
    """Bit-faithful oracle: the k unexplored rows of least direct l2-squared
    distance ``np.square(M - q).sum(1)``, by a stable sort, so exact ties go
    to the lower index. ``explored`` is a boolean mask over the rows."""
    rows = np.flatnonzero(~np.asarray(explored))
    dists = np.square(matrix[rows] - query).sum(axis=1)
    return rows[np.argsort(dists, kind="stable")[:k]]


def direct_allocate(matrix, explored, centers, batch_size: int) -> np.ndarray:
    """Center-by-center allocation over :func:`direct_nearest`; centers are
    row indices and ``explored`` is not modified."""
    base, extra = divmod(batch_size, len(centers))
    quotas = [base + 1] * extra + [base] * (len(centers) - extra)
    taken = np.array(explored, dtype=bool)
    out: list[int] = []
    for center, quota in zip(centers, quotas):
        if quota == 0:
            continue
        got = direct_nearest(matrix, taken, matrix[center], quota)
        taken[got] = True
        out.extend(got)
    return np.array(out, dtype=np.intp)
