"""Seeded synthetic candidate pools, written to the CSV formats `load_pool` reads.

Every pool is a pure function of (shape, seed): names, scores, hit flags and
embedding rows come from one numpy generator, and floats are written with
``repr`` so the program reads back exactly the generated values.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_UPPER = np.array(list(string.ascii_uppercase))

# Share of a gene pool in its ground-truth hit set (the top scores), about
# the hit rate of a genome-wide screen.
GENE_HIT_FRAC = 0.03

# SMILES-like building blocks. The first set uses only C, H, N and O; the
# second adds atoms an element filter of C,H,N,O must drop.
_CHNO_TOKENS = ("C", "C", "C", "CC", "N", "O", "CO", "CN", "C(=O)", "C(N)",
                "C(O)", "c1ccccc1", "C#N", "[NH3+]", "N(C)", "OC")
_OTHER_TOKENS = ("F", "Cl", "S", "Br", "C(F)(F)F", "S(=O)(=O)")


@dataclass(frozen=True)
class PoolShape:
    """What one workload's generated pool looks like."""

    kind: str  # "genes" (hit column) or "molecules" (SMILES, no hit column)
    n: int  # candidates the program keeps after ingest filters
    dim: int
    clusters: int
    filtered_extra: int = 0  # extra molecules an element filter drops


@dataclass(frozen=True)
class PoolFiles:
    measurements: Path
    embeddings: Path
    rows: int  # rows written (before ingest filters)

    @property
    def csv_bytes(self) -> int:
        return self.measurements.stat().st_size + self.embeddings.stat().st_size


def _gene_names(rng: np.random.Generator, n: int) -> list[str]:
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n:
        length = int(rng.integers(3, 6))
        name = "".join(_UPPER[rng.integers(0, 26, length)])
        if rng.random() < 0.6:
            name += str(int(rng.integers(1, 30)))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _smiles_names(rng: np.random.Generator, n: int, tokens, seen: set[str],
                  must_have=None) -> list[str]:
    names: list[str] = []
    while len(names) < n:
        picks = [tokens[i] for i in rng.integers(0, len(tokens), int(rng.integers(4, 12)))]
        if must_have is not None:
            picks.insert(int(rng.integers(0, len(picks) + 1)),
                         must_have[int(rng.integers(0, len(must_have)))])
        name = "".join(picks)
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def write_pool(shape: PoolShape, seed: int, directory: Path, stem: str) -> PoolFiles:
    """Generate one pool from ``seed`` and write its two CSV files.

    Embeddings are a Gaussian mixture, and scores rise along one hidden
    direction, so hits cluster in embedding space the way screen hits do.
    """
    rng = np.random.default_rng([seed, shape.n, shape.dim])
    total = shape.n + shape.filtered_extra
    if shape.kind == "genes":
        names = _gene_names(rng, total)
    else:
        seen: set[str] = set()
        names = _smiles_names(rng, shape.n, _CHNO_TOKENS, seen)
        names += _smiles_names(rng, shape.filtered_extra, _CHNO_TOKENS, seen,
                               must_have=_OTHER_TOKENS)
        names = [names[i] for i in rng.permutation(total)]
    centers = rng.standard_normal((shape.clusters, shape.dim)) * 2.0
    member = rng.integers(0, shape.clusters, total)
    emb = centers[member] + rng.standard_normal((total, shape.dim))
    direction = rng.standard_normal(shape.dim)
    direction /= np.linalg.norm(direction)
    scores = emb @ direction + rng.normal(0.0, 0.5, total)

    directory.mkdir(parents=True, exist_ok=True)
    meas = directory / f"{stem}-measurements.csv"
    embf = directory / f"{stem}-embeddings.csv"
    with open(meas, "w", encoding="utf-8", newline="") as fh:
        if shape.kind == "genes":
            k = max(1, int(GENE_HIT_FRAC * total))
            hit = np.zeros(total, dtype=bool)
            hit[np.argsort(-scores, kind="stable")[:k]] = True
            fh.write("name,score,hit\n")
            for name, s, h in zip(names, scores.tolist(), hit.tolist()):
                fh.write(f"{name},{s!r},{int(h)}\n")
        else:
            fh.write("name,score\n")
            for name, s in zip(names, scores.tolist()):
                fh.write(f"{name},{s!r}\n")
    with open(embf, "w", encoding="utf-8", newline="") as fh:
        for name, row in zip(names, emb):
            fh.write(name + "," + ",".join(map(repr, row.tolist())) + "\n")
    return PoolFiles(meas, embf, total)
