"""Candidate pools: measurement/embedding ingestion and the hit predicate.

A pool is the immutable universe of an experiment: named candidates with a
real-valued measurement each, one embedding vector per candidate, a distance
metric, and a hit policy that decides which candidates count as discoveries.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DatasetError

METRIC_COSINE = "cosine"
METRIC_L2_SQUARED = "l2-squared"
METRICS = (METRIC_COSINE, METRIC_L2_SQUARED)

MODE_GROUND_TRUTH = "ground-truth-set"
MODE_TOP_PERCENTILE = "top-percentile"
MODE_ABS_TOP_PERCENTILE = "abs-top-percentile"
HIT_MODES = (MODE_GROUND_TRUTH, MODE_TOP_PERCENTILE, MODE_ABS_TOP_PERCENTILE)


class EmbeddingTable:
    """Dense embedding matrix, one row per candidate in pool index order.

    The matrix is copied and frozen at construction.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise DatasetError("embedding matrix must be 2-dimensional")
        if matrix.shape[1] < 1:
            raise DatasetError("embedding dimension must be positive")
        if not np.all(np.isfinite(matrix)):
            raise DatasetError("embedding matrix contains non-finite values")
        self._matrix = matrix.copy()
        self._matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The (n, dim) matrix in pool index order. Read-only."""
        return self._matrix

    def __len__(self) -> int:
        return self._matrix.shape[0]


@dataclass(frozen=True)
class HitPolicy:
    """How hit status is decided for this pool.

    ``threshold`` and ``hits`` are populated by :func:`resolve_hit_policy`;
    for percentile modes the explicit ``hits`` set encodes the tie rule
    (lower pool index wins the last hit slots at the threshold boundary).
    """

    mode: str
    percentile: float = 90.0
    ground_truth: frozenset[str] = frozenset()
    threshold: float | None = None
    hits: frozenset[str] | None = None

    def __post_init__(self):
        if self.mode not in HIT_MODES:
            raise DatasetError(f"unknown hit mode {self.mode!r}")
        if self.mode != MODE_GROUND_TRUTH and not 0.0 < self.percentile < 100.0:
            raise DatasetError("percentile must lie strictly between 0 and 100")


class CandidatePool:
    """Immutable candidate set with scores, embeddings, metric, and hit policy.

    Candidate ``i`` is ``names[i]`` with measurement ``scores[i]`` and
    embedding row ``i``; every array is in this pool index order.
    """

    def __init__(
        self,
        names: Sequence[str],
        scores: Sequence[float] | np.ndarray,
        embeddings: np.ndarray | Sequence[Sequence[float]],
        hit_policy: HitPolicy,
        metric: str,
    ):
        if len(names) == 0:
            raise DatasetError("candidate pool is empty")
        if metric not in METRICS:
            raise DatasetError(f"unknown metric {metric!r}")
        self._names = tuple(names)
        self._scores = np.array(scores, dtype=np.float64)
        if self._scores.shape != (len(self._names),):
            raise DatasetError("names and scores must have equal length")
        self._index = {}
        for i, name in enumerate(self._names):
            if not name:
                raise DatasetError("candidate with empty name")
            if name in self._index:
                raise DatasetError(f"duplicate candidate name {name!r}")
            self._index[name] = i
        bad = np.flatnonzero(~np.isfinite(self._scores))
        if bad.size:
            raise DatasetError(f"non-finite score for {self._names[bad[0]]!r}")
        self._scores.setflags(write=False)
        self._embeddings = EmbeddingTable(embeddings)
        if len(self._embeddings) != len(self._names):
            raise DatasetError(
                f"{len(self._names)} names but {len(self._embeddings)} embedding rows"
            )
        if metric == METRIC_COSINE:
            zero = np.flatnonzero(np.linalg.norm(self._embeddings.matrix, axis=1) == 0.0)
            if zero.size:
                raise DatasetError(
                    "cosine metric needs nonzero embeddings; "
                    f"{self._names[zero[0]]!r} has a zero vector"
                )
        self._metric = metric
        self._hit_policy = hit_policy
        if hit_policy.hits is None:
            self._hit_policy = resolve_hit_policy(self)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def scores(self) -> np.ndarray:
        return self._scores

    @property
    def embeddings(self) -> EmbeddingTable:
        return self._embeddings

    @property
    def metric(self) -> str:
        return self._metric

    @property
    def hit_policy(self) -> HitPolicy:
        return self._hit_policy

    @property
    def hit_names(self) -> frozenset[str]:
        return self._hit_policy.hits or frozenset()

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DatasetError(f"unknown candidate {name!r}") from None

    def is_hit(self, name: str) -> bool:
        """Whether the named candidate counts as a hit under the pool's policy."""
        self.index_of(name)
        return name in self.hit_names


def resolve_hit_policy(pool: CandidatePool) -> HitPolicy:
    """Populate the hit threshold and explicit hit set for a pool's policy.

    Top-percentile with percentile p keeps the k = floor((100 - p)/100 * n)
    largest-scoring candidates as hits; the threshold is the (k+1)-th largest
    score. Score ties at the boundary are broken in favor of the lower pool
    index. The absolute variant applies the same rule to |score|.
    """
    policy = pool.hit_policy
    if policy.mode == MODE_GROUND_TRUTH:
        unknown = sorted(policy.ground_truth - set(pool.names))
        if unknown:
            raise DatasetError(
                f"ground-truth names not present in the pool: {unknown[:5]}"
            )
        return replace(policy, threshold=None, hits=frozenset(policy.ground_truth))

    n = len(pool)
    # (100 - p) stays exact for integer percentiles; avoids 1 - p/100 rounding.
    k = int(math.floor(n * (100.0 - policy.percentile) / 100.0))
    if k == 0:
        raise DatasetError(
            f"top-percentile policy selects zero hits on a pool of {n}; "
            "supply an explicit ground-truth hit set instead"
        )
    key = np.abs(pool.scores) if policy.mode == MODE_ABS_TOP_PERCENTILE else pool.scores
    order = sorted(range(n), key=lambda i: (-key[i], i))
    threshold = float(key[order[k]])
    hits = frozenset(pool.names[i] for i in order[:k])
    return replace(policy, threshold=threshold, hits=hits)


@dataclass(frozen=True)
class IngestOptions:
    """Knobs applied while loading a pool from CSV files.

    ``hit_mode=None`` selects ground-truth-set when the measurements file has
    a ``hit`` column (the gene-screen convention) and top-percentile
    otherwise (the molecular convention). ``element_filter`` drops candidates
    whose SMILES names contain atoms outside the allowed set; ``score_range``
    drops candidates with measurements outside the closed interval.
    """

    metric: str = METRIC_L2_SQUARED
    expected_dim: int | None = None
    hit_mode: str | None = None
    percentile: float = 90.0
    ground_truth: frozenset[str] | None = None
    element_filter: tuple[str, ...] | None = None
    score_range: tuple[float, float] | None = None


_BRACKET_SYMBOL = re.compile(r"^\d*(se|as|[A-Z][a-z]?|[bcnops])")


def smiles_elements(smiles: str) -> frozenset[str]:
    """Element symbols appearing in a SMILES string.

    Handles the organic subset, aromatic lowercase atoms, two-letter halogens,
    and bracket atoms (including isotopes and attached hydrogens). Ring
    digits, bonds, branches, charges, and stereo markers are skipped.
    """
    elements: set[str] = set()
    i = 0
    while i < len(smiles):
        ch = smiles[i]
        if ch == "[":
            end = smiles.find("]", i)
            if end < 0:
                raise DatasetError(f"unterminated bracket atom in SMILES {smiles!r}")
            body = smiles[i + 1 : end]
            m = _BRACKET_SYMBOL.match(body)
            if m:
                sym = m.group(1)
                elements.add(sym.capitalize() if sym.islower() else sym)
                if "H" in body[m.end() :]:
                    elements.add("H")
            i = end + 1
        elif smiles[i : i + 2] in ("Cl", "Br"):
            elements.add(smiles[i : i + 2])
            i += 2
        elif ch in "BCNOPSFI":
            elements.add(ch)
            i += 1
        elif ch in "bcnops":
            elements.add(ch.upper())
            i += 1
        elif ch.isalpha():
            # Not part of the organic subset: count it so restrictive
            # element filters err on the side of dropping the molecule.
            elements.add(ch.upper())
            i += 1
        else:
            i += 1
    return frozenset(elements)


def _read_measurements(path: Path) -> tuple[list[tuple[str, float]], dict[str, bool] | None]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetError(f"{path}: empty measurements file") from None
        if header[:2] != ["name", "score"] or header not in (
            ["name", "score"],
            ["name", "score", "hit"],
        ):
            raise DatasetError(
                f"{path}: expected header 'name,score[,hit]', got {','.join(header)!r}"
            )
        has_hit = len(header) == 3
        rows: list[tuple[str, float]] = []
        hit_flags: dict[str, bool] = {}
        seen: set[str] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetError(f"{path}:{lineno}: expected {len(header)} fields")
            name = row[0]
            if not name:
                raise DatasetError(f"{path}:{lineno}: empty candidate name")
            if name in seen:
                raise DatasetError(f"{path}:{lineno}: duplicate candidate name {name!r}")
            seen.add(name)
            try:
                score = float(row[1])
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: bad score {row[1]!r}") from None
            if not math.isfinite(score):
                raise DatasetError(f"{path}:{lineno}: non-finite score for {name!r}")
            if has_hit:
                if row[2] not in ("0", "1"):
                    raise DatasetError(f"{path}:{lineno}: hit flag must be 0 or 1")
                hit_flags[name] = row[2] == "1"
            rows.append((name, score))
    return rows, (hit_flags if has_hit else None)


def _read_embeddings(path: Path, wanted: set[str]) -> tuple[list[str], np.ndarray]:
    names: list[str] = []
    vectors: list[list[float]] = []
    seen: set[str] = set()
    dim: int | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) < 2:
                raise DatasetError(f"{path}:{lineno}: embedding row needs name + values")
            name = row[0]
            if dim is None:
                dim = len(row) - 1
            elif len(row) - 1 != dim:
                raise DatasetError(
                    f"{path}:{lineno}: ragged embedding row "
                    f"({len(row) - 1} values, expected {dim})"
                )
            if name not in wanted:
                continue
            if name in seen:
                raise DatasetError(f"{path}:{lineno}: duplicate embedding for {name!r}")
            seen.add(name)
            try:
                vec = [float(v) for v in row[1:]]
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: bad embedding value") from None
            if not all(math.isfinite(v) for v in vec):
                raise DatasetError(f"{path}:{lineno}: non-finite embedding value")
            names.append(name)
            vectors.append(vec)
    if dim is None:
        raise DatasetError(f"{path}: empty embeddings file")
    missing = wanted - seen
    if missing:
        raise DatasetError(
            f"{path}: missing embeddings for {len(missing)} candidates, "
            f"e.g. {sorted(missing)[:5]}"
        )
    return names, np.array(vectors, dtype=np.float64)


def load_pool(
    measurements_path: str | Path,
    embeddings_path: str | Path,
    options: IngestOptions | None = None,
) -> CandidatePool:
    """Load a candidate pool from a measurements CSV and an embeddings CSV.

    The measurements file is ``name,score[,hit]`` with a header row; the
    embeddings file is header-less ``name,v1,...,vd``. Embedding rows for
    names absent from the (filtered) measurements are ignored, so one
    embeddings file can serve several pool preparations.
    """
    opts = options or IngestOptions()
    measurements_path = Path(measurements_path)
    embeddings_path = Path(embeddings_path)
    rows, hit_flags = _read_measurements(measurements_path)

    if opts.element_filter is not None:
        allowed = set(opts.element_filter)
        rows = [(n, s) for n, s in rows if smiles_elements(n) <= allowed]
    if opts.score_range is not None:
        lo, hi = opts.score_range
        rows = [(n, s) for n, s in rows if lo <= s <= hi]
    if not rows:
        raise DatasetError(f"{measurements_path}: no candidates left after filtering")

    names = [name for name, _ in rows]
    kept = set(names)

    emb_names, emb_matrix = _read_embeddings(embeddings_path, kept)
    if opts.expected_dim is not None and emb_matrix.shape[1] != opts.expected_dim:
        raise DatasetError(
            f"{embeddings_path}: embedding dim {emb_matrix.shape[1]} "
            f"does not match expected {opts.expected_dim}"
        )
    # Reorder rows into pool order.
    row_of = {n: i for i, n in enumerate(emb_names)}
    emb_matrix = emb_matrix[[row_of[n] for n in names]]

    mode = opts.hit_mode
    if mode is None:
        mode = (
            MODE_GROUND_TRUTH
            if (hit_flags is not None or opts.ground_truth is not None)
            else MODE_TOP_PERCENTILE
        )
    if mode == MODE_GROUND_TRUTH:
        if opts.ground_truth is not None:
            truth = frozenset(opts.ground_truth)
        elif hit_flags is not None:
            truth = frozenset(n for n in kept if hit_flags.get(n, False))
        else:
            raise DatasetError(
                "ground-truth-set mode needs a 'hit' column or an explicit set"
            )
        policy = HitPolicy(mode=mode, ground_truth=truth)
    else:
        policy = HitPolicy(mode=mode, percentile=opts.percentile)

    return CandidatePool(names, [s for _, s in rows], emb_matrix, policy, opts.metric)


def build_pool(
    names: Sequence[str],
    scores: Sequence[float],
    embeddings: np.ndarray | Sequence[Sequence[float]],
    *,
    metric: str = METRIC_L2_SQUARED,
    hit_mode: str = MODE_TOP_PERCENTILE,
    percentile: float = 90.0,
    ground_truth: Iterable[str] = (),
) -> CandidatePool:
    """Assemble a pool from in-memory arrays (synthetic benchmarks, tests)."""
    if hit_mode == MODE_GROUND_TRUTH:
        policy = HitPolicy(mode=hit_mode, ground_truth=frozenset(ground_truth))
    else:
        policy = HitPolicy(mode=hit_mode, percentile=percentile)
    return CandidatePool(names, scores, embeddings, policy, metric)


def write_measurements(pool: CandidatePool, path: str | Path) -> None:
    """Serialize names/scores (and hit flags under ground-truth mode).

    Scores are written with ``repr`` so a reload reproduces them bit-for-bit.
    """
    ground_truth = pool.hit_policy.mode == MODE_GROUND_TRUTH
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "score", "hit"] if ground_truth else ["name", "score"])
        for name, score in zip(pool.names, pool.scores):
            row = [name, repr(float(score))]
            if ground_truth:
                row.append("1" if name in pool.hit_names else "0")
            writer.writerow(row)


def write_embeddings(pool: CandidatePool, path: str | Path) -> None:
    """Serialize the embedding matrix in pool order, bit-for-bit reloadable."""
    matrix = pool.embeddings.matrix
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for name, row in zip(pool.names, matrix):
            writer.writerow([name] + [repr(float(v)) for v in row])
