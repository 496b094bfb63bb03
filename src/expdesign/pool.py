"""Candidate pools: measurement/embedding ingestion and the hit predicate.

A pool is the immutable universe of an experiment: named candidates with a
real-valued measurement each, one embedding vector per candidate, a distance
metric, and a hit policy that decides which candidates count as discoveries.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DatasetError

METRIC_COSINE = "cosine"
METRIC_L2_SQUARED = "l2-squared"
METRICS = (METRIC_COSINE, METRIC_L2_SQUARED)

MODE_GROUND_TRUTH = "ground-truth-set"
MODE_TOP_PERCENTILE = "top-percentile"
MODE_ABS_TOP_PERCENTILE = "abs-top-percentile"
HIT_MODES = (MODE_GROUND_TRUTH, MODE_TOP_PERCENTILE, MODE_ABS_TOP_PERCENTILE)


# Rows per block of the squared-norm pass (2 MB of squares at d = 256).
_NORM_BLOCK_ROWS = 1024


class EmbeddingTable:
    """Dense embedding matrix, one row per candidate in pool index order.

    The matrix is copied, checked and frozen at construction, together with
    its squared row norms (the l2 scans' expansion and the GP kernel read
    them every round).
    """

    def __init__(self, matrix: np.ndarray | Sequence[Sequence[float]]):
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise DatasetError("embedding matrix must be 2-dimensional")
        if matrix.shape[1] < 1:
            raise DatasetError("embedding dimension must be positive")
        if not np.all(np.isfinite(matrix)):
            raise DatasetError("embedding matrix contains non-finite values")
        self._freeze(matrix)

    @classmethod
    def _adopt(cls, matrix: np.ndarray) -> EmbeddingTable:
        """A table that takes over a matrix nothing else holds, which the
        caller has checked: float64, 2-d, positive width, finite. Neither
        copied nor scanned again."""
        table = cls.__new__(cls)
        table._freeze(matrix)
        return table

    def _freeze(self, matrix: np.ndarray) -> None:
        """Own ``matrix`` read-only, with its squared row norms."""
        self._matrix = matrix
        self._matrix.setflags(write=False)
        # np.square(row).sum() row by row, as the GP kernel computes them, in
        # row blocks so the squares never take a second matrix. Huge finite
        # rows overflow to inf; the l2 scans rank those directly.
        self._sq_norms = np.empty(len(self._matrix))
        with np.errstate(over="ignore"):
            for start in range(0, len(self._matrix), _NORM_BLOCK_ROWS):
                rows = self._matrix[start : start + _NORM_BLOCK_ROWS]
                self._sq_norms[start : start + len(rows)] = np.square(rows).sum(axis=1)
        self._sq_norms.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The (n, dim) matrix in pool index order. Read-only."""
        return self._matrix

    @property
    def sq_norms(self) -> np.ndarray:
        """Squared L2 norm of every row, in pool index order. Read-only."""
        return self._sq_norms

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
    embedding row ``i``; every array is in this pool index order. An
    ``embeddings`` table is used as it is; any other matrix is copied into
    a new one.
    """

    def __init__(
        self,
        names: Sequence[str],
        scores: Sequence[float] | np.ndarray,
        embeddings: EmbeddingTable | np.ndarray | Sequence[Sequence[float]],
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
        if not isinstance(embeddings, EmbeddingTable):
            embeddings = EmbeddingTable(embeddings)
        self._embeddings = embeddings
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

    @functools.cached_property
    def hit_mask(self) -> np.ndarray:
        """Read-only bool array, True at the pool indices of hits."""
        hits = self.hit_names
        mask = np.fromiter((name in hits for name in self._names), bool, len(self))
        mask.setflags(write=False)
        return mask


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


@contextlib.contextmanager
def _csv_reader(path: Path) -> Iterator[Iterator[list[str]]]:
    """A CSV reader over a UTF-8 file. A file that cannot be opened, read,
    decoded or parsed as CSV is a DatasetError naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            yield reader
    except csv.Error as exc:
        raise DatasetError(f"{path}:{reader.line_num}: malformed CSV: {exc}") from None
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: {exc.reason})"
        ) from None


def _read_measurements(path: Path) -> tuple[list[tuple[str, float]], dict[str, bool] | None]:
    with _csv_reader(path) as reader:
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
        for row in reader:
            lineno = reader.line_num
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


# Bytes a value part may hold for the plain parse: digits, signs, the
# decimal point, exponents, and the delimiter.
_PLAIN_VALUE_BYTES = b"0123456789+-.eE,"


class _NotPlain(Exception):
    """A line the plain parse does not vouch for; the csv reader takes over."""


def _plain_value_parts(lines: Iterable[str], wanted: set[str], names: list[str]) -> Iterator[str]:
    """The value parts of the wanted rows in file order, their names appended
    to ``names``. Raises _NotPlain at the first line that the csv module could
    split differently, or that holds anything but plain decimal literals."""
    # The csv module fails on a field longer than this, and before Python
    # 3.11 on any NUL.
    limit = csv.field_size_limit()
    commas = None
    seen: set[str] = set()
    for line in lines:
        if line == "\n":
            continue
        line = line.removesuffix("\n")
        cut = line.find(",")
        name, rest = line[:cut], line[cut + 1 :]
        if (
            cut < 0
            or not rest
            or '"' in name
            or "\r" in name
            or "\0" in name
            or len(name) > limit
            or rest.encode().translate(None, _PLAIN_VALUE_BYTES)
        ):
            raise _NotPlain
        wanted_row = name in wanted
        # Every row must have the first row's width. loadtxt rejects a wanted
        # row whose width differs from the first wanted row's, so only the
        # first row, the first wanted row and unwanted rows are counted here.
        if commas is None or not wanted_row or not names:
            count = rest.count(",")
            if commas is None:
                commas = count
            elif count != commas:
                raise _NotPlain
        if len(rest) > limit and max(map(len, rest.split(","))) > limit:
            raise _NotPlain
        if not wanted_row:
            continue
        if name in seen:
            raise _NotPlain
        seen.add(name)
        names.append(name)
        yield rest


def _read_embeddings(path: Path, wanted: set[str]) -> tuple[list[str], np.ndarray]:
    """Names and matrix of the wanted embedding rows, in file order.

    Files as :func:`write_embeddings` writes them (unquoted names, LF line
    ends, plain decimal literals) are parsed in one streamed ``np.loadtxt``
    pass over the value parts of the wanted rows; every other file, and
    every error, goes to the csv reader (:func:`_read_embeddings_csv`).

    The plain parse is accepted only when it yields what the csv reader
    would. Each line must be split by the csv module exactly at its commas
    (no quote, carriage return or NUL in the name, no field over the csv
    field size limit), and every row must have the first row's width. A
    value part may hold only the bytes ``0-9 + - . e E ,`` and must not be
    empty; on such literals numpy's parser and ``float()`` both call
    CPython's ``PyOS_string_to_double``, so the bits are the same. That
    alphabet also shuts out what loadtxt accepts and ``float()`` does not
    (a trailing control character 0x1c-0x1f), and what ``float()`` accepts
    and loadtxt does not (``1_0``, non-ASCII digits). Afterwards the matrix
    must be finite, of shape (rows, width), and every wanted name must have
    been seen once.
    """
    names: list[str] = []
    matrix = None
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            values = _plain_value_parts(fh, wanted, names)
            first = next(values, None)
            # No wanted row at all is an error; loadtxt would only warn.
            if first is not None:
                matrix = np.loadtxt(
                    itertools.chain([first], values),
                    delimiter=",",
                    comments=None,
                    quotechar=None,
                    dtype=np.float64,
                    ndmin=2,
                )
    except (_NotPlain, OSError, ValueError):
        # ValueError: a literal loadtxt rejects, or bytes that are not UTF-8.
        # The csv reader reads the file again and reports the first error.
        matrix = None
    if (
        matrix is not None
        and matrix.shape == (len(names), first.count(",") + 1)
        and len(names) == len(wanted)
        and np.isfinite(matrix).all()
    ):
        return names, matrix
    return _read_embeddings_csv(path, wanted)


def _read_embeddings_csv(path: Path, wanted: set[str]) -> tuple[list[str], np.ndarray]:
    """The csv reader: reads any valid file, and raises every embeddings DatasetError."""
    names: list[str] = []
    vectors: list[list[float]] = []
    seen: set[str] = set()
    dim: int | None = None
    with _csv_reader(path) as reader:
        for row in reader:
            lineno = reader.line_num
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
    if emb_names != names:  # reorder rows into pool order
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

    # The readers return a fresh finite matrix; the table takes it over.
    table = EmbeddingTable._adopt(emb_matrix)
    return CandidatePool(names, [s for _, s in rows], table, policy, opts.metric)


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
