"""Candidate pools: measurement/embedding ingestion and the hit predicate.

A pool is the immutable universe of an experiment: named candidates with a
real-valued measurement each, one embedding vector per candidate, a distance
metric, and a hit policy that decides which candidates count as discoveries.
Every pool, loaded (:func:`load_pool`) or built in memory
(``build_pool``, another name for the class), is made by one
:class:`CandidatePool` call, which
resolves its hits once into a read-only bool mask over pool indices. Names
matter only at the edges: a ground-truth hit set arrives as names and is
turned into indices there, and ``is_hit`` and ``hit_names`` read the mask.

Embeddings ingest (:func:`_read_embeddings`) parses a plain file (unquoted
names, LF line ends, plain decimal literals) with ``np.loadtxt``, and any
other file with the csv reader, to the same names and bits. A plain file of
at least two ``_SPLIT_MIN_BYTES`` is cut at line starts into one byte range
per CPU, and, on Linux and while the process runs one OS thread, ranges
after the first are parsed by forked children (:func:`_read_plain`). The
children's memory is their own: it does not show in this process's
``RUSAGE_SELF`` peak resident size. Every child is reaped before the load
returns or raises. numpy's BLAS starts its threads at import unless
``OPENBLAS_NUM_THREADS=1`` (or ``OMP_NUM_THREADS=1``), and then the whole
file is parsed in this process.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import itertools
import math
import os
import re
import signal
import struct
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import DatasetError, ExpdesignError

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
    them every round). ``_length_scales`` memoizes the GP agent's median
    heuristic over the matrix, keyed by subsample size.
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
        self._length_scales: dict[int, float] = {}

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
    """How a pool decides its hits, as :func:`resolve_hit_policy` resolved it.

    ``percentile`` applies to the two percentile modes; ``threshold`` is the
    score (or |score|) of the best candidate that is not a hit there, and
    None under ground-truth-set. The hits themselves are the pool's
    :attr:`CandidatePool.hit_mask`.
    """

    mode: str
    percentile: float
    threshold: float | None


class CandidatePool:
    """Immutable candidate set with scores, embeddings, metric, and hit policy.

    Candidate ``i`` is ``names[i]`` with measurement ``scores[i]`` and
    embedding row ``i``; every array is in this pool index order. An
    ``embeddings`` table is used as it is; any other matrix is copied into
    a new one. The hit set is resolved once, at construction, from
    ``hit_mode``, ``percentile`` and the ``ground_truth`` names; the
    defaults (l2-squared, top 10% of scores) suit in-memory pools, which
    are built by this constructor too (``build_pool`` names it). A cosine
    pool rejects a row whose squared norm is 0.
    """

    def __init__(
        self,
        names: Sequence[str],
        scores: Sequence[float] | np.ndarray,
        embeddings: EmbeddingTable | np.ndarray | Sequence[Sequence[float]],
        *,
        metric: str = METRIC_L2_SQUARED,
        hit_mode: str = MODE_TOP_PERCENTILE,
        percentile: float = 90.0,
        ground_truth: Iterable[str] = (),
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
            zero = np.flatnonzero(self._embeddings.sq_norms == 0.0)
            if zero.size:
                raise DatasetError(
                    "cosine metric needs nonzero embeddings; "
                    f"{self._names[zero[0]]!r} has a zero vector"
                )
        self._metric = metric
        self._hit_policy, self._hit_mask = resolve_hit_policy(
            self, hit_mode, percentile, ground_truth
        )

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
    def hit_mask(self) -> np.ndarray:
        """Read-only bool array, True at the pool indices of hits."""
        return self._hit_mask

    @property
    def hit_names(self) -> frozenset[str]:
        return frozenset(self._names[i] for i in np.flatnonzero(self._hit_mask))

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
        return bool(self._hit_mask[self.index_of(name)])


def resolve_hit_policy(
    pool: CandidatePool, mode: str, percentile: float, ground_truth: Iterable[str]
) -> tuple[HitPolicy, np.ndarray]:
    """A pool's hit policy and its hits, as a read-only bool mask over pool
    indices.

    Ground-truth-set makes the ``ground_truth`` names the hits; each must be
    in the pool. Top-percentile with percentile p keeps the
    k = floor((100 - p)/100 * n) largest-scoring candidates as hits; the
    threshold is the (k+1)-th largest score. Score ties at the boundary are
    broken in favor of the lower pool index. The absolute variant applies
    the same rule to |score|.
    """
    if mode not in HIT_MODES:
        raise DatasetError(f"unknown hit mode {mode!r}")
    mask = np.zeros(len(pool), dtype=bool)
    threshold = None
    if mode == MODE_GROUND_TRUTH:
        truth = set(ground_truth)
        unknown = sorted(name for name in truth if name not in pool)
        if unknown:
            raise DatasetError(
                f"ground-truth names not present in the pool: {unknown[:5]}"
            )
        mask[[pool.index_of(name) for name in truth]] = True
    else:
        if not 0.0 < percentile < 100.0:
            raise DatasetError("percentile must lie strictly between 0 and 100")
        n = len(pool)
        # (100 - p) stays exact for integer percentiles; avoids 1 - p/100 rounding.
        k = int(math.floor(n * (100.0 - percentile) / 100.0))
        if k == 0:
            raise DatasetError(
                f"top-percentile policy selects zero hits on a pool of {n}; "
                "supply an explicit ground-truth hit set instead"
            )
        key = np.abs(pool.scores) if mode == MODE_ABS_TOP_PERCENTILE else pool.scores
        # Stable: equal keys (-0.0 equals 0.0) keep ascending pool index.
        order = np.argsort(-key, kind="stable")
        threshold = float(key[order[k]])
        mask[order[:k]] = True
    mask.setflags(write=False)
    return HitPolicy(mode, percentile, threshold), mask


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
def _csv_reader(
    path: Path, error: type[ExpdesignError] = DatasetError
) -> Iterator[Iterator[list[str]]]:
    """A CSV reader over a UTF-8 file. A file that cannot be opened, read,
    decoded or parsed as CSV is an ``error`` naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            yield reader
    except csv.Error as exc:
        raise error(f"{path}:{reader.line_num}: malformed CSV: {exc}") from None
    except OSError as exc:
        raise error(f"{path}: cannot read file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: {exc.reason})"
        ) from None


def _read_measurements(path: Path) -> tuple[list[tuple[str, float, bool]], bool]:
    """The ``(name, score, hit)`` rows of a measurements file, and whether it
    has a ``hit`` column (without one every hit flag is False)."""
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
        rows: list[tuple[str, float, bool]] = []
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
            if has_hit and row[2] not in ("0", "1"):
                raise DatasetError(f"{path}:{lineno}: hit flag must be 0 or 1")
            rows.append((name, score, has_hit and row[2] == "1"))
    return rows, has_hit


# Bytes a value part may hold for the plain parse: digits, signs, the
# decimal point, exponents, and the delimiter.
_PLAIN_VALUE_BYTES = b"0123456789+-.eE,"


class _NotPlain(Exception):
    """A line the plain parse does not vouch for; the csv reader takes over."""


def _plain_value_parts(
    lines: Iterable[str], wanted: set[str], names: list[str], commas: int
) -> Iterator[str]:
    """The value parts of the wanted rows in file order, their names appended
    to ``names``. Raises _NotPlain at the first line that the csv module could
    split differently, that holds anything but plain decimal literals, or
    whose value part has other than ``commas`` commas."""
    # The csv module fails on a field longer than this, and before Python
    # 3.11 on any NUL.
    limit = csv.field_size_limit()
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
        # first wanted row and unwanted rows are counted here.
        if (not wanted_row or not names) and rest.count(",") != commas:
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


# Embeddings files of at least twice this size are parsed by several
# processes, one range of lines each, of at least this size; such a range
# parses in about 90 ms on one CPU. Forking and reaping a 180 MB process
# takes about 2.5 ms, but the first fork also costs 4-8 MB of resident
# memory for the rest of the process: OpenBLAS's fork handler makes it take
# fresh work buffers, and the pages of the old ones stay resident.
_SPLIT_MIN_BYTES = 4 << 20


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


_Item = TypeVar("_Item")

# What a worker of _on_threads takes when no item is left for it.
_NO_ITEM = object()


def _on_threads(task: Callable[[_Item], None], items: Sequence[_Item], workers: int) -> None:
    """``task(item)`` for every item, on ``workers`` threads counting the
    calling one (with at most one, only the calling thread runs), each
    taking the next item when done with its last. After an exception no
    item is started, and the first is re-raised once all threads have
    stopped."""
    pending = iter(items)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work() -> None:
        while True:
            with lock:
                item = _NO_ITEM if errors else next(pending, _NO_ITEM)
            if item is _NO_ITEM:
                return
            try:
                task(item)
            except BaseException as exc:  # re-raised in the caller
                with lock:
                    errors.append(exc)
                return

    # Each thread runs in a copy of the caller's context, so that settings
    # kept in context variables (numpy's errstate) hold for its items too.
    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(work,))
        for _ in range(workers - 1)
    ]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _may_fork() -> bool:
    """Whether this process may fork parsers: on Linux, and only while it
    runs one OS thread. A fork copies just the calling thread, so a lock
    that another thread holds (in the allocator, in a library's thread
    pool) would stay locked in the child."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _read_embeddings(path: Path, wanted: set[str]) -> tuple[list[str], np.ndarray]:
    """Names and matrix of the wanted embedding rows, in file order.

    Files as :func:`write_embeddings` writes them (unquoted names, LF line
    ends, plain decimal literals) are parsed by streaming the value parts of
    the wanted rows into ``np.loadtxt`` (:func:`_read_plain`); every other
    file, and every error, goes to the csv reader
    (:func:`_read_embeddings_csv`).

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
    try:
        return _read_plain(path, wanted)
    except (_NotPlain, OSError, ValueError):
        # ValueError: a literal loadtxt rejects, or bytes that are not UTF-8.
        pass
    # The csv reader reads the file again and reports the first error.
    return _read_embeddings_csv(path, wanted)


def _read_plain(path: Path, wanted: set[str]) -> tuple[list[str], np.ndarray]:
    """The plain parse, on k = min(CPUs, size // _SPLIT_MIN_BYTES) processes.

    The file is cut into k byte ranges of about equal size, each moved
    forward to a line start. This process parses the first range; ranges
    2..k go to forked children, which send their names and raw float64 rows
    back over a pipe, read in file order into one preallocated matrix. Every
    range must have the first line's width, and the names of all ranges
    must be the wanted names, each once. With k = 1 (one CPU, a small file,
    not Linux, or more than one OS thread here) this process parses the
    whole file and forks nothing. Every child is reaped before this returns
    or raises; where the parse is not accepted (any range rejects its lines,
    a child fails, or the ranges disagree), the children are killed first.
    Raises _NotPlain, OSError or ValueError where the csv reader must read
    the file.
    """
    starts, commas = _range_starts(path)
    ends = [*starts[1:], None]
    children: list[tuple[int, int]] = []
    accepted = False
    try:
        for start, end in zip(starts[1:], ends[1:]):
            children.append(
                _fork_range(path, wanted, start, end, commas, [fd for _, fd in children])
            )
        names, matrix = _parse_range(path, wanted, 0, ends[0], commas)
        if children:
            own, matrix = matrix, np.empty((len(wanted), commas + 1))
            if own is not None:
                matrix[: len(own)] = own
            del own
            for _, fd in children:
                _receive_range(fd, names, matrix)
        if matrix is None or len(names) != len(wanted) or len(set(names)) != len(names):
            raise _NotPlain
        accepted = True
    finally:
        for pid, fd in children:
            os.close(fd)
            if not accepted:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    if any(statuses):
        raise _NotPlain
    return names, matrix


def _range_starts(path: Path) -> tuple[list[int], int]:
    """The byte offsets at which the plain parse's ranges start, the first
    0, and the comma count of the value part of the file's first line,
    which every row must match."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        k = min(_available_cpus(), size // _SPLIT_MIN_BYTES)
        if k < 2 or not _may_fork():
            k = 1
        starts = [0]
        for i in range(1, k):
            # The byte before the cut ends a line, or readline skips the
            # rest of the line the cut falls in.
            fh.seek(i * size // k - 1)
            fh.readline()
            if starts[-1] < fh.tell() < size:
                starts.append(fh.tell())
        fh.seek(0)
        first = next((line for line in fh if line != b"\n"), b"")
    # A first line without a comma leaves -1, which no row matches.
    return starts, first.count(b",") - 1


def _parse_range(
    path: Path, wanted: set[str], start: int, end: int | None, commas: int
) -> tuple[list[str], np.ndarray | None]:
    """Names and finite matrix of the wanted rows between the byte offsets
    ``start`` and ``end`` (a line start, or None for the end of the file),
    parsed by one ``np.loadtxt`` call; the matrix is None without a wanted
    row. Raises _NotPlain, OSError or ValueError as :func:`_read_plain`."""
    names: list[str] = []
    with open(path, encoding="utf-8", newline="\n") as fh:
        # A line start is a position that fh.tell() could return: no
        # character is split there, so the decoder starts afresh.
        fh.seek(start)
        lines = fh if end is None else _lines_within(fh, end - start)
        values = _plain_value_parts(lines, wanted, names, commas)
        first = next(values, None)
        # No wanted row at all is left to the caller; loadtxt would warn.
        if first is None:
            return names, None
        matrix = np.loadtxt(
            itertools.chain([first], values),
            delimiter=",",
            comments=None,
            quotechar=None,
            dtype=np.float64,
            ndmin=2,
        )
    if matrix.shape != (len(names), commas + 1) or not np.isfinite(matrix).all():
        raise _NotPlain
    return names, matrix


def _lines_within(lines: Iterable[str], size: int) -> Iterator[str]:
    """The first lines of ``lines`` that take up ``size`` bytes in UTF-8."""
    for line in lines:
        yield line
        size -= len(line) if line.isascii() else len(line.encode())
        if size <= 0:
            return


def _fork_range(
    path: Path,
    wanted: set[str],
    start: int,
    end: int | None,
    commas: int,
    inherited: list[int],
) -> tuple[int, int]:
    """Fork a child that parses one range (:func:`_parse_range`), writes its
    name count, the byte length of its names, the names joined by LF (which
    no line holds) and its raw float64 rows to a pipe, and exits; the child
    exits 1 without a word on any error. Returns the child's pid and the
    read end of its pipe. ``inherited`` are the read ends of earlier
    children, which the child closes: a process holding a read end would
    keep a writer blocked on a full pipe that this process stopped reading."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child: parse, write, exit
        status = 1
        try:
            for fd in (read_fd, *inherited):
                os.close(fd)
            names, matrix = _parse_range(path, wanted, start, end, commas)
            blob = "\n".join(names).encode()
            with open(write_fd, "wb") as out:
                out.write(struct.pack("<qq", len(names), len(blob)))
                out.write(blob)
                if matrix is not None:
                    out.write(memoryview(matrix).cast("B"))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _receive_range(fd: int, names: list[str], matrix: np.ndarray) -> None:
    """Read a child's names onto ``names`` and its rows into ``matrix`` after
    the rows so far. Raises _NotPlain where the child sent less, or more
    rows than ``matrix`` has left."""
    header = bytearray(16)
    _fill(fd, memoryview(header))
    count, size = struct.unpack("<qq", header)
    row = len(names)
    if row + count > len(matrix):
        raise _NotPlain
    if count:
        blob = bytearray(size)
        _fill(fd, memoryview(blob))
        names.extend(blob.decode().split("\n"))
        if len(names) != row + count:
            raise _NotPlain
        _fill(fd, memoryview(matrix[row : row + count]).cast("B"))


def _fill(fd: int, view: memoryview) -> None:
    """Fill ``view`` from ``fd``; an early end (a child that failed) raises
    _NotPlain."""
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise _NotPlain
        view = view[got:]


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
    measurements: str | Path,
    embeddings: str | Path,
    *,
    metric: str = METRIC_L2_SQUARED,
    expected_dim: int | None = None,
    hit_mode: str | None = None,
    percentile: float = 90.0,
    element_filter: Sequence[str] | None = None,
    score_range: tuple[float, float] | None = None,
) -> CandidatePool:
    """Load a candidate pool from a measurements CSV and an embeddings CSV.

    The measurements file is ``name,score[,hit]`` with a header row; the
    embeddings file is header-less ``name,v1,...,vd``. Embedding rows for
    names absent from the (filtered) measurements are ignored, so one
    embeddings file can serve several pool preparations.

    ``hit_mode=None`` selects ground-truth-set when the measurements file has
    a ``hit`` column (the gene-screen convention) and top-percentile
    otherwise (the molecular convention). ``element_filter`` drops candidates
    whose SMILES names contain atoms outside the allowed set; ``score_range``
    drops candidates with measurements outside the closed interval.
    """
    measurements = Path(measurements)
    embeddings = Path(embeddings)
    rows, has_hit = _read_measurements(measurements)

    if element_filter is not None:
        allowed = set(element_filter)
        rows = [row for row in rows if smiles_elements(row[0]) <= allowed]
    if score_range is not None:
        lo, hi = score_range
        rows = [row for row in rows if lo <= row[1] <= hi]
    if not rows:
        raise DatasetError(f"{measurements}: no candidates left after filtering")

    names = [row[0] for row in rows]
    emb_names, emb_matrix = _read_embeddings(embeddings, set(names))
    if expected_dim is not None and emb_matrix.shape[1] != expected_dim:
        raise DatasetError(
            f"{embeddings}: embedding dim {emb_matrix.shape[1]} "
            f"does not match expected {expected_dim}"
        )
    if emb_names != names:  # reorder rows into pool order
        row_of = {n: i for i, n in enumerate(emb_names)}
        emb_matrix = emb_matrix[[row_of[n] for n in names]]

    if hit_mode is None:
        hit_mode = MODE_GROUND_TRUTH if has_hit else MODE_TOP_PERCENTILE
    if hit_mode == MODE_GROUND_TRUTH and not has_hit:
        raise DatasetError("ground-truth-set mode needs a 'hit' column")

    # The readers return a fresh finite matrix; the table takes it over.
    return CandidatePool(
        names,
        [row[1] for row in rows],
        EmbeddingTable._adopt(emb_matrix),
        metric=metric,
        hit_mode=hit_mode,
        percentile=percentile,
        ground_truth=[name for name, _, hit in rows if hit],
    )


# The name the in-memory callers (synthetic benchmarks, tests) build by.
build_pool = CandidatePool


def write_measurements(pool: CandidatePool, path: str | Path) -> None:
    """Serialize names/scores (and hit flags under ground-truth mode).

    Scores are written with ``repr`` so a reload reproduces them bit-for-bit.
    """
    ground_truth = pool.hit_policy.mode == MODE_GROUND_TRUTH
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "score", "hit"] if ground_truth else ["name", "score"])
        for name, score, hit in zip(pool.names, pool.scores, pool.hit_mask):
            row = [name, repr(float(score))]
            if ground_truth:
                row.append("1" if hit else "0")
            writer.writerow(row)


def write_embeddings(pool: CandidatePool, path: str | Path) -> None:
    """Serialize the embedding matrix in pool order, bit-for-bit reloadable."""
    matrix = pool.embeddings.matrix
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for name, row in zip(pool.names, matrix):
            writer.writerow([name] + [repr(float(v)) for v in row])
