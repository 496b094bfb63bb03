"""Selection policies: random, diversity, surrogate-guided, and LLM-driven.

Every agent answers one question per round: given the memory's explored
state and the history observed so far, which candidates go into this round's
batch? A selection is an array of pool indices, marked explored before it is
returned, so batches across rounds are disjoint by construction. Names
appear only where the LLM reads or writes them: prompts, parsed replies and
trace events.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

import numpy as np

from .backends import LlmBackend, RetryPolicy, SamplingParams, chat_with_retry
from .errors import ConfigError, NumericalError
from .feedback import Feedback
# embedding_distances is imported for perfbench/tracer.py, which wraps it here.
from .memory import CandidateMemory, certified_least, embedding_distances  # noqa: F401
from .pool import CandidatePool, EmbeddingTable, _on_threads
from .prompts import parse_solution, render_prompt
from .surrogates import (
    _BLOCK_ROWS,
    DualLinUcb,
    GaussianProcess,
    LinUcb,
    median_heuristic,
    score_blocks,
    select_top_b,
    square_is_normal,
)

if TYPE_CHECKING:
    from .harness import ExperimentConfig

AGENT_RANDOM = "random"
AGENT_CORESET = "coreset"
AGENT_LINUCB = "linucb"
AGENT_GP = "gp"
AGENT_BDA = "bda"
AGENT_LLMNN = "llmnn"
AGENT_LLMNN_NOEXP = "llmnn-noexp"
AGENT_RANDOM_CENTROIDS = "random-centroids"

TraceFn = Callable[[dict], None]


def coreset_select(memory: CandidateMemory, batch_size: int) -> np.ndarray:
    """Greedy farthest-point batch construction (pure diversity).

    The covering set starts as everything already explored; with nothing
    explored, the lowest-index unexplored candidate seeds the cover and the
    selection. Each step picks the unexplored candidate farthest from the
    cover (max-min distance, ties to the lower index), which joins the
    cover. Selections are marked explored. The procedure is deterministic.
    """
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    avail = memory.unexplored()
    selected: list[int] = []
    if avail.size == len(memory.pool):
        selected.append(int(avail[0]))
        memory.explore(selected)
        avail = avail[1:]
    while len(selected) < batch_size and avail.size:
        gaps = memory.distance_to_explored()[avail]
        pick = int(np.argmax(gaps))
        selected.append(int(avail[pick]))
        memory.explore(selected[-1:])
        avail = np.delete(avail, pick)
    return np.array(selected, dtype=np.intp)


def _take_random(memory: CandidateMemory, k: int, rng: np.random.Generator) -> np.ndarray:
    """Up to k uniform-random unexplored candidates, marked explored.

    One ``rng.permutation`` over the unexplored indices, which draws nothing
    when none are left.
    """
    avail = memory.unexplored()
    chosen = avail[rng.permutation(avail.size)[:k]]
    memory.explore(chosen)
    return chosen


def _observations(
    pool: CandidatePool, feedback: Feedback | None
) -> tuple[np.ndarray, np.ndarray]:
    """Pool indices and scores of the records handed in, in record order.
    A fit that reads the embedding rows gathers them itself."""
    records = () if feedback is None else feedback.records
    idx = np.array([pool.index_of(r.name) for r in records], dtype=np.intp)
    scores = np.array([r.score for r in records], dtype=np.float64)
    return idx, scores


Scorer = Callable[[np.ndarray | slice], np.ndarray]


def _on_rows(table: EmbeddingTable, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Scorer:
    """A scorer of a call's pool rows by ``fn(X, sq_norms)`` of their
    embedding rows and squared norms, read from ``table``: a view for a
    slice of the pool, a gathered copy for an index array."""
    return lambda rows: fn(table.matrix[rows], table.sq_norms[rows])


class _ObservedProducts:
    """A run's products ``P[o] @ P.T`` of its observed rows o, in record
    order, with every pool row P: the ``X_train X^T`` blocks that the full
    passes of :class:`GpAgent` and :class:`LinUcbAgent` read (``products``
    of the surrogates) instead of computing a product per call.

    Each round's records start with the last round's, so :meth:`of` computes
    only the new rows' products. It keeps the pool indices of its rows and
    extends them only when the records handed in start with exactly those
    indices; any other feedback (fewer rows, another order, other rows)
    rebuilds them, so no stale row is ever read. The array is allocated on
    first use, with room for the observations of every round but the last
    (whose batch never trains), and grows only for feedback beyond that.
    """

    def __init__(self, table: EmbeddingTable, capacity: int):
        self.table = table
        self.capacity = capacity
        self.rows = np.empty(0, dtype=np.intp)
        self._products: np.ndarray | None = None

    def of(self, rows: np.ndarray) -> np.ndarray:
        """The products of the pool rows ``rows`` (record order) with every
        pool row, len(rows) x pool rows. A view, valid until the next call."""
        n, kept = rows.size, self.rows.size
        if kept > n or not np.array_equal(rows[:kept], self.rows):
            kept = 0
        if self._products is None or self._products.shape[0] < n:
            self._products = np.empty((max(self.capacity, n), len(self.table)))
            kept = 0
        _products_into(self._products[kept:n], self.table.matrix, rows[kept:])
        self.rows = rows.copy()
        return self._products[:n]


def _products_into(out: np.ndarray, matrix: np.ndarray, rows: np.ndarray) -> None:
    """``out = matrix[rows] @ matrix.T``, written in place, as two row
    halves (one for a single row) on up to two threads. The halves depend
    on the row count alone, so the bits do not depend on the CPU count.
    Entries that overflow are left inf, for the fit to reject."""
    cut = rows.size // 2
    parts = [(0, cut), (cut, rows.size)] if cut else [(0, rows.size)]

    def product(part: tuple[int, int]) -> None:
        lo, hi = part
        np.matmul(matrix[rows[lo:hi]], matrix.T, out=out[lo:hi])

    with np.errstate(over="ignore", invalid="ignore"):
        _on_threads(product, parts)


class Agent:
    """One selection policy driving one run.

    Built from the experiment config, the pool, the LLM backend (``None``
    for classical kinds) and the trace sink. ``select`` is a function of the
    explored state, the feedback it is handed and the generator: no agent
    carries observations from one round to the next.
    """

    kind: str = ""

    def __init__(
        self,
        config: ExperimentConfig,
        pool: CandidatePool,
        backend: LlmBackend | None,
        trace: TraceFn | None,
    ):
        self.batch_size = config.batch_size

    def select(
        self,
        round_num: int,
        memory: CandidateMemory,
        feedback: Feedback | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Pool indices of this round's batch, already marked explored.

        Called only while at least one candidate is unexplored."""
        raise NotImplementedError


class RandomAgent(Agent):
    kind = AGENT_RANDOM

    def select(self, round_num, memory, feedback, rng):
        return _take_random(memory, self.batch_size, rng)


class CoresetAgent(Agent):
    kind = AGENT_CORESET

    def select(self, round_num, memory, feedback, rng):
        return coreset_select(memory, self.batch_size)


# Fewest embedding dimensions for which LinUCB takes the bound path. Rounds
# 2-5 of a linucb run with B=128 (2 CPUs, one BLAS thread) took 20.5 ms with
# the bound and 14.9 ms without on 18k x 64, 42.2 and 48.8 ms on 18k x 128,
# 61.8 and 79.6 ms on 18k x 192, but 33.8 and 32.1 ms on 6k x 128. At
# d = 64 the f32 call saves too little over the f64 one (0.16 against
# 0.18 ms per 1024 rows) to pay for the exact pass.
_LINUCB_BOUND_MIN_DIM = 128


class LinUcbAgent(Agent):
    """Refits the linear-UCB surrogate on the records it is handed each
    round and takes the top UCB batch, through :func:`_certified_top_b`.

    Observed targets are z-scored over that history first (raw measurement
    scales are rarely centered, and an intercept-free linear model absorbs
    any offset into a spurious direction).

    Each round picks its pass once (:func:`_full_pass`): with observations,
    at least _LINUCB_BOUND_MIN_DIM dimensions and more than one block of
    unexplored rows, a bound pass on :meth:`LinUcb.bound_fn`, built once on
    this thread; otherwise a full pass. A full pass with n observations on
    d dimensions fits :class:`DualLinUcb` when 3n <= 2d (:func:`_use_dual`,
    with its measurements): it factors the n x n Gram matrix C = X X^T +
    ridge*I = L L^T instead of the d x d matrix A, and scores x as k.w +
    alpha sqrt(max(0, |x|^2 - |G k|^2) / ridge), with k = X x, w = C^-1 y
    and G = L^-1: the primal's scores up to rounding. It is handed X X^T
    and k from the run's observed-row products (:class:`_ObservedProducts`),
    which each round extends by its new rows. Every other round fits
    :class:`LinUcb`. ``model`` is the last round's model.
    """

    kind = AGENT_LINUCB

    def __init__(self, config, pool, backend, trace):
        super().__init__(config, pool, backend, trace)
        self.standardize = config.linucb_standardize
        self.primal = LinUcb(
            pool.embeddings.dim, ridge=config.linucb_ridge, alpha=config.linucb_alpha
        )
        self.model: LinUcb | DualLinUcb = self.primal
        self.products = _observed_products(config, pool)

    def select(self, round_num, memory, feedback, rng):
        idx, y = _observations(memory.pool, feedback)
        if self.standardize and y.size:
            sd = float(y.std())
            y = (y - y.mean()) / (sd if sd > 0.0 else 1.0)
        primal, table = self.primal, memory.pool.embeddings
        full = _full_pass(memory, y.size > 0 and primal.dim >= _LINUCB_BOUND_MIN_DIM)
        if full and _use_dual(y.size, primal.dim):
            products = self.products.of(idx)
            model = self.model = DualLinUcb(np.take(products, idx, axis=1), y,
                                            ridge=primal.ridge, alpha=primal.alpha)
            return _certified_top_b(
                memory,
                self.batch_size,
                lambda rows: model.score_many(products[:, rows].T, table.sq_norms[rows]),
            )
        primal.fit_batch(table.matrix[idx], y)
        self.model = primal
        return _certified_top_b(
            memory,
            self.batch_size,
            _on_rows(table, lambda X, sq_norms: primal.score_many(X)),
            None if full else _on_rows(table, primal.bound_fn()),
        )


# A fit plus a full pass over the other rows of a 2,000-row pool (2 CPUs,
# one BLAS thread, medians of 9) took, in ms, primal against dual:
#
#    d     n   primal   dual        d     n   primal   dual
#  768   128    63.1    13.9      512   256    26.8    14.3
#  768   256    65.4    26.6      512   384    26.4    23.7
#  768   384    50.5    26.9      256   128     4.7     3.0
#  768   512    46.7    34.0      256   192     6.1     6.2
#  768   640    52.8    60.7      128    64     2.1     1.6
#
# The dual won wherever 3n <= 2d and lost or tied from n = 3d/4 on. Molecule
# (d = 768, n <= 512) takes it in rounds 2-5; llm-http (d = 64, n >= 128)
# never does.
def _use_dual(rows: int, dim: int) -> bool:
    """Whether a LinUCB full pass after ``rows`` observations on ``dim``
    dimensions takes the dual form: with observations, and 3 rows <= 2 dim."""
    return 0 < 3 * rows <= 2 * dim


def _observed_products(config: ExperimentConfig, pool: CandidatePool) -> _ObservedProducts:
    """A run's memo of observed-row products, with room for the
    observations of every round but the last."""
    capacity = min((config.rounds - 1) * config.batch_size, len(pool))
    return _ObservedProducts(pool.embeddings, capacity)


class GpAgent(Agent):
    """Refits a GP on the records it is handed each round and takes the top
    UCB batch, through :func:`_certified_top_b`.

    Each round picks its pass once (:func:`_full_pass`): with observations
    and more than one block of unexplored rows, a bound pass on
    :meth:`GaussianProcess.bound_fn`, built once on this thread; otherwise
    a full pass. A full pass with observations reads the kernel's products,
    of the training rows with one another and with the scored rows, from
    the run's observed-row products (:class:`_ObservedProducts`), which each
    round extends by its new rows; it gathers no scored row.

    The length scale is ``gp.length_scale``, or the median heuristic over
    the pool; a heuristic whose square is not a positive normal float
    (embeddings so large that their distances overflow) is a NumericalError.
    """

    kind = AGENT_GP

    def __init__(self, config, pool, backend, trace):
        super().__init__(config, pool, backend, trace)
        length_scale = config.gp_length_scale
        if length_scale is None:
            # The table is immutable, so one heuristic serves every run on it.
            memo = pool.embeddings._length_scales
            if config.gp_subsample not in memo:
                memo[config.gp_subsample] = median_heuristic(
                    pool.embeddings.matrix, config.gp_subsample
                )
            length_scale = memo[config.gp_subsample]
            if not square_is_normal(length_scale):
                raise NumericalError(
                    f"the median-heuristic GP length scale {length_scale!r} has no normal "
                    "float square; the embeddings are too large or too small for it"
                )
        self.products = _observed_products(config, pool)
        self.model = GaussianProcess(
            length_scale=length_scale,
            signal_var=config.gp_signal_var,
            noise_var=config.gp_noise_var,
            beta=config.gp_beta,
            standardize=config.gp_standardize,
        )

    def select(self, round_num, memory, feedback, rng):
        idx, y = _observations(memory.pool, feedback)
        model, table = self.model, memory.pool.embeddings
        X = table.matrix[idx]
        full = _full_pass(memory, y.size > 0)
        if full and y.size:
            products = self.products.of(idx)
            model.fit(X, y, np.take(products, idx, axis=1))
            return _certified_top_b(
                memory,
                self.batch_size,
                lambda rows: model.acquisition(
                    None, table.sq_norms[rows], np.take(products, rows, axis=1)
                ),
            )
        model.fit(X, y)
        return _certified_top_b(
            memory,
            self.batch_size,
            _on_rows(table, model.acquisition),
            None if full else _on_rows(table, model.bound_fn()),
        )


def _certified_top_b(
    memory: CandidateMemory,
    batch_size: int,
    score: Scorer,
    bound: Scorer | None = None,
) -> np.ndarray:
    """The top-``batch_size`` batch of the unexplored candidates by
    ``score(rows)``, marked explored, as :func:`select_top_b` ranks a full
    pass. ``bound`` is None for a full pass, or a scorer that upper-bounds
    each row's score (the fitted model's ``bound_fn()`` on the rows,
    :func:`_on_rows`), handed only when :func:`_full_pass` is false. Every
    scorer takes one call's pool rows, an index array or a slice of the
    pool, and reads what it needs of them: their embedding rows and squared
    norms (:func:`_on_rows`), or their products with the training rows from
    the run's memo.

    With a bound, every candidate gets its bound, and
    :func:`certified_least` (on negated values) scores exactly only those
    that can reach the batch, at least one block. Every call of either pass
    then scores half a block, whatever the CPU count, so the exact scores
    have the full pass's bits and the batch is the full pass's, in the same
    order. Without one, every candidate is scored in one full pass.
    """
    avail = memory.unexplored()
    size = len(memory.pool)
    if bound is None:
        return select_top_b(avail, _score_unexplored(avail, size, score), memory, batch_size)
    pos, keys = certified_least(
        -_score_unexplored(avail, size, bound),
        batch_size,
        lambda part: -score_blocks(avail[part], score),
        min_rows=_BLOCK_ROWS,
    )
    return select_top_b(avail[pos], -keys, memory, batch_size)


def _full_pass(memory: CandidateMemory, bounded: bool) -> bool:
    """Whether a round scores every unexplored candidate in one full pass:
    without a bound (``bounded`` false), or with at most one block of them.
    Its agent then builds no bound and hands :func:`_certified_top_b` none."""
    return not bounded or memory.num_unexplored <= _BLOCK_ROWS


def _score_unexplored(avail: np.ndarray, size: int, score: Scorer) -> np.ndarray:
    """:func:`score_blocks` scores of the unexplored rows ``avail`` of a
    pool of ``size`` rows. Up to one block they are scored as they are: the
    block's row count sets the calls and the bits. Past one block every call
    is a half block either way, so the calls are slices of the whole pool,
    scored without a gather, and the explored rows' scores are dropped
    after."""
    if avail.size <= _BLOCK_ROWS:
        return score_blocks(avail, score)
    return score_blocks(size, score)[avail]


class RandomCentroidsAgent(Agent):
    """Ablation: uniform-random centers expanded by nearest-neighbor sampling."""

    kind = AGENT_RANDOM_CENTROIDS

    def __init__(self, config, pool, backend, trace):
        super().__init__(config, pool, backend, trace)
        self.num_centers = config.num_centers

    def select(self, round_num, memory, feedback, rng):
        avail = memory.unexplored()
        take = min(self.num_centers, avail.size)
        center_idx = avail[rng.permutation(avail.size)[:take]]
        return memory.allocate_batch(center_idx, self.batch_size)


def _names(pool: CandidatePool, idx: np.ndarray) -> list[str]:
    return [pool.names[i] for i in idx]


class _LlmAgentBase(Agent):
    """Sampling and retry settings and the round-1 prompt spec, all from the
    config; each round's spec replaces the round number and feedback."""

    def __init__(self, config, pool, backend, trace):
        super().__init__(config, pool, backend, trace)
        if backend is None:
            raise ConfigError(f"agent {self.kind!r} needs an LLM backend")
        self.spec = config.prompt_spec()
        self.backend = backend
        self.retry_policy = RetryPolicy(max_attempts=config.llm_max_attempts)
        self.sampling = SamplingParams(
            temperature=config.llm_temperature, max_tokens=config.llm_max_tokens
        )
        self._trace = trace

    def trace(self, event: dict) -> None:
        if self._trace is not None:
            self._trace(event)

    def _ask(self, round_num: int, feedback: Feedback | None, expected: int) -> list[str]:
        spec = dataclasses.replace(self.spec, round_num=round_num, feedback=feedback)
        system, user = render_prompt(spec)
        raw = chat_with_retry(
            self.backend,
            system,
            user,
            self.retry_policy,
            self.sampling,
            validator=lambda text: parse_solution(text, expected),
        )
        parsed = parse_solution(raw, expected)
        self.trace(
            {
                "event": "llm_call",
                "round": round_num,
                "system": system,
                "user": user,
                "response": raw,
                "parsed": parsed.solution,
                "short": parsed.short,
                "truncated": parsed.truncated,
            }
        )
        return list(dict.fromkeys(parsed.solution))


class LlmnnAgent(_LlmAgentBase):
    """LLM proposes cluster centers; the memory expands each center over its
    nearest unexplored neighbors under an equal per-center budget.

    Proposed names are mapped to pool indices by exact lookup. A name absent
    from the pool is replaced by a uniform-random unexplored candidate and
    logged. Explored names are fine as centers: the expansion only ever
    returns unexplored neighbors, min(B, unexplored) of them, so the batch
    is never short while candidates remain.
    """

    kind = AGENT_LLMNN

    def select(self, round_num, memory, feedback, rng):
        pool = memory.pool
        proposed = self._ask(round_num, feedback, self.spec.num_centers)
        centers: list[int] = []
        for name in proposed:
            if name in pool:
                centers.append(pool.index_of(name))
                continue
            avail = memory.unexplored()
            centers.append(int(avail[int(rng.integers(avail.size))]))
            self.trace(
                {
                    "event": "center_substitution",
                    "round": round_num,
                    "proposed": name,
                    "replacement": pool.names[centers[-1]],
                }
            )
        batch = memory.allocate_batch(centers, self.batch_size)
        self.trace({"event": "selection", "round": round_num, "names": _names(pool, batch)})
        return batch


class LlmnnNoexpAgent(LlmnnAgent):
    """``llmnn`` with a solution-only response format."""

    kind = AGENT_LLMNN_NOEXP


class BdaAgent(_LlmAgentBase):
    """LLM names the full batch directly; invalid names trigger re-prompts.

    Names outside the pool, already explored, or duplicated are rejected.
    After the re-prompt budget (``bda_retries``) is spent, the remaining
    slots are filled with uniform-random unexplored candidates. Everything
    is logged.
    """

    kind = AGENT_BDA

    def __init__(self, config, pool, backend, trace):
        super().__init__(config, pool, backend, trace)
        self.max_replacement_prompts = config.bda_retries

    def select(self, round_num, memory, feedback, rng):
        pool = memory.pool
        want = min(self.batch_size, memory.num_unexplored)
        unexplored = np.zeros(len(pool), dtype=bool)
        unexplored[memory.unexplored()] = True
        kept: list[int] = []
        kept_set: set[int] = set()
        for _ in range(1 + self.max_replacement_prompts):
            if len(kept) >= want:
                break
            for name in self._ask(round_num, feedback, self.batch_size):
                if len(kept) >= want:
                    break
                i = pool.index_of(name) if name in pool else None
                if i in kept_set:
                    continue
                if i is None or not unexplored[i]:
                    self.trace(
                        {
                            "event": "rejected_name",
                            "round": round_num,
                            "name": name,
                            "reason": "unknown" if i is None else "explored",
                        }
                    )
                    continue
                kept.append(i)
                kept_set.add(i)
        batch = np.array(kept, dtype=np.intp)
        memory.explore(batch)
        if len(batch) < want:  # a full batch draws nothing from rng
            extra = _take_random(memory, want - len(batch), rng)
            self.trace({"event": "random_top_up", "round": round_num,
                        "names": _names(pool, extra)})
            batch = np.concatenate([batch, extra])
        self.trace({"event": "selection", "round": round_num, "names": _names(pool, batch)})
        return batch


AGENTS: dict[str, type[Agent]] = {
    cls.kind: cls
    for cls in (
        RandomAgent,
        CoresetAgent,
        LinUcbAgent,
        GpAgent,
        BdaAgent,
        LlmnnAgent,
        LlmnnNoexpAgent,
        RandomCentroidsAgent,
    )
}
AGENT_KINDS = tuple(AGENTS)
LLM_AGENT_KINDS = tuple(k for k, cls in AGENTS.items() if issubclass(cls, _LlmAgentBase))


def make_agent(
    config: ExperimentConfig,
    pool: CandidatePool,
    backend: LlmBackend | None = None,
    trace: TraceFn | None = None,
) -> Agent:
    """Construct the agent of kind ``config.agent`` for one run."""
    try:
        cls = AGENTS[config.agent]
    except KeyError:
        raise ConfigError(f"unknown agent kind {config.agent!r}") from None
    return cls(config, pool, backend, trace)
