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
from .errors import ConfigError
from .feedback import Feedback
from .memory import CandidateMemory, certified_least, embedding_distances  # noqa: F401
from .pool import CandidatePool
from .prompts import parse_solution, render_prompt
from .surrogates import (
    _BLOCK_ROWS,
    GaussianProcess,
    LinUcb,
    median_heuristic,
    score_blocks,
    select_top_b,
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
    """Embedding rows and scores of the records handed in, in record order."""
    records = () if feedback is None else feedback.records
    rows = pool.embeddings.matrix[[pool.index_of(r.name) for r in records]]
    return rows, np.array([r.score for r in records], dtype=np.float64)


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


class LinUcbAgent(Agent):
    """Scores every unexplored candidate with the linear-UCB surrogate.

    The bandit is refit each round from the records it is handed. Observed
    targets are z-scored over that history first (raw measurement scales are
    rarely centered, and an intercept-free linear model absorbs any offset
    into a spurious direction).
    """

    kind = AGENT_LINUCB

    def __init__(self, config, pool, backend, trace):
        super().__init__(config, pool, backend, trace)
        self.standardize = config.linucb_standardize
        self.model = LinUcb(
            pool.embeddings.dim, ridge=config.linucb_ridge, alpha=config.linucb_alpha
        )

    def select(self, round_num, memory, feedback, rng):
        pool = memory.pool
        X, y = _observations(pool, feedback)
        if self.standardize and y.size:
            sd = float(y.std())
            y = (y - y.mean()) / (sd if sd > 0.0 else 1.0)
        self.model.fit_batch(X, y)
        avail = memory.unexplored()
        matrix = pool.embeddings.matrix
        scores = _score_unexplored(
            avail, len(pool), lambda rows: self.model.score_many(matrix[rows])
        )
        return select_top_b(avail, scores, memory, self.batch_size)


class GpAgent(Agent):
    """Refits a GP on the records it is handed each round and takes the top
    UCB batch.

    With observations and more than one scoring block of unexplored
    candidates, every candidate gets a certified upper bound on its score,
    and :func:`certified_least` (on negated scores) scores exactly only
    those that can reach the batch, at least one block. Every call of
    either pass then scores half a block, whatever the CPU count, so a
    bound and a score come from calls of one shape and the exact scores
    have the full pass's bits; the batch is the full pass's.
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
        self.model = GaussianProcess(
            length_scale=length_scale,
            signal_var=config.gp_signal_var,
            noise_var=config.gp_noise_var,
            beta=config.gp_beta,
            standardize=config.gp_standardize,
        )

    def select(self, round_num, memory, feedback, rng):
        pool = memory.pool
        X, y = _observations(pool, feedback)
        self.model.fit(X, y)
        table = pool.embeddings

        def rows_of(method):
            return lambda rows: method(table.matrix, table.sq_norms, rows)

        avail = memory.unexplored()
        score = rows_of(self.model.acquisition)
        if y.size == 0 or avail.size <= _BLOCK_ROWS:
            scores = _score_unexplored(avail, len(pool), score)
            return select_top_b(avail, scores, memory, self.batch_size)
        pos, keys = certified_least(
            -_score_unexplored(avail, len(pool), rows_of(self.model.ucb_bound)),
            self.batch_size,
            lambda part: -score_blocks(avail[part], score),
            min_rows=_BLOCK_ROWS,
        )
        return select_top_b(avail[pos], -keys, memory, self.batch_size)


def _score_unexplored(
    avail: np.ndarray, size: int, score: Callable[[np.ndarray | slice], np.ndarray]
) -> np.ndarray:
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
