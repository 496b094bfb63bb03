"""Experiment history records and the randomized-feedback ablation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FeedbackRecord:
    """One observed candidate: its measurement and whether it was a hit."""

    name: str
    score: float
    hit: bool


@dataclass(frozen=True)
class Feedback:
    """Everything observed so far, in selection order, with unique names."""

    records: tuple[FeedbackRecord, ...]

    def __post_init__(self):
        names = [r.name for r in self.records]
        if len(set(names)) != len(names):
            raise ValueError("feedback records must have unique names")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def hits(self) -> tuple[FeedbackRecord, ...]:
        return tuple(r for r in self.records if r.hit)

    @property
    def others(self) -> tuple[FeedbackRecord, ...]:
        return tuple(r for r in self.records if not r.hit)


def randomize_feedback(
    feedback: Feedback,
    level1: bool,
    level2: bool,
    rng: np.random.Generator,
) -> Feedback:
    """Break the name-outcome pairing while keeping marginals fixed.

    Level 1 permutes the measurement values among all records (score multiset
    preserved); level 2 permutes the hit labels among all records (hit count
    preserved). Permutations come from ``rng.permutation`` (Fisher-Yates), so
    replays are exact for a fixed seed.
    """
    n = len(feedback)
    if n == 0:
        return feedback
    scores = [r.score for r in feedback.records]
    hits = [r.hit for r in feedback.records]
    if level1:
        scores = [scores[i] for i in rng.permutation(n)]
    if level2:
        hits = [hits[i] for i in rng.permutation(n)]
    return Feedback(
        tuple(
            FeedbackRecord(r.name, s, h)
            for r, s, h in zip(feedback.records, scores, hits)
        )
    )
