"""The vectorized query strategies against their scalar per-link rules.

``ScalarConflictReference.select`` and ``ScalarMarginReference.select``
are the per-candidate loops the conflict and margin strategies used to
run, kept verbatim as oracles.  The strategies' ``select`` and
``select_streamed`` (over random block partitions) must return exactly
their picks, including on inputs the active loop never produces: users
shared by several positives, duplicate scores and ±0.0 ties.
"""

from typing import List, Sequence

import numpy as np
import pytest

from repro.active.strategies import (
    ConflictFalseNegativeStrategy,
    MarginQueryStrategy,
    ScoredBlock,
)
from repro.matching.constraints import conflicting_indices, user_codes
from repro.types import LinkPair


class ScalarConflictReference:
    """The conflict rule as one Python loop per queryable negative."""

    def __init__(self, closeness_threshold: float, allow_fallback: bool) -> None:
        self.closeness_threshold = float(closeness_threshold)
        self.allow_fallback = bool(allow_fallback)

    def select(
        self,
        pairs: Sequence[LinkPair],
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
        batch_size: int,
    ) -> List[int]:
        scores = np.asarray(scores, dtype=np.float64).ravel()
        labels = np.asarray(labels).ravel()
        queryable = np.asarray(queryable, dtype=bool).ravel()

        conflicts = conflicting_indices(pairs)
        ranked: List[tuple] = []
        for index in np.flatnonzero(queryable & (labels == 0)):
            near_miss = False
            best_dominance = -np.inf
            for other in conflicts[index]:
                if labels[other] != 1:
                    continue
                if abs(scores[other] - scores[index]) <= self.closeness_threshold:
                    near_miss = True
                dominance = scores[index] - scores[other]
                if dominance > 0 and dominance > best_dominance:
                    best_dominance = dominance
            if near_miss and best_dominance > 0:
                ranked.append((best_dominance, index))
        ranked.sort(key=lambda item: (-item[0], item[1]))
        picks = [index for _, index in ranked[:batch_size]]

        if len(picks) < batch_size and self.allow_fallback:
            chosen = set(picks)
            fallback_pool = np.flatnonzero(queryable & (labels == 0))
            fallback_order = sorted(
                (index for index in fallback_pool if index not in chosen),
                key=lambda index: (-scores[index], index),
            )
            picks.extend(fallback_order[: batch_size - len(picks)])
        return picks


class ScalarMarginReference:
    """Margin sampling as one Python sort over the queryable pool."""

    def __init__(self, boundary: float) -> None:
        self.boundary = float(boundary)

    def select(
        self,
        pairs: Sequence[LinkPair],
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
        batch_size: int,
    ) -> List[int]:
        scores = np.asarray(scores, dtype=np.float64).ravel()
        pool = np.flatnonzero(np.asarray(queryable, dtype=bool).ravel())
        ranked = sorted(
            pool, key=lambda index: (abs(scores[index] - self.boundary), index)
        )
        return [int(index) for index in ranked[:batch_size]]


#: Scores drawn from a small grid so duplicates and ±0.0 ties are common.
TIED_SCORES = np.array([-0.0, 0.0, 0.05, 0.1, 0.45, 0.5, 0.55, 1.0])


def _case(seed: int):
    """Random candidates over few users, with non-one-to-one labels."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 48))
    n_users = int(rng.integers(1, 9))
    pairs = [
        (f"u{rng.integers(n_users)}", f"v{rng.integers(n_users)}")
        for _ in range(n)
    ]
    if seed % 2:
        scores = rng.choice(TIED_SCORES, size=n)
    else:
        scores = rng.normal(0.5, 0.3, size=n)
    labels = (rng.random(n) < rng.uniform(0.1, 0.6)).astype(np.int64)
    queryable = rng.random(n) < 0.8
    return rng, pairs, scores, labels, queryable


def _random_blocks(rng, pairs, scores, labels, queryable):
    """A random partition of the candidates into coded blocks."""
    left, right = user_codes(pairs)
    blocks, start = [], 0
    while start < len(pairs):
        end = start + int(rng.integers(1, len(pairs) - start + 1))
        blocks.append(
            ScoredBlock(
                pairs=pairs[start:end],
                scores=scores[start:end],
                labels=labels[start:end],
                queryable=queryable[start:end],
                offset=start,
                left_codes=left[start:end],
                right_codes=right[start:end],
            )
        )
        start = end
    return blocks


@pytest.mark.parametrize("allow_fallback", [True, False])
@pytest.mark.parametrize("tau", [0.0, 0.05, 1.0])
def test_conflict_matches_scalar_rule(tau, allow_fallback):
    for seed in range(60):
        rng, pairs, scores, labels, queryable = _case(seed)
        for batch_size in range(7):
            expected = ScalarConflictReference(tau, allow_fallback).select(
                pairs, scores, labels, queryable, batch_size
            )
            strategy = ConflictFalseNegativeStrategy(tau, allow_fallback)
            assert (
                strategy.select(pairs, scores, labels, queryable, batch_size)
                == expected
            ), (seed, batch_size)
            blocks = _random_blocks(rng, pairs, scores, labels, queryable)
            assert strategy.select_streamed(blocks, batch_size) == expected, (
                seed,
                batch_size,
            )


def test_grid_exercises_the_rule():
    """The grid hits near misses, ties and shared positive users."""
    near_misses = shared = 0
    for seed in range(60):
        _, pairs, scores, labels, queryable = _case(seed)
        strict = ScalarConflictReference(0.05, allow_fallback=False)
        near_misses += len(strict.select(pairs, scores, labels, queryable, 6))
        positives = [pair for pair, label in zip(pairs, labels) if label == 1]
        shared += len({left for left, _ in positives}) < len(positives)
    assert near_misses > 50 and shared > 20


@pytest.mark.parametrize("boundary", [0.0, 0.5])
def test_margin_matches_scalar_rule(boundary):
    for seed in range(60):
        rng, pairs, scores, labels, queryable = _case(seed)
        for batch_size in range(7):
            expected = ScalarMarginReference(boundary).select(
                pairs, scores, labels, queryable, batch_size
            )
            strategy = MarginQueryStrategy(boundary)
            assert (
                strategy.select(pairs, scores, labels, queryable, batch_size)
                == expected
            )
            blocks = _random_blocks(rng, pairs, scores, labels, queryable)
            assert strategy.select_streamed(blocks, batch_size) == expected
