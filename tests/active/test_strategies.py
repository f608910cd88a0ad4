"""Tests for repro.active.strategies."""

import numpy as np
import pytest

from repro.active.strategies import (
    ConflictFalseNegativeStrategy,
    MarginQueryStrategy,
    RandomQueryStrategy,
    ScoredBlock,
)
from repro.exceptions import ReproError
from repro.matching.constraints import user_codes

# Candidate layout: left users a, b; right users x, y.
PAIRS = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]


def _blockify_inputs(pairs, scores, labels, queryable, block_size):
    """Chop whole-of-H strategy inputs into ScoredBlock records."""
    left, right = user_codes(pairs)
    blocks = []
    for start in range(0, len(pairs), block_size):
        end = start + block_size
        blocks.append(
            ScoredBlock(
                pairs=pairs[start:end],
                scores=np.asarray(scores, dtype=np.float64)[start:end],
                labels=np.asarray(labels)[start:end],
                queryable=np.asarray(queryable, dtype=bool)[start:end],
                offset=start,
                left_codes=left[start:end],
                right_codes=right[start:end],
            )
        )
    return blocks


class TestConflictStrategy:
    def test_selects_near_miss_dominant_negative(self):
        strategy = ConflictFalseNegativeStrategy(closeness_threshold=0.05)
        # (a,x) positive with 0.60; (a,y) negative scored 0.58: close to
        # its conflicting winner -> near miss.  It also dominates the
        # other conflicting positive (b,y)=0.30 via user y.
        scores = np.array([0.60, 0.58, 0.10, 0.30])
        labels = np.array([1, 0, 0, 1])
        queryable = np.array([True, True, True, True])
        picks = strategy.select(PAIRS, scores, labels, queryable, batch_size=1)
        assert picks == [1]

    def test_not_near_miss_excluded_without_fallback(self):
        strategy = ConflictFalseNegativeStrategy(
            closeness_threshold=0.05, allow_fallback=False
        )
        # Negative (a,y)=0.3 is far from both conflicting positives
        # ((a,x)=0.9 and (b,y)=0.45): not a near miss.
        scores = np.array([0.90, 0.30, 0.10, 0.45])
        labels = np.array([1, 0, 0, 1])
        queryable = np.ones(4, dtype=bool)
        picks = strategy.select(PAIRS, scores, labels, queryable, batch_size=2)
        assert picks == []

    def test_requires_dominance_over_some_positive(self):
        strategy = ConflictFalseNegativeStrategy(allow_fallback=False)
        # (a,y)=0.58 is close to (a,x)=0.60 but dominates no positive:
        # the other conflicting positive (b,y)=0.70 beats it.
        scores = np.array([0.60, 0.58, 0.10, 0.70])
        labels = np.array([1, 0, 0, 1])
        picks = strategy.select(
            PAIRS, scores, labels, np.ones(4, dtype=bool), batch_size=2
        )
        assert picks == []

    def test_fallback_fills_batch_with_top_scores(self):
        strategy = ConflictFalseNegativeStrategy(allow_fallback=True)
        scores = np.array([0.90, 0.30, 0.10, 0.25])
        labels = np.array([1, 0, 0, 1])
        queryable = np.array([False, True, True, False])
        picks = strategy.select(PAIRS, scores, labels, queryable, batch_size=2)
        assert picks == [1, 2]  # highest-scoring queryable negatives

    def test_respects_queryable_mask(self):
        strategy = ConflictFalseNegativeStrategy()
        scores = np.array([0.60, 0.58, 0.10, 0.30])
        labels = np.array([1, 0, 0, 1])
        queryable = np.array([False, False, True, False])
        picks = strategy.select(PAIRS, scores, labels, queryable, batch_size=5)
        assert picks == [2]

    def test_batch_size_limits(self):
        strategy = ConflictFalseNegativeStrategy()
        scores = np.array([0.60, 0.58, 0.10, 0.30])
        labels = np.array([1, 0, 0, 1])
        picks = strategy.select(
            PAIRS, scores, labels, np.ones(4, dtype=bool), batch_size=2
        )
        assert len(picks) == 2

    def test_negative_threshold_rejected(self):
        with pytest.raises(ReproError):
            ConflictFalseNegativeStrategy(closeness_threshold=-0.1)

    def test_input_validation(self):
        strategy = ConflictFalseNegativeStrategy()
        with pytest.raises(ReproError):
            strategy.select(PAIRS, np.ones(3), np.zeros(4), np.ones(4, bool), 1)


class TestRandomStrategy:
    def test_picks_only_queryable(self):
        strategy = RandomQueryStrategy(seed=0)
        queryable = np.array([True, False, True, False])
        for _ in range(10):
            picks = strategy.select(
                PAIRS, np.zeros(4), np.zeros(4), queryable, batch_size=2
            )
            assert set(picks) <= {0, 2}

    def test_no_duplicates(self):
        strategy = RandomQueryStrategy(seed=1)
        picks = strategy.select(
            PAIRS, np.zeros(4), np.zeros(4), np.ones(4, bool), batch_size=4
        )
        assert len(picks) == len(set(picks)) == 4

    def test_empty_pool(self):
        strategy = RandomQueryStrategy()
        picks = strategy.select(
            PAIRS, np.zeros(4), np.zeros(4), np.zeros(4, bool), batch_size=2
        )
        assert picks == []

    def test_deterministic_given_seed(self):
        a = RandomQueryStrategy(seed=5).select(
            PAIRS, np.zeros(4), np.zeros(4), np.ones(4, bool), 2
        )
        b = RandomQueryStrategy(seed=5).select(
            PAIRS, np.zeros(4), np.zeros(4), np.ones(4, bool), 2
        )
        assert a == b


class TestMarginStrategy:
    def test_picks_closest_to_boundary(self):
        strategy = MarginQueryStrategy(boundary=0.5)
        scores = np.array([0.1, 0.49, 0.95, 0.55])
        picks = strategy.select(
            PAIRS, scores, np.zeros(4), np.ones(4, bool), batch_size=2
        )
        assert picks == [1, 3]

    def test_respects_mask_and_batch(self):
        strategy = MarginQueryStrategy()
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        queryable = np.array([False, True, True, True])
        picks = strategy.select(PAIRS, scores, np.zeros(4), queryable, 2)
        assert picks == [1, 2]


class TestSelectStreamed:
    """select_streamed must pick exactly what select picks."""

    def _rig(self, n=60, seed=0):
        """A synthetic candidate space with plenty of conflicts."""
        rng = np.random.default_rng(seed)
        pairs = [
            (f"l{rng.integers(0, 12)}", f"r{rng.integers(0, 12)}")
            for _ in range(n)
        ]
        scores = rng.normal(loc=0.5, scale=0.3, size=n)
        labels = (rng.random(n) < 0.25).astype(np.int64)
        queryable = rng.random(n) < 0.8
        return pairs, scores, labels, queryable

    @pytest.mark.parametrize("block_size", [1, 7, 16, 100])
    @pytest.mark.parametrize(
        "make_strategy",
        [
            lambda: ConflictFalseNegativeStrategy(),
            lambda: ConflictFalseNegativeStrategy(allow_fallback=False),
            lambda: MarginQueryStrategy(boundary=0.4),
        ],
        ids=["conflict", "conflict-strict", "margin"],
    )
    def test_matches_select(self, make_strategy, block_size):
        pairs, scores, labels, queryable = self._rig()
        for batch_size in (1, 5, 200):
            expected = make_strategy().select(
                pairs, scores, labels, queryable, batch_size
            )
            streamed = make_strategy().select_streamed(
                _blockify_inputs(pairs, scores, labels, queryable, block_size),
                batch_size,
            )
            assert streamed == expected

    @pytest.mark.parametrize("block_size", [1, 7, 100])
    def test_random_matches_select(self, block_size):
        pairs, scores, labels, queryable = self._rig(seed=3)
        expected = RandomQueryStrategy(seed=42).select(
            pairs, scores, labels, queryable, 5
        )
        streamed = RandomQueryStrategy(seed=42).select_streamed(
            _blockify_inputs(pairs, scores, labels, queryable, block_size), 5
        )
        assert streamed == expected

    def test_empty_stream(self):
        assert ConflictFalseNegativeStrategy().select_streamed([], 5) == []
        assert MarginQueryStrategy().select_streamed([], 5) == []
        assert RandomQueryStrategy().select_streamed([], 5) == []

    def test_block_validation(self):
        left, right = user_codes(PAIRS)
        bad = ScoredBlock(
            pairs=PAIRS,
            scores=np.ones(3),
            labels=np.zeros(4),
            queryable=np.ones(4, dtype=bool),
            left_codes=left,
            right_codes=right,
        )
        with pytest.raises(ReproError):
            ConflictFalseNegativeStrategy().select_streamed([bad], 1)

    def test_conflict_block_without_codes_refused(self):
        block = ScoredBlock(
            pairs=PAIRS,
            scores=np.ones(4),
            labels=np.zeros(4),
            queryable=np.ones(4, dtype=bool),
        )
        with pytest.raises(ReproError, match="user codes"):
            ConflictFalseNegativeStrategy().select_streamed([block], 1)
        # Margin and random selection do not read the codes.
        assert MarginQueryStrategy().select_streamed([block], 1) == [0]
        assert len(RandomQueryStrategy().select_streamed([block], 1)) == 1

    def test_conflict_codes_of_wrong_length_refused(self):
        left, right = user_codes(PAIRS)
        block = ScoredBlock(
            pairs=PAIRS,
            scores=np.ones(4),
            labels=np.zeros(4),
            queryable=np.ones(4, dtype=bool),
            left_codes=left[:3],
            right_codes=right,
        )
        with pytest.raises(ReproError, match="user codes"):
            ConflictFalseNegativeStrategy().select_streamed([block], 1)

    @pytest.mark.parametrize(
        "strategy",
        [
            ConflictFalseNegativeStrategy(),
            ConflictFalseNegativeStrategy(allow_fallback=False),
            MarginQueryStrategy(),
            RandomQueryStrategy(seed=3),
        ],
        ids=["conflict", "conflict-strict", "margin", "random"],
    )
    def test_picks_are_plain_ints(self, strategy):
        pairs, scores, labels, queryable = self._rig()
        picks = strategy.select(pairs, scores, labels, queryable, 5)
        streamed = strategy.select_streamed(
            _blockify_inputs(pairs, scores, labels, queryable, 7), 5
        )
        assert picks and streamed
        assert all(type(pick) is int for pick in picks + streamed)

    def test_conflicts_across_block_boundaries(self):
        """A positive in one block must rank negatives in another."""
        strategy = ConflictFalseNegativeStrategy(allow_fallback=False)
        scores = np.array([0.60, 0.58, 0.10, 0.30])
        labels = np.array([1, 0, 0, 1])
        queryable = np.ones(4, dtype=bool)
        picks = strategy.select_streamed(
            _blockify_inputs(PAIRS, scores, labels, queryable, 1), 2
        )
        assert picks == strategy.select(PAIRS, scores, labels, queryable, 2)
        assert picks == [1]
