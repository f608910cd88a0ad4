"""Model-based test of the streamed task's block cache.

A ``hypothesis`` state machine drives one :class:`AlignmentSession` and
one :class:`StreamedAlignmentTask` through anchor updates, churn deltas,
compaction, state restores and block passes in random order.  Every
pass must serve exactly what an uncached sweep would give: each served
block equals a direct ``session.extract`` of its pairs, and
``gram``/``xt_dot``/``scores`` equal the same folds over freshly
extracted blocks, byte for byte.
"""

import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.datasets import foursquare_twitter_like
from repro.engine import AlignmentSession, StreamedAlignmentTask
from repro.engine.evolution import scripted_churn_schedule

_BLOCK_SIZE = 24
_EVENTS = 6


class BlockCacheMachine(RuleBasedStateMachine):
    """Cache coherence under every kind of session update."""

    store = False

    @initialize()
    def build(self):
        self.pair = foursquare_twitter_like("tiny", seed=11)
        self.schedule = scripted_churn_schedule(
            self.pair, events=_EVENTS, seed=0
        )
        self.applied = 0
        self.anchor_pool = sorted(self.pair.anchors, key=repr)[:12]
        self.store_dir = tempfile.mkdtemp() if self.store else None
        self.session = AlignmentSession(
            self.pair,
            known_anchors=self.anchor_pool[:4],
            store=self.store_dir,
        )
        # Base users only: the churn schedule never removes them.
        candidates = [
            (u, v)
            for u in self.pair.left_users()
            for v in self.pair.right_users()[:4]
        ]
        self.task = StreamedAlignmentTask.from_pairs(
            self.session,
            candidates,
            np.array([0, 1], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            block_size=_BLOCK_SIZE,
        )
        self.snapshot = None

    def teardown(self):
        session = getattr(self, "session", None)
        if session is not None:
            session.close()
        if getattr(self, "store_dir", None) is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    # -- session updates -----------------------------------------------
    @rule(picks=st.sets(st.integers(0, 11), max_size=6))
    def set_anchors(self, picks):
        self.session.set_anchors([self.anchor_pool[i] for i in picks])

    @rule(picks=st.sets(st.integers(0, 11), min_size=1, max_size=3))
    def add_anchors(self, picks):
        self.session.add_anchors([self.anchor_pool[i] for i in picks])

    @rule()
    def apply_churn(self):
        if self.applied < len(self.schedule):
            self.session.apply_network_delta(self.schedule[self.applied])
            self.applied += 1

    @rule()
    def compact(self):
        self.session.compact()

    @rule()
    def take_snapshot(self):
        self.snapshot = (
            self.applied,
            self.session.compaction_epoch,
            self.session.state_dict(),
        )

    @rule()
    def load_state(self):
        # A snapshot restores in place only while the session has not
        # evolved or compacted past it; otherwise round-trip the
        # current state.
        if self.snapshot is not None and self.snapshot[:2] == (
            self.applied,
            self.session.compaction_epoch,
        ):
            state = self.snapshot[2]
        else:
            state = self.session.state_dict()
        self.session.load_state_dict(state)

    # -- block passes ----------------------------------------------------
    def _direct(self, b):
        return self.session.extract(self.task.blocks[b])

    def _check_served(self, served, wanted):
        assert [offset for offset, _ in served] == [
            self.task.offsets[b] for b in wanted
        ]
        for (_, X), b in zip(served, wanted):
            assert not X.flags.writeable
            assert np.array_equal(X, self._direct(b))
            if self.store:
                assert isinstance(X, np.memmap)

    @rule(picks=st.lists(st.integers(0, 8), min_size=1, max_size=4))
    def selected_pass(self, picks):
        wanted = sorted({b % self.task.n_blocks for b in picks})
        served = list(self.task.selected_feature_blocks(wanted))
        self._check_served(served, wanted)

    @rule()
    def full_pass(self):
        served = list(self.task.feature_blocks())
        self._check_served(served, list(range(self.task.n_blocks)))

    @rule(seed=st.integers(0, 2**16))
    def gram_pass(self, seed):
        weights = np.random.default_rng(seed).random(self.task.n_candidates)
        expected = np.zeros((self.task.n_features, self.task.n_features))
        for b, offset in enumerate(self.task.offsets):
            X = self._direct(b)
            expected += (X.T * weights[offset: offset + X.shape[0]]) @ X
        assert np.array_equal(self.task.gram(weights), expected)

    @rule(seed=st.integers(0, 2**16))
    def xt_dot_pass(self, seed):
        target = np.random.default_rng(seed).random(self.task.n_candidates)
        expected = np.zeros(self.task.n_features)
        for b, offset in enumerate(self.task.offsets):
            X = self._direct(b)
            expected += X.T @ target[offset: offset + X.shape[0]]
        assert np.array_equal(self.task.xt_dot(target), expected)

    @rule(seed=st.integers(0, 2**16))
    def scores_pass(self, seed):
        weights = np.random.default_rng(seed).normal(
            size=self.task.n_features
        )
        expected = np.concatenate(
            [self._direct(b) @ weights for b in range(self.task.n_blocks)]
        )
        assert np.array_equal(self.task.scores(weights), expected)

    @invariant()
    def cache_epochs_never_run_ahead(self):
        epoch = self.session.delta_epoch
        assert all(
            cached is None or cached <= epoch
            for cached in self.task._cache_epochs
        )


class StoreBlockCacheMachine(BlockCacheMachine):
    """The same machine over a store-backed session: memory-mapped blocks."""

    store = True


TestBlockCacheMachine = BlockCacheMachine.TestCase
TestBlockCacheMachine.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)

TestStoreBlockCacheMachine = StoreBlockCacheMachine.TestCase
TestStoreBlockCacheMachine.settings = settings(
    max_examples=5, stateful_step_count=10, deadline=None
)
