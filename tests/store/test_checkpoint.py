"""Checkpoint round-trip and mid-loop crash/resume determinism."""

import numpy as np
import pytest

from repro.active.oracle import LabelOracle
from repro.core.activeiter import ActiveIter
from repro.core.base import AlignmentTask
from repro.engine import AlignmentSession, StreamedAlignmentTask
from repro.eval.protocol import ProtocolConfig, build_splits
from repro.exceptions import CheckpointInterrupt, StoreError
from repro.store import SessionCheckpoint


@pytest.fixture(scope="module")
def split_setup(tiny_pair_module):
    pair = tiny_pair_module
    config = ProtocolConfig(
        np_ratio=5, sample_ratio=1.0, n_repeats=1, seed=13
    )
    split = next(iter(build_splits(pair, config)))
    positives = {
        split.candidates[i]
        for i in range(len(split.candidates))
        if split.truth[i] == 1
    }
    return pair, split, positives


class TestSessionStateRoundTrip:
    def test_state_dict_restores_byte_identical_features(self, split_setup):
        pair, split, _ = split_setup
        candidates = list(split.candidates)
        source = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        X = source.extract(candidates)
        # Grow the anchor set so the snapshot carries delta-folded state.
        extra = [
            candidates[i]
            for i in range(len(candidates))
            if split.truth[i] == 1
        ]
        source.set_anchors(extra)
        source.refresh_features(X, candidates)

        target = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        target.load_state_dict(source.state_dict())
        assert target.known_anchors == source.known_anchors
        assert np.array_equal(target.extract(list(candidates)), X)

    def test_state_dict_round_trips_through_checkpoint_file(
        self, split_setup, tmp_path
    ):
        pair, split, _ = split_setup
        session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        session.extract(list(split.candidates))
        checkpoint = SessionCheckpoint(tmp_path)
        checkpoint.save(session=session, payload={"round": 3})
        restored = AlignmentSession(pair)
        payload = checkpoint.restore(restored)
        assert payload == {"round": 3}
        assert restored.known_anchors == session.known_anchors

    def test_family_mismatch_rejected(self, split_setup):
        pair, split, _ = split_setup
        session = AlignmentSession(pair)
        state = session.state_dict()
        state["structures"] = {"bogus": None}
        with pytest.raises(StoreError):
            AlignmentSession(pair).load_state_dict(state)

    def test_unsupported_state_version_rejected(self, split_setup):
        pair, _, _ = split_setup
        session = AlignmentSession(pair)
        state = session.state_dict()
        state["format_version"] = 99
        with pytest.raises(StoreError):
            session.load_state_dict(state)


class TestCheckpointFile:
    def test_missing_checkpoint_raises(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path)
        assert not checkpoint.exists()
        with pytest.raises(StoreError):
            checkpoint.load()

    def test_clear_removes_file(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path)
        checkpoint.save(payload={"x": 1})
        assert checkpoint.exists()
        assert checkpoint.clear()
        assert not checkpoint.exists()
        assert not checkpoint.clear()

    def test_interrupt_after_fires_post_save(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path, interrupt_after=2)
        checkpoint.save(payload={"round": 1})
        with pytest.raises(CheckpointInterrupt):
            checkpoint.save(payload={"round": 2})
        # The save that raised still landed durably.
        _, payload = SessionCheckpoint(tmp_path).load()
        assert payload == {"round": 2}

    def test_explicit_pkl_path_accepted(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path / "custom.pkl")
        checkpoint.save(payload=7)
        assert (tmp_path / "custom.pkl").exists()
        assert SessionCheckpoint(tmp_path / "custom.pkl").load() == (None, 7)


class TestCheckpointRotation:
    def test_default_is_last_round_wins(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path)
        for round_ in range(3):
            checkpoint.save(payload={"round": round_})
        assert checkpoint.history() == ()
        assert checkpoint.load() == (None, {"round": 2})

    def test_keep_last_retains_history(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path, keep_last=3)
        for round_ in range(5):
            checkpoint.save(payload={"round": round_})
        assert len(checkpoint.history()) == 2
        assert checkpoint.load() == (None, {"round": 4})
        assert checkpoint.load(generation=1) == (None, {"round": 3})
        assert checkpoint.load(generation=2) == (None, {"round": 2})
        with pytest.raises(StoreError):
            checkpoint.load(generation=3)  # pruned past keep_last

    def test_latest_always_present_during_rotation(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path, keep_last=2)
        checkpoint.save(payload=1)
        checkpoint.save(payload=2)
        # Rotation hardlinks rather than moves: both generations exist.
        assert checkpoint.path.exists()
        assert checkpoint.load(generation=1) == (None, 1)

    def test_clear_removes_history(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path, keep_last=4)
        for round_ in range(4):
            checkpoint.save(payload=round_)
        assert checkpoint.clear()
        assert not checkpoint.exists()
        assert checkpoint.history() == ()

    def test_keep_last_validated(self, tmp_path):
        with pytest.raises(StoreError):
            SessionCheckpoint(tmp_path, keep_last=0)


class _FitBuilder:
    """Deterministic model/task construction shared by resume tests."""

    def __init__(self, pair, split, positives, streamed, budget=12, batch=2):
        self.pair = pair
        self.split = split
        self.positives = positives
        self.streamed = streamed
        self.budget = budget
        self.batch = batch

    def build(self, checkpoint=None):
        split = self.split
        session = AlignmentSession(
            self.pair, known_anchors=split.train_positive_pairs
        )
        candidates = list(split.candidates)
        if self.streamed:
            task = StreamedAlignmentTask.from_pairs(
                session,
                candidates,
                split.train_indices,
                split.truth[split.train_indices],
                block_size=64,
            )
        else:
            task = AlignmentTask(
                pairs=candidates,
                X=session.extract(candidates),
                labeled_indices=split.train_indices,
                labeled_values=split.truth[split.train_indices],
            )
        model = ActiveIter(
            LabelOracle(self.positives, budget=self.budget),
            batch_size=self.batch,
            session=session,
            refresh_features=True,
            checkpoint=checkpoint,
        )
        return model, task


@pytest.mark.parametrize("streamed", [False, True])
class TestCrashResumeDeterminism:
    def test_resume_reproduces_uninterrupted_run(
        self, split_setup, tmp_path, streamed
    ):
        pair, split, positives = split_setup
        builder = _FitBuilder(pair, split, positives, streamed)

        reference, reference_task = builder.build()
        reference.fit(reference_task)
        assert reference.result_.n_rounds > 2, "need a multi-round fit"

        interrupted = SessionCheckpoint(tmp_path, interrupt_after=2)
        model, task = builder.build(checkpoint=interrupted)
        with pytest.raises(CheckpointInterrupt):
            model.fit(task)
        assert interrupted.exists()

        resumed_checkpoint = SessionCheckpoint(tmp_path)
        resumed, resumed_task = builder.build(checkpoint=resumed_checkpoint)
        resumed.fit(resumed_task)

        assert resumed.queried_ == reference.queried_
        assert np.array_equal(resumed.labels_, reference.labels_)
        assert np.array_equal(resumed.weights_, reference.weights_)
        assert np.array_equal(resumed.scores_, reference.scores_)
        assert (
            resumed.result_.convergence_trace
            == reference.result_.convergence_trace
        )
        assert resumed.result_.n_rounds == reference.result_.n_rounds
        # A completed fit clears its checkpoint.
        assert not resumed_checkpoint.exists()

    def test_resume_spends_remaining_budget_only(
        self, split_setup, tmp_path, streamed
    ):
        pair, split, positives = split_setup
        builder = _FitBuilder(pair, split, positives, streamed)
        checkpoint = SessionCheckpoint(tmp_path, interrupt_after=1)
        model, task = builder.build(checkpoint=checkpoint)
        with pytest.raises(CheckpointInterrupt):
            model.fit(task)
        spent_at_crash = len(model.oracle.queried)
        assert spent_at_crash > 0

        resumed, resumed_task = builder.build(
            checkpoint=SessionCheckpoint(tmp_path)
        )
        resumed.fit(resumed_task)
        # Bought labels across crash + resume never exceed the budget.
        assert len(resumed.queried_) <= builder.budget


class TestEvolutionResume:
    """Crash/resume determinism across network-evolution events."""

    def _build(self, checkpoint=None, budget=10):
        from repro.datasets import foursquare_twitter_like
        from repro.engine import evolution_rounds, scripted_delta_schedule
        from repro.eval.protocol import ProtocolConfig, build_splits

        # A fresh (pre-evolution) pair every call: resume must replay
        # the drift from the checkpoint's evolution log.
        pair = foursquare_twitter_like("tiny", seed=7)
        config = ProtocolConfig(
            np_ratio=5, sample_ratio=1.0, n_repeats=1, seed=13
        )
        split = next(iter(build_splits(pair, config)))
        schedule = scripted_delta_schedule(pair, events=3, seed=4)
        positives = {
            split.candidates[i]
            for i in range(len(split.candidates))
            if split.truth[i] == 1
        }
        session = AlignmentSession(
            pair, known_anchors=split.train_positive_pairs
        )
        candidates = list(split.candidates)
        task = AlignmentTask(
            pairs=candidates,
            X=session.extract(candidates),
            labeled_indices=split.train_indices,
            labeled_values=split.truth[split.train_indices],
        )
        model = ActiveIter(
            LabelOracle(positives, budget=budget),
            batch_size=2,
            session=session,
            refresh_features=True,
            checkpoint=checkpoint,
            evolution=evolution_rounds(schedule),
        )
        return model, task

    def test_resume_across_evolution_is_byte_identical(self, tmp_path):
        reference, reference_task = self._build()
        reference.fit(reference_task)
        assert reference.result_.n_rounds > 2, "need a multi-round fit"

        interrupted = SessionCheckpoint(tmp_path, interrupt_after=2)
        model, task = self._build(checkpoint=interrupted)
        with pytest.raises(CheckpointInterrupt):
            model.fit(task)
        assert interrupted.exists()

        resumed, resumed_task = self._build(
            checkpoint=SessionCheckpoint(tmp_path)
        )
        resumed.fit(resumed_task)

        assert resumed.queried_ == reference.queried_
        assert np.array_equal(resumed.labels_, reference.labels_)
        assert np.array_equal(resumed.weights_, reference.weights_)
        assert np.array_equal(resumed.scores_, reference.scores_)
        assert (
            resumed.result_.convergence_trace
            == reference.result_.convergence_trace
        )

    def test_resumed_session_replays_the_drift(self, tmp_path):
        interrupted = SessionCheckpoint(tmp_path, interrupt_after=2)
        model, task = self._build(checkpoint=interrupted)
        with pytest.raises(CheckpointInterrupt):
            model.fit(task)
        events_at_crash = len(model.session.evolution_log)
        assert events_at_crash >= 1

        resumed, resumed_task = self._build(
            checkpoint=SessionCheckpoint(tmp_path)
        )
        # Before the fit, the fresh pair is ungrown...
        assert not resumed.session.pair.left.has_node("user", "evo:left:u0")
        resumed.fit(resumed_task)
        # ...after it, the checkpoint's log (plus the remaining
        # schedule) has been replayed onto it.
        assert len(resumed.session.evolution_log) >= events_at_crash


class TestRandomStrategyResume:
    @pytest.mark.parametrize("strategy_name", ["random", "committee"])
    def test_rng_state_round_trips(self, split_setup, tmp_path, strategy_name):
        from repro.active.committee import CommitteeQueryStrategy
        from repro.active.strategies import RandomQueryStrategy

        pair, split, positives = split_setup

        def build(checkpoint=None):
            session = AlignmentSession(
                pair, known_anchors=split.train_positive_pairs
            )
            candidates = list(split.candidates)
            task = AlignmentTask(
                pairs=candidates,
                X=session.extract(candidates),
                labeled_indices=split.train_indices,
                labeled_values=split.truth[split.train_indices],
            )
            if strategy_name == "random":
                strategy = RandomQueryStrategy(seed=5)
            else:
                strategy = CommitteeQueryStrategy(n_members=3, seed=5).bind(
                    task.X
                )
            model = ActiveIter(
                LabelOracle(positives, budget=10),
                strategy=strategy,
                batch_size=2,
                session=session,
                refresh_features=True,
                checkpoint=checkpoint,
            )
            return model, task

        reference, reference_task = build()
        reference.fit(reference_task)

        with pytest.raises(CheckpointInterrupt):
            model, task = build(SessionCheckpoint(tmp_path, interrupt_after=2))
            model.fit(task)
        resumed, resumed_task = build(SessionCheckpoint(tmp_path))
        resumed.fit(resumed_task)
        assert resumed.queried_ == reference.queried_
        assert np.array_equal(resumed.labels_, reference.labels_)
