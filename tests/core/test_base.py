"""Tests for repro.core.base."""

import numpy as np
import pytest

from repro.core.base import AlignmentModel, AlignmentResult, AlignmentTask
from repro.exceptions import ModelError, NotFittedError

PAIRS = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]


def _task(labeled=((0, 1), (2, 0))):
    indices = np.array([i for i, _ in labeled])
    values = np.array([v for _, v in labeled])
    X = np.arange(8, dtype=float).reshape(4, 2)
    return AlignmentTask(
        pairs=list(PAIRS), X=X, labeled_indices=indices, labeled_values=values
    )


class TestAlignmentTask:
    def test_basic_properties(self):
        task = _task()
        assert task.n_candidates == 4
        assert task.unlabeled_mask.tolist() == [False, True, False, True]
        assert task.positive_indices.tolist() == [0]
        assert task.negative_indices.tolist() == [2]

    def test_index_of(self):
        task = _task()
        assert task.index_of(("b", "y")) == 3
        with pytest.raises(ModelError):
            task.index_of(("z", "z"))

    def test_scored_block_carries_cached_user_codes(self):
        task = _task()
        ones = np.ones(4)
        (block,) = task.scored_blocks(ones, ones, ones.astype(bool))
        assert block.left_codes.tolist() == [0, 0, 1, 1]
        assert block.right_codes.tolist() == [0, 1, 0, 1]
        (again,) = task.scored_blocks(ones, ones, ones.astype(bool))
        assert again.left_codes is block.left_codes

    def test_validation_x_shape(self):
        with pytest.raises(ModelError):
            AlignmentTask(
                pairs=list(PAIRS),
                X=np.ones((3, 2)),
                labeled_indices=np.array([0]),
                labeled_values=np.array([1]),
            )

    def test_validation_duplicate_labels(self):
        with pytest.raises(ModelError, match="duplicates"):
            AlignmentTask(
                pairs=list(PAIRS),
                X=np.ones((4, 2)),
                labeled_indices=np.array([0, 0]),
                labeled_values=np.array([1, 0]),
            )

    def test_validation_index_range(self):
        with pytest.raises(ModelError, match="out of range"):
            AlignmentTask(
                pairs=list(PAIRS),
                X=np.ones((4, 2)),
                labeled_indices=np.array([9]),
                labeled_values=np.array([1]),
            )

    def test_validation_label_values(self):
        with pytest.raises(ModelError, match="0/1"):
            AlignmentTask(
                pairs=list(PAIRS),
                X=np.ones((4, 2)),
                labeled_indices=np.array([0]),
                labeled_values=np.array([2]),
            )

    def test_empty_labels_allowed(self):
        task = AlignmentTask(
            pairs=list(PAIRS),
            X=np.ones((4, 2)),
            labeled_indices=np.array([], dtype=int),
            labeled_values=np.array([], dtype=int),
        )
        assert task.unlabeled_mask.all()


class TestAlignmentModelBase:
    def test_unfitted_access_raises(self):
        model = AlignmentModel()
        with pytest.raises(NotFittedError):
            _ = model.labels_
        with pytest.raises(NotFittedError):
            model.predicted_anchors()

    def test_predicted_anchors_maps_labels(self):
        model = AlignmentModel()
        model.task_ = _task()
        model.result_ = AlignmentResult(
            labels=np.array([1, 0, 0, 1]), scores=np.zeros(4)
        )
        assert model.predicted_anchors() == [("a", "x"), ("b", "y")]
