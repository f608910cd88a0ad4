"""Pinned digests of the paper lineup's labels and scores.

Every model of the Table III lineup (SVM-MP aside: its paths-only
column subset cannot stream) is fit dense and streamed on the first
split of the ``small`` and ``medium`` presets, plus one dense ActiveIter
whose network churns between rounds (the drift path).  The SHA-256 of
each fit's labels and scores must equal the committed fixture
``lineup_digests.json``: a refactor of the fit paths may not move a
single output byte.

Regenerate the fixture (only for an intended output change) with
``PYTHONPATH=src:tests python tests/core/test_lineup_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.active.oracle import LabelOracle
from repro.core import ActiveIter, AlignmentTask
from repro.datasets import foursquare_twitter_like
from repro.engine.evolution import scripted_churn_schedule
from repro.engine.session import AlignmentSession
from repro.engine.streaming import StreamedAlignmentTask
from repro.eval.experiment import _build_model, standard_methods
from repro.eval.protocol import ProtocolConfig, build_splits
from repro.meta.diagrams import standard_diagram_family

FIXTURE = Path(__file__).with_name("lineup_digests.json")
SEED = 7
#: Streamed block size: small enough that every preset spans several
#: blocks, so selection and the ridge sums cross block boundaries.
BLOCK_SIZE = 512


def _digest(model) -> Dict[str, str]:
    labels = np.ascontiguousarray(model.labels_, dtype=np.int64)
    scores = np.ascontiguousarray(model.scores_, dtype=np.float64)
    return {
        "labels": hashlib.sha256(labels.tobytes()).hexdigest(),
        "scores": hashlib.sha256(scores.tobytes()).hexdigest(),
    }


def _first_split(scale: str):
    pair = foursquare_twitter_like(scale, seed=SEED)
    config = ProtocolConfig(np_ratio=10, sample_ratio=0.6, n_repeats=1, seed=SEED)
    return pair, next(iter(build_splits(pair, config)))


def lineup_digests(scale: str) -> Dict[str, Dict[str, str]]:
    """``"<method>/<dense|streamed>"`` -> digests of one lineup fit."""
    pair, split = _first_split(scale)
    candidates = list(split.candidates)
    labeled_values = split.truth[split.train_indices]
    session = AlignmentSession(
        pair,
        family=standard_diagram_family(),
        known_anchors=split.train_positive_pairs,
    )
    X = session.extract(candidates)
    streamed = StreamedAlignmentTask.from_pairs(
        session, candidates, split.train_indices, labeled_values,
        block_size=BLOCK_SIZE,
    )
    assert streamed.n_blocks > 1
    digests: Dict[str, Dict[str, str]] = {}
    for spec in standard_methods():
        if spec.features != "full":
            continue
        dense = AlignmentTask(
            pairs=candidates,
            X=X.copy(),
            labeled_indices=split.train_indices,
            labeled_values=labeled_values,
        )
        for path, task in (("dense", dense), ("streamed", streamed)):
            model = _build_model(spec, split, SEED)
            model.fit(task)
            digests[f"{spec.name}/{path}"] = _digest(model)
    return digests


def drift_digests() -> Dict[str, str]:
    """Dense ActiveIter-100 with feature refresh while the network churns."""
    pair, split = _first_split("small")
    candidates = list(split.candidates)
    positives = {
        pair_ for pair_, truth in zip(candidates, split.truth) if truth == 1
    }
    schedule = scripted_churn_schedule(pair, events=10, seed=SEED)
    session = AlignmentSession(
        pair,
        family=standard_diagram_family(),
        known_anchors=split.train_positive_pairs,
    )
    task = AlignmentTask(
        pairs=candidates,
        X=session.extract(candidates),
        labeled_indices=split.train_indices,
        labeled_values=split.truth[split.train_indices],
    )
    model = ActiveIter(
        LabelOracle(positives, budget=100),
        session=session,
        refresh_features=True,
        evolution=list(enumerate(schedule, start=1)),
    )
    model.fit(task)
    return _digest(model)


def compute_all() -> Dict[str, object]:
    return {
        "small": lineup_digests("small"),
        "medium": lineup_digests("medium"),
        "drift-small": drift_digests(),
    }


@pytest.fixture(scope="module")
def pinned() -> Dict[str, object]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("scale", ["small", "medium"])
def test_lineup_digests_are_pinned(pinned, scale):
    assert lineup_digests(scale) == pinned[scale]


def test_drift_digests_are_pinned(pinned):
    assert drift_digests() == pinned["drift-small"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_all(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
