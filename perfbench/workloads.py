"""The benchmark's workloads: one paper run each.

A workload drives the program only through its public entry points
(``foursquare_twitter_like``, ``build_splits``, ``standard_methods``
with ``run_experiment``, ``ActiveIter`` and ``scripted_churn_schedule``)
and returns every method fit it made, for the output checks.  Fits are
captured by :class:`FitCapture`, which wraps the models' ``fit``
methods and the label oracle's ``query_batch``; it only keeps
references and timestamps, so it stays on in untraced runs.

Every workload runs serially in one process (the session's default
serial executor): the numbers measure the program, not a scheduler.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import repro.datasets as datasets
import repro.eval.experiment as experiment
import repro.eval.protocol as protocol
from repro.active.oracle import LabelOracle
from repro.active.strategies import ConflictFalseNegativeStrategy
from repro.core import ActiveIter, AlignmentTask, IterMPMD, SVMAligner
from repro.engine.evolution import scripted_churn_schedule
from repro.engine.session import AlignmentSession
from repro.eval.experiment import standard_methods
from repro.eval.protocol import ProtocolConfig
from repro.meta.diagrams import standard_diagram_family
from repro.ml.metrics import classification_report

from checks import FitRecord, QueryWaitClock
from spans import Patches


@dataclass
class PaperRun:
    """What one paper run produced.

    ``fits`` are in call order and named after the method that made
    them; ``f1_activeiter`` is the test F1 of the workload's headline
    ActiveIter; ``nodes`` counts the generated pair's nodes;
    ``candidates`` is |H| and ``rotations`` the fold rotations run.
    """

    fits: List[FitRecord]
    f1_activeiter: float
    nodes: int
    candidates: int
    rotations: int


class FitCapture:
    """Collects every top-level model fit and the query-batch waits."""

    def __init__(self) -> None:
        self.models: List[tuple] = []
        self.clock = QueryWaitClock()
        self._depth = 0

    def install(self, patches: Patches) -> None:
        for cls in (ActiveIter, IterMPMD, SVMAligner):
            patches.replace(cls, "fit", self._wrap_fit)
        patches.replace(LabelOracle, "query_batch", self._wrap_query)

    def _wrap_fit(self, original: Callable) -> Callable:
        capture = self

        def fit(model, task):
            capture._depth += 1
            active = isinstance(model, ActiveIter) and capture._depth == 1
            if active:
                capture.clock.fit_started()
            try:
                return original(model, task)
            finally:
                capture._depth -= 1
                if active:
                    capture.clock.fit_returned()
                if capture._depth == 0:
                    capture.models.append((model, task))

        return fit

    def _wrap_query(self, original: Callable) -> Callable:
        clock = self.clock

        def query_batch(oracle, pairs):
            clock.batch_called()
            try:
                return original(oracle, pairs)
            finally:
                clock.batch_returned()

        return query_batch

    def take(self, names: List[str]) -> List[FitRecord]:
        """The captured fits as records, named in call order; resets."""
        if len(self.models) != len(names):
            raise RuntimeError(
                f"captured {len(self.models)} fits, expected {len(names)}"
            )
        records = []
        for name, (model, task) in zip(names, self.models):
            oracle = getattr(model, "oracle", None)
            records.append(
                FitRecord(
                    method=name,
                    pairs=task.pairs,
                    labels=model.labels_,
                    scores=model.scores_,
                    one_to_one=not isinstance(model, SVMAligner),
                    budget=None if oracle is None else oracle.budget,
                    spent=0 if oracle is None else oracle.spent,
                    positives_bought=sum(
                        label for _, label in model.queried_
                    ),
                    blocks=getattr(task, "n_blocks", 0),
                )
            )
        self.models = []
        return records


def _node_count(pair) -> int:
    return sum(
        network.node_count(node_type)
        for network in (pair.left, pair.right)
        for node_type in network.schema.node_types
    )


#: Fold rotations per Table III paper run.  One rotation per generated
#: pair lets a benchmark run cover several pairs, which steadies its
#: median from one seed to the next; the paper's later rotations only
#: repeat the work of the first on the same pair.
TABLE3_ROTATIONS = 1


def table3_streamed(
    capture: FitCapture, seed: int, scale: str = "large"
) -> PaperRun:
    """The paper's Table III lineup over streamed candidate blocks.

    SVM-MP is left out: its paths-only column subset cannot stream.
    """
    methods = [
        dataclasses.replace(spec, streamed=True)
        for spec in standard_methods()
        if spec.features == "full"
    ]
    pair = datasets.foursquare_twitter_like(scale, seed=seed)
    nodes = _node_count(pair)
    config = ProtocolConfig(
        np_ratio=10, sample_ratio=0.6, n_repeats=TABLE3_ROTATIONS, seed=seed
    )
    outcome = experiment.run_experiment(pair, config, methods)
    fits = capture.take(
        [spec.name for _ in range(TABLE3_ROTATIONS) for spec in methods]
    )
    return PaperRun(
        fits=fits,
        f1_activeiter=outcome.method("ActiveIter-100").mean("f1"),
        nodes=nodes,
        candidates=len(fits[0].pairs),
        rotations=TABLE3_ROTATIONS,
    )


#: Network events of the drift workload, one applied after each round.
DRIFT_EVENTS = 20


def drift(capture: FitCapture, seed: int, scale: str = "large") -> PaperRun:
    """Dense ActiveIter-100 on the first split while the network churns."""
    pair = datasets.foursquare_twitter_like(scale, seed=seed)
    nodes = _node_count(pair)
    config = ProtocolConfig(np_ratio=10, sample_ratio=0.6, n_repeats=1, seed=seed)
    split = next(iter(protocol.build_splits(pair, config)))
    schedule = scripted_churn_schedule(pair, events=DRIFT_EVENTS, seed=seed)
    candidates = list(split.candidates)
    positives = {
        pair_ for pair_, truth in zip(candidates, split.truth) if truth == 1
    }
    with AlignmentSession(
        pair,
        family=standard_diagram_family(),
        known_anchors=split.train_positive_pairs,
    ) as session:
        task = AlignmentTask(
            pairs=candidates,
            X=session.extract(candidates),
            labeled_indices=split.train_indices,
            labeled_values=split.truth[split.train_indices],
        )
        model = ActiveIter(
            oracle=LabelOracle(positives, budget=100),
            strategy=ConflictFalseNegativeStrategy(),
            batch_size=5,
            session=session,
            refresh_features=True,
            evolution=list(enumerate(schedule, start=1)),
        )
        model.fit(task)
    queried = {pair_ for pair_, _ in model.queried_}
    test = np.array(
        [i for i in split.test_indices if candidates[i] not in queried],
        dtype=np.int64,
    )
    report = classification_report(split.truth[test], model.labels_[test])
    return PaperRun(
        fits=capture.take(["ActiveIter-100"]),
        f1_activeiter=report.f1,
        nodes=nodes,
        candidates=len(candidates),
        rotations=1,
    )


#: Workload name -> one paper run, given the capture, the dataset and
#: protocol seed, and the scale of the generated pair.
WORKLOADS: Dict[str, Callable[..., PaperRun]] = {
    "table3-streamed": table3_streamed,
    "drift": drift,
}
