"""Traced runs: spans around each layer's public functions.

:meth:`LayerTrace.install` wraps the public functions of every layer a
paper run passes through, so each call records a span into a
:class:`~spans.SpanRecorder`; :func:`layer_metrics` turns the spans of
the traced paper runs, plus the program's own counters, into the
benchmark's per-layer metrics.  A metric ending in ``_s`` is self time
(time in the call minus time in nested wrapped calls), summed over a
run; the ``core.*_fit_s`` metrics are whole fit times instead, like the
per-method runtimes of an experiment outcome, and ``core.fit_self_s``
is their self time.  Every value is per paper run.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import repro.core.itermpmd as itermpmd
import repro.datasets as datasets
import repro.eval.experiment as experiment
import repro.eval.protocol as protocol
from repro.active.strategies import (
    ConflictFalseNegativeStrategy,
    RandomQueryStrategy,
)
from repro.core import ActiveIter, IterMPMD, SVMAligner
from repro.engine.session import AlignmentSession
from repro.engine.streaming import StreamedAlignmentTask
from repro.ml.backends import RidgeBackend, SVMBackend
from repro.ml.ridge import RidgeSolver

from spans import Patches, SpanRecorder, self_times
from workloads import PaperRun

#: (owner, attribute, span name) of every wrapped public function.  A
#: span without a metric of its own still counts as attributed time and
#: shows in the trace file.
LAYER_FUNCTIONS = [
    (datasets, "foursquare_twitter_like", "synth.generate"),
    (protocol, "sample_negatives", "protocol.sample_negatives"),
    (experiment, "run_experiment", "eval.experiment"),
    (experiment, "run_split", "eval.split"),
    (experiment, "classification_report", "eval.report"),
    (AlignmentSession, "__init__", "session.build"),
    (AlignmentSession, "extract", "session.extract"),
    (AlignmentSession, "set_anchors", "session.set_anchors"),
    (AlignmentSession, "apply_network_delta", "session.apply_delta"),
    (AlignmentSession, "refresh_features", "session.refresh"),
    (StreamedAlignmentTask, "from_pairs", "streaming.task"),
    (StreamedAlignmentTask, "gram", "streaming.gram"),
    (StreamedAlignmentTask, "xt_dot", "streaming.xt_dot"),
    (StreamedAlignmentTask, "scores", "streaming.scores"),
    (StreamedAlignmentTask, "labeled_rows", "streaming.labeled_rows"),
    (RidgeSolver, "__init__", "ridge.factor"),
    (RidgeSolver, "solve", "ridge.solve"),
    (RidgeBackend, "begin", "backend.ridge.begin"),
    (RidgeBackend, "fit", "backend.ridge.fit"),
    (RidgeBackend, "scores", "backend.ridge.scores"),
    (SVMBackend, "begin", "backend.svm.begin"),
    (SVMBackend, "fit", "backend.svm.fit"),
    (SVMBackend, "scores", "backend.svm.scores"),
    (itermpmd, "greedy_link_selection", "matching.greedy"),
    (ConflictFalseNegativeStrategy, "select", "active.select"),
    (ConflictFalseNegativeStrategy, "select_streamed", "active.select"),
    (RandomQueryStrategy, "select", "active.select"),
    (RandomQueryStrategy, "select_streamed", "active.select"),
    (ActiveIter, "fit", "core.active_fit"),
    (IterMPMD, "fit", "core.iterative_fit"),
    (SVMAligner, "fit", "core.svm_fit"),
]

#: Spans of the models' fits; their self time is the models' own loop
#: code, outside every wrapped layer call.
CORE_FITS = ("core.active_fit", "core.iterative_fit", "core.svm_fit")

#: ``SessionStats`` counters reported as ``session.<name>``.
SESSION_COUNTERS = ("columns_refreshed", "full_recounts", "fallback_invalidations")

#: Name of the span around one whole paper run; its self time is the
#: part of the run no layer span covers.
ROOT = "bench.run"


class LayerTrace:
    """Spans, extracted rows and session counters of the traced runs."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.extract_rows = 0
        self.counters = dict.fromkeys(SESSION_COUNTERS, 0)
        self._sessions: List[AlignmentSession] = []

    def run(self, workload_fn, *args):
        """One paper run inside the root span."""
        try:
            return self.recorder.call(ROOT, workload_fn, args, {})
        finally:
            for session in self._sessions:
                for name in SESSION_COUNTERS:
                    self.counters[name] += getattr(session.stats, name)
            self._sessions.clear()

    def install(self, patches: Patches) -> None:
        for owner, attribute, name in LAYER_FUNCTIONS:
            patches.span(self.recorder, owner, attribute, name)
        patches.replace(AlignmentSession, "__init__", self._keep_session)
        patches.replace(AlignmentSession, "extract", self._count_rows)

    def _keep_session(self, original):
        sessions = self._sessions

        def __init__(session, *args, **kwargs):
            original(session, *args, **kwargs)
            sessions.append(session)

        return __init__

    def _count_rows(self, original):
        trace = self

        def extract(session, pairs):
            trace.extract_rows += len(pairs)
            return original(session, pairs)

        return extract


def layer_metrics(trace: LayerTrace, runs: Sequence[PaperRun]) -> Dict[str, float]:
    """Per-layer metrics of the traced runs, per paper run.

    ``runs`` holds the traced runs that finished; a failed one still
    counts in the per-run averages of its spans.
    """
    selfs, calls = self_times(trace.recorder.records)
    n = calls[ROOT]
    totals: Dict[str, float] = {}
    for name, _, _, start, end in trace.recorder.records:
        totals[name] = totals.get(name, 0.0) + (end - start)
    counters = trace.counters
    fits = [fit for run in runs for fit in run.fits]
    queries = sum(fit.spent for fit in fits if fit.budget is not None)
    positives = sum(fit.positives_bought for fit in fits)
    candidate_rows = sum(run.candidates * run.rotations for run in runs)

    def self_s(name: str) -> float:
        return selfs.get(name, 0.0) / n

    def count(name: str) -> float:
        return calls.get(name, 0) / n

    metrics = {
        "synth.generate_s": self_s("synth.generate"),
        "synth.nodes": max((run.nodes for run in runs), default=0),
        "session.build_s": self_s("session.build"),
        "session.extract_s": self_s("session.extract"),
        "session.extract_calls": count("session.extract"),
        "session.extract_rows": trace.extract_rows / n,
        "session.rows_per_candidate": (
            trace.extract_rows / candidate_rows if candidate_rows else 0.0
        ),
        "session.set_anchors_s": self_s("session.set_anchors"),
        "session.set_anchors_calls": count("session.set_anchors"),
        "session.apply_delta_s": self_s("session.apply_delta"),
        "session.apply_delta_calls": count("session.apply_delta"),
        "session.refresh_s": self_s("session.refresh"),
        "session.columns_refreshed": counters["columns_refreshed"] / n,
        "session.full_recounts": counters["full_recounts"] / n,
        "session.fallback_invalidations": (
            counters["fallback_invalidations"] / n
        ),
        "streaming.gram_s": self_s("streaming.gram"),
        "streaming.gram_calls": count("streaming.gram"),
        "streaming.xt_dot_s": self_s("streaming.xt_dot"),
        "streaming.scores_s": self_s("streaming.scores"),
        "streaming.blocks": max((fit.blocks for fit in fits), default=0),
        "ridge.factor_s": self_s("ridge.factor"),
        "ridge.factor_calls": count("ridge.factor"),
        "ridge.solve_s": self_s("ridge.solve"),
        "ridge.solve_calls": count("ridge.solve"),
        "backend.ridge.fit_s": self_s("backend.ridge.fit"),
        "backend.ridge.fit_calls": count("backend.ridge.fit"),
        "backend.svm.fit_s": self_s("backend.svm.fit"),
        "backend.svm.fit_calls": count("backend.svm.fit"),
        "matching.greedy_s": self_s("matching.greedy"),
        "matching.greedy_calls": count("matching.greedy"),
        "active.select_s": self_s("active.select"),
        "active.select_calls": count("active.select"),
        "active.queries": queries / n,
        "active.positive_yield": positives / queries if queries else 0.0,
        "core.active_fit_s": totals.get("core.active_fit", 0.0) / n,
        "core.iterative_fit_s": totals.get("core.iterative_fit", 0.0) / n,
        "core.svm_fit_s": totals.get("core.svm_fit", 0.0) / n,
        "core.fit_self_s": sum(self_s(name) for name in CORE_FITS),
        "unattributed_s": self_s(ROOT),
        "unattributed_share": selfs.get(ROOT, 0.0) / totals[ROOT],
    }
    return metrics
