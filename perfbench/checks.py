"""Output checks and the statistics the benchmark reports.

Every method fit of a paper run yields a :class:`FitRecord`;
:func:`check_fit` lists what is wrong with it (an empty list means the
fit passed).  :class:`QueryWaitClock` timestamps the label oracle's
batch calls, and :func:`percentile` applies the reporting rule: a
percentile is only reported when at least ten samples lie beyond it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


@dataclass
class FitRecord:
    """What one method fit produced, for the output checks.

    ``one_to_one`` is false for the SVM baselines: they threshold their
    scores without the matching step, so the paper does not hold them to
    the one-to-one constraint.  ``budget`` is ``None`` for methods that
    buy no labels.  ``blocks`` counts the candidate blocks of a streamed
    task (0 for a materialized one).
    """

    method: str
    pairs: Sequence[Tuple[object, object]]
    labels: np.ndarray
    scores: np.ndarray
    one_to_one: bool
    budget: Optional[int] = None
    spent: int = 0
    positives_bought: int = 0
    blocks: int = 0


def check_fit(record: FitRecord) -> List[str]:
    """Problems with one fit's outputs; empty when it passes."""
    problems = []
    labels = np.asarray(record.labels)
    if labels.shape != (len(record.pairs),):
        problems.append(
            f"{labels.shape[0] if labels.ndim else 0} labels for "
            f"{len(record.pairs)} candidates"
        )
        return problems
    if not np.isin(labels, (0, 1)).all():
        problems.append("labels are not all 0/1")
    if record.one_to_one:
        lefts, rights = set(), set()
        for index in np.flatnonzero(labels == 1):
            left, right = record.pairs[index]
            if left in lefts or right in rights:
                problems.append(
                    f"user matched twice: {(left, right)!r} breaks one-to-one"
                )
                break
            lefts.add(left)
            rights.add(right)
    if record.budget is not None and record.spent > record.budget:
        problems.append(
            f"bought {record.spent} labels over a budget of {record.budget}"
        )
    return problems


@dataclass
class OutputDigest:
    """SHA-256 digests of every method's labels and scores, fit by fit."""

    labels: Dict[str, Any] = field(default_factory=dict)
    scores: Dict[str, Any] = field(default_factory=dict)

    def add(self, record: FitRecord) -> None:
        labels = np.ascontiguousarray(record.labels, dtype=np.int64)
        scores = np.ascontiguousarray(record.scores, dtype=np.float64)
        self.labels.setdefault(record.method, hashlib.sha256()).update(
            labels.tobytes()
        )
        self.scores.setdefault(record.method, hashlib.sha256()).update(
            scores.tobytes()
        )

    def hexdigests(self) -> Dict[str, Dict[str, str]]:
        return {
            "labels": {m: h.hexdigest() for m, h in sorted(self.labels.items())},
            "scores": {m: h.hexdigest() for m, h in sorted(self.scores.items())},
        }


def digest_mismatches(
    got: Dict[str, Dict[str, str]], expected: Dict[str, Dict[str, str]]
) -> Dict[str, str]:
    """Method -> problem, for each expected digest that ``got`` misses."""
    problems = {}
    for kind in ("labels", "scores"):
        for method, digest in sorted(expected[kind].items()):
            actual = got[kind].get(method)
            if actual != digest:
                problems.setdefault(
                    method, f"{method}: {kind} digest {actual} != {digest}"
                )
    return problems


class RunChecker:
    """Checks every paper run of a benchmark run and counts failed fits.

    A fit fails when :func:`check_fit` finds a problem, or when its
    method's digests differ from the ones the run is expected to
    reproduce: the pinned digests of the default inputs, or those of an
    earlier run on the same inputs.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(
        self,
        fits: Sequence[FitRecord],
        expected: Optional[Dict[str, Dict[str, str]]] = None,
    ) -> Dict[str, Dict[str, str]]:
        """Check one run's fits; returns their digests."""
        digest = OutputDigest()
        broken = set()
        for fit in fits:
            problems = check_fit(fit)
            if problems:
                broken.add(id(fit))
                self.problems.extend(f"{fit.method}: {p}" for p in problems)
            digest.add(fit)
        digests = digest.hexdigests()
        moved = {} if expected is None else digest_mismatches(digests, expected)
        self.problems.extend(moved.values())
        self.attempted += len(fits)
        self.failed += sum(
            1 for fit in fits if id(fit) in broken or fit.method in moved
        )
        return digests

    def run_failed(self, fits: int, error: str) -> None:
        """Count a paper run that raised: all its fits failed."""
        self.attempted += fits
        self.failed += fits
        self.problems.append(error)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when it would rest on fewer
    than :data:`MIN_TAIL_SAMPLES` samples beyond it.

    Uses the nearest-rank definition, so the value is always one of the
    samples.
    """
    n = len(samples)
    tail = n * (100.0 - q) / 100.0
    if n == 0 or (q > 50.0 and tail < MIN_TAIL_SAMPLES):
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1]


class QueryWaitClock:
    """How long a labeler waits for each next query batch.

    A wait runs from the start of an active fit, or from the return of
    the previous batch call, to the next batch call or the fit's
    return.  Only timestamps are taken, so the clock stays on in
    untraced runs.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._since: Optional[float] = None
        self.waits: List[float] = []

    def fit_started(self) -> None:
        self._since = self._clock()

    def batch_called(self) -> None:
        self._close()

    def batch_returned(self) -> None:
        self._since = self._clock()

    def fit_returned(self) -> None:
        self._close()

    def _close(self) -> None:
        now = self._clock()
        if self._since is not None:
            self.waits.append(now - self._since)
        self._since = None
