"""Tests of the benchmark's own helpers (no paper run needed).

Run with ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import numpy as np
import pytest

from checks import (
    FitRecord,
    OutputDigest,
    QueryWaitClock,
    RunChecker,
    check_fit,
    digest_mismatches,
    percentile,
)
from run import package_import_seconds, parse_importtime
from spans import Patches, SpanRecorder, self_times


def _record(labels, pairs=None, **kwargs):
    pairs = pairs or [(f"l{i}", f"r{i}") for i in range(len(labels))]
    return FitRecord(
        method="ActiveIter-100",
        pairs=pairs,
        labels=np.asarray(labels, dtype=np.int64),
        scores=np.linspace(0.0, 1.0, len(labels)),
        one_to_one=True,
        **kwargs,
    )


class TestSelfTime:
    def test_nested_spans_subtract_direct_children(self):
        records = [
            ("grandchild", 3, 1, 2.0, 3.0),
            ("inner", 1, 0, 1.0, 4.0),
            ("inner", 2, 0, 5.0, 6.0),
            ("outer", 0, None, 0.0, 10.0),
        ]
        selfs, calls = self_times(records)
        assert selfs == pytest.approx(
            {"outer": 6.0, "inner": 3.0, "grandchild": 1.0}
        )
        assert calls == {"outer": 1, "inner": 2, "grandchild": 1}
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_patched_calls_nest_under_their_caller(self):
        class Layer:
            def low(self):
                return 1

            def high(self):
                return self.low() + self.low()

        recorder = SpanRecorder("t")
        with Patches() as patches:
            patches.span(recorder, Layer, "low", "layer.low")
            patches.span(recorder, Layer, "high", "layer.high")
            assert Layer().high() == 2
        assert "low" in vars(Layer) and Layer.low.__name__ == "low"
        by_name = {}
        for name, span_id, parent, _, _ in recorder.records:
            by_name.setdefault(name, []).append((span_id, parent))
        (high_id, high_parent), = by_name["layer.high"]
        assert high_parent is None
        assert [parent for _, parent in by_name["layer.low"]] == [high_id] * 2
        records = recorder.jsonl_records()
        assert {r["trace"] for r in records} == {"t"}
        assert all(r["elapsed"] >= 0 for r in records)

    def test_restore_removes_wrappers_of_inherited_methods(self):
        class Base:
            def fit(self):
                return "base"

        class Child(Base):
            pass

        with Patches() as patches:
            patches.replace(Child, "fit", lambda original: lambda self: "wrapped")
            assert Child().fit() == "wrapped"
        assert "fit" not in vars(Child)
        assert Child().fit() == "base"


class TestPercentile:
    def test_no_p90_below_one_hundred_samples(self):
        assert percentile(list(range(99)), 90) is None
        assert percentile(list(range(100)), 90) == 89

    def test_median_needs_no_tail(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert percentile([], 50) is None


class TestQueryWaitClock:
    def test_waits_run_between_batches_and_to_the_fit_return(self):
        ticks = iter([0.0, 2.0, 3.0, 7.0, 8.0, 10.0])
        clock = QueryWaitClock(clock=lambda: next(ticks))
        clock.fit_started()  # 0
        clock.batch_called()  # 2: waited 2
        clock.batch_returned()  # 3
        clock.batch_called()  # 7: waited 4
        clock.batch_returned()  # 8
        clock.fit_returned()  # 10: waited 2
        assert clock.waits == [2.0, 4.0, 2.0]


class TestOutputChecks:
    def test_a_clean_fit_passes(self):
        assert check_fit(_record([1, 0, 1, 0], budget=5, spent=5)) == []

    def test_a_user_matched_twice_fails(self):
        pairs = [("a", "x"), ("a", "y"), ("b", "z")]
        problems = check_fit(_record([1, 1, 0], pairs=pairs))
        assert any("matched twice" in p for p in problems)
        pairs = [("a", "x"), ("b", "x")]
        assert check_fit(_record([1, 1], pairs=pairs))

    def test_svm_baselines_are_not_held_to_one_to_one(self):
        record = _record([1, 1], pairs=[("a", "x"), ("a", "y")])
        record.one_to_one = False
        assert check_fit(record) == []

    def test_labels_must_be_binary(self):
        assert any("0/1" in p for p in check_fit(_record([0, 2, 1])))

    def test_overspent_budget_fails(self):
        problems = check_fit(_record([0, 1], budget=5, spent=6))
        assert any("budget" in p for p in problems)

    def test_a_flipped_label_breaks_the_pinned_digest(self):
        good = OutputDigest()
        good.add(_record([1, 0, 0, 1]))
        pinned = good.hexdigests()
        assert digest_mismatches(pinned, pinned) == {}
        flipped = OutputDigest()
        flipped.add(_record([1, 0, 1, 1]))
        problems = digest_mismatches(flipped.hexdigests(), pinned)
        assert list(problems) == ["ActiveIter-100"]
        assert "labels digest" in problems["ActiveIter-100"]

    def test_run_checker_counts_each_failed_fit_once(self):
        checker = RunChecker()
        clean = [_record([1, 0, 0, 1])]
        expected = checker.check(clean)
        assert (checker.attempted, checker.failed) == (1, 0)
        checker.check([_record([1, 0, 0, 1])], expected)
        assert (checker.attempted, checker.failed) == (2, 0)
        flipped = _record([1, 0, 1, 1], pairs=[("a", "x"), ("b", "y"),
                                               ("a", "z"), ("c", "w")])
        checker.check([flipped], expected)
        assert (checker.attempted, checker.failed) == (3, 1)
        assert any("matched twice" in p for p in checker.problems)
        assert any("labels digest" in p for p in checker.problems)
        checker.run_failed(6, "Traceback: boom")
        assert (checker.attempted, checker.failed) == (9, 7)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       300 |        300 | site
import time:       100 |        100 |       scipy.stats._a
import time:       200 |        500 |       scipy.stats._b
import time:        50 |        700 |     repro.eval.significance
import time:        10 |         10 |     scipy.linalg
import time:        40 |        900 |   repro
import time:        20 |       1000 | repro.cli
"""


class TestImportTime:
    def test_lazy_package_without_own_line_sums_its_subtrees(self):
        entries = parse_importtime(IMPORTTIME)
        assert entries[0] == (0, "site", 0.0003)
        assert package_import_seconds(entries, "scipy.stats") == pytest.approx(
            0.0006
        )
        assert package_import_seconds(entries, "scipy.linalg") == pytest.approx(
            0.00001
        )
        assert package_import_seconds(entries, "repro") == pytest.approx(0.001)
        assert package_import_seconds(entries, "scipy.optimize") == 0.0
