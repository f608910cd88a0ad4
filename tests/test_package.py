"""Package-level tests: exceptions hierarchy, types, public API surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import exceptions
from repro.types import Labeled


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        subclasses = [
            exceptions.SchemaError,
            exceptions.NetworkError,
            exceptions.AlignmentError,
            exceptions.MetaStructureError,
            exceptions.FeatureError,
            exceptions.ModelError,
            exceptions.NotFittedError,
            exceptions.BudgetExhaustedError,
            exceptions.ConstraintViolationError,
            exceptions.ExperimentError,
            exceptions.DatasetError,
        ]
        for cls in subclasses:
            assert issubclass(cls, exceptions.ReproError)

    def test_not_fitted_is_model_error(self):
        assert issubclass(exceptions.NotFittedError, exceptions.ModelError)

    def test_catchable_with_single_except(self):
        try:
            raise exceptions.BudgetExhaustedError("spent")
        except exceptions.ReproError as error:
            assert "spent" in str(error)


class TestLabeled:
    def test_valid(self):
        item = Labeled(("a", "b"), 1)
        assert item.pair == ("a", "b")
        assert item.label == 1

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            Labeled(("a", "b"), 2)
        with pytest.raises(ValueError):
            Labeled(("a", "b"), -1)

    def test_frozen(self):
        item = Labeled(("a", "b"), 0)
        with pytest.raises(AttributeError):
            item.label = 1


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import repro.active
        import repro.baselines
        import repro.eval
        import repro.matching
        import repro.meta
        import repro.ml
        import repro.networks
        import repro.synth

        for module in (
            repro.active,
            repro.baselines,
            repro.eval,
            repro.matching,
            repro.meta,
            repro.ml,
            repro.networks,
            repro.synth,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(package.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"


class TestImportCost:
    def test_cli_import_leaves_heavy_scipy_submodules_unloaded(self):
        """Only the code that solves, decomposes or tests imports them."""
        heavy = ("scipy.stats", "scipy.optimize", "scipy.linalg")
        source = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(source))
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cli; "
                f"print(sorted(m for m in {heavy!r} if m in sys.modules))",
            ],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        )
        assert completed.stdout.strip() == "[]"
