"""Statistical significance of method comparisons.

The paper reports mean±std over 10 fold rotations but no significance
tests; with few rotations, eyeballing overlapping error bars misleads.
This module adds two standard paired analyses over per-fold reports:

* a **paired t-test** on per-fold metric differences (scipy);
* a **bootstrap confidence interval** of the mean difference, which
  stays valid for the small, non-normal samples fold rotations produce.

Both operate on :class:`~repro.eval.experiment.ExperimentOutcome`, so
any already-persisted outcome can be re-analyzed without recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.eval.experiment import ExperimentOutcome
from repro.exceptions import ExperimentError


@dataclass(frozen=True)
class PairedComparison:
    """Result of comparing two methods on one metric.

    Attributes
    ----------
    method_a, method_b:
        The compared method names (differences are a − b).
    metric:
        Metric name.
    mean_difference:
        Mean per-fold difference.
    t_statistic, p_value:
        Paired t-test outcome (``nan`` when fewer than two folds).
    ci_low, ci_high:
        Bootstrap CI bounds of the mean difference.
    n_folds:
        Number of paired observations.
    """

    method_a: str
    method_b: str
    metric: str
    mean_difference: float
    t_statistic: float
    p_value: float
    ci_low: float
    ci_high: float
    n_folds: int

    @property
    def significant(self) -> bool:
        """Whether the bootstrap CI excludes zero."""
        return self.ci_low > 0.0 or self.ci_high < 0.0

    def describe(self) -> str:
        """One-line human summary."""
        verdict = (
            f"{self.method_a} better"
            if self.mean_difference > 0
            else f"{self.method_b} better"
        )
        strength = "significant" if self.significant else "not significant"
        return (
            f"{self.metric}: {self.method_a} - {self.method_b} = "
            f"{self.mean_difference:+.4f} "
            f"[{self.ci_low:+.4f}, {self.ci_high:+.4f}] "
            f"(p={self.p_value:.3f}; {verdict}, {strength})"
        )


def _paired_metric_values(
    outcome: ExperimentOutcome, method_a: str, method_b: str, metric: str
) -> Tuple[np.ndarray, np.ndarray]:
    result_a = outcome.method(method_a)
    result_b = outcome.method(method_b)
    if len(result_a.reports) != len(result_b.reports):
        raise ExperimentError(
            f"methods ran different fold counts: "
            f"{len(result_a.reports)} vs {len(result_b.reports)}"
        )
    if not result_a.reports:
        raise ExperimentError("no fold reports to compare")
    values_a = np.array([r.as_dict()[metric] for r in result_a.reports])
    values_b = np.array([r.as_dict()[metric] for r in result_b.reports])
    return values_a, values_b


def bootstrap_mean_ci(
    differences: np.ndarray,
    n_resamples: int = 10_000,
    confidence: float = 0.95,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile bootstrap CI for the mean of ``differences``."""
    differences = np.asarray(differences, dtype=np.float64).ravel()
    if differences.size == 0:
        raise ExperimentError("cannot bootstrap zero observations")
    if not 0.0 < confidence < 1.0:
        raise ExperimentError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    samples = rng.choice(
        differences, size=(n_resamples, differences.size), replace=True
    )
    means = samples.mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(means, alpha)),
        float(np.quantile(means, 1.0 - alpha)),
    )


def compare_methods(
    outcome: ExperimentOutcome,
    method_a: str,
    method_b: str,
    metric: str = "f1",
    confidence: float = 0.95,
    seed: int = 0,
) -> PairedComparison:
    """Paired comparison of two methods on one metric."""
    values_a, values_b = _paired_metric_values(outcome, method_a, method_b, metric)
    differences = values_a - values_b
    if differences.size >= 2 and np.ptp(differences) > 0:
        from scipy.stats import ttest_rel

        t_statistic, p_value = ttest_rel(values_a, values_b)
    else:
        t_statistic, p_value = float("nan"), float("nan")
    ci_low, ci_high = bootstrap_mean_ci(
        differences, confidence=confidence, seed=seed
    )
    return PairedComparison(
        method_a=method_a,
        method_b=method_b,
        metric=metric,
        mean_difference=float(differences.mean()),
        t_statistic=float(t_statistic),
        p_value=float(p_value),
        ci_low=ci_low,
        ci_high=ci_high,
        n_folds=int(differences.size),
    )


def comparison_table(
    outcome: ExperimentOutcome, baseline: str, metric: str = "f1"
) -> str:
    """Compare every method against a baseline; render as text."""
    lines = [f"Paired comparisons vs {baseline!r} on {metric}"]
    for name in outcome.methods:
        if name == baseline:
            continue
        comparison = compare_methods(outcome, name, baseline, metric=metric)
        lines.append("  " + comparison.describe())
    return "\n".join(lines)
