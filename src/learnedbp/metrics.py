"""Reconstruction quality metrics and test-set reports."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .phantoms import Image
from .recon import BackprojectionOperator, WeightTensor

METHOD_UBP = "UBP"
METHOD_WEIGHTED = "weighted-UBP"


def rel_error(f_hat: Image, f: Image, squared: bool = False) -> float:
    """Relative l2 error ||f_hat - f|| / ||f||.

    Unsquared norms by default; ``squared=True`` returns the ratio of
    squared norms instead.  The ground truth must be nonzero.
    """
    if f_hat.grid != f.grid:
        raise ShapeMismatchError("images live on different grids")
    denom = f.norm()
    if denom == 0.0:
        raise ConfigError("relative error is undefined for a zero ground truth")
    ratio = float(np.linalg.norm(f_hat.values - f.values)) / denom
    return ratio**2 if squared else ratio


@dataclass
class EvalReport:
    """Per-method relative errors of one test set."""

    scenario: str
    count: int
    errors: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    sample_indices: list = field(default_factory=list)

    def mean(self, method: str) -> float:
        samples = self.errors[method]
        return float(np.mean(samples)) if samples else float("nan")

    @property
    def methods(self):
        return list(self.errors)


def evaluate(
    weights: WeightTensor | None,
    pairs,
    op: BackprojectionOperator,
    scenario_label: str = "custom",
    squared: bool = False,
) -> EvalReport:
    """Reconstruct every (SensorData, Image) pair with the standard
    backprojection and, when ``weights`` is given, with the weighted one,
    and collect relative errors per method.

    Individual sample failures are recorded (index and message) and
    excluded from the means; the call raises only if every sample fails.
    """
    if len(pairs) == 0:
        raise ConfigError("evaluation needs at least one pair")
    report = EvalReport(scenario=scenario_label, count=len(pairs))
    report.errors[METHOD_UBP] = []
    if weights is not None:
        report.errors[METHOD_WEIGHTED] = []
    first_error = None
    for index, (data, truth) in enumerate(pairs):
        try:
            # one gather of each pixel block feeds both sums
            images = (op.standard(data),) if weights is None else op.standard_and_apply(weights, data)
            errors = [rel_error(image, truth, squared) for image in images]
            for method, error in zip(report.methods, errors):
                report.errors[method].append(error)
            report.sample_indices.append(index)
        except (ShapeMismatchError, ConfigError) as exc:
            report.failures.append((index, str(exc)))
            if first_error is None:
                first_error = exc
    if first_error is not None and not report.errors[METHOD_UBP]:
        raise first_error
    return report


def format_report(report: EvalReport) -> str:
    """Aligned text table: one row per method, mean relative error."""
    lines = [f"scenario {report.scenario}: {report.count} samples"]
    width = max(len(m) for m in report.methods)
    for method in report.methods:
        lines.append(f"  {method:<{width}}  mean rel l2 error  {report.mean(method):.6f}")
    for index, message in report.failures:
        lines.append(f"  sample {index} failed: {message}")
    return "\n".join(lines)


def report_csv(report: EvalReport) -> str:
    """Machine-readable per-sample rows: scenario,method,sample,rel_error."""
    lines = ["scenario,method,sample,rel_error"]
    for method in report.methods:
        for index, value in zip(report.sample_indices, report.errors[method]):
            lines.append(f"{report.scenario},{method},{index},{value:.10g}")
    return "\n".join(lines) + "\n"
