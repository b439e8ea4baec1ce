"""Fitting the cost model's constants to observed execution latencies.

The default :class:`~repro.cost.model.CostModel` coefficients are loosely
calibrated to the paper prototype's hardware class; on any real host the
interpreter, the page size, and the attribute mix shift them.  The
adaptation loop (:mod:`repro.adapt`) needs the model to *rank* candidate
layouts correctly on the machine it is running on, so this module fits
the scan-side coefficients from ``(ExecutionStats, wall time)`` pairs the
executor already measures on every query.

The fit is a ridge-regularized least squares over the four observable
scan features — pages read, records scanned, UNION ALL branches, rows
returned — solved in pure Python (the feature matrix is 4x4; no numpy).
Regularization pulls toward the default coefficients, so a degenerate
sample set (all queries identical, too few points) degrades gracefully
into the priors instead of exploding.  Negative solutions are clamped to
zero: a scan term can speed a query up in a noisy sample, never in the
model.

:class:`OnlineCalibrator` wraps the fit for the controller: it keeps a
bounded window of recent observations, reports the model's current
relative prediction error over that window, and refits when the error
drifts past a threshold (host got slower, cache behaviour changed) or
when it has never fit at all (startup).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

from repro.cost.model import CostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.executor import ExecutionStats

#: fewer samples than this and the fit falls back to the prior model
MIN_FIT_SAMPLES = 8


@dataclass(frozen=True)
class CalibrationSample:
    """One observed execution: the scan features plus the measured time.

    The features carry :class:`~repro.query.executor.ExecutionStats`'s
    field names, so :meth:`CostModel.query_time_ms` prices a sample
    exactly as it prices the execution it came from.
    """

    pages_read: int
    entities_read: int
    union_branches: int
    rows_returned: int
    wall_time_ms: float

    @classmethod
    def from_stats(cls, stats: "ExecutionStats") -> "CalibrationSample":
        return cls(
            pages_read=stats.pages_read,
            entities_read=stats.entities_read,
            union_branches=stats.union_branches,
            rows_returned=stats.rows_returned,
            wall_time_ms=stats.wall_time_s * 1000.0,
        )

    def features(self) -> tuple[float, float, float, float]:
        return (
            float(self.pages_read),
            float(self.entities_read),
            float(self.union_branches),
            float(self.rows_returned),
        )


@dataclass(frozen=True)
class CalibrationReport:
    """A fitted model plus how well it explains the samples."""

    model: CostModel
    samples: int
    fitted: bool
    mean_abs_error_ms: float
    r2: float

    def as_dict(self) -> dict[str, float]:
        return {
            "samples": self.samples,
            "fitted": self.fitted,
            "mean_abs_error_ms": round(self.mean_abs_error_ms, 4),
            "r2": round(self.r2, 4),
            "page_read_ms": self.model.page_read_ms,
            "record_scan_ms": self.model.record_scan_ms,
            "branch_overhead_ms": self.model.branch_overhead_ms,
            "row_output_ms": self.model.row_output_ms,
        }


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve a small dense linear system by Gaussian elimination."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-12:
            raise ArithmeticError("singular calibration system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1.0 / a[col][col]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col] * inv
            if factor == 0.0:
                continue
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    return [a[i][n] / a[i][i] for i in range(n)]


def _predict_ms(model: CostModel, sample: CalibrationSample) -> float:
    """The model's scan-side prediction for one sample (the
    union-projection term rides on ``record_scan_ms`` in the fit — the
    two are perfectly collinear per sample set)."""
    return model.query_time_ms(sample)


def fit_cost_model(
    samples: Sequence[CalibrationSample],
    base: Optional[CostModel] = None,
    ridge: float = 1.0,
) -> CalibrationReport:
    """Fit the scan coefficients of a :class:`CostModel` to observations.

    Args:
        samples: observed executions (features + measured milliseconds).
        base: the prior model; fitted coefficients replace only its
            ``page_read_ms`` / ``record_scan_ms`` / ``branch_overhead_ms``
            / ``row_output_ms`` — the write-side constants are untouched.
        ridge: regularization strength pulling the solution toward the
            prior's coefficients (stabilizes collinear feature sets).

    Returns:
        A :class:`CalibrationReport`; with fewer than
        :data:`MIN_FIT_SAMPLES` samples (or a singular system) the prior
        model is returned with ``fitted=False``.
    """
    if base is None:
        base = CostModel()
    prior = [
        base.page_read_ms,
        base.record_scan_ms,
        base.branch_overhead_ms,
        base.row_output_ms,
    ]
    if len(samples) < MIN_FIT_SAMPLES:
        return CalibrationReport(
            model=base,
            samples=len(samples),
            fitted=False,
            mean_abs_error_ms=_mean_abs_error(base, samples),
            r2=0.0,
        )
    # normal equations with ridge toward the prior:
    # (XᵀX + λI) c = Xᵀy + λ c₀
    xtx = [[ridge if r == c else 0.0 for c in range(4)] for r in range(4)]
    xty = [ridge * prior[i] for i in range(4)]
    for sample in samples:
        feats = sample.features()
        y = sample.wall_time_ms
        for r in range(4):
            xty[r] += feats[r] * y
            for c in range(r, 4):
                xtx[r][c] += feats[r] * feats[c]
    for r in range(4):
        for c in range(r):
            xtx[r][c] = xtx[c][r]
    try:
        coeffs = _solve(xtx, xty)
    except ArithmeticError:
        return CalibrationReport(
            model=base,
            samples=len(samples),
            fitted=False,
            mean_abs_error_ms=_mean_abs_error(base, samples),
            r2=0.0,
        )
    coeffs = [max(0.0, c) for c in coeffs]
    # the fitted record coefficient absorbs the union projection (the
    # two are collinear per sample), so the fitted model zeroes
    # union_project_ms — keeping it would double-count the term
    model = replace(
        base,
        page_read_ms=coeffs[0],
        record_scan_ms=coeffs[1],
        branch_overhead_ms=coeffs[2],
        row_output_ms=coeffs[3],
        union_project_ms=0.0,
    )
    return CalibrationReport(
        model=model,
        samples=len(samples),
        fitted=True,
        mean_abs_error_ms=_mean_abs_error(model, samples),
        r2=_r_squared(model, samples),
    )


def _mean_abs_error(
    model: CostModel, samples: Iterable[CalibrationSample]
) -> float:
    errors = [
        abs(_predict_ms(model, s) - s.wall_time_ms) for s in samples
    ]
    if not errors:
        return 0.0
    return sum(errors) / len(errors)


def _r_squared(model: CostModel, samples: Sequence[CalibrationSample]) -> float:
    if not samples:
        return 0.0
    mean = sum(s.wall_time_ms for s in samples) / len(samples)
    ss_tot = sum((s.wall_time_ms - mean) ** 2 for s in samples)
    ss_res = sum(
        (s.wall_time_ms - _predict_ms(model, s)) ** 2 for s in samples
    )
    if ss_tot < 1e-12:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


class OnlineCalibrator:
    """A bounded window of observations plus refit-on-drift policy.

    The controller feeds every measured execution in through
    :meth:`observe`; :meth:`maybe_refit` refits when the model has never
    been fitted (startup) or when the mean relative prediction error
    over the window exceeds ``refit_rel_error`` (drift — the host or the
    access pattern no longer looks like what the fit saw).
    """

    def __init__(
        self,
        base: Optional[CostModel] = None,
        window: int = 256,
        min_samples: int = 16,
        refit_rel_error: float = 0.5,
    ) -> None:
        self.model = base if base is not None else CostModel()
        self.report: Optional[CalibrationReport] = None
        self.min_samples = min_samples
        self.refit_rel_error = refit_rel_error
        self.refits = 0
        self._samples: deque[CalibrationSample] = deque(maxlen=window)

    def observe(self, stats: "ExecutionStats") -> None:
        """Record one measured execution (ignores zero-work cache hits)."""
        if stats.entities_read == 0 and stats.pages_read == 0:
            return  # a pure cache hit carries no scan signal
        self._samples.append(CalibrationSample.from_stats(stats))

    def observe_sample(self, sample: CalibrationSample) -> None:
        self._samples.append(sample)

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    def prediction_error(self) -> float:
        """Mean relative error of the current model over the window."""
        if not self._samples:
            return 0.0
        total = 0.0
        for sample in self._samples:
            measured = max(sample.wall_time_ms, 1e-6)
            total += abs(_predict_ms(self.model, sample) - measured) / measured
        return total / len(self._samples)

    def needs_refit(self) -> bool:
        if len(self._samples) < self.min_samples:
            return False
        if self.report is None or not self.report.fitted:
            return True
        return self.prediction_error() > self.refit_rel_error

    def maybe_refit(self) -> bool:
        """Refit when due; returns whether a fit ran and was adopted."""
        if not self.needs_refit():
            return False
        report = fit_cost_model(list(self._samples), base=self.model)
        self.report = report
        if report.fitted:
            self.model = report.model
            self.refits += 1
        return report.fitted

    def status(self) -> dict[str, float]:
        return {
            "samples": len(self._samples),
            "refits": self.refits,
            "prediction_error": round(self.prediction_error(), 4),
            "fitted": self.report is not None and self.report.fitted,
        }
