"""Per-window sprouting-day estimates and per-subject aggregation.

A window recorded on day d with predicted days-until y_hat implies the
sprouting day d + y_hat.  Ensemble predictions carry a 95% CI half-width;
a window is kept only while the full CI width stays within the tuning
threshold.  The subject-level estimate is the mean of retained per-window
estimates observable before the chosen observation day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sproutcast.config import PipelineConfig
from sproutcast.features import FeatureVector
from sproutcast.regress import (
    Ensemble,
    TrainedModel,
    ensemble_predict_matrix,
    predict_matrix,
)


@dataclass(frozen=True)
class WindowEstimate:
    subject_id: str
    window_index: int
    day_offset: int
    y_hat: float
    d_hat: float
    ci_halfwidth: float | None
    retained: bool


@dataclass(frozen=True)
class SubjectEstimate:
    subject_id: str
    d_hat: float
    n_windows_used: int
    fallback_used: bool


def window_estimates(
    model: TrainedModel | Ensemble,
    features: list[FeatureVector],
    uq_th: float | None = None,
) -> list[WindowEstimate]:
    """Predict every window and flag which survive the CI-width filter.

    With a single model every window is retained and carries no CI.  With an
    ensemble a threshold is mandatory and a window is discarded when the full
    interval width 2 * ci_halfwidth exceeds it.
    """
    if not features:
        return []
    x = np.stack([fv.values for fv in features])
    if isinstance(model, Ensemble):
        if uq_th is None:
            raise ValueError("uq_th is required for ensemble predictions")
        y_hat, halves = ensemble_predict_matrix(model, x)
        halves = halves.tolist()
        retained = [2.0 * h <= uq_th for h in halves]
    else:
        y_hat = predict_matrix(model, x)
        halves = [None] * len(features)
        retained = [True] * len(features)
    return [
        WindowEstimate(
            subject_id=fv.subject_id,
            window_index=fv.window_index,
            day_offset=fv.day_offset,
            y_hat=m,
            d_hat=fv.day_offset + m,
            ci_halfwidth=h,
            retained=r,
        )
        for fv, m, h, r in zip(features, y_hat.tolist(), halves, retained)
    ]


def fallback_window(observable: list[WindowEstimate]) -> WindowEstimate:
    """The window a subject falls back to: the tightest CI, then the lowest window index."""
    return min(observable, key=lambda e: (np.inf if e.ci_halfwidth is None else e.ci_halfwidth, e.window_index))


def aggregate(estimates: list[WindowEstimate], observation_day: float) -> SubjectEstimate:
    """Average retained window estimates observable strictly before day t.

    If the filter discarded every observable window, fall back to the single
    window with the tightest CI (flagged via fallback_used) so a deployment
    always produces an estimate.
    """
    if not estimates:
        raise ValueError("no window estimates to aggregate")
    subjects = {e.subject_id for e in estimates}
    if len(subjects) != 1:
        raise ValueError(f"estimates span multiple subjects: {sorted(subjects)}")
    observable = [e for e in estimates if e.day_offset < observation_day]
    if not observable:
        raise ValueError(
            f"subject {next(iter(subjects))!r}: no windows before observation day {observation_day}"
        )
    retained = [e for e in observable if e.retained]
    return SubjectEstimate(
        subject_id=observable[0].subject_id,
        d_hat=float(np.mean([e.d_hat for e in retained])) if retained else fallback_window(observable).d_hat,
        n_windows_used=len(retained) or 1,
        fallback_used=not retained,
    )


def rolling_mean(series, n: int = PipelineConfig.rolling_n) -> np.ndarray:
    """Trailing mean over the last min(n, available) values, length-preserving."""
    if n < 1:
        raise ValueError("rolling window must be at least 1")
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        return x.copy()
    csum = np.concatenate([[0.0], np.cumsum(x)])
    idx = np.arange(1, x.size + 1)
    start = np.maximum(idx - n, 0)
    return (csum[idx] - csum[start]) / (idx - start)


__all__ = [
    "WindowEstimate",
    "SubjectEstimate",
    "window_estimates",
    "fallback_window",
    "aggregate",
    "rolling_mean",
]
