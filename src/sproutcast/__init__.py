"""Sprouting-day forecasting from long electrophysiological voltage recordings.

The pipeline: condition raw voltage signals (mains notch, low-pass,
downsample to 1 Hz), cut them into day-long windows, describe each window
by per-scale wavelet statistics, regress days-until-sprouting with boosted
trees (optionally a 10-member ensemble with confidence-interval filtering),
and average per-window sprouting-day estimates into one date per tuber.
"""

from sproutcast.ingest import Dataset, Recording, load_dataset, write_dataset
from sproutcast.preprocess import SignalWindow, condition, segment
from sproutcast.wavelet import ScalePlan, TransformedWindow, cwt, cwt_direct, plan_scales
from sproutcast.features import (
    ExampleSet,
    FeatureVector,
    ScaleFeatures,
    build_dataset,
    extract_scale_features,
)
from sproutcast.regress import (
    Ensemble,
    RegressorSpec,
    TrainedModel,
    ensemble_predict,
    fit,
    fit_ensemble,
    predict,
)
from sproutcast.estimate import SubjectEstimate, WindowEstimate, aggregate, rolling_mean, window_estimates
from sproutcast.evaluate import EvaluationReport, FoldResult, compute_metrics, loo_cv
from sproutcast.synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Recording",
    "load_dataset",
    "write_dataset",
    "SignalWindow",
    "condition",
    "segment",
    "ScalePlan",
    "TransformedWindow",
    "plan_scales",
    "cwt",
    "cwt_direct",
    "ScaleFeatures",
    "FeatureVector",
    "ExampleSet",
    "extract_scale_features",
    "build_dataset",
    "RegressorSpec",
    "TrainedModel",
    "Ensemble",
    "fit",
    "predict",
    "fit_ensemble",
    "ensemble_predict",
    "WindowEstimate",
    "SubjectEstimate",
    "window_estimates",
    "aggregate",
    "rolling_mean",
    "FoldResult",
    "EvaluationReport",
    "loo_cv",
    "compute_metrics",
    "SynthConfig",
    "generate",
    "__version__",
]
