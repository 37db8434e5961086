"""Sprouting-day forecasting from long electrophysiological voltage recordings.

The pipeline: condition raw voltage signals (mains notch, low-pass,
downsample to 1 Hz), cut them into day-long windows, describe each window
by per-scale wavelet statistics, regress days-until-sprouting with boosted
trees (optionally a 10-member ensemble with confidence-interval filtering),
and average per-window sprouting-day estimates into one date per tuber.
"""

__version__ = "0.1.0"
