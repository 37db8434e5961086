"""Signal conditioning chain and windowing.

Conditioning reproduces the acquisition-side chain for 256 Hz recordings:
mains notches at 50/100 Hz, a second-order low-pass, then decimation to
1 Hz.  All IIR stages are RBJ audio-EQ-cookbook biquads run causally with
zero initial state.  Signals already at the target rate pass through
untouched so synthetic 1 Hz data is never double-filtered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from sproutcast.config import PipelineConfig
from sproutcast.ingest import Recording

SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class ConditionedSignal:
    """A voltage series after zero or more conditioning stages."""

    subject_id: str
    sample_rate_hz: float
    samples: np.ndarray
    start_day: date

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        if samples.size and not np.isfinite(samples).all():
            raise ValueError(f"subject {self.subject_id!r}: non-finite sample after conditioning")

    @classmethod
    def from_recording(cls, rec: Recording) -> "ConditionedSignal":
        return cls(
            subject_id=rec.subject_id,
            sample_rate_hz=rec.sample_rate_hz,
            samples=rec.samples,
            start_day=rec.start_day,
        )


@dataclass(frozen=True)
class SignalWindow:
    """One non-overlapping fixed-length segment of a conditioned signal.

    ``window_index`` is 1-based; ``day_offset`` is whole days since the
    recording's start day.
    """

    subject_id: str
    window_index: int
    day_offset: int
    samples: np.ndarray


def notch_coefficients(center_hz: float, sample_rate_hz: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """RBJ cookbook notch (b, a), normalized so a[0] == 1."""
    w0 = 2.0 * math.pi * center_hz / sample_rate_hz
    alpha = math.sin(w0) / (2.0 * q)
    cw = math.cos(w0)
    b = np.array([1.0, -2.0 * cw, 1.0])
    a = np.array([1.0 + alpha, -2.0 * cw, 1.0 - alpha])
    return b / a[0], a / a[0]


def lowpass_coefficients(cutoff_hz: float, sample_rate_hz: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """RBJ cookbook low-pass (b, a), normalized so a[0] == 1."""
    w0 = 2.0 * math.pi * cutoff_hz / sample_rate_hz
    alpha = math.sin(w0) / (2.0 * q)
    cw = math.cos(w0)
    b = np.array([(1.0 - cw) / 2.0, 1.0 - cw, (1.0 - cw) / 2.0])
    a = np.array([1.0 + alpha, -2.0 * cw, 1.0 - alpha])
    return b / a[0], a / a[0]


def _apply_biquad(signal: ConditionedSignal, b: np.ndarray, a: np.ndarray) -> ConditionedSignal:
    # imported here: scipy.signal costs about a second to import, and only
    # recordings off the target rate are ever filtered
    from scipy.signal import lfilter

    filtered = lfilter(b, a, signal.samples)
    return replace(signal, samples=filtered)


def notch_filter(signal: ConditionedSignal, center_hz: float, q: float = 30.0) -> ConditionedSignal:
    """Apply a second-order notch causally; output length equals input length."""
    if not center_hz > 0 or not q > 0:
        raise ValueError("center_hz and q must be positive")
    if center_hz >= signal.sample_rate_hz / 2:
        raise ValueError(
            f"notch center {center_hz} Hz is at or above Nyquist "
            f"({signal.sample_rate_hz / 2} Hz)"
        )
    b, a = notch_coefficients(center_hz, signal.sample_rate_hz, q)
    return _apply_biquad(signal, b, a)


def biquad_lowpass(signal: ConditionedSignal, cutoff_hz: float, q: float = 0.707) -> ConditionedSignal:
    """Apply a second-order low-pass causally; output length equals input length."""
    if not cutoff_hz > 0 or not q > 0:
        raise ValueError("cutoff_hz and q must be positive")
    if cutoff_hz >= signal.sample_rate_hz / 2:
        raise ValueError(
            f"low-pass cutoff {cutoff_hz} Hz is at or above Nyquist "
            f"({signal.sample_rate_hz / 2} Hz)"
        )
    b, a = lowpass_coefficients(cutoff_hz, signal.sample_rate_hz, q)
    return _apply_biquad(signal, b, a)


def downsample(signal: ConditionedSignal, target_hz: float) -> ConditionedSignal:
    """Decimate by an integer ratio, keeping every ratio-th sample."""
    if not target_hz > 0:
        raise ValueError("target_hz must be positive")
    ratio = signal.sample_rate_hz / target_hz
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ValueError(
            f"sample rate {signal.sample_rate_hz} Hz is not an integer multiple "
            f"of target {target_hz} Hz"
        )
    step = int(round(ratio))
    return replace(signal, samples=signal.samples[::step], sample_rate_hz=target_hz)


def condition(rec: Recording | ConditionedSignal, cfg: PipelineConfig | None = None) -> ConditionedSignal:
    """Run the conditioning chain of ``cfg``, or pass through if already at its target rate."""
    cfg = cfg or PipelineConfig()
    signal = ConditionedSignal.from_recording(rec) if isinstance(rec, Recording) else rec
    if math.isclose(signal.sample_rate_hz, cfg.target_hz, rel_tol=1e-12):
        return signal
    for center in cfg.notch_hz:
        signal = notch_filter(signal, center, cfg.notch_q)
    signal = biquad_lowpass(signal, cfg.lowpass_hz, cfg.lowpass_q)
    return downsample(signal, cfg.target_hz)


def segment(signal: ConditionedSignal, window_seconds: int = SECONDS_PER_DAY) -> list[SignalWindow]:
    """Cut a conditioned signal into non-overlapping windows of fixed length.

    A window holds exactly W = sample_rate * window_seconds samples; the
    trailing partial window is dropped.  A signal shorter than one window
    yields an empty list.
    """
    if not window_seconds > 0:
        raise ValueError("window_seconds must be positive")
    w_exact = signal.sample_rate_hz * window_seconds
    if abs(w_exact - round(w_exact)) > 1e-9:
        raise ValueError(
            f"window of {window_seconds} s is not a whole number of samples at "
            f"{signal.sample_rate_hz} Hz"
        )
    width = int(round(w_exact))
    if width < 2:
        raise ValueError("window must span at least 2 samples")
    n_windows = len(signal.samples) // width
    windows = []
    for i in range(1, n_windows + 1):
        windows.append(
            SignalWindow(
                subject_id=signal.subject_id,
                window_index=i,
                day_offset=(i - 1) * window_seconds // SECONDS_PER_DAY,
                samples=signal.samples[(i - 1) * width : i * width],
            )
        )
    return windows


__all__ = [
    "SECONDS_PER_DAY",
    "ConditionedSignal",
    "SignalWindow",
    "notch_coefficients",
    "lowpass_coefficients",
    "notch_filter",
    "biquad_lowpass",
    "downsample",
    "condition",
    "segment",
]
