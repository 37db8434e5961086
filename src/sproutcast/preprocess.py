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

import numpy as np

from sproutcast.config import PipelineConfig, window_width
from sproutcast.ingest import Recording

SECONDS_PER_DAY = 86400


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


def _biquad(rec: Recording, what: str, freq_hz: float, q: float, numerator) -> Recording:
    """Run the RBJ cookbook biquad with b = numerator(cos w0) causally, normalized
    so a[0] == 1; output length equals input length."""
    if not freq_hz > 0 or not q > 0:
        raise ValueError(f"{what} {freq_hz} Hz and q {q} must be positive")
    if freq_hz >= rec.sample_rate_hz / 2:
        raise ValueError(f"{what} {freq_hz} Hz is at or above Nyquist ({rec.sample_rate_hz / 2} Hz)")
    # imported here: scipy.signal costs about a second to import, and only
    # recordings off the target rate are ever filtered
    from scipy.signal import lfilter

    w0 = 2.0 * math.pi * freq_hz / rec.sample_rate_hz
    alpha = math.sin(w0) / (2.0 * q)
    cw = math.cos(w0)
    b = np.array(numerator(cw))
    a = np.array([1.0 + alpha, -2.0 * cw, 1.0 - alpha])
    return replace(rec, samples=lfilter(b / a[0], a / a[0], rec.samples))


def notch_filter(rec: Recording, center_hz: float, q: float = PipelineConfig.notch_q) -> Recording:
    """Apply a second-order notch causally."""
    return _biquad(rec, "notch center", center_hz, q, lambda cw: [1.0, -2.0 * cw, 1.0])


def biquad_lowpass(rec: Recording, cutoff_hz: float, q: float = PipelineConfig.lowpass_q) -> Recording:
    """Apply a second-order low-pass causally."""
    return _biquad(rec, "low-pass cutoff", cutoff_hz, q, lambda cw: [(1.0 - cw) / 2.0, 1.0 - cw, (1.0 - cw) / 2.0])


def downsample(rec: Recording, target_hz: float) -> Recording:
    """Decimate by an integer ratio, keeping every ratio-th sample."""
    if not target_hz > 0:
        raise ValueError("target_hz must be positive")
    ratio = rec.sample_rate_hz / target_hz
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ValueError(
            f"sample rate {rec.sample_rate_hz} Hz is not an integer multiple "
            f"of target {target_hz} Hz"
        )
    step = int(round(ratio))
    return replace(rec, samples=rec.samples[::step], sample_rate_hz=target_hz)


def condition(rec: Recording, cfg: PipelineConfig | None = None) -> Recording:
    """Run the conditioning chain of ``cfg``, or pass through if already at its target rate.

    Each stage returns a new Recording, so its checks (non-empty, finite,
    positive rate) hold after every stage.
    """
    cfg = cfg or PipelineConfig()
    if math.isclose(rec.sample_rate_hz, cfg.target_hz, rel_tol=1e-12):
        return rec
    for center in cfg.notch_hz:
        rec = notch_filter(rec, center, cfg.notch_q)
    rec = biquad_lowpass(rec, cfg.lowpass_hz, cfg.lowpass_q)
    return downsample(rec, cfg.target_hz)


def segment(rec: Recording, window_seconds: int = PipelineConfig.window_seconds) -> list[SignalWindow]:
    """Cut a conditioned recording into non-overlapping windows of fixed length.

    A window holds exactly W = sample_rate * window_seconds samples, a
    whole number of at least 2 (``window_width``); the trailing partial
    window is dropped.  A recording shorter than one window
    yields an empty list.
    """
    width = window_width(window_seconds, rec.sample_rate_hz)
    return [
        SignalWindow(
            subject_id=rec.subject_id,
            window_index=i,
            day_offset=(i - 1) * window_seconds // SECONDS_PER_DAY,
            samples=rec.samples[(i - 1) * width : i * width],
        )
        for i in range(1, len(rec.samples) // width + 1)
    ]


__all__ = [
    "SECONDS_PER_DAY",
    "SignalWindow",
    "notch_filter",
    "biquad_lowpass",
    "downsample",
    "condition",
    "segment",
]
