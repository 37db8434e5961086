"""Continuous wavelet transform over log-spaced analysis frequencies.

Each window is decomposed with a complex Morlet mother wavelet at K scales
whose centre frequencies are geometrically spaced between one quarter of
the sample rate and four cycles per window.  Coefficients are magnitudes
of the circular convolution of the mean-removed window with the scaled,
L2-normalized wavelet, so downstream statistics are sign-free.

``cwt`` runs through the FFT; ``cwt_direct`` evaluates the same sums
explicitly in O(W^2) per scale and exists as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from sproutcast.config import PipelineConfig
from sproutcast.preprocess import SignalWindow

_DIRECT_MAX_LEN = 4096
# scales are multiplied and inverted at most 512 KiB of complex rows at a time,
# counted in bytes like features._CHUNK_BYTES: the 8 scales of a 1080-sample
# window go in one call, a 1 Hz day (86400 samples, 1.3 MiB a row) one per call
_BLOCK_BYTES = 512 << 10


@dataclass(frozen=True)
class ScalePlan:
    """K analysis frequencies (descending, log-spaced) and their Morlet scales."""

    k: int
    frequencies_hz: np.ndarray
    scales: np.ndarray
    omega0: float
    window_len: int


@dataclass(frozen=True)
class TransformedWindow:
    """|CWT| magnitudes for one window: a (K, W) array, scale-major."""

    window_index: int
    coefficients: np.ndarray


def plan_scales(
    sample_rate_hz: float,
    window_len: int,
    k: int = PipelineConfig.scales,
    omega0: float = PipelineConfig.omega0,
) -> ScalePlan:
    """Plan K frequencies geometrically spaced over the window's usable band.

    The band runs from f_max = sample_rate / 4 down to f_min = four cycles
    per window; a window too short to fit four cycles below half-Nyquist is
    rejected.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if window_len < 4:
        raise ValueError("window_len must be at least 4")
    if not sample_rate_hz > 0:
        raise ValueError("sample_rate_hz must be positive")
    f_max = sample_rate_hz / 4.0
    f_min = 4.0 * sample_rate_hz / window_len
    if f_min >= f_max:
        raise ValueError(
            f"window of {window_len} samples is too short for {k} scales: "
            f"f_min {f_min:g} Hz >= f_max {f_max:g} Hz"
        )
    ratio = (f_min / f_max) ** (1.0 / (k - 1))
    frequencies = f_max * ratio ** np.arange(k)
    scales = omega0 * sample_rate_hz / (2.0 * math.pi * frequencies)
    return ScalePlan(
        k=k,
        frequencies_hz=frequencies,
        scales=scales,
        omega0=omega0,
        window_len=int(window_len),
    )


def morlet_kernel(scale: float, window_len: int, omega0: float = PipelineConfig.omega0) -> np.ndarray:
    """Sampled complex Morlet at one scale, in circular (wrap-around) order.

    Index n holds psi(m/scale) for the signed offset m = ((n + W//2) mod W)
    - W//2, and the vector is normalized to unit L2 norm.  The small DC
    correction term is omitted; at omega0 = 6 it is below 2e-8 of the peak.
    """
    w = int(window_len)
    offsets = (np.arange(w) + w // 2) % w - w // 2
    t = offsets / scale
    psi = (math.pi ** -0.25) * np.exp(1j * omega0 * t) * np.exp(-0.5 * t * t)
    # numpy's own sums, not BLAS (np.linalg.norm), whose bits depend on its thread count
    return psi / np.sqrt(np.add.reduce(psi.real * psi.real) + np.add.reduce(psi.imag * psi.imag))


def _kernel_ffts(window_len: int, omega0: float, scales: tuple[float, ...]) -> np.ndarray:
    """The (K, W) kernel spectra, each row transformed into its place."""
    out = np.empty((len(scales), window_len), dtype=np.complex128)
    for row, scale in zip(out, scales):
        np.fft.fft(morlet_kernel(scale, window_len, omega0), out=row)
    return out


@lru_cache(maxsize=16)
def _plan_buffers(window_len: int, omega0: float, scales: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A plan's (K, W) kernel spectra, and two complex buffers for ``cwt``.

    The first, a (W,) row, holds the window's spectrum; the second, a (B, W)
    block of at most ``_BLOCK_BYTES``, or one row, is where B scales at a
    time are multiplied and inverted, so a long window's working set beyond
    the spectra is two W-length rows, not a (K, W) block.
    """
    rows = min(len(scales), max(1, _BLOCK_BYTES // (16 * window_len)))
    return (
        _kernel_ffts(window_len, omega0, scales),
        np.empty(window_len, dtype=np.complex128),
        np.empty((rows, window_len), dtype=np.complex128),
    )


def _check_window(window: SignalWindow, plan: ScalePlan) -> np.ndarray:
    x = np.asarray(window.samples, dtype=np.float64)
    if x.shape != (plan.window_len,):
        raise ValueError(
            f"window length {x.shape} does not match plan window_len {plan.window_len}"
        )
    return x


def cwt(window: SignalWindow, plan: ScalePlan) -> TransformedWindow:
    """FFT-accelerated circular CWT of one window; returns (K, W) magnitudes.

    Each scale is convolved on its own (Torrence & Compo 1998): the window's
    spectrum times the scale's kernel spectrum, inverted, and its magnitude
    written into row k of the result, a block of scales at a time in the
    plan's work block.  The magnitudes are a new array on every call, which
    no later call overwrites.
    """
    x = _check_window(window, plan)
    x = x - x.mean()
    kernel_ffts, spectrum, work = _plan_buffers(plan.window_len, plan.omega0, tuple(plan.scales))
    np.fft.fft(x, out=spectrum)
    coeffs = np.empty((plan.k, plan.window_len))
    for start in range(0, plan.k, len(work)):
        block = work[: plan.k - start]
        stop = start + len(block)
        np.multiply(spectrum, kernel_ffts[start:stop], out=block)
        np.fft.ifft(block, axis=1, out=block)
        np.abs(block, out=coeffs[start:stop])
    return TransformedWindow(window_index=window.window_index, coefficients=coeffs)


def cwt_direct(window: SignalWindow, plan: ScalePlan) -> TransformedWindow:
    """Explicit-summation oracle for ``cwt``; O(W^2) per scale, no FFT."""
    x = _check_window(window, plan)
    if plan.window_len > _DIRECT_MAX_LEN:
        raise ValueError(f"cwt_direct capped at window_len {_DIRECT_MAX_LEN}")
    x = x - x.mean()
    w = plan.window_len
    # circular convolution y[b] = sum_m x[m] * psi[(b - m) mod W]
    idx = (np.arange(w)[:, None] - np.arange(w)[None, :]) % w
    coeffs = np.empty((plan.k, w))
    for row, scale in enumerate(plan.scales):
        psi = morlet_kernel(scale, w, plan.omega0)
        coeffs[row] = np.abs(psi[idx] @ x)
    return TransformedWindow(window_index=window.window_index, coefficients=coeffs)


__all__ = [
    "ScalePlan",
    "TransformedWindow",
    "plan_scales",
    "morlet_kernel",
    "cwt",
    "cwt_direct",
]
