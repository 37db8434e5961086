"""Synthetic multi-subject datasets with a planted sprouting signature.

Each subject gets a slow sinusoidal drift plus white noise; inside the
final onset horizon a band-limited burst pattern is mixed in whose per-day
amplitude ramps linearly from zero to the configured gain on the sprouting
day.  The daily burst schedule is fixed per subject, so with the noise
turned off the per-day band energy is a strictly increasing function of
time inside the horizon.  All randomness is derived from (seed, subject
index); generation order cannot change the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from sproutcast.config import ConfigError, check_bounds, option, window_width
from sproutcast.ingest import Recording
from sproutcast.preprocess import SECONDS_PER_DAY

_VARIETIES = ("Sorentina", "SHC1010", "Agria")
_N_CARRIERS = 4
_BURSTS_PER_DAY = 3
_BURST_SECONDS = 7200.0
_START_DAY = date(2023, 10, 1)


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int = option(64, "synth", "--subjects")
    days_min: int = option(40, "synth")
    days_max: int = option(80, "synth")
    sample_rate_hz: float = option(1.0, "synth", "--rate", help="sample rate in Hz")
    signature_band_hz: tuple[float, float] = (0.01, 0.05)  # --band-low and --band-high
    signature_onset_days_before: int = option(20, "synth", "--onset", help="signature onset, days before sprouting")
    signature_gain: float = option(4.0, "synth", "--gain")
    noise_std: float = option(0.3, "synth")
    drift_amplitude: float = option(1.5, "synth", "--drift")
    storage_temp_c: int = option(8, "synth", "--temp", help="storage temperature to record (C)")
    seed: int = option(7, "synth")

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.days_min > self.days_max:
            raise ConfigError("need days_min <= days_max")
        low, high = self.signature_band_hz
        if not 0 < low < high < self.sample_rate_hz / 2:
            raise ConfigError("signature band must satisfy 0 < low < high < rate/2")
        self.samples_per_day  # raises ConfigError unless a day is a whole number of samples

    @property
    def label(self) -> str:
        return f"synthetic-seed{self.seed}"

    @property
    def samples_per_day(self) -> int:
        return window_width(SECONDS_PER_DAY, self.sample_rate_hz, ("seconds per day", "sample_rate_hz"))


def _subject_rng(seed: int, index: int) -> np.random.Generator:
    entropy = seed % (2**63)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(index,)))


def _daily_burst_gate(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """One day's burst envelope (fixed per subject, repeated every day)."""
    spd = cfg.samples_per_day
    burst_len = max(2, int(round(_BURST_SECONDS * cfg.sample_rate_hz)))
    burst_len = min(burst_len, spd)
    gate = np.zeros(spd)
    window = np.hanning(burst_len)
    starts = rng.integers(0, spd - burst_len + 1, size=_BURSTS_PER_DAY)
    for start in starts:
        gate[start : start + burst_len] += window
    return gate


def generate_recording(cfg: SynthConfig, index: int) -> Recording:
    """Generate subject ``index`` of the configured dataset."""
    rng = _subject_rng(cfg.seed, index)
    sprout_day = int(rng.integers(cfg.days_min, cfg.days_max, endpoint=True))
    spd = cfg.samples_per_day
    n = sprout_day * spd
    t = np.arange(n) / cfg.sample_rate_hz

    period_s = rng.uniform(2.0, 5.0) * 86400.0
    phase = rng.uniform(0.0, 2.0 * np.pi)
    signal = cfg.drift_amplitude * np.sin(2.0 * np.pi * t / period_s + phase)
    if cfg.noise_std > 0:
        signal += rng.normal(0.0, cfg.noise_std, n)

    low, high = cfg.signature_band_hz
    freqs = np.exp(rng.uniform(np.log(low), np.log(high), _N_CARRIERS))
    phases = rng.uniform(0.0, 2.0 * np.pi, _N_CARRIERS)
    gate = _daily_burst_gate(cfg, rng)

    if cfg.signature_gain > 0:
        first_day = max(0, sprout_day - cfg.signature_onset_days_before)
        for day in range(first_day, sprout_day):
            ramp = (day - (sprout_day - cfg.signature_onset_days_before)) / cfg.signature_onset_days_before
            if ramp <= 0:
                continue
            sl = slice(day * spd, (day + 1) * spd)
            carrier = np.zeros(spd)
            for f, ph in zip(freqs, phases):
                carrier += np.sin(2.0 * np.pi * f * t[sl] + ph)
            burst = gate * carrier
            norm = np.sqrt(np.add.reduce(burst * burst))  # not BLAS: thread-count independent
            if norm == 0.0:
                continue
            # unit day-RMS before scaling, so daily signature energy is exactly
            # (gain * ramp)^2 * samples_per_day: strictly increasing along the ramp
            signal[sl] += cfg.signature_gain * ramp * np.sqrt(spd) * burst / norm

    start = _START_DAY
    return Recording(
        subject_id=f"p{index:03d}",
        variety=_VARIETIES[index % len(_VARIETIES)],
        storage_temp_c=cfg.storage_temp_c,
        sample_rate_hz=cfg.sample_rate_hz,
        start_day=start,
        samples=signal,
        sprouting_day=start + timedelta(days=sprout_day),
    )


def iter_recordings(cfg: SynthConfig):
    """Yield recordings one at a time so large corpora never sit in memory."""
    for index in range(cfg.n_subjects):
        yield generate_recording(cfg, index)


__all__ = ["SynthConfig", "generate_recording", "iter_recordings"]
