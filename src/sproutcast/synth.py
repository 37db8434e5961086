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

from dataclasses import InitVar, dataclass
from datetime import date, timedelta

import numpy as np

from sproutcast.config import NON_NEGATIVE, POSITIVE, ConfigError, at_least, check_bounds, option, window_width
from sproutcast.ingest import Recording
from sproutcast.preprocess import SECONDS_PER_DAY

_VARIETIES = ("Sorentina", "SHC1010", "Agria")
_N_CARRIERS = 4
_BURSTS_PER_DAY = 3
_BURST_SECONDS = 7200.0
_START_DAY = date(2023, 10, 1)
_BAND_EDGES = ("signature_band_low_hz", "signature_band_high_hz")


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int = option(64, "synth", "--subjects", bound=at_least(1))
    days_min: int = option(40, "synth", bound=at_least(1))
    days_max: int = option(80, "synth")
    sample_rate_hz: float = option(1.0, "synth", "--rate", bound=POSITIVE, help="sample rate in Hz")
    signature_band_low_hz: float = option(0.01, "synth", "--band-low")
    signature_band_high_hz: float = option(0.05, "synth", "--band-high")
    signature_onset_days_before: int = option(
        20, "synth", "--onset", bound=at_least(1), help="signature onset, days before sprouting"
    )
    signature_gain: float = option(4.0, "synth", "--gain", bound=NON_NEGATIVE)
    noise_std: float = option(0.3, "synth", bound=NON_NEGATIVE)
    drift_amplitude: float = option(1.5, "synth", "--drift", bound=NON_NEGATIVE)
    storage_temp_c: int = option(8, "synth", "--temp", help="storage temperature to record (C)")
    seed: int = option(7, "synth", bound=at_least(0))
    label: str = option("", "synth", help="dataset label (default: synthetic-seed<seed>)")
    # both edges as one (low, high) pair, in place of the two fields; perfbench's checks build the config so
    signature_band_hz: InitVar[tuple[float, float] | None] = None

    def __post_init__(self, signature_band_hz) -> None:
        for name, edge in zip(_BAND_EDGES, signature_band_hz or (), strict=signature_band_hz is not None):
            if getattr(self, name) != getattr(SynthConfig, name):
                raise ConfigError("give the signature band as one (low, high) pair or as two edges, not both")
            object.__setattr__(self, name, edge)
        check_bounds(self)
        if not self.label:
            object.__setattr__(self, "label", f"synthetic-seed{self.seed}")
        if self.days_min > self.days_max:
            raise ConfigError("need days_min <= days_max")
        if not 0 < self.signature_band_low_hz < self.signature_band_high_hz < self.sample_rate_hz / 2:
            raise ConfigError("signature band must satisfy 0 < low < high < rate/2")
        burst = self.burst_samples  # samples_per_day raises ConfigError unless a day is a whole number of samples
        if burst < 3 and self.signature_gain > 0:  # np.hanning(2) is [0, 0]: the burst would plant nothing
            raise ConfigError(
                f"sample_rate_hz {self.sample_rate_hz} gives a signature burst of {burst} samples; "
                "a signature needs at least 3 (or signature_gain 0)"
            )

    @property
    def samples_per_day(self) -> int:
        return window_width(SECONDS_PER_DAY, self.sample_rate_hz, ("seconds per day", "sample_rate_hz"))

    @property
    def burst_samples(self) -> int:
        """Samples in one daily signature burst: 7200 s, at least 2 and at most a day."""
        return min(max(2, int(round(_BURST_SECONDS * self.sample_rate_hz))), self.samples_per_day)


def _subject_rng(seed: int, index: int) -> np.random.Generator:
    entropy = seed % (2**63)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(index,)))


def _daily_burst_gate(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """One day's burst envelope (fixed per subject, repeated every day)."""
    spd = cfg.samples_per_day
    burst_len = cfg.burst_samples
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

    freqs = np.exp(rng.uniform(np.log(cfg.signature_band_low_hz), np.log(cfg.signature_band_high_hz), _N_CARRIERS))
    phases = rng.uniform(0.0, 2.0 * np.pi, _N_CARRIERS)
    gate = _daily_burst_gate(cfg, rng)

    if cfg.signature_gain > 0:
        onset_day = sprout_day - cfg.signature_onset_days_before  # the ramp is zero here and rises after it
        for day in range(max(0, onset_day + 1), sprout_day):
            ramp = (day - onset_day) / cfg.signature_onset_days_before
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
