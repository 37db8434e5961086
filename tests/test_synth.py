import numpy as np
import pytest

from sproutcast.config import ConfigError
from sproutcast.synth import SynthConfig, generate_recording, iter_recordings


FAST = dict(sample_rate_hz=1 / 90, signature_band_low_hz=0.0008, signature_band_high_hz=0.004)


def test_same_seed_bit_identical():
    cfg = SynthConfig(n_subjects=4, days_min=20, days_max=30, seed=99, **FAST)
    a = list(iter_recordings(cfg))
    b = list(iter_recordings(cfg))
    for r1, r2 in zip(a, b, strict=True):
        assert r1.subject_id == r2.subject_id
        assert r1.sprouting_day == r2.sprouting_day
        assert np.array_equal(r1.samples, r2.samples)


def test_streaming_matches_materialized():
    cfg = SynthConfig(n_subjects=3, days_min=15, days_max=25, seed=5, **FAST)
    streamed = list(iter_recordings(cfg))
    # each subject generated on its own, in reverse order
    each = [generate_recording(cfg, i) for i in reversed(range(3))][::-1]
    for r1, r2 in zip(streamed, each, strict=True):
        assert np.array_equal(r1.samples, r2.samples)


def test_recording_ends_at_sprouting_day():
    cfg = SynthConfig(n_subjects=6, days_min=10, days_max=40, seed=8, **FAST)
    for rec in iter_recordings(cfg):
        d = rec.sprouting_day_offset
        assert cfg.days_min <= d <= cfg.days_max
        assert len(rec.samples) == d * cfg.samples_per_day


def test_band_energy_ramps_strictly_inside_horizon():
    cfg = SynthConfig(
        n_subjects=2,
        days_min=30,
        days_max=30,
        noise_std=0.0,
        drift_amplitude=0.0,
        signature_gain=5.0,
        signature_onset_days_before=20,
        seed=13,
        **FAST,
    )
    for rec in iter_recordings(cfg):
        spd = cfg.samples_per_day
        d_true = rec.sprouting_day_offset
        daily_energy = [
            float(rec.samples[d * spd : (d + 1) * spd] @ rec.samples[d * spd : (d + 1) * spd])
            for d in range(d_true)
        ]
        horizon_start = d_true - cfg.signature_onset_days_before
        before = daily_energy[:horizon_start]
        inside = daily_energy[horizon_start:]
        assert all(e == 0.0 for e in before)
        assert inside[0] == 0.0  # ramp starts from zero
        ramped = inside[1:]
        assert all(b > a for a, b in zip(ramped, ramped[1:]))


def test_zero_gain_plants_nothing():
    base = dict(n_subjects=1, days_min=25, days_max=25, noise_std=0.0, seed=3, **FAST)
    silent = generate_recording(SynthConfig(signature_gain=0.0, **base), 0)
    # pure drift: low-frequency sinusoid only, so daily energies stay in a narrow band
    spd = SynthConfig(signature_gain=0.0, **base).samples_per_day
    daily = np.array([
        silent.samples[d * spd : (d + 1) * spd] @ silent.samples[d * spd : (d + 1) * spd]
        for d in range(25)
    ])
    assert daily.max() < 2.0 * np.median(daily) + 1e-12


def test_subject_metadata_cycles():
    cfg = SynthConfig(n_subjects=5, days_min=10, days_max=12, seed=2, **FAST)
    recs = list(iter_recordings(cfg))
    assert [r.subject_id for r in recs] == [f"p{i:03d}" for i in range(5)]
    assert {r.variety for r in recs} == {"Sorentina", "SHC1010", "Agria"}
    assert all(r.storage_temp_c == 8 for r in recs)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(days_min=10, days_max=5)
    with pytest.raises(ValueError):
        SynthConfig(signature_band_low_hz=0.2, signature_band_high_hz=0.6)  # above Nyquist at 1 Hz
    with pytest.raises(ValueError):
        SynthConfig(signature_gain=-1.0)
    with pytest.raises(ValueError):
        SynthConfig(n_subjects=0)


# a band under the Nyquist frequency of hourly sampling; no noise or drift, so only the signature moves
SLOW = dict(signature_band_low_hz=0.00001, signature_band_high_hz=0.0001, noise_std=0.0, drift_amplitude=0.0)


@pytest.mark.parametrize("rate", [1 / 2880, 1 / 3600])
def test_a_burst_too_short_to_plant_is_refused(rate):
    # 7200 s is 2 samples at these rates, and np.hanning(2) is [0, 0]: every burst would be zero
    with pytest.raises(ConfigError, match=r"^sample_rate_hz \S+ gives a signature burst of 2 samples; "):
        SynthConfig(sample_rate_hz=rate, **SLOW)


def test_three_sample_bursts_plant_a_signature():
    cfg = SynthConfig(n_subjects=1, days_min=25, days_max=25, sample_rate_hz=1 / 2400, **SLOW)
    assert np.abs(generate_recording(cfg, 0).samples).max() > 0


def test_zero_gain_is_accepted_at_any_burst_length():
    cfg = SynthConfig(n_subjects=1, days_min=3, days_max=3, sample_rate_hz=1 / 3600, signature_gain=0.0, **SLOW)
    assert not generate_recording(cfg, 0).samples.any()


def test_band_pair_sets_both_edges_and_nothing_else():
    assert SynthConfig(signature_band_hz=(0.02, 0.03)) == SynthConfig(signature_band_low_hz=0.02, signature_band_high_hz=0.03)
    for pair in ((0.02,), (0.02, 0.03, 0.04)):
        with pytest.raises(ValueError, match="zip"):
            SynthConfig(signature_band_hz=pair)
    with pytest.raises(ValueError, match="as one .* pair or as two edges, not both"):
        SynthConfig(signature_band_hz=(0.02, 0.03), signature_band_high_hz=0.04)


def test_raw_256hz_survives_conditioning_chain():
    # one day at 256 Hz through the full notch/low-pass/decimate chain;
    # the planted band sits below the low-pass cutoff so its energy remains
    from sproutcast.preprocess import condition, segment
    from sproutcast.wavelet import cwt, plan_scales

    cfg = SynthConfig(
        n_subjects=1,
        days_min=1,
        days_max=1,
        sample_rate_hz=256.0,
        signature_onset_days_before=1,
        signature_gain=0.0,
        noise_std=0.2,
        drift_amplitude=1.0,
        seed=4,
    )
    quiet = generate_recording(cfg, 0)
    loud = generate_recording(
        SynthConfig(**{**cfg.__dict__, "signature_gain": 8.0, "days_min": 2, "days_max": 2,
                       "signature_onset_days_before": 2}), 0
    )
    plan = None
    energies = {}
    for name, rec in (("quiet", quiet), ("loud", loud)):
        conditioned = condition(rec)
        assert conditioned.sample_rate_hz == 1.0
        windows = segment(conditioned, 86400)
        assert len(windows) == rec.sprouting_day_offset
        plan = plan or plan_scales(1.0, 86400, k=8)
        tw = cwt(windows[-1], plan)
        band_rows = [i for i, f in enumerate(plan.frequencies_hz) if 0.01 <= f <= 0.05]
        energies[name] = sum(float(tw.coefficients[i] @ tw.coefficients[i]) for i in band_rows)
    assert energies["loud"] > 10 * energies["quiet"]
