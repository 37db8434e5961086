import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sproutcast
from sproutcast.ingest import Recording
from sproutcast.preprocess import (
    SECONDS_PER_DAY,
    biquad_lowpass,
    condition,
    downsample,
    notch_filter,
    segment,
)

from conftest import make_recording, make_signal


def tone(freq_hz, rate, seconds, amplitude=1.0):
    t = np.arange(int(rate * seconds)) / rate
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


def rms(x):
    return np.sqrt(np.mean(x**2))


def test_notch_kills_mains_tone():
    # oracle: RMS of the filtered synthetic tone after a 2 s transient
    x = tone(50.0, 256.0, 30.0)
    out = notch_filter(make_signal(x, 256.0), 50.0, q=30.0)
    skip = int(2 * 256)
    assert rms(out.samples[skip:]) < 0.05 * rms(x[skip:])
    assert len(out.samples) == len(x)


def test_notch_passes_dc():
    x = np.full(int(256 * 20), 3.7)
    out = notch_filter(make_signal(x, 256.0), 50.0, q=30.0)
    assert np.allclose(out.samples[int(2 * 256):], 3.7, atol=1e-9)


def test_notch_rejects_nyquist_and_above():
    x = np.ones(256)
    with pytest.raises(ValueError, match="Nyquist"):
        notch_filter(make_signal(x, 256.0), 200.0, q=30.0)
    with pytest.raises(ValueError, match="Nyquist"):
        notch_filter(make_signal(x, 256.0), 128.0, q=30.0)


def test_lowpass_passes_slow_tone():
    x = tone(0.01, 256.0, 400.0)
    out = biquad_lowpass(make_signal(x, 256.0), 0.4, q=0.707)
    tail = out.samples[len(x) // 2 :]
    assert abs(tail.max() - 1.0) < 0.05


def test_lowpass_attenuates_fast_tone():
    x = tone(100.0, 256.0, 60.0)
    out = biquad_lowpass(make_signal(x, 256.0), 0.4, q=0.707)
    tail = out.samples[len(x) // 2 :]
    assert np.abs(tail).max() < 0.01


def test_lowpass_zero_in_zero_out():
    out = biquad_lowpass(make_signal(np.zeros(1000), 256.0), 0.4)
    assert np.array_equal(out.samples, np.zeros(1000))


def test_filters_are_linear(rng):
    x = rng.normal(size=4000)
    y = rng.normal(size=4000)
    a, b = 2.3, -0.7
    for filt in (
        lambda s: notch_filter(s, 50.0, 30.0),
        lambda s: biquad_lowpass(s, 0.4, 0.707),
    ):
        fx = filt(make_signal(x)).samples
        fy = filt(make_signal(y)).samples
        fxy = filt(make_signal(a * x + b * y)).samples
        ref = a * fx + b * fy
        assert np.allclose(fxy, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


def test_downsample_ratios():
    out = downsample(make_signal(np.arange(256.0), 256.0), 1.0)
    assert out.sample_rate_hz == 1.0
    assert np.array_equal(out.samples, [0.0])
    out = downsample(make_signal(np.arange(2560.0), 256.0), 1.0)
    assert len(out.samples) == 10
    with pytest.raises(ValueError, match="integer"):
        downsample(make_signal(np.arange(256.0), 256.0), 3.0)


def test_full_chain_reduces_length_256x():
    x = np.random.default_rng(1).normal(size=256 * 3600)
    rec = make_recording("c", rate=256.0, samples=x, days=1)
    out = condition(rec)
    assert out.sample_rate_hz == 1.0
    assert len(out.samples) == len(x) // 256


def test_condition_changes_only_samples_and_rate():
    rec = make_recording("k", rate=256.0, samples=np.random.default_rng(3).normal(size=256 * 60), variety="SHC1010")
    out = condition(rec)
    assert isinstance(out, Recording)
    assert (out.sample_rate_hz, len(out.samples)) == (1.0, 60)
    for f in dataclasses.fields(Recording):
        if f.name not in ("samples", "sample_rate_hz"):
            assert getattr(out, f.name) == getattr(rec, f.name), f.name


def test_chain_is_identity_at_target_rate():
    x = np.random.default_rng(2).normal(size=500)
    rec = make_recording("i", rate=1.0, samples=x, days=1)
    out = condition(rec)
    assert out.samples is rec.samples


def test_segment_day_windows():
    x = np.arange(3 * SECONDS_PER_DAY, dtype=float)
    windows = segment(make_signal(x, 1.0), SECONDS_PER_DAY)
    assert [w.day_offset for w in windows] == [0, 1, 2]
    assert [w.window_index for w in windows] == [1, 2, 3]
    assert all(len(w.samples) == SECONDS_PER_DAY for w in windows)


def test_segment_drops_trailing_partial():
    x = np.arange(int(2.5 * SECONDS_PER_DAY), dtype=float)
    windows = segment(make_signal(x, 1.0), SECONDS_PER_DAY)
    assert len(windows) == 2


def test_segment_one_sample_signal_gives_no_windows():
    # a Recording holds at least one sample, so no signal is empty
    assert segment(make_signal(np.array([0.5]), 1.0), SECONDS_PER_DAY) == []


def test_segment_concatenation_is_prefix(rng):
    x = rng.normal(size=2_000)
    windows = segment(make_signal(x, 1 / 144), 86400)  # 600 samples per window
    joined = np.concatenate([w.samples for w in windows])
    assert np.array_equal(joined, x[: len(joined)])


def test_segment_subday_windows():
    x = np.arange(100.0)
    windows = segment(make_signal(x, 1.0), 10)  # 10-second windows
    assert len(windows) == 10
    assert [w.day_offset for w in windows] == [0] * 10


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about a second to import; only filtering needs it
    env = dict(os.environ, PYTHONPATH=str(Path(sproutcast.__file__).parents[1]))
    code = "import sys, sproutcast.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_downsample_refuses_a_target_rate_that_is_not_positive():
    with pytest.raises(ValueError, match="^target_hz must be positive$"):
        downsample(make_signal(np.arange(256.0), 256.0), 0.0)


def test_notch_refuses_a_q_that_is_not_positive():
    with pytest.raises(ValueError, match=r"^notch center 50.0 Hz and q 0.0 must be positive$"):
        notch_filter(make_signal(np.arange(256.0), 256.0), 50.0, q=0.0)
