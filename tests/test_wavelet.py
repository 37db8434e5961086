import numpy as np
import pytest

from sproutcast import wavelet
from sproutcast.preprocess import SignalWindow
from sproutcast.wavelet import cwt, cwt_direct, morlet_kernel, plan_scales


def window(samples):
    return SignalWindow(subject_id="s", window_index=1, day_offset=0, samples=np.asarray(samples, float))


def test_plan_band_and_spacing():
    plan = plan_scales(1.0, 86400, k=8)
    assert plan.k == 8
    assert plan.frequencies_hz[0] == pytest.approx(0.25)
    assert plan.frequencies_hz[-1] == pytest.approx(4.0 / 86400)
    ratios = plan.frequencies_hz[1:] / plan.frequencies_hz[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)
    assert np.all(np.diff(plan.frequencies_hz) < 0)
    # Morlet centre-frequency relation
    assert np.allclose(plan.scales, 6.0 * 1.0 / (2 * np.pi * plan.frequencies_hz))


def test_plan_endpoint_ratio():
    for rate, wlen, k in [(1.0, 86400, 8), (256.0, 4096, 5), (1.0, 500, 3)]:
        plan = plan_scales(rate, wlen, k=k)
        assert plan.frequencies_hz[0] / plan.frequencies_hz[-1] == pytest.approx(
            (rate / 4) / (4 * rate / wlen), rel=1e-9
        )


def test_plan_rejects_window_too_short():
    with pytest.raises(ValueError, match="too short"):
        plan_scales(1.0, 8, k=2)
    with pytest.raises(ValueError, match="too short"):
        plan_scales(1.0, 16, k=4)  # f_min == f_max
    plan_scales(1.0, 17, k=2)


def test_plan_preconditions():
    with pytest.raises(ValueError):
        plan_scales(1.0, 86400, k=1)
    with pytest.raises(ValueError):
        plan_scales(1.0, 3, k=2)


def test_cwt_zero_window_is_exact_zero():
    plan = plan_scales(1.0, 256, k=4)
    for op in (cwt, cwt_direct):
        out = op(window(np.zeros(256)), plan).coefficients
        assert out.shape == (4, 256)
        assert np.all(out == 0.0)


def test_cwt_length_mismatch():
    plan = plan_scales(1.0, 256, k=4)
    with pytest.raises(ValueError, match="length"):
        cwt(window(np.zeros(255)), plan)


def test_cwt_direct_cap():
    plan = plan_scales(1.0, 8192, k=4)
    with pytest.raises(ValueError, match="capped"):
        cwt_direct(window(np.zeros(8192)), plan)


def test_impulse_gives_wavelet_envelope():
    w = 512
    plan = plan_scales(1.0, w, k=5)
    x = np.zeros(w)
    centre = w // 2
    x[centre] = 1.0
    out = cwt(window(x), plan).coefficients
    for row, scale in enumerate(plan.scales):
        h = morlet_kernel(scale, w)
        # the op removes the window mean, so the delta carries a -1/W offset
        expected = np.abs(np.roll(h, centre) - h.sum() / w)
        assert np.allclose(out[row], expected, atol=1e-9 * expected.max())


def test_fft_matches_direct_oracle(rng):
    worst = 0.0
    for _ in range(30):
        w = int(rng.integers(64, 1025))
        k = int(rng.integers(2, 7))
        x = rng.normal(size=w)
        plan = plan_scales(1.0, w, k=k)
        fast = cwt(window(x), plan).coefficients
        slow = cwt_direct(window(x), plan).coefficients
        scale_ref = np.maximum(np.abs(slow).max(axis=1, keepdims=True), 1e-300)
        worst = max(worst, float((np.abs(fast - slow) / scale_ref).max()))
    assert worst < 1e-6


def test_tone_localizes_at_matching_scale():
    w = 4096
    plan = plan_scales(1.0, w, k=8)
    t = np.arange(w)
    for k, f in enumerate(plan.frequencies_hz):
        tw = cwt(window(np.cos(2 * np.pi * f * t)), plan)
        best = int(np.argmax(tw.coefficients.mean(axis=1)))
        assert abs(best - k) <= 1


def test_shift_covariance(rng):
    w = 600
    plan = plan_scales(1.0, w, k=4)
    x = rng.normal(size=w)
    shift = 137
    base = cwt(window(x), plan).coefficients
    rolled = cwt(window(np.roll(x, shift)), plan).coefficients
    expected = np.roll(base, shift, axis=1)
    assert np.allclose(rolled, expected, rtol=1e-6, atol=1e-9 * base.max())


def test_scaling_homogeneity(rng):
    w = 400
    plan = plan_scales(1.0, w, k=3)
    x = rng.normal(size=w)
    base = cwt(window(x), plan).coefficients
    for a in (-3.0, 0.5, 11.0):
        scaled = cwt(window(a * x), plan).coefficients
        assert np.allclose(scaled, abs(a) * base, rtol=1e-9, atol=1e-12 * base.max())


def test_kernel_is_unit_norm():
    for scale in (3.8, 20.0, 100.0):
        h = morlet_kernel(scale, 512)
        assert np.linalg.norm(h) == pytest.approx(1.0, rel=1e-12)


def _stacked_kernel_ffts(plan):
    return np.fft.fft(np.stack([morlet_kernel(s, plan.window_len, plan.omega0) for s in plan.scales]), axis=1)


@pytest.mark.parametrize("width", [600, 1080, 2048, 86400])
def test_row_wise_kernel_ffts_equal_the_stacked_transform(width):
    plan = plan_scales(1.0, width, k=8)
    rows = wavelet._kernel_ffts(width, plan.omega0, tuple(plan.scales))
    assert rows.tobytes() == _stacked_kernel_ffts(plan).tobytes()


@pytest.mark.parametrize("rate, width", [(1 / 80, 1080), (1.0, 86400), (1.0, 1001)])
def test_cwt_bits_equal_the_one_shot_expression(rate, width, rng):
    plan = plan_scales(rate, width, k=8)
    x = 3.0 * rng.normal(size=width) + 1.0
    # cwt as one expression, before it had a work buffer: the oracle of its bits
    oracle = np.abs(np.fft.ifft(np.fft.fft(x - x.mean())[None] * _stacked_kernel_ffts(plan), axis=1))
    assert cwt(window(x), plan).coefficients.tobytes() == oracle.tobytes()


def test_cwt_results_share_no_memory(rng):
    plan = plan_scales(1.0, 2048, k=6)
    first = cwt(window(rng.normal(size=2048)), plan).coefficients
    kept = first.copy()
    x = rng.normal(size=2048)
    second = cwt(window(x), plan).coefficients
    kernel_ffts, spectrum, work = wavelet._plan_buffers(plan.window_len, plan.omega0, tuple(plan.scales))
    # the second call ran in the cached buffers: the window's spectrum, and the
    # work block, which at W = 2048 holds all six scales at once
    assert np.array_equal(spectrum, np.fft.fft(x - x.mean()))
    assert work.shape == (6, 2048)
    assert np.array_equal(np.abs(work), second)
    for buffer in (second, spectrum, work, kernel_ffts):
        assert not np.shares_memory(first, buffer)
    for buffer in (spectrum, work, kernel_ffts):
        assert not np.shares_memory(second, buffer)
    assert np.array_equal(first, kept)


def test_plan_scales_refuses_a_rate_that_is_not_positive():
    with pytest.raises(ValueError, match="^sample_rate_hz must be positive$"):
        plan_scales(0.0, 64)
