import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import sproutcast.features as features
from sproutcast import wavelet
from sproutcast.config import PipelineConfig
from sproutcast.features import (
    FEATURE_NAMES,
    FEATURES_PER_SCALE,
    _reduce_rows,
    build_dataset,
    build_feature_vector,
    extract_scale_features,
    layout_version,
)
from sproutcast.ingest import IngestError
from sproutcast.preprocess import SignalWindow
from sproutcast.wavelet import TransformedWindow, cwt, plan_scales

from conftest import make_recording


def oracle_feature_row(x: np.ndarray, entropy_bins: int) -> np.ndarray:
    """The 14 statistics of one series from numpy's own per-row calls."""
    lo = float(x.min())
    hi = float(x.max())
    mean = float(x.mean())
    p5, p25, median, p75, p95 = np.percentile(x, (5.0, 25.0, 50.0, 75.0, 95.0))
    energy = float(np.add.reduce(x * x))
    if hi > lo:
        counts, _ = np.histogram(x, bins=entropy_bins, range=(lo, hi))
        p = counts[counts > 0] / x.size
        entropy = float(-(p * np.log(p)).sum())
    else:
        entropy = 0.0
    zero_crossings = int(np.count_nonzero(x[:-1] * x[1:] < 0.0))
    centered = x - mean
    mean_crossings = int(np.count_nonzero(centered[:-1] * centered[1:] < 0.0))
    return np.array(
        [
            energy,
            p5,
            p25,
            median,
            mean,
            p75,
            p95,
            float(x.std()),
            lo,
            hi,
            entropy,
            zero_crossings,
            mean_crossings,
            float(np.sqrt(energy / x.size)),
        ]
    )


def oracle_block(block: np.ndarray, entropy_bins: int):
    """(R, 14) statistics, or the message of the ValueError a row raises."""
    try:
        return np.stack([oracle_feature_row(row, entropy_bins) for row in block])
    except ValueError as exc:
        return str(exc)


def assert_matches_oracle(block: np.ndarray, entropy_bins: int) -> None:
    want = oracle_block(block, entropy_bins)
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:
            _reduce_rows(block, entropy_bins)
        assert str(info.value) == want
        return
    got = _reduce_rows(block, entropy_bins)
    assert got.shape == want.shape
    # bit for bit, signed zeros included
    assert got.tobytes() == want.tobytes(), np.argwhere(got.view(np.int64) != want.view(np.int64))


_BASES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def row_blocks(draw):
    """(R, W) blocks: spread, tied, constant, ulp-wide or negative rows."""
    r = draw(st.integers(1, 5))
    w = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["spread", "ties", "constant", "ulp", "negative"]))
    if kind == "spread":
        return draw(arrays(np.float64, (r, w), elements=_BASES))
    if kind == "ties":
        levels = draw(st.lists(_BASES, min_size=1, max_size=4))
        return draw(arrays(np.float64, (r, w), elements=st.sampled_from(levels)))
    if kind == "constant":
        return np.full((r, w), draw(_BASES))
    if kind == "ulp":
        base = draw(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
        steps = draw(arrays(np.int64, (r, w), elements=st.integers(0, draw(st.integers(1, 300)))))
        return base + steps * np.spacing(base)
    return -np.abs(draw(arrays(np.float64, (r, w), elements=_BASES)))


@settings(max_examples=400, deadline=None)
@given(block=row_blocks(), entropy_bins=st.integers(1, 200))
# a subnormal bin width of 9/7 of the smallest float rounds to 1 of it
@example(block=np.array([[3.0e-323, 4.4e-323, 0.0]]), entropy_bins=7)
# -0.0 and 0.0 in one row: numpy's min and percentiles pick which sign to return
@example(block=np.array([[-0.0, 0.0]]), entropy_bins=1)
@example(block=np.array([[-0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0, -0.0, -0.0]]), entropy_bins=3)
def test_block_reduction_matches_per_row_oracle(block, entropy_bins):
    assert_matches_oracle(block, entropy_bins)


def test_block_reduction_matches_oracle_on_magnitude_rows(rng):
    for w in (2, 3, 1080, 5000):
        assert_matches_oracle(np.abs(rng.normal(size=(8, w))), 64)


def test_block_reduction_raises_like_histogram_on_too_many_bins():
    row = np.array([1.0, np.nextafter(1.0, 2.0), 1.0])
    block = np.stack([np.arange(3.0), row])
    assert_matches_oracle(block, 1)
    with pytest.raises(ValueError, match="Too many bins"):
        _reduce_rows(block, 3)
    assert_matches_oracle(block, 3)


def test_block_reduction_matches_oracle_on_subnormal_rows():
    tiny = np.finfo(np.float64).smallest_subnormal
    for steps in ([0, 6, 9], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [3, 200, 17, 1000]):
        row = np.array(steps, dtype=np.float64) * tiny
        for bins in range(1, 12):
            assert_matches_oracle(np.stack([row, -row, row + 1.0]), bins)


def test_block_reduction_is_chunk_invariant(rng, monkeypatch):
    block = np.abs(rng.normal(size=(7, 500)))
    whole = _reduce_rows(block, 64)
    monkeypatch.setattr(features, "_CHUNK_BYTES", 2 * 500 * 8)
    assert _reduce_rows(block, 64).tobytes() == whole.tobytes()


def test_block_reduction_rejects_non_finite_rows():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            _reduce_rows(np.array([[1.0, 2.0], [3.0, bad]]), 8)


def test_feature_count_is_14():
    assert FEATURES_PER_SCALE == 14
    assert len(FEATURE_NAMES) == 14


def test_constant_sequence():
    f = extract_scale_features(np.array([3.0, 3.0, 3.0, 3.0]))
    assert f.energy == pytest.approx(36.0)
    for name in ("p5", "p25", "median", "mean", "p75", "p95", "min", "max", "rms"):
        assert getattr(f, name) == pytest.approx(3.0)
    assert f.std == 0.0
    assert f.entropy == 0.0
    assert f.zero_crossings == 0
    assert f.mean_crossings == 0


def test_alternating_sequence():
    f = extract_scale_features(np.array([1.0, -1.0, 1.0, -1.0]))
    assert f.zero_crossings == 3
    assert f.mean_crossings == 3
    assert f.mean == pytest.approx(0.0)
    assert f.energy == pytest.approx(4.0)


def test_uniform_entropy_and_p5():
    x = np.random.default_rng(424242).uniform(0.0, 1.0, 1000)
    f = extract_scale_features(x, entropy_bins=64)
    assert abs(f.entropy - np.log(64)) < 0.1 * np.log(64)
    assert 0.02 <= f.p5 <= 0.08


def test_rejects_bad_series():
    with pytest.raises(ValueError):
        extract_scale_features(np.array([1.0]))
    with pytest.raises(ValueError):
        extract_scale_features(np.array([1.0, np.nan, 2.0]))


def test_vector_length_and_layout():
    plan = plan_scales(1.0, 256, k=8)
    tw = TransformedWindow(window_index=1, coefficients=np.abs(np.random.default_rng(0).normal(size=(8, 256))))
    fv = build_feature_vector(tw, plan, subject_id="a", day_offset=0)
    assert fv.values.shape == (112,)
    assert layout_version(8) == "wavelet-morlet-k8-f14-v1"
    assert layout_version(8, time_domain=True) == "time-f14-v1"


def test_zero_window_zeroes_every_block():
    plan = plan_scales(1.0, 128, k=3)
    tw = TransformedWindow(window_index=1, coefficients=np.zeros((3, 128)))
    fv = build_feature_vector(tw, plan)
    assert np.array_equal(fv.values, np.zeros(3 * FEATURES_PER_SCALE))


def test_blocks_are_independent(rng):
    plan = plan_scales(1.0, 128, k=4)
    coeffs = np.abs(rng.normal(size=(4, 128)))
    other = coeffs.copy()
    other[2] = np.abs(rng.normal(size=128))
    a = build_feature_vector(TransformedWindow(1, coeffs), plan).values
    b = build_feature_vector(TransformedWindow(1, other), plan).values
    block = slice(2 * FEATURES_PER_SCALE, 3 * FEATURES_PER_SCALE)
    assert not np.array_equal(a[block], b[block])
    mask = np.ones(len(a), bool)
    mask[block] = False
    assert np.array_equal(a[mask], b[mask])


def test_one_window_holds_the_kernel_spectra_one_transform_and_a_few_rows(rng):
    # a 1 Hz day window: its working set is the plan's kernel spectra, one |CWT|
    # and a few W-length rows (the spectrum, the work row, the reduction of one
    # row), not a (K, W) work block or a chunk of several rows' temporaries
    k, w = 8, 86400
    plan = plan_scales(1.0, w, k=k)
    windows = [SignalWindow("s", i, 0, rng.normal(size=w)) for i in (1, 2)]
    wavelet._plan_buffers.cache_clear()
    tracemalloc.start()
    try:
        for win in windows:
            tw = cwt(win, plan)
            build_feature_vector(tw, plan)
            del tw
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        wavelet._plan_buffers.cache_clear()
    spectra, transform = k * w * 16, k * w * 8
    rows = 2 * w * 16 + 6 * w * 8  # two complex rows and six float rows: 6.6 MiB
    assert peak < spectra + transform + rows, f"traced peak {peak / 2**20:.1f} MiB"


def test_scale_count_mismatch():
    plan = plan_scales(1.0, 128, k=4)
    tw = TransformedWindow(window_index=1, coefficients=np.zeros((3, 128)))
    with pytest.raises(ValueError, match="scales"):
        build_feature_vector(tw, plan)


def test_percentile_chain_and_energy_fuzz(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 400))
        x = rng.normal(size=n) * rng.uniform(0.01, 100)
        f = extract_scale_features(x)
        assert f.min <= f.p5 <= f.p25 <= f.median <= f.p75 <= f.p95 <= f.max
        assert f.energy == pytest.approx(float(np.sum(x * x)), rel=1e-9)
        assert f.std >= 0 and f.entropy >= 0


def test_shuffle_changes_only_crossings(rng):
    x = rng.normal(size=500)
    shuffled = rng.permutation(x)
    a = extract_scale_features(x)
    b = extract_scale_features(shuffled)
    for name in FEATURE_NAMES:
        if name in ("zero_crossings", "mean_crossings"):
            continue
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12), name


def test_crossings_invariant_under_positive_scaling(rng):
    x = rng.normal(size=300)
    a = extract_scale_features(x)
    b = extract_scale_features(3.7 * x)
    assert a.zero_crossings == b.zero_crossings
    assert a.mean_crossings == b.mean_crossings


def _tiny_cfg(rate):
    return PipelineConfig(target_hz=rate, scales=4)


def test_build_dataset_targets_count_down():
    rate = 1 / 864  # 100 samples per day keeps the test fast
    rec = make_recording("p0", days=30, rate=rate, sprout_day=30)
    es = build_dataset([rec], _tiny_cfg(rate))
    assert es.x.shape == (30, 4 * 14)
    assert es.y.tolist() == list(map(float, range(30, 0, -1)))
    assert es.m_per_subject == {"p0": 30}
    assert es.true_day == {"p0": 30}


def test_build_dataset_short_subject_contributes_nothing():
    rate = 1 / 864
    rec = make_recording("tiny", days=1, rate=rate, samples=np.ones(40), sprout_day=2)
    es = build_dataset([rec], _tiny_cfg(rate))
    assert es.x.shape[0] == len(es.y) == len(es.features) == 0
    assert es.m_per_subject == {"tiny": 0}


def test_build_dataset_requires_labels():
    rate = 1 / 864
    rec = make_recording("p0", days=3, rate=rate)
    unlabelled = type(rec)(
        subject_id="p0",
        variety=rec.variety,
        storage_temp_c=rec.storage_temp_c,
        sample_rate_hz=rate,
        start_day=rec.start_day,
        samples=rec.samples,
        sprouting_day=None,
    )
    with pytest.raises(IngestError, match="sprouting_day"):
        build_dataset([unlabelled], _tiny_cfg(rate))


def test_build_dataset_refuses_a_repeated_id():
    rate = 1 / 864
    rec = make_recording("p0", days=3, rate=rate)
    with pytest.raises(IngestError, match="duplicate subject_id 'p0'"):
        build_dataset([rec, rec], _tiny_cfg(rate))


def test_time_domain_mode_gives_14_features():
    rate = 1 / 864
    rec = make_recording("p0", days=5, rate=rate, sprout_day=5)
    cfg = PipelineConfig(target_hz=rate, scales=4, time_domain=True)
    es = build_dataset([rec], cfg)
    assert es.layout == "time-f14-v1"
    assert es.x.shape == (5, 14)
