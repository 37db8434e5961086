import math

import numpy as np
import pytest

from sproutcast.estimate import WindowEstimate, aggregate, rolling_mean, window_estimates
from sproutcast.features import FeatureVector
from sproutcast.regress import Ensemble, RegressorSpec

from conftest import constant_model


def fv(day, subject="s", index=None):
    return FeatureVector(subject_id=subject, window_index=index or day + 1, day_offset=day, values=np.zeros(2))


def we(day, d_hat, ci=None, retained=True, subject="s", index=None):
    return WindowEstimate(
        subject_id=subject,
        window_index=index or day + 1,
        day_offset=day,
        y_hat=d_hat - day,
        d_hat=d_hat,
        ci_halfwidth=ci,
        retained=retained,
    )


def spread_ensemble(values, n_features=2):
    members = [constant_model(v, n_features) for v in values]
    return Ensemble(members, np.zeros(1, dtype=np.int32), RegressorSpec(), "", n_features)


def test_single_model_estimates():
    model = constant_model(10.0, n_features=2)
    estimates = window_estimates(model, [fv(5)])
    (e,) = estimates
    assert e.y_hat == 10.0
    assert e.d_hat == 15.0
    assert e.retained
    assert e.ci_halfwidth is None


def test_ensemble_threshold_discards_wide_intervals():
    # ci_halfwidth = 3 -> full width 6 exceeds threshold 4
    values = np.array([10.0]) + 3.0 / 2.262 * math.sqrt(10) / math.sqrt(20 / 9) * np.array(
        [-2, -1, 0, 1, 2, -2, -1, 0, 1, 2]
    )
    ens = spread_ensemble(values)
    (e,) = window_estimates(ens, [fv(0)], uq_th=4.0)
    assert e.ci_halfwidth == pytest.approx(3.0)
    assert not e.retained
    (e2,) = window_estimates(ens, [fv(0)], uq_th=6.1)
    assert e2.retained


def test_ensemble_requires_threshold():
    ens = spread_ensemble([1.0] * 10)
    with pytest.raises(ValueError, match="uq_th"):
        window_estimates(ens, [fv(0)])


def test_infinite_threshold_matches_mean_path():
    ens = spread_ensemble([18, 19, 20, 21, 22, 18, 19, 20, 21, 22])
    capped = window_estimates(ens, [fv(d) for d in range(3)], uq_th=math.inf)
    assert all(e.retained for e in capped)
    mean_model = constant_model(20.0, n_features=2)
    plain = window_estimates(mean_model, [fv(d) for d in range(3)])
    assert [e.d_hat for e in capped] == pytest.approx([e.d_hat for e in plain])


def test_aggregate_means_retained():
    estimates = [we(0, 10.0), we(1, 20.0), we(2, 30.0)]
    out = aggregate(estimates, observation_day=100)
    assert out.d_hat == pytest.approx(20.0)
    assert out.n_windows_used == 3
    assert not out.fallback_used


def test_aggregate_respects_observation_day():
    estimates = [we(d, float(10 * (d + 1))) for d in range(5)]
    out = aggregate(estimates, observation_day=3)
    # only days 0,1,2 observable
    assert out.d_hat == pytest.approx(20.0)
    truncated = aggregate([e for e in estimates if e.day_offset < 3], observation_day=3)
    assert truncated.d_hat == out.d_hat


def test_aggregate_fallback_smallest_ci():
    estimates = [
        we(0, 11.0, ci=5.0, retained=False),
        we(1, 22.0, ci=3.0, retained=False),
        we(2, 33.0, ci=9.0, retained=False),
    ]
    out = aggregate(estimates, observation_day=10)
    assert out.fallback_used
    assert out.d_hat == 22.0
    assert out.n_windows_used == 1


def test_aggregate_rejects_day_zero():
    with pytest.raises(ValueError, match="before observation day"):
        aggregate([we(0, 10.0)], observation_day=0)


def test_aggregate_rejects_mixed_subjects():
    with pytest.raises(ValueError, match="multiple subjects"):
        aggregate([we(0, 1.0, subject="a"), we(1, 2.0, subject="b")], observation_day=5)


def test_aggregate_bound(rng):
    estimates = [we(d, float(v)) for d, v in enumerate(rng.uniform(5, 50, 20))]
    out = aggregate(estimates, observation_day=50)
    values = [e.d_hat for e in estimates]
    assert min(values) <= out.d_hat <= max(values)


def test_retained_set_monotone_in_threshold(rng):
    ens = spread_ensemble(list(rng.normal(20, 3, 10)))
    features = [fv(d) for d in range(15)]
    previous: set[int] = set()
    for th in (0.5, 1.0, 2.0, 4.0, 8.0, math.inf):
        kept = {e.window_index for e in window_estimates(ens, features, uq_th=th) if e.retained}
        assert previous <= kept
        previous = kept


def test_perfect_predictor_identity():
    # Y = D - d exactly for every window implies every estimate lands on D
    d_true = 42
    estimates = [we(d, float(d_true)) for d in range(d_true)]
    for e in estimates:
        assert e.d_hat == d_true
    out = aggregate(estimates, observation_day=d_true)
    assert out.d_hat == d_true


def test_rolling_mean_identity_and_constant():
    x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    assert np.array_equal(rolling_mean(x, 1), x)
    assert np.array_equal(rolling_mean(np.full(9, 2.5), 7), np.full(9, 2.5))


def test_rolling_mean_trailing_window():
    out = rolling_mean(np.arange(1.0, 11.0), 7)
    assert out[-1] == pytest.approx(np.mean(np.arange(4.0, 11.0)))  # mean(4..10) = 7
    assert out[0] == 1.0
    assert out[2] == pytest.approx(2.0)  # mean(1,2,3)
    assert len(out) == 10


def test_rolling_mean_validation():
    with pytest.raises(ValueError):
        rolling_mean([1.0], 0)
    assert rolling_mean([], 3).size == 0


def test_no_windows_give_no_estimates():
    assert window_estimates(constant_model(3.0), []) == []
    with pytest.raises(ValueError, match="^no window estimates to aggregate$"):
        aggregate([], observation_day=10)
