import concurrent.futures
import json
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from sproutcast import evaluate, ingest
from sproutcast.config import PipelineConfig
from sproutcast.estimate import SubjectEstimate, WindowEstimate, rolling_mean
from sproutcast.evaluate import (
    FoldResult,
    calibration_curves,
    compute_metrics,
    loo_cv,
    report_from_dict,
    tlag_sweep,
    variance_decomposition,
    write_curves,
    write_report,
)
from sproutcast.features import build_dataset

from conftest import interrupt_writes, make_recording, temp_files

RATE = 1 / 864  # 100 samples per day
CFG = PipelineConfig(target_hz=RATE, scales=4, n_trees=15, max_depth=2, learning_rate=0.2, seed=0)


def tiny_dataset(n=3, days=12, seed=0):
    """The recordings of a small labelled corpus, subjects p0, p1, ..."""
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(n):
        d = days + i
        samples = rng.normal(size=int(d * 86400 * RATE))
        # plant a trivially learnable amplitude ramp
        ramp = np.linspace(0, 1, len(samples))
        recs.append(make_recording(f"p{i}", days=d, rate=RATE, samples=samples * (1 + ramp), sprout_day=d))
    return recs


def oracle_fold(subject, d_true, retained=None):
    """A fold whose predictor is exact: y_hat == D - d for every window."""
    estimates = [
        WindowEstimate(subject, d + 1, d, float(d_true - d), float(d_true), None, True if retained is None else retained[d])
        for d in range(d_true)
    ]
    kept = [e for e in estimates if e.retained]
    d_hat = float(np.mean([e.d_hat for e in kept]))
    return FoldResult(
        held_out_subject=subject,
        window_estimates=estimates,
        subject_estimate=SubjectEstimate(subject, d_hat, len(kept), False),
        mae_j=0.0,
        esd_j=abs(d_hat - d_true),
        baseline_mae_j=1.0,
        true_day=d_true,
    )


def manual_fold(subject, d_true, errors):
    """A fold with chosen per-window signed errors; everything else derived."""
    estimates = []
    for d, err in enumerate(errors):
        y_hat = float(d_true - d) + err
        estimates.append(WindowEstimate(subject, d + 1, d, y_hat, d + y_hat, None, True))
    d_hat = float(np.mean([e.d_hat for e in estimates]))
    return FoldResult(
        held_out_subject=subject,
        window_estimates=estimates,
        subject_estimate=SubjectEstimate(subject, d_hat, len(estimates), False),
        mae_j=float(np.mean(np.abs(errors))),
        esd_j=abs(d_hat - d_true),
        baseline_mae_j=float(np.mean(np.abs(errors))) + 1.0,
        true_day=d_true,
    )


def test_loo_fold_protocol():
    ds = tiny_dataset(3)
    folds = loo_cv(build_dataset(ds, CFG), CFG)
    assert len(folds) == 3
    assert [f.held_out_subject for f in folds] == ["p0", "p1", "p2"]
    for fold in folds:
        assert len(fold.window_estimates) == fold.true_day
        assert fold.esd_j == abs(fold.subject_estimate.d_hat - fold.true_day)


def test_loo_requires_two_subjects():
    ds = tiny_dataset(1)
    with pytest.raises(ValueError, match="at least 2"):
        loo_cv(build_dataset(ds, CFG), CFG)


def test_loo_deterministic_report_bytes(tmp_path):
    ds = tiny_dataset(3)
    paths = []
    for name in ("a.json", "b.json"):
        folds = loo_cv(build_dataset(ds, CFG), CFG)
        report = compute_metrics(folds, CFG, label="tiny")
        paths.append(write_report(report, tmp_path / name))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_loo_parallel_folds_match_serial():
    ds = tiny_dataset(3)
    serial = compute_metrics(loo_cv(build_dataset(ds, CFG), CFG), CFG)
    parallel_cfg = PipelineConfig(**{**CFG.__dict__, "jobs": 2})
    parallel = compute_metrics(loo_cv(build_dataset(ds, parallel_cfg), parallel_cfg), parallel_cfg)
    assert asdict(parallel) == asdict(serial)


@pytest.mark.parametrize("cpus, workers", [(64, 3), (2, 2)])
def test_loo_jobs_never_exceed_the_folds_or_the_cpus(cpus, workers, monkeypatch):
    seen = []

    class SerialExecutor:  # a real pool would start every worker it is asked for at its first submit
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    ds = tiny_dataset(3)
    serial = compute_metrics(loo_cv(build_dataset(ds, CFG), CFG), CFG)
    many_cfg = PipelineConfig(**{**CFG.__dict__, "jobs": 10**6})
    many = compute_metrics(loo_cv(build_dataset(ds, many_cfg), many_cfg), many_cfg)
    assert seen == [workers]
    assert asdict(many) == asdict(serial)


def test_two_level_mae_grouping():
    # subject A: per-window |errors| 1,2,3 -> MAE_A = 2; subject B: one window, error 10
    folds = [
        manual_fold("a", 10, [1.0, -2.0, 3.0]),
        manual_fold("b", 5, [10.0]),
    ]
    report = compute_metrics(folds)
    assert report.mae == pytest.approx((2.0 + 10.0) / 2)  # not the pooled (1+2+3+10)/4
    assert report.mae != pytest.approx(16.0 / 4)
    assert report.esd == pytest.approx((2.0 / 3.0 + 10.0) / 2)


def test_esd_percentile_curve_endpoints():
    folds = [manual_fold("a", 10, [0.0]), manual_fold("b", 10, [10.0])]
    report = compute_metrics(folds)
    curve = dict(report.esd_percentiles)
    assert curve[0.0] == 0.0
    assert curve[100.0] == 10.0
    assert curve[50.0] == 5.0
    values = [v for _, v in report.esd_percentiles]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_perfect_predictor_all_zero():
    folds = [oracle_fold(f"s{i}", 20 + i) for i in range(4)]
    report = compute_metrics(folds)
    assert report.mae == 0.0
    assert report.esd == 0.0
    assert all(v == 0.0 for _, v in report.esd_percentiles)
    for row in report.tlag_curve:
        if row["mean_esd"] is not None:
            assert row["mean_esd"] == pytest.approx(0.0)


def test_tlag_zero_matches_esd():
    folds = [manual_fold("a", 15, [2.0] * 15)]
    curve = tlag_sweep(folds, range(-5, 1))
    at_zero = [row for row in curve if row["t_lag"] == 0][0]
    # all windows precede D, so lag 0 reproduces the headline ESD
    assert at_zero["mean_esd"] == pytest.approx(compute_metrics(folds).esd)


def test_tlag_excludes_short_subjects():
    folds = [oracle_fold("long", 30), oracle_fold("short", 8)]
    curve = tlag_sweep(folds, range(-12, -9))
    for row in curve:
        expected = 2 if 8 + row["t_lag"] >= 1 else 1
        assert row["n_subjects"] == expected


def test_calibration_oracle_identity():
    folds = [oracle_fold(f"s{i}", 15 + 2 * i) for i in range(3)]
    table = calibration_curves(folds, bin_width=1.0, rolling_n=1)
    for row in table["bins"]:
        assert abs(row["e_y"] - row["y_hat_center"]) <= 0.5 + 1e-12
        assert row["std_y"] == pytest.approx(0.0, abs=1e-12)


def test_calibration_constant_predictor():
    d_true = 12
    y_mean = np.mean([float(d_true - d) for d in range(d_true)])
    estimates = [
        WindowEstimate("c", d + 1, d, float(y_mean), d + float(y_mean), None, True) for d in range(d_true)
    ]
    fold = FoldResult(
        held_out_subject="c",
        window_estimates=estimates,
        subject_estimate=SubjectEstimate("c", float(np.mean([e.d_hat for e in estimates])), d_true, False),
        mae_j=0.0,
        esd_j=0.0,
        baseline_mae_j=0.0,
        true_day=d_true,
    )
    table = calibration_curves([fold], bin_width=5.0, rolling_n=7)
    assert len(table["bins"]) == 1
    assert table["bins"][0]["e_y"] == pytest.approx(y_mean)


def test_calibration_bins_each_prediction_at_a_tiny_bin_width():
    # bin indices near 1e301 are whole floats far outside any integer type
    folds = [oracle_fold(f"s{i:02d}", 10 + i) for i in range(16)]
    table = calibration_curves(folds, bin_width=1e-300, rolling_n=3)
    rolled = np.concatenate([rolling_mean([e.y_hat for e in fr.window_estimates], 3) for fr in folds])
    distinct = np.unique(rolled)
    assert len(distinct) > 1
    assert [row["y_hat_center"] for row in table["bins"]] == pytest.approx(distinct.tolist(), rel=1e-12)
    assert [row["count"] for row in table["bins"]] == [int((rolled == v).sum()) for v in distinct]


def test_variance_decomposition_at_a_tiny_bin_width():
    y = np.arange(5.0)
    assert variance_decomposition(y, y, 1e-300)["e_var_y_given_y_hat"] == 0.0


@pytest.mark.parametrize("scorer", ["calibration_curves", "variance_decomposition"])
def test_a_bin_width_whose_bin_index_overflows_is_refused(scorer):
    # 1 / 1e-320 is above the float range: the bin index of every prediction but 0 overflows
    with pytest.raises(ValueError, match=r"^bin width 1e-320 is too small"):
        if scorer == "calibration_curves":
            calibration_curves([oracle_fold("s", 5)], bin_width=1e-320, rolling_n=1)
        else:
            variance_decomposition(np.arange(5.0), np.arange(5.0), 1e-320)


@pytest.mark.parametrize("scorer", ["calibration_curves", "variance_decomposition"])
def test_a_non_positive_bin_width_is_refused(scorer):
    with pytest.raises(ValueError, match="^bin_width must be positive$"):
        if scorer == "calibration_curves":
            calibration_curves([oracle_fold("s", 5)], bin_width=0.0)
        else:
            variance_decomposition(np.arange(5.0), np.arange(5.0), 0.0)


def test_fold_targets_are_the_example_set_targets():
    # compute_metrics pools each held-out window's target as true_day - day_offset
    data = build_dataset(tiny_dataset(3), CFG)
    for j, fold in enumerate(loo_cv(data, CFG)):
        targets = [float(fold.true_day - e.day_offset) for e in fold.window_estimates]
        assert targets == data.y[data.groups == j].tolist()


def test_variance_decomposition_exact_and_binned(rng):
    y = rng.integers(0, 40, 500).astype(float)
    # oracle: y_hat == y, exact conditioning closes the identity exactly
    vd = variance_decomposition(y, y, bin_width=None)
    assert vd["e_var_y_given_y_hat"] == pytest.approx(0.0, abs=1e-12)
    assert vd["var_y"] == pytest.approx(vd["var_y_hat"], rel=1e-9)
    # 5-day binning coarsens the conditioning; identity holds to binning tolerance
    vd = variance_decomposition(y, y, bin_width=5.0)
    gap = vd["var_y"] - vd["var_y_hat"] - vd["e_var_y_given_y_hat"]
    assert abs(gap) <= 0.05 * vd["var_y"]


def test_report_round_trip(tmp_path):
    folds = [manual_fold("a", 10, [1.0, 2.0]), manual_fold("b", 12, [3.0])]
    report = compute_metrics(folds, label="rt")
    path = write_report(report, tmp_path / "r.json")
    loaded = report_from_dict(json.loads(path.read_text()))
    assert loaded == report


def test_write_curves_files(tmp_path):
    folds = [oracle_fold("s", 20)]
    report = compute_metrics(folds)
    paths = write_curves(report, tmp_path / "curves")
    names = {p.name for p in paths}
    assert names == {"esd_percentiles.csv", "tlag.csv", "calibration.csv"}
    cal = (tmp_path / "curves" / "calibration.csv").read_text().splitlines()
    assert cal[0] == "y_hat_center,e_y,std_y,count,low_support"
    # display axis is negated: days-until become negative numbers
    assert all(float(line.split(",")[0]) <= 0 for line in cal[1:])


def test_interrupted_report_or_curves_keep_the_old_files(tmp_path, monkeypatch):
    old = compute_metrics([oracle_fold("s", 20)])
    paths = [write_report(old, tmp_path / "r.json"), *write_curves(old, tmp_path / "curves")]
    before = [p.read_bytes() for p in paths]
    new = compute_metrics([manual_fold("a", 10, [1.0, 2.0]), manual_fold("b", 12, [3.0])])
    interrupt_writes(monkeypatch, ingest)
    interrupt_writes(monkeypatch, evaluate)
    with pytest.raises(KeyboardInterrupt):
        write_report(new, tmp_path / "r.json")
    with pytest.raises(KeyboardInterrupt):
        write_curves(new, tmp_path / "curves")
    assert [p.read_bytes() for p in paths] == before
    assert temp_files(tmp_path) == []


def test_ensemble_strategy_smoke():
    ds = tiny_dataset(3, days=14)
    cfg = PipelineConfig(
        target_hz=RATE,
        scales=4,
        n_trees=8,
        max_depth=2,
        learning_rate=0.3,
        min_samples_leaf=1,
        strategy="ensemble",
        uq_th=50.0,
        seed=1,
    )
    folds = loo_cv(build_dataset(ds, cfg), cfg)
    report = compute_metrics(folds, cfg, label="tiny")
    assert report.strategy == "ensemble"
    for fold in folds:
        assert all(e.ci_halfwidth is not None for e in fold.window_estimates)


def test_fallback_fold_scores_the_tightest_window():
    # a threshold no interval meets: every window is discarded, every subject falls back
    ds = tiny_dataset(3, days=14)
    cfg = PipelineConfig(
        target_hz=RATE,
        scales=4,
        n_trees=8,
        max_depth=2,
        learning_rate=0.3,
        min_samples_leaf=1,
        strategy="ensemble",
        uq_th=1e-9,
        seed=1,
    )
    for fold in loo_cv(build_dataset(ds, cfg), cfg):
        assert fold.subject_estimate.fallback_used
        observable = [
            (e, float(fold.true_day - e.day_offset)) for e in fold.window_estimates if e.day_offset < fold.true_day
        ]
        best, y = min(observable, key=lambda pair: (pair[0].ci_halfwidth, pair[0].window_index))
        assert fold.subject_estimate.d_hat == best.d_hat
        assert fold.mae_j == abs(best.y_hat - y)


def test_a_fold_rescores_from_its_record_alone():
    # one ensemble LOO keeping every window, re-flagged at other thresholds and scored
    # again, gives fold for fold what a separate LOO at each threshold gives
    data = build_dataset(tiny_dataset(4, days=14), CFG)
    cfg = replace(CFG, n_trees=8, learning_rate=0.3, min_samples_leaf=1, strategy="ensemble", uq_th=1e9, seed=1)
    folds = loo_cv(data, cfg)
    assert all(e.retained for fr in folds for e in fr.window_estimates)
    train_means = [float(np.mean(data.y[data.groups != j])) for j in range(len(folds))]
    for fr, train_mean in zip(folds, train_means):
        assert evaluate._score_fold(fr.held_out_subject, fr.window_estimates, fr.true_day, train_mean) == fr

    widths = sorted(2 * e.ci_halfwidth for fr in folds for e in fr.window_estimates)
    # from every window kept to every subject falling back
    thresholds = [widths[-1], widths[len(widths) // 2], widths[len(widths) // 5], widths[0] / 2]
    fallbacks = []
    for th in thresholds:
        rescored = [
            evaluate._score_fold(
                fr.held_out_subject,
                [replace(e, retained=2 * e.ci_halfwidth <= th) for e in fr.window_estimates],
                fr.true_day,
                train_mean,
            )
            for fr, train_mean in zip(folds, train_means)
        ]
        assert rescored == loo_cv(data, replace(cfg, uq_th=th))
        fallbacks.append(sum(fr.subject_estimate.fallback_used for fr in rescored))
    assert fallbacks[0] == 0 and fallbacks[-1] == len(folds)


def test_no_folds_make_no_report():
    with pytest.raises(ValueError, match="^no folds to aggregate$"):
        compute_metrics([])
