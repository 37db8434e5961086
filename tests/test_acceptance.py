"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  The end-to-end criterion generates 64 subjects at 1 Hz and runs
both LOO-CV strategies, so the whole module takes on the order of a
quarter hour on one core.
"""

import json
import math
import time

import numpy as np
import pytest

from sproutcast.cli import main
from sproutcast.config import PipelineConfig
from sproutcast.estimate import WindowEstimate, aggregate, window_estimates
from sproutcast.evaluate import (
    FoldResult,
    calibration_curves,
    compute_metrics,
    loo_cv,
    variance_decomposition,
)
from sproutcast.features import build_dataset, extract_scale_features
from sproutcast.preprocess import SignalWindow
from sproutcast.regress import (
    RegressorSpec,
    T_CRIT_975_DF9,
    ensemble_predict,
    fit,
    fit_ensemble,
    predict,
    predict_matrix,
    save_model,
)
from sproutcast.synth import SynthConfig, iter_recordings
from sproutcast.wavelet import cwt, cwt_direct, plan_scales

from conftest import constant_model, make_examples
from test_estimate import spread_ensemble, fv as feature_stub
from test_evaluate import oracle_fold


def report_pass(n, message):
    print(f"PASS criterion {n}: {message}")


def test_criterion_01_cwt_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        w = int(rng.integers(32, 1025))
        k = int(rng.integers(2, 7))
        x = rng.normal(size=w) * rng.uniform(0.1, 10.0)
        plan = plan_scales(1.0, w, k=k)
        window = SignalWindow("acc", 1, 0, x)
        fast = cwt(window, plan).coefficients
        slow = cwt_direct(window, plan).coefficients
        ref = np.maximum(np.abs(slow).max(axis=1, keepdims=True), 1e-300)
        worst = max(worst, float((np.abs(fast - slow) / ref).max()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-6, f"worst relative error {worst:.2e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report_pass(1, f"200 windows, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_tone_localization():
    t0 = time.monotonic()
    w = 4096
    plan = plan_scales(1.0, w, k=8)
    t = np.arange(w)
    hits = []
    for k, f in enumerate(plan.frequencies_hz):
        tone = np.cos(2 * np.pi * f * t)
        tw = cwt(SignalWindow("acc", 1, 0, tone), plan)
        best = int(np.argmax(tw.coefficients.mean(axis=1)))
        assert abs(best - k) <= 1, f"tone at scale {k} localized at {best}"
        hits.append(best)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report_pass(2, f"8 tones localized at {hits}, {elapsed:.1f}s")


def test_criterion_03_feature_invariants():
    rng = np.random.default_rng(77)
    t0 = time.monotonic()
    for _ in range(10_000):
        n = int(rng.integers(2, 120))
        x = rng.normal(size=n) * rng.uniform(1e-3, 1e3)
        f = extract_scale_features(x)
        assert f.min <= f.p5 <= f.p25 <= f.median <= f.p75 <= f.p95 <= f.max
        assert f.energy == pytest.approx(float(np.sum(x * x)), rel=1e-9)
        scaled = extract_scale_features(2.5 * x)
        assert (f.zero_crossings, f.mean_crossings) == (scaled.zero_crossings, scaled.mean_crossings)
    assert extract_scale_features(np.full(50, 4.2)).entropy == 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report_pass(3, f"10^4 windows fuzzed, {elapsed:.1f}s")


def test_criterion_04_regressor_sanity(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(500, 1))
    y = 2.0 * x[:, 0]
    spec = RegressorSpec(n_trees=200, max_depth=3, learning_rate=0.1, seed=5)
    model = fit(make_examples(x, y), spec)
    mae = float(np.mean(np.abs(predict_matrix(model, x) - y)))
    assert mae < 0.1 * y.std(), f"training MAE {mae:.4f} vs bound {0.1 * y.std():.4f}"

    const = fit(make_examples(rng.normal(size=(40, 3)), np.full(40, 12.0)), RegressorSpec(n_trees=30, seed=1))
    assert all(predict(const, row) == 12.0 for row in rng.normal(size=(10, 3)))

    examples = make_examples(x, y)
    p1 = save_model(fit(examples, spec), tmp_path / "m1.json")
    p2 = save_model(fit(examples, spec), tmp_path / "m2.json")
    assert p1.read_bytes() == p2.read_bytes()
    report_pass(4, f"linear-fit MAE {mae:.4f}, constant exact, model files bit-identical")


def test_criterion_05_ensemble_uq_contracts(rng):
    x = rng.normal(size=(103, 4))
    y = x[:, 0] * 3.0
    ens = fit_ensemble(make_examples(x, y), RegressorSpec(n_trees=10, min_samples_leaf=2, seed=3), seed=3)
    sizes = np.bincount(ens.subset_assignment, minlength=10)
    assert sizes.sum() == 103 and sizes.max() - sizes.min() <= 1

    flat = spread_ensemble([20.0] * 10)
    assert ensemble_predict(flat, np.zeros(2)) == (20.0, 0.0)

    hand = spread_ensemble([18, 19, 20, 21, 22, 18, 19, 20, 21, 22])
    mean, half = ensemble_predict(hand, np.zeros(2))
    expected = T_CRIT_975_DF9 * math.sqrt(20.0 / 9.0) / math.sqrt(10.0)
    assert mean == pytest.approx(20.0, abs=1e-9)
    assert half == pytest.approx(expected, abs=1e-6)

    noisy = spread_ensemble(list(rng.normal(30, 4, 10)))
    features = [feature_stub(d) for d in range(25)]
    previous = set()
    for th in (0.5, 2.0, 5.0, 12.0, math.inf):
        kept = {e.window_index for e in window_estimates(noisy, features, uq_th=th) if e.retained}
        assert previous <= kept
        previous = kept
    infinite = window_estimates(noisy, features, uq_th=math.inf)
    assert all(e.retained for e in infinite)
    mean_only = window_estimates(constant_model(float(np.mean([m.base_prediction for m in noisy.members])), 2), features)
    assert [e.d_hat for e in infinite] == pytest.approx([e.d_hat for e in mean_only])
    report_pass(5, f"partition {sizes.tolist()}, t-interval {half:.6f} vs {expected:.6f}, monotone retention")


def test_criterion_06_estimator_identities():
    d_true = 37
    perfect = [
        WindowEstimate("s", d + 1, d, float(d_true - d), float(d_true), None, True) for d in range(d_true)
    ]
    assert all(e.d_hat == d_true for e in perfect)
    agg = aggregate(perfect, observation_day=d_true)
    assert agg.d_hat == d_true and abs(agg.d_hat - d_true) == 0.0

    spread = [WindowEstimate("s", d + 1, d, 0.0, float(10 + 7 * d), 1.0, True) for d in range(5)]
    agg = aggregate(spread, observation_day=10)
    values = [e.d_hat for e in spread]
    assert min(values) <= agg.d_hat <= max(values)

    discarded = [
        WindowEstimate("s", d + 1, d, 0.0, float(20 + d), ci, False)
        for d, ci in enumerate([5.0, 3.0, 9.0])
    ]
    agg = aggregate(discarded, observation_day=10)
    assert agg.fallback_used and agg.d_hat == 21.0 and agg.n_windows_used == 1
    report_pass(6, "perfect predictor exact, aggregation bounded, fallback flagged")


def test_criterion_07_loo_leakage_and_two_level_mae():
    rate = 1 / 864
    rng = np.random.default_rng(3)
    from conftest import make_recording

    recs = []
    for i, days in enumerate([10, 14, 18, 11]):
        samples = rng.normal(size=int(days * 86400 * rate)) * (1 + np.linspace(0, 1, int(days * 86400 * rate)))
        recs.append(make_recording(f"s{i}", days=days, rate=rate, samples=samples, sprout_day=days))
    cfg = PipelineConfig(target_hz=rate, scales=4, n_trees=10, max_depth=2, learning_rate=0.3, seed=0)
    example_set = build_dataset(recs, cfg)
    folds = loo_cv(example_set, cfg)
    _, _, groups = example_set.matrix()
    ids = example_set.subject_ids()
    for j, fold in enumerate(folds):
        assert fold.held_out_subject == ids[j]
        assert fold.held_out_subject not in {ids[g] for g in set(groups[groups != j])}
        assert len(fold.window_estimates) == int((groups == j).sum())

    from test_evaluate import manual_fold

    fixture = [manual_fold("a", 10, [1.0, -2.0, 3.0]), manual_fold("b", 5, [10.0])]
    report = compute_metrics(fixture)
    assert report.mae == pytest.approx(6.0)
    assert report.mae != pytest.approx(4.0)
    report_pass(7, "no held-out windows in training; two-level MAE = 6.0 on unequal-M fixture")


def test_criterion_08_calibration_identities(rng):
    folds = [oracle_fold(f"s{i}", 18 + 3 * i) for i in range(4)]
    table = calibration_curves(folds, bin_width=1.0, rolling_n=1)
    for row in table["bins"]:
        assert abs(row["e_y"] - row["y_hat_center"]) <= 0.5 + 1e-12
        assert row["std_y"] == pytest.approx(0.0, abs=1e-12)

    from test_evaluate import FoldResult, SubjectEstimate

    d_true = 16
    y_mean = float(np.mean([d_true - d for d in range(d_true)]))
    const_estimates = [
        WindowEstimate("c", d + 1, d, y_mean, d + y_mean, None, True) for d in range(d_true)
    ]
    const_fold = FoldResult(
        held_out_subject="c",
        window_estimates=const_estimates,
        subject_estimate=SubjectEstimate("c", d_true - 0.0, d_true, False),
        mae_j=0.0,
        esd_j=0.0,
        baseline_mae_j=0.0,
        true_day=d_true,
    )
    const_table = calibration_curves([const_fold], bin_width=5.0, rolling_n=7)
    assert len(const_table["bins"]) == 1
    assert const_table["bins"][0]["e_y"] == pytest.approx(y_mean)

    y = rng.integers(0, 60, 800).astype(float)
    exact = variance_decomposition(y, y, bin_width=None)
    gap = exact["var_y"] - exact["var_y_hat"] - exact["e_var_y_given_y_hat"]
    assert abs(gap) <= 1e-6 * exact["var_y"]
    binned = variance_decomposition(y, y, bin_width=5.0)
    gap_b = binned["var_y"] - binned["var_y_hat"] - binned["e_var_y_given_y_hat"]
    assert abs(gap_b) <= 0.05 * binned["var_y"]
    report_pass(
        8,
        f"oracle bins exact, constant predictor single bin at {y_mean:.2f}, "
        f"variance identity gaps {gap:.2e} / {abs(gap_b) / binned['var_y']:.2%}",
    )


ACCEPT_REGRESSOR = dict(n_trees=60, max_depth=3, learning_rate=0.15, subsample=0.8, min_samples_leaf=5)


@pytest.mark.slow
def test_criterion_09_end_to_end_synthetic():
    t0 = time.monotonic()
    strong = SynthConfig()  # 64 subjects, 40-80 days, 1 Hz, onset 20, gain >> noise, seed 7
    cfg_single = PipelineConfig(strategy="single", seed=11, **ACCEPT_REGRESSOR)
    example_set = build_dataset(iter_recordings(strong), cfg_single)
    build_s = time.monotonic() - t0
    assert len(example_set.m_per_subject) == 64

    single_folds = loo_cv(example_set, cfg_single)
    report_single = compute_metrics(single_folds, cfg_single)

    cfg_ens = PipelineConfig(strategy="ensemble", uq_th=8.0, seed=11, **ACCEPT_REGRESSOR)
    ens_folds = loo_cv(example_set, cfg_ens)
    report_ens = compute_metrics(ens_folds, cfg_ens)
    elapsed = time.monotonic() - t0
    assert elapsed < 1200.0, f"strong-signature run took {elapsed:.0f}s"
    assert report_single.esd <= 5.0, f"single ESD {report_single.esd:.2f}"
    assert report_ens.esd <= 5.0, f"ensemble ESD {report_ens.esd:.2f}"
    assert report_single.mae < report_single.baseline_mae, "planted signal must beat baseline"

    lag = {row["t_lag"]: row["mean_esd"] for row in report_single.tlag_curve}
    assert lag[0] < lag[-29], f"t_lag trend violated: {lag[-29]:.2f} -> {lag[0]:.2f}"

    null_cfg = SynthConfig(n_subjects=24, days_min=40, days_max=60, signature_gain=0.0)
    null_set = build_dataset(iter_recordings(null_cfg), cfg_single)
    null_report = compute_metrics(loo_cv(null_set, cfg_single), cfg_single)
    improvement = (null_report.baseline_mae - null_report.mae) / null_report.baseline_mae
    assert improvement <= 0.15, f"null model beat baseline by {improvement:.1%}"

    report_pass(
        9,
        f"ESD single {report_single.esd:.2f} / ensemble {report_ens.esd:.2f} (<= 5), "
        f"t_lag {lag[-29]:.2f}->{lag[0]:.2f}, null improvement {improvement:+.1%} (<= 15%), "
        f"strong run {elapsed:.0f}s (features {build_s:.0f}s)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    rate = 1 / 96
    data = tmp_path / "data"
    assert (
        main(
            [
                "synth",
                "--out", str(data),
                "--subjects", "4",
                "--days-min", "12",
                "--days-max", "15",
                "--rate", repr(rate),
                "--band-low", "0.0008",
                "--band-high", "0.004",
                "--seed", "9",
            ]
        )
        == 0
    )
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        f"[preprocess]\ntarget_hz = {rate!r}\n[wavelet]\nscales = 4\n"
        "[regress]\nn_trees = 8\nmax_depth = 2\nlearning_rate = 0.3\nmin_samples_leaf = 2\n"
    )
    reports = []
    models = []
    for tag in ("a", "b"):
        rpath = tmp_path / f"report_{tag}.json"
        mpath = tmp_path / f"model_{tag}.json"
        assert (
            main(
                [
                    "evaluate",
                    "--manifest", str(data / "manifest.json"),
                    "--out", str(rpath),
                    "--config", str(cfg),
                    "--seed", "4",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "train",
                    "--manifest", str(data / "manifest.json"),
                    "--model-out", str(mpath),
                    "--config", str(cfg),
                    "--seed", "4",
                ]
            )
            == 0
        )
        reports.append(rpath.read_bytes())
        models.append(mpath.read_bytes())
    assert reports[0] == reports[1]
    assert models[0] == models[1]
    json.loads(reports[0])  # parses as JSON
    report_pass(10, "repeated runs: report.json and model files byte-identical")
