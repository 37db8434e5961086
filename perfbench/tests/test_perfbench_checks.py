"""Tests of the benchmark's own output checks.

    python3 -m pytest perfbench/tests -q              # ~1 min
    PERFBENCH_SLOW=1 python3 -m pytest perfbench/tests -q   # adds full workload runs, ~8 min

A tiny corpus (1/96 Hz, 7 subjects) goes through the same set-up, round
and traced predict that ``run.py`` uses, for three seeds.  Every check must
pass on those outputs and must reject each corrupted copy.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402

TINY = run.Workload(
    why="test",
    rate_hz=1 / 96,
    n_train=5,
    n_target=2,
    days_min=12,
    days_max=15,
    synth_flags=("--band-low", "0.0008", "--band-high", "0.004"),
    min_samples_leaf=2,
    esd_bound=None,
    predict_bound=15.0,
    predict_mean_bound=None,
    round_order=("setup", *run.COMMANDS),
)


@pytest.fixture(scope="module", params=[7, 1, 2])
def tiny(request, tmp_path_factory):
    seed = request.param
    work = tmp_path_factory.mktemp(f"tiny{seed}")
    runner = run.Runner(ROOT, time.monotonic() + 300)
    run.setup(runner, TINY, seed, work / "corpus")
    commands = run.round_commands(work / "corpus", work / "out")
    _, _, failed = run.run_round(runner, commands, work / "out")
    assert not failed
    capture = work / "capture.json"
    _, _, rc = runner.run(run.traced(work / "spans.json", commands["predict"], capture), work / "traced-predict")
    assert rc == 0
    fails, info = run.check_corpus(TINY, seed, work / "corpus")
    assert fails == []
    return {
        "work": work,
        "seed": seed,
        "info": info,
        "out": work / "out",
        "captures": json.loads(capture.read_text()),
        "spans": json.loads((work / "spans.json").read_text()),
    }


def _load(tiny, name):
    return json.loads((tiny["out"] / run.OUTPUT_FILES[name]).read_text())


def _predict_fails(tiny, rows=None, model=None, bound=None):
    info = tiny["info"]
    return checks.check_predictions(
        rows if rows is not None else _load(tiny, "predict"),
        model if model is not None else _load(tiny, "train"),
        info["target_features"],
        info["start"],
        info["truth_target"],
        run.UQ_TH,
        TINY.predict_bound if bound is None else bound,
    )


def _report_fails(tiny, report, strategy="single"):
    truth = tiny["info"]["truth_train"]
    return checks.check_report(report, truth, dict(truth), strategy, None)


# ---------------------------------------------------------------- passing


def test_every_check_passes(tiny):
    assert run.check_outputs(TINY, tiny["out"], tiny["info"]) == []
    assert run.check_captures(tiny["captures"], tiny["info"]) == []


def test_layer_metrics_cover_the_traced_predict(tiny):
    metrics = run.tracer.layer_metrics([tiny["spans"]])
    assert metrics["ingest.samples"][0] == sum(len(s) for s in tiny["info"]["target_samples"].values())
    assert metrics["wavelet.cwt_s"][0] > 0
    assert metrics["regress.predict_rows"][0] == sum(len(f) for f in tiny["info"]["target_features"].values())
    assert metrics["estimate.aggregate_calls"][0] == TINY.n_target


# ---------------------------------------------------------------- rejects


def test_perturbed_d_hat_rejected(tiny):
    rows = _load(tiny, "predict")
    rows[0]["d_hat_day_offset"] += 1e-6
    assert any("d_hat" in f for f in _predict_fails(tiny, rows=rows))


def test_swapped_tree_child_rejected(tiny):
    model = _load(tiny, "train")
    for member in model["members"]:
        tree = member["trees"][0]
        tree["left"][0], tree["right"][0] = tree["right"][0], tree["left"][0]
    assert _predict_fails(tiny) == []
    assert any("recomputed" in f for f in _predict_fails(tiny, model=model))


def test_error_bounds_reject(tiny):
    assert any("withheld truth" in f for f in _predict_fails(tiny, bound=1e-9))
    info = tiny["info"]
    rows, model = _load(tiny, "predict"), _load(tiny, "train")
    fails = checks.check_predictions(
        rows, model, info["target_features"], info["start"], info["truth_target"], run.UQ_TH, 100.0, 1e-9
    )
    assert any("mean error" in f for f in fails)


def test_shifted_coefficient_rejected(tiny):
    cap = next(c for c in tiny["captures"] if c["kind"] == "cwt")
    info = tiny["info"]
    w = TINY.window_len
    window = info["target_samples"][cap["subject_id"]][cap["day"] * w : (cap["day"] + 1) * w]
    values = np.array(cap["values"])
    assert checks.compare_cwt(values, window, info["scales"], cap["positions"], "ok") == []
    shifted = np.roll(values, 1, axis=1)
    assert checks.compare_cwt(shifted, window, info["scales"], cap["positions"], "shifted")
    nudged = values.copy()
    nudged[3, 2] *= 1 + 1e-6
    assert checks.compare_cwt(nudged, window, info["scales"], cap["positions"], "nudged")


def test_changed_statistic_rejected(tiny):
    cap = next(c for c in tiny["captures"] if c["kind"] == "features")
    own = tiny["info"]["target_features"][cap["subject_id"]][cap["day"]]
    for index in (2, 10, 12):  # p25, entropy, mean crossings of scale 0
        values = list(cap["values"])
        values[index] += 1.0 if index == 12 else abs(values[index]) * 1e-6 + 1e-9
        assert checks.compare_features(values, own, "changed"), index


@pytest.mark.parametrize("key", ["mae", "esd", "baseline_mae"])
def test_wrong_headline_mean_rejected(tiny, key):
    report = _load(tiny, "evaluate_single")
    assert _report_fails(tiny, report) == []
    report[key] += 1e-6
    assert any(f"headline {key}" in f for f in _report_fails(tiny, report))


def test_wrong_true_day_and_window_count_rejected(tiny):
    report = _load(tiny, "evaluate_ensemble")
    bad = copy.deepcopy(report)
    bad["per_subject"][0]["true_day"] += 1
    assert any("true_day" in f for f in _report_fails(tiny, bad, "ensemble"))
    bad = copy.deepcopy(report)
    bad["per_subject"][0]["n_windows_used"] = 0
    assert any("n_windows_used" in f for f in _report_fails(tiny, bad, "ensemble"))


def test_bad_esd_curve_rejected(tiny):
    report = _load(tiny, "evaluate_single")
    bad = copy.deepcopy(report)
    bad["esd_percentiles"][50][1] = bad["esd_percentiles"][60][1] + 1.0
    assert any("monotone" in f for f in _report_fails(tiny, bad))
    bad = copy.deepcopy(report)
    bad["esd_percentiles"][100][1] += 1.0
    assert any("min/max" in f for f in _report_fails(tiny, bad))


def test_criterion_bound_rejects(tiny):
    report = _load(tiny, "evaluate_single")
    truth = tiny["info"]["truth_train"]
    assert any("ESD" in f for f in checks.check_report(report, truth, dict(truth), "single", esd_bound=0.0))


def test_csv_text_that_does_not_round_trip_rejected(tiny):
    info = tiny["info"]
    sid = next(iter(info["truth_train"]))
    lines = checks.read_csv_lines(tiny["work"] / "corpus" / f"{sid}.csv")
    rows = np.arange(10)
    assert checks.check_csv(lines, TINY.rate_hz, info["truth_train"][sid], rows, sid) == []
    bad = list(lines)
    elapsed, volts = bad[4].split(",")
    bad[4] = f"{elapsed},{float(volts):.6g}"
    assert checks.check_csv(bad, TINY.rate_hz, info["truth_train"][sid], rows, sid)
    assert checks.check_csv(lines[:-1], TINY.rate_hz, info["truth_train"][sid], rows, sid)


def test_model_shape_check_rejects(tiny):
    model = _load(tiny, "train")
    assert checks.check_model(model, "ensemble", 60, 3, 112) == []
    model["members"].pop()
    assert checks.check_model(model, "ensemble", 60, 3, 112)


# ------------------------------------------------- independent code itself


def test_own_features_match_the_program_on_random_series():
    from sproutcast.features import _feature_row

    rng = np.random.default_rng(0)
    for x in (rng.normal(size=999), np.abs(rng.normal(size=1000)), np.repeat(rng.normal(size=50), 20)):
        assert checks.compare_features(_feature_row(x, 64), checks.stats14(x, 64), "random") == []


def test_own_fft_transform_matches_direct_sum():
    rng = np.random.default_rng(1)
    x = rng.normal(size=900)
    scales = checks.scale_plan(1 / 96, 900)
    coeffs = checks.cwt_fft(x, checks.morlet_ffts(900, scales))
    positions = [0, 1, 449, 899]
    assert checks.compare_cwt(coeffs[:, positions], x, scales, positions, "fft") == []


def test_synth_truth_matches_the_program():
    from sproutcast.synth import SynthConfig, generate_recording

    cfg = SynthConfig(n_subjects=5, days_min=3, days_max=9, sample_rate_hz=1 / 96, signature_band_hz=(0.0008, 0.004), seed=13)
    drawn = checks.synth_truth(13, 5, 3, 9)
    assert drawn == [generate_recording(cfg, i).sprouting_day_offset for i in range(5)]


# ------------------------------------------------------- full workloads


@pytest.mark.skipif(not os.environ.get("PERFBENCH_SLOW"), reason="set PERFBENCH_SLOW=1 for full workload runs")
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_workload_passes_on_other_seeds(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
