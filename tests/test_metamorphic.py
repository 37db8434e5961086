"""Metamorphic relations of the whole pipeline: an input changed in a way
that must not matter leaves the output byte for byte the same.

Order: the subjects of a manifest are read one at a time in manifest
order, while the example rows, the folds and the report are ordered by
subject id, so a manifest in reverse order gives the same report.

Gain: multiplying every voltage by a power of two is exact in floating
point, and it scales every float the pipeline makes from the voltages by
the same power: the conditioned samples, the FFT and |CWT|, the sorted
rows, percentiles, histogram edges and split thresholds.  The features
the booster sees (order statistics, counts, entropy) split the rows the
same way, so the report is the same.

Calendar: every day the pipeline uses is an offset from a recording's
start day, so moving every start_day and sprouting_day by the same number
of days gives the same report.

No look-ahead: an estimate at observation day t uses only the windows of
days before t, so predicting with ``--observe-day t`` on whole recordings
gives what predicting on the same recordings cut after day t gives.
"""

import json
from datetime import date, timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sproutcast.cli import main
from sproutcast.ingest import read_signal_csv, write_signal_csv

RATE = 1 / 96  # 900 samples per day


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("metamorphic")
    data = base / "data"
    assert main(["synth", "--out", str(data), "--subjects", "6", "--days-min", "20", "--days-max", "30",
                 "--rate", repr(RATE), "--band-low", "0.0008", "--band-high", "0.004", "--seed", "9"]) == 0
    ini = base / "pipeline.ini"
    ini.write_text(
        f"[preprocess]\ntarget_hz = {RATE!r}\n[wavelet]\nscales = 4\n"
        "[regress]\nn_trees = 20\nmax_depth = 3\nmin_samples_leaf = 2\n"
    )
    return base, data / "manifest.json", ini


STRATEGIES = [["single"], ["ensemble", "--uq-th", "8"]]


def _evaluate(base, manifest, ini, strategy, name):
    out = base / f"{strategy[0]}-{name}" / "report.json"
    flags = ["--manifest", str(manifest), "--config", str(ini), "--seed", "4", "--out", str(out)]
    assert main(["evaluate", *flags, "--strategy", *strategy]) == 0
    return out.read_bytes()


def _reversed(manifest):
    payload = json.loads(manifest.read_text())
    payload["subjects"].reverse()
    path = manifest.with_name("reversed.json")
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("strategy", STRATEGIES, ids=["single", "ensemble"])
def test_reversing_the_manifest_keeps_the_report(strategy, corpus):
    base, manifest, ini = corpus
    reports = [_evaluate(base, path, ini, strategy, str(i)) for i, path in enumerate([manifest, _reversed(manifest)])]
    assert reports[0] == reports[1]


def _gained(manifest, k):
    """The corpus with every voltage times 2**k, in CSVs of its own beside the manifest."""
    payload = json.loads(manifest.read_text())
    for entry in payload["subjects"]:
        samples = read_signal_csv(manifest.parent / entry["signal_path"])
        entry["signal_path"] = f"gain{k}-{entry['signal_path']}"
        write_signal_csv(manifest.parent / entry["signal_path"], samples * 2.0**k, entry["sample_rate_hz"])
    path = manifest.with_name(f"gain{k}.json")
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("strategy", STRATEGIES, ids=["single", "ensemble"])
def test_a_power_of_two_gain_keeps_the_report(strategy, corpus):
    base, manifest, ini = corpus
    unscaled = _evaluate(base, manifest, ini, strategy, "unscaled")

    @settings(max_examples=3, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(k=st.integers(-4, 4).filter(bool))
    def gain_keeps_the_report(k):
        gained = manifest.with_name(f"gain{k}.json")
        if not gained.exists():
            gained = _gained(manifest, k)
        assert _evaluate(base, gained, ini, strategy, f"gain{k}") == unscaled, f"gain 2**{k}"

    gain_keeps_the_report()


def _shifted(manifest, days):
    """The corpus with every start_day and sprouting_day moved by ``days``, on the same CSVs."""
    payload = json.loads(manifest.read_text())
    for entry in payload["subjects"]:
        for key in ("start_day", "sprouting_day"):
            entry[key] = (date.fromisoformat(entry[key]) + timedelta(days=days)).isoformat()
    path = manifest.with_name(f"shift{days}.json")
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("strategy", STRATEGIES, ids=["single", "ensemble"])
def test_a_calendar_shift_keeps_the_report(strategy, corpus):
    base, manifest, ini = corpus
    unshifted = _evaluate(base, manifest, ini, strategy, "unshifted")

    @settings(max_examples=3, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(days=st.integers(-400, 400).filter(bool))
    @example(days=2)  # one weekday on: a target read off the calendar changes
    def shift_keeps_the_report(days):
        assert _evaluate(base, _shifted(manifest, days), ini, strategy, f"shift{days}") == unshifted, f"{days} days"

    shift_keeps_the_report()


def test_predicting_at_a_day_ignores_the_days_after_it(corpus):
    base, manifest, ini = corpus
    model = base / "ensemble.json"
    flags = ["--config", str(ini), "--seed", "4", "--uq-th", "8"]
    assert main(["train", "--manifest", str(manifest), *flags, "--strategy", "ensemble", "--model-out", str(model)]) == 0
    # an unlabelled copy of the manifest, and one of its recordings cut to 8 days and 17 samples
    payload = json.loads(manifest.read_text())
    for entry in payload["subjects"]:
        del entry["sprouting_day"]
    unlabelled = manifest.with_name("unlabelled.json")
    unlabelled.write_text(json.dumps(payload))
    for entry in payload["subjects"]:
        samples = read_signal_csv(manifest.parent / entry["signal_path"])
        entry["signal_path"] = f"cut-{entry['signal_path']}"
        write_signal_csv(manifest.parent / entry["signal_path"], samples[: 8 * 900 + 17], entry["sample_rate_hz"])
    cut = manifest.with_name("cut.json")
    cut.write_text(json.dumps(payload))
    runs = [(unlabelled, ["--observe-day", "8"]), (cut, [])]
    outs = []
    for i, (path, observe) in enumerate(runs):
        outs.append(base / f"predictions{i}.json")
        argv = ["predict", "--manifest", str(path), "--model", str(model), *flags, *observe]
        assert main([*argv, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
