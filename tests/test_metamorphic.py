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
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
