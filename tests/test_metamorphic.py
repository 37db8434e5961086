"""Metamorphic relations of the whole pipeline: an input changed in a way
that must not matter leaves the output byte for byte the same.

Order: the subjects of a manifest are read one at a time in manifest
order, while the example rows, the folds and the report are ordered by
subject id, so a manifest in reverse order gives the same report.
"""

import json

import pytest

from sproutcast.cli import main

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


def _reversed(manifest):
    payload = json.loads(manifest.read_text())
    payload["subjects"].reverse()
    path = manifest.with_name("reversed.json")
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("strategy", [["single"], ["ensemble", "--uq-th", "8"]], ids=["single", "ensemble"])
def test_reversing_the_manifest_keeps_the_report(strategy, corpus):
    base, manifest, ini = corpus
    reports = []
    for i, path in enumerate([manifest, _reversed(manifest)]):
        out = base / f"{strategy[0]}-{i}" / "report.json"
        flags = ["--manifest", str(path), "--config", str(ini), "--seed", "4", "--out", str(out)]
        assert main(["evaluate", *flags, "--strategy", *strategy]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
