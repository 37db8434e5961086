"""Golden run: headline results and the model file of one small CLI run.

A change to the split search, the features or the estimator that moves any
of these values is a re-baseline: update the pins on purpose and record
the old and new values in CHANGES.md.
"""

import hashlib
import json

import pytest

from sproutcast.cli import main

RATE = 1 / 96

# (MAE, ESD) in days, from `evaluate --strategy {single,ensemble}`
GOLDEN_REPORTS = {
    "single": (3.6516038228592445, 2.6606797463101546),
    "ensemble": (3.7425848342603834, 0.783521257525726),
}
# sha256 of the model file written by `train --strategy single`
GOLDEN_MODEL_SHA256 = "25dcdc5e6d0bd28172a35de61e270ef5796a4c78a0d826a539fe23eb2c346a02"


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden")
    data = base / "data"
    assert main(["synth", "--out", str(data), "--subjects", "4", "--days-min", "12", "--days-max", "16",
                 "--rate", repr(RATE), "--band-low", "0.0008", "--band-high", "0.004", "--seed", "3"]) == 0
    ini = base / "pipeline.ini"
    ini.write_text(
        f"[preprocess]\ntarget_hz = {RATE!r}\n[wavelet]\nscales = 4\n"
        "[regress]\nn_trees = 8\nmax_depth = 3\nlearning_rate = 0.3\nmin_samples_leaf = 2\n"
    )
    return base, ["--manifest", str(data / "manifest.json"), "--config", str(ini), "--seed", "5"]


@pytest.mark.parametrize("strategy", ["single", "ensemble"])
def test_golden_headline(strategy, golden_corpus):
    base, flags = golden_corpus
    out = base / f"report_{strategy}.json"
    uq = ["--uq-th", "8"] if strategy == "ensemble" else []
    assert main(["evaluate", "--out", str(out), "--strategy", strategy, *uq, *flags]) == 0
    report = json.loads(out.read_text())
    assert (report["mae"], report["esd"]) == GOLDEN_REPORTS[strategy]


def test_golden_model_file(golden_corpus):
    base, flags = golden_corpus
    model = base / "model.json"
    assert main(["train", "--model-out", str(model), *flags]) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == GOLDEN_MODEL_SHA256
