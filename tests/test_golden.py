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
# ... and by `train --strategy ensemble --uq-th 8`, whose members each fit a
# few rows: a split-search path the single model does not reach
GOLDEN_ENSEMBLE_MODEL_SHA256 = "5573d49d5ad87db84d5012dceaf6abbe6aca2f5e4e3e42da739173496c190640"
# sha256 of each file of the corpus `synth` writes: a change to the CSV
# writer or its sidecar shows here even if the reader changed with it
GOLDEN_CORPUS_SHA256 = {
    "manifest.json": "208597590d7e3fb28d86bca099af6f85044c2f1acb996f397f8e53789ad686ff",
    "p000.csv": "baf3bcb6157ba1d5439db68cf0d4511e99bced54c8c7512cc9fef59b27feca34",
    "p000.csv.f8": "fec68bc932c2c6c8fa5f2530866e4d747cf9b0fec86dde8dd296ce1ba083016d",
    "p001.csv": "0aaacbf238073ab88107a8f74380fd876ba718b48788ecda89899c717ee7d2f9",
    "p001.csv.f8": "b710ecab827971fb1238915f1a487a5f041423b79eed8a2d92d2c44995d794d7",
    "p002.csv": "e6c9e62b6751ee0765ac556edea1206f663b6ae0b469222cc60a073a446adb35",
    "p002.csv.f8": "9b4a7ee2eb7a854ff7c9799dd7841420a99afd80302562a501e0f9a87a91ebe5",
    "p003.csv": "a54f1407593397cce62585bc1f73d6ecb6ff66f9c350593ca02a851094322b24",
    "p003.csv.f8": "b787aca43f3d34829977d143597f51bc0415fc32af40d123cbd0029bcae62237",
}


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


def test_golden_corpus_files(golden_corpus):
    data = golden_corpus[0] / "data"
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in data.iterdir() if p.name != "run_meta.json"}
    assert written == GOLDEN_CORPUS_SHA256


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


def test_golden_ensemble_model_file(golden_corpus):
    base, flags = golden_corpus
    model = base / "ensemble_model.json"
    assert main(["train", "--model-out", str(model), "--strategy", "ensemble", "--uq-th", "8", *flags]) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == GOLDEN_ENSEMBLE_MODEL_SHA256
