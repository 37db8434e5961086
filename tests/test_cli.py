import argparse
import contextlib
import dataclasses
import errno
import importlib.machinery
import importlib.util
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

from sproutcast import cli, features, ingest
from sproutcast.cli import build_parser, main
from sproutcast.config import ConfigError, PipelineConfig, load_config_file, resolve_config
from sproutcast.features import FEATURES_PER_SCALE, build_dataset
from sproutcast.ingest import write_signal_csv
from sproutcast.preprocess import condition, segment
from sproutcast.regress import RegressorSpec
from sproutcast.synth import SynthConfig
from sproutcast.wavelet import cwt, plan_scales

from conftest import interrupt_writes, make_recording, read_corpus, temp_files, write_corpus

RATE = 1 / 96  # 900 samples per day: fast but still a real multi-stage pipeline


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = main(
        [
            "synth",
            "--out", str(out),
            "--subjects", "4",
            "--days-min", "12",
            "--days-max", "16",
            "--rate", repr(RATE),
            "--band-low", "0.0008",
            "--band-high", "0.004",
            "--seed", "3",
        ]
    )
    assert code == 0
    return out


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text(
        "\n".join(
            [
                "[preprocess]",
                f"target_hz = {RATE!r}",
                "[wavelet]",
                "scales = 4",
                "[regress]",
                "n_trees = 10",
                "max_depth = 2",
                "learning_rate = 0.25",
                "min_samples_leaf = 2",
            ]
        )
    )
    return path


def test_synth_writes_manifest_and_run_meta(synth_dir):
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert len(manifest["subjects"]) == 4
    meta = json.loads((synth_dir / "run_meta.json").read_text())
    assert meta["command"] == "synth"
    assert meta["config"]["seed"] == 3


@pytest.mark.parametrize(
    "command", ["synth", "preprocess", "features", "train", "predict", "evaluate", "predict-no-out", "report"]
)
def test_run_meta_written_once_by_its_command(command, synth_dir, config_file, tmp_path):
    ini = str(config_file)
    model, report = tmp_path / "model" / "model.json", tmp_path / "report" / "r.json"
    data = tmp_path / "data-copy"  # preprocess writes beside its manifest
    shutil.copytree(synth_dir, data)
    (data / "run_meta.json").unlink()
    manifest = str(data / "manifest.json")
    if command.startswith("predict"):
        assert main(["train", "--manifest", manifest, "--model-out", str(model), "--config", ini]) == 0
    if command == "report":
        assert main(["evaluate", "--manifest", manifest, "--out", str(report), "--config", ini]) == 0
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--out", str(out), "--subjects", "2", "--days-min", "2", "--days-max", "2",
                  "--rate", repr(RATE), "--band-low", "0.0008", "--band-high", "0.004"],
        "preprocess": ["preprocess", "--manifest", manifest, "--config", ini],
        "features": ["features", "--manifest", manifest, "--out", str(out / "f.csv"), "--config", ini],
        "train": ["train", "--manifest", manifest, "--model-out", str(out / "m.json"), "--config", ini],
        "predict": ["predict", "--model", str(model), "--manifest", manifest, "--config", ini,
                    "--out", str(out / "p.json")],
        "evaluate": ["evaluate", "--manifest", manifest, "--out", str(out / "r.json"), "--config", ini],
        "predict-no-out": ["predict", "--model", str(model), "--manifest", manifest, "--config", ini],
        "report": ["report", "--report", str(report), "--curves-dir", str(out / "curves")],
    }[command]
    before = set(tmp_path.rglob("run_meta.json"))
    assert main(argv) == 0
    written = sorted(set(tmp_path.rglob("run_meta.json")) - before)
    if command in ("predict-no-out", "report"):
        assert written == []
        return
    assert len(written) == 1
    meta = json.loads(written[0].read_text())
    assert (meta["command"], meta["argv"]) == (argv[0], argv)
    assert set(meta["environment"]) == {"python", "numpy", "scipy", "platform", "cpu_count"}


def test_evaluate_end_to_end(synth_dir, config_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    curves = tmp_path / "curves"
    code = main(
        [
            "evaluate",
            "--manifest", str(synth_dir / "manifest.json"),
            "--out", str(report_path),
            "--curves-dir", str(curves),
            "--config", str(config_file),
            "--seed", "1",
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["n_subjects"] == 4
    assert report["mae"] >= 0
    assert (curves / "esd_percentiles.csv").exists()
    assert (curves / "tlag.csv").exists()
    assert (curves / "calibration.csv").exists()
    assert (tmp_path / "run_meta.json").exists()

    # the report viewer runs over the artifact
    capsys.readouterr()
    assert main(["report", "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "MAE" in out and "ESD" in out


def test_evaluate_byte_identical_reports(synth_dir, config_file, tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code = main(
            [
                "evaluate",
                "--manifest", str(synth_dir / "manifest.json"),
                "--out", str(path),
                "--config", str(config_file),
                "--seed", "5",
            ]
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_train_and_predict_flow(synth_dir, config_file, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code = main(
        [
            "train",
            "--manifest", str(synth_dir / "manifest.json"),
            "--model-out", str(model_path),
            "--config", str(config_file),
            "--seed", "2",
        ]
    )
    assert code == 0
    assert model_path.exists()
    capsys.readouterr()
    code = main(
        [
            "predict",
            "--model", str(model_path),
            "--manifest", str(synth_dir / "manifest.json"),
            "--config", str(config_file),
            "--observe-day", "10",
        ]
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 4
    row = json.loads(lines[0])
    assert set(row) == {"subject_id", "d_hat_day_offset", "estimated_date", "n_windows_used", "fallback_used"}


def test_train_models_bit_identical(synth_dir, config_file, tmp_path):
    blobs = []
    for name in ("m1.json", "m2.json"):
        path = tmp_path / name
        assert (
            main(
                [
                    "train",
                    "--manifest", str(synth_dir / "manifest.json"),
                    "--model-out", str(path),
                    "--config", str(config_file),
                    "--seed", "2",
                ]
            )
            == 0
        )
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_ensemble_requires_uq_th(synth_dir, tmp_path, capsys):
    code = main(
        [
            "train",
            "--manifest", str(synth_dir / "manifest.json"),
            "--model-out", str(tmp_path / "m.json"),
            "--strategy", "ensemble",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--uq-th" in err


def test_unknown_flag_exits_2(capsys):
    for argv in (["evaluate", "--nonsense"], ["train", "--manifest", "m.json", "--model-out", "m", "--strategy", "bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error[2]")


def test_missing_manifest_exits_4(tmp_path, capsys):
    code = main(
        ["evaluate", "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "r.json")]
    )
    assert code == 4
    assert capsys.readouterr().err.startswith("error[4]")


# each case: the command, with {data} for the corpus directory its outputs go to,
# the output path put in the way (relative to it), and whether a directory or a file is put there
_OUTPUTS_IN_THE_WAY = {
    "evaluate-out-is-a-directory": ("evaluate --out {data}/r.json", "r.json", "directory"),
    "train-model-out-under-a-file": ("train --model-out {data}/f/m.json", "f", "file"),
    "features-dump-scalogram-is-a-file": ("features --out {data}/f.csv --dump-scalogram {data}/s", "s", "file"),
    "preprocess-manifest-is-a-directory": ("preprocess", "manifest.conditioned.json", "directory"),
    "preprocess-csv-is-a-directory": ("preprocess", "p001.conditioned.csv", "directory"),
    # the manifest does not exist: the output must be refused before any input is read
    "curves-dir-is-a-file-and-no-manifest": (
        "evaluate --out {data}/r.json --curves-dir {data}/c --manifest {data}/missing.json", "c", "file"),
    # written after the work, so only the write's own error can report it
    "run-meta-is-a-directory": ("train --model-out {data}/m/m.json", "m/run_meta.json", "directory"),
}


@pytest.mark.parametrize("case", sorted(_OUTPUTS_IN_THE_WAY))
def test_output_in_the_way_exits_3(case, synth_dir, config_file, capsys):
    command, blocked, kind = _OUTPUTS_IN_THE_WAY[case]
    blocked = synth_dir / blocked
    if kind == "directory":
        blocked.mkdir(parents=True)
    else:
        blocked.write_text("")
    before = sorted(synth_dir.rglob("*"))
    argv = command.format(data=synth_dir).split()
    capsys.readouterr()
    code = main([argv[0], "--manifest", str(synth_dir / "manifest.json"), "--config", str(config_file), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error[3]: ") and str(blocked) in err
    if case != "run-meta-is-a-directory":
        assert sorted(synth_dir.rglob("*")) == before


def test_env_seed_fallback(synth_dir, config_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SPROUT_SEED", "777")
    model_path = tmp_path / "m.json"
    assert (
        main(
            [
                "train",
                "--manifest", str(synth_dir / "manifest.json"),
                "--model-out", str(model_path),
                "--config", str(config_file),
            ]
        )
        == 0
    )
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["config"]["seed"] == 777


def test_non_integer_env_seed_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPROUT_SEED", "7.5")
    code = main(["evaluate", "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert capsys.readouterr().err == "error[3]: SPROUT_SEED must be an integer\n"


def test_negative_env_seed_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPROUT_SEED", "-1")
    code = main(["evaluate", "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert capsys.readouterr().err == "error[3]: seed must be at least 0, got -1\n"


def test_synth_refuses_a_rate_whose_bursts_plant_nothing(tmp_path, capsys):
    out = tmp_path / "corpus"
    argv = ["synth", "--out", str(out), "--subjects", "2", "--rate", repr(1 / 3600),
            "--band-low", "0.00001", "--band-high", "0.0001", "--noise-std", "0", "--drift", "0"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error[3]: sample_rate_hz 0.0002777777777777778 gives a signature burst of 2 samples; "
        "a signature needs at least 3 (or signature_gain 0)\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_predict_rejects_layout_mismatch(synth_dir, config_file, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert (
        main(
            [
                "train",
                "--manifest", str(synth_dir / "manifest.json"),
                "--model-out", str(model_path),
                "--config", str(config_file),
            ]
        )
        == 0
    )
    # the manifest names a CSV that is not there: a mismatch must stop predict before any CSV is read
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    unreadable = synth_dir / "unreadable.json"
    unreadable.write_text(json.dumps(_first_subject(manifest, signal_path="missing.csv")))
    empty_layout = tmp_path / "empty-layout.json"
    empty_layout.write_text(json.dumps({**json.loads(model_path.read_text()), "feature_layout": ""}))
    # the layout is right but the width is one scale's worth too wide, so every tree still loads
    wrong_width = tmp_path / "wrong-width.json"
    trained = json.loads(model_path.read_text())
    wrong_width.write_text(json.dumps({**trained, "n_features": trained["n_features"] + FEATURES_PER_SCALE}))
    cases = ((model_path, ["--scales", "6"], "model layout "), (empty_layout, ["--time-domain"], "model layout "),
             (wrong_width, [], f"model width {trained['n_features'] + FEATURES_PER_SCALE} does not match "))
    for model, flags, message in cases:
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model), "--manifest", str(unreadable), "--config", str(config_file), *flags]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error[3]: {model}: {message}")


def test_preprocess_writes_conditioned_files(tmp_path):
    # 256 Hz input exercises the full notch/low-pass/decimate chain
    rng = np.random.default_rng(0)
    rec = make_recording("c0", rate=256.0, samples=rng.normal(size=256 * 120), sprout_day=1)
    manifest = write_corpus([rec], tmp_path / "raw", "chain")
    code = main(["preprocess", "--manifest", str(manifest), "--target-hz", "1"])
    assert code == 0
    conditioned = manifest.with_suffix(".conditioned.json")
    assert conditioned.exists()
    entry = json.loads(conditioned.read_text())["subjects"][0]
    assert entry["sample_rate_hz"] == 1.0
    out_csv = tmp_path / "raw" / entry["signal_path"]
    assert out_csv.name.endswith(".conditioned.csv")
    assert len(out_csv.read_text().splitlines()) == 120 + 1  # header + one row per second


def test_features_table(synth_dir, config_file, tmp_path):
    out = tmp_path / "features.csv"
    code = main(
        [
            "features",
            "--manifest", str(synth_dir / "manifest.json"),
            "--out", str(out),
            "--config", str(config_file),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["subject_id", "window_index", "day_offset", "target_days"]
    assert header[4] == "f_000"
    assert len(header) == 4 + 4 * 14  # scales=4 in the config file
    assert len(lines) > 40
    # every cell reads back as a float, bit for bit the dataset's feature matrix
    rows = [line.split(",") for line in lines[1:]]
    x = np.array([[float(c) for c in r[4:]] for r in rows])
    es = build_dataset(read_corpus(synth_dir / "manifest.json"), resolve_config(config_file))
    assert x.tobytes() == es.x.tobytes()
    assert np.array([float(r[3]) for r in rows]).tobytes() == es.y.tobytes()
    assert [(r[0], int(r[1]), int(r[2])) for r in rows] == [
        (fv.subject_id, fv.window_index, fv.day_offset) for fv in es.features
    ]


_MANIFEST_CORRUPTIONS = {
    "subjects-of-numbers": (lambda m: {**m, "subjects": [1]}, "subject entry 0"),
    "subjects-is-object": (lambda m: {**m, "subjects": {"a": 1}}, "'subjects' list"),
    "rate-is-null": (lambda m: _first_subject(m, sample_rate_hz=None), "'p000': invalid sample_rate_hz"),
    "path-is-number": (lambda m: _first_subject(m, signal_path=5), "'p000': invalid signal_path"),
    "id-is-list": (lambda m: _first_subject(m, id=["x"]), "['x']: invalid id"),
    "temp-is-text": (lambda m: _first_subject(m, storage_temp_c="warm"), "'p000': invalid storage_temp_c"),
    "temp-is-fractional": (lambda m: _first_subject(m, storage_temp_c=8.7), "'p000': invalid storage_temp_c"),
    "label-is-number": (lambda m: {**m, "label": 7}, "invalid label"),
    # an id names the subject's files and is a cell of the features CSV
    "id-is-empty": (lambda m: _first_subject(m, id=""), "subject '': id must"),
    "id-climbs-directories": (lambda m: _first_subject(m, id="../../escaped"), "'../../escaped': id must"),
    "id-has-backslash": (lambda m: _first_subject(m, id="a\\b"), "id must"),
    "id-has-comma": (lambda m: _first_subject(m, id="a,b"), "'a,b': id must"),
    "id-has-newline": (lambda m: _first_subject(m, id="a\nb"), "'a\\nb': id must"),
}


def _first_subject(manifest, **fields):
    return {**manifest, "subjects": [{**manifest["subjects"][0], **fields}, *manifest["subjects"][1:]]}


@pytest.mark.parametrize("case", sorted(_MANIFEST_CORRUPTIONS))
def test_malformed_manifest_exits_3(case, synth_dir, config_file, tmp_path, capsys):
    corrupt, named = _MANIFEST_CORRUPTIONS[case]
    bad = synth_dir / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads((synth_dir / "manifest.json").read_text()))))
    code = main(["features", "--manifest", str(bad), "--out", str(tmp_path / "f.csv"), "--config", str(config_file)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error[3]: {bad}") and named in err


def _set_signal_path(data, signal_path):
    (data / "sub").mkdir()  # a directory for the manifest to name
    manifest = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(json.dumps(_first_subject(manifest, signal_path=signal_path)))
    return data / signal_path


def _garble_signal(data, offset):
    csv = data / "p000.csv"
    raw = bytearray(csv.read_bytes())
    raw[offset] = 0xFF  # never valid in UTF-8
    csv.write_bytes(bytes(raw))
    return csv


def _empty_signal(data):
    csv = data / "p000.csv"
    csv.write_text("elapsed_seconds,voltage_volts\n")
    return csv


def _insert_row(data, row):
    """Put ``row`` after the first sample row of p000.csv, whose sidecar then no longer matches."""
    csv = data / "p000.csv"
    header, first, rest = csv.read_bytes().split(b"\n", 2)
    csv.write_bytes(b"\n".join([header, first, row, rest]))
    return csv


def _add_column(data):
    csv = data / "p000.csv"
    header, *rows = csv.read_text().splitlines()
    csv.write_text("\n".join([header, *(row + ",0" for row in rows)]) + "\n")
    return csv


# case -> corrupt(data dir), which returns the path the error must name
_UNREADABLE_SIGNALS = {
    "path-is-directory": lambda d: _set_signal_path(d, "sub"),
    "path-is-empty": lambda d: _set_signal_path(d, ""),
    "path-too-long": lambda d: _set_signal_path(d, "x" * 5000),
    "body-is-empty": _empty_signal,
    "header-not-utf8": lambda d: _garble_signal(d, 0),
    "row-not-utf8": lambda d: _garble_signal(d, -3),
    "comment-row": lambda d: _insert_row(d, b"# sensor rebooted"),
    "trailing-comment": lambda d: _insert_row(d, b"1.5,0.25 # x"),
    "three-columns": _add_column,
}


@pytest.mark.filterwarnings("error")  # a warning would print beside the one error line
@pytest.mark.parametrize("case", sorted(_UNREADABLE_SIGNALS))
def test_unreadable_signal_names_its_file(case, synth_dir, config_file, tmp_path, capsys):
    named = _UNREADABLE_SIGNALS[case](synth_dir)
    manifest = synth_dir / "manifest.json"
    code = main(["features", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv"), "--config", str(config_file)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error[3]: {named}: ")
    if case.endswith("not-utf8"):
        assert "not UTF-8 text (byte 0xff at offset " in err


@pytest.mark.parametrize("flag", ["--model", "--report"])
def test_non_json_file_names_itself(flag, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text('{"kind": ')
    if flag == "--model":  # the model is read before the manifest
        code = main(["predict", "--model", str(path), "--manifest", str(tmp_path / "missing.json")])
    else:
        code = main(["report", "--report", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error[3]: {path}: invalid JSON")


_BAD_CONFIG_FILES = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "not-utf8": lambda path: path.write_bytes(b"[wavelet]\nscales = 4\n# \xff\n"),
    "bare-percent-sign": lambda path: path.write_text("[train]\nstrategy = 5%\n"),
    "unknown-section": lambda path: path.write_text("[boosting]\nn_trees = 4\n"),
    "unknown-option": lambda path: path.write_text("[wavelet]\nn_trees = 4\n"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIG_FILES))
def test_bad_config_file_names_itself(case, tmp_path, capsys):
    path = tmp_path / "pipeline.ini"
    _BAD_CONFIG_FILES[case](path)
    # the manifest does not exist: the config file must be rejected before any input is read
    code = main(["features", "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "f.csv"),
                 "--config", str(path)])
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if case == "missing":
        assert code == 4 and err == f"error[4]: file not found: {path}\n"
    else:
        assert code == 3 and err.startswith(f"error[3]: {path}: ")
    if case == "not-utf8":
        assert "not UTF-8 text (byte 0xff at offset 23)" in err


def test_flag_overrides_config_file(synth_dir, config_file, tmp_path):
    model_path = tmp_path / "m.json"
    assert (
        main(
            [
                "train",
                "--manifest", str(synth_dir / "manifest.json"),
                "--model-out", str(model_path),
                "--config", str(config_file),
                "--n-trees", "12",
                "--seed", "0",
            ]
        )
        == 0
    )
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["config"]["n_trees"] == 12  # flag wins over the file's 10
    assert meta["config"]["max_depth"] == 2  # file wins over the default 4


def test_predict_accepts_unlabelled_evaluate_rejects(synth_dir, config_file, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert (
        main(
            [
                "train",
                "--manifest", str(synth_dir / "manifest.json"),
                "--model-out", str(model_path),
                "--config", str(config_file),
                "--seed", "2",
            ]
        )
        == 0
    )
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    for entry in manifest["subjects"]:
        entry.pop("sprouting_day", None)
    unlabelled = synth_dir / "unlabelled.json"
    unlabelled.write_text(json.dumps(manifest))

    capsys.readouterr()
    code = main(
        [
            "predict",
            "--model", str(model_path),
            "--manifest", str(unlabelled),
            "--config", str(config_file),
        ]
    )
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 4

    code = main(
        ["evaluate", "--manifest", str(unlabelled), "--out", str(tmp_path / "r.json"), "--config", str(config_file)]
    )
    assert code == 3
    assert "sprouting_day" in capsys.readouterr().err


def test_features_dump_scalogram(synth_dir, config_file, tmp_path):
    scalo_dir = tmp_path / "scalograms"
    code = main(
        [
            "features",
            "--manifest", str(synth_dir / "manifest.json"),
            "--out", str(tmp_path / "features.csv"),
            "--config", str(config_file),
            "--dump-scalogram", str(scalo_dir),
        ]
    )
    assert code == 0
    dumps = sorted(scalo_dir.glob("*.csv"))
    assert dumps and dumps[0].name.startswith("p000_w")
    first = np.loadtxt(dumps[0], delimiter=",")
    assert first.shape == (4, 900)  # scales x samples-per-window
    assert (first >= 0).all()


def test_dump_scalogram_writes_nothing_outside_its_directory(synth_dir, config_file, tmp_path, capsys):
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    bad = synth_dir / "escaping.json"
    bad.write_text(json.dumps(_first_subject(manifest, id="../../escaped")))
    out = tmp_path / "out"
    before = set(tmp_path.rglob("*"))
    code = main(
        ["features", "--manifest", str(bad), "--out", str(out / "f.csv"), "--dump-scalogram", str(out / "scal"),
         "--config", str(config_file)]
    )
    assert code == 3
    assert "'../../escaped': id must" in capsys.readouterr().err
    assert {p for p in tmp_path.rglob("*") if out not in p.parents} == before


def test_interrupted_features_keeps_the_old_table(synth_dir, config_file, tmp_path, monkeypatch):
    out = tmp_path / "f.csv"
    out.write_bytes(b"an earlier table\n")
    interrupt_writes(monkeypatch, cli)
    with pytest.raises(KeyboardInterrupt):
        main(["features", "--manifest", str(synth_dir / "manifest.json"), "--out", str(out), "--config", str(config_file)])
    assert out.read_bytes() == b"an earlier table\n"
    assert temp_files(tmp_path) == []


def test_interrupted_preprocess_leaves_each_csv_old_or_new(synth_dir, config_file, monkeypatch):
    argv = ["preprocess", "--manifest", str(synth_dir / "manifest.json"), "--config", str(config_file)]
    assert main(argv) == 0
    conditioned = [synth_dir / f"p00{i}.conditioned.csv" for i in range(2)]
    first_run = [p.read_bytes() for p in conditioned]
    starts = []
    format_rows = ingest._format_rows

    def second_csv_interrupted(rows):
        starts.append(rows[0, 0] == 0.0)  # a CSV's first chunk starts at elapsed time 0
        if sum(starts) == 2:
            raise KeyboardInterrupt
        return format_rows(rows)

    monkeypatch.setattr(ingest, "_format_rows", second_csv_interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert [p.read_bytes() for p in conditioned] == first_run
    assert len(ingest.read_signal_csv(conditioned[0])) == first_run[0].count(b"\n") - 1  # whole
    assert not (synth_dir / "manifest.conditioned.json").exists()
    assert temp_files(synth_dir) == []


@pytest.mark.parametrize(
    "section, option, value",
    [
        ("train", "n_members", 1),
        ("wavelet", "scales", 0),
        ("wavelet", "scales", 1),
        ("evaluate", "jobs", 0),
        ("evaluate", "rolling_n", 0),
        ("evaluate", "tlag_min", 5),  # above tlag_max
        ("evaluate", "tlag_min", -100000000),  # a sweep of 10^8 lags
        ("evaluate", "tlag_max", 100000000),
        ("features", "entropy_bins", 0),
        ("features", "time_domain", "ture"),
        ("wavelet", "omega0", -6),
        ("wavelet", "omega0", 0),
        ("evaluate", "calibration_bin_width", 0),
        ("evaluate", "calibration_bin_width", "nan"),
        ("regress", "n_trees", 0),
        ("regress", "max_depth", 0),
        ("regress", "learning_rate", 0),
        ("regress", "min_samples_leaf", 0),
        ("regress", "subsample", 0),
        ("preprocess", "target_hz", 0),
        ("preprocess", "target_hz", 0.142857),  # 86400 s is not a whole number of samples
        ("preprocess", "lowpass_q", -1),
        ("preprocess", "notch_hz", 0),
        ("preprocess", "notch_hz", -5),
        ("preprocess", "notch_hz", "nan"),
        ("train", "seed", -1),
    ],
)
def test_config_lower_bounds_exit_3(section, option, value, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{option} = {value}\n")
    # the manifest does not exist: a bad value must be rejected before any input is read
    code = main(
        ["evaluate", "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "r.json"),
         "--config", str(ini)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error[3]:") and option in err


SMALL_SYNTH = "synth --rate 0.01 --band-low 0.001 --band-high 0.004"


@pytest.mark.parametrize(
    "command, field",
    [
        ("synth --rate inf", "sample_rate_hz"),
        (f"{SMALL_SYNTH} --noise-std nan", "noise_std"),
        (f"{SMALL_SYNTH} --gain inf", "signature_gain"),
        (f"{SMALL_SYNTH} --drift nan", "drift_amplitude"),
        ("evaluate --omega0 inf", "omega0"),
        ("evaluate --bin-width inf", "calibration_bin_width"),
        ("evaluate --strategy ensemble --uq-th inf", "uq_th"),
    ],
)
def test_non_finite_option_values_exit_3(command, field, synth_dir, config_file, tmp_path, capsys):
    argv = command.split()
    out = tmp_path / "out"
    io_args = ["--out", str(out)]
    if argv[0] == "synth":  # one small subject, should the value be accepted
        io_args += ["--subjects", "1", "--days-min", "2", "--days-max", "2"]
    else:
        io_args += ["--manifest", str(synth_dir / "manifest.json"), "--config", str(config_file)]
    capsys.readouterr()
    assert main([*argv, *io_args]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error[3]: ") and field in err
    assert not out.exists() and not (tmp_path / "run_meta.json").exists()


_COMMAND_SECTIONS = {
    "preprocess": ("preprocess",),
    "features": ("preprocess", "wavelet", "features"),
    "train": ("preprocess", "wavelet", "features", "regress", "train"),
    "predict": ("preprocess", "wavelet", "features", "regress", "train"),
    "evaluate": ("preprocess", "wavelet", "features", "regress", "train", "evaluate"),
}
_IO_ARGS = {
    "preprocess": ["--manifest", "m.json"],
    "features": ["--manifest", "m.json", "--out", "f.csv"],
    "train": ["--manifest", "m.json", "--model-out", "model.json"],
    "predict": ["--model", "model.json", "--manifest", "m.json"],
    "evaluate": ["--manifest", "m.json", "--out", "r.json"],
}
# a flag value for every PipelineConfig field, none of them its default
_FLAG_VALUES = {
    "notch_hz": (["--notch", "60", "--notch", "120"], (60.0, 120.0)),
    "notch_q": (["--notch-q", "20"], 20.0),
    "lowpass_hz": (["--lowpass", "0.3"], 0.3),
    "lowpass_q": (["--lowpass-q", "0.5"], 0.5),
    "target_hz": (["--target-hz", "0.5"], 0.5),
    "window_seconds": (["--window-seconds", "3600"], 3600),
    "scales": (["--scales", "6"], 6),
    "omega0": (["--omega0", "5.5"], 5.5),
    "entropy_bins": (["--entropy-bins", "32"], 32),
    "time_domain": (["--time-domain"], True),
    "n_trees": (["--n-trees", "20"], 20),
    "max_depth": (["--max-depth", "2"], 2),
    "learning_rate": (["--learning-rate", "0.1"], 0.1),
    "min_samples_leaf": (["--min-samples-leaf", "3"], 3),
    "subsample": (["--subsample", "0.5"], 0.5),
    "strategy": (["--strategy", "ensemble"], "ensemble"),
    "uq_th": (["--uq-th", "8"], 8.0),
    "n_members": (["--n-members", "4"], 4),
    "seed": (["--seed", "11"], 11),
    "tlag_min": (["--tlag-min", "-10"], -10),
    "tlag_max": (["--tlag-max", "-2"], -2),
    "calibration_bin_width": (["--bin-width", "2.5"], 2.5),
    "rolling_n": (["--rolling-n", "3"], 3),
    "jobs": (["--jobs", "2"], 2),
}


def test_every_pipeline_flag_reaches_the_config(monkeypatch):
    io_args = {"manifest", "out", "model", "model_out", "observe_day", "curves_dir", "dump_scalogram", "config"}
    fields = [f.name for f in dataclasses.fields(PipelineConfig)]
    assert sorted(_FLAG_VALUES) == sorted(fields)
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    resolved = []

    def resolve_and_stop(config_path, overrides):
        resolved.append(resolve_config(config_path, overrides))
        raise ConfigError("resolved")

    monkeypatch.setattr(cli, "resolve_config", resolve_and_stop)
    for name, sections in _COMMAND_SECTIONS.items():
        actions = [a for a in commands[name]._actions if not isinstance(a, argparse._HelpAction)]
        assert not {a.dest for a in actions} - set(fields) - io_args, f"{name}: options that reach neither the config nor I/O"
        # one flag for every field of the command's sections, and none for any other field
        wanted = [f.name for f in dataclasses.fields(PipelineConfig) if f.metadata["section"] in sections]
        assert sorted(a.dest for a in actions if a.dest in fields) == sorted(wanted), name
        assert all(len(a.option_strings) == 1 for a in actions)
        flags = [token for field in wanted for token in _FLAG_VALUES[field][0]]
        assert main([name, *_IO_ARGS[name], *flags]) == 3
        assert {field: getattr(resolved[-1], field) for field in wanted} == {
            field: _FLAG_VALUES[field][1] for field in wanted
        }


def _numeric_flags() -> list[tuple[str, str]]:
    """(command, flag) for every int and float flag of every subcommand."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    return [(name, a.option_strings[0]) for name, p in commands.items() for a in p._actions if a.type in (int, float)]


@pytest.mark.parametrize("command, flag", _numeric_flags())
def test_a_numeric_flag_takes_minus_inf_as_its_value(command, flag, tmp_path, monkeypatch, capsys):
    # "-inf" after the flag is its value, not an unknown option: the command refuses the
    # value, or the missing inputs after it, in one error line
    monkeypatch.chdir(tmp_path)
    with contextlib.suppress(SystemExit):
        main([command, *{"synth": ["--out", "out"], **_IO_ARGS}[command], flag, "-inf"])
    err = capsys.readouterr().err
    assert re.fullmatch(r"error\[\d\]: [^\n]*\n", err), err
    assert "expected one argument" not in err


def test_readme_config_block_sets_every_option(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config file", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    assert set(load_config_file(path)) == {f.name for f in dataclasses.fields(PipelineConfig)}
    resolve_config(path)  # every value in it is accepted too


def test_readme_quickstart_runs_as_written(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in readme.split("```bash\n") if b.startswith("# 1. generate")).split("```", 1)[0]
    block = block.replace("\\\n", " ")
    commands = [line for line in block.splitlines() if line and not line.startswith("#")]
    assert commands[0].startswith("sproutcast synth ") and commands[1].startswith("echo -e ")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        if command.startswith("echo -e "):
            text, target = re.fullmatch(r'echo -e "(.*)" > (\S+)', command).groups()
            Path(target).write_text(text.replace("\\n", "\n") + "\n", encoding="utf-8")
        else:
            assert main(shlex.split(command)[1:]) == 0, command


def test_synth_flags_reach_synth_config_and_keep_its_defaults():
    fields = {f.name for f in dataclasses.fields(SynthConfig)}
    synth = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices["synth"]
    dests = {a.dest for a in synth._actions if not isinstance(a, argparse._HelpAction)}
    assert dests - fields == {"out", "raw_256hz"}
    # a flag not given leaves no value behind, so SynthConfig's defaults are the only ones
    given = vars(build_parser().parse_args(["synth", "--out", "d"]))
    assert set(given) == {"command", "func", "out"}


@pytest.mark.parametrize(
    "flags, label", [(["--label", "demo"], "demo"), ([], "synthetic-seed3"), (["--label", ""], "synthetic-seed3")]
)
def test_synth_label_reaches_the_manifest_and_run_meta(flags, label, tmp_path):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--subjects", "1", "--days-min", "2", "--days-max", "2",
                 "--rate", repr(RATE), "--band-low", "0.0008", "--band-high", "0.004", "--seed", "3", *flags]) == 0
    assert json.loads((out / "manifest.json").read_text())["label"] == label
    assert json.loads((out / "run_meta.json").read_text())["config"]["label"] == label


def test_synth_refuses_raw_256hz_with_a_rate(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--rate", "1", "--raw-256hz"]) == 3
    assert capsys.readouterr().err == "error[3]: --raw-256hz cannot be combined with --rate\n"
    assert not out.exists()


def test_synth_band_edge_not_given_keeps_its_default(tmp_path, capsys):
    # the high edge stays 0.05 Hz, above the 0.00625 Hz Nyquist limit of --rate 0.0125
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--rate", "0.0125", "--band-low", "0.0008"]) == 3
    assert capsys.readouterr().err == "error[3]: signature band must satisfy 0 < low < high < rate/2\n"
    assert not out.exists()


def test_synth_raw_256hz_generates_at_256hz(tmp_path, monkeypatch):
    configs = []
    # a real 256 Hz day is about 0.6 GB of CSV: record the config and generate nothing
    monkeypatch.setattr(cli.synth, "iter_recordings", lambda cfg: configs.append(cfg) or iter(()))
    assert main(["synth", "--out", str(tmp_path / "out"), "--subjects", "2", "--raw-256hz"]) == 0
    assert [(cfg.sample_rate_hz, cfg.n_subjects) for cfg in configs] == [(256.0, 2)]


def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    # numpy's MemoryError for a raw 256 Hz recording of the default 40-80 days
    def too_big(cfg):
        raise MemoryError("Unable to allocate 13.2 GiB for an array with shape (1769472000,) and data type float64")

    monkeypatch.setattr(cli.synth, "iter_recordings", too_big)
    assert main(["synth", "--out", str(tmp_path / "out"), "--raw-256hz"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error[3]: synth: not enough memory (Unable to allocate 13.2 GiB")
    assert "Traceback" not in err


def test_window_too_short_for_the_cwt_is_refused_before_any_input_is_read(synth_dir, tmp_path, capsys):
    for csv in synth_dir.glob("*.csv"):
        csv.unlink()
    flags = ["--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "f.csv"), "--target-hz", "0.01"]
    # 10 samples: plan_scales would ask f_min = 4 r / 10 >= f_max = r / 4
    assert main(["features", *flags, "--window-seconds", "1000"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error[3]: window_seconds 1000 at target_hz 0.01 is fewer than 17 samples")
    # W = 17 is the shortest window the CWT accepts; without it the CSVs are read, and found missing
    assert main(["features", *flags, "--window-seconds", "1700"]) == 4
    assert main(["features", *flags, "--window-seconds", "1000", "--time-domain"]) == 4


def test_evaluate_refuses_a_subject_shorter_than_a_window(config_file, tmp_path, capsys):
    recordings = [make_recording("p000", days=1, rate=RATE), make_recording("p001", days=3, rate=RATE)]
    manifest = write_corpus(recordings, tmp_path / "data", "short")
    argv = ["evaluate", "--manifest", str(manifest), "--config", str(config_file), "--out", str(tmp_path / "r.json")]
    assert main([*argv, "--window-seconds", "172800"]) == 3
    assert capsys.readouterr().err == "error[3]: subject 'p000' contributed no windows; cannot evaluate\n"


def test_features_refuses_a_window_after_the_sprouting_day(config_file, tmp_path, capsys):
    manifest = write_corpus([make_recording("p000", days=3, rate=RATE, sprout_day=1)], tmp_path / "data", "late")
    out = tmp_path / "f.csv"
    assert main(["features", "--manifest", str(manifest), "--config", str(config_file), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error[3]: subject 'p000': window at day 2 is after the sprouting day 1\n"
    assert not out.exists()


def test_cli_import_loads_no_process_pool():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, sproutcast.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_predict_stamps_scipy_without_importing_it(model_payload, tmp_path):
    flags, payload = model_payload
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    argv = ["predict", "--model", str(model), *flags, "--out", str(tmp_path / "p.json")]
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import json, sys; from sproutcast.cli import main; code = main(json.loads(sys.argv[1])); "
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy' or m.startswith('importlib.metadata')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env, capture_output=True, text=True)
    assert run.stdout.splitlines()[-1] == "0 []", run.stderr
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["environment"]["scipy"] == metadata.version("scipy")


def test_run_meta_records_null_where_scipy_has_no_dist_info(tmp_path, monkeypatch):
    package = tmp_path / "site" / "scipy"
    package.mkdir(parents=True)
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(package)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: spec)
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--subjects", "2", "--days-min", "2", "--days-max", "2",
                 "--rate", repr(RATE), "--band-low", "0.0008", "--band-high", "0.004"]) == 0
    assert json.loads((out / "run_meta.json").read_text())["environment"]["scipy"] is None
    # only a dist-info whose METADATA names scipy counts
    for name, headers in [("scipy-0.1.dist-info", "Name: scipy-extra\nVersion: 0.1\n"),
                          ("scipy-9.9.dist-info", "Metadata-Version: 2.1\nName: scipy\nVersion: 9.9\n\nName: x\n")]:
        (package.parent / name).mkdir()
        (package.parent / name / "METADATA").write_text(headers)
    assert cli._scipy_version() == "9.9"


def test_evaluate_flags_reach_config(synth_dir, tmp_path, capsys):
    code = main(
        ["evaluate", "--manifest", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "r.json"),
         "--rolling-n", "0"]
    )
    assert code == 3
    assert "rolling_n" in capsys.readouterr().err


def test_evaluate_refuses_a_bin_width_whose_bin_index_overflows(synth_dir, config_file, tmp_path, capsys, monkeypatch):
    # positive and finite, so the config takes it; any target above 2e-12 days divided by it
    # overflows, so it is refused before the first fit
    def no_fit(*args, **kwargs):
        raise AssertionError("a fold was fitted")

    monkeypatch.setattr("sproutcast.evaluate.fit_config", no_fit)
    out = tmp_path / "r.json"
    code = main(["evaluate", "--manifest", str(synth_dir / "manifest.json"), "--out", str(out),
                 "--config", str(config_file), "--bin-width", "1e-320"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error[3]: bin width 1e-320 is too small")
    assert not out.exists() and not (tmp_path / "run_meta.json").exists()


@pytest.mark.parametrize("day", ["nan", "inf", "-inf"])
def test_predict_refuses_a_non_finite_observe_day(day, tmp_path, capsys):
    # neither the model nor the manifest exists: the day must be refused before either is read
    out = tmp_path / "p.json"
    code = main(["predict", "--model", str(tmp_path / "model.json"), "--manifest", str(tmp_path / "m.json"),
                 "--observe-day", day, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error[3]: --observe-day must be finite, got {day}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def model_payload(tmp_path_factory):
    """A real single-model file, trained once for the corruption cases."""
    base = tmp_path_factory.mktemp("model")
    data = base / "data"
    assert main(["synth", "--out", str(data), "--subjects", "3", "--days-min", "12", "--days-max", "13",
                 "--rate", repr(RATE), "--band-low", "0.0008", "--band-high", "0.004", "--seed", "5"]) == 0
    ini = base / "pipeline.ini"
    ini.write_text(f"[preprocess]\ntarget_hz = {RATE!r}\n[wavelet]\nscales = 4\n")
    model = base / "model.json"
    assert main(["train", "--manifest", str(data / "manifest.json"), "--model-out", str(model),
                 "--config", str(ini), "--n-trees", "4", "--max-depth", "2", "--min-samples-leaf", "2"]) == 0
    return ["--manifest", str(data / "manifest.json"), "--config", str(ini)], json.loads(model.read_text())


# the tree each whole-model case corrupts, as its error names it; "last" is the model's last tree
_CORRUPT_TREE = {
    "child-into-next-tree": "tree 1",
    "feature-out-of-range-in-last-tree": "tree last",
    "threshold-above-float-range": "tree 2",
    "member-value-longer-in-last-tree": "member 1: tree last",
}


def _corrupt(case, payload):
    tree = next(t for t in payload["trees"] if t["feature"][0] >= 0)
    if case == "child-into-next-tree":  # one past its own nodes: the next tree's root, in the stacked walk
        middle = payload["trees"][1]
        middle["left"][0] = len(middle["feature"])
    elif case == "feature-out-of-range-in-last-tree":
        payload["trees"][-1]["feature"][-1] = payload["n_features"]
    elif case == "threshold-above-float-range":
        payload["trees"][2]["threshold"][0] = 10**309  # an integer no float holds
    elif case == "member-value-longer-in-last-tree":
        member = json.loads(json.dumps(payload))
        member["trees"][-1]["value"].append(0.0)
        header = {key: payload[key] for key in ("format_version", "feature_layout", "n_features", "spec")}
        payload = {**header, "kind": "ensemble", "n_members": 2, "members": [payload, member]}
    elif case == "missing-kind":
        del payload["kind"]
    elif case == "missing-spec":
        del payload["spec"]
    elif case == "missing-trees":
        del payload["trees"]
    elif case == "missing-tree-key":
        del tree["threshold"]
    elif case == "unequal-lengths":
        tree["value"].append(0.0)
    elif case == "child-out-of-range":
        tree["left"][0] = len(tree["feature"])
    elif case == "child-loops-back":
        tree["right"][0] = 0  # would send predict_matrix's walk round the root forever
    elif case == "feature-out-of-range":
        tree["feature"][0] = payload["n_features"]
    elif case == "feature-is-fractional":
        tree["feature"][0] += 0.5  # would load as the integer below it
    elif case == "leaf-is-nan":
        tree["value"] = [float("nan")] * len(tree["value"])
    elif case == "threshold-is-null":
        tree["threshold"][0] = None  # would load as NaN
    elif case == "leaf-is-true":
        tree["value"][-1] = True  # would load as 1.0
    elif case == "threshold-is-string":
        tree["threshold"][0] = "0.5"  # would load as 0.5
    elif case == "leaves-are-1e12":  # an estimate some 10^11 days out
        for t in payload["trees"]:
            t["value"] = [1e12] * len(t["value"])
    elif case.endswith("leaf-sum-overflows"):  # two finite leaves whose sum is no float
        payload["spec"]["learning_rate"] = 1.0
        payload["trees"] = [{**t, "value": [1e308] * len(t["value"])} for t in payload["trees"][:2]]
        if case.startswith("ensemble-"):
            header = {key: payload[key] for key in ("format_version", "feature_layout", "n_features", "spec")}
            payload = {**header, "kind": "ensemble", "n_members": 2, "members": [payload, payload]}
    elif case == "format-version-2":
        payload["format_version"] = 2
    elif case == "unknown-kind":
        payload["kind"] = "forest"
    elif case.startswith("member-"):  # an ensemble of the model and a member whose header differs
        member = {**payload, "feature_layout": "time-v9"}
        if case == "member-width-differs":
            member["n_features"] = 500
        elif case == "member-layout-differs-first-tree-corrupt":  # the header is checked before the trees
            member["trees"] = [{**payload["trees"][0], "feature": "corrupt"}, *payload["trees"][1:]]
        header = {key: payload[key] for key in ("format_version", "feature_layout", "n_features", "spec")}
        payload = {**header, "kind": "ensemble", "n_members": 2, "members": [payload, member]}
    return payload


@pytest.mark.parametrize(
    "case",
    ["missing-kind", "missing-spec", "missing-trees", "missing-tree-key", "unequal-lengths",
     "child-out-of-range", "child-loops-back", "feature-out-of-range", "feature-is-fractional",
     "leaf-is-nan", "threshold-is-null", "leaf-is-true", "threshold-is-string",
     "member-layout-differs", "member-width-differs", "member-layout-differs-first-tree-corrupt",
     "format-version-2", "unknown-kind", *_CORRUPT_TREE],
)
def test_predict_rejects_corrupt_model_file(case, model_payload, tmp_path, capsys):
    flags, payload = model_payload
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_corrupt(case, json.loads(json.dumps(payload)))))
    # the last --manifest, which wins, does not exist: the model must be rejected before any input is read
    code = main(["predict", "--model", str(path), *flags, "--manifest", str(tmp_path / "missing.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error[3]: {path}")
    if case.startswith("member-"):
        assert err.startswith(f"error[3]: {path}: member 1: ")
    if "differs" in case:
        assert "(feature_layout, n_features)" in err and "differs from the ensemble's" in err
    if case in _CORRUPT_TREE:
        where = _CORRUPT_TREE[case].replace("last", str(len(payload["trees"]) - 1))
        assert err.startswith(f"error[3]: {path}: {where}: ")


@pytest.mark.parametrize(
    "case, estimate",
    [("leaves-are-1e12", "2000000000"), ("leaf-sum-overflows", "inf"), ("ensemble-leaf-sum-overflows", "inf")],
)
def test_predict_reports_an_estimate_off_the_calendar(case, estimate, model_payload, tmp_path, capsys):
    flags, payload = model_payload
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_corrupt(case, json.loads(json.dumps(payload)))))
    # a warning would raise here, and end the run in a traceback
    assert main(["predict", "--model", str(path), *flags, "--uq-th", "5"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error[3]: subject 'p000': estimate {estimate}")
    assert "outside the calendar" in err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has exited: unbuffered, a write raises EPIPE; buffered, the flush does."""

    def __init__(self, fails_on: str):
        super().__init__()
        self.fails_on = fails_on

    def _check(self, call: str) -> None:
        if call == self.fails_on:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def write(self, s):
        self._check("write")
        return super().write(s)

    def flush(self):
        self._check("flush")


@pytest.mark.parametrize("fails_on", ["write", "flush"])
def test_predict_out_survives_a_closed_stdout(fails_on, model_payload, tmp_path, capsys, monkeypatch):
    flags, payload = model_payload
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    out = tmp_path / "p.json"
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(fails_on))
    code = main(["predict", "--model", str(model), *flags, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error[3]: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
    assert len(json.loads(out.read_text())) == 3
    # the rows are printed only after run_meta.json is written
    assert json.loads((tmp_path / "run_meta.json").read_text())["outputs"] == [str(out)]
    # the interpreter's own final flush has nothing left to fail on
    assert sys.stdout is None


@pytest.mark.parametrize("case", ["ensemble-without-uq-th", "subject-shorter-than-a-window"])
def test_predict_refuses_what_it_cannot_estimate(case, model_payload, tmp_path, capsys):
    flags, payload = model_payload
    path = tmp_path / "model.json"
    manifest = tmp_path / "missing.json"
    if case == "ensemble-without-uq-th":
        header = {key: payload[key] for key in ("format_version", "feature_layout", "n_features", "spec")}
        payload = {**header, "kind": "ensemble", "n_members": 2, "members": [payload, payload]}
    else:  # half a day at the model's rate
        manifest = write_corpus([make_recording("short", days=0.5, rate=RATE)], tmp_path / "data", "short")
    path.write_text(json.dumps(payload))
    code = main(["predict", "--model", str(path), *flags, "--manifest", str(manifest)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if case == "ensemble-without-uq-th":
        assert err.startswith(f"error[3]: {path}: --uq-th is required")
    else:
        assert err.startswith(f"error[3]: {manifest}: subject 'short' is shorter than one window")


def test_predict_accepts_uncorrupted_model_file(model_payload, tmp_path, capsys):
    flags, payload = model_payload
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    code = main(["predict", "--model", str(path), *flags])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.fixture(scope="module")
def report_payload(tmp_path_factory):
    """A real report, written once for the corruption cases."""
    base = tmp_path_factory.mktemp("report")
    data = base / "data"
    assert main(["synth", "--out", str(data), "--subjects", "3", "--days-min", "12", "--days-max", "13",
                 "--rate", repr(RATE), "--band-low", "0.0008", "--band-high", "0.004", "--seed", "5"]) == 0
    ini = base / "pipeline.ini"
    ini.write_text(f"[preprocess]\ntarget_hz = {RATE!r}\n[wavelet]\nscales = 4\n")
    report = base / "report.json"
    assert main(["evaluate", "--manifest", str(data / "manifest.json"), "--out", str(report),
                 "--config", str(ini), "--n-trees", "4", "--max-depth", "2", "--min-samples-leaf", "2"]) == 0
    return json.loads(report.read_text())


_REPORT_CORRUPTIONS = {
    "empty-object": lambda r: {},
    "not-an-object": lambda r: [r],
    "missing-mae": lambda r: {k: v for k, v in r.items() if k != "mae"},
    "mae-is-text": lambda r: {**r, "mae": "3.1"},
    "count-is-bool": lambda r: {**r, "fallback_count": True},
    "uq-th-is-text": lambda r: {**r, "uq_th": "8"},
    "label-is-number": lambda r: {**r, "label": 7},
    "percentile-pair-short": lambda r: {**r, "esd_percentiles": [p[:1] for p in r["esd_percentiles"]]},
    "percentiles-truncated": lambda r: {**r, "esd_percentiles": r["esd_percentiles"][:50]},
    "tlag-row-missing-key": lambda r: {**r, "tlag_curve": [{"t_lag": 0, "n_subjects": 1}]},
    "calibration-without-bins": lambda r: {**r, "calibration": {}},
    "calibration-bin-wrong-type": lambda r: {
        **r, "calibration": {**r["calibration"], "bins": [{**r["calibration"]["bins"][0], "count": 2.5}]}},
    "variance-missing-key": lambda r: {**r, "variance_decomposition": {"var_y": 1.0}},
    "mae-is-nan": lambda r: {**r, "mae": float("nan")},
}


def test_report_accepts_uncorrupted_report(report_payload, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report_payload))
    assert main(["report", "--report", str(path), "--curves-dir", str(tmp_path / "curves")]) == 0
    assert "MAE:" in capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(_REPORT_CORRUPTIONS))
def test_report_rejects_corrupt_report_file(case, report_payload, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_REPORT_CORRUPTIONS[case](json.loads(json.dumps(report_payload)))))
    code = main(["report", "--report", str(path), "--curves-dir", str(tmp_path / "curves")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error[3]: {path}")


# ------------------------------------------------------------ one subject in memory at a time


def _edit_manifest(data: Path, edit) -> Path:
    path = data / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["subjects"])
    path.write_text(json.dumps(manifest))
    return path


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _unlabel_last_two(subjects):
    for entry in subjects[2:]:
        del entry["sprouting_day"]


def _sprout_before_start_last(subjects):
    subjects[-1]["sprouting_day"] = "2023-09-30"


def _missing_last_csv(subjects):
    subjects[-1]["signal_path"] = "missing.csv"


_COMMANDS = {
    "train": "train --model-out {out}/m.json",
    "evaluate": "evaluate --out {out}/r.json",
    "features": "features --out {out}/f.csv",
    "predict": "predict --model {out}/model.json",
}


def _run(command, manifest, config_file, out, model_payload, commands=_COMMANDS) -> int:
    if command == "predict":
        (out / "model.json").write_text(json.dumps(model_payload[1]))
    argv = commands[command].format(out=out).split()
    return main([*argv[:1], "--manifest", str(manifest), "--config", str(config_file), *argv[1:]])


@pytest.mark.parametrize("command", ["evaluate", "features", "train"])
def test_unlabelled_subjects_are_refused_before_any_featurizing(
    command, synth_dir, config_file, model_payload, tmp_path, monkeypatch, capsys
):
    manifest = _edit_manifest(synth_dir, _unlabel_last_two)
    reads = _count_calls(monkeypatch, ingest, "read_signal_csv")
    capsys.readouterr()
    assert _run(command, manifest, config_file, tmp_path, model_payload) == 3
    assert capsys.readouterr().err == "error[3]: recordings without sprouting_day: p002, p003\n"
    assert not reads


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_sprouting_before_start_in_the_last_entry_is_refused_first(
    command, synth_dir, config_file, model_payload, tmp_path, monkeypatch, capsys
):
    manifest = _edit_manifest(synth_dir, _sprout_before_start_last)
    reads = _count_calls(monkeypatch, ingest, "read_signal_csv")
    capsys.readouterr()
    assert _run(command, manifest, config_file, tmp_path, model_payload) == 3
    err = capsys.readouterr().err
    assert err == f"error[3]: {manifest}: subject 'p003': sprouting_day 2023-09-30 precedes start_day 2023-10-01\n"
    assert not reads


def test_predict_reports_a_missing_csv_before_a_short_subject(
    synth_dir, config_file, model_payload, tmp_path, monkeypatch, capsys
):
    write_signal_csv(synth_dir / "p000.csv", np.ones(100), RATE)  # shorter than one window
    manifest = _edit_manifest(synth_dir, _missing_last_csv)
    reads = _count_calls(monkeypatch, ingest, "read_signal_csv")
    capsys.readouterr()
    assert _run("predict", manifest, config_file, tmp_path, model_payload) == 4
    assert capsys.readouterr().err == f"error[4]: file not found: {synth_dir / 'missing.csv'}\n"
    assert not reads


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_a_fault_in_a_csv_keeps_its_message(command, synth_dir, config_file, model_payload, tmp_path, capsys):
    csv = synth_dir / "p002.csv"
    header, first, rest = csv.read_bytes().split(b"\n", 2)
    csv.write_bytes(b"\n".join([header, first, b"1.5,nan", rest]))  # found only when p002 is read
    capsys.readouterr()
    assert _run(command, synth_dir / "manifest.json", config_file, tmp_path, model_payload) == 3
    assert capsys.readouterr().err == f"error[3]: {csv}: non-finite voltage at row 3\n"


def test_preprocess_refuses_a_bad_rate_in_the_last_entry_before_writing(synth_dir, config_file, capsys):
    manifest = _edit_manifest(synth_dir, lambda subjects: subjects[-1].update(sample_rate_hz=0))
    capsys.readouterr()
    assert main(["preprocess", "--manifest", str(manifest), "--config", str(config_file)]) == 3
    assert capsys.readouterr().err == f"error[3]: {manifest}: subject 'p003': sample_rate_hz must be positive and finite\n"
    assert not list(synth_dir.glob("*.conditioned.*"))


def test_preprocess_failing_part_way_leaves_no_earlier_manifest(synth_dir, config_file, capsys):
    argv = ["preprocess", "--manifest", str(synth_dir / "manifest.json"), "--config", str(config_file)]
    assert main(argv) == 0
    csv = synth_dir / "p003.csv"
    header, first, rest = csv.read_bytes().split(b"\n", 2)
    csv.write_bytes(b"\n".join([header, first, b"1.5,nan", rest]))
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error[3]: {csv}: non-finite voltage at row 3\n"
    assert not (synth_dir / "manifest.conditioned.json").exists()


def _suffix_twin(data: Path, subjects) -> None:
    # p001's samples under p000's name with another suffix: both condition to p000.conditioned.csv
    shutil.copy(data / "p001.csv", data / "p000.txt")
    subjects[1]["signal_path"] = "p000.txt"


def _reads_an_output(data: Path, subjects) -> None:
    # p001 reads the file that p000's conditioned CSV would overwrite
    shutil.copy(data / "p001.csv", data / "p000.conditioned.csv")
    subjects[1]["signal_path"] = "p000.conditioned.csv"


@pytest.mark.parametrize(
    "edit, other",
    [(_suffix_twin, "subject 'p000' writes"), (_reads_an_output, "subject 'p001' reads")],
    ids=["two-outputs", "output-is-an-input"],
)
def test_preprocess_refuses_colliding_conditioned_csvs(edit, other, synth_dir, config_file, monkeypatch, capsys):
    manifest = _edit_manifest(synth_dir, lambda subjects: edit(synth_dir, subjects))
    before = {p.name: p.read_bytes() for p in synth_dir.iterdir()}
    reads = _count_calls(monkeypatch, ingest, "read_signal_csv")
    capsys.readouterr()
    assert main(["preprocess", "--manifest", str(manifest), "--config", str(config_file)]) == 3
    writer = "p001" if edit is _suffix_twin else "p000"
    err = capsys.readouterr().err
    assert err == f"error[3]: {manifest}: subject {writer!r} writes {synth_dir / 'p000.conditioned.csv'}, which {other}\n"
    assert not reads
    assert {p.name: p.read_bytes() for p in synth_dir.iterdir()} == before


# every command that reads a corpus, each output in {out} but preprocess's, which go beside the manifest
_CORPUS_COMMANDS = {**_COMMANDS, "predict": _COMMANDS["predict"] + " --out {out}/p.json", "preprocess": "preprocess"}


@pytest.mark.parametrize("command", sorted(_CORPUS_COMMANDS))
def test_a_manifest_without_subjects_is_refused(command, synth_dir, config_file, model_payload, tmp_path, capsys):
    manifest = _edit_manifest(synth_dir, list.clear)
    out = tmp_path / "out"
    out.mkdir()
    before = sorted(synth_dir.iterdir())
    capsys.readouterr()
    assert _run(command, manifest, config_file, out, model_payload, _CORPUS_COMMANDS) == 3
    assert capsys.readouterr().err == f"error[3]: {manifest}: no subjects\n"
    assert [p.name for p in out.iterdir()] == (["model.json"] if command == "predict" else [])
    assert sorted(synth_dir.iterdir()) == before


def test_features_refuses_a_corpus_without_a_whole_window(config_file, tmp_path, capsys):
    manifest = write_corpus([make_recording("short", days=0.5, rate=RATE)], tmp_path / "data", "short")
    out = tmp_path / "f.csv"
    capsys.readouterr()
    assert main(["features", "--manifest", str(manifest), "--config", str(config_file), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error[3]: {manifest}: no subject holds a whole window; no features to write\n"
    assert not out.exists()


def test_features_dump_scalogram_reads_and_transforms_each_once(synth_dir, config_file, tmp_path, monkeypatch):
    manifest = synth_dir / "manifest.json"
    flags = ["--manifest", str(manifest), "--config", str(config_file)]
    reads = _count_calls(monkeypatch, ingest, "read_signal_csv")
    transforms = _count_calls(monkeypatch, features, "cwt")
    dump = tmp_path / "scalograms"
    assert main(["features", *flags, "--out", str(tmp_path / "dumped.csv"), "--dump-scalogram", str(dump)]) == 0
    assert sorted(path.name for (path,) in reads) == [f"p{i:03d}.csv" for i in range(4)]
    n_transforms = len(transforms)
    monkeypatch.undo()
    # every scalogram is the text of its window's |CWT|, as np.savetxt writes it
    cfg = resolve_config(config_file, {})
    windows = [w for rec in read_corpus(manifest) for w in segment(condition(rec, cfg), cfg.window_seconds)]
    assert n_transforms == len(windows)
    plan = plan_scales(cfg.target_hz, len(windows[0].samples), cfg.scales, cfg.omega0)
    expected = tmp_path / "expected"
    expected.mkdir()
    for w in windows:
        np.savetxt(expected / f"{w.subject_id}_w{w.window_index:04d}.csv", cwt(w, plan).coefficients, delimiter=",", fmt="%.8g")
    assert sorted(p.name for p in dump.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in expected.iterdir():
        assert (dump / path.name).read_bytes() == path.read_bytes()
    # and the feature table is the one written without the dump
    assert main(["features", *flags, "--out", str(tmp_path / "plain.csv")]) == 0
    assert (tmp_path / "dumped.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def _peak_rss_mib(argv: list[str], log: Path) -> float:
    """The peak resident memory of one CLI run in a child process, in MiB."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with log.open("wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "sproutcast.cli", *argv], env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, log.read_text()
    return usage.ru_maxrss / 1024


def test_peak_memory_does_not_grow_with_the_subject_count(tmp_path):
    days = 3  # at 1 Hz: 259200 samples, about 2 MiB, per subject
    manifest = write_corpus([make_recording(f"p{i}", days=days) for i in range(6)], tmp_path, "memory")
    entries = json.loads(manifest.read_text())["subjects"]
    peaks = {}
    for n in (2, 6):
        subset = tmp_path / f"first{n}.json"
        subset.write_text(json.dumps({"label": "memory", "subjects": entries[:n]}))
        argv = ["features", "--manifest", str(subset), "--out", str(tmp_path / f"f{n}.csv")]
        peaks[n] = _peak_rss_mib(argv, tmp_path / f"first{n}.log")
    one_subject = days * 86400 * 8 / 2**20
    assert abs(peaks[6] - peaks[2]) < one_subject, peaks


def test_every_numeric_option_declares_its_bound():
    def unbounded(cls):
        numeric = ("int", "float", "float | None", "tuple[float, ...]")
        return {f.name for f in dataclasses.fields(cls) if f.type in numeric and f.metadata["bound"] is None}

    assert unbounded(PipelineConfig) == set()
    # days_max is bounded by days_min, the band edges by each other and the rate, in __post_init__
    assert unbounded(SynthConfig) == {"days_max", "signature_band_low_hz", "signature_band_high_hz", "storage_temp_c"}
    # RegressorSpec's fields are PipelineConfig's options, whose bounds check them
    for name in (f.name for f in dataclasses.fields(RegressorSpec)):
        assert PipelineConfig.__dataclass_fields__[name].metadata["bound"] is not None
    with pytest.raises(ConfigError, match=r"^subsample must be in \(0, 1\], got 0\.0$"):
        RegressorSpec(subsample=0.0)


def test_resolve_config_refuses_an_unknown_option():
    with pytest.raises(ConfigError, match="no_such_option"):
        resolve_config(None, {"no_such_option": 1})


def test_platform_without_glibc_names_no_libc(monkeypatch):
    def no_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "confstr", no_glibc)
    system = os.uname()
    assert cli._platform() == f"{system.sysname}-{system.release}-{system.machine}"


def test_scipy_version_is_none_without_scipy(monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
    assert cli._scipy_version() is None
