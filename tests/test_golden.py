"""Golden run: every output of every command, pinned by its SHA-256.

One module fixture runs each command on three inputs, each command into a
directory of its own (the step), and digests every file under it:

- a 1/96 Hz corpus (900 samples a day): `synth`, `features
  --dump-scalogram`, `train` and `predict --out` for both strategies,
  `train --subsample 1`, `evaluate --curves-dir` for both strategies and
  `report --curves-dir` on each report;
- a 1 Hz corpus (W = 86400, the workload shape where the CWT inverts one
  scale per call and the reduction runs in chunks): `synth`, `features`,
  a single `train`, `evaluate` and `predict`, and the scalograms of one
  2-day subject;
- a hand-written 1-hour 256 Hz recording for `preprocess`.

Of each `run_meta.json` only its `config` is digested; the rest names
paths and the environment.  `report` writes its summary to stdout, so the
step keeps it as `summary.txt`.

The digests hold for numpy 2.4.6 on x86-64 Linux.  A change that moves
any of them changes the program's output: re-take the table on purpose
(`PYTHONPATH=src python tests/test_golden.py` rewrites it and prints each entry
that moved, or `no entry moved`) and say in CHANGES.md which entries moved and why.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sproutcast.cli import main

from conftest import make_recording, write_corpus

TABLE = Path(__file__).with_name("golden_outputs.json")
RATE = 1 / 96

# (MAE, ESD) in days, from `evaluate --strategy {single,ensemble}` on the 1/96 Hz corpus
GOLDEN_REPORTS = {
    "single": (3.6516038228592445, 2.6606797463101546),
    "ensemble": (3.7425848342603834, 0.783521257525726),
}
REGRESSOR = "[regress]\nn_trees = 8\nmax_depth = 3\nlearning_rate = 0.3\nmin_samples_leaf = 2\n"


def _run(*argv) -> str:
    """Run one command, which must succeed; returns what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main([str(a) for a in argv]) == 0, argv
    return printed.getvalue()


def _lowrate(base: Path) -> None:
    synth = base / "lowrate-synth"
    _run("synth", "--out", synth, "--subjects", 4, "--days-min", 12, "--days-max", 16,
         "--rate", repr(RATE), "--band-low", 0.0008, "--band-high", 0.004, "--seed", 3)
    ini = base / "lowrate.ini"
    ini.write_text(f"[preprocess]\ntarget_hz = {RATE!r}\n[wavelet]\nscales = 4\n" + REGRESSOR)
    data = ["--manifest", synth / "manifest.json", "--config", ini]
    flags = [*data, "--seed", 5]  # features takes no seed
    _run("features", "--out", base / "lowrate-features/features.csv",
         "--dump-scalogram", base / "lowrate-features/scalograms", *data)
    strategies = {"single": [], "ensemble": ["--strategy", "ensemble", "--uq-th", 8]}
    for name, strategy in strategies.items():
        model = base / f"lowrate-train-{name}/model.json"
        _run("train", "--model-out", model, *strategy, *flags)
        _run("predict", "--model", model, "--out", base / f"lowrate-predict-{name}/predictions.json", *strategy, *flags)
        report = base / f"lowrate-evaluate-{name}/report.json"
        _run("evaluate", "--out", report, "--curves-dir", report.parent / "curves", *strategy, *flags)
        summary = _run("report", "--report", report, "--curves-dir", base / f"lowrate-report-{name}/curves")
        (base / f"lowrate-report-{name}/summary.txt").write_text(summary.replace(str(base), "<base>"))
    _run("train", "--model-out", base / "lowrate-train-subsample1/model.json", "--subsample", 1, *flags)


def _one_hz(base: Path) -> None:
    synth = base / "1hz-synth"
    _run("synth", "--out", synth, "--subjects", 4, "--days-min", 2, "--days-max", 3, "--seed", 7)
    ini = base / "1hz.ini"
    ini.write_text(REGRESSOR)
    data = ["--manifest", synth / "manifest.json", "--config", ini]
    flags = [*data, "--seed", 5]
    _run("features", "--out", base / "1hz-features/features.csv", *data)
    model = base / "1hz-train-single/model.json"
    _run("train", "--model-out", model, *flags)
    _run("evaluate", "--out", base / "1hz-evaluate-single/report.json",
         "--curves-dir", base / "1hz-evaluate-single/curves", *flags)
    _run("predict", "--model", model, "--out", base / "1hz-predict-single/predictions.json", *flags)
    # np.savetxt takes ~0.3 s per 1 Hz window, so only one 2-day subject dumps its scalograms
    corpus = json.loads((synth / "manifest.json").read_text())
    entry = next(e for e in corpus["subjects"] if e["sprouting_day"] == "2023-10-03")  # 2 days from 2023-10-01
    one = base / "1hz-scalogram/manifest.json"
    one.parent.mkdir()
    one.write_text(json.dumps({"label": "one", "subjects": [{**entry, "signal_path": f"../1hz-synth/{entry['signal_path']}"}]}))
    _run("features", "--manifest", one, "--config", ini, "--out", one.parent / "features.csv",
         "--dump-scalogram", one.parent / "scalograms")


def _raw_256hz(base: Path) -> None:
    t = np.arange(3600 * 256) / 256.0
    rng = np.random.default_rng(11)
    # a slow wave, the 50 and 100 Hz mains the notches remove, and noise
    samples = np.sin(2 * np.pi * 0.01 * t) + 0.5 * np.sin(2 * np.pi * 50 * t) + 0.2 * np.sin(2 * np.pi * 100 * t)
    samples += rng.normal(0.0, 0.1, len(t))
    rec = make_recording("r000", days=1 / 24, rate=256.0, samples=samples, sprout_day=1)
    manifest = write_corpus([rec], base / "256hz-preprocess", "raw")
    _run("preprocess", "--manifest", manifest)


def run_every_command(base: Path) -> None:
    _lowrate(base)
    _one_hz(base)
    _raw_256hz(base)


def digests(base: Path) -> dict[str, dict[str, str]]:
    """{step: {path within the step: sha256}} for every step directory under ``base``."""
    table: dict[str, dict[str, str]] = {}
    for step in sorted(p for p in base.iterdir() if p.is_dir()):
        files = table[step.name] = {}
        for path in sorted(p for p in step.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "run_meta.json":
                data = json.dumps(json.loads(data)["config"], sort_keys=True).encode()
            files[path.relative_to(step).as_posix()] = hashlib.sha256(data).hexdigest()
    return table


def moved(old: dict[str, dict[str, str]], new: dict[str, dict[str, str]]) -> list[str]:
    """One line per step, or file within a step, that ``new`` adds, removes or changes from ``old``."""
    lines = []
    for step in sorted(old.keys() | new.keys()):
        if (step in old) != (step in new):
            lines.append(f"{'added' if step in new else 'removed'} {step}")
            continue
        for name in sorted(old[step].keys() | new[step].keys()):
            before, after = old[step].get(name), new[step].get(name)
            if before != after:
                lines.append(f"{'added' if before is None else 'removed' if after is None else 'changed'} {step} {name}")
    return lines or ["no entry moved"]


GOLDEN = json.loads(TABLE.read_text())


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden")
    run_every_command(base)
    return base, digests(base)


def test_golden_steps(golden_run):
    assert sorted(golden_run[1]) == sorted(GOLDEN)


@pytest.mark.parametrize("step", sorted(GOLDEN))
def test_golden_outputs(step, golden_run):
    assert golden_run[1].get(step) == GOLDEN[step]


def test_moved_names_each_entry_that_moved():
    old = {"a": {"report.json": "1", "run_meta.json": "2"}, "b": {"model.json": "3"}}
    new = {"a": {"curves/tlag.csv": "4", "report.json": "1", "run_meta.json": "9"}, "c": {"model.json": "3"}}
    assert moved(old, new) == ["added a curves/tlag.csv", "changed a run_meta.json", "removed b", "added c"]
    assert moved(new, {**new, "a": {"report.json": "1"}}) == ["removed a curves/tlag.csv", "removed a run_meta.json"]
    assert moved(old, old) == ["no entry moved"]


@pytest.mark.parametrize("strategy", ["single", "ensemble"])
def test_golden_headline(strategy, golden_run):
    report = json.loads((golden_run[0] / f"lowrate-evaluate-{strategy}/report.json").read_text())
    assert (report["mae"], report["esd"]) == GOLDEN_REPORTS[strategy]


if __name__ == "__main__":  # re-take the table: an output change, to be named in CHANGES.md
    with tempfile.TemporaryDirectory() as tmp:
        run_every_command(Path(tmp))
        table = digests(Path(tmp))
    print("\n".join(moved(GOLDEN, table)))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
