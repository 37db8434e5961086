"""End-to-end benchmark of the sproutcast CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload loo-lowrate --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout.  A timed run repeats whole
rounds of set-ups and CLI commands, each in a fresh process, until
``--seconds`` have passed.  A set-up generates a seeded synthetic corpus
with ``sproutcast synth``; the commands are

    evaluate --strategy single | evaluate --strategy ensemble |
    train --strategy ensemble  | predict (on unlabelled targets)

and a workload's round (``Workload.round_order``) interleaves two set-ups
with the commands, running the short ones two or three times, so that the
samples of a metric lie apart in time; each metric is the median of its
samples.
``--trace 1`` instead runs one untraced set-up and each command once, then
the same through ``perfbench/tracer.py``, which calls
``sproutcast.cli.main`` in-process with every public pipeline function
wrapped in a timer; it reports the per-layer metrics and the tracing
overhead.  Either way the
outputs are checked by ``perfbench/checks.py`` and the last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracer  # noqa: E402

RUN_DEADLINE_S = 170.0
MODEL_SEED = 11
UQ_TH = 8.0
N_SCALES = 8
CSV_SAMPLE_ROWS = 64
COMMANDS = ("evaluate_single", "evaluate_ensemble", "train", "predict")
# The program's numeric libraries run on one thread, like --jobs 1: with
# more, a command's time depends on what else runs on the second core.
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass(frozen=True)
class Workload:
    why: str
    rate_hz: float
    n_train: int
    n_target: int
    days_min: int
    days_max: int
    synth_flags: tuple[str, ...]
    min_samples_leaf: int
    esd_bound: float | None  # criterion 9's bound on the mean LOO ESD, where it applies
    predict_bound: float  # days of error allowed for each target against the withheld truth
    predict_mean_bound: float | None  # ... and for their mean
    # One timed round: "setup" or a command, in order.  This machine's speed
    # drifts by 10-40% over tens of seconds, so the samples of one metric are
    # spread over the round rather than taken back to back.
    round_order: tuple[str, ...]

    @property
    def window_len(self) -> int:
        return int(round(self.rate_hz * checks.SECONDS_PER_DAY))

    def config_ini(self) -> str:
        return (
            f"[preprocess]\ntarget_hz = {self.rate_hz!r}\n"
            f"[wavelet]\nscales = {N_SCALES}\n"
            "[regress]\nn_trees = 60\nmax_depth = 3\nlearning_rate = 0.15\nsubsample = 0.8\n"
            f"min_samples_leaf = {self.min_samples_leaf}\n"
        )


WORKLOADS = {
    # README quickstart shape: 1/80 Hz (W = 1080), 16 subjects of 30-50 days,
    # criterion 9's regressor; the booster does nearly all the work
    "loo-lowrate": Workload(
        why="low rate, many windows: LOO evaluate is booster-bound, single and ensemble",
        rate_hz=0.0125,
        n_train=16,
        n_target=4,
        days_min=30,
        days_max=50,
        synth_flags=("--band-low", "0.0008", "--band-high", "0.003"),
        min_samples_leaf=5,
        esd_bound=5.0,
        # single subjects' LOO ESD reach 8 days on these corpora; criterion 9
        # bounds the mean at 5, and no target may be off by more than half
        # the 30-50 day range (the worst case of guessing its middle)
        predict_bound=10.0,
        predict_mean_bound=5.0,
        # train and predict (2-5 s) run three times; each evaluate, ~15 s
        # long, runs once, as the whole benchmark must end within the hour
        round_order=(
            "setup", "train", "predict", "evaluate_ensemble", "train",
            "setup", "predict", "evaluate_single", "train", "predict",
        ),
    ),
    # sensor rate 1 Hz (W = 86400): CSV ingest, CWT and the 14-statistic
    # reduction do nearly all the work; the booster fits a few dozen rows.
    # At 1 Hz set-up writes about 0.25 s per subject-day, so the corpus is
    # as small as the ensemble allows: each LOO fold of five 5-day subjects
    # holds 20 rows, just enough for ten members of min_samples_leaf = 2.
    "forecast-1hz": Workload(
        why="1 Hz day windows: CSV ingest, CWT and feature reduction dominate every command",
        rate_hz=1.0,
        n_train=5,
        n_target=2,
        days_min=5,
        days_max=5,
        synth_flags=(),
        min_samples_leaf=2,
        esd_bound=None,
        predict_bound=3.0,
        predict_mean_bound=None,
        # a set-up takes ~11 s here; train and predict run three times
        round_order=(
            "setup", "train", "predict", "evaluate_single", "train",
            "setup", "predict", "evaluate_ensemble", "train", "predict",
        ),
    ),
}


# ------------------------------------------------------------ processes


class Runner:
    """Starts each command as a child process and waits for it, timing it."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k != "SPROUT_SEED"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        env.update(SINGLE_THREAD)
        self.env = env

    def run(self, argv: list[str], log_dir: Path) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MiB, exit code) of one child process."""
        log_dir.mkdir(parents=True, exist_ok=True)
        with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "sproutcast.cli", *args]


def traced(spans: Path, argv: list[str], capture: Path | None = None) -> list[str]:
    """The same command through the tracer: argv[3:] drops 'python -m sproutcast.cli'."""
    extra = ["--capture", str(capture)] if capture else []
    return [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", str(spans), *extra, "--", *argv[3:]]


# ------------------------------------------------------------ set-up


def synth_argv(wl: Workload, seed: int, out: Path) -> list[str]:
    return cli(
        "synth", "--out", str(out), "--subjects", str(wl.n_train + wl.n_target),
        "--days-min", str(wl.days_min), "--days-max", str(wl.days_max),
        "--rate", repr(wl.rate_hz), "--seed", str(seed), *wl.synth_flags,
    )


def split_manifest(wl: Workload, corpus: Path) -> None:
    """Train manifest: the first n_train subjects.  Target manifest: the
    rest, with sprouting_day withheld."""
    manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
    train = manifest["subjects"][: wl.n_train]
    target = [{k: v for k, v in s.items() if k != "sprouting_day"} for s in manifest["subjects"][wl.n_train :]]
    for name, subjects in (("train.json", train), ("target.json", target)):
        (corpus / name).write_text(json.dumps({"label": manifest["label"], "subjects": subjects}, indent=2) + "\n")
    (corpus / "pipeline.ini").write_text(wl.config_ini())


def setup(runner: Runner, wl: Workload, seed: int, corpus: Path, argv_of=lambda a: a) -> float:
    """Generate and split one corpus; returns its wall time."""
    shutil.rmtree(corpus, ignore_errors=True)
    t0 = time.perf_counter()
    _, _, rc = runner.run(argv_of(synth_argv(wl, seed, corpus)), corpus.parent / f"{corpus.name}-log")
    if rc != 0:
        raise RuntimeError(f"set-up failed: synth exited {rc}; see {corpus.parent / (corpus.name + '-log')}")
    split_manifest(wl, corpus)
    return time.perf_counter() - t0


# ------------------------------------------------------------ commands


def round_commands(corpus: Path, out: Path) -> dict[str, list[str]]:
    """Each command writes into its own directory, run_meta.json included."""
    ini = str(corpus / "pipeline.ini")
    train = str(corpus / "train.json")
    seed = str(MODEL_SEED)
    uq = repr(UQ_TH)
    return {
        "evaluate_single": cli(
            "evaluate", "--manifest", train, "--out", str(out / "evaluate_single" / "report.json"),
            "--config", ini, "--strategy", "single", "--seed", seed, "--jobs", "1"),
        "evaluate_ensemble": cli(
            "evaluate", "--manifest", train, "--out", str(out / "evaluate_ensemble" / "report.json"),
            "--config", ini, "--strategy", "ensemble", "--uq-th", uq, "--seed", seed, "--jobs", "1"),
        "train": cli(
            "train", "--manifest", train, "--model-out", str(out / "train" / "model.json"),
            "--config", ini, "--strategy", "ensemble", "--uq-th", uq, "--seed", seed),
        "predict": cli(
            "predict", "--model", str(out / "train" / "model.json"), "--manifest", str(corpus / "target.json"),
            "--config", ini, "--uq-th", uq, "--out", str(out / "predict" / "predictions.json")),
    }


OUTPUT_FILES = {
    "evaluate_single": "evaluate_single/report.json",
    "evaluate_ensemble": "evaluate_ensemble/report.json",
    "train": "train/model.json",
    "predict": "predict/predictions.json",
}


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(out: Path) -> dict[str, str | None]:
    return {name: digest(out / rel) if (out / rel).is_file() else None for name, rel in OUTPUT_FILES.items()}


def run_round(runner: Runner, commands: dict[str, list[str]], out: Path, argv_of=lambda name, a: a):
    """Run the four commands in order: ({name: seconds}, peak RSS, failed names)."""
    times, rss, failed = {}, 0.0, []
    for name, argv in commands.items():
        seconds, peak, rc = runner.run(argv_of(name, argv), out / name)
        times[name] = seconds
        rss = max(rss, peak)
        if rc != 0:
            failed.append(name)
    return times, rss, failed


# ------------------------------------------------------------ checks


def check_corpus(wl: Workload, seed: int, corpus: Path) -> tuple[list[str], dict]:
    """Truth, CSV text and independent features of the targets."""
    fails: list[str] = []
    manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
    subjects = manifest["subjects"]
    drawn = checks.synth_truth(seed, wl.n_train + wl.n_target, wl.days_min, wl.days_max)
    truth, start = {}, {}
    for entry, days in zip(subjects, drawn):
        sid = entry["id"]
        truth[sid] = days
        start[sid] = date.fromisoformat(entry["start_day"])
        offset = (date.fromisoformat(entry["sprouting_day"]) - start[sid]).days
        if offset != days:
            fails.append(f"{sid}: manifest sprouting offset {offset} != synth draw {days}")
    if len(subjects) != len(drawn):
        fails.append(f"manifest has {len(subjects)} subjects, expected {len(drawn)}")
    rows_per_file = wl.window_len * wl.days_max
    sample_rows = np.unique(np.linspace(0, rows_per_file - 1, CSV_SAMPLE_ROWS).astype(np.int64))
    scales = checks.scale_plan(wl.rate_hz, wl.window_len, N_SCALES)
    target_features, target_samples = {}, {}
    for i, entry in enumerate(subjects):
        sid = entry["id"]
        lines = checks.read_csv_lines(corpus / entry["signal_path"])
        fails += checks.check_csv(lines, wl.rate_hz, truth[sid], sample_rows[sample_rows < len(lines) - 1], sid)
        if i >= wl.n_train:
            samples = checks.csv_voltages(lines)
            target_samples[sid] = samples
            target_features[sid] = checks.subject_features(samples, wl.window_len, scales)
    ids = [s["id"] for s in subjects]
    info = {
        "truth_train": {sid: truth[sid] for sid in ids[: wl.n_train]},
        "truth_target": {sid: truth[sid] for sid in ids[wl.n_train :]},
        "start": start,
        "target_features": target_features,
        "target_samples": target_samples,
        "scales": scales,
    }
    return fails, info


def check_outputs(wl: Workload, out: Path, info: dict) -> list[str]:
    fails = []
    windows = dict(info["truth_train"])  # whole-day recordings: one window per day
    for name, strategy in (("evaluate_single", "single"), ("evaluate_ensemble", "ensemble")):
        path = out / OUTPUT_FILES[name]
        if not path.is_file():
            fails.append(f"{name}: no report")
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        fails += [f"{name}: {f}" for f in checks.check_report(report, info["truth_train"], windows, strategy, wl.esd_bound)]
    model_path, pred_path = out / OUTPUT_FILES["train"], out / OUTPUT_FILES["predict"]
    if not (model_path.is_file() and pred_path.is_file()):
        return fails + ["train/predict: missing model or predictions"]
    model = json.loads(model_path.read_text(encoding="utf-8"))
    fails += [f"train: {f}" for f in checks.check_model(model, "ensemble", 60, 3, N_SCALES * checks.FEATURE_COUNT)]
    rows = json.loads(pred_path.read_text(encoding="utf-8"))
    fails += [
        f"predict: {f}"
        for f in checks.check_predictions(
            rows, model, info["target_features"], info["start"], info["truth_target"],
            UQ_TH, wl.predict_bound, wl.predict_mean_bound,
        )
    ]
    return fails


def check_captures(captures: list[dict], info: dict) -> list[str]:
    """Program CWT samples and feature rows of the targets, from the traced predict."""
    fails = []
    seen_cwt = seen_features = 0
    for cap in captures:
        sid, day = cap["subject_id"], cap["day"]
        if sid not in info["target_samples"]:
            continue
        if cap["kind"] == "cwt":
            w = len(info["target_samples"][sid]) // len(info["target_features"][sid])
            window = info["target_samples"][sid][day * w : (day + 1) * w]
            fails += checks.compare_cwt(cap["values"], window, info["scales"], cap["positions"], f"{sid} day {day}")
            seen_cwt += 1
        else:
            fails += checks.compare_features(cap["values"], info["target_features"][sid][day], f"{sid} day {day}")
            seen_features += 1
    expected = sum(len(f) for f in info["target_features"].values())
    if seen_cwt != expected or seen_features != expected:
        fails.append(f"captured {seen_cwt} CWT and {seen_features} feature rows, expected {expected} each")
    return fails


# ------------------------------------------------------------ runs


def timed_run(runner: Runner, wl: Workload, seed: int, seconds: float, work: Path):
    corpus, out = work / "corpus", work / "out"
    commands = round_commands(corpus, out)
    setups: list[float] = []
    times: dict[str, list[float]] = {name: [] for name in COMMANDS}
    digests: dict[str, set] = {name: set() for name in COMMANDS}
    peak, attempted, failed, rounds = 0.0, 0, 0, 0
    t0 = time.monotonic()
    while rounds == 0 or time.monotonic() - t0 < seconds:
        round_start = time.monotonic()
        for step in wl.round_order:
            if step == "setup":
                setups.append(setup(runner, wl, seed, corpus))
                continue
            elapsed, rss, rc = runner.run(commands[step], out / step)
            times[step].append(elapsed)
            peak = max(peak, rss)
            attempted += 1
            failed += rc != 0
            path = out / OUTPUT_FILES[step]
            digests[step].add(digest(path) if path.is_file() else None)
        rounds += 1
        # stop before a round that could overrun the deadline (checks take ~5 s)
        if failed or time.monotonic() + 1.5 * (time.monotonic() - round_start) + 10.0 > runner.deadline:
            break
    fails, info = check_corpus(wl, seed, corpus)
    fails += check_outputs(wl, out, info)
    fails += [f"{name}: outputs differ between its runs" for name in COMMANDS if len(digests[name]) != 1]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for name in COMMANDS:
        metrics[f"{name}_s"] = (statistics.median(times[name]), "s")
    metrics["peak_rss_mb"] = (peak, "MiB")
    print(f"{rounds} round(s); samples (s):", file=sys.stderr)
    for name, samples in (("setup", setups), *times.items()):
        print(f"  {name:18s} {' '.join(f'{v:.3f}' for v in samples)}", file=sys.stderr)
    return fails, attempted, failed, metrics


def traced_run(runner: Runner, wl: Workload, seed: int, work: Path):
    """One untraced set-up and run of each command, then the same through the tracer."""
    plain_setup = setup(runner, wl, seed, work / "corpus")
    plain_times, _, plain_failed = run_round(runner, round_commands(work / "corpus", work / "out"), work / "out")
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    t_corpus = work / "traced-corpus"
    t_out = work / "traced-out"
    capture = spans_dir / "capture.json"
    traced_setup = setup(runner, wl, seed, t_corpus, lambda a: traced(spans_dir / "synth.json", a))
    traced_times, _, traced_failed = run_round(
        runner,
        round_commands(t_corpus, t_out),
        t_out,
        lambda name, a: traced(spans_dir / f"{name}.json", a, capture if name == "predict" else None),
    )
    fails, info = check_corpus(wl, seed, t_corpus)
    fails += check_outputs(wl, t_out, info)
    if output_digests(t_out) != output_digests(work / "out"):
        fails.append("traced outputs differ from untraced outputs")
    for entry in json.loads((work / "corpus" / "manifest.json").read_text())["subjects"]:
        rel = entry["signal_path"]
        if digest(work / "corpus" / rel) != digest(t_corpus / rel):
            fails.append(f"traced corpus {rel} differs from untraced corpus")
    if capture.is_file():
        fails += check_captures(json.loads(capture.read_text(encoding="utf-8")), info)
    else:
        fails.append("traced predict captured nothing")
    processes = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(spans_dir.glob("*.json")) if p != capture]
    metrics = tracer.layer_metrics(processes)
    plain = plain_setup + sum(plain_times.values())
    with_trace = traced_setup + sum(traced_times.values())
    metrics["trace.overhead_s"] = (with_trace - plain, "s")
    metrics["trace.overhead_pct"] = (100.0 * (with_trace - plain) / plain, "%")
    attempted = 2 * len(COMMANDS)
    return fails, attempted, len(plain_failed) + len(traced_failed), metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="synth seed of the generated corpus")
    parser.add_argument("--seconds", type=float, default=20.0, help="minimum measured time; whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sproutcast" / "cli.py").is_file():
        print(f"error: {root} is not a sproutcast checkout (no src/sproutcast/cli.py)", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / ".perfbench-work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, time.monotonic() + RUN_DEADLINE_S)
    try:
        if args.trace:
            fails, attempted, failed, metrics = traced_run(runner, wl, args.seed, work)
        else:
            fails, attempted, failed, metrics = timed_run(runner, wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in fails:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
