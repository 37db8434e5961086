"""Command-line entry point.

Subcommands: synth, preprocess, features, train, predict, evaluate,
report.  Option precedence is defaults < --config file < flags.  Every
artifact-producing run drops a run_meta.json with the fully resolved
configuration and the environment next to its primary output.  Exit
codes: 0 success, 2 usage, 3 invalid configuration, 4 missing input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from sproutcast import __version__
from sproutcast.config import ConfigError, PipelineConfig, resolve_config
from sproutcast.estimate import aggregate, window_estimates
from sproutcast.evaluate import compute_metrics, loo_cv, report_from_dict, write_curves, write_report
from sproutcast.features import build_dataset, extract_subject_features, iter_transforms, layout_version
from sproutcast.ingest import IngestError, day_offset_date, load_dataset, read_json, write_dataset, write_json, write_signal_csv
from sproutcast.preprocess import condition
from sproutcast.regress import Ensemble, fit_config, load_model, save_model
from sproutcast.synth import SynthConfig, generate

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line, machine-parseable usage errors
        print(f"error[{EXIT_USAGE}]: {self.prog}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# a command returns (run_meta.json's directory, its configuration, the files it wrote), or None
_Written = tuple[Path, object, list[Path]] | None


def _write_run_meta(command: str, argv: list[str], out_dir: Path, config, outputs: list[Path]) -> None:
    from importlib import metadata  # reads scipy's version without importing scipy

    meta = {
        "command": command,
        "argv": argv,
        "config": dataclasses.asdict(config) if dataclasses.is_dataclass(config) else config,
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
    }
    write_json(out_dir / "run_meta.json", meta)


def _pipeline_flags(parser: argparse.ArgumentParser, *, training: bool) -> None:
    parser.add_argument("--config", help="INI config file (one section per module)")
    parser.add_argument("--window-seconds", type=int, dest="window_seconds")
    parser.add_argument("--scales", type=int, dest="scales", help="number of CWT scales")
    parser.add_argument("--omega0", type=float, dest="omega0")
    parser.add_argument("--entropy-bins", type=int, dest="entropy_bins")
    parser.add_argument(
        "--time-domain",
        action="store_const",
        const=True,
        dest="time_domain",
        help="extract features from raw windows, skipping the CWT",
    )
    if training:
        parser.add_argument("--strategy", choices=("single", "ensemble"), dest="strategy")
        parser.add_argument("--uq-th", type=float, dest="uq_th", help="max allowed 95%% CI width (days)")
        parser.add_argument("--seed", type=int, dest="seed")
        parser.add_argument("--n-trees", type=int, dest="n_trees")
        parser.add_argument("--max-depth", type=int, dest="max_depth")
        parser.add_argument("--learning-rate", type=float, dest="learning_rate")
        parser.add_argument("--min-samples-leaf", type=int, dest="min_samples_leaf")
        parser.add_argument("--subsample", type=float, dest="subsample")


_CFG_FIELDS = tuple(f.name for f in dataclasses.fields(PipelineConfig))


def _resolve(args: argparse.Namespace) -> PipelineConfig:
    overrides = {k: getattr(args, k) for k in _CFG_FIELDS if hasattr(args, k)}
    return resolve_config(getattr(args, "config", None), overrides)


def cmd_synth(args: argparse.Namespace) -> _Written:
    given = vars(args)  # only the flags given: SynthConfig holds the defaults
    values = {f.name: given[f.name] for f in dataclasses.fields(SynthConfig) if f.name in given}
    if "band_low" in given or "band_high" in given:
        low, high = SynthConfig.signature_band_hz
        values["signature_band_hz"] = (given.get("band_low", low), given.get("band_high", high))
    if given.get("raw_256hz"):
        values["sample_rate_hz"] = 256.0
    cfg = SynthConfig(**values)
    dataset = generate(cfg)
    if given.get("label"):
        dataset = dataclasses.replace(dataset, label=given["label"])
    out_dir = Path(args.out)
    manifest = write_dataset(dataset, out_dir)
    print(manifest)
    return out_dir, dataclasses.asdict(cfg) | {"label": dataset.label}, [manifest]


def cmd_preprocess(args: argparse.Namespace) -> _Written:
    cfg = _resolve(args)
    dataset = load_dataset(args.manifest)
    manifest_path = Path(args.manifest)
    base = manifest_path.parent
    subjects, outputs = [], []
    by_id = {entry["id"]: entry for entry in read_json(manifest_path)["subjects"]}
    for rec in dataset.recordings:
        conditioned = condition(rec, cfg)
        entry = dict(by_id[rec.subject_id])
        out_name = Path(entry["signal_path"]).with_suffix(".conditioned.csv")
        write_signal_csv(base / out_name, conditioned.samples, conditioned.sample_rate_hz)
        entry["signal_path"] = str(out_name)
        entry["sample_rate_hz"] = conditioned.sample_rate_hz
        subjects.append(entry)
        outputs.append(base / out_name)
    out_manifest = manifest_path.with_suffix(".conditioned.json")
    write_json(out_manifest, {"label": dataset.label, "subjects": subjects})
    outputs.append(out_manifest)
    print(out_manifest)
    return base, cfg, outputs


def cmd_features(args: argparse.Namespace) -> _Written:
    cfg = _resolve(args)
    dataset = load_dataset(args.manifest)
    example_set = build_dataset(dataset, cfg)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    header = "subject_id,window_index,day_offset,target_days," + ",".join(
        f"f_{i:03d}" for i in range(example_set.x.shape[1])
    )
    # Python floats print as the shortest text that reads back to the same value
    lines = [header] + [
        f"{fv.subject_id},{fv.window_index},{fv.day_offset},{target:g}," + ",".join(map(repr, row))
        for fv, target, row in zip(example_set.features, example_set.y.tolist(), example_set.x.tolist())
    ]
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs = [out_path]
    if args.dump_scalogram:
        outputs += _dump_scalograms(dataset, cfg, Path(args.dump_scalogram))
    print(out_path)
    return out_path.parent, cfg, outputs


def _dump_scalograms(dataset, cfg: PipelineConfig, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for rec in dataset.recordings:
        for w, tw, _ in iter_transforms(rec, cfg):
            path = out_dir / f"{rec.subject_id}_w{w.window_index:04d}.csv"
            np.savetxt(path, tw.coefficients, delimiter=",", fmt="%.8g")
            written.append(path)
    return written


def cmd_train(args: argparse.Namespace) -> _Written:
    cfg = _resolve(args)
    dataset = load_dataset(args.manifest)
    example_set = build_dataset(dataset, cfg)
    model = fit_config(example_set.x, example_set.y, cfg, example_set.layout)
    model_path = save_model(model, args.model_out)
    print(model_path)
    return model_path.parent, cfg, [model_path]


def cmd_predict(args: argparse.Namespace) -> _Written:
    cfg = _resolve(args)
    model = load_model(args.model)
    expected_layout = layout_version(cfg.scales, cfg.time_domain)
    if model.feature_layout_version != expected_layout:
        raise ConfigError(
            f"{args.model}: model layout {model.feature_layout_version!r} does not match "
            f"current pipeline layout {expected_layout!r}"
        )
    if isinstance(model, Ensemble) and cfg.uq_th is None:
        raise ConfigError("--uq-th is required when predicting with an ensemble model")
    dataset = load_dataset(args.manifest)
    results = []
    for rec in dataset.recordings:
        fvs = extract_subject_features(rec, cfg)
        if not fvs:
            raise ConfigError(f"subject {rec.subject_id!r} is shorter than one window; nothing to predict")
        estimates = window_estimates(model, fvs, cfg.uq_th)
        t = args.observe_day if args.observe_day is not None else max(e.day_offset for e in estimates) + 1
        subject = aggregate(estimates, observation_day=t)
        results.append(
            {
                "subject_id": subject.subject_id,
                "d_hat_day_offset": subject.d_hat,
                "estimated_date": day_offset_date(rec, subject.d_hat).isoformat(),
                "n_windows_used": subject.n_windows_used,
                "fallback_used": subject.fallback_used,
            }
        )
    for row in results:
        print(json.dumps(row, sort_keys=True))
    if not args.out:
        return None
    out_path = write_json(args.out, results)
    return out_path.parent, cfg, [out_path]


def cmd_evaluate(args: argparse.Namespace) -> _Written:
    cfg = _resolve(args)
    dataset = load_dataset(args.manifest)
    folds = loo_cv(dataset, cfg)
    report = compute_metrics(folds, cfg, label=dataset.label)
    out_path = write_report(report, args.out)
    outputs = [out_path]
    if args.curves_dir:
        outputs += write_curves(report, Path(args.curves_dir))
    print(out_path)
    return out_path.parent, cfg, outputs


def cmd_report(args: argparse.Namespace) -> _Written:
    report = report_from_dict(read_json(args.report), args.report)
    print(f"dataset:   {report.label}  (N={report.n_subjects}, strategy={report.strategy}"
          + (f", uq_th={report.uq_th:g})" if report.uq_th is not None else ")"))
    print(f"MAE:       {report.mae:.3f} days   (constant-mean baseline {report.baseline_mae:.3f})")
    print(f"ESD:       {report.esd:.3f} days   (fallbacks: {report.fallback_count})")
    curve = dict(report.esd_percentiles)
    print(f"ESD p25/p50/p75/p90: {curve[25.0]:.2f} / {curve[50.0]:.2f} / {curve[75.0]:.2f} / {curve[90.0]:.2f}")
    lag = report.tlag_curve
    if lag:
        first, last = lag[0], lag[-1]
        def fmt(row):
            esd = "n/a" if row["mean_esd"] is None else f"{row['mean_esd']:.2f}"
            return f"t_lag {row['t_lag']}: ESD {esd} ({row['n_subjects']} subjects)"
        print(f"t_lag:     {fmt(first)}  ->  {fmt(last)}")
    vd = report.variance_decomposition
    print(
        f"variance:  Var(Y)={vd['var_y']:.2f}  Var(Yhat)={vd['var_y_hat']:.2f}  "
        f"E[Var(Y|Yhat)]={vd['e_var_y_given_y_hat']:.2f}"
    )
    if args.curves_dir:
        for p in write_curves(report, Path(args.curves_dir)):
            print(p)
    return None


def build_parser() -> _Parser:
    parser = _Parser(prog="sproutcast", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # a flag not given sets no attribute
    p = sub.add_parser("synth", help="generate a synthetic dataset on disk", argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, help="output directory for manifest + CSVs")
    p.add_argument("--subjects", type=int, dest="n_subjects")
    p.add_argument("--days-min", type=int, dest="days_min")
    p.add_argument("--days-max", type=int, dest="days_max")
    p.add_argument("--rate", type=float, dest="sample_rate_hz", help="sample rate in Hz")
    p.add_argument("--raw-256hz", action="store_true", help="generate at 256 Hz to exercise conditioning")
    p.add_argument("--band-low", type=float, dest="band_low")
    p.add_argument("--band-high", type=float, dest="band_high")
    p.add_argument("--onset", type=int, dest="signature_onset_days_before", help="signature onset, days before sprouting")
    p.add_argument("--gain", type=float, dest="signature_gain")
    p.add_argument("--noise-std", type=float, dest="noise_std")
    p.add_argument("--drift", type=float, dest="drift_amplitude")
    p.add_argument("--temp", type=int, dest="storage_temp_c", help="storage temperature to record (C)")
    p.add_argument("--seed", type=int, dest="seed")
    p.add_argument("--label")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="run the conditioning chain over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--notch", type=float, action="append", dest="notch_hz")
    p.add_argument("--notch-q", type=float, dest="notch_q")
    p.add_argument("--lowpass", type=float, dest="lowpass_hz")
    p.add_argument("--lowpass-q", type=float, dest="lowpass_q")
    p.add_argument("--target-hz", type=float, dest="target_hz")
    p.add_argument("--window-seconds", type=int, dest="window_seconds")
    p.add_argument("--config")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("features", help="emit the labelled feature table as CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-scalogram", help="directory for per-window scalogram CSVs")
    _pipeline_flags(p, training=False)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="fit a model on all labelled subjects")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model-out", required=True)
    _pipeline_flags(p, training=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="estimate sprouting days for a manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--observe-day", type=float, help="observation day offset t (default: end of data)")
    p.add_argument("--out", help="optional JSON output path")
    _pipeline_flags(p, training=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="leave-one-out evaluation with full report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--curves-dir", help="directory for plot-ready curve CSVs")
    p.add_argument("--jobs", type=int, dest="jobs", help="max parallel fold workers")
    p.add_argument("--tlag-min", type=int, dest="tlag_min")
    p.add_argument("--tlag-max", type=int, dest="tlag_max")
    p.add_argument("--bin-width", type=float, dest="calibration_bin_width")
    p.add_argument("--rolling-n", type=int, dest="rolling_n")
    _pipeline_flags(p, training=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="print a human-readable summary of a report.json")
    p.add_argument("--report", required=True)
    p.add_argument("--curves-dir", help="re-emit curve CSVs from the report")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        written = args.func(args)
        if written is not None:
            _write_run_meta(args.command, argv, *written)
        return 0
    except FileNotFoundError as exc:
        print(f"error[{EXIT_MISSING}]: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ConfigError, IngestError, ValueError) as exc:
        print(f"error[{EXIT_CONFIG}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
