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
import importlib.util
import itertools
import json
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np

from sproutcast import __version__, synth
from sproutcast.config import SECTIONS, ConfigError, PipelineConfig, add_option, resolve_config
from sproutcast.estimate import aggregate, window_estimates
from sproutcast.evaluate import compute_metrics, loo_cv, report_from_dict, write_curves, write_report
from sproutcast.features import FEATURES_PER_SCALE, build_dataset, extract_subject_features, layout_version
from sproutcast.ingest import (IngestError, atomic_output, day_offset_date, iter_recordings, load_manifest, read_json,
                               write_json, write_recording, write_signal_csv)
from sproutcast.preprocess import condition
from sproutcast.regress import Ensemble, fit_config, load_model, save_model

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # so "--flag -inf" or "--flag -1e3" is a value, not an unknown option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    def error(self, message):  # single-line, machine-parseable usage errors
        print(f"error[{EXIT_USAGE}]: {self.prog}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# what a command wrote, for run_meta.json: its directory, its configuration and the files
_Written = tuple[Path, object, list[Path]] | None
# a command returns the lines it prints and what it wrote; main prints the lines after
# run_meta.json is written, so a reader that closes stdout early loses no file
_Result = tuple[list[str], _Written]


def _scipy_version() -> str | None:
    """scipy's version from the METADATA of the dist-info directory beside the package, or None.

    Neither scipy nor importlib.metadata is imported, so stamping the
    version adds nothing to a command's start-up.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    site = Path(next(iter(spec.submodule_search_locations))).parent
    for info in sorted(site.glob("scipy-*.dist-info")):
        try:
            with open(info / "METADATA", encoding="utf-8") as fh:  # its headers end at the first blank line
                headers = dict(line.rstrip("\r\n").partition(": ")[::2] for line in itertools.takewhile(str.strip, fh))
        except (OSError, UnicodeDecodeError):
            continue
        if headers.get("Name", "").lower() == "scipy" and headers.get("Version"):
            return headers["Version"]
    return None


def _platform() -> str:
    """The system, its release and machine, and the glibc version where there is one.

    On Linux this is platform.platform()'s form, e.g.
    Linux-6.1.0-x86_64-with-glibc2.36, without its scan of the interpreter
    binary for the glibc version.
    """
    system = os.uname()
    parts = [system.sysname, system.release, system.machine]
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")  # "glibc 2.36"
    except (ValueError, OSError):  # not glibc
        libc = None
    if libc:
        parts += ["with", libc.replace(" ", "")]
    return "-".join(parts)


def _write_run_meta(command: str, argv: list[str], out_dir: Path, config, outputs: list[Path]) -> None:
    meta = {
        "command": command,
        "argv": argv,
        "config": dataclasses.asdict(config),
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "platform": _platform(),
            "cpu_count": os.cpu_count(),
        },
    }
    write_json(out_dir / "run_meta.json", meta)


def _config_flags(parser: argparse.ArgumentParser, through: str) -> None:
    """--config, and a flag for every PipelineConfig field of the sections up to ``through``."""
    parser.add_argument("--config", help="INI config file (one section per module)")
    sections = SECTIONS[: SECTIONS.index(through) + 1]
    for f in dataclasses.fields(PipelineConfig):
        if f.metadata["section"] in sections:
            add_option(parser, f)


def _resolve(args: argparse.Namespace) -> PipelineConfig:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(PipelineConfig) if hasattr(args, f.name)}
    return resolve_config(args.config, overrides)


def _output(path: str | Path | None, directory: bool = False) -> Path | None:
    """``path`` as an output file (or directory); commands check outputs before they read any input."""
    if path is None:
        return None
    path = Path(path)
    # an existing path must be of its kind; else its nearest existing parent must be a directory
    nearest = path if path.exists() else next(parent for parent in path.parents if parent.exists())
    if nearest.is_dir() != (directory or nearest != path):
        kind = "directory" if directory else "file"
        raise ConfigError(f"cannot write output {kind} {path}: {nearest} is {'' if nearest.is_dir() else 'not '}a directory")
    return path


def cmd_synth(args: argparse.Namespace) -> _Result:
    given = vars(args)  # only the flags given: SynthConfig holds the defaults
    values = {f.name: given[f.name] for f in dataclasses.fields(synth.SynthConfig) if f.name in given}
    if given.get("raw_256hz"):
        if "sample_rate_hz" in given:
            raise ConfigError("--raw-256hz cannot be combined with --rate")
        values["sample_rate_hz"] = 256.0
    cfg = synth.SynthConfig(**values)
    out_dir = _output(args.out, directory=True)
    # each subject is written as it is generated
    subjects = [write_recording(rec, out_dir) for rec in synth.iter_recordings(cfg)]
    manifest = write_json(out_dir / "manifest.json", {"label": cfg.label, "subjects": subjects})
    return [str(manifest)], (out_dir, cfg, [manifest])


def cmd_preprocess(args: argparse.Namespace) -> _Result:
    cfg = _resolve(args)
    manifest_path = Path(args.manifest)
    out_manifest = _output(manifest_path.with_suffix(".conditioned.json"))
    manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    subjects = [dict(entry) for entry in manifest.entries]
    outputs = []
    # a CSV that one subject writes must be no other subject's output or input
    claimed = {path.resolve(): f"subject {entry['id']!r} reads" for entry, path in zip(subjects, manifest.signal_paths)}
    for entry in subjects:  # every output is checked before the first is written
        entry["signal_path"] = str(Path(entry["signal_path"]).with_suffix(".conditioned.csv"))
        out_path = _output(base / entry["signal_path"])
        key = out_path.resolve()
        if key in claimed:
            raise ConfigError(f"{manifest_path}: subject {entry['id']!r} writes {out_path}, which {claimed[key]}")
        claimed[key] = f"subject {entry['id']!r} writes"
        outputs.append(out_path)
    # a run that fails part-way leaves no earlier run's manifest beside the CSVs it wrote
    out_manifest.unlink(missing_ok=True)
    for rec, entry, out_path in zip(iter_recordings(manifest), subjects, outputs):
        conditioned = condition(rec, cfg)
        write_signal_csv(out_path, conditioned.samples, conditioned.sample_rate_hz)
        entry["sample_rate_hz"] = conditioned.sample_rate_hz
    write_json(out_manifest, {"label": manifest.label, "subjects": subjects})
    outputs.append(out_manifest)
    return [str(out_manifest)], (base, cfg, outputs)


def cmd_features(args: argparse.Namespace) -> _Result:
    cfg = _resolve(args)
    out_path = _output(args.out)
    scalogram_dir = _output(args.dump_scalogram, directory=True)
    manifest = load_manifest(args.manifest, labelled=True)
    scalograms: list[Path] = []

    def dump(tw) -> None:  # each window's scalogram, in the featurizing pass
        scalograms.append(scalogram_dir / f"{tw.window.subject_id}_w{tw.window.window_index:04d}.csv")
        with atomic_output(scalograms[-1]) as fh:
            np.savetxt(fh, tw.coefficients, delimiter=",", fmt="%.8g")

    example_set = build_dataset(iter_recordings(manifest), cfg, dump if scalogram_dir else None)
    if not example_set.features:
        raise ConfigError(f"{args.manifest}: no subject holds a whole window; no features to write")
    header = "subject_id,window_index,day_offset,target_days," + ",".join(
        f"f_{i:03d}" for i in range(example_set.x.shape[1])
    )
    # Python floats print as the shortest text that reads back to the same value
    lines = [header] + [
        f"{fv.subject_id},{fv.window_index},{fv.day_offset},{target:g}," + ",".join(map(repr, row))
        for fv, target, row in zip(example_set.features, example_set.y.tolist(), example_set.x.tolist())
    ]
    with atomic_output(out_path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())
    return [str(out_path)], (out_path.parent, cfg, [out_path, *scalograms])


def cmd_train(args: argparse.Namespace) -> _Result:
    cfg = _resolve(args)
    model_out = _output(args.model_out)
    manifest = load_manifest(args.manifest, labelled=True)
    example_set = build_dataset(iter_recordings(manifest), cfg)
    model = fit_config(example_set.x, example_set.y, cfg, example_set.layout)
    model_path = save_model(model, model_out)
    return [str(model_path)], (model_path.parent, cfg, [model_path])


def cmd_predict(args: argparse.Namespace) -> _Result:
    cfg = _resolve(args)
    if args.observe_day is not None and not np.isfinite(args.observe_day):
        raise ConfigError(f"--observe-day must be finite, got {args.observe_day!r}")
    out = _output(args.out)
    model = load_model(args.model)
    expected_layout = layout_version(cfg.scales, cfg.time_domain)
    if model.feature_layout_version != expected_layout:
        raise ConfigError(
            f"{args.model}: model layout {model.feature_layout_version!r} does not match "
            f"current pipeline layout {expected_layout!r}"
        )
    width = FEATURES_PER_SCALE * (1 if cfg.time_domain else cfg.scales)
    if model.n_features != width:
        raise ConfigError(f"{args.model}: model width {model.n_features} does not match layout width {width}")
    if isinstance(model, Ensemble) and cfg.uq_th is None:
        raise ConfigError(f"{args.model}: --uq-th is required when predicting with an ensemble model")
    manifest = load_manifest(args.manifest)
    results = []
    for rec in iter_recordings(manifest):
        fvs = extract_subject_features(rec, cfg)
        if not fvs:
            raise ConfigError(f"{args.manifest}: subject {rec.subject_id!r} is shorter than one window; nothing to predict")
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
        del rec  # the next subject is read without this one beside it
    lines = [json.dumps(row, sort_keys=True) for row in results]
    if out is None:
        return lines, None
    out_path = write_json(out, results)
    return lines, (out_path.parent, cfg, [out_path])


def cmd_evaluate(args: argparse.Namespace) -> _Result:
    cfg = _resolve(args)
    out = _output(args.out)
    curves_dir = _output(args.curves_dir, directory=True)
    manifest = load_manifest(args.manifest, labelled=True)
    folds = loo_cv(build_dataset(iter_recordings(manifest), cfg), cfg)
    report = compute_metrics(folds, cfg, label=manifest.label)
    out_path = write_report(report, out)
    outputs = [out_path]
    if curves_dir:
        outputs += write_curves(report, curves_dir)
    return [str(out_path)], (out_path.parent, cfg, outputs)


def cmd_report(args: argparse.Namespace) -> _Result:
    curves_dir = _output(args.curves_dir, directory=True)
    report = report_from_dict(read_json(args.report), args.report)
    curve = dict(report.esd_percentiles)
    lines = [
        f"dataset:   {report.label}  (N={report.n_subjects}, strategy={report.strategy}"
        + (f", uq_th={report.uq_th:g})" if report.uq_th is not None else ")"),
        f"MAE:       {report.mae:.3f} days   (constant-mean baseline {report.baseline_mae:.3f})",
        f"ESD:       {report.esd:.3f} days   (fallbacks: {report.fallback_count})",
        f"ESD p25/p50/p75/p90: {curve[25.0]:.2f} / {curve[50.0]:.2f} / {curve[75.0]:.2f} / {curve[90.0]:.2f}",
    ]
    lag = report.tlag_curve
    if lag:
        first, last = lag[0], lag[-1]
        def fmt(row):
            esd = "n/a" if row["mean_esd"] is None else f"{row['mean_esd']:.2f}"
            return f"t_lag {row['t_lag']}: ESD {esd} ({row['n_subjects']} subjects)"
        lines.append(f"t_lag:     {fmt(first)}  ->  {fmt(last)}")
    vd = report.variance_decomposition
    lines.append(
        f"variance:  Var(Y)={vd['var_y']:.2f}  Var(Yhat)={vd['var_y_hat']:.2f}  "
        f"E[Var(Y|Yhat)]={vd['e_var_y_given_y_hat']:.2f}"
    )
    if curves_dir:
        lines += map(str, write_curves(report, curves_dir))
    return lines, None


def build_parser() -> _Parser:
    parser = _Parser(prog="sproutcast", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # a flag not given sets no attribute
    p = sub.add_parser("synth", help="generate a synthetic dataset on disk", argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, help="output directory for manifest + CSVs")
    for f in dataclasses.fields(synth.SynthConfig):
        add_option(p, f)
    p.add_argument("--raw-256hz", action="store_true", help="generate at 256 Hz to exercise conditioning")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="run the conditioning chain over a manifest")
    p.add_argument("--manifest", required=True)
    _config_flags(p, through="preprocess")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("features", help="emit the labelled feature table as CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-scalogram", help="directory for per-window scalogram CSVs")
    _config_flags(p, through="features")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="fit a model on all labelled subjects")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model-out", required=True)
    _config_flags(p, through="train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="estimate sprouting days for a manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--observe-day", type=float, help="observation day offset t (default: end of data)")
    p.add_argument("--out", help="optional JSON output path")
    _config_flags(p, through="train")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="leave-one-out evaluation with full report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--curves-dir", help="directory for plot-ready curve CSVs")
    _config_flags(p, through="evaluate")
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
        lines, written = args.func(args)
        if written is not None:
            _write_run_meta(args.command, argv, *written)
        for line in lines:
            print(line)
        # a reader that closed stdout early fails here, as one error line, not at interpreter exit
        sys.stdout.flush()
        return 0
    except FileNotFoundError as exc:
        print(f"error[{EXIT_MISSING}]: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ConfigError, IngestError, ValueError, OSError) as exc:  # an OSError from a write names its path
        if isinstance(exc, BrokenPipeError):
            # drop stdout, so the interpreter's final flush does not fail again on what it still buffers
            sys.stdout = None
        print(f"error[{EXIT_CONFIG}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error[{EXIT_CONFIG}]: {args.command}: not enough memory ({exc})", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
