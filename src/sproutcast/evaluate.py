"""Leave-one-out evaluation: per-window MAE, per-subject ESD, and the
derived diagnostics (ESD percentile curve, observation-lag sweep, and
conditional calibration of predictions).

One fold trains on every subject but one and scores every window of the
held-out subject; the two headline metrics are two-level means (first
within a subject, then across subjects).  Folds also record the
constant-mean baseline so null datasets can be recognized.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from sproutcast.config import PipelineConfig
from sproutcast.estimate import SubjectEstimate, WindowEstimate, aggregate, fallback_window, rolling_mean, window_estimates
from sproutcast.features import ExampleSet
from sproutcast.ingest import NUMBER, check_fields, is_json_type, write_json
from sproutcast.regress import fit_config


@dataclass(frozen=True)
class FoldResult:
    """Outcome of one leave-one-out fold."""

    held_out_subject: str
    per_window: list[tuple[float, float]]
    window_estimates: list[WindowEstimate]
    subject_estimate: SubjectEstimate
    mae_j: float
    esd_j: float
    baseline_mae_j: float
    true_day: int
    observation_day: float


@dataclass(frozen=True)
class EvaluationReport:
    mae: float
    esd: float
    baseline_mae: float
    esd_percentiles: list[tuple[float, float]]
    tlag_curve: list[dict]
    calibration: dict
    variance_decomposition: dict
    per_subject: list[dict]
    n_subjects: int
    fallback_count: int
    strategy: str
    uq_th: float | None
    label: str = ""


_OPTIONAL_NUMBER = (*NUMBER, type(None))
# a report field's JSON type, keyed by its annotation up to any "["
_JSON_TYPES = {"float": NUMBER, "float | None": _OPTIONAL_NUMBER, "int": int, "str": str, "dict": dict, "list": list}
_REPORT_FIELDS = {
    f.name: _JSON_TYPES[f.type.partition("[")[0]] for f in fields(EvaluationReport) if f.default is MISSING
}
_TLAG_FIELDS = {"t_lag": int, "mean_esd": _OPTIONAL_NUMBER, "n_subjects": int}
_CALIBRATION_BIN_FIELDS = {"y_hat_center": NUMBER, "e_y": NUMBER, "std_y": NUMBER, "count": int, "low_support": bool}
_VARIANCE_FIELDS = {"var_y": NUMBER, "var_y_hat": NUMBER, "e_var_y_given_y_hat": NUMBER}


def _run_fold(data: ExampleSet, cfg: PipelineConfig, fold: int) -> FoldResult:
    train = data.groups != fold
    test = ~train
    held_out = data.subject_ids()[fold]
    model = fit_config(data.x[train], data.y[train], replace(cfg, seed=cfg.seed + fold), data.layout)
    estimates = window_estimates(model, [data.features[i] for i in np.flatnonzero(test)], cfg.uq_th)
    true_day = data.true_day[held_out]
    subject_estimate = aggregate(estimates, observation_day=true_day)

    y_test = data.y[test]
    per_window = [(float(yy), e.y_hat) for yy, e in zip(y_test, estimates)]
    if subject_estimate.fallback_used:
        best = fallback_window([e for e in estimates if e.day_offset < true_day])
        scored = [e is best for e in estimates]
    else:
        scored = [e.retained for e in estimates]
    mae_j = float(np.mean([abs(e.y_hat - yy) for yy, e, s in zip(y_test, estimates, scored) if s]))
    baseline = float(np.mean(data.y[train]))
    baseline_mae_j = float(np.mean(np.abs(y_test - baseline)))
    return FoldResult(
        held_out_subject=held_out,
        per_window=per_window,
        window_estimates=estimates,
        subject_estimate=subject_estimate,
        mae_j=mae_j,
        esd_j=abs(subject_estimate.d_hat - true_day),
        baseline_mae_j=baseline_mae_j,
        true_day=true_day,
        observation_day=float(true_day),
    )


def loo_cv(data: ExampleSet, cfg: PipelineConfig | None = None) -> list[FoldResult]:
    """Run one leave-one-out fold per subject of ``data`` (see
    ``features.build_dataset``); results ordered by subject id.

    Folds are independent; cfg.jobs > 1 runs them in worker processes
    without changing any output.
    """
    cfg = cfg or PipelineConfig()
    if len(data.true_day) < 2:
        raise ValueError("leave-one-out evaluation needs at least 2 subjects")
    for sid, m in data.m_per_subject.items():
        if not m:
            raise ValueError(f"subject {sid!r} contributed no windows; cannot evaluate")
    folds = range(len(data.true_day))
    if cfg.jobs > 1:
        # imported here: it pulls in multiprocessing, socket and subprocess, and
        # most runs evaluate in one process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            return list(pool.map(partial(_run_fold, data, cfg), folds))
    return [_run_fold(data, cfg, fold) for fold in folds]


def tlag_sweep(folds: list[FoldResult], lags: range | None = None) -> list[dict]:
    """Mean ESD when estimation stops t_lag days relative to true sprouting.

    Subjects with no observable window at a lag are excluded from that
    lag's mean and counted in ``n_subjects``.
    """
    lags = lags if lags is not None else range(PipelineConfig.tlag_min, PipelineConfig.tlag_max + 1)
    curve = []
    for lag in lags:
        errors = []
        for fr in folds:
            t = fr.true_day + lag
            if not any(e.day_offset < t for e in fr.window_estimates):
                continue
            est = aggregate(fr.window_estimates, observation_day=t)
            errors.append(abs(est.d_hat - fr.true_day))
        curve.append(dict(zip(_TLAG_FIELDS, (int(lag), float(np.mean(errors)) if errors else None, len(errors)))))
    return curve


def _per_day_series(fold: FoldResult) -> tuple[np.ndarray, np.ndarray]:
    """(days, mean prediction per day) for one subject, days ascending."""
    days = sorted({e.day_offset for e in fold.window_estimates})
    by_day = {d: [] for d in days}
    for e in fold.window_estimates:
        by_day[e.day_offset].append(e.y_hat)
    day_arr = np.array(days, dtype=np.float64)
    pred = np.array([np.mean(by_day[d]) for d in days])
    return day_arr, pred


def calibration_curves(
    folds: list[FoldResult],
    bin_width: float = PipelineConfig.calibration_bin_width,
    rolling_n: int = PipelineConfig.rolling_n,
    min_support: int = 10,
) -> dict:
    """Binned E[Y|Y_hat] and Std(Y|Y_hat) over rolling-meaned daily predictions.

    Per subject the daily prediction series is smoothed with a trailing
    window of ``rolling_n`` days, then (Y, Y_hat) pairs are pooled across
    subjects and conditioned on Y_hat via fixed-width bins.  Values stay in
    the internal days-until (>= 0) convention; the CSV writer negates for
    display.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    pooled_y: list[np.ndarray] = []
    pooled_pred: list[np.ndarray] = []
    for fr in folds:
        days, pred = _per_day_series(fr)
        pooled_pred.append(rolling_mean(pred, rolling_n))
        pooled_y.append(fr.true_day - days)
    y = np.concatenate(pooled_y)
    y_hat = np.concatenate(pooled_pred)
    bin_idx = np.floor(y_hat / bin_width).astype(np.int64)
    bins = []
    for b in np.unique(bin_idx):
        sel = bin_idx == b
        count = int(sel.sum())
        row = (float((b + 0.5) * bin_width), float(y[sel].mean()), float(y[sel].std()), count, count < min_support)
        bins.append(dict(zip(_CALIBRATION_BIN_FIELDS, row)))
    return {"bin_width": bin_width, "rolling_n": rolling_n, "bins": bins}


def variance_decomposition(y, y_hat, bin_width: float | None = None) -> dict:
    """Var(Y), Var(Y_hat) and E[Var(Y|Y_hat)] with exact or binned conditioning.

    With bin_width None the conditioning groups identical Y_hat values
    (exact); otherwise fixed-width bins.  Population (ddof=0) variances
    throughout, so the law of total variance is checkable as stated.
    """
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if bin_width is None:
        _, inverse = np.unique(y_hat, return_inverse=True)
    else:
        _, inverse = np.unique(np.floor(y_hat / bin_width).astype(np.int64), return_inverse=True)
    n = len(y)
    e_var = 0.0
    for g in range(inverse.max() + 1):
        sel = inverse == g
        e_var += sel.sum() / n * float(y[sel].var())
    return dict(zip(_VARIANCE_FIELDS, (float(y.var()), float(y_hat.var()), e_var)))


def compute_metrics(
    folds: list[FoldResult],
    cfg: PipelineConfig | None = None,
    label: str = "",
) -> EvaluationReport:
    """Aggregate fold results into the full evaluation report."""
    if not folds:
        raise ValueError("no folds to aggregate")
    cfg = cfg or PipelineConfig()
    maes = np.array([fr.mae_j for fr in folds])
    esds = np.array([fr.esd_j for fr in folds])
    percentiles = np.arange(0, 101)
    esd_curve = np.percentile(esds, percentiles)
    pooled = [(yy, yh) for fr in folds for yy, yh in fr.per_window]
    pooled_y = np.array([p[0] for p in pooled])
    pooled_yhat = np.array([p[1] for p in pooled])
    per_subject = [
        {
            "subject_id": fr.held_out_subject,
            "mae": fr.mae_j,
            "esd": fr.esd_j,
            "baseline_mae": fr.baseline_mae_j,
            "d_hat": fr.subject_estimate.d_hat,
            "true_day": fr.true_day,
            "n_windows_used": fr.subject_estimate.n_windows_used,
            "fallback_used": fr.subject_estimate.fallback_used,
        }
        for fr in folds
    ]
    return EvaluationReport(
        mae=float(maes.mean()),
        esd=float(esds.mean()),
        baseline_mae=float(np.mean([fr.baseline_mae_j for fr in folds])),
        esd_percentiles=[(float(p), float(v)) for p, v in zip(percentiles, esd_curve)],
        tlag_curve=tlag_sweep(folds, range(cfg.tlag_min, cfg.tlag_max + 1)),
        calibration=calibration_curves(folds, cfg.calibration_bin_width, cfg.rolling_n),
        variance_decomposition=variance_decomposition(
            pooled_y, pooled_yhat, cfg.calibration_bin_width
        ),
        per_subject=per_subject,
        n_subjects=len(folds),
        fallback_count=sum(fr.subject_estimate.fallback_used for fr in folds),
        strategy=cfg.strategy,
        uq_th=cfg.uq_th,
        label=label,
    )


def report_from_dict(d, where: str = "report") -> EvaluationReport:
    """Rebuild a report written by ``write_report``.

    Raises ValueError on a missing key or a value of the wrong type in any
    part that the report viewer or ``write_curves`` reads.
    """
    check_fields(d, _REPORT_FIELDS, where, {"label": str})
    pairs = d["esd_percentiles"]
    if not all(isinstance(pair, list) and len(pair) == 2 and all(is_json_type(v, NUMBER) for v in pair) for pair in pairs):
        raise ValueError(f"{where}: esd_percentiles must be [percentile, value] number pairs")
    if [p for p, _ in pairs] != list(range(101)):
        raise ValueError(f"{where}: esd_percentiles must list percentiles 0 to 100 in order")
    for i, row in enumerate(d["tlag_curve"]):
        check_fields(row, _TLAG_FIELDS, f"{where}: tlag_curve[{i}]")
    check_fields(d["calibration"], {"bins": list}, f"{where}: calibration")
    for i, row in enumerate(d["calibration"]["bins"]):
        check_fields(row, _CALIBRATION_BIN_FIELDS, f"{where}: calibration bins[{i}]")
    check_fields(d["variance_decomposition"], _VARIANCE_FIELDS, f"{where}: variance_decomposition")
    values = {key: d[key] for key in _REPORT_FIELDS}
    values["esd_percentiles"] = [(float(p), float(v)) for p, v in pairs]
    return EvaluationReport(**values, label=d.get("label", ""))


def write_report(report: EvaluationReport, path: str | Path) -> Path:
    return write_json(path, asdict(report))


def write_curves(report: EvaluationReport, out_dir: str | Path) -> list[Path]:
    """Write plot-ready CSVs: ESD percentiles, t_lag sweep, calibration.

    Calibration axes are negated here (and only here) to match the
    presentation convention where sprouting lies -Y days ahead.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {
        "esd_percentiles.csv": ("percentile,esd_days", [f"{pct:g},{val!r}" for pct, val in report.esd_percentiles]),
        "tlag.csv": ("t_lag,mean_esd_days,n_subjects", [
            f"{r['t_lag']},{'' if r['mean_esd'] is None else repr(r['mean_esd'])},{r['n_subjects']}"
            for r in report.tlag_curve
        ]),
        "calibration.csv": ("y_hat_center,e_y,std_y,count,low_support", [
            f"{-r['y_hat_center']!r},{-r['e_y']!r},{r['std_y']!r},{r['count']},{int(r['low_support'])}"
            for r in report.calibration["bins"]
        ]),
    }
    paths = [out_dir / name for name in tables]
    for path, (header, rows) in zip(paths, tables.values()):
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return paths


__all__ = [
    "FoldResult",
    "EvaluationReport",
    "loo_cv",
    "tlag_sweep",
    "calibration_curves",
    "variance_decomposition",
    "compute_metrics",
    "report_from_dict",
    "write_report",
    "write_curves",
]
