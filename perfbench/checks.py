"""Output checks that do not trust the program.

Everything here is written from the documented behaviour of sproutcast
(README, module docstrings), not by calling it: the synth truth is redrawn
from the seed, CSV text is parsed with Python's ``float``, the CWT oracle
is a direct O(W) sum over a Morlet kernel built here, the 14 statistics
use a sort-based percentile and an explicit histogram, and predictions
are recomputed by walking the saved model JSON.  Every check returns a
list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np

SECONDS_PER_DAY = 86400
# two-sided 95% Student-t critical value for 10 members (9 degrees of
# freedom), the tabulated value the README's confidence interval uses
T_CRIT_975 = {9: 2.262}
FEATURE_COUNT = 14
FLOAT_RTOL = 1e-9


def synth_truth(seed: int, n_subjects: int, days_min: int, days_max: int) -> list[int]:
    """Redraw each subject's sprouting day the way synth documents it.

    Subject ``i`` draws from its own stream ``SeedSequence(seed, spawn_key=(i,))``
    and its first draw is the recording length in whole days.
    """
    days = []
    for index in range(n_subjects):
        ss = np.random.SeedSequence(entropy=seed % (2**63), spawn_key=(index,))
        days.append(int(np.random.default_rng(ss).integers(days_min, days_max, endpoint=True)))
    return days


# ---------------------------------------------------------------- CSV text


def read_csv_lines(path: Path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def check_csv(lines: list[str], rate_hz: float, days: int, sample_rows: np.ndarray, name: str) -> list[str]:
    """Header, row count, and bit-exact round trip of the sampled rows.

    A row is bit-exact when each field parses to one float64 that prints
    back to the same 17-digit text, and the elapsed column equals
    ``row / rate`` exactly.
    """
    fails = []
    if not lines or lines[0] != "elapsed_seconds,voltage_volts":
        return [f"{name}: bad CSV header {lines[:1]!r}"]
    expected = int(round(days * rate_hz * SECONDS_PER_DAY))
    if len(lines) - 1 != expected:
        fails.append(f"{name}: {len(lines) - 1} rows, expected {expected} for {days} days")
    for row in sample_rows:
        if row + 1 >= len(lines):
            continue
        fields = lines[row + 1].split(",")
        if len(fields) != 2:
            fails.append(f"{name} row {row}: {len(fields)} fields")
            continue
        for text in fields:
            value = float(text)
            if not math.isfinite(value) or "%.17g" % value != text:
                fails.append(f"{name} row {row}: {text!r} does not round-trip")
        if float(fields[0]) != row / rate_hz:
            fails.append(f"{name} row {row}: elapsed {fields[0]} != {row}/{rate_hz!r}")
    return fails


def csv_voltages(lines: list[str]) -> np.ndarray:
    return np.fromiter((float(line.partition(",")[2]) for line in lines[1:]), np.float64, len(lines) - 1)


# ---------------------------------------------------------------- wavelet


def scale_plan(rate_hz: float, window_len: int, k: int = 8, omega0: float = 6.0) -> np.ndarray:
    """Morlet scales for K log-spaced frequencies from rate/4 down to 4 cycles per window."""
    f_max = rate_hz / 4.0
    f_min = 4.0 * rate_hz / window_len
    freqs = f_max * (f_min / f_max) ** (np.arange(k) / (k - 1))
    return omega0 * rate_hz / (2.0 * math.pi * freqs)


def _morlet_at(offsets: np.ndarray, scale: float, omega0: float) -> np.ndarray:
    t = offsets / scale
    return np.exp(1j * omega0 * t - 0.5 * t * t)


def cwt_direct_at(x: np.ndarray, scale: float, positions, omega0: float = 6.0) -> np.ndarray:
    """|sum_m x[m] psi[(b - m) mod W]| at each position b, one O(W) sum each.

    psi is the unit-L2 complex Morlet sampled at signed circular offsets in
    [-W/2, W/2); x is mean-removed first.
    """
    w = len(x)
    xc = x - x.mean()
    m = np.arange(w)
    norm = np.sqrt(np.sum(np.abs(_morlet_at((m + w // 2) % w - w // 2, scale, omega0)) ** 2))
    out = []
    for b in positions:
        signed = (b - m + w // 2) % w - w // 2
        out.append(abs(np.dot(xc, _morlet_at(signed, scale, omega0))) / norm)
    return np.array(out)


def morlet_ffts(window_len: int, scales: np.ndarray, omega0: float = 6.0) -> np.ndarray:
    """FFTs of the unit-L2 Morlet kernels at signed circular offsets, (K, W)."""
    w = window_len
    signed = (np.arange(w) + w // 2) % w - w // 2
    kernels = np.stack([_morlet_at(signed, s, omega0) for s in scales])
    kernels /= np.sqrt(np.sum(np.abs(kernels) ** 2, axis=1, keepdims=True))
    return np.fft.fft(kernels, axis=1)


def cwt_fft(x: np.ndarray, kernel_ffts: np.ndarray) -> np.ndarray:
    """The same circular transform for all scales through the FFT, (K, W)."""
    spectrum = np.fft.fft(x - x.mean())
    return np.abs(np.fft.ifft(spectrum[None, :] * kernel_ffts, axis=1))


# ---------------------------------------------------------------- features


def _percentile_sorted(s: np.ndarray, q: float) -> float:
    pos = q / 100.0 * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return float(s[lo] + (pos - lo) * (s[hi] - s[lo]))


def _entropy(x: np.ndarray, lo: float, hi: float, bins: int) -> float:
    if not hi > lo:
        return 0.0
    # equal-width bins, each [e_i, e_i+1) except the last, which is closed
    edges = np.linspace(lo, hi, bins + 1)
    index = np.minimum(np.searchsorted(edges, x, side="right") - 1, bins - 1)
    counts = np.bincount(index, minlength=bins)
    p = counts[counts > 0] / len(x)
    return float(-np.sum(p * np.log(p)))


def _crossings(x: np.ndarray) -> int:
    a, b = x[:-1], x[1:]
    return int(np.count_nonzero(((a < 0) & (b > 0)) | ((a > 0) & (b < 0))))


def stats14(x: np.ndarray, bins: int = 64) -> np.ndarray:
    """energy, p5, p25, median, mean, p75, p95, std, min, max, entropy,
    zero crossings, mean crossings, rms of one series."""
    s = np.sort(x)
    n = len(x)
    energy = float(np.dot(x, x))
    mean = float(np.sum(x) / n)
    std = math.sqrt(float(np.sum((x - mean) ** 2)) / n)
    pcts = [_percentile_sorted(s, q) for q in (5.0, 25.0, 50.0)]
    pcts_hi = [_percentile_sorted(s, q) for q in (75.0, 95.0)]
    lo, hi = float(s[0]), float(s[-1])
    return np.array(
        [energy, *pcts, mean, *pcts_hi, std, lo, hi, _entropy(x, lo, hi, bins),
         _crossings(x), _crossings(x - mean), math.sqrt(energy / n)]
    )


def window_features(window: np.ndarray, kernel_ffts: np.ndarray, bins: int = 64) -> np.ndarray:
    return np.concatenate([stats14(row, bins) for row in cwt_fft(window, kernel_ffts)])


def subject_features(samples: np.ndarray, window_len: int, scales: np.ndarray) -> np.ndarray:
    """Feature rows of every whole window, row i for the window on day i."""
    kernel_ffts = morlet_ffts(window_len, scales)
    n = len(samples) // window_len
    return np.stack([window_features(samples[i * window_len : (i + 1) * window_len], kernel_ffts) for i in range(n)])


def compare_features(program: np.ndarray, own: np.ndarray, name: str) -> list[str]:
    """Float statistics to FLOAT_RTOL, crossing counts exactly."""
    program = np.asarray(program, dtype=np.float64).reshape(-1, FEATURE_COUNT)
    own = np.asarray(own, dtype=np.float64).reshape(-1, FEATURE_COUNT)
    if program.shape != own.shape:
        return [f"{name}: feature shape {program.shape} != {own.shape}"]
    counts = [11, 12]
    floats = [i for i in range(FEATURE_COUNT) if i not in counts]
    fails = []
    if not np.array_equal(program[:, counts], own[:, counts]):
        fails.append(f"{name}: crossing counts differ")
    scale = np.maximum(np.abs(own[:, floats]), 1e-12)
    worst = float(np.max(np.abs(program[:, floats] - own[:, floats]) / scale))
    if not worst <= FLOAT_RTOL:
        fails.append(f"{name}: statistics differ by {worst:.3g} (relative)")
    return fails


def compare_cwt(program: np.ndarray, window: np.ndarray, scales: np.ndarray, positions, name: str) -> list[str]:
    """Program |CWT| at sampled positions against the direct O(W) sum.

    The tolerance is relative to ||x||, which bounds every coefficient of a
    unit-norm kernel.
    """
    program = np.asarray(program, dtype=np.float64)
    direct = np.stack([cwt_direct_at(window, s, positions) for s in scales])
    if program.shape != direct.shape:
        return [f"{name}: CWT sample shape {program.shape} != {direct.shape}"]
    bound = FLOAT_RTOL * float(np.linalg.norm(window - window.mean()))
    worst = float(np.max(np.abs(program - direct)))
    return [] if worst <= bound else [f"{name}: CWT differs from direct sum by {worst:.3g} > {bound:.3g}"]


# ---------------------------------------------------------------- model


def tree_walk(tree: dict, x: np.ndarray) -> float:
    """Follow one flattened tree from the root; feature == -1 marks a leaf."""
    feature, threshold, left, right = tree["feature"], tree["threshold"], tree["left"], tree["right"]
    node = 0
    for _ in range(len(feature) + 1):
        f = feature[node]
        if f < 0:
            return float(tree["value"][node])
        node = left[node] if x[f] <= threshold[node] else right[node]
    raise ValueError("tree walk did not reach a leaf")


def single_predict(model: dict, x: np.ndarray) -> float:
    lr = model["spec"]["learning_rate"]
    out = model["base_prediction"]
    for tree in model["trees"]:
        out += lr * tree_walk(tree, x)
    return out


def model_predict(model: dict, x: np.ndarray) -> tuple[float, float | None]:
    """(y_hat, 95% CI half-width or None) for one feature row."""
    if model["kind"] == "single":
        return single_predict(model, x), None
    preds = np.array([single_predict(m, x) for m in model["members"]])
    n = len(preds)
    return float(preds.mean()), T_CRIT_975[n - 1] * float(preds.std(ddof=1)) / math.sqrt(n)


def estimate_subject(model: dict, rows: np.ndarray, uq_th: float | None, observe_day: float) -> dict:
    """Per-window d = day + y_hat, CI filter, mean of the retained windows
    before the observation day, else the tightest-CI window."""
    windows = []
    for day, x in enumerate(rows):
        y_hat, half = model_predict(model, x)
        retained = half is None or 2.0 * half <= uq_th
        windows.append((day, day + y_hat, half, retained))
    observable = [w for w in windows if w[0] < observe_day]
    kept = [w for w in observable if w[3]]
    if kept:
        return {"d_hat": float(np.mean([w[1] for w in kept])), "n_windows_used": len(kept), "fallback_used": False}
    best = min(observable, key=lambda w: (math.inf if w[2] is None else w[2], w[0]))
    return {"d_hat": best[1], "n_windows_used": 1, "fallback_used": True}


def check_model(model: dict, kind: str, n_trees: int, max_depth: int, n_features: int) -> list[str]:
    fails = []
    if model.get("kind") != kind:
        return [f"model kind {model.get('kind')!r} != {kind!r}"]
    members = model["members"] if kind == "ensemble" else [model]
    if kind == "ensemble" and len(members) != 10:
        fails.append(f"ensemble has {len(members)} members, expected 10")
    for u, member in enumerate(members):
        if member["n_features"] != n_features:
            fails.append(f"member {u}: n_features {member['n_features']} != {n_features}")
        if len(member["trees"]) != n_trees:
            fails.append(f"member {u}: {len(member['trees'])} trees, expected {n_trees}")
        for tree in member["trees"]:
            if _depth(tree, 0) > max_depth:
                fails.append(f"member {u}: a tree is deeper than {max_depth}")
                break
    return fails


def _depth(tree: dict, node: int) -> int:
    if tree["feature"][node] < 0:
        return 0
    return 1 + max(_depth(tree, tree["left"][node]), _depth(tree, tree["right"][node]))


def check_predictions(
    rows: list[dict],
    model: dict,
    features: dict[str, np.ndarray],
    start_days: dict[str, date],
    truth: dict[str, int],
    uq_th: float,
    error_bound: float,
    mean_error_bound: float | None = None,
) -> list[str]:
    """Recompute every d_hat from the model JSON and bound its error: each
    target's by ``error_bound`` and, if given, their mean by ``mean_error_bound``."""
    fails = []
    if sorted(r["subject_id"] for r in rows) != sorted(features):
        return [f"predicted subjects {sorted(r['subject_id'] for r in rows)} != {sorted(features)}"]
    errors = []
    for row in rows:
        sid = row["subject_id"]
        feats = features[sid]
        own = estimate_subject(model, feats, uq_th, observe_day=len(feats))
        if not abs(row["d_hat_day_offset"] - own["d_hat"]) <= 1e-9 * max(1.0, abs(own["d_hat"])):
            fails.append(f"{sid}: d_hat {row['d_hat_day_offset']!r} != recomputed {own['d_hat']!r}")
        for key in ("n_windows_used", "fallback_used"):
            if row[key] != own[key]:
                fails.append(f"{sid}: {key} {row[key]!r} != recomputed {own[key]!r}")
        expected_date = (start_days[sid] + timedelta(days=round(own["d_hat"]))).isoformat()
        if row["estimated_date"] != expected_date:
            fails.append(f"{sid}: estimated_date {row['estimated_date']} != {expected_date}")
        errors.append(abs(row["d_hat_day_offset"] - truth[sid]))
        if not errors[-1] <= error_bound:
            fails.append(f"{sid}: error {errors[-1]:.2f} days against the withheld truth exceeds {error_bound}")
    if mean_error_bound is not None and not sum(errors) / len(errors) <= mean_error_bound:
        fails.append(f"mean error {sum(errors) / len(errors):.2f} days against the withheld truth exceeds {mean_error_bound}")
    return fails


# ---------------------------------------------------------------- report


def check_report(
    report: dict,
    truth: dict[str, int],
    window_counts: dict[str, int],
    strategy: str,
    esd_bound: float | None,
) -> list[str]:
    """Headline means, ESD curve and per-subject fields against the truth.

    With ``esd_bound`` set, also require ESD <= bound and MAE below the
    constant-mean baseline (criterion 9 on the planted signature).
    """
    fails = []
    per = report["per_subject"]
    if report["strategy"] != strategy:
        fails.append(f"strategy {report['strategy']!r} != {strategy!r}")
    if sorted(s["subject_id"] for s in per) != sorted(truth) or report["n_subjects"] != len(truth):
        return fails + [f"report subjects {[s['subject_id'] for s in per]} != {sorted(truth)}"]
    esds = []
    for s in per:
        sid = s["subject_id"]
        if s["true_day"] != truth[sid]:
            fails.append(f"{sid}: true_day {s['true_day']} != synth draw {truth[sid]}")
        esd = abs(s["d_hat"] - truth[sid])
        esds.append(esd)
        if not math.isclose(s["esd"], esd, rel_tol=1e-12, abs_tol=1e-12):
            fails.append(f"{sid}: esd {s['esd']!r} != |d_hat - truth| {esd!r}")
        if not 1 <= s["n_windows_used"] <= window_counts[sid]:
            fails.append(f"{sid}: n_windows_used {s['n_windows_used']} outside [1, {window_counts[sid]}]")
    for key, values in (
        ("mae", [s["mae"] for s in per]),
        ("esd", esds),
        ("baseline_mae", [s["baseline_mae"] for s in per]),
    ):
        mean = math.fsum(values) / len(values)
        if not math.isclose(report[key], mean, rel_tol=1e-9, abs_tol=1e-12):
            fails.append(f"headline {key} {report[key]!r} != recomputed mean {mean!r}")
    if report["fallback_count"] != sum(bool(s["fallback_used"]) for s in per):
        fails.append("fallback_count does not match per_subject")
    curve = report["esd_percentiles"]
    if [p for p, _ in curve] != [float(p) for p in range(101)]:
        fails.append("ESD percentile curve is not p0..p100")
    else:
        values = [v for _, v in curve]
        if any(b < a for a, b in zip(values, values[1:])):
            fails.append("ESD percentile curve is not monotone")
        if not math.isclose(values[0], min(esds), abs_tol=1e-12) or not math.isclose(values[-1], max(esds), abs_tol=1e-12):
            fails.append(f"ESD curve ends {values[0]!r}, {values[-1]!r} != min/max ESD {min(esds)!r}, {max(esds)!r}")
    if esd_bound is not None:
        if not report["esd"] <= esd_bound:
            fails.append(f"{strategy}: ESD {report['esd']:.3f} exceeds {esd_bound}")
        if not report["mae"] < report["baseline_mae"]:
            fails.append(f"{strategy}: MAE {report['mae']:.3f} not below baseline {report['baseline_mae']:.3f}")
    return fails
