"""Per-scale descriptors and supervised dataset assembly.

Every coefficient series (or raw window, in time-domain mode) is reduced
to 14 statistics; the per-scale blocks are concatenated scale-major into
one flat feature vector per window.  The layout string names the domain,
scale count and feature count so a trained model can refuse vectors built
under a different layout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from sproutcast.config import PipelineConfig
from sproutcast.ingest import IngestError, Recording
from sproutcast.preprocess import SignalWindow, condition, segment
from sproutcast.wavelet import ScalePlan, TransformedWindow, cwt, plan_scales


@dataclass(frozen=True)
class ScaleFeatures:
    """The 14 statistics of one coefficient series."""

    energy: float
    p5: float
    p25: float
    median: float
    mean: float
    p75: float
    p95: float
    std: float
    min: float
    max: float
    entropy: float
    zero_crossings: int
    mean_crossings: int
    rms: float


FEATURE_NAMES = tuple(f.name for f in fields(ScaleFeatures))
FEATURES_PER_SCALE = len(FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureVector:
    """Concatenated per-scale features for one window, stamped with its day."""

    subject_id: str
    window_index: int
    day_offset: int
    values: np.ndarray


@dataclass(frozen=True)
class ExampleSet:
    """A supervised dataset, one row per window.

    Rows are ordered by subject id, then window index.  ``x`` (N, F) holds
    the feature rows and ``y`` the targets D_j - d_i in days; ``groups``
    maps each row to its subject's index in ``subject_ids()``, and
    ``features`` holds each row's FeatureVector.  ``true_day`` is the
    ground-truth sprouting day offset D_j keyed by subject id.
    """

    x: np.ndarray
    y: np.ndarray
    groups: np.ndarray
    features: list[FeatureVector]
    layout: str
    true_day: dict[str, int]

    def subject_ids(self) -> list[str]:
        return sorted(self.true_day)

    @property
    def m_per_subject(self) -> dict[str, int]:
        """Window counts M_j keyed by subject id."""
        ids = self.subject_ids()
        return dict(zip(ids, np.bincount(self.groups, minlength=len(ids)).tolist()))

    def matrix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (x, y, groups)."""
        return self.x, self.y, self.groups


def layout_version(k: int, time_domain: bool = False) -> str:
    if time_domain:
        return f"time-f{FEATURES_PER_SCALE}-v1"
    return f"wavelet-morlet-k{k}-f{FEATURES_PER_SCALE}-v1"


_PERCENTS = (5.0, 25.0, 50.0, 75.0, 95.0)
# numpy's "linear" percentile rule puts quantile q at virtual index (n - 1) * q
_QUANTILES = np.array(_PERCENTS) / 100
# rows are sorted and reduced at most 512 KiB at a time, counted in bytes, not
# rows: a 1 Hz day row (86400 samples, 675 KiB) is reduced on its own, so its
# temporaries are a few rows long, while the 8 rows of a 1080-sample window
# (68 KiB) are reduced in one chunk
_CHUNK_BYTES = 512 << 10
# the smallest normal float: a bin width below it is subnormal
_TINY = np.finfo(np.float64).tiny


@lru_cache(maxsize=16)
def _percentile_plan(n: int) -> tuple[np.ndarray, ...]:
    """For rows of n samples: each quantile's ranks below and above, its weight t, 1 - t and t >= 0.5."""
    virtual = (n - 1) * _QUANTILES
    prev = np.floor(virtual)
    nxt = prev + 1
    top = virtual >= n - 1
    prev[top] = nxt[top] = -1
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    t = virtual - prev
    plan = prev, nxt, t, 1 - t, t >= 0.5
    for a in plan:  # every caller shares them
        a.flags.writeable = False
    return plan


def _percentiles(s: np.ndarray) -> np.ndarray:
    """The 5th, 25th, 50th, 75th and 95th percentile of each sorted row.

    numpy's quantile interpolation: from the rank below for t < 0.5, from
    the rank above for t >= 0.5.
    """
    prev, nxt, t, rest, upper = _percentile_plan(s.shape[1])
    a, b = s[:, prev], s[:, nxt]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * rest, out=out, where=upper)
    return out


def _entropy(s: np.ndarray, lo: np.ndarray, hi: np.ndarray, bins: int) -> np.ndarray:
    """Histogram entropy of each sorted row over its own range; 0 if constant.

    Bin i is [e_i, e_i+1) on the edges of ``np.linspace(lo, hi, bins + 1)``,
    the last bin closed, as in ``np.histogram``; the counts are read off the
    sorted row by binary search.  Each row's terms are summed as one array
    of their own: padding rows with zeros, or ``np.add.reduceat`` over one
    long array, would change numpy's pairwise sum in the last bit.
    """
    n = s.shape[1]
    entropy = np.zeros(len(s))
    spread = np.flatnonzero(hi > lo)
    if not spread.size:
        return entropy
    # np.linspace(lo, hi, bins + 1) of each row; where its step underflows to 0
    # linspace takes another branch, but such edges never increase strictly
    width = (hi - lo)[spread, None] / bins
    edges = np.arange(bins + 1.0) * width + lo[spread, None]
    edges[:, -1] = hi[spread]
    if np.any(edges[:, :-1] >= edges[:, 1:]):
        raise ValueError(f"Too many bins for data range. Cannot create {bins} finite-sized bins.")
    below = np.empty(edges.shape, dtype=np.intp)
    for i, row in enumerate(spread):
        below[i] = s[row].searchsorted(edges[i])
    below[:, -1] = n
    counts = np.diff(below, axis=1)
    # np.histogram corrects its estimate of a bin by at most one; a subnormal
    # width is a whole number of the smallest floats, which can put an edge
    # further off than that, so such rows are counted by np.histogram itself
    for i in np.flatnonzero(width[:, 0] < _TINY):
        row = spread[i]
        counts[i] = np.histogram(s[row], bins=bins, range=(lo[row], hi[row]))[0]
    nonzero = counts > 0
    p = counts[nonzero] / n
    terms = p * np.log(p)
    ends = np.cumsum(nonzero.sum(axis=1)).tolist()
    entropy[spread] = [-np.add.reduce(terms[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    return entropy


def _mixed_zero_rows(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``x``, with bounds lo and hi, that hold both a -0.0 and a 0.0."""
    rows = np.flatnonzero((lo <= 0.0) & (hi >= 0.0))
    block = x[rows]
    zero = block == 0.0
    negative = np.signbit(block)
    return rows[(zero & negative).any(axis=1) & (zero & ~negative).any(axis=1)]


def _reduce_chunk(x: np.ndarray, bins: int) -> np.ndarray:
    n = x.shape[1]
    s = np.sort(x, axis=1)
    lo, hi = s[:, 0].copy(), s[:, -1].copy()
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("series contains non-finite values")
    pct = _percentiles(s)
    # -0.0 and 0.0 compare equal, so where a row holds both, the sign that the
    # sort (which may rewrite zeros' signs) leaves at an end or a rank is not
    # what numpy's min, max and partition give; such rows take those calls
    if lo.min() <= 0.0:
        for row in _mixed_zero_rows(x, lo, hi):
            lo[row], hi[row] = x[row].min(), x[row].max()
            pct[row] = np.percentile(x[row], _PERCENTS)
    mean = np.add.reduce(x, axis=1) / n
    centered = x - mean[:, None]
    energy = np.add.reduce(x * x, axis=1)
    out = np.empty((len(x), FEATURES_PER_SCALE))  # in FEATURE_NAMES' order
    out[:, 0] = energy
    out[:, 1:4] = pct[:, :3]
    out[:, 4] = mean
    out[:, 5:7] = pct[:, 3:]
    out[:, 7] = np.sqrt(np.add.reduce(centered * centered, axis=1) / n)
    out[:, 8] = lo
    out[:, 9] = hi
    out[:, 10] = _entropy(s, lo, hi, bins)
    # no product of two non-negative floats (-0.0 included) is < 0, so a row
    # whose minimum is >= 0, as every |CWT| row is, has no zero crossing
    out[:, 11] = 0.0
    for row in np.flatnonzero(lo < 0.0):
        out[row, 11] = np.count_nonzero(x[row, :-1] * x[row, 1:] < 0.0)
    out[:, 12] = np.count_nonzero(centered[:, :-1] * centered[:, 1:] < 0.0, axis=1)
    out[:, 13] = np.sqrt(energy / n)
    return out


def _reduce_rows(rows: np.ndarray, entropy_bins: int) -> np.ndarray:
    """The 14 statistics of every row of an (R, n) block, as an (R, 14) array.

    One sort per row gives min, max, the five percentiles and the histogram
    counts; everything else is a reduction along the row.  Each value is
    bit for bit what numpy gives for one row on its own: ``x.min()``,
    ``np.percentile(x, q)``, ``np.histogram(x, bins, range=(min, max))``,
    ``x.mean()``, ``x.std()`` and ``np.add.reduce(x * x)``.  No value goes
    through BLAS, whose sums depend on its thread count.
    """
    x = np.ascontiguousarray(rows, dtype=np.float64)
    if x.ndim != 2 or 0 in x.shape:
        raise ValueError("rows must be a non-empty 2-D block")
    if entropy_bins < 1:
        raise ValueError("entropy_bins must be positive")
    step = max(1, _CHUNK_BYTES // (x.itemsize * x.shape[1]))
    return np.concatenate([_reduce_chunk(x[i : i + step], entropy_bins) for i in range(0, len(x), step)])


def _feature_row(x: np.ndarray, entropy_bins: int) -> np.ndarray:
    """The 14 statistics of one series (a one-row ``_reduce_rows``)."""
    return _reduce_rows(np.asarray(x, dtype=np.float64)[None, :], entropy_bins)[0]


def extract_scale_features(coeffs: np.ndarray, entropy_bins: int = PipelineConfig.entropy_bins) -> ScaleFeatures:
    """Reduce one coefficient series to its 14-statistic descriptor.

    Percentiles interpolate linearly between closest ranks; entropy is the
    Shannon entropy (nats) of an equal-width histogram over the series' own
    range, defined as 0 for a constant series; crossings count strict sign
    changes only.
    """
    x = np.asarray(coeffs, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("coefficient series must be 1-D with at least 2 samples")
    row = _feature_row(x, entropy_bins)
    kwargs = dict(zip(FEATURE_NAMES, row))
    kwargs["zero_crossings"] = int(kwargs["zero_crossings"])
    kwargs["mean_crossings"] = int(kwargs["mean_crossings"])
    return ScaleFeatures(**kwargs)


def build_feature_vector(
    tw: TransformedWindow,
    plan: ScalePlan,
    subject_id: str = "",
    day_offset: int = 0,
    entropy_bins: int = PipelineConfig.entropy_bins,
) -> FeatureVector:
    """Concatenate per-scale descriptors, scale-major, into one flat vector."""
    coeffs = tw.coefficients
    if coeffs.shape[0] != plan.k:
        raise ValueError(f"transform has {coeffs.shape[0]} scales, plan expects {plan.k}")
    values = _reduce_rows(coeffs, entropy_bins).ravel()
    return FeatureVector(
        subject_id=subject_id,
        window_index=tw.window_index,
        day_offset=day_offset,
        values=values,
    )


def extract_subject_features(
    rec: Recording,
    cfg: PipelineConfig,
    on_transform: Callable[[SignalWindow, TransformedWindow], None] | None = None,
) -> list[FeatureVector]:
    """Condition, segment and featurize one recording (no labels needed).

    Each window's |CWT| is dropped before the next one is made.  If given,
    ``on_transform`` receives every window with its |CWT| first; the
    transform is then made in time-domain mode too, where no feature uses it.
    """
    rec = condition(rec, cfg)
    windows = segment(rec, cfg.window_seconds)
    plan = None
    if windows and (on_transform is not None or not cfg.time_domain):
        plan = plan_scales(rec.sample_rate_hz, len(windows[0].samples), cfg.scales, cfg.omega0)
    vectors = []
    for w in windows:
        tw = cwt(w, plan) if plan is not None else None
        if on_transform is not None:
            on_transform(w, tw)
        if cfg.time_domain:
            values = _feature_row(w.samples, cfg.entropy_bins)
            vectors.append(FeatureVector(w.subject_id, w.window_index, w.day_offset, values))
        else:
            vectors.append(build_feature_vector(tw, plan, w.subject_id, w.day_offset, cfg.entropy_bins))
        del tw
    return vectors


def build_dataset(
    recordings: Iterable[Recording],
    cfg: PipelineConfig | None = None,
    on_transform: Callable[[SignalWindow, TransformedWindow], None] | None = None,
) -> ExampleSet:
    """Assemble the supervised dataset over all labelled recordings.

    Each retained window becomes one row with target D_j - d_i in whole
    days.  Row order is deterministic: subjects sorted by id, windows by
    index, whatever order the recordings come in.  Accepts any iterable of
    recordings, so a corpus can be streamed one subject at a time, and
    refuses, as it reaches it, a recording without a sprouting_day, a
    repeated id or a window after sprouting; ``on_transform`` is passed to
    ``extract_subject_features``.
    """
    cfg = cfg or PipelineConfig()
    per_subject: dict[str, list[FeatureVector]] = {}
    true_day: dict[str, int] = {}
    for rec in recordings:
        if rec.sprouting_day is None:
            raise IngestError(f"subject {rec.subject_id!r} has no sprouting_day; cannot label")
        if rec.subject_id in per_subject:
            raise IngestError(f"duplicate subject_id {rec.subject_id!r}")
        d_true = rec.sprouting_day_offset
        vectors = extract_subject_features(rec, cfg, on_transform)
        for fv in vectors:
            if fv.day_offset > d_true:
                raise IngestError(
                    f"subject {rec.subject_id!r}: window at day {fv.day_offset} is after "
                    f"the sprouting day {d_true}"
                )
        per_subject[rec.subject_id] = vectors
        true_day[rec.subject_id] = d_true
        del rec  # the next subject is read without this one beside it
    ids = sorted(per_subject)
    features = [fv for sid in ids for fv in per_subject[sid]]
    return ExampleSet(
        x=np.stack([fv.values for fv in features]) if features else np.empty((0, 0)),
        y=np.array([true_day[fv.subject_id] - fv.day_offset for fv in features], dtype=np.float64),
        groups=np.repeat(np.arange(len(ids)), [len(per_subject[sid]) for sid in ids]),
        features=features,
        layout=layout_version(cfg.scales, cfg.time_domain),
        true_day=true_day,
    )


__all__ = [
    "FEATURE_NAMES",
    "FEATURES_PER_SCALE",
    "ScaleFeatures",
    "FeatureVector",
    "ExampleSet",
    "layout_version",
    "extract_scale_features",
    "build_feature_vector",
    "extract_subject_features",
    "build_dataset",
]
