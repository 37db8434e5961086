"""Data model and disk I/O for multi-subject voltage recordings.

A dataset lives on disk as one JSON manifest plus one signal CSV per
subject.  The CSV has a mandatory header ``elapsed_seconds,voltage_volts``;
all calendar fields are ISO-8601 dates and all internal day arithmetic is
integer offsets from each recording's start day.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

CSV_HEADER = "elapsed_seconds,voltage_volts"
_CSV_CHUNK_ROWS = 8192


class IngestError(ValueError):
    """Raised when a manifest or signal file violates the dataset contract."""


@dataclass(frozen=True)
class Recording:
    """One subject's raw voltage time series plus storage metadata.

    ``sprouting_day`` is the ground-truth event date; it may be absent for
    inference-only subjects, in which case the recording can be used for
    prediction but is rejected by training and evaluation.
    """

    subject_id: str
    variety: str
    storage_temp_c: int
    sample_rate_hz: float
    start_day: date
    samples: np.ndarray
    sprouting_day: date | None = None

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise IngestError(f"subject {self.subject_id!r}: samples must be a non-empty 1-D sequence")
        if not np.isfinite(samples).all():
            bad = int(np.flatnonzero(~np.isfinite(samples))[0])
            raise IngestError(f"subject {self.subject_id!r}: non-finite sample at index {bad}")
        if not self.sample_rate_hz > 0:
            raise IngestError(f"subject {self.subject_id!r}: sample_rate_hz must be positive")
        if self.sprouting_day is not None and self.sprouting_day < self.start_day:
            raise IngestError(
                f"subject {self.subject_id!r}: sprouting_day {self.sprouting_day} "
                f"precedes start_day {self.start_day}"
            )

    @property
    def sprouting_day_offset(self) -> int | None:
        """Ground-truth sprouting day as whole days since start_day, or None."""
        if self.sprouting_day is None:
            return None
        return (self.sprouting_day - self.start_day).days

    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of recordings with unique subject ids."""

    recordings: list[Recording] = field(default_factory=list)
    label: str = "unlabeled"

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for rec in self.recordings:
            if rec.subject_id in seen:
                raise IngestError(f"duplicate subject_id {rec.subject_id!r} in dataset {self.label!r}")
            seen.add(rec.subject_id)

    def __len__(self) -> int:
        return len(self.recordings)

    def subject_ids(self) -> list[str]:
        return [rec.subject_id for rec in self.recordings]

    def require_labels(self) -> None:
        """Raise unless every recording carries a ground-truth sprouting day."""
        missing = [rec.subject_id for rec in self.recordings if rec.sprouting_day is None]
        if missing:
            raise IngestError(f"recordings without sprouting_day: {', '.join(sorted(missing))}")


def _parse_date(value: str, context: str) -> date:
    try:
        return date.fromisoformat(value)
    except (TypeError, ValueError) as exc:
        raise IngestError(f"{context}: invalid ISO-8601 date {value!r}") from exc


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _field(entry: dict, key: str, convert, context: str):
    """``convert(entry[key])``; a value it rejects raises IngestError naming the field."""
    try:
        return convert(entry[key])
    except (TypeError, ValueError) as exc:
        raise IngestError(f"{context}: invalid {key} {entry[key]!r}") from exc


def read_signal_csv(path: Path) -> np.ndarray:
    """Read one signal CSV and return the voltage column as float64.

    The header row is mandatory and checked verbatim; every data row must
    parse as two finite floats.  Row numbers in errors are 1-based and
    include the header.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"signal file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise IngestError(f"{path}: expected header {CSV_HEADER!r}, got {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise IngestError(f"{path}: malformed CSV row ({exc})") from exc
    if data.size == 0:
        raise IngestError(f"{path}: no samples after header")
    if data.shape[1] != 2:
        raise IngestError(f"{path}: expected 2 columns, got {data.shape[1]}")
    voltages = data[:, 1]
    if not np.isfinite(voltages).all():
        row = int(np.flatnonzero(~np.isfinite(voltages))[0]) + 2
        raise IngestError(f"{path}: non-finite voltage at row {row}")
    return voltages


def write_signal_csv(path: Path, samples: np.ndarray, sample_rate_hz: float) -> None:
    """Write a signal CSV that round-trips float64 voltages exactly.

    The bytes are those of ``np.savetxt(fh, rows, delimiter=",", fmt="%.17g")``;
    each chunk of rows is formatted by one ``%`` on a repeated row format.
    """
    samples = np.asarray(samples, dtype=np.float64)
    elapsed = np.arange(len(samples), dtype=np.float64) / sample_rate_hz
    rows = np.column_stack([elapsed, samples])
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(rows), _CSV_CHUNK_ROWS):
            chunk = rows[start : start + _CSV_CHUNK_ROWS]
            fh.write(("%.17g,%.17g\n" * len(chunk)) % tuple(chunk.ravel().tolist()))


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a manifest JSON and referenced signal CSVs into a Dataset.

    Signal paths in the manifest are resolved relative to the manifest's
    directory.  Every invariant of Recording and Dataset is enforced here;
    failures name the offending subject and file position.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise IngestError(f"{manifest_path}: invalid JSON ({exc})") from exc

    subjects = manifest.get("subjects") if isinstance(manifest, dict) else None
    if not isinstance(subjects, list):
        raise IngestError(f"{manifest_path}: manifest must be an object with a 'subjects' list")
    label = manifest.get("label", manifest_path.stem)
    base = manifest_path.parent

    recordings = []
    for i, entry in enumerate(subjects):
        if not isinstance(entry, dict):
            raise IngestError(f"{manifest_path}: subject entry {i} is not an object")
        context = f"{manifest_path} subject {entry.get('id', i)!r}"
        try:
            sprouting = entry.get("sprouting_day")
            rec = Recording(
                subject_id=_field(entry, "id", _string, context),
                variety=entry["variety"],
                storage_temp_c=_field(entry, "storage_temp_c", int, context),
                sample_rate_hz=_field(entry, "sample_rate_hz", float, context),
                start_day=_parse_date(entry["start_day"], context),
                samples=read_signal_csv(base / _field(entry, "signal_path", _string, context)),
                sprouting_day=_parse_date(sprouting, context) if sprouting is not None else None,
            )
        except KeyError as exc:
            raise IngestError(f"{manifest_path}: subject entry missing field {exc}") from exc
        recordings.append(rec)
    return Dataset(recordings=recordings, label=label)


def write_dataset(dataset: Dataset, out_dir: str | Path, manifest_name: str = "manifest.json") -> Path:
    """Write a dataset as manifest + per-subject CSVs; returns manifest path.

    Loading the result back yields a field-by-field identical Dataset.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subjects = []
    for rec in dataset.recordings:
        signal_name = f"{rec.subject_id}.csv"
        write_signal_csv(out_dir / signal_name, rec.samples, rec.sample_rate_hz)
        entry: dict = {
            "id": rec.subject_id,
            "variety": rec.variety,
            "storage_temp_c": rec.storage_temp_c,
            "sample_rate_hz": rec.sample_rate_hz,
            "start_day": rec.start_day.isoformat(),
            "signal_path": signal_name,
        }
        if rec.sprouting_day is not None:
            entry["sprouting_day"] = rec.sprouting_day.isoformat()
        subjects.append(entry)
    manifest_path = out_dir / manifest_name
    manifest_path.write_text(
        json.dumps({"label": dataset.label, "subjects": subjects}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return manifest_path


def day_offset_date(rec: Recording, day_offset: float) -> date:
    """Convert a (possibly fractional) day offset into a calendar date."""
    return rec.start_day + timedelta(days=round(day_offset))


__all__ = [
    "CSV_HEADER",
    "IngestError",
    "Recording",
    "Dataset",
    "read_signal_csv",
    "write_signal_csv",
    "load_dataset",
    "write_dataset",
    "day_offset_date",
]
