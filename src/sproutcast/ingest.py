"""Data model and disk I/O for multi-subject voltage recordings.

A dataset lives on disk as one JSON manifest plus one signal CSV per
subject.  The CSV has a mandatory header ``elapsed_seconds,voltage_volts``;
all calendar fields are ISO-8601 dates and all internal day arithmetic is
integer offsets from each recording's start day.

Every JSON file the program reads (manifest, model, report) goes through
``read_json`` and has its fields checked by ``check_fields``.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
import warnings
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

CSV_HEADER = "elapsed_seconds,voltage_volts"
_CSV_CHUNK_ROWS = 8192

# the JSON types of a field, as isinstance takes them
NUMBER = (int, float)
_SUBJECT_FIELDS = {
    "id": str,
    "variety": str,
    "storage_temp_c": int,
    "sample_rate_hz": NUMBER,
    "start_day": str,
    "signal_path": str,
}


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
        if not (self.sample_rate_hz > 0 and math.isfinite(self.sample_rate_hz)):
            raise IngestError(f"subject {self.subject_id!r}: sample_rate_hz must be positive and finite")
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


def _input_file(path: str | Path) -> Path:
    path = Path(path)
    try:
        found, regular = path.exists(), path.is_file()
    except OSError as exc:  # a name too long for the file system, say
        raise IngestError(f"{path}: {exc.strerror}") from exc
    if not found:
        raise FileNotFoundError(f"file not found: {path}")
    if not regular:
        raise IngestError(f"{path}: not a file")
    return path


def read_json(path: str | Path):
    """Parse one JSON input file: a manifest, a model or a report.

    A missing file raises FileNotFoundError; a path that is not a file, or a
    file that is not UTF-8 JSON, raises IngestError naming the path.
    """
    path = _input_file(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError covers bytes that are not UTF-8
        raise IngestError(f"{path}: invalid JSON ({exc})") from exc


def write_json(path: str | Path, obj, indent: int | None = 2) -> Path:
    """Write ``obj`` as sorted-key JSON and a newline, making its directory; ``indent=None`` is compact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    separators = (",", ":") if indent is None else None
    path.write_text(json.dumps(obj, indent=indent, separators=separators, sort_keys=True) + "\n", encoding="utf-8")
    return path


def is_json_type(value, types: tuple) -> bool:
    """isinstance, except that a JSON true/false is never a number, and a
    field that takes floats holds no integer too large for one."""
    if isinstance(value, bool):
        return bool in types
    if isinstance(value, int) and float in types:
        return abs(value) <= sys.float_info.max
    return isinstance(value, types)


def check_fields(d, fields: dict, where: str, optional: dict | None = None) -> dict:
    """Return ``d`` once it is a JSON object whose fields have the types given.

    ``fields`` and ``optional`` map each key to its type or tuple of types
    (see ``is_json_type``); every key of ``fields`` must be present.  A
    failure raises IngestError naming ``where`` and the key.
    """
    if not isinstance(d, dict):
        raise IngestError(f"{where}: expected a JSON object")
    for key, types in {**fields, **(optional or {})}.items():
        types = types if isinstance(types, tuple) else (types,)
        if key not in d:
            if key in fields:
                raise IngestError(f"{where}: missing key {key!r}")
        elif not is_json_type(d[key], types):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise IngestError(f"{where}: invalid {key} {reprlib.repr(d[key])} (expected {key!r} {names})")
    return d


def read_signal_csv(path: Path) -> np.ndarray:
    """Read one signal CSV and return the voltage column as float64.

    The header row is mandatory and checked verbatim; every data row must
    parse as two finite floats.  Row numbers in errors are 1-based and
    include the header.
    """
    path = _input_file(path)
    with path.open("r", encoding="utf-8") as fh:
        try:
            header = fh.readline().strip()
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 text ({exc})") from exc
        if header != CSV_HEADER:
            raise IngestError(f"{path}: expected header {CSV_HEADER!r}, got {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body is an error below
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
    each failure names the manifest or signal CSV at fault, and the subject.
    """
    manifest_path = Path(manifest_path)
    manifest = check_fields(read_json(manifest_path), {"subjects": list}, str(manifest_path), {"label": str})
    base = manifest_path.parent
    subjects, signal_paths = [], []
    for i, entry in enumerate(manifest["subjects"]):
        if isinstance(entry, dict):
            where = f"{manifest_path} subject {entry.get('id', i)!r}"
        else:
            where = f"{manifest_path} subject entry {i}"
        check_fields(entry, _SUBJECT_FIELDS, where)
        sprouting = entry.get("sprouting_day")
        subjects.append(
            dict(
                subject_id=entry["id"],
                variety=entry["variety"],
                storage_temp_c=entry["storage_temp_c"],
                sample_rate_hz=float(entry["sample_rate_hz"]),
                start_day=_parse_date(entry["start_day"], where),
                sprouting_day=_parse_date(sprouting, where) if sprouting is not None else None,
            )
        )
        signal_paths.append(base / entry["signal_path"])
    # every entry is checked before the first CSV is read
    samples = [read_signal_csv(path) for path in signal_paths]
    try:
        recordings = [Recording(samples=x, **fields) for x, fields in zip(samples, subjects)]
        return Dataset(recordings, manifest.get("label", manifest_path.stem))
    except IngestError as exc:
        raise IngestError(f"{manifest_path}: {exc}") from exc


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
    return write_json(out_dir / manifest_name, {"label": dataset.label, "subjects": subjects})


def day_offset_date(rec: Recording, day_offset: float) -> date:
    """Convert a (possibly fractional) day offset into a calendar date."""
    return rec.start_day + timedelta(days=round(day_offset))


__all__ = [
    "CSV_HEADER",
    "IngestError",
    "NUMBER",
    "Recording",
    "Dataset",
    "read_json",
    "write_json",
    "read_signal_csv",
    "write_signal_csv",
    "load_dataset",
    "write_dataset",
    "day_offset_date",
]
