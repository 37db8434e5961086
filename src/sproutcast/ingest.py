"""Data model and disk I/O for multi-subject voltage recordings.

A dataset lives on disk as one JSON manifest plus one signal CSV per
subject.  The CSV has a mandatory header ``elapsed_seconds,voltage_volts``;
all calendar fields are ISO-8601 dates and all internal day arithmetic is
integer offsets from each recording's start day.  Beside each CSV a binary
sidecar caches its voltages, so a CSV is parsed at most once (see
``read_signal_csv``).

Every JSON file the program reads (manifest, model, report) goes through
``read_json`` and has its fields checked by ``check_fields``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import reprlib
import sys
import warnings
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

CSV_HEADER = "elapsed_seconds,voltage_volts"
_CSV_CHUNK_ROWS = 8192
# a signal CSV's sidecar: magic, SHA-256 of the CSV's bytes, SHA-256 of the
# payload, then the payload, the voltages as little-endian float64
SIDECAR_SUFFIX = ".f8"
_SIDECAR_MAGIC = b"sproutcast-f8-v1"
_SIDECAR_HEAD = len(_SIDECAR_MAGIC) + 64
# the buffer a CSV is hashed through
_READ_BLOCK = 1 << 16

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


def read_text(path: str | Path) -> str:
    """The text of one UTF-8 input file.

    A missing file raises FileNotFoundError; a path that is not a file, or
    bytes that are not UTF-8, raise IngestError naming the path.
    """
    path = _input_file(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise IngestError(f"{path}: not UTF-8 text ({_utf8_fault(path)})") from None
    except OSError as exc:
        raise IngestError(f"{path}: {exc.strerror}") from exc


def _finite(token: str) -> float:
    """A JSON number, or NaN/Infinity, as a float; anything not finite is refused."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def read_json(path: str | Path):
    """Parse one JSON input file: a manifest, a model or a report.

    A missing file raises FileNotFoundError; a path that is not a file, a
    file that is not UTF-8 JSON, or a number that is not finite (NaN,
    Infinity, or a literal such as 1e999) raises IngestError naming the path.
    """
    text = read_text(path)
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as exc:
        raise IngestError(f"{path}: invalid JSON ({exc})") from exc


def write_json(path: str | Path, obj, indent: int | None = 2) -> Path:
    """Write ``obj`` as sorted-key standard JSON (no NaN or infinity) and a newline,
    making its directory; ``indent=None`` is compact."""
    path = Path(path)
    separators = (",", ":") if indent is None else None
    try:
        text = json.dumps(obj, indent=indent, separators=separators, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or an infinity: not standard JSON
        raise ValueError(f"{path}: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")
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


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + SIDECAR_SUFFIX)


def _voltages_fault(voltages: np.ndarray) -> str | None:
    """Why ``voltages`` cannot be a signal's samples, or None if they can."""
    if voltages.size == 0:
        return "no samples after header"
    if not np.isfinite(voltages).all():
        return f"non-finite voltage at row {int(np.flatnonzero(~np.isfinite(voltages))[0]) + 2}"
    return None


def _file_digest(path: Path) -> bytes:
    """SHA-256 of the file's bytes, read through one small fixed buffer."""
    sha = hashlib.sha256()
    buf = bytearray(_READ_BLOCK)
    view = memoryview(buf)
    with path.open("rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            sha.update(view[:n])
    return sha.digest()


def _read_sidecar(sidecar: Path, digest: bytes) -> np.ndarray | None:
    """The voltages of the sidecar if it was made from a CSV of ``digest`` and is whole, else None.

    The payload is read straight into the returned array, never through a
    bytes copy of the file.
    """
    try:
        with sidecar.open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size - _SIDECAR_HEAD
            if size <= 0 or size % 8:
                return None
            head = fh.read(_SIDECAR_HEAD)
            voltages = np.empty(size // 8, dtype="<f8")
            if fh.readinto(memoryview(voltages).cast("B")) != size or fh.read(1):
                return None  # the file changed while it was read
    except OSError:  # missing, a directory, unreadable
        return None
    if head != _SIDECAR_MAGIC + digest + hashlib.sha256(voltages).digest():
        return None
    voltages = voltages.astype(np.float64, copy=False)
    return voltages if _voltages_fault(voltages) is None else None


def _write_sidecar(sidecar: Path, digest: bytes, voltages: np.ndarray) -> None:
    """Replace the sidecar atomically; a sidecar that cannot be written is left out."""
    payload = np.ascontiguousarray(voltages, dtype="<f8")
    tmp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(_SIDECAR_MAGIC + digest + hashlib.sha256(payload).digest())
            fh.write(memoryview(payload).cast("B"))
        os.replace(tmp, sidecar)
    except OSError:  # a read-only directory, a directory in the sidecar's place
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _utf8_fault(path: Path) -> str:
    """The first byte of ``path`` that is not UTF-8, and its offset from the start of the file.

    A decode error counts its position from the decoder's chunk, not from
    the file, so the file is decoded again whole; only a failed read pays.
    """
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
    return "the file changed while it was read"


def _parse_signal_csv(path: Path) -> np.ndarray:
    """The voltage column of the CSV at ``path``, every row checked."""
    try:
        fh = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"{path}: {exc.strerror}") from exc
    with fh:
        try:
            header = fh.readline().strip()
            if header == CSV_HEADER:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # an empty body is an error below
                    data = np.loadtxt(fh, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
        except UnicodeDecodeError:  # a ValueError too, so caught first
            raise IngestError(f"{path}: not UTF-8 text ({_utf8_fault(path)})") from None
        except ValueError as exc:
            raise IngestError(f"{path}: malformed CSV row ({exc})") from exc
    if header != CSV_HEADER:
        raise IngestError(f"{path}: expected header {CSV_HEADER!r}, got {header!r}")
    if data.size == 0:
        raise IngestError(f"{path}: no samples after header")
    if data.shape[1] != 2:
        raise IngestError(f"{path}: expected 2 columns, got {data.shape[1]}")
    voltages = np.ascontiguousarray(data[:, 1])
    fault = _voltages_fault(voltages)
    if fault is not None:
        raise IngestError(f"{path}: {fault}")
    return voltages


def read_signal_csv(path: Path) -> np.ndarray:
    """Read one signal CSV and return the voltage column as float64.

    The header row is mandatory and checked verbatim; every data row must
    hold two floats, the voltage finite, and nothing else (a ``#`` is no
    comment); blank lines are skipped.  Row numbers in errors are 1-based
    and include the header.

    The voltages of a parsed CSV are kept in a sidecar beside it, named
    ``<csv name>.f8``, with the SHA-256 of the CSV's bytes.  A read takes
    them from there, without parsing, only when that digest matches and the
    sidecar is whole; otherwise it parses the CSV and rewrites the sidecar.
    The CSV is hashed and parsed as a stream and never held whole in memory:
    a whole-file buffer made peak memory depend on the order of file sizes.
    """
    path = _input_file(path)
    try:
        digest = _file_digest(path)
    except OSError as exc:
        raise IngestError(f"{path}: {exc.strerror}") from exc
    sidecar = _sidecar_path(path)
    voltages = _read_sidecar(sidecar, digest)
    if voltages is None:
        voltages = _parse_signal_csv(path)
        with contextlib.suppress(OSError):
            if _file_digest(path) == digest:  # the CSV was not rewritten while it was parsed
                _write_sidecar(sidecar, digest, voltages)
    return voltages


def write_signal_csv(path: Path, samples: np.ndarray, sample_rate_hz: float) -> None:
    """Write a signal CSV that round-trips float64 voltages exactly, and its sidecar.

    The bytes are those of ``np.savetxt(fh, rows, delimiter=",", fmt="%.17g")``;
    each chunk of rows is formatted by one ``%`` on a repeated row format.
    The sidecar (see ``read_signal_csv``) is written only for samples a read
    would accept.
    """
    path = Path(path)
    samples = np.asarray(samples, dtype=np.float64)
    elapsed = np.arange(len(samples), dtype=np.float64) / sample_rate_hz
    rows = np.column_stack([elapsed, samples])
    header = (CSV_HEADER + "\n").encode()
    digest = hashlib.sha256(header)
    with path.open("wb") as fh:
        fh.write(header)
        for start in range(0, len(rows), _CSV_CHUNK_ROWS):
            chunk = rows[start : start + _CSV_CHUNK_ROWS]
            data = (("%.17g,%.17g\n" * len(chunk)) % tuple(chunk.ravel().tolist())).encode()
            digest.update(data)
            fh.write(data)
    if _voltages_fault(samples) is None:
        _write_sidecar(_sidecar_path(path), digest.digest(), samples)


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a manifest JSON and referenced signal CSVs into a Dataset.

    Signal paths in the manifest are resolved relative to the manifest's
    directory.  Every invariant of Recording and Dataset is enforced here;
    each failure names the manifest or signal CSV at fault, and the subject.
    """
    manifest_path = Path(manifest_path)
    manifest = check_fields(read_json(manifest_path), {"subjects": list}, str(manifest_path), {"label": str})
    base = manifest_path.parent
    subjects, signal_paths, seen = [], [], set()
    for i, entry in enumerate(manifest["subjects"]):
        if isinstance(entry, dict):
            where = f"{manifest_path} subject {entry.get('id', i)!r}"
        else:
            where = f"{manifest_path} subject entry {i}"
        check_fields(entry, _SUBJECT_FIELDS, where)
        if entry["id"] in seen:
            raise IngestError(f"{where}: duplicate subject_id")
        seen.add(entry["id"])
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
    "read_text",
    "read_json",
    "write_json",
    "read_signal_csv",
    "write_signal_csv",
    "load_dataset",
    "write_dataset",
    "day_offset_date",
]
