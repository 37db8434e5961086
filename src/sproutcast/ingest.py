"""Data model and disk I/O for multi-subject voltage recordings.

A corpus lives on disk as one JSON manifest plus one signal CSV per
subject, and is read one subject at a time: ``load_manifest`` checks the
manifest, then ``iter_recordings`` reads each CSV.  The CSV has a
mandatory header ``elapsed_seconds,voltage_volts``; all calendar fields
are ISO-8601 dates and all internal day arithmetic is integer offsets
from each recording's start day.  Beside each CSV a binary sidecar
caches its voltages, so a CSV is parsed at most once (see
``read_signal_csv``).

Every JSON file the program reads goes through ``read_json`` and
``check_fields``; every file it writes, through ``atomic_output``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import reprlib
import sys
import warnings
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

CSV_HEADER = "elapsed_seconds,voltage_volts"
# rows formatted at once: few enough that the formatter's arrays stay in cache
_CSV_CHUNK_ROWS = 2048
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
        _check_metadata(self.subject_id, self.sample_rate_hz, self.start_day, self.sprouting_day)

    @property
    def sprouting_day_offset(self) -> int | None:
        """Ground-truth sprouting day as whole days since start_day, or None."""
        if self.sprouting_day is None:
            return None
        return (self.sprouting_day - self.start_day).days


def _check_metadata(subject_id: str, sample_rate_hz: float, start_day: date, sprouting_day: date | None) -> None:
    """The checks of a Recording that need none of its samples; an id names files, so must be a plain name."""
    if not subject_id or any(c in "/\\," or c < " " for c in subject_id):
        raise IngestError(f"subject {subject_id!r}: id must be non-empty, without '/', '\\', ',' or a control character")
    if not (sample_rate_hz > 0 and math.isfinite(sample_rate_hz)):
        raise IngestError(f"subject {subject_id!r}: sample_rate_hz must be positive and finite")
    if sprouting_day is not None and sprouting_day < start_day:
        raise IngestError(f"subject {subject_id!r}: sprouting_day {sprouting_day} precedes start_day {start_day}")


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


@contextlib.contextmanager
def atomic_output(path: Path) -> Iterator[BinaryIO]:
    """Yield a handle on a temp file beside ``path`` that replaces it when the block ends, and is deleted if the
    block raises, even on an interrupt.  No fsync: it guards against an interrupted process, not a power cut."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj, indent: int | None = 2) -> Path:
    """Write ``obj`` as sorted-key standard JSON (no NaN or infinity) and a newline,
    through ``atomic_output``; ``indent=None`` is compact."""
    path = Path(path)
    separators = (",", ":") if indent is None else None
    try:
        text = json.dumps(obj, indent=indent, separators=separators, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or an infinity: not standard JSON
        raise ValueError(f"{path}: {exc}") from exc
    with atomic_output(path) as fh:
        fh.write((text + "\n").encode())
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
    """Replace the sidecar whole; a sidecar that cannot be written (a read-only directory, say) is left out."""
    payload = np.ascontiguousarray(voltages, dtype="<f8")
    with contextlib.suppress(OSError), atomic_output(sidecar) as fh:
        fh.write(_SIDECAR_MAGIC + digest + hashlib.sha256(payload).digest())
        fh.write(memoryview(payload).cast("B"))


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


# %.17g writes fixed notation for a decimal exponent e (after rounding to 17
# digits) in -4..16.  Such a value, or a signed zero, is written from n =
# round(|v| * 10**(16 - e)) as a field of 11 words from a table of 4-byte
# strings: 0-1 the tail of "-0.000" and n's lead digit, 2-5 and 6-9 two copies
# of n's other 16 digits, 10 spare.  "." goes over the second copy's digit e,
# the separator after the last digit, and a mask keyed by (e, significant
# digits, sign) keeps the bytes %.17g writes.
_FIELD = 44


@functools.cache
def _csv_tables() -> tuple:
    """The formatter's tables, built on the first write."""
    pow10 = np.array([float(10**p) for p in range(23)])  # each 10**p here is a double exactly
    big = 134217729.0 * pow10  # Dekker's split, 2**27 + 1: 10**p == hi + lo, each of 26 bits
    p_hi = big - (big - pow10)
    groups = [b"%04d" % g for g in range(10000)]
    words = b"".join(groups)
    # the place (1-4) of a group's last nonzero digit; below any digit count for a zero group
    last = np.array([-99] + [len(g.rstrip(b"0")) for g in groups[1:]], dtype=np.int8)
    head, point = np.zeros((2, 21), dtype=np.intp)  # by e + 4: word 0, then word 1 for lead digit 0
    masks = np.zeros((21, 17, 2, _FIELD), dtype=bool)  # e + 4, significant digits - 1, sign, byte
    for e in range(-4, 17):
        prefix = b"\0" * 6 + (b"-0." + b"0" * (-e - 1) if e < 0 else b"-")
        head[e + 4], point[e + 4] = len(words) // 4, 23 + e if e >= 0 else _FIELD - 1
        words += prefix[-7:-3] + b"".join(prefix[-3:] + b"%d" % d for d in range(10))
        for sig in range(1, 18):
            m = masks[e + 4, sig - 1]
            end = 7 + sig if e < 0 else 23 + sig if sig > e + 1 else 8 + e
            m[1, 5 + e if e < 0 else 6] = m[:, end] = True  # the sign, the separator
            if e < 0:  # "0.", -e - 1 zeros, the digits
                m[:, 6 + e : end] = True
            else:  # e + 1 digits, then any others after "." from the second copy
                m[:, 7 : 8 + e] = m[:, min(23 + e, end) : end] = True
    masks = masks.reshape(-1, _FIELD)
    seps = _FIELD - 1 - np.argmax(masks[:, ::-1], axis=1)  # each mask's last byte
    quads, masks = np.frombuffer(words, dtype=np.uint32), masks.view(f"V{_FIELD}").ravel()
    return pow10, p_hi, pow10 - p_hi, quads, last, head, point, masks, seps


def _scaled17(a: np.ndarray, e: np.ndarray, pow10, p_hi, p_lo) -> np.ndarray:
    """n = round(a * 10**(16 - e)), an exact tie to even as %.17g rounds it;
    where e is one too large, n < 10**16 even if the product is below 2**53 and no integer."""
    p = 16 - e
    prod = a * pow10[p]
    big = 134217729.0 * a
    a_hi = big - (big - a)
    a_lo = a - a_hi
    b_hi, b_lo = p_hi[p], p_lo[p]
    err = ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo  # prod + err is a * 10**p exactly
    # from 2**53 on, prod is an even integer, so rint's half to even in err is half to even in n
    return prod.astype(np.int64) + np.rint(err).astype(np.int64)


def _percent_rows(rows: np.ndarray) -> bytes:  # the formatter's fallback
    return (("%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())).encode()


def _format_rows(rows: np.ndarray) -> bytes:
    """``_percent_rows(rows)`` for float64 rows (n, 2); it writes with that each row holding a value
    %.17g writes in exponent notation or one not finite."""
    pow10, p_hi, p_lo, quads, last, head, point, masks, seps = _csv_tables()
    v = rows.ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fast = (e >= -5) & (e <= 16)
    e = np.where(fast, e, 0).astype(np.intp)
    fast |= a == 0
    a[~fast] = 0.0
    n = _scaled17(a, e, pow10, p_hi, p_lo)
    # log10 may land one decade off: scale those values again, one decade over
    wrong = np.flatnonzero((a > 0) & ((n < 10**16) | (n >= 10**17)))
    if len(wrong):
        e[wrong] += np.where(n[wrong] >= 10**17, 1, -1)
        fast[wrong] &= (e[wrong] >= -5) & (e[wrong] <= 16)
        e[~fast] = 0
        n[wrong] = _scaled17(a[wrong], e[wrong], pow10, p_hi, p_lo)
        fast[wrong] &= (n[wrong] >= 10**16) & (n[wrong] < 10**17)
    fast &= e >= -4
    n[~fast] = e[~fast] = 0
    e += 4
    words = np.empty((11, len(v)), dtype=np.intp)
    words[0] = words[10] = head[e]
    top, low = np.divmod(n, 10**8)
    np.divmod(top, 10**8, out=(words[1], top))
    np.divmod(top, 10**4, out=(words[2], words[3]))
    np.divmod(low, 10**4, out=(words[4], words[5]))
    words[6:10] = words[2:6]
    words[1] += head[e] + 1
    sig = np.ones(len(v), dtype=np.int8)
    for k in range(4):
        np.maximum(sig, last[words[2 + k]] + (1 + 4 * k), out=sig)
    key = (e * 17 + sig - 1) * 2 + np.signbit(v)
    flat = np.ascontiguousarray(quads[words].T).view(np.uint8).reshape(-1)
    at = np.arange(0, flat.size, _FIELD)
    flat[at + point[e]] = ord(".")
    at += seps[key]
    flat[at[0::2]], flat[at[1::2]] = ord(","), ord("\n")
    field, mask = flat.reshape(len(rows), -1), np.take(masks, key).view(bool).reshape(len(rows), -1)
    bad = ~(fast[0::2] & fast[1::2])
    mask[bad] = False
    text = field[mask].tobytes()
    if not bad.any():
        return text
    runs = np.flatnonzero(np.diff(bad, prepend=False, append=False)).reshape(-1, 2)  # [lo, hi) of each
    cuts = [0, *np.cumsum(mask.sum(axis=1))[runs[:, 0]].tolist(), len(text)]
    slow = [_percent_rows(rows[lo:hi]) for lo, hi in runs.tolist()] + [b""]
    return b"".join(piece for i, run in enumerate(slow) for piece in (text[cuts[i] : cuts[i + 1]], run))


def write_signal_csv(path: Path, samples: np.ndarray, sample_rate_hz: float) -> None:
    """Write a signal CSV that round-trips float64 voltages exactly, and its sidecar.

    The bytes are those of ``np.savetxt(fh, rows, delimiter=",", fmt="%.17g")`` with the rows
    ``np.arange(len(samples)) / sample_rate_hz, samples``, built and formatted a chunk at a time.
    The sidecar (see ``read_signal_csv``) is written only for samples a read would accept.
    """
    path = Path(path)
    samples = np.asarray(samples, dtype=np.float64)
    header = (CSV_HEADER + "\n").encode()
    digest = hashlib.sha256(header)
    rows = np.empty((_CSV_CHUNK_ROWS, 2))
    with atomic_output(path) as fh:
        fh.write(header)
        for start in range(0, len(samples), _CSV_CHUNK_ROWS):
            chunk = rows[: len(samples) - start]
            # each elapsed value is an exact integer before the division, so equal to the whole-array one
            np.divide(np.arange(start, start + len(chunk), dtype=np.float64), sample_rate_hz, out=chunk[:, 0])
            chunk[:, 1] = samples[start : start + len(chunk)]
            data = _format_rows(chunk)
            digest.update(data)
            fh.write(data)
    if _voltages_fault(samples) is None:
        _write_sidecar(_sidecar_path(path), digest.digest(), samples)


@dataclass(frozen=True)
class Manifest:
    """A checked manifest: its label, and per subject its entry as the JSON
    holds it, the fields of its Recording (all but the samples) and its CSV."""

    label: str
    entries: list[dict]
    fields: list[dict]
    signal_paths: list[Path]


def load_manifest(manifest_path: str | Path, labelled: bool = False) -> Manifest:
    """Read and check a manifest JSON, and no signal CSV.

    Signal paths are resolved relative to the manifest's directory.  Every
    check the manifest alone can answer is made here, in this order: that
    it lists at least one subject; each entry's fields, ids and dates; that
    every signal path is an existing file; that each sample rate is
    positive and finite and no sprouting_day precedes its start_day; and,
    if ``labelled``, that every subject has a sprouting_day.  Each failure
    names the manifest or file at fault, and the subject.
    """
    manifest_path = Path(manifest_path)
    manifest = check_fields(read_json(manifest_path), {"subjects": list}, str(manifest_path), {"label": str})
    if not manifest["subjects"]:
        raise IngestError(f"{manifest_path}: no subjects")
    base = manifest_path.parent
    recording_fields, seen = [], set()
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
        recording_fields.append(
            dict(
                subject_id=entry["id"],
                variety=entry["variety"],
                storage_temp_c=entry["storage_temp_c"],
                sample_rate_hz=float(entry["sample_rate_hz"]),
                start_day=_parse_date(entry["start_day"], where),
                sprouting_day=_parse_date(sprouting, where) if sprouting is not None else None,
            )
        )
    signal_paths = [_input_file(base / entry["signal_path"]) for entry in manifest["subjects"]]
    try:
        for f in recording_fields:
            _check_metadata(f["subject_id"], f["sample_rate_hz"], f["start_day"], f["sprouting_day"])
    except IngestError as exc:
        raise IngestError(f"{manifest_path}: {exc}") from exc
    missing = [f["subject_id"] for f in recording_fields if f["sprouting_day"] is None]
    if labelled and missing:
        raise IngestError(f"recordings without sprouting_day: {', '.join(sorted(missing))}")
    label = manifest.get("label", manifest_path.stem)
    return Manifest(label, manifest["subjects"], recording_fields, signal_paths)


def iter_recordings(manifest: Manifest) -> Iterator[Recording]:
    """Read the manifest's signal CSVs one at a time, in manifest order, and
    yield each subject's Recording; a fault in a CSV's content is found when
    that CSV is read."""
    for path, fields in zip(manifest.signal_paths, manifest.fields):
        # built in one expression, so the suspended generator holds no samples
        yield Recording(samples=read_signal_csv(path), **fields)


def write_recording(rec: Recording, out_dir: Path) -> dict:
    """Write one recording's signal CSV into ``out_dir``; returns its manifest entry."""
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
    return entry


def day_offset_date(rec: Recording, day_offset: float) -> date:
    """Convert a (possibly fractional) day offset into a calendar date; ValueError if there is none."""
    try:
        return rec.start_day + timedelta(days=round(day_offset))
    except (OverflowError, ValueError):  # NaN, an infinity, or past the years 1 to 9999
        raise ValueError(
            f"subject {rec.subject_id!r}: estimate {day_offset!r} days from {rec.start_day} falls outside the calendar"
        ) from None


__all__ = [
    "CSV_HEADER",
    "IngestError",
    "NUMBER",
    "Recording",
    "Manifest",
    "read_text",
    "read_json",
    "write_json",
    "read_signal_csv",
    "write_signal_csv",
    "load_manifest",
    "iter_recordings",
    "write_recording",
    "day_offset_date",
]
