import hashlib
import json
import tracemalloc
from datetime import date

import numpy as np
import pytest

from sproutcast import ingest
from sproutcast.ingest import (
    CSV_HEADER,
    SIDECAR_SUFFIX,
    Dataset,
    IngestError,
    Recording,
    load_dataset,
    read_signal_csv,
    write_dataset,
    write_signal_csv,
)

from conftest import make_recording


def write_manifest(tmp_path, subjects, label="ds"):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"label": label, "subjects": subjects}))
    return path


def subject_entry(tmp_path, sid, n=10, rate=1.0, sprouting="2023-10-04", voltages=None):
    voltages = np.arange(n, dtype=float) if voltages is None else voltages
    write_signal_csv(tmp_path / f"{sid}.csv", voltages, rate)
    entry = {
        "id": sid,
        "variety": "Agria",
        "storage_temp_c": 8,
        "sample_rate_hz": rate,
        "start_day": "2023-10-01",
        "signal_path": f"{sid}.csv",
    }
    if sprouting is not None:
        entry["sprouting_day"] = sprouting
    return entry


def test_load_three_subjects(tmp_path):
    subjects = [subject_entry(tmp_path, f"p{i}") for i in range(3)]
    ds = load_dataset(write_manifest(tmp_path, subjects))
    assert len(ds) == 3
    assert ds.label == "ds"
    assert ds.subject_ids() == ["p0", "p1", "p2"]


def test_duplicate_subject_id_names_offender(tmp_path):
    subjects = [subject_entry(tmp_path, "p01"), subject_entry(tmp_path, "p01")]
    with pytest.raises(IngestError, match="p01"):
        load_dataset(write_manifest(tmp_path, subjects))
    # the duplicate is found before any CSV is read, so a missing one does not hide it
    subjects = [subject_entry(tmp_path, "p01"), subject_entry(tmp_path, "p02"), subject_entry(tmp_path, "p01")]
    subjects[1]["signal_path"] = "missing.csv"
    with pytest.raises(IngestError, match=r"manifest\.json subject 'p01': duplicate subject_id"):
        load_dataset(write_manifest(tmp_path, subjects))


def test_mixed_variety_composition_64_subjects(tmp_path):
    # 8C storage batch: 16 Sorentina, 16 SHC1010, 32 Agria
    varieties = ["Sorentina"] * 16 + ["SHC1010"] * 16 + ["Agria"] * 32
    subjects = []
    for i, variety in enumerate(varieties):
        entry = subject_entry(tmp_path, f"p{i:02d}")
        entry["variety"] = variety
        subjects.append(entry)
    ds = load_dataset(write_manifest(tmp_path, subjects, label="dataset1-8C"))
    assert len(ds) == 64
    counts = {v: sum(r.variety == v for r in ds.recordings) for v in set(varieties)}
    assert counts == {"Sorentina": 16, "SHC1010": 16, "Agria": 32}


def test_missing_manifest_and_signal(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope.json")
    subjects = [subject_entry(tmp_path, "p0")]
    subjects[0]["signal_path"] = "gone.csv"
    with pytest.raises(FileNotFoundError, match="gone.csv"):
        load_dataset(write_manifest(tmp_path, subjects))


def test_non_finite_sample_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n0.0,1.0\n1.0,nan\n")
    with pytest.raises(IngestError, match="row 3"):
        read_signal_csv(path)


def test_header_required(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0.0,1.0\n1.0,2.0\n")
    with pytest.raises(IngestError, match="header"):
        read_signal_csv(path)


def test_sprouting_before_start_rejected(tmp_path):
    subjects = [subject_entry(tmp_path, "p0", sprouting="2023-09-30")]
    with pytest.raises(IngestError, match="precedes"):
        load_dataset(write_manifest(tmp_path, subjects))


def test_no_silent_sample_drop(tmp_path):
    n = 1237
    subjects = [subject_entry(tmp_path, "p0", n=n)]
    ds = load_dataset(write_manifest(tmp_path, subjects))
    assert len(ds.recordings[0].samples) == n


def test_round_trip_identical(tmp_path):
    rng = np.random.default_rng(0)
    recs = [
        make_recording("a", days=1, rate=1 / 864, samples=rng.normal(size=100)),
        make_recording("b", days=2, rate=1 / 864, samples=rng.normal(size=250), sprout_day=5),
    ]
    ds = Dataset(recordings=recs, label="rt")
    m1 = write_dataset(ds, tmp_path / "one")
    loaded = load_dataset(m1)
    m2 = write_dataset(loaded, tmp_path / "two")
    again = load_dataset(m2)
    assert loaded.label == again.label == "rt"
    for r1, r2 in zip(loaded.recordings, again.recordings):
        assert r1.subject_id == r2.subject_id
        assert r1.variety == r2.variety
        assert r1.storage_temp_c == r2.storage_temp_c
        assert r1.sample_rate_hz == r2.sample_rate_hz
        assert r1.start_day == r2.start_day
        assert r1.sprouting_day == r2.sprouting_day
        assert np.array_equal(r1.samples, r2.samples)
    # and the write is faithful to the original samples, bit for bit
    for orig, r1 in zip(recs, loaded.recordings):
        assert np.array_equal(orig.samples, r1.samples)


def test_recording_invariants():
    with pytest.raises(IngestError, match="non-empty"):
        make_recording("x", samples=np.array([]))
    with pytest.raises(IngestError, match="non-finite"):
        make_recording("x", samples=np.array([1.0, np.inf]))
    rec = make_recording("x", days=2)
    assert rec.sprouting_day_offset == 2


def test_unlabelled_allowed_but_flagged():
    rec = Recording(
        subject_id="u",
        variety="Agria",
        storage_temp_c=4,
        sample_rate_hz=1.0,
        start_day=date(2023, 10, 1),
        samples=np.ones(10),
    )
    ds = Dataset(recordings=[rec], label="infer")
    with pytest.raises(IngestError, match="sprouting_day"):
        ds.require_labels()


@pytest.mark.parametrize("rate", [1.0, 1 / 80, 1 / 96, 3.0, 256.0])
@pytest.mark.parametrize("n", [1, 2, 8191, 8192, 8193, 2 * 8192 + 5])
def test_signal_csv_bytes_match_savetxt(tmp_path, rate, n):
    rng = np.random.default_rng(n)
    samples = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    samples[: min(n, 4)] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308][: min(n, 4)]
    ours = tmp_path / "ours.csv"
    write_signal_csv(ours, samples, rate)
    reference = tmp_path / "reference.csv"
    with reference.open("w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        elapsed = np.arange(n, dtype=np.float64) / rate
        np.savetxt(fh, np.column_stack([elapsed, samples]), delimiter=",", fmt="%.17g")
    assert ours.read_bytes() == reference.read_bytes()


def _sidecar(path):
    return path.with_name(path.name + SIDECAR_SUFFIX)


def _edge_samples(n):
    """n voltages led by signed zeros, subnormals and values near ±1e±300."""
    rng = np.random.default_rng(n)
    samples = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    edges = [-0.0, 0.0, 5e-324, -2.5e-320, 1e300, -1e300, 1e-300, -1e-300]
    samples[: min(n, len(edges))] = edges[: min(n, len(edges))]
    return samples


def _parses(monkeypatch):
    """Count the CSV parses that read_signal_csv makes from now on."""
    calls = []
    parse = ingest._parse_signal_csv
    monkeypatch.setattr(ingest, "_parse_signal_csv", lambda *a: calls.append(a[0]) or parse(*a))
    return calls


@pytest.mark.parametrize("rate", [1.0, 1 / 80, 1 / 96])
@pytest.mark.parametrize("n", [1, 8191, 8192, 8193])
def test_writer_sidecar_equals_forced_parse(tmp_path, monkeypatch, rate, n):
    samples = _edge_samples(n)
    path = tmp_path / "s.csv"
    write_signal_csv(path, samples, rate)
    written = _sidecar(path).read_bytes()
    parses = _parses(monkeypatch)
    warm = read_signal_csv(path)
    assert parses == []  # the writer's sidecar was used
    _sidecar(path).unlink()
    cold = read_signal_csv(path)
    assert parses == [path]
    # the parse is the oracle: the same voltages, bit for bit, and the same sidecar
    oracle = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]
    assert cold.tobytes() == warm.tobytes() == oracle.tobytes() == samples.tobytes()
    assert _sidecar(path).read_bytes() == written


def test_sidecar_read_never_holds_the_csv_whole(tmp_path):
    """A read's memory is the voltages it returns, whatever the CSV's size:
    a whole-file buffer made a command's peak RSS depend on the order of
    the files' sizes."""
    samples = _edge_samples(200_000)
    path = tmp_path / "s.csv"
    write_signal_csv(path, samples, 1.0)
    assert path.stat().st_size > 3 * samples.nbytes
    tracemalloc.start()
    try:
        voltages = read_signal_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert voltages.tobytes() == samples.tobytes()
    assert peak < 1.25 * samples.nbytes


def _flip(offset):
    def corrupt(sidecar):
        raw = bytearray(sidecar.read_bytes())
        raw[offset] ^= 1
        sidecar.write_bytes(bytes(raw))
    return corrupt


def _forge(payload):
    """A sidecar whose digests match the CSV but whose voltages cannot be samples."""
    def corrupt(sidecar):
        head = sidecar.read_bytes()[: ingest._SIDECAR_HEAD - 32]
        sidecar.write_bytes(head + hashlib.sha256(payload).digest() + payload)
    return corrupt


def _link_loop(sidecar):
    sidecar.unlink()
    sidecar.symlink_to(sidecar)  # a loop: reading it fails


_SIDECAR_CORRUPTIONS = {
    "missing": lambda s: s.unlink(),
    "empty": lambda s: s.write_bytes(b""),
    "bad-magic": _flip(0),
    "wrong-digest": _flip(len(ingest._SIDECAR_MAGIC) + 5),
    "wrong-payload-digest": _flip(ingest._SIDECAR_HEAD - 1),
    "payload-byte": _flip(ingest._SIDECAR_HEAD + 8 * 7 + 3),
    "truncated": lambda s: s.write_bytes(s.read_bytes()[:-8]),
    "torn-sample": lambda s: s.write_bytes(s.read_bytes()[:-3]),
    "extended": lambda s: s.write_bytes(s.read_bytes() + bytes(8)),
    "header-only": lambda s: s.write_bytes(s.read_bytes()[: ingest._SIDECAR_HEAD]),
    "non-finite": _forge(np.full(3, np.nan).tobytes()),
    "read-error": _link_loop,
}


@pytest.mark.parametrize("case", sorted(_SIDECAR_CORRUPTIONS))
def test_corrupt_sidecar_falls_back_to_parse(tmp_path, monkeypatch, case):
    samples = _edge_samples(100)
    path = tmp_path / "s.csv"
    write_signal_csv(path, samples, 1 / 80)
    written = _sidecar(path).read_bytes()
    _SIDECAR_CORRUPTIONS[case](_sidecar(path))
    parses = _parses(monkeypatch)
    assert read_signal_csv(path).tobytes() == samples.tobytes()
    assert parses == [path]
    assert _sidecar(path).read_bytes() == written  # rewritten whole
    assert read_signal_csv(path).tobytes() == samples.tobytes()
    assert parses == [path]


def test_directory_in_sidecar_place_never_fails_a_read(tmp_path):
    samples = _edge_samples(100)
    path = tmp_path / "s.csv"
    write_signal_csv(path, samples, 1.0)
    _sidecar(path).unlink()
    _sidecar(path).mkdir()
    for _ in range(2):
        assert read_signal_csv(path).tobytes() == samples.tobytes()
    assert _sidecar(path).is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.csv.f8"]  # no temporary file left


def test_unwritable_sidecar_never_fails_a_read(tmp_path, monkeypatch):
    def refuse(*_):
        raise PermissionError("read-only directory")

    monkeypatch.setattr(ingest.os, "replace", refuse)
    samples = _edge_samples(100)
    path = tmp_path / "s.csv"
    write_signal_csv(path, samples, 1.0)
    assert read_signal_csv(path).tobytes() == samples.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]


@pytest.mark.parametrize(
    "body, message",
    [
        (b"", "no samples after header"),
        (b"0,1.0\n1,inf\n", "non-finite voltage at row 3"),
        (b"0,1.0\n1,\xff\n", "not UTF-8 text"),
    ],
)
def test_csv_rewritten_after_its_sidecar_gives_its_own_error(tmp_path, body, message):
    path = tmp_path / "s.csv"
    write_signal_csv(path, _edge_samples(100), 1.0)
    path.write_bytes(f"{CSV_HEADER}\n".encode() + body)
    for _ in range(2):
        with pytest.raises(IngestError, match=message):
            read_signal_csv(path)


@pytest.mark.parametrize("where", ["row-3", "near-end"])
def test_non_utf8_byte_is_reported_at_its_file_offset(tmp_path, where):
    # about 750 kB: far past the first chunk the text decoder reads
    path = tmp_path / "s.csv"
    write_signal_csv(path, np.random.default_rng(0).normal(size=20_000), 1.0)
    raw = bytearray(path.read_bytes())
    third_row = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    offset = third_row + 2 if where == "row-3" else len(raw) - 3
    raw[offset] = 0xFF  # never valid in UTF-8
    path.write_bytes(bytes(raw))
    with pytest.raises(IngestError) as exc:
        read_signal_csv(path)
    assert str(exc.value) == f"{path}: not UTF-8 text (byte 0xff at offset {offset})"


@pytest.mark.parametrize("row", [b"# sensor rebooted", b"1.0,2.0 # x", b"#1.0,2.0"])
def test_comment_rows_are_malformed(tmp_path, row):
    path = tmp_path / "s.csv"
    path.write_bytes(f"{CSV_HEADER}\n0,1.0\n".encode() + row + b"\n2,3.0\n")
    with pytest.raises(IngestError, match=f"{path.name}: malformed CSV row"):
        read_signal_csv(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(f"{CSV_HEADER}\n0,1.0\n\n1,2.0\n\n".encode())
    assert read_signal_csv(path).tolist() == [1.0, 2.0]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_standard_numbers(tmp_path, value):
    path = tmp_path / "out" / "report.json"
    with pytest.raises(ValueError, match="report.json"):
        ingest.write_json(path, {"ok": 1.0, "rows": [{"bad": value}]})
    assert not path.exists()
