import dataclasses
import hashlib
import json
import os
import random
import tracemalloc
from datetime import date
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sproutcast import ingest
from sproutcast.features import build_dataset
from sproutcast.ingest import (
    CSV_HEADER,
    SIDECAR_SUFFIX,
    IngestError,
    Recording,
    iter_recordings,
    load_manifest,
    read_signal_csv,
    write_signal_csv,
)

from conftest import interrupt_writes, make_recording, read_corpus, temp_files, write_corpus


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
    path = write_manifest(tmp_path, subjects)
    recs = read_corpus(path)
    assert len(recs) == 3
    assert load_manifest(path).label == "ds"
    assert [rec.subject_id for rec in recs] == ["p0", "p1", "p2"]


def test_duplicate_subject_id_names_offender(tmp_path):
    subjects = [subject_entry(tmp_path, "p01"), subject_entry(tmp_path, "p01")]
    with pytest.raises(IngestError, match="p01"):
        read_corpus(write_manifest(tmp_path, subjects))
    # the duplicate is found before any CSV is read, so a missing one does not hide it
    subjects = [subject_entry(tmp_path, "p01"), subject_entry(tmp_path, "p02"), subject_entry(tmp_path, "p01")]
    subjects[1]["signal_path"] = "missing.csv"
    with pytest.raises(IngestError, match=r"manifest\.json subject 'p01': duplicate subject_id"):
        read_corpus(write_manifest(tmp_path, subjects))


def _no_csv_read(monkeypatch):
    def refuse(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(ingest, "read_signal_csv", refuse)


# case -> (change to the last of three entries, labelled, error, message)
_MANIFEST_FAULTS = {
    "csv-missing": ({"signal_path": "gone.csv"}, False, FileNotFoundError, "file not found: .*gone.csv"),
    "csv-is-a-directory": ({"signal_path": "."}, False, IngestError, "not a file"),
    "sprouting-before-start": (
        {"sprouting_day": "2023-09-30"}, False, IngestError,
        r"manifest\.json: subject 'p2': sprouting_day 2023-09-30 precedes start_day 2023-10-01",
    ),
    "rate-not-positive": (
        {"sample_rate_hz": 0}, False, IngestError,
        r"manifest\.json: subject 'p2': sample_rate_hz must be positive and finite",
    ),
    "unlabelled": ({"sprouting_day": None}, True, IngestError, "^recordings without sprouting_day: p2$"),
}


@pytest.mark.parametrize("case", sorted(_MANIFEST_FAULTS))
def test_load_manifest_finds_every_manifest_fault_before_reading_a_csv(case, tmp_path, monkeypatch):
    change, labelled, error, message = _MANIFEST_FAULTS[case]
    subjects = [subject_entry(tmp_path, f"p{i}") for i in range(3)]
    subjects[-1].update(change)
    path = write_manifest(tmp_path, [{k: v for k, v in s.items() if v is not None} for s in subjects])
    _no_csv_read(monkeypatch)
    with pytest.raises(error, match=message):
        load_manifest(path, labelled=labelled)


def test_iter_recordings_reads_one_csv_per_step(tmp_path, monkeypatch):
    subjects = [subject_entry(tmp_path, f"p{i}", n=10 + i) for i in range(3)]
    subjects[1].pop("sprouting_day")
    _no_csv_read(monkeypatch)
    path = write_manifest(tmp_path, subjects)
    manifest = load_manifest(path)
    assert manifest.label == "ds" and manifest.entries == subjects
    monkeypatch.undo()
    read = []
    monkeypatch.setattr(ingest, "read_signal_csv", lambda path: read.append(path.name) or read_signal_csv(path))
    for i, rec in enumerate(iter_recordings(manifest)):
        assert read == [f"p{j}.csv" for j in range(i + 1)]
        assert (rec.subject_id, len(rec.samples)) == (f"p{i}", 10 + i)
    assert [rec.subject_id for rec in read_corpus(path)] == ["p0", "p1", "p2"]


def test_mixed_variety_composition_64_subjects(tmp_path):
    # 8C storage batch: 16 Sorentina, 16 SHC1010, 32 Agria
    varieties = ["Sorentina"] * 16 + ["SHC1010"] * 16 + ["Agria"] * 32
    subjects = []
    for i, variety in enumerate(varieties):
        entry = subject_entry(tmp_path, f"p{i:02d}")
        entry["variety"] = variety
        subjects.append(entry)
    recs = read_corpus(write_manifest(tmp_path, subjects, label="dataset1-8C"))
    assert len(recs) == 64
    counts = {v: sum(r.variety == v for r in recs) for v in set(varieties)}
    assert counts == {"Sorentina": 16, "SHC1010": 16, "Agria": 32}


def test_missing_manifest_and_signal(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_corpus(tmp_path / "nope.json")
    subjects = [subject_entry(tmp_path, "p0")]
    subjects[0]["signal_path"] = "gone.csv"
    with pytest.raises(FileNotFoundError, match="gone.csv"):
        read_corpus(write_manifest(tmp_path, subjects))


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
        read_corpus(write_manifest(tmp_path, subjects))


def test_no_silent_sample_drop(tmp_path):
    n = 1237
    subjects = [subject_entry(tmp_path, "p0", n=n)]
    (rec,) = read_corpus(write_manifest(tmp_path, subjects))
    assert len(rec.samples) == n


def test_round_trip_identical(tmp_path):
    rng = np.random.default_rng(0)
    recs = [
        make_recording("a", days=1, rate=1 / 864, samples=rng.normal(size=100)),
        make_recording("b", days=2, rate=1 / 864, samples=rng.normal(size=250), sprout_day=5),
    ]
    m1 = write_corpus(recs, tmp_path / "one", "rt")
    loaded = read_corpus(m1)
    m2 = write_corpus(loaded, tmp_path / "two", load_manifest(m1).label)
    again = read_corpus(m2)
    assert load_manifest(m2).label == "rt"
    for r1, r2 in zip(loaded, again, strict=True):
        assert r1.subject_id == r2.subject_id
        assert r1.variety == r2.variety
        assert r1.storage_temp_c == r2.storage_temp_c
        assert r1.sample_rate_hz == r2.sample_rate_hz
        assert r1.start_day == r2.start_day
        assert r1.sprouting_day == r2.sprouting_day
        assert np.array_equal(r1.samples, r2.samples)
    # and the write is faithful to the original samples, bit for bit
    for orig, r1 in zip(recs, loaded):
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
    with pytest.raises(IngestError, match="sprouting_day"):
        build_dataset([rec])


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


def _percent_body(samples, rate):
    """The rows as the % expression writes them: the writer's oracle."""
    rows = np.column_stack([np.arange(len(samples), dtype=np.float64) / rate, samples])
    return (("%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())).encode()


def _neighbours(values):
    values = np.array(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]).tolist()


# %g's fixed notation covers decimal exponents -4..16; the writer formats
# those values itself, and each power of ten across them is a decade edge
_DECADE_EDGES = _neighbours([10.0**p for p in range(-5, 18)] + [-1e-4, -1e17, 9.99995e-5, 0.0, -0.0])
# m / 4 for odd m in [4e15, 9e15]: the 17th digit is an exact tie, x.25 or x.75
_TIES = st.integers(2 * 10**15, 45 * 10**14 - 1).map(lambda k: (2 * k + 1) / 4)
_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
_VALUES = st.one_of(_BIT_PATTERNS, st.sampled_from(_DECADE_EDGES), _TIES, st.floats(-1e3, 1e3))
# three chunks of rows, a few of them left to % one by one or in runs
_LONG = np.random.default_rng(5).normal(size=5000) * 10.0 ** np.random.default_rng(6).integers(-3, 8, size=5000)
_LONG[[7, 2047, 2048, 2049, 3000, 3001, 3002, 4999]] = [1e-300, np.nan, -np.inf, 1e300, 2e15 + 0.25, 5e-5, -1e17, 3e-7]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    samples=st.lists(st.one_of(_VALUES, _VALUES.map(lambda x: -x)), min_size=1, max_size=40),
    rate=st.sampled_from([1.0, 1 / 80, 1 / 96, 3.0, 256.0, 1e-5, 7e4]),
)
@example(samples=[-0.0, 0.0, -1.5, 1e16 + 2.0], rate=1.0)
@example(samples=_DECADE_EDGES, rate=1 / 96)
@example(samples=_LONG.tolist(), rate=1 / 80)
@example(samples=[1e15 + 0.25, 1e15 + 0.75, -(2e15 + 0.25), 2.25e15 - 0.25], rate=1.0)
def test_signal_csv_body_equals_the_percent_expression(tmp_path_factory, samples, rate):
    path = tmp_path_factory.mktemp("oracle") / "s.csv"
    samples = np.array(samples, dtype=np.float64)
    write_signal_csv(path, samples, rate)
    header, body = path.read_bytes().split(b"\n", 1)
    assert header.decode() == CSV_HEADER
    assert body == _percent_body(samples, rate)


def _exact_ties(count, seed):
    """Values q * 2**-j whose exact decimal has 18 significant digits, the last a 5, so that
    rounding to 17 digits is an exact tie; both signs, 1e-4 <= |x| < 2**51 (no float above has one)."""
    rng = random.Random(seed)
    ties = []
    while len(ties) < count:
        j = rng.randrange(2, 26)  # q * 5**j has 18 digits, with q odd and below 2**53
        q = rng.randrange(-(-(10**17) // 5**j), min((10**18 - 1) // 5**j, 2**53 - 1)) | 1
        if 10**17 <= q * 5**j < 10**18 and q / 2**j >= 1e-4:
            ties.append(rng.choice((1, -1)) * q / 2**j)
    return np.array(ties)


def test_exact_ties_are_written_as_the_percent_expression_writes_them():
    ties = _exact_ties(20000, seed=3)
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert ingest._format_rows(ties.reshape(-1, 2)) == ingest._percent_rows(ties.reshape(-1, 2))


def test_writer_memory_is_one_chunk_of_rows(tmp_path):
    """The writer builds each chunk's elapsed column, never the whole one:
    that and the stacked rows cost 24 bytes a sample, 530 MB for a 256 Hz day."""
    samples = np.random.default_rng(0).normal(size=1_000_000)
    tracemalloc.start()
    try:
        write_signal_csv(tmp_path / "s.csv", samples, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
    replace = os.replace

    def refuse(src, dst):  # the CSV is written; only its sidecar is refused
        if str(dst).endswith(".f8"):
            raise PermissionError("read-only directory")
        replace(src, dst)

    monkeypatch.setattr(ingest.os, "replace", refuse)
    samples = _edge_samples(100)
    path = tmp_path / "s.csv"
    write_signal_csv(path, samples, 1.0)
    assert read_signal_csv(path).tobytes() == samples.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]


def test_interrupted_csv_rewrite_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "s.csv"
    old = np.random.default_rng(0).normal(size=10_000)
    write_signal_csv(path, old, 1.0)
    old_bytes, old_sidecar = path.read_bytes(), _sidecar(path).read_bytes()
    chunks = []
    format_rows = ingest._format_rows

    def third_chunk_interrupted(rows):
        chunks.append(len(rows))
        if len(chunks) == 3:
            raise KeyboardInterrupt
        return format_rows(rows)

    monkeypatch.setattr(ingest, "_format_rows", third_chunk_interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_signal_csv(path, old[::-1].copy(), 1.0)
    assert path.read_bytes() == old_bytes and _sidecar(path).read_bytes() == old_sidecar
    assert read_signal_csv(path).tobytes() == old.tobytes()
    assert temp_files(tmp_path) == []


def test_interrupted_sidecar_write_keeps_the_old_sidecar(tmp_path, monkeypatch):
    write_signal_csv(tmp_path / "s.csv", _edge_samples(100), 1.0)
    sidecar = _sidecar(tmp_path / "s.csv")
    old = sidecar.read_bytes()
    interrupt_writes(monkeypatch, ingest)
    with pytest.raises(KeyboardInterrupt):
        ingest._write_sidecar(sidecar, bytes(32), _edge_samples(50))
    assert sidecar.read_bytes() == old
    assert temp_files(tmp_path) == []


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


def test_a_csv_of_no_samples_has_a_header_and_no_sidecar(tmp_path):
    path = tmp_path / "s.csv"
    write_signal_csv(path, np.empty(0), 1.0)
    assert path.read_text() == CSV_HEADER + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
    with pytest.raises(IngestError, match="no samples after header$"):
        read_signal_csv(path)


def test_an_unlabelled_recording_has_no_sprouting_day_offset():
    rec = make_recording("p0", days=2, rate=1 / 864)
    assert rec.sprouting_day_offset == 2
    assert dataclasses.replace(rec, sprouting_day=None).sprouting_day_offset is None
