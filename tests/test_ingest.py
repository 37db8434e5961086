import json
from datetime import date

import numpy as np
import pytest

from sproutcast.ingest import (
    CSV_HEADER,
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
