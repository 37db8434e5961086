"""Fuzz tests of the input boundaries: manifests, signal CSVs, model files and reports.

Each test starts from a valid file, deletes keys, swaps values for arbitrary
JSON, and truncates or garbles bytes.  Loading the result may succeed or
raise ValueError (IngestError and ConfigError are ValueErrors); a missing
file raises FileNotFoundError, which the CLI reports as missing input.  Any
other exception fails the test, as does a warning from the manifest and CSV
readers, and the deadline catches a loader that crawls.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sproutcast.cli import main
from sproutcast.config import PipelineConfig
from sproutcast.evaluate import compute_metrics, loo_cv, write_report
from sproutcast.features import build_dataset
from sproutcast.ingest import SIDECAR_SUFFIX, load_manifest, read_signal_csv
from sproutcast.regress import (
    Ensemble,
    RegressorSpec,
    ensemble_predict_matrix,
    fit_arrays,
    fit_ensemble_arrays,
    load_model,
    predict_matrix,
    save_model,
)
from sproutcast.synth import SynthConfig, iter_recordings

from conftest import make_recording, read_corpus, write_corpus

RATE = 1 / 96
FUZZ = settings(max_examples=300, deadline=2000)

# values near the edges of what the loaders accept: empty, directory-like and
# overlong paths, fractional and out-of-range numbers
EDGES = st.sampled_from(["", ".", "a.csv", "x" * 5000, 8.7, 0, -1, 10**400, float("nan"), float("inf")])
JSON = st.recursive(
    EDGES | st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def _slots(node):
    """Every (container, key) pair below ``node``, a parsed JSON document."""
    found, stack = [], [node]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            found.append((node, key))
            stack.append(value)
    return found


@st.composite
def corrupted_bytes(draw, data: bytes):
    """``data`` truncated, garbled in a few bytes, or as it is."""
    how = draw(st.sampled_from(["keep", "keep", "truncate", "garble"]))
    if how == "truncate":
        return data[: draw(st.integers(0, len(data)))]
    if how == "garble":
        raw = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            # half the time in the first 64 bytes, where the headers are
            at = st.integers(0, len(raw) - 1) | st.integers(0, min(63, len(raw) - 1))
            raw[draw(at)] = draw(st.integers(0, 255))
        return bytes(raw)
    return data


@st.composite
def corrupted_json(draw, doc):
    """The bytes of ``doc`` after 1-3 key deletions or value swaps, then maybe byte damage."""
    holder = [json.loads(json.dumps(doc))]  # a copy; holder[0] lets the whole document be swapped
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(_slots(holder)))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(JSON)
    return draw(corrupted_bytes(json.dumps(holder[0]).encode()))


def _rejects_cleanly(load, *args):
    """Run ``load``; a ValueError or FileNotFoundError is a clean rejection."""
    try:
        return load(*args)
    except (ValueError, FileNotFoundError):
        return None


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A two-subject dataset on disk; returns its manifest path."""
    recs = [make_recording(sid, days=1, rate=1 / 864, samples=np.arange(100.0) + i) for i, sid in enumerate("ab")]
    return write_corpus(recs, tmp_path_factory.mktemp("corpus"), "fuzz")


@pytest.mark.filterwarnings("error")  # the CLI's one-line error allows no warning beside it
@FUZZ
@given(data=st.data())
def test_fuzzed_manifest(corpus, data):
    path = corpus.with_name("fuzzed.json")
    path.write_bytes(data.draw(corrupted_json(json.loads(corpus.read_text()))))
    loaded = _rejects_cleanly(lambda p: (load_manifest(p).label, read_corpus(p)), path)
    if loaded is not None:
        # what loads is what the manifest says, with the manifest's types
        label, recordings = loaded
        manifest = json.loads(path.read_text())
        assert label == manifest.get("label", path.stem) and isinstance(label, str)
        for rec, entry in zip(recordings, manifest["subjects"], strict=True):
            assert (rec.subject_id, rec.variety) == (entry["id"], entry["variety"])
            assert rec.storage_temp_c == entry["storage_temp_c"] and type(rec.storage_temp_c) is int
            assert rec.sample_rate_hz == entry["sample_rate_hz"]


@pytest.mark.filterwarnings("error")
@FUZZ
@given(data=st.data())
def test_fuzzed_signal_csv(corpus, data):
    valid = (corpus.parent / "a.csv").read_bytes()
    lines = valid.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    line = data.draw(st.text(max_size=12)).encode()
    lines[i : i + data.draw(st.integers(0, 1))] = [line] if data.draw(st.booleans()) else []
    path = corpus.parent / "fuzzed.csv"
    path.write_bytes(data.draw(corrupted_bytes(b"\n".join(lines))))
    sidecar = path.with_name(path.name + SIDECAR_SUFFIX)
    sidecar.unlink(missing_ok=True)
    # the first read parses and writes the sidecar, the second takes its voltages from it
    outcomes = []
    for _ in range(2):
        try:
            samples = read_signal_csv(path)
        except (ValueError, FileNotFoundError) as exc:
            outcomes.append(repr(exc))
        else:
            assert samples.ndim == 1 and samples.size and np.isfinite(samples).all()
            outcomes.append(samples.tobytes())
    assert outcomes[0] == outcomes[1]
    assert sidecar.exists() == isinstance(outcomes[0], bytes)


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """The JSON of a small single model and of a small ensemble."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = x[:, 0] - x[:, 1]
    spec = RegressorSpec(n_trees=3, max_depth=2, min_samples_leaf=2, seed=1)
    base = tmp_path_factory.mktemp("models")
    single = save_model(fit_arrays(x, y, spec, "fuzz-v1"), base / "single.json")
    ensemble = save_model(fit_ensemble_arrays(x, y, spec, n_members=3, feature_layout="fuzz-v1"), base / "ens.json")
    return base, [json.loads(p.read_text()) for p in (single, ensemble)]


@FUZZ
@given(data=st.data())
def test_fuzzed_model_file(models, data):
    base, docs = models
    path = base / "fuzzed.json"
    path.write_bytes(data.draw(corrupted_json(data.draw(st.sampled_from(docs)))))
    model = _rejects_cleanly(load_model, path)
    if model is not None and 0 <= model.n_features <= 16:
        # a model that loads must predict, or refuse the row with a ValueError
        x = np.zeros((2, model.n_features))
        predict = ensemble_predict_matrix if isinstance(model, Ensemble) else predict_matrix
        _rejects_cleanly(predict, model, x)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """A report written by a real leave-one-out run; returns its directory and JSON."""
    base = tmp_path_factory.mktemp("report")
    recordings = iter_recordings(SynthConfig(n_subjects=3, days_min=12, days_max=13, sample_rate_hz=RATE,
                                             signature_band_low_hz=0.0008, signature_band_high_hz=0.004, seed=5))
    cfg = PipelineConfig(target_hz=RATE, scales=4, n_trees=4, max_depth=2, min_samples_leaf=2)
    path = write_report(compute_metrics(loo_cv(build_dataset(recordings, cfg), cfg), cfg, label="fuzz"), base / "report.json")
    return base, json.loads(path.read_text())


@FUZZ
@given(data=st.data())
def test_fuzzed_report(report, data):
    base, doc = report
    path = base / "fuzzed.json"
    path.write_bytes(data.draw(corrupted_json(doc)))
    # the viewer reads every part it prints or writes; main turns a ValueError into exit 3
    assert main(["report", "--report", str(path), "--curves-dir", str(base / "curves")]) in (0, 3)

