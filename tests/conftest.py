import contextlib
from pathlib import Path

import numpy as np
import pytest

from sproutcast import ingest
from sproutcast.features import ExampleSet, FeatureVector
from sproutcast.ingest import Recording, iter_recordings, load_manifest, write_json, write_recording
from sproutcast.regress import RegressorSpec, TrainedModel

from datetime import date, timedelta

START = date(2023, 10, 1)


def make_recording(subject_id="p00", days=3, rate=1.0, samples=None, sprout_day=None, **kwargs):
    """A small labelled recording; defaults to seeded noise ending at sprouting."""
    n = int(round(days * 86400 * rate))
    if samples is None:
        samples = np.random.default_rng(hash(subject_id) % 2**32).normal(size=n)
    sprout = START + timedelta(days=sprout_day if sprout_day is not None else days)
    return Recording(
        subject_id=subject_id,
        variety=kwargs.get("variety", "Agria"),
        storage_temp_c=kwargs.get("storage_temp_c", 8),
        sample_rate_hz=rate,
        start_day=START,
        samples=samples,
        sprouting_day=sprout,
    )


def write_corpus(recordings, out_dir, label):
    """Write a corpus: one signal CSV per subject, then ``manifest.json``; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subjects = [write_recording(rec, out_dir) for rec in recordings]
    return write_json(out_dir / "manifest.json", {"label": label, "subjects": subjects})


def read_corpus(manifest_path):
    """Every recording of a manifest, in manifest order."""
    return list(iter_recordings(load_manifest(manifest_path)))


def make_signal(samples, rate=256.0, subject_id="s"):
    """A recording of ``samples`` to run conditioning stages on."""
    return make_recording(subject_id, rate=rate, samples=samples)


def make_examples(x, y):
    """Wrap plain arrays into a one-subject ExampleSet for the regressor."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float).reshape(len(y), -1)
    return ExampleSet(
        x=x,
        y=y,
        groups=np.zeros(len(y), dtype=np.intp),
        features=[FeatureVector("t", i, 0, row) for i, row in enumerate(x)],
        layout="",
        true_day={"t": 0},
    )


def constant_model(value, n_features=1):
    """A trained model with no trees: predicts ``value`` everywhere."""
    return TrainedModel(
        spec=RegressorSpec(n_trees=1),
        trees=[],
        base_prediction=float(value),
        feature_layout_version="",
        n_features=n_features,
    )


def interrupt_writes(monkeypatch, module):
    """Make each output that ``module`` writes through ``atomic_output`` stop half-way
    through its first write, as an interrupt (Ctrl-C) would."""
    atomic_output = ingest.atomic_output

    class Interrupted:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise KeyboardInterrupt

    @contextlib.contextmanager
    def interrupted(path):
        with atomic_output(path) as fh:
            yield Interrupted(fh)

    monkeypatch.setattr(module, "atomic_output", interrupted)


def temp_files(directory):
    """The temp files left anywhere under ``directory``."""
    return sorted(Path(directory).rglob("*.tmp"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
