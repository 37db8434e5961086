"""Results do not depend on the BLAS thread count.

BLAS sums (``x @ x``, ``np.linalg.norm``) split long vectors between
threads and round differently with 1 and with 2 of them, so the pipeline
sums with numpy's own reductions.  Each thread count runs in a fresh
interpreter, because BLAS reads it at start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# one SHA-256 per line: a 1 Hz synthetic recording, the Morlet kernels of
# a 1 Hz day window, and the statistics of day-long rows
SCRIPT = """
import hashlib
import numpy as np
from sproutcast.features import _reduce_rows
from sproutcast.synth import SynthConfig, generate_recording
from sproutcast.wavelet import morlet_kernel, plan_scales

rec = generate_recording(SynthConfig(n_subjects=1, days_min=5, days_max=5, seed=3), 0)
kernels = np.stack([morlet_kernel(s, 86400) for s in plan_scales(1.0, 86400).scales])
for arr in (rec.samples, kernels, _reduce_rows(rec.samples.reshape(5, 86400), 64)):
    print(hashlib.sha256(arr.tobytes()).hexdigest())
"""


def _digests(threads: int) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_results_do_not_depend_on_blas_threads():
    one, two = _digests(1), _digests(2)
    assert len(one) == 3
    assert one == two
