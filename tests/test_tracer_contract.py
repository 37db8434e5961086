"""The names the benchmark's tracer counts or captures must stay traceable.

``perfbench/tracer.py`` wraps the plain functions listed in each pipeline
module's ``__all__``; a name that leaves ``__all__`` or becomes a generator
is silently left unwrapped, and its counters read zero.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sproutcast

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CAPTURED = ("wavelet.cwt", "features.build_feature_vector")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("name", [*TRACER.COUNTERS, *CAPTURED])
def test_traced_name_is_a_public_plain_function(name):
    short, attr = name.split(".")
    assert short in TRACER.MODULES
    module = importlib.import_module(f"sproutcast.{short}")
    assert attr in module.__all__
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    assert not inspect.isgeneratorfunction(fn)


def test_cli_import_loads_every_traced_module():
    # the tracer looks each module up in sys.modules after importing only sproutcast.cli
    code = "import sys, sproutcast.cli; print(' '.join(m for m in sys.modules if m.startswith('sproutcast.')))"
    env = dict(os.environ, PYTHONPATH=str(Path(sproutcast.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert {f"sproutcast.{short}" for short in TRACER.MODULES} <= loaded
