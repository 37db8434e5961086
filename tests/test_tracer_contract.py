"""The names the benchmark's tracer counts or captures must stay traceable.

``perfbench/tracer.py`` wraps the plain functions listed in each pipeline
module's ``__all__``; a name that leaves ``__all__`` or becomes a generator
is silently left unwrapped, and its counters read zero.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
