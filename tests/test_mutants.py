"""The suite catches every planted fault of ``mutants.MUTANTS``.

``src/`` is copied once; its tests must pass against the unmutated copy,
then each mutant is written into the copy in turn, and a child pytest run
against it must fail every test the mutant names.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def _run_tests(src: Path, ids: list[str]) -> subprocess.CompletedProcess:
    """A child pytest of ``ids`` that imports sproutcast from ``src`` alone."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.slow
def test_each_mutant_fails_its_tests_and_the_unmutated_copy_passes(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    ids = sorted({test for mutant in MUTANTS.values() for test in mutant.kills})
    clean = _run_tests(src, ids)
    assert clean.returncode == 0, clean.stdout[-2000:]
    survived = {}
    for name, mutant in MUTANTS.items():
        path = src / "sproutcast" / mutant.module
        original = path.read_text()
        assert original.count(mutant.old) == 1, f"{name}: the old text must occur once in {mutant.module}"
        path.write_text(original.replace(mutant.old, mutant.new))
        try:
            run = _run_tests(src, list(mutant.kills))
        finally:
            path.write_text(original)
        # exit code 1: tests ran and some failed; an error in collection or usage kills nothing
        failed = re.findall(r"^FAILED (\S+)", run.stdout, re.M) if run.returncode == 1 else []
        missed = [test for test in mutant.kills if not any(f == test or f.startswith((test + "::", test + "[")) for f in failed)]
        if missed:
            survived[name] = (missed, run.stdout[-1000:])
    assert not survived, survived
