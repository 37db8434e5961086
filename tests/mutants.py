"""Planted faults that the suite must catch.

Each mutant names a module of ``src/sproutcast``, a text that occurs in it
exactly once, the text that replaces it, and the tests (pytest node ids from
the repository root) that must all fail once it is in.  ``test_mutants.py``
applies each one to a copy of ``src/`` and runs its tests against the copy.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    kills: tuple[str, ...]


MUTANTS = {
    # sorted neighbours never compare <, so no equal values are blocked as split candidates
    "tie-mask-strict": Mutant(
        "regress.py",
        "ties = sorted_values[:, 1:] <= sorted_values[:, :-1]",
        "ties = sorted_values[:, 1:] < sorted_values[:, :-1]",
        ("tests/test_regress.py::test_tie_mask_blocks_signed_zeros_and_repeated_values",),
    ),
    # a column that sorts like an earlier one is dropped even where it ties less often
    "undominated-by-order-alone": Mutant(
        "regress.py",
        "if not any((ties[j] >= ties[i]).all() for i in kept):",
        "if not kept:",
        ("tests/test_regress.py::test_columns_that_sort_like_an_earlier_one",),
    ),
    # the magnitude as sqrt(re^2 + im^2), not np.abs's hypot: the last bits of the |CWT| move
    "cwt-magnitude-sqrt": Mutant(
        "wavelet.py",
        "np.abs(block, out=coeffs[start:stop])",
        "np.sqrt(block.real * block.real + block.imag * block.imag, out=coeffs[start:stop])",
        ("tests/test_golden.py",),
    ),
    # a sidecar is trusted on its magic and CSV digest alone, whatever its payload holds
    "sidecar-payload-unchecked": Mutant(
        "ingest.py",
        "if head != _SIDECAR_MAGIC + digest + hashlib.sha256(voltages).digest():",
        "if not head.startswith(_SIDECAR_MAGIC + digest):",
        ("tests/test_ingest.py::test_corrupt_sidecar_falls_back_to_parse",),
    ),
}
