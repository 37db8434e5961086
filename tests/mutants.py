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
    # examples follow the manifest's order, not the subjects' ids
    "examples-in-manifest-order": Mutant(
        "features.py",
        "ids = sorted(per_subject)",
        "ids = list(per_subject)",
        ("tests/test_metamorphic.py::test_reversing_the_manifest_keeps_the_report[single]",),
    ),
    # every entropy bin's probability is off by a constant
    "entropy-probability-offset": Mutant(
        "features.py",
        "p = counts[nonzero] / n",
        "p = counts[nonzero] / n + 1e-3",
        ("tests/test_features.py::test_block_reduction_matches_per_row_oracle",),
    ),
    # a block whose least value is exactly zero skips the rows that mix -0.0 and 0.0
    "mixed-zero-rows-skipped-at-zero": Mutant(
        "features.py",
        "if lo.min() <= 0.0:",
        "if lo.min() < 0.0:",
        ("tests/test_features.py::test_block_reduction_matches_oracle_on_rows_with_zeros",),
    ),
    # a window of the observation day itself is counted as already observed
    "observation-day-inclusive": Mutant(
        "estimate.py",
        "e.day_offset < observation_day",
        "e.day_offset <= observation_day",
        ("tests/test_estimate.py::test_aggregate_respects_observation_day",),
    ),
    # the members' mean summed in reverse order: the same mean up to its last bits
    "ensemble-mean-reversed": Mutant(
        "regress.py",
        "mean = preds.mean(axis=0)",
        "mean = preds[::-1].mean(axis=0)",
        # test_regress.py's forest-walk oracle fails on it too, but hypothesis shrinks the failure for a minute
        ("tests/test_golden.py::test_golden_outputs[lowrate-evaluate-ensemble]",
         "tests/test_golden.py::test_golden_outputs[lowrate-report-ensemble]"),
    ),
    # a child index is bounded by the whole forest, not by its own tree
    "child-bounded-by-forest": Mutant(
        "regress.py",
        "(child >= size)",
        "(child >= n.sum())",
        ("tests/test_cli.py::test_predict_rejects_corrupt_model_file[child-into-next-tree]",),
    ),
    # an exact 17-digit tie rounds half up, where %.17g rounds it to even
    "csv-tie-half-up": Mutant(
        "ingest.py",
        "np.rint(err).astype(np.int64)",
        "np.floor(err + 0.5).astype(np.int64)",
        ("tests/test_ingest.py::test_exact_ties_are_written_as_the_percent_expression_writes_them",),
    ),
}
