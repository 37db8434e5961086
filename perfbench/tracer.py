"""Run one sproutcast CLI command in-process with every public function timed.

    python3 perfbench/tracer.py --spans SPANS.json [--capture CAP.json] -- <sproutcast argv>

The tracer imports ``sproutcast.cli`` (timing the import), wraps the public
functions of each pipeline module in spans, rebinds every reference to
them across the package, calls ``sproutcast.cli.main`` and writes the spans
as JSON.  ``layer_metrics`` folds the spans of several such processes into
the per-layer metrics; it needs no sproutcast import.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import statistics
import sys
import time
from pathlib import Path

MODULES = ("synth", "ingest", "preprocess", "wavelet", "features", "regress", "estimate", "evaluate")
MIB = 2.0**20
# where each traced |CWT| row is sampled for the direct-sum check
CWT_SAMPLES = 6


def _size(path) -> int:
    return os.path.getsize(path)


def _fit_counters(args, kwargs, result) -> dict:
    return {
        "rows": len(args[1]),
        "trees": len(result.trees),
        "nodes": sum(len(t.feature) for t in result.trees),
    }


def _segment_counters(args, kwargs, result) -> dict:
    return {"windows": len(result), "dropped": len(args[0].samples) - sum(len(w.samples) for w in result)}


def _estimate_counters(args, kwargs, result) -> dict:
    kept = sum(e.retained for e in result)
    return {"retained": kept, "discarded": len(result) - kept}


# function -> counters(args, kwargs, result), recorded on its span
COUNTERS = {
    "synth.generate_recording": lambda a, k, r: {"days": len(r.samples) / (r.sample_rate_hz * 86400)},
    "ingest.read_signal_csv": lambda a, k, r: {"bytes": _size(a[0]), "samples": len(r)},
    "ingest.write_signal_csv": lambda a, k, r: {"bytes": _size(a[0])},
    "preprocess.segment": _segment_counters,
    "regress.fit_arrays": _fit_counters,
    "regress.predict_matrix": lambda a, k, r: {"rows": len(a[1])},
    "regress.ensemble_predict_matrix": lambda a, k, r: {"rows": len(a[1])},
    "regress.save_model": lambda a, k, r: {"bytes": _size(r)},
    "regress.load_model": lambda a, k, r: {"bytes": _size(a[0])},
    "estimate.window_estimates": _estimate_counters,
    "estimate.aggregate": lambda a, k, r: {"fallback": int(r.fallback_used)},
    "evaluate.loo_cv": lambda a, k, r: {"folds": len(r)},
    "evaluate.write_report": lambda a, k, r: {"bytes": _size(r)},
}


class Tracer:
    """Spans kept in memory: [name, parent, start, end, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.captures: list[dict] | None = None

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), None, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if counters is not None:
                span[4] = counters(args, kwargs, result)
            if self.captures is not None:
                self._capture(name, args, result)
            return result

        return traced

    def _capture(self, name: str, args, result) -> None:
        """Keep what the output checks need from the traced predict run."""
        if name == "wavelet.cwt":
            window = args[0]
            coeffs = result.coefficients
            positions = [round(i * (coeffs.shape[1] - 1) / (CWT_SAMPLES - 1)) for i in range(CWT_SAMPLES)]
            self.captures.append(
                {"kind": "cwt", "subject_id": window.subject_id, "day": window.day_offset,
                 "positions": positions, "values": coeffs[:, positions].tolist()}
            )
        elif name == "features.build_feature_vector":
            self.captures.append(
                {"kind": "features", "subject_id": result.subject_id, "day": result.day_offset,
                 "values": result.values.tolist()}
            )

    def install(self, package) -> int:
        """Wrap the public functions of MODULES and rebind every reference."""
        modules = [m for m in sys.modules.values() if getattr(m, "__name__", "").startswith(package.__name__)]
        replaced = {}
        for short in MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not inspect.isgeneratorfunction(fn):
                    replaced[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    setattr(mod, attr, replaced[id(value)])
        return len(replaced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("--capture", help="where to write sampled CWT rows and feature rows")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the sproutcast arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    t0 = time.perf_counter()
    import sproutcast
    import sproutcast.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    if args.capture:
        tracer.captures = []
    tracer.install(sproutcast)
    rc = tracer.wrap("cli.main", cli.main)(command)
    Path(args.spans).write_text(json.dumps({"import_s": import_s, "rc": rc, "spans": tracer.spans}), encoding="utf-8")
    if args.capture:
        Path(args.capture).write_text(json.dumps(tracer.captures), encoding="utf-8")
    return rc


# ------------------------------------------------------------ span algebra


class _Spans:
    """Inclusive, self and same-module time of the spans of one process."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[1] >= 0:
                self.children[span[1]].append(i)

    def name(self, i: int) -> str:
        return self.spans[i][0]

    def module(self, i: int) -> str:
        return self.spans[i][0].split(".")[0]

    def incl(self, i: int) -> float:
        return self.spans[i][3] - self.spans[i][2]

    def self_time(self, i: int) -> float:
        return self.incl(i) - sum(self.incl(c) for c in self.children[i])

    def module_time(self, i: int) -> float:
        """Time of span i spent in its own module: its self time plus that
        of descendants reached through the same module only."""
        return self.self_time(i) + sum(self.module_time(c) for c in self.children[i] if self.module(c) == self.module(i))

    def ancestors(self, i: int):
        parent = self.spans[i][1]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][1]

    def outermost(self, names: set[str], outside: set[str] = frozenset()) -> list[int]:
        """Spans named in ``names`` with no ancestor in ``names`` or ``outside``."""
        blocked = names | outside
        return [
            i for i, s in enumerate(self.spans)
            if s[0] in names and not any(self.name(a) in blocked for a in self.ancestors(i))
        ]

    def count(self, name: str, key: str | None = None) -> float:
        return sum((s[4] or {}).get(key, 0) if key else 1 for s in self.spans if s[0] == name)


def layer_metrics(processes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics summed over traced processes: {name: (value, unit)}."""
    total: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        total[name] = total.get(name, 0.0) + value

    for proc in processes:
        sp = _Spans(proc["spans"])

        def incl(names, outside=frozenset()):
            return sum(sp.incl(i) for i in sp.outermost(set(names), set(outside)))

        def module_time(names):
            return sum(sp.module_time(i) for i in sp.outermost(set(names)))

        fits = {"regress.fit", "regress.fit_arrays"}
        ensembles = {"regress.fit_ensemble", "regress.fit_ensemble_arrays"}
        predicts = {"regress.predict", "regress.predict_matrix", "regress.ensemble_predict", "regress.ensemble_predict_matrix"}
        add("cli.self_s", sum(sp.self_time(i) for i in sp.outermost({"cli.main"})))
        add("synth.generate_s", incl({"synth.generate", "synth.generate_recording"}))
        add("synth.subject_days", sp.count("synth.generate_recording", "days"))
        add("ingest.write_s", incl({"ingest.write_dataset", "ingest.write_signal_csv"}))
        add("ingest.write_mb", sp.count("ingest.write_signal_csv", "bytes") / MIB)
        add("ingest.read_s", incl({"ingest.load_dataset", "ingest.read_signal_csv"}))
        add("ingest.read_mb", sp.count("ingest.read_signal_csv", "bytes") / MIB)
        add("ingest.samples", sp.count("ingest.read_signal_csv", "samples"))
        add("preprocess.condition_s", incl({"preprocess.condition", "preprocess.notch_filter", "preprocess.biquad_lowpass", "preprocess.downsample"}))
        add("preprocess.segment_s", incl({"preprocess.segment"}))
        add("preprocess.windows", sp.count("preprocess.segment", "windows"))
        add("preprocess.dropped_samples", sp.count("preprocess.segment", "dropped"))
        add("wavelet.cwt_s", incl({"wavelet.cwt", "wavelet.cwt_direct", "wavelet.plan_scales", "wavelet.morlet_kernel"}))
        add("wavelet.cwt_windows", sp.count("wavelet.cwt"))
        add("features.reduce_s", module_time({"features.build_dataset", "features.extract_subject_features", "features.build_feature_vector", "features.extract_scale_features"}))
        add("features.reduce_windows", sp.count("features.build_feature_vector"))
        add("regress.fit_s", incl(fits, ensembles))
        add("regress.fit_ensemble_s", incl(ensembles))
        add("regress.fits", sp.count("regress.fit_arrays"))
        add("regress.fit_rows", sp.count("regress.fit_arrays", "rows"))
        add("regress.trees", sp.count("regress.fit_arrays", "trees"))
        add("regress.nodes", sp.count("regress.fit_arrays", "nodes"))
        add("regress.predict_s", incl(predicts))
        add("regress.predict_rows", sum((sp.spans[i][4] or {}).get("rows", 0) for i in sp.outermost(predicts)))
        add("regress.model_io_s", incl({"regress.save_model", "regress.load_model"}))
        add("regress.model_bytes", sp.count("regress.save_model", "bytes") + sp.count("regress.load_model", "bytes"))
        add("estimate.window_estimates_s", module_time({"estimate.window_estimates"}))
        add("estimate.aggregate_s", incl({"estimate.aggregate"}))
        add("estimate.aggregate_calls", sp.count("estimate.aggregate"))
        add("estimate.windows_retained", sp.count("estimate.window_estimates", "retained"))
        add("estimate.windows_discarded", sp.count("estimate.window_estimates", "discarded"))
        add("estimate.fallbacks", sp.count("estimate.aggregate", "fallback"))
        add("evaluate.loo_self_s", module_time({"evaluate.loo_cv"}))
        add("evaluate.folds", sp.count("evaluate.loo_cv", "folds"))
        add("evaluate.compute_metrics_s", module_time({"evaluate.compute_metrics"}))
        add("evaluate.write_s", incl({"evaluate.write_report", "evaluate.write_curves"}))
        add("evaluate.report_bytes", sp.count("evaluate.write_report", "bytes"))
        add("trace.spans", len(sp.spans))

    scored = total["estimate.windows_retained"] + total["estimate.windows_discarded"]
    out = {name: (value, _unit(name)) for name, value in total.items() if name not in ("wavelet.cwt_windows", "features.reduce_windows")}
    out["cli.import_s"] = (statistics.median(p["import_s"] for p in processes), "s")
    out["wavelet.cwt_ms_per_window"] = (1000.0 * total["wavelet.cwt_s"] / max(1.0, total["wavelet.cwt_windows"]), "ms")
    out["features.reduce_ms_per_window"] = (1000.0 * total["features.reduce_s"] / max(1.0, total["features.reduce_windows"]), "ms")
    out["estimate.retained_ratio"] = (total["estimate.windows_retained"] / scored if scored else 0.0, "ratio")
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("subject_days"):
        return "days"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
