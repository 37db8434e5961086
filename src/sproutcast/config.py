"""Resolved pipeline configuration.

Precedence is: built-in defaults, then an INI config file (one section per
module), then CLI flags.  ``PipelineConfig`` is a plain dataclass so every
module can take one without importing the CLI.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

from sproutcast.ingest import read_text

ENV_SEED = "SPROUT_SEED"


class ConfigError(ValueError):
    """Raised for malformed config files or inconsistent option values."""


def _at_least(least: int):
    return lambda v: v >= least, f"at least {least}"


_POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")
_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "non-negative and finite")
_FRACTION = (lambda v: 0 < v <= 1, "in (0, 1]")
_STRATEGIES = ("single", "ensemble")

# field -> (test, what it asks for) for every config dataclass (PipelineConfig,
# RegressorSpec, SynthConfig); NaN fails every test
_BOUNDS = {
    "notch_hz": (lambda v: all(0 < c < math.inf for c in v), "positive and finite"),
    "notch_q": _POSITIVE,
    "lowpass_hz": _POSITIVE,
    "lowpass_q": _POSITIVE,
    "target_hz": _POSITIVE,
    "window_seconds": _POSITIVE,
    # plan_scales spaces the CWT frequencies over at least two scales
    "scales": _at_least(2),
    "omega0": _POSITIVE,
    "entropy_bins": _at_least(1),
    "n_trees": _at_least(1),
    "max_depth": _at_least(1),
    "learning_rate": _FRACTION,
    "min_samples_leaf": _at_least(1),
    "subsample": _FRACTION,
    "strategy": (lambda v: v in _STRATEGIES, "'single' or 'ensemble'"),
    "uq_th": (lambda v: v is None or 0 < v < math.inf, "positive and finite"),
    # the ensemble's t-interval needs two members
    "n_members": _at_least(2),
    "calibration_bin_width": _POSITIVE,
    "rolling_n": _at_least(1),
    "jobs": _at_least(1),
    # SynthConfig
    "n_subjects": _at_least(1),
    "days_min": _at_least(1),
    "sample_rate_hz": _POSITIVE,
    "signature_onset_days_before": _at_least(1),
    "signature_gain": _NON_NEGATIVE,
    "noise_std": _NON_NEGATIVE,
    "drift_amplitude": _NON_NEGATIVE,
}


def check_bounds(obj) -> None:
    """Raise ConfigError for the first field of dataclass ``obj`` whose value is out of its bound."""
    for f in fields(obj):
        if f.name in _BOUNDS:
            test, wanted = _BOUNDS[f.name]
            value = getattr(obj, f.name)
            if not test(value):
                raise ConfigError(f"{f.name} must be {wanted}, got {value!r}")


def window_width(window_seconds: float, rate_hz: float, names=("window_seconds", "target_hz")) -> int:
    """Samples in one window of ``window_seconds`` at ``rate_hz``.

    The product must be a whole number of at least 2 samples; the error
    names the two values by ``names``.
    """
    exact = window_seconds * rate_hz
    if not (math.isfinite(exact) and abs(exact - round(exact)) <= 1e-9 and round(exact) >= 2):
        raise ConfigError(
            f"{names[0]} {window_seconds} at {names[1]} {rate_hz} is not a whole number "
            f"of at least 2 samples"
        )
    return int(round(exact))


def option(default, section: str, flag: str | None = None, **argparse_keywords):
    """A config field set by ``flag`` (default ``--<name-with-dashes>``), with any
    further add_argument keywords; a PipelineConfig field is read from INI ``[section]`` too."""
    return field(default=default, metadata={"section": section, "flag": flag, "argparse": argparse_keywords})


@dataclass(frozen=True)
class PipelineConfig:
    notch_hz: tuple[float, ...] = option((50.0, 100.0), "preprocess", "--notch", action="append")
    notch_q: float = option(30.0, "preprocess")
    lowpass_hz: float = option(0.4, "preprocess", "--lowpass")
    lowpass_q: float = option(0.707, "preprocess")
    target_hz: float = option(1.0, "preprocess")
    window_seconds: int = option(86400, "preprocess")
    scales: int = option(8, "wavelet", help="number of CWT scales")
    omega0: float = option(6.0, "wavelet")
    entropy_bins: int = option(64, "features")
    time_domain: bool = option(
        False, "features", action="store_const", const=True, help="extract features from raw windows, skipping the CWT"
    )
    n_trees: int = option(300, "regress")
    max_depth: int = option(4, "regress")
    learning_rate: float = option(0.05, "regress")
    min_samples_leaf: int = option(5, "regress")
    subsample: float = option(0.8, "regress")
    strategy: str = option("single", "train", choices=_STRATEGIES)
    uq_th: float | None = option(None, "train", help="max allowed 95%% CI width (days)")
    n_members: int = option(10, "train")
    seed: int = option(0, "train")
    tlag_min: int = option(-29, "evaluate")
    tlag_max: int = option(0, "evaluate")
    calibration_bin_width: float = option(5.0, "evaluate", "--bin-width")
    rolling_n: int = option(7, "evaluate")
    jobs: int = option(1, "evaluate", help="max parallel fold workers")

    def __post_init__(self) -> None:
        object.__setattr__(self, "notch_hz", tuple(self.notch_hz))  # --notch gives a list
        check_bounds(self)
        if self.strategy == "ensemble" and self.uq_th is None:
            raise ConfigError("--uq-th is required with --strategy ensemble")
        if self.tlag_min > self.tlag_max:
            raise ConfigError("tlag_min must not exceed tlag_max")
        # plan_scales needs f_min = 4 r / W below f_max = r / 4
        if window_width(self.window_seconds, self.target_hz) < 17 and not self.time_domain:
            raise ConfigError(
                f"window_seconds {self.window_seconds} at target_hz {self.target_hz} is fewer than "
                f"17 samples, too short for the CWT"
            )


_OPTIONS = {f.name: f for f in fields(PipelineConfig)}
# the INI sections in pipeline order: each command reads a prefix of them
SECTIONS = tuple(dict.fromkeys(f.metadata["section"] for f in _OPTIONS.values()))
# the scalar one INI value or one flag gives, by field type
_SCALARS = {"int": int, "float": float, "float | None": float, "tuple[float, ...]": float, "str": str}


def option_flag(f: Field) -> tuple[str, dict]:
    """The CLI flag of config field ``f`` and its add_argument keywords."""
    keywords = {"dest": f.name, **f.metadata["argparse"]}
    if f.type != "bool":  # a bool flag takes no value
        keywords["type"] = _SCALARS[f.type]
    return f.metadata["flag"] or "--" + f.name.replace("_", "-"), keywords


def _coerce(name: str, raw: str):
    raw = raw.strip()
    ftype = _OPTIONS[name].type
    try:
        if ftype == "bool":
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if ftype.startswith("tuple"):
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        return _SCALARS[ftype](raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config option {name!r}: cannot parse {raw!r}") from exc


def load_config_file(path: str | Path) -> dict:
    """Parse an INI config file into a {field: value} override dict.

    A missing file raises FileNotFoundError; a path that is not a file, or
    a file that is not UTF-8 text, raises IngestError naming the path.
    """
    parser = configparser.ConfigParser()
    overrides: dict = {}
    try:
        parser.read_string(read_text(path), source=str(path))
        for section in parser.sections():
            if section not in SECTIONS:
                raise ConfigError(f"{path}: unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _OPTIONS or _OPTIONS[key].metadata["section"] != section:
                    raise ConfigError(f"{path}: unknown option {key!r} in section [{section}]")
                overrides[key] = _coerce(key, raw)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return overrides


def resolve_config(
    config_path: str | Path | None = None,
    cli_overrides: dict | None = None,
) -> PipelineConfig:
    """Layer defaults, config file, environment seed, and CLI flags."""
    values: dict = {}
    if config_path is not None:
        values.update(load_config_file(config_path))
    if "seed" not in values and os.environ.get(ENV_SEED):
        try:
            values["seed"] = int(os.environ[ENV_SEED])
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED} must be an integer") from exc
    if cli_overrides:
        values.update({k: v for k, v in cli_overrides.items() if v is not None})
    try:
        return PipelineConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


__all__ = [
    "ENV_SEED",
    "ConfigError",
    "check_bounds",
    "window_width",
    "PipelineConfig",
    "SECTIONS",
    "option",
    "option_flag",
    "load_config_file",
    "resolve_config",
]
