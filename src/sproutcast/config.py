"""Resolved pipeline configuration.

Precedence is: built-in defaults, then an INI config file (one section per
module), then CLI flags.  ``PipelineConfig`` is a plain dataclass so every
module can take one without importing the CLI.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

ENV_SEED = "SPROUT_SEED"


class ConfigError(ValueError):
    """Raised for malformed config files or inconsistent option values."""


def _at_least(least: int):
    return lambda v: v >= least, f"at least {least}"


_POSITIVE = (lambda v: v > 0, "positive")
_FRACTION = (lambda v: 0 < v <= 1, "in (0, 1]")

# field -> (test, what it asks for); NaN fails every test
_BOUNDS = {
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
    # the ensemble's t-interval needs two members
    "n_members": _at_least(2),
    "calibration_bin_width": _POSITIVE,
    "rolling_n": _at_least(1),
    "jobs": _at_least(1),
}


def check_bounds(obj) -> None:
    """Raise ConfigError for the first field of dataclass ``obj`` whose value is out of its bound."""
    for f in fields(obj):
        if f.name in _BOUNDS:
            test, wanted = _BOUNDS[f.name]
            value = getattr(obj, f.name)
            if not test(value):
                raise ConfigError(f"{f.name} must be {wanted}, got {value!r}")


def window_width(window_seconds: float, rate_hz: float) -> int:
    """Samples in one window of ``window_seconds`` at ``rate_hz``.

    The product must be a whole number of at least 2 samples.
    """
    exact = window_seconds * rate_hz
    if not (math.isfinite(exact) and abs(exact - round(exact)) <= 1e-9 and round(exact) >= 2):
        raise ConfigError(
            f"window_seconds {window_seconds} at target_hz {rate_hz} is not a whole number "
            f"of at least 2 samples"
        )
    return int(round(exact))


@dataclass(frozen=True)
class PipelineConfig:
    # [preprocess]
    notch_hz: tuple[float, ...] = (50.0, 100.0)
    notch_q: float = 30.0
    lowpass_hz: float = 0.4
    lowpass_q: float = 0.707
    target_hz: float = 1.0
    window_seconds: int = 86400
    # [wavelet]
    scales: int = 8
    omega0: float = 6.0
    # [features]
    entropy_bins: int = 64
    time_domain: bool = False
    # [regress]
    n_trees: int = 300
    max_depth: int = 4
    learning_rate: float = 0.05
    min_samples_leaf: int = 5
    subsample: float = 0.8
    # [train]
    strategy: str = "single"
    uq_th: float | None = None
    n_members: int = 10
    seed: int = 0
    # [evaluate]
    tlag_min: int = -29
    tlag_max: int = 0
    calibration_bin_width: float = 5.0
    rolling_n: int = 7
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in ("single", "ensemble"):
            raise ConfigError(f"strategy must be 'single' or 'ensemble', got {self.strategy!r}")
        if self.strategy == "ensemble" and self.uq_th is None:
            raise ConfigError("--uq-th is required with --strategy ensemble")
        if self.uq_th is not None and not self.uq_th > 0:
            raise ConfigError("uq_th must be positive")
        if self.tlag_min > self.tlag_max:
            raise ConfigError("tlag_min must not exceed tlag_max")
        check_bounds(self)
        window_width(self.window_seconds, self.target_hz)


_SECTION_FIELDS = {
    "preprocess": ("notch_hz", "notch_q", "lowpass_hz", "lowpass_q", "target_hz", "window_seconds"),
    "wavelet": ("scales", "omega0"),
    "features": ("entropy_bins", "time_domain"),
    "regress": ("n_trees", "max_depth", "learning_rate", "min_samples_leaf", "subsample"),
    "train": ("strategy", "uq_th", "n_members", "seed"),
    "evaluate": ("tlag_min", "tlag_max", "calibration_bin_width", "rolling_n", "jobs"),
}

_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _coerce(name: str, raw: str):
    raw = raw.strip()
    ftype = _FIELD_TYPES[name]
    try:
        if name == "notch_hz":
            return tuple(float(tok) for tok in raw.split(",") if tok.strip()) if raw else ()
        if ftype == "bool":
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if ftype == "int":
            return int(raw)
        if ftype in ("float", "float | None"):
            return float(raw)
        return raw
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config option {name!r}: cannot parse {raw!r}") from exc


def load_config_file(path: str | Path) -> dict:
    """Parse an INI config file into a {field: value} override dict."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    overrides: dict = {}
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTION_FIELDS[section]:
                raise ConfigError(f"{path}: unknown option {key!r} in section [{section}]")
            overrides[key] = _coerce(key, raw)
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
    "load_config_file",
    "resolve_config",
]
