"""Flat ``section.key = value`` run-configuration files.

Example::

    mode = compare
    model.kind = volume_first_order
    model.phi_v = 1.0
    model.psi = 0
    model.F_p = 3
    grid.n = 201
    grid.theta_end = 5.0
    grid.samples = 201
    output.snapshots = 1.0, 3.0

Every grid, output and bed key is listed once, in ``_KEYS``, with the
field it sets and its parser; ``model.*`` keys go to
:func:`~gassolid.core.build_model`.  Malformed lines raise
:class:`~gassolid.core.ConfigError` carrying the line number; unknown keys
and invalid values raise it naming the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .bed import BedParams
from .core import ConfigError, ModelParams, _as_float, build_model
from .steppers import DEFAULT_DECREMENT_CAP


class RunMode(Enum):
    QM_ONLY = "qm_only"
    FD_ONLY = "fd_only"
    COMPARE = "compare"


_MODE_ALIASES = {
    "qm_only": RunMode.QM_ONLY,
    "qmonly": RunMode.QM_ONLY,
    "qm": RunMode.QM_ONLY,
    "fd_only": RunMode.FD_ONLY,
    "fdonly": RunMode.FD_ONLY,
    "fd": RunMode.FD_ONLY,
    "compare": RunMode.COMPARE,
}


@dataclass
class RunConfig:
    """Parsed and validated run configuration."""

    model: ModelParams
    mode: RunMode = RunMode.QM_ONLY
    grid_n: int = 201
    theta_end: float = 5.0
    samples: int = 201
    decrement_cap: float = DEFAULT_DECREMENT_CAP
    snapshots: tuple[float, ...] = ()
    out_dir: str | None = None
    bed: BedParams | None = None
    bed_dtau: float = 0.01
    bed_tau_end: float = 5.0
    bed_n_eta: int = 257
    bed_n_radial: int = 101
    bed_n_segments: int = 64
    bed_samples: int = 51
    raw: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for key, value in (("grid.theta_end", self.theta_end), ("bed.dtau", self.bed_dtau),
                           ("bed.tau_end", self.bed_tau_end)):
            if not 0.0 < value < math.inf:  # NaN fails too
                raise ConfigError(f"{key} must be positive and finite, got {value}")
        if self.samples < 2:
            raise ConfigError("grid.samples must be at least 2")
        if not self.decrement_cap > 0.0:
            raise ConfigError(f"grid.decrement_cap must be positive, got {self.decrement_cap}")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Lower the file to a flat string map with line-anchored errors."""
    entries: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        entries[key] = value
    return entries


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {value!r}") from None


def _to_floats(key: str, value: str) -> tuple[float, ...]:
    return tuple(_as_float(key, p) for p in value.replace(",", " ").split())


_BED_REQUIRED = ("peclet", "beta", "phi", "biot_m")
_BED_GROUPS = _BED_REQUIRED + ("bed_length",)

# Every grid, output and bed key: (field, parser).  The bed's physical
# groups are BedParams fields; every other field is RunConfig's.
_KEYS = {
    "grid.n": ("grid_n", _to_int),
    "grid.theta_end": ("theta_end", _as_float),
    "grid.samples": ("samples", _to_int),
    "grid.decrement_cap": ("decrement_cap", _as_float),
    "output.directory": ("out_dir", lambda key, value: value),
    "output.snapshots": ("snapshots", _to_floats),
    **{f"bed.{group}": (group, _as_float) for group in _BED_GROUPS},
    "bed.dtau": ("bed_dtau", _as_float),
    "bed.tau_end": ("bed_tau_end", _as_float),
    "bed.n_eta": ("bed_n_eta", _to_int),
    "bed.n_radial": ("bed_n_radial", _to_int),
    "bed.n_segments": ("bed_n_segments", _to_int),
    "bed.samples": ("bed_samples", _to_int),
}


def config_from_entries(entries: dict[str, str]) -> RunConfig:
    model_raw: dict[str, str] = {}
    kwargs: dict = {}
    groups: dict[str, float] = {}
    for key, value in entries.items():
        if key == "mode":
            low = value.strip().lower()
            if low not in _MODE_ALIASES:
                raise ConfigError(f"key 'mode': unknown mode {value!r}")
            kwargs["mode"] = _MODE_ALIASES[low]
        elif key.startswith("model."):
            model_raw[key[len("model."):]] = value
        elif key in _KEYS:
            name, parse = _KEYS[key]
            (groups if name in _BED_GROUPS else kwargs)[name] = parse(key, value)
        else:
            raise ConfigError(f"unknown key '{key}'")

    if not model_raw:
        raise ConfigError("missing model section (model.kind = ...)")
    kwargs["model"] = build_model(model_raw)
    if any(key.startswith("bed.") for key in entries):
        for needed in _BED_REQUIRED:
            if needed not in groups:
                raise ConfigError(f"bed section missing 'bed.{needed}'")
        kwargs["bed"] = BedParams(**groups)

    cfg = RunConfig(**kwargs)
    cfg.raw = dict(entries)
    return cfg


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return config_from_entries(parse_config_text(text, source=str(path)))
