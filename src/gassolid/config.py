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

Unknown keys, malformed lines and invalid values raise
:class:`~gassolid.core.ConfigError` carrying the line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .bed import BedParams
from .core import ConfigError, ModelParams, build_model


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

_GRID_KEYS = {"n", "theta_end", "samples", "decrement_cap"}
_BED_KEYS = {"peclet", "beta", "phi", "biot_m", "bed_length", "dtau", "tau_end",
             "n_eta", "n_radial", "n_segments", "samples"}
_OUTPUT_KEYS = {"directory", "snapshots", "conversion_csv", "profiles_csv"}


@dataclass
class RunConfig:
    """Parsed and validated run configuration."""

    model: ModelParams
    mode: RunMode = RunMode.QM_ONLY
    grid_n: int = 201
    theta_end: float = 5.0
    samples: int = 201
    decrement_cap: float = 0.01
    snapshots: tuple[float, ...] = ()
    out_dir: str | None = None
    write_conversion: bool = True
    write_profiles: bool = True
    bed: BedParams | None = None
    bed_dtau: float = 0.01
    bed_tau_end: float = 5.0
    bed_n_eta: int = 257
    bed_n_radial: int = 101
    bed_n_segments: int = 64
    bed_samples: int = 51
    raw: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.theta_end <= 0.0:
            raise ConfigError("grid.theta_end must be positive")
        if self.samples < 2:
            raise ConfigError("grid.samples must be at least 2")


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


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {value!r}") from None


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {value!r}") from None


def _to_bool(key: str, value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key '{key}': expected a boolean, got {value!r}")


def config_from_entries(entries: dict[str, str]) -> RunConfig:
    model_raw: dict[str, str] = {}
    grid: dict[str, str] = {}
    bed_raw: dict[str, str] = {}
    output: dict[str, str] = {}
    mode = RunMode.QM_ONLY

    for key, value in entries.items():
        if key == "mode":
            low = value.strip().lower()
            if low not in _MODE_ALIASES:
                raise ConfigError(f"key 'mode': unknown mode {value!r}")
            mode = _MODE_ALIASES[low]
        elif key.startswith("model."):
            model_raw[key[len("model."):]] = value
        elif key.startswith("grid."):
            sub = key[len("grid."):]
            if sub not in _GRID_KEYS:
                raise ConfigError(f"unknown key 'grid.{sub}'")
            grid[sub] = value
        elif key.startswith("bed."):
            sub = key[len("bed."):]
            if sub not in _BED_KEYS:
                raise ConfigError(f"unknown key 'bed.{sub}'")
            bed_raw[sub] = value
        elif key.startswith("output."):
            sub = key[len("output."):]
            if sub not in _OUTPUT_KEYS:
                raise ConfigError(f"unknown key 'output.{sub}'")
            output[sub] = value
        else:
            raise ConfigError(f"unknown key '{key}'")

    if not model_raw:
        raise ConfigError("missing model section (model.kind = ...)")
    model = build_model(model_raw)

    kwargs: dict = {"model": model, "mode": mode}
    if "n" in grid:
        kwargs["grid_n"] = _to_int("grid.n", grid["n"])
    if "theta_end" in grid:
        kwargs["theta_end"] = _to_float("grid.theta_end", grid["theta_end"])
    if "samples" in grid:
        kwargs["samples"] = _to_int("grid.samples", grid["samples"])
    if "decrement_cap" in grid:
        kwargs["decrement_cap"] = _to_float("grid.decrement_cap", grid["decrement_cap"])

    if "snapshots" in output:
        parts = [p for p in output["snapshots"].replace(",", " ").split() if p]
        kwargs["snapshots"] = tuple(_to_float("output.snapshots", p) for p in parts)
    if "directory" in output:
        kwargs["out_dir"] = output["directory"]
    if "conversion_csv" in output:
        kwargs["write_conversion"] = _to_bool("output.conversion_csv", output["conversion_csv"])
    if "profiles_csv" in output:
        kwargs["write_profiles"] = _to_bool("output.profiles_csv", output["profiles_csv"])

    if bed_raw:
        for needed in ("peclet", "beta", "phi", "biot_m"):
            if needed not in bed_raw:
                raise ConfigError(f"bed section missing 'bed.{needed}'")
        kwargs["bed"] = BedParams(
            peclet=_to_float("bed.peclet", bed_raw["peclet"]),
            beta=_to_float("bed.beta", bed_raw["beta"]),
            phi=_to_float("bed.phi", bed_raw["phi"]),
            biot_m=_to_float("bed.biot_m", bed_raw["biot_m"]),
            bed_length=_to_float("bed.bed_length", bed_raw.get("bed_length", "1.0")),
        )
        if "dtau" in bed_raw:
            kwargs["bed_dtau"] = _to_float("bed.dtau", bed_raw["dtau"])
        if "tau_end" in bed_raw:
            kwargs["bed_tau_end"] = _to_float("bed.tau_end", bed_raw["tau_end"])
        if "n_eta" in bed_raw:
            kwargs["bed_n_eta"] = _to_int("bed.n_eta", bed_raw["n_eta"])
        if "n_radial" in bed_raw:
            kwargs["bed_n_radial"] = _to_int("bed.n_radial", bed_raw["n_radial"])
        if "n_segments" in bed_raw:
            kwargs["bed_n_segments"] = _to_int("bed.n_segments", bed_raw["n_segments"])
        if "samples" in bed_raw:
            kwargs["bed_samples"] = _to_int("bed.samples", bed_raw["samples"])

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
