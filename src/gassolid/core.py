"""Domain types and model configuration shared by all solvers.

Everything downstream works in dimensionless variables: gas concentration
``a`` in [0, 1], solid state (``b`` or the shrinking-core radius ``r*``)
in [0, 1], pellet coordinate ``y`` in [0, 1] and a model-specific
dimensionless time ``theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

SOLID_FLOOR = 1e-12          # below this a node counts as fully reacted
LN_B_CAP = 700.0             # b is clamped to exp(-700) to avoid underflow
B_MIN = math.exp(-LN_B_CAP)  # the smallest b that clamp leaves


class ConfigError(ValueError):
    """Raised for invalid model or run configuration."""


class SolverError(RuntimeError):
    """Raised when a solver hits an unrecoverable numerical condition."""


class ModelKind(Enum):
    VOLUME_FIRST_ORDER = "volume_first_order"
    VOLUME_HALF_ORDER = "volume_half_order"
    GRAIN_SIMPLE = "grain_simple"
    GRAIN_PRODUCT_LAYER = "grain_product_layer"
    GRAIN_MODIFIED = "grain_modified"
    RANDOM_PORE = "random_pore"
    NUCLEATION = "nucleation"
    SIMULTANEOUS = "simultaneous"


@dataclass(frozen=True)
class PelletGeometry:
    """Pellet shape factor: 1 = infinite slab, 3 = sphere."""

    shape_factor: int

    def __post_init__(self):
        if self.shape_factor not in (1, 3):
            raise ConfigError(
                f"unsupported pellet shape F_p={self.shape_factor} (allowed: 1 slab, 3 sphere)"
            )

    @property
    def is_sphere(self) -> bool:
        return self.shape_factor == 3


@dataclass(frozen=True)
class GrainGeometry:
    """Grain shape factor: 1 platelet, 2 cylinder, 3 sphere."""

    shape_factor: int

    def __post_init__(self):
        if self.shape_factor not in (1, 2, 3):
            raise ConfigError(
                f"unsupported grain shape F_g={self.shape_factor} (allowed: 1, 2, 3)"
            )


SLAB = PelletGeometry(1)
SPHERE = PelletGeometry(3)

# Neutral values of the fields some kinds do not read: a kind that does not
# read a field must leave it at its neutral value.
_NEUTRAL = {
    "thiele": 0.0,
    "sigma_g_sq": 0.0,
    "beta": 0.0,
    "z_ratio": 1.0,
    "psi_cap": 0.0,
    "porosity0": 0.5,
    "sherwood": None,
    "solid_order": 1.0,
    "thiele_a": 0.0,
    "thiele_c": 0.0,
    "psi_ab": 1.0,
    "grain": GrainGeometry(3),
}

# The fields of _NEUTRAL that each kind reads.
_RELEVANT = {
    ModelKind.VOLUME_FIRST_ORDER: {"thiele"},
    ModelKind.VOLUME_HALF_ORDER: {"thiele", "solid_order"},
    ModelKind.GRAIN_SIMPLE: {"thiele", "grain", "sherwood"},
    ModelKind.GRAIN_PRODUCT_LAYER: {"thiele", "sigma_g_sq"},
    ModelKind.GRAIN_MODIFIED: {"thiele", "sigma_g_sq", "z_ratio", "porosity0"},
    ModelKind.RANDOM_PORE: {"thiele", "psi_cap", "beta", "z_ratio", "porosity0", "sherwood"},
    ModelKind.NUCLEATION: {"thiele", "solid_order"},
    ModelKind.SIMULTANEOUS: {"thiele_a", "thiele_c", "psi_ab"},
}

# Kinds tabulated for spherical pellets only.
_SPHERE_ONLY = {ModelKind.GRAIN_PRODUCT_LAYER, ModelKind.GRAIN_MODIFIED,
                ModelKind.RANDOM_PORE, ModelKind.NUCLEATION, ModelKind.SIMULTANEOUS}


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless groups of one model instance.

    ``thiele`` is the model's base modulus (phi_v, sigma, phi_r or sigma_N
    depending on ``kind``).  ``psi`` is the gas accumulation parameter;
    ``psi == 0`` selects the quasi-steady solver branch.  ``sherwood=None``
    encodes a Dirichlet surface (no external film resistance).  A field in
    ``_NEUTRAL`` that ``kind`` does not read must hold its neutral value.
    """

    kind: ModelKind
    thiele: float = 0.0
    psi: float = 0.0
    sigma_g_sq: float = 0.0          # grain product-layer resistance sigma_g^2
    psi_cap: float = 0.0             # random-pore structural parameter (capital psi)
    beta: float = 0.0                # random-pore product-layer resistance
    z_ratio: float = 1.0             # molar-volume ratio Z (random pore) / Z_v (modified grain)
    porosity0: float = 0.5
    sherwood: float | None = None    # None = Dirichlet surface
    solid_order: float = 1.0         # n: volume 1 or 1/2, nucleation 1 or 3
    psi_ab: float = 1.0              # bulk fraction of gas A (simultaneous)
    thiele_a: float = 0.0            # sigma_A (simultaneous)
    thiele_c: float = 0.0            # sigma_C (simultaneous)
    pellet: PelletGeometry = SPHERE
    grain: GrainGeometry = GrainGeometry(3)

    def __post_init__(self):
        k = self.kind
        for name in (*_FLOAT_KEYS, "sherwood"):  # None is a Dirichlet surface
            value = getattr(self, name)
            if value is not None and math.isinf(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("thiele", "psi", "sigma_g_sq", "psi_cap", "beta", "thiele_a", "thiele_c"):
            value = getattr(self, name)
            if not value >= 0.0:  # NaN fails too
                raise ConfigError(f"{name} must be nonnegative, got {value}")
        if not 0.0 < self.porosity0 < 1.0:
            raise ConfigError(f"porosity0 must lie in (0, 1), got {self.porosity0}")
        if self.sherwood is not None and not self.sherwood > 0.0:
            raise ConfigError(f"sherwood must be positive or None, got {self.sherwood}")
        if not self.z_ratio > 0.0:
            raise ConfigError(f"z_ratio must be positive, got {self.z_ratio}")
        if not 0.0 <= self.psi_ab <= 1.0:
            raise ConfigError(f"psi_ab must lie in [0, 1], got {self.psi_ab}")

        relevant = _RELEVANT[k]
        for fname, neutral in _NEUTRAL.items():
            if fname not in relevant and getattr(self, fname) != neutral:
                raise ConfigError(
                    f"{fname} is not used by model '{k.value}' and must stay "
                    f"at its neutral value {neutral!r}"
                )

        if k is ModelKind.VOLUME_HALF_ORDER and self.solid_order != 0.5:
            raise ConfigError(f"model '{k.value}' requires solid order n=0.5")
        if k is ModelKind.NUCLEATION and self.solid_order not in (1.0, 3.0):
            raise ConfigError("nucleation model supports n in {1, 3}")
        if k in _SPHERE_ONLY and not self.pellet.is_sphere:
            raise ConfigError(f"model '{k.value}' is tabulated for spherical pellets only")
        if self.sherwood is not None and not self.pellet.is_sphere:
            raise ConfigError(
                f"finite sherwood is not tabulated for model '{k.value}' "
                f"with F_p={self.pellet.shape_factor}"
            )
        if self.psi > 0.0:
            if k is ModelKind.SIMULTANEOUS:
                raise ConfigError("simultaneous model is quasi-steady only (psi must be 0)")
            if self.sherwood is not None:
                raise ConfigError("finite sherwood is tabulated for quasi-steady runs only")
            if k is ModelKind.RANDOM_PORE and (self.beta != 0.0 or self.z_ratio != 1.0):
                raise ConfigError(
                    "unsteady random pore model is tabulated for beta=0, Z=1 only"
                )

    @property
    def quasi_steady(self) -> bool:
        return self.psi == 0.0

    @property
    def psi_cb(self) -> float:
        return 1.0 - self.psi_ab


# Float fields of ModelParams a config may set, under their own names.
_FLOAT_KEYS = ("thiele", "psi", "sigma_g_sq", "psi_cap", "beta", "z_ratio", "porosity0",
               "solid_order", "psi_ab", "thiele_a", "thiele_c")

# Config key -> canonical key: every canonical key maps to itself, and the
# per-model symbols to the canonical key they name.
_KEY_ALIASES = {key: key for key in
                (*_FLOAT_KEYS, "kind", "sherwood", "pellet_shape", "grain_shape")}
_KEY_ALIASES.update({
    "phi_v": "thiele", "sigma": "thiele", "phi_r": "thiele", "sigma_n": "thiele",
    "sigma_g2": "sigma_g_sq",
    "structural_psi": "psi_cap",
    "z": "z_ratio", "z_v": "z_ratio",
    "eps0": "porosity0",
    "sh": "sherwood",
    "n": "solid_order",
    "sigma_a": "thiele_a",
    "sigma_c": "thiele_c",
    "f_p": "pellet_shape",
    "f_g": "grain_shape",
})

# Each kind's value, with and without its underscores.
_KIND_ALIASES = {spelling: k for k in ModelKind
                 for spelling in (k.value, k.value.replace("_", ""))}


def _as_float(key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key '{key}': expected a number, got {value!r}") from None


def _as_shape(key: str, value) -> int:
    """A shape factor: an integral number ("2", 3, 3.0), never truncated."""
    number = _as_float(key, value)
    if not number.is_integer():
        raise ConfigError(f"key '{key}': expected an integer, got {value!r}")
    return int(number)


def build_model(raw: Mapping[str, object]) -> ModelParams:
    """Build validated :class:`ModelParams` from a flat key-value mapping.

    Keys may use canonical names or the usual per-model symbols
    (``phi_v``, ``sigma``, ``F_p``, ``eps0``, ``Z_v`` ...).  Unknown keys
    and out-of-range values raise :class:`ConfigError` naming the key.
    """

    canon: dict[str, object] = {}
    for key, value in raw.items():
        lk = str(key).strip().lower()
        if lk not in _KEY_ALIASES:
            raise ConfigError(f"unknown model key '{key}'")
        target = _KEY_ALIASES[lk]
        if target in canon and canon[target] != value:
            raise ConfigError(f"key '{key}' conflicts with an alias already given")
        canon[target] = value

    if "kind" not in canon:
        raise ConfigError("missing required key 'kind'")
    kind_raw = str(canon.pop("kind")).strip().lower().replace("-", "_")
    if kind_raw not in _KIND_ALIASES:
        raise ConfigError(f"unknown model kind '{kind_raw}'")
    kind = _KIND_ALIASES[kind_raw]

    fp = _as_shape("pellet_shape", canon.pop("pellet_shape", 3))
    fg = _as_shape("grain_shape", canon.pop("grain_shape", 3))

    kwargs: dict[str, object] = {
        "kind": kind,
        "pellet": PelletGeometry(fp),
        "grain": GrainGeometry(fg),
    }

    if "sherwood" in canon:
        sv = canon.pop("sherwood")
        if isinstance(sv, str) and sv.strip().lower() in ("inf", "infinity", "none", "dirichlet"):
            kwargs["sherwood"] = None
        else:
            sh = _as_float("sherwood", sv)
            kwargs["sherwood"] = None if math.isinf(sh) else sh
    for fname in _FLOAT_KEYS:
        if fname in canon:
            kwargs[fname] = _as_float(fname, canon.pop(fname))

    if canon:
        raise ConfigError(f"unhandled model keys: {sorted(canon)}")

    if kind is ModelKind.VOLUME_HALF_ORDER:
        kwargs.setdefault("solid_order", 0.5)
    required = {"thiele"}
    if kind is ModelKind.SIMULTANEOUS:
        required = {"psi_ab", "thiele_a", "thiele_c"}
    missing = sorted(required - set(kwargs))
    if missing:
        raise ConfigError(f"model '{kind.value}' missing required key(s): {missing}")

    return ModelParams(**kwargs)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform radial grid on [0, 1], odd node count for Simpson quadrature."""

    n: int
    y: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.n < 101 or self.n % 2 == 0:
            raise ConfigError(f"grid size must be odd and >= 101, got {self.n}")
        object.__setattr__(self, "y", np.linspace(0.0, 1.0, self.n))

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)


@dataclass
class PelletState:
    """Radial solid state of one pellet plus stage bookkeeping.

    ``solid`` holds b for the volume / random-pore / nucleation models and
    r* for the grain models.  ``exposure`` is the per-node cumulative gas
    exposure integral of a over theta (the nucleation model's conversion
    variable; the simultaneous model leaves it at 0).  ``y_m`` is the
    second stage's reaction front: None during the first stage, and set
    (with ``theta_c``, the time the surface node exhausted) at the switch.
    ``solid_aux`` carries b_A for the simultaneous model.
    """

    theta: float
    solid: np.ndarray
    exposure: np.ndarray
    y_m: float | None = None
    theta_c: float | None = None
    solid_aux: np.ndarray | None = None

    @classmethod
    def fresh(cls, grid: SpatialGrid, params: ModelParams) -> "PelletState":
        solid = np.ones(grid.n)
        aux = np.ones(grid.n) if params.kind is ModelKind.SIMULTANEOUS else None
        return cls(theta=0.0, solid=solid, exposure=np.zeros(grid.n), solid_aux=aux)

    def copy(self) -> "PelletState":
        return PelletState(
            theta=self.theta,
            solid=self.solid.copy(),
            exposure=self.exposure.copy(),
            y_m=self.y_m,
            theta_c=self.theta_c,
            solid_aux=None if self.solid_aux is None else self.solid_aux.copy(),
        )
