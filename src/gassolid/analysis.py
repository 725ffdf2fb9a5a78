"""Conversion quadrature and run comparison."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ModelKind, ModelParams, PelletState, SolverError


def simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights on a uniform grid with an odd node count."""
    if n < 3 or n % 2 == 0:
        raise SolverError(f"Simpson quadrature needs an odd node count >= 3, got {n}")
    h = 1.0 / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


@functools.lru_cache(maxsize=None)
def radial_weights(n: int, shape_factor: int) -> np.ndarray:
    """F_p * Simpson weights * y^(F_p-1) on the n-node grid, read-only: the
    weights of the pellet average F_p * integral of y^(F_p-1) f over [0, 1]."""
    w = simpson_weights(n) * shape_factor * np.linspace(0.0, 1.0, n) ** (shape_factor - 1)
    w.flags.writeable = False
    return w


def radial_average(values: np.ndarray, shape_factor: int) -> float:
    """F_p * integral of y^(F_p-1) * values over [0, 1] (Simpson)."""
    return float(np.sum(radial_weights(values.shape[-1], shape_factor) * values))


def _solid_integrand(solid: np.ndarray, params: ModelParams) -> np.ndarray:
    if params.kind in (ModelKind.GRAIN_SIMPLE, ModelKind.GRAIN_PRODUCT_LAYER,
                       ModelKind.GRAIN_MODIFIED):
        return solid ** params.grain.shape_factor
    return solid


def converted(unreacted: np.ndarray, shape_factor: int) -> float:
    """Conversion X = 1 - the radial average of the unreacted field, clipped to [0, 1]."""
    return float(min(max(1.0 - radial_average(unreacted, shape_factor), 0.0), 1.0))


def conversion(state: PelletState, params: ModelParams) -> float:
    """Solid conversion X from the radial quadrature of the solid field."""
    return converted(_solid_integrand(state.solid, params), params.pellet.shape_factor)


def conversion_by_gas_a(state: PelletState, params: ModelParams) -> float:
    """Conversion X_A attributable to gas A (simultaneous model)."""
    if state.solid_aux is None:
        raise SolverError("state carries no b_A field")
    return converted(state.solid_aux, params.pellet.shape_factor)


@dataclass(frozen=True)
class ConversionSeries:
    """Strictly ordered (theta, X) samples of one run."""

    theta: np.ndarray
    x: np.ndarray
    kind: ModelKind

    def __post_init__(self):
        if self.theta.shape != self.x.shape or self.theta.ndim != 1:
            raise SolverError("theta and X must be matching 1-d arrays")
        if np.any(np.diff(self.theta) <= 0.0):
            raise SolverError("theta samples must be strictly increasing")
        if np.any(self.x < -1e-12) or np.any(self.x > 1.0 + 1e-12):
            raise SolverError("X must lie in [0, 1]")
        if np.any(np.diff(self.x) < -1e-9):
            raise SolverError("X must be nondecreasing")


@dataclass(frozen=True)
class CompareMetrics:
    max_abs_dx: float
    rms_dx: float
    theta_of_max: float


def compare_runs(theta_a: np.ndarray, x_a: np.ndarray,
                 theta_b: np.ndarray, x_b: np.ndarray) -> CompareMetrics:
    """Conversion-curve discrepancy metrics over the common theta range.

    The second curve is interpolated linearly onto the first curve's
    samples; both schedules are dense enough that the interpolation error
    is far below the tolerances of interest.
    """
    lo = max(float(theta_a[0]), float(theta_b[0]))
    hi = min(float(theta_a[-1]), float(theta_b[-1]))
    if hi <= lo:
        raise SolverError("runs share no theta range to compare")
    mask = (theta_a >= lo) & (theta_a <= hi)
    ta = theta_a[mask]
    da = x_a[mask] - np.interp(ta, theta_b, x_b)
    i = int(np.argmax(np.abs(da)))
    return CompareMetrics(
        max_abs_dx=float(np.abs(da[i])),
        rms_dx=float(np.sqrt(np.mean(da * da))),
        theta_of_max=float(ta[i]),
    )
