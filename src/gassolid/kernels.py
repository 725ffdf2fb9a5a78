"""Closed-form building blocks shared by all model steppers.

The incremental analytical scheme freezes the solid state over a short
time increment, which turns each model's gas balance into a linear
reaction-diffusion problem with a per-node effective modulus M.  This
module evaluates the resulting closed forms:

* first-stage profiles, quasi-steady and with the unsteady eigen-series,
  and the filmed sphere that the packed bed's pellets use as well,
* per-step gas exposure integrals (time integral of a over an increment),
* the second-stage (receding reaction front) piecewise profiles, and
* the front-position relation theta(y_m) with its bisection inverse.

All hyperbolic ratios are evaluated in exponentially scaled form so the
kernels are overflow-free for arbitrarily large modulus.

Unsteady series.  Mode k of the transient is
2 lam_k (-1)^k phi_k(y) / (M^2 + lam_k^2) * exp(-omega_k theta) with
omega_k = (M^2 + lam_k^2) / scale, phi_k(y) = sin(lam_k y)/y on the sphere
and cos(lam_k y) on the slab.  The table 2 lam_k (-1)^k phi_k(y) does not
depend on M, so it is built once per (grid, geometry, max_terms), cached
read-only, and each call only forms M^2 + lam_k^2 and the two quotients.
Each call also drops the modes that are dead at its time t, meaning
omega_k t >= 36 (exp(-36) < 2.4e-16) at every node, before any (K, n)
array is formed.  The cut is the first k with
(min M^2 + lam_k^2) / max(scale) * t >= 36.  That bound is at most
omega_k t at every node, and the rounded bound is too, because every
operation in it rounds monotonically.  omega_k increases with k at each node, so every mode after
the cut is dead as well.  The first dead mode is kept as the last term, so
the tail smoothing and the tail warnings see a dead last term, as with
all max_terms modes.  Whenever mode max_terms is still live (theta = 0 or
the early transient), no mode is dropped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import GasProfile, PelletGeometry, SolverError, SpatialGrid

_TINY_M = 1e-9  # below this the no-reaction limit a = 1 is exact to 1e-18
_DEAD = 36.0  # omega * theta beyond which exp(-omega theta) < 2.4e-16: a dead mode


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for the unsteady eigen-series."""

    max_terms: int = 200
    term_tol: float = 1e-10

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not self.term_tol > 0.0:
            raise ValueError("term_tol must be positive")


def m_coth_m_minus_1(x):
    """x*coth(x) - 1, stable for x -> 0 and large x (vectorized)."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-4
    xs = np.where(small, 1.0, x)  # dummy to avoid 0/0 in the large branch
    e = np.exp(-2.0 * xs)
    large_val = xs * (1.0 + e) / (1.0 - e) - 1.0
    small_val = x * x / 3.0 - x**4 / 45.0
    out = np.where(small, small_val, large_val)
    return out if out.ndim else float(out)


def sphere_ratio(M, y, y_ref=1.0):
    """[sinh(M y)/y] / [sinh(M y_ref)/y_ref], the spherical profile shape.

    Evaluated as y_ref/y * exp(M(y-y_ref)) * expm1(-2My)/expm1(-2My_ref),
    which neither overflows for large M nor loses accuracy for small M.
    The y -> 0 value is the analytic limit.
    """
    M = np.asarray(M, dtype=float)
    y = np.asarray(y, dtype=float)
    M, y = np.broadcast_arrays(M, y)
    out = np.ones(np.broadcast(M, y).shape)
    active = M > _TINY_M
    if np.any(active):
        Ma, ya = M[active], y[active]
        denom = np.expm1(-2.0 * Ma * y_ref)  # < 0
        at_center = ya == 0.0
        yc = np.where(at_center, 1.0, ya)
        inner = (y_ref / yc) * np.exp(Ma * (ya - y_ref)) * np.expm1(-2.0 * Ma * ya) / denom
        center = -2.0 * Ma * y_ref * np.exp(-Ma * y_ref) / denom
        out[active] = np.where(at_center, center, inner)
    return out if out.ndim else float(out)


def slab_ratio(M, y, y_ref=1.0):
    """cosh(M y)/cosh(M y_ref), exponentially scaled (vectorized)."""
    M = np.asarray(M, dtype=float)
    y = np.asarray(y, dtype=float)
    M, y = np.broadcast_arrays(M, y)
    out = np.ones(np.broadcast(M, y).shape)
    active = M > _TINY_M
    if np.any(active):
        Ma, ya = M[active], y[active]
        out[active] = (
            np.exp(Ma * (ya - y_ref))
            * (1.0 + np.exp(-2.0 * Ma * ya))
            / (1.0 + np.exp(-2.0 * Ma * y_ref))
        )
    return out if out.ndim else float(out)


def shape_ratio(geometry: PelletGeometry, M, y, y_ref=1.0):
    return sphere_ratio(M, y, y_ref) if geometry.is_sphere else slab_ratio(M, y, y_ref)


def filmed_sphere_ratio(M, y, sherwood: float, delta=1.0):
    """a / a_bulk of the spherical profile behind a surface film (vectorized).

    The Robin surface condition is delta * da/dy = sh (1 - a), with per-node
    modulus M and structure factor delta (scalar or per node).  The profile
    sh sinh(My) / (y [delta M cosh M + (sh - delta) sinh M]) is evaluated
    with every hyperbolic scaled by exp(-M): with q = -expm1(-2M),
    sh exp(M(y-1)) (-expm1(-2My)) / (y [delta M (2 - q) + (sh - delta) q]).
    The y -> 0 value is the analytic limit and nodes with M <= 1e-9 give 1.
    delta = 0 reduces to sphere_ratio, y = 1 gives the film factor
    1 / (1 + (delta/sh) [M coth M - 1]), and delta = 1 with sh = Bi_m is the
    packed bed's pellet.  For small M the bracket cancels when sh << delta,
    which costs about log10(delta/sh) digits.
    """
    M = np.asarray(M, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(M.shape, y.shape, np.shape(delta))
    M, y = np.broadcast_to(M, shape), np.broadcast_to(y, shape)
    out = np.ones(shape)
    active = M > _TINY_M
    if np.any(active):
        Ma, ya = M[active], y[active]
        da = delta if np.ndim(delta) == 0 else np.broadcast_to(delta, shape)[active]
        q = -np.expm1(-2.0 * Ma)
        bracket = da * Ma * (2.0 - q) + (sherwood - da) * q
        at_center = ya == 0.0
        yc = np.where(at_center, 1.0, ya)
        vals = sherwood * np.exp(Ma * (ya - 1.0)) * (-np.expm1(-2.0 * Ma * ya)) / (yc * bracket)
        Mc = Ma[at_center]
        vals[at_center] = sherwood * 2.0 * Mc * np.exp(-Mc) / bracket[at_center]
        out[active] = vals
    return out if out.ndim else float(out)


def _steady_profile(M, y, geometry: PelletGeometry, sherwood: float | None, delta):
    """Quasi-steady a(y): the plain shape for a Dirichlet surface (sherwood None),
    else the filmed sphere."""
    if sherwood is None:
        return shape_ratio(geometry, M, y)
    if not geometry.is_sphere:
        raise SolverError("film resistance profile is tabulated for spheres only")
    return filmed_sphere_ratio(M, y, sherwood, delta)


def profile_qss(M, grid: SpatialGrid, geometry: PelletGeometry,
                sherwood: float | None = None, delta=1.0) -> GasProfile:
    """Quasi-steady gas profile for per-node (or scalar) modulus M."""
    return GasProfile(values=_steady_profile(M, grid.y, geometry, sherwood, delta))


# ---------------------------------------------------------------------------
# Unsteady eigen-series
#
# The transient correction expands on the eigenfunctions of the frozen
# linear operator: sin(k pi y)/y for the sphere and cos((2k-1) pi y / 2)
# for the slab.  The coefficients below are the exact expansions of the
# steady profile, so the series cancels it identically at theta = 0.
# ---------------------------------------------------------------------------


def _positive_scale(psi_phi_sq) -> np.ndarray:
    scale = np.asarray(psi_phi_sq, dtype=float)
    if np.any(scale <= 0.0):
        raise SolverError("psi_phi_sq must be positive in unsteady mode")
    return scale


def _smoothed_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading axis with one Euler step on the last term.

    Averaging the last two partial sums suppresses the oscillation of
    alternating tails (the series coefficients alternate in sign) from
    O(|last term|) to the order of its increment.
    """
    return np.sum(terms, axis=0) - 0.5 * terms[-1]


@functools.lru_cache(maxsize=8)
def _series_basis(y_bytes: bytes, is_sphere: bool, n_terms: int):
    """Squared eigenvalues lam**2 (K,) and the table 2 lam_k (-1)^k phi_k(y) (K, n).

    None of these depends on M, so they are built once per grid, geometry
    and term count (the grid arrives as bytes to be hashable) and shared
    read-only by every call.
    """
    y = np.frombuffer(y_bytes, dtype=float)
    k = np.arange(1, n_terms + 1, dtype=float)
    sign = np.where(np.arange(1, n_terms + 1) % 2 == 0, 1.0, -1.0)
    if is_sphere:
        lam = k * math.pi
        sin_term = np.sin(lam[:, None] * y[None, :])
        with np.errstate(invalid="ignore", divide="ignore"):
            shape = np.where(y[None, :] > 0.0, sin_term / np.where(y == 0.0, 1.0, y)[None, :], lam[:, None])
    else:
        lam = (2.0 * k - 1.0) * math.pi / 2.0
        shape = np.cos(lam[:, None] * y[None, :])
    basis = 2.0 * lam[:, None] * sign[:, None] * shape
    lam_sq = lam**2
    lam_sq.flags.writeable = False
    basis.flags.writeable = False
    return lam_sq, basis


def _series_terms(M, scale, t: float, y, geometry: PelletGeometry, n_terms: int):
    """Coefficients C (K, n) and decay rates omega (K, n) of the modes live at time t.

    K is the first mode dead at every node (omega_K t >= 36), or n_terms
    if none of them is; see the module docstring for why the cut is exact.
    """
    lam_sq, basis = _series_basis(y.tobytes(), geometry.is_sphere, n_terms)
    m_sq = np.broadcast_to(np.asarray(M, dtype=float), y.shape) ** 2
    dead = (np.min(m_sq) + lam_sq) / np.max(scale) * t >= _DEAD
    n_live = int(np.argmax(dead)) + 1 if dead[-1] else n_terms
    denom = m_sq[None, :] + lam_sq[:n_live, None]
    return basis[:n_live] / denom, denom / scale


def profile_unsteady(M, theta: float, psi_phi_sq, grid: SpatialGrid,
                     geometry: PelletGeometry, ctl: SeriesControl = SeriesControl()) -> GasProfile:
    """First-stage gas profile with the accumulation transient.

    ``psi_phi_sq`` is the accumulation group psi * (base modulus)^2; it may
    be an array for node-dependent diffusivity scaling.  The profile tends
    to the quasi-steady one as the exponentials decay; at theta = 0 it is
    identically zero in the open interior (surface node pinned to 1).
    """
    if theta < 0.0:
        raise SolverError("theta must be nonnegative")
    scale = _positive_scale(psi_phi_sq)
    steady = shape_ratio(geometry, M, grid.y)
    coef, omega = _series_terms(M, scale, theta, grid.y, geometry, ctl.max_terms)
    warning = None
    if float(np.min(omega[0]) * theta) >= _DEAD:
        # every mode has decayed below double precision
        values = steady.copy()
    elif float(np.min(omega[-1]) * theta) >= _DEAD:
        # the retained modes resolve the transient; the truncated tail is dead
        values = steady + _smoothed_sum(coef * np.exp(-omega * theta))
    else:
        # Very early transient: sum coef * expm1(-omega theta), which makes
        # the Fourier cancellation at theta = 0 exact term by term.  The
        # tail is not fully damped here, so smooth it and report.
        terms = coef * np.expm1(-omega * theta)
        values = _smoothed_sum(terms)
        np.clip(values, 0.0, 1.0, out=values)
        tail = float(np.max(np.abs(terms[-1])))
        if tail > ctl.term_tol and theta > 0.0:
            warning = f"series tail {tail:.2e} above tol after {ctl.max_terms} terms"
    values[-1] = steady[-1]  # Dirichlet surface holds for all theta > 0
    return GasProfile(values=np.asarray(values, dtype=float), warning=warning)


def exposure_increment(M, theta0: float, theta1: float, psi_phi_sq, grid: SpatialGrid,
                       geometry: PelletGeometry, sherwood: float | None = None, delta=1.0,
                       ctl: SeriesControl = SeriesControl()):
    """Per-node integral of a(y, theta) over [theta0, theta1].

    Quasi-steady mode (psi_phi_sq=None): a is constant over the increment,
    so the integral is a * dtheta.  Unsteady mode adds the analytically
    integrated transient; its terms carry an extra 1/omega_k and converge
    absolutely.
    """
    if theta0 < 0.0:
        raise SolverError("theta0 must be nonnegative")
    if theta1 < theta0:
        raise SolverError("theta1 must not precede theta0")
    dtheta = theta1 - theta0
    steady = _steady_profile(M, grid.y, geometry, sherwood, delta)
    if psi_phi_sq is None:
        return steady * dtheta, None
    scale = _positive_scale(psi_phi_sq)
    coef, omega = _series_terms(M, scale, theta0, grid.y, geometry, ctl.max_terms)
    if float(np.min(omega[0]) * theta0) >= _DEAD:
        return steady * dtheta, None
    # exp(-w t0) - exp(-w t1) = -exp(-w t0) * expm1(-w dtheta)
    terms = coef * (-np.exp(-omega * theta0) * np.expm1(-omega * dtheta) / omega)
    warning = None
    tail = float(np.max(np.abs(terms[-1])))
    if tail > ctl.term_tol * max(dtheta, 1e-300):
        warning = f"exposure series tail {tail:.2e} after {ctl.max_terms} terms"
    out = steady * dtheta + _smoothed_sum(terms)
    out[-1] = steady[-1] * dtheta  # series vanishes at the surface
    return out, warning


# ---------------------------------------------------------------------------
# Second stage: receding reaction front behind an exhausted outer shell
# ---------------------------------------------------------------------------


def front_bracket(geometry: PelletGeometry, M: float, y_m: float) -> float:
    """Diffusion bracket B(y_m; M) of the front-position relation.

    theta(y_m) = theta_c * (1 + B) for a Dirichlet surface; B vanishes at
    y_m = 1 and grows monotonically as the front recedes.
    """
    if geometry.is_sphere:
        return (M * M / 6.0) * (1.0 - y_m) ** 2 * (1.0 + 2.0 * y_m) + (
            1.0 - y_m
        ) * float(m_coth_m_minus_1(M * y_m))
    return (M * M / 2.0) * (1.0 - y_m) ** 2 + M * (1.0 - y_m) * math.tanh(M * y_m)


def _film_terms(M: float, y_m: float, sherwood: float) -> float:
    return (M * M / 3.0) * (1.0 - y_m**3) / sherwood + (
        y_m / sherwood
    ) * float(m_coth_m_minus_1(M * y_m))


def front_time(y_m: float, M: float, geometry: PelletGeometry,
               theta_c: float = 1.0, sherwood: float | None = None) -> float:
    """Time at which the front sits at y_m, for frozen modulus M.

    ``theta_c`` is the recorded first-stage duration and enters as the
    leading factor of the relation.  With a surface film (spheres only)
    the tabulated additive film terms are appended, normalized so that
    front_time(1) == theta_c exactly.
    """
    if sherwood is None:
        return theta_c * (1.0 + front_bracket(geometry, M, y_m))
    if not geometry.is_sphere:
        raise SolverError("film-resistance front relation is tabulated for spheres only")
    return (
        theta_c
        + front_bracket(geometry, M, y_m)
        + _film_terms(M, y_m, sherwood)
        - _film_terms(M, 1.0, sherwood)
    )


def solve_moving_boundary(theta: float, M: float, geometry: PelletGeometry,
                          theta_c: float = 1.0, sherwood: float | None = None,
                          tol: float = 1e-10) -> float:
    """Invert the front relation: the y_m in [0, 1] with theta(y_m) = theta.

    theta <= theta_c maps to y_m = 1 (front at the surface); theta beyond
    theta(0) returns 0 (pellet exhausted).  theta(y_m) is strictly
    decreasing on (0, 1), so plain bisection is safe; a non-monotone
    bracket raises :class:`SolverError`.
    """
    t_surface = front_time(1.0, M, geometry, theta_c, sherwood)
    if theta <= t_surface:
        return 1.0
    t_center = front_time(0.0, M, geometry, theta_c, sherwood)
    if theta >= t_center:
        return 0.0
    if not t_center > t_surface:
        raise SolverError("front relation bracket is not monotone")
    lo, hi = 0.0, 1.0  # f(lo) >= 0 >= f(hi) with f = front_time - theta
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if front_time(mid, M, geometry, theta_c, sherwood) >= theta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class TwoZoneProfile:
    """Second-stage gas profile: reaction zone inside y_m, diffusion shell outside."""

    values: np.ndarray
    a_m: float
    y_m: float
    warning: str | None = None


def second_stage_profiles(y_m: float, M: float, grid: SpatialGrid,
                          geometry: PelletGeometry,
                          sherwood: float | None = None) -> TwoZoneProfile:
    """Piecewise profile with value and flux continuity at the front.

    The outer shell (y > y_m) carries pure diffusion: linear in y for the
    slab, A + B/y for the sphere.  The inner zone keeps the first-stage
    shape rescaled to the front value a_m, which is fixed by matching the
    diffusive flux through the shell to the inner uptake.
    """
    if not 0.0 < y_m < 1.0:
        raise SolverError(f"y_m must lie in (0, 1), got {y_m}")
    y = grid.y
    in_core = y <= y_m
    values = np.empty_like(y)
    if geometry.is_sphere:
        q = float(m_coth_m_minus_1(M * y_m))  # M y_m coth(M y_m) - 1
        inv_sh = 0.0 if sherwood is None else 1.0 / sherwood
        a_m = 1.0 / (1.0 + (1.0 - y_m + y_m * inv_sh) * q)
        const = a_m * (1.0 + q)
        harm = -a_m * q * y_m
        values[~in_core] = const + harm / y[~in_core]
        values[in_core] = a_m * sphere_ratio(M, y[in_core], y_m)
        flux_outer = -harm / (y_m * y_m)
        flux_inner = a_m * q / y_m
    else:
        if sherwood is not None:
            raise SolverError("slab film resistance is not tabulated")
        t = M * math.tanh(M * y_m)
        a_m = 1.0 / (1.0 + (1.0 - y_m) * t)
        values[~in_core] = a_m * (1.0 + t * (y[~in_core] - y_m))
        values[in_core] = a_m * slab_ratio(M, y[in_core], y_m)
        flux_outer = a_m * t
        flux_inner = a_m * t
    if abs(flux_outer - flux_inner) > 1e-8 * max(1.0, abs(flux_outer)):
        raise SolverError("second-stage flux mismatch at the front")
    return TwoZoneProfile(values=np.asarray(values, dtype=float), a_m=a_m, y_m=y_m)
