"""Closed-form building blocks shared by all model steppers.

The incremental analytical scheme freezes the solid state over a short
time increment, which turns each model's gas balance into a linear
reaction-diffusion problem with a per-node effective modulus M.  This
module evaluates the resulting closed forms:

* first-stage profiles, quasi-steady and with the unsteady eigen-series,
  every spherical one, the packed bed's too, from the filmed sphere kernel,
* the exposure integral of a given profile over an increment (the time
  integral of a), from the modes an unsteady profile keeps,
* the second-stage (receding reaction front) piecewise profiles, from the
  front at the surface (y_m = 1, the quasi-steady profile) inwards, and
* the front-position relation theta(y_m) with its bracketed inverse.

All hyperbolic ratios are evaluated in exponentially scaled form so the
kernels are overflow-free for arbitrarily large modulus.

Unsteady series.  Mode k of the transient is
2 lam_k (-1)^k phi_k(y) / (M^2 + lam_k^2) * exp(-omega_k theta) with
omega_k = (M^2 + lam_k^2) / scale, phi_k(y) = sin(lam_k y)/y on the sphere
and cos(lam_k y) on the slab.  The table 2 lam_k (-1)^k phi_k(y) does not
depend on M, so it is built once per (grid, geometry, term count), cached
read-only, and each call only forms M^2 + lam_k^2 and the two quotients.
Each call also drops the modes that are dead at its time t, meaning
omega_k t >= 36 (exp(-36) < 2.4e-16) at every node, before any (K, n)
array is formed.  The cut is the first k with
(min M^2 + lam_k^2) / max(scale) * t >= 36.  That bound is at most
omega_k t at every node, and the rounded bound is too, because every
operation in it rounds monotonically.  omega_k increases with k at each node, so every mode after
the cut is dead as well.  When the cut falls at the first mode, the whole
transient is dead and profile_unsteady returns the steady profile before
any series is built.  The first dead mode is kept as the last term, so
the tail smoothing and the truncation flags see a dead last term, as with
all _MAX_TERMS modes.  Whenever mode _MAX_TERMS is still live (theta = 0 or
the early transient), no mode is dropped, and a last term above _TERM_TOL
(times dtheta for the exposure integral) flags the series as truncated, as
does an early-transient value that the clip to [0, 1] moves by more.
Every profile that keeps its modes, early transient or late, keeps their
decay exp(-omega_k theta) too, formed once per profile: exposure_increment
reuses it on every increment, halvings included, rather than forming it
again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import PelletGeometry, SolverError, SpatialGrid

_TINY_M = 1e-9  # below this the no-reaction limit a = 1 is exact to 1e-18
_Y_NORMAL = np.finfo(float).tiny  # the smallest normal y; below it a sphere shape is at its centre
_FILM_SCALE = 2.0**600  # exact factor that keeps the filmed sphere's products normal
_DEAD = 36.0  # omega * theta beyond which exp(-omega theta) < 2.4e-16: a dead mode
_MAX_TERMS = 200  # modes of the unsteady eigen-series
# lam_1^2 of the sphere (True) and the slab, rounded as _series_basis rounds lam**2
_LAM1_SQ = {True: math.pi * math.pi, False: (math.pi / 2.0) * (math.pi / 2.0)}
_TERM_TOL = 1e-10  # a last term above this marks the series as truncated
_FRONT_TOL = 1e-10  # bracket width on y_m at which the front solve stops
_FRONT_STEPS = math.ceil(-math.log2(_FRONT_TOL))  # halvings of [0, 1] to _FRONT_TOL: 34
_LAMBERT_ODD = tuple(float(k) for k in range(21, 1, -2))  # m_coth_m_minus_1's fraction, inside out


@dataclass
class GasProfile:
    """Dimensionless gas concentration a(y) on the pellet grid.

    ``_transient`` holds the modes an unsteady profile was built from, for
    `exposure_increment`; it is None when the profile does not change over
    an increment.
    """

    values: np.ndarray
    truncated: bool = False
    _transient: _Transient | None = field(default=None, repr=False, compare=False)


def m_coth_m_minus_1(x: float) -> float:
    """x*coth(x) - 1 of a float, stable for x -> 0 and large x.

    Two ranges.  Below 2, Lambert's continued fraction
    x^2 / (3 + x^2 / (5 + ...)) cut at 23, whose terms are all positive:
    within 2.5e-16 relative, down to x = 0, where it gives 0.  From 2 on,
    with q = 1 - exp(-2x) from numpy's expm1, x coth x = x (2 - q) / q;
    below 2 its difference with 1 cancels (3e-12 relative at x 1e-2).
    (math.expm1 differs from numpy's in the last bit on some arguments.)
    """
    if x < 2.0:
        x2 = x * x
        tail = 23.0
        for k in _LAMBERT_ODD:
            tail = k + x2 / tail
        return x2 / tail
    q = -float(np.expm1(-2.0 * x))
    return x * (2.0 - q) / q - 1.0


def slab_ratio(M, y):
    """cosh(M y)/cosh(M), exponentially scaled (vectorized), in one pass: M = 0
    gives exactly 1.  Capped at 1, as rounding leaves small-M values an ulp above it."""
    M = np.asarray(M, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.minimum(np.exp(M * (y - 1.0)) * (1.0 + np.exp(-2.0 * M * y))
                     / (1.0 + np.exp(-2.0 * M)), 1.0)
    return out if out.ndim else float(out)


def shape_ratio(geometry: PelletGeometry, M, y):
    """Dirichlet shape: cosh(My)/cosh(M), or on the sphere the filmed one without a film."""
    return filmed_sphere_ratio(M, y, 1.0, 0.0) if geometry.is_sphere else slab_ratio(M, y)


def filmed_sphere_ratio(M, y, sherwood: float, delta=1.0, work=None):
    """a / a_bulk of the spherical profile behind a surface film (vectorized).

    The Robin surface condition is delta * da/dy = sh (1 - a), with per-node
    modulus M and structure factor delta (scalar or per node).  The profile
    sh sinh(My) / (y [delta M cosh M + (sh - delta) sinh M]) is evaluated
    with every hyperbolic scaled by exp(-M): with e = expm1(-2M),
    sh exp(M(y-1)) (-expm1(-2My)) / (y [delta M (2 + e) + (delta - sh) e]).
    One pass evaluates it over the whole broadcast array.  Nodes with
    M <= 1e-9 take the placeholder modulus 1 and are set to 1 at the end;
    only the centre nodes, where y or 2My is subnormal, are patched, with the
    analytic limit sh 2M exp(-M) / [bracket].  Numerator and
    denominator carry the exact factor 2^600, so neither underflows into
    the subnormal range; where the unscaled products are normal, the
    quotient is the same to the last bit.
    Rounding leaves small-M values up to about 11 ulp above 1 (the exact
    value is at most 1), so the result is capped at 1.
    ``work`` is four float64 buffers of the broadcast shape (a (4, *shape)
    array will do): every full-size float intermediate is written into them,
    and the result is returned in ``work[0]``, so a caller that passes the
    same buffers on every call allocates no full-size float array.  Without
    ``work`` the call allocates them itself.  The value does not depend on
    what the buffers held before.
    delta = 0 is the Dirichlet sphere of shape_ratio, y = 1 gives the film factor
    1 / (1 + (delta/sh) [M coth M - 1]), and delta = 1 with sh = Bi_m is the
    packed bed's pellet.  For small M the bracket cancels when sh << delta,
    which costs about log10(delta/sh) digits.
    """
    M = np.asarray(M, dtype=float)
    y = np.asarray(y, dtype=float)
    delta = np.asarray(delta, dtype=float)
    shape = np.broadcast(M, y, delta).shape
    if work is None:  # separate arrays: a returned view would keep all four alive
        work = [np.empty(shape or (1,)) for _ in range(4)]
    out, e, tmp, bracket = work
    live = M > _TINY_M
    dead = None if live.all() else ~live
    np.copyto(out, M)
    if dead is not None:
        np.copyto(out, 1.0, where=dead)
    M = out  # from here on out holds the (placeholder-substituted) modulus
    np.expm1(np.multiply(-2.0, M, out=e), out=e)  # e = expm1(-2M)
    np.multiply(delta, M, out=bracket)
    bracket *= np.add(2.0, e, out=tmp)
    bracket += np.multiply(e, delta - sherwood, out=e)  # delta M (2 + e) + (delta - sh) e
    rise = np.multiply(M, -2.0 * y, out=tmp)  # -2My
    y_small = y < _Y_NORMAL
    at_center = (rise > -_Y_NORMAL) | y_small  # 2My or y subnormal
    np.expm1(rise, out=rise)  # expm1(-2My), the negated numerator factor
    Mc = M[at_center]
    centre = sherwood * 2.0 * Mc * np.exp(-Mc) / bracket[at_center]
    np.multiply(M, y - 1.0, out=out)
    np.exp(out, out=out)
    out *= -(sherwood * _FILM_SCALE)
    out *= rise
    bracket *= np.where(y_small, 1.0, y) * _FILM_SCALE
    out /= bracket
    out[at_center] = centre
    np.minimum(out, 1.0, out=out)
    if dead is not None:
        np.copyto(out, 1.0, where=dead)
    return out if shape else float(out[0])


def profile_qss(M, grid: SpatialGrid, geometry: PelletGeometry,
                sherwood: float | None = None, delta=1.0) -> GasProfile:
    """Quasi-steady gas profile for per-node (or scalar) modulus M: the plain
    shape for a Dirichlet surface (sherwood None), else the filmed sphere."""
    if sherwood is None:
        return GasProfile(values=shape_ratio(geometry, M, grid.y))
    if not geometry.is_sphere:
        raise SolverError("film resistance profile is tabulated for spheres only")
    return GasProfile(values=filmed_sphere_ratio(M, grid.y, sherwood, delta))


# ---------------------------------------------------------------------------
# Unsteady eigen-series
#
# The transient correction expands on the eigenfunctions of the frozen
# linear operator: sin(k pi y)/y for the sphere and cos((2k-1) pi y / 2)
# for the slab.  The coefficients below are the exact expansions of the
# steady profile, so the series cancels it identically at theta = 0.
# ---------------------------------------------------------------------------


def _positive_scale(psi_phi_sq):
    """The accumulation group as a float or an array; raises if any entry is <= 0.

    A NaN entry passes, as NaN <= 0 is False.  A float is compared directly
    and an array by one method reduction, which saves numpy's dispatch."""
    if isinstance(psi_phi_sq, float):
        scale = psi_phi_sq
        bad = scale <= 0.0
    else:
        scale = np.asarray(psi_phi_sq, dtype=float)
        bad = (scale <= 0.0).any()
    if bad:
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


def _decay_bound(m_sq, lam_sq, scale, t: float):
    """(min M^2 + lam_k^2) / max(scale) * t for lam_sq, one lam_k^2 or an array of them.

    The bound is at most omega_k t at every node (module docstring), so a
    mode whose bound is at least _DEAD is dead at every node.  ``m_sq`` is
    a numpy value.  The two reductions are numpy scalars, so a float lam_sq
    costs no array operation: profile_unsteady's test of the first mode.
    """
    return (m_sq.min() + lam_sq) / np.asarray(scale).max() * t


def _series_terms(M, scale, t: float, y, geometry: PelletGeometry, n_terms: int):
    """Coefficients C (K, n) and decay rates omega (K, n) of the modes live at time t.

    K is the first mode dead at every node (omega_K t >= 36), or n_terms
    if none of them is; see the module docstring for why the cut is exact.
    """
    lam_sq, basis = _series_basis(y.tobytes(), geometry.is_sphere, n_terms)
    m_sq = np.broadcast_to(np.asarray(M, dtype=float), y.shape) ** 2
    dead = _decay_bound(m_sq, lam_sq, scale, t) >= _DEAD
    n_live = int(np.argmax(dead)) + 1 if dead[-1] else n_terms
    denom = m_sq[None, :] + lam_sq[:n_live, None]
    return basis[:n_live] / denom, denom / scale


@dataclass(frozen=True)
class _Transient:
    """The modes of an unsteady profile at time theta: a = steady + series."""

    steady: np.ndarray
    coef: np.ndarray
    omega: np.ndarray
    theta: float
    decay: np.ndarray  # exp(-omega theta)


def profile_unsteady(M, theta: float, psi_phi_sq, grid: SpatialGrid,
                     geometry: PelletGeometry) -> GasProfile:
    """First-stage gas profile with the accumulation transient.

    ``psi_phi_sq`` is the accumulation group psi * (base modulus)^2; it may
    be an array for node-dependent diffusivity scaling.  The profile tends
    to the quasi-steady one as the exponentials decay; at theta = 0 it is
    identically zero in the open interior (surface node pinned to 1).
    Unless every mode has decayed, the profile keeps its modes and their
    decay exp(-omega theta) for `exposure_increment`.  When `_decay_bound`
    already finds the first mode dead, the steady profile is returned
    before any series is built.
    """
    if theta < 0.0:
        raise SolverError("theta must be nonnegative")
    scale = _positive_scale(psi_phi_sq)
    steady = shape_ratio(geometry, M, grid.y)
    if _decay_bound(np.asarray(M, dtype=float) ** 2, _LAM1_SQ[geometry.is_sphere], scale, theta) >= _DEAD:
        return GasProfile(values=steady)
    coef, omega = _series_terms(M, scale, theta, grid.y, geometry, _MAX_TERMS)
    if float(np.min(omega[0]) * theta) >= _DEAD:
        # every mode has decayed below double precision
        return GasProfile(values=steady)
    truncated, decay = False, np.exp(-omega * theta)
    if float(np.min(omega[-1]) * theta) >= _DEAD:
        # the retained modes resolve the transient; the truncated tail is dead
        values = steady + _smoothed_sum(coef * decay)
    else:
        # Very early transient: sum coef * expm1(-omega theta), which makes
        # the Fourier cancellation at theta = 0 exact term by term.  The
        # tail is not fully damped here, so smooth it and report, also when
        # the clip to [0, 1] moves an open node by more than the tolerance.
        terms = coef * np.expm1(-omega * theta)
        values = _smoothed_sum(terms)
        inner = values[:-1]  # the surface node is replaced below
        clipped = float(max(-np.min(inner), np.max(inner) - 1.0)) > _TERM_TOL
        np.clip(values, 0.0, 1.0, out=values)
        truncated = theta > 0.0 and (clipped or float(np.max(np.abs(terms[-1]))) > _TERM_TOL)
    values[-1] = steady[-1]  # Dirichlet surface holds for all theta > 0
    return GasProfile(values=values, truncated=truncated,
                      _transient=_Transient(steady, coef, omega, theta, decay))


def exposure_increment(profile: GasProfile, dtheta: float):
    """(per-node integral of the profile's a over [theta, theta + dtheta], truncated).

    A profile without a transient (quasi-steady, or every mode decayed) is
    constant over the increment, so the integral is a * dtheta.  An
    unsteady one adds its analytically integrated modes; their terms carry
    an extra 1/omega_k and converge absolutely.
    """
    if dtheta < 0.0:
        raise SolverError("dtheta must be nonnegative")
    tr = profile._transient
    if tr is None:
        return profile.values * dtheta, False
    # exp(-w t0) - exp(-w t1) = -exp(-w t0) * expm1(-w dtheta)
    terms = tr.coef * (-tr.decay * np.expm1(-tr.omega * dtheta) / tr.omega)
    truncated = float(np.max(np.abs(terms[-1]))) > _TERM_TOL * max(dtheta, 1e-300)
    out = tr.steady * dtheta + _smoothed_sum(terms)
    out[-1] = tr.steady[-1] * dtheta  # series vanishes at the surface
    return out, truncated


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
        ) * m_coth_m_minus_1(M * y_m)
    return (M * M / 2.0) * (1.0 - y_m) ** 2 + M * (1.0 - y_m) * math.tanh(M * y_m)


def _film_terms(M: float, y_m: float, sherwood: float) -> float:
    return (M * M / 3.0) * (1.0 - y_m**3) / sherwood + (
        y_m / sherwood
    ) * m_coth_m_minus_1(M * y_m)


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
    # the terms that vanish at y_m = 1 are summed first, so front_time(1) == theta_c
    return theta_c + (front_bracket(geometry, M, y_m)
                      + (_film_terms(M, y_m, sherwood) - _film_terms(M, 1.0, sherwood)))


def solve_moving_boundary(theta: float, M: float, geometry: PelletGeometry,
                          theta_c: float = 1.0, sherwood: float | None = None) -> float:
    """Invert the front relation: the y_m in [0, 1] with theta(y_m) = theta.

    theta <= theta_c maps to y_m = 1 (front at the surface); theta beyond
    theta(0) returns 0 (pellet exhausted).  theta(y_m) is strictly
    decreasing on (0, 1), so [0, 1] brackets the root; a non-monotone
    bracket raises :class:`SolverError`.  Each step evaluates the secant
    point of the bracket as the ITP method places it (Oliveira & Takahashi,
    ACM TOMS 47, 2020): moved 0.2 width^2 toward the midpoint, kept near
    enough to the midpoint that the bracket is never wider than
    bisection's after as many steps, and at least _FRONT_TOL / 2 inside,
    which closes the bracket once the secant point has converged.  So a
    solve takes at most _FRONT_STEPS evaluations inside the bracket, as
    bisection does, and about 8 on a smooth relation.  It stops on the
    bracket width, never on a small residual: theta is flat in y_m at the
    centre, where a small residual leaves the front far out.  The result
    is the secant root of the last bracket.
    """
    t_surface = front_time(1.0, M, geometry, theta_c, sherwood)
    if theta <= t_surface:
        return 1.0
    t_center = front_time(0.0, M, geometry, theta_c, sherwood)
    if theta >= t_center:
        return 0.0
    if not t_center > t_surface:
        raise SolverError("front relation bracket is not monotone")
    half_tol = 0.5 * _FRONT_TOL
    lo, hi = 0.0, 1.0
    f_lo, f_hi = t_center - theta, t_surface - theta  # f = front_time - theta: f_lo > 0 > f_hi
    for k in range(_FRONT_STEPS):
        width = hi - lo
        if width <= _FRONT_TOL:
            break
        mid = lo + 0.5 * width
        y = lo + width * (f_lo / (f_lo - f_hi))  # the secant point
        pull = 0.2 * width * width  # truncation: toward the midpoint by this much
        y = y + pull if y < mid - pull else (y - pull if y > mid + pull else mid)
        reach = half_tol * 2.0 ** (_FRONT_STEPS - k) - 0.5 * width
        y = min(max(y, mid - reach, lo + half_tol), mid + reach, hi - half_tol)
        f = front_time(y, M, geometry, theta_c, sherwood) - theta
        if f >= 0.0:
            lo, f_lo = y, f
        else:
            hi, f_hi = y, f
    return lo + (hi - lo) * (f_lo / (f_lo - f_hi))  # the secant root of the last bracket


def second_stage_profiles(y_m: float, M: float, grid: SpatialGrid,
                          geometry: PelletGeometry,
                          sherwood: float | None = None) -> np.ndarray:
    """Second-stage gas profile a(y), with value and flux continuity at the front.

    The outer shell (y > y_m) carries pure diffusion: linear in y for the
    slab, A + B/y for the sphere.  The inner zone keeps the first-stage
    shape rescaled to the front value a_m, which is fixed by matching the
    diffusive flux through the shell to the inner uptake.  The result is
    capped at 1, which rounding exceeds by a few ulp near the surface.
    At y_m = 1 the shell is empty and the profile is the quasi-steady one:
    `profile_qss`'s bit for bit without a film, and with one its filmed
    sphere to rounding, since a_m is then the film factor.
    """
    if not 0.0 < y_m <= 1.0:
        raise SolverError(f"y_m must lie in (0, 1], got {y_m}")
    y = grid.y
    in_core = y <= y_m
    values = np.empty_like(y)
    if geometry.is_sphere:
        q = m_coth_m_minus_1(M * y_m)  # M y_m coth(M y_m) - 1
        inv_sh = 0.0 if sherwood is None else 1.0 / sherwood
        a_m = 1.0 / (1.0 + (1.0 - y_m + y_m * inv_sh) * q)
        const = a_m * (1.0 + q)
        harm = -a_m * q * y_m
        values[~in_core] = const + harm / y[~in_core]
    else:
        if sherwood is not None:
            raise SolverError("slab film resistance is not tabulated")
        t = M * math.tanh(M * y_m)
        a_m = 1.0 / (1.0 + (1.0 - y_m) * t)
        values[~in_core] = a_m * (1.0 + t * (y[~in_core] - y_m))
    # the front is the core's surface: shape(M, y; y_m) = shape(M y_m, y / y_m)
    values[in_core] = a_m * shape_ratio(geometry, M * y_m, y[in_core] / y_m)
    return np.minimum(values, 1.0, out=values)
