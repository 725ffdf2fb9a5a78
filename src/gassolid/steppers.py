"""One stepper per reaction model.

Each step freezes the per-node modulus from the lagged solid state,
evaluates the closed-form gas profile, and advances the solid by the
model's integrated update over the increment (a cumulative-exposure
formulation, so e.g. b = exp(-a theta) is applied as
b_new = b_old * exp(-a dtheta)).  Steps are subdivided internally so no
node's solid state changes by more than the decrement cap in one freeze;
a substep that still removes more than twice the cap once halved to
dtheta 1e-13 (or after 60 tries) raises SolverError, except at the stage
switch.

The product-layer grain, modified grain and random pore updates are
implicit: the new solid solves g(r) = target for an increasing law g
whose derivative is already part of the model (the grain resistance, or
the random-pore rate resistance over u).  `_invert_increasing` solves it
per node by Newton from the old solid, safeguarded by a bracket that
every iterate shrinks: a step leaving the bracket is replaced by its
midpoint, and nodes not converged after a fixed number of steps finish
by bisection.  A law whose derivative is not positive raises.

Models whose solid reaches zero in finite time (half-order volume and the
grain family) switch to a second stage once the surface node exhausts:
a reaction front y_m recedes behind a fully converted shell, advanced by
inverting the tabulated theta(y_m) relation incrementally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    LN_B_CAP,
    SOLID_FLOOR,
    GasProfile,
    ModelKind,
    ModelParams,
    PelletState,
    SolverError,
    SpatialGrid,
    Stage,
)
from .kernels import (
    SeriesControl,
    exposure_increment,
    front_time,
    profile_qss,
    profile_unsteady,
    second_stage_profiles,
    solve_moving_boundary,
    sphere_ratio,
)

DEFAULT_DECREMENT_CAP = 0.01
_PLUGGED_MODULUS = 1e4  # large enough that the local profile underflows to 0
_B_MIN = math.exp(-LN_B_CAP)


class StepStatus(Enum):
    OK = "ok"
    SERIES_WARNING = "series_warning"
    EXHAUSTED = "exhausted"
    PORE_PLUGGED = "pore_plugged"


_SEVERITY = {
    StepStatus.OK: 0,
    StepStatus.SERIES_WARNING: 1,
    StepStatus.EXHAUSTED: 2,
    StepStatus.PORE_PLUGGED: 3,
}


@dataclass
class StepReport:
    theta_after: float
    max_solid_decrement: float
    stage_switched: bool
    status: StepStatus


def _worse(a: StepStatus, b: StepStatus) -> StepStatus:
    return a if _SEVERITY[a] >= _SEVERITY[b] else b


_NEWTON_STEPS = 12  # a step capped by the decrement cap converges in about five
_BISECT_STEPS = 52
_STOP_ULPS = 4.0 * np.finfo(float).eps


def _invert_increasing(fn, dfn, target: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                       x0: np.ndarray) -> np.ndarray:
    """Solve fn(x) = target per node, fn increasing on [lo, hi] with derivative dfn.

    Safeguarded Newton from x0 (clipped to the bracket).  Every iterate
    shrinks the node's bracket by the sign of fn - target; a Newton step
    that lands outside the shrunken bracket (by more than the tolerance) is
    replaced by the bracket's midpoint.  A node stops once its Newton step
    or its bracket is within a few ulp of the larger of |x0|, |x| and
    |target| / dfn: |x0| keeps the test absolute when the root sits at
    lo = 0, and |target| / dfn is how far the rounding of fn near the
    target leaves the root uncertain.  Nodes still live after _NEWTON_STEPS
    finish by bisection on their own brackets.  A derivative that is not
    positive and finite at a live node means the law is not increasing
    there, and raises.
    """
    if np.any(fn(hi) < fn(lo) - 1e-12):
        raise SolverError("solid-update bracket is not monotone")
    x = np.clip(x0, lo, hi)
    scale, size = np.abs(x), np.abs(target)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        f = fn(x) - target
        d = dfn(x)
        if not np.all(done | ((d > 0.0) & (d < np.inf))):
            raise SolverError("solid-update law is not monotone")
        below = f < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        newton = x - f / d
        tol = _STOP_ULPS * np.maximum(np.maximum(scale, np.abs(x)), size / d)
        stop = (np.abs(newton - x) <= tol) | (hi - lo <= tol)
        kept = np.clip(newton, lo, hi)
        step = np.where(stop | (np.abs(kept - newton) <= tol), kept, 0.5 * (lo + hi))
        x = np.where(done, x, step)
        done |= stop
        if done.all():
            return x
    lo = np.where(done, x, lo)
    hi = np.where(done, x, hi)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = fn(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class _PelletStepper:
    """Shared stepping machinery; subclasses provide the model laws."""

    two_stage = False

    def __init__(self, params: ModelParams, grid: SpatialGrid,
                 series: SeriesControl | None = None,
                 decrement_cap: float = DEFAULT_DECREMENT_CAP):
        self.params = params
        self.grid = grid
        self.geometry = params.pellet
        self.series = series if series is not None else SeriesControl()
        if not decrement_cap > 0.0:
            raise SolverError("decrement cap must be positive")
        self.cap = decrement_cap

    # -- model hooks -------------------------------------------------------

    def modulus(self, solid, exposure):
        """(per-node M, per-node delta or None, plugged?) from the lagged state."""
        raise NotImplementedError

    def solid_rate(self, solid, exposure, a):
        """|d solid / d theta| per node, for step-size control."""
        raise NotImplementedError

    def advance(self, solid, exposure, dg):
        """New (solid, exposure) after gas exposure increment dg per node."""
        raise NotImplementedError

    def surface_budget(self, solid, exposure) -> float:
        """Remaining surface exposure until the surface node exhausts."""
        raise NotImplementedError

    def transient_scale(self, delta):
        scale = self.params.psi * self.params.thiele**2
        if delta is None:
            return scale
        return scale / np.maximum(delta, 1e-30)

    # -- stepping ----------------------------------------------------------

    def initial_state(self) -> PelletState:
        return PelletState.fresh(self.grid, self.params)

    def current_profile(self, state: PelletState):
        M, delta, _ = self.modulus(state.solid, state.exposure)
        if state.stage is Stage.SECOND and state.y_m is not None and 0.0 < state.y_m < 1.0:
            m_eff = self._front_modulus(M, state)
            two = second_stage_profiles(state.y_m, m_eff, self.grid, self.geometry,
                                        self.params.sherwood)
            return GasProfile(values=two.values)
        if self.params.quasi_steady:
            return profile_qss(M, self.grid, self.geometry, self.params.sherwood,
                               1.0 if delta is None else delta)
        return profile_unsteady(M, state.theta, self.transient_scale(delta),
                                self.grid, self.geometry, self.series)

    def step(self, state: PelletState, dtheta: float):
        """Advance by dtheta (internally subdivided); returns (state, profile, report)."""
        if dtheta < 0.0:
            raise SolverError("dtheta must be nonnegative")
        s = state.copy()
        status = StepStatus.OK
        max_dec = 0.0
        switched = False
        if dtheta == 0.0:
            return s, self.current_profile(s), StepReport(s.theta, 0.0, False, status)
        remaining = dtheta
        floor = 1e-14 * max(1.0, dtheta)
        profile = None
        while remaining > floor:
            if s.stage is Stage.FIRST:
                dt, profile, dec, sw, st = self._first_stage_substep(s, remaining)
            else:
                dt, profile, dec, sw, st = self._second_stage_substep(s, remaining)
            remaining -= dt
            max_dec = max(max_dec, dec)
            switched = switched or sw
            status = _worse(status, st)
        if profile is None:
            profile = self.current_profile(s)
        return s, profile, StepReport(s.theta, max_dec, switched, status)

    # -- substeps ----------------------------------------------------------

    def _first_stage_substep(self, s: PelletState, remaining: float):
        M, delta, plugged = self.modulus(s.solid, s.exposure)
        status = StepStatus.PORE_PLUGGED if plugged else StepStatus.OK
        if self.params.quasi_steady:
            prof = profile_qss(M, self.grid, self.geometry, self.params.sherwood,
                               1.0 if delta is None else delta)
        else:
            prof = profile_unsteady(M, s.theta, self.transient_scale(delta),
                                    self.grid, self.geometry, self.series)
            if prof.warning:
                status = _worse(status, StepStatus.SERIES_WARNING)
        rate = self.solid_rate(s.solid, s.exposure, prof.values)
        rmax = float(np.max(rate))
        dt = remaining if rmax <= 0.0 else min(remaining, self.cap / rmax)
        switching = False
        if self.two_stage:
            a_surf = float(prof.values[-1])  # constant over the increment
            if a_surf > 0.0:
                dt_star = self.surface_budget(s.solid, s.exposure) / a_surf
                if dt_star <= dt:
                    dt = max(dt_star, 0.0)
                    switching = True
        scale = None if self.params.quasi_steady else self.transient_scale(delta)
        for attempt in range(60):
            dg, warn = exposure_increment(M, s.theta, s.theta + dt, scale, self.grid,
                                          self.geometry, self.params.sherwood,
                                          1.0 if delta is None else delta, self.series)
            solid_new, expo_new = self.advance(s.solid, s.exposure, dg)
            dec = float(np.max(s.solid - solid_new))
            if switching or dec <= 2.0 * self.cap:
                break
            if dt <= 1e-13 or attempt == 59:
                raise SolverError(
                    f"substep at theta {s.theta:.6g} removes {dec:.3g} of solid at "
                    f"dtheta {dt:.3g}, above twice the decrement cap {self.cap:g}")
            dt *= 0.5
        if warn:
            status = _worse(status, StepStatus.SERIES_WARNING)
        s.solid = solid_new
        s.exposure = expo_new
        s.theta += dt
        if switching:
            s.solid[-1] = 0.0
            s.stage = Stage.SECOND
            s.theta_c = s.theta
            s.y_m = 1.0
        return dt, GasProfile(values=prof.values, warning=prof.warning), dec, switching, status

    def _front_modulus(self, M: np.ndarray, s: PelletState) -> float:
        """Volume-mean effective modulus of the unexhausted inner zone.

        Exact for the constant-modulus problems the second-stage tables
        solve; for state-dependent moduli it is the consumption-matched
        single value used in the tabulated forms.
        """
        y = self.grid.y
        alive = (y <= (s.y_m if s.y_m is not None else 1.0) + 0.5 * self.grid.h) & (
            s.solid > SOLID_FLOOR
        )
        if not np.any(alive):
            return 0.0
        w = y[alive] ** (self.geometry.shape_factor - 1)
        wsum = float(np.sum(w))
        if wsum <= 0.0:  # only the center node is alive
            return float(np.sqrt(np.mean(M[alive] ** 2)))
        return float(np.sqrt(np.sum(w * M[alive] ** 2) / wsum))

    def _second_stage_substep(self, s: PelletState, remaining: float):
        M, delta, plugged = self.modulus(s.solid, s.exposure)
        status = StepStatus.PORE_PLUGGED if plugged else StepStatus.OK
        sh = self.params.sherwood
        if s.y_m is None:
            raise SolverError("second stage requires a front position")
        if s.y_m <= 0.0 or not np.any(s.solid > SOLID_FLOOR):
            s.solid[:] = 0.0
            s.y_m = 0.0
            s.theta += remaining
            ones = GasProfile(values=np.ones(self.grid.n))
            return remaining, ones, 0.0, False, _worse(status, StepStatus.EXHAUSTED)
        m_eff = self._front_modulus(M, s)
        if s.y_m >= 1.0:
            prof0 = profile_qss(m_eff, self.grid, self.geometry, sh)
        else:
            prof0 = second_stage_profiles(s.y_m, m_eff, self.grid, self.geometry, sh)
        rate = np.where(s.solid > SOLID_FLOOR,
                        self.solid_rate(s.solid, s.exposure, prof0.values), 0.0)
        rmax = float(np.max(rate))
        dt = remaining if rmax <= 0.0 else min(remaining, self.cap / rmax)
        theta_c = s.theta_c if s.theta_c is not None else 1.0
        target = front_time(s.y_m, m_eff, self.geometry, theta_c, sh) + dt
        y_new = solve_moving_boundary(target, m_eff, self.geometry, theta_c, sh)
        if y_new <= 0.0:
            dec = float(np.max(s.solid))
            s.solid[:] = 0.0
            s.y_m = 0.0
            s.theta += dt
            ones = GasProfile(values=np.ones(self.grid.n))
            return dt, ones, dec, False, _worse(status, StepStatus.EXHAUSTED)
        two = second_stage_profiles(y_new, m_eff, self.grid, self.geometry, sh)
        dg = two.values * dt
        solid_new, expo_new = self.advance(s.solid, s.exposure, dg)
        solid_new[self.grid.y > y_new] = 0.0
        dec = float(np.max(s.solid - solid_new))
        s.solid = solid_new
        s.exposure = expo_new
        s.y_m = y_new
        s.theta += dt
        return dt, GasProfile(values=two.values), dec, False, status


# ---------------------------------------------------------------------------
# Volume reaction models
# ---------------------------------------------------------------------------


class _VolumeFirstOrder(_PelletStepper):
    def modulus(self, solid, exposure):
        return self.params.thiele * np.sqrt(solid), None, False

    def solid_rate(self, solid, exposure, a):
        return a * solid

    def advance(self, solid, exposure, dg):
        return np.maximum(solid * np.exp(-dg), _B_MIN), exposure + dg


class _VolumeHalfOrder(_PelletStepper):
    two_stage = True

    def modulus(self, solid, exposure):
        return self.params.thiele * solid**0.25, None, False

    def solid_rate(self, solid, exposure, a):
        return a * np.sqrt(solid)

    def advance(self, solid, exposure, dg):
        root = np.maximum(np.sqrt(solid) - 0.5 * dg, 0.0)
        return root * root, exposure + dg

    def surface_budget(self, solid, exposure):
        return 2.0 * math.sqrt(float(solid[-1]))


# ---------------------------------------------------------------------------
# Grain family (shrinking cores inside the pellet)
# ---------------------------------------------------------------------------


class _GrainSimple(_PelletStepper):
    two_stage = True

    def modulus(self, solid, exposure):
        expo = 0.5 * (self.params.grain.shape_factor - 1)
        return self.params.thiele * solid**expo, None, False

    def solid_rate(self, solid, exposure, a):
        return np.asarray(a, dtype=float)

    def advance(self, solid, exposure, dg):
        return np.maximum(solid - dg, 0.0), exposure + dg

    def surface_budget(self, solid, exposure):
        return float(solid[-1])


class _GrainProductLayer(_PelletStepper):
    """Grain model with a diffusion-limiting product shell around each core."""

    two_stage = True

    def _g(self, r):
        s2 = self.params.sigma_g_sq
        return r + 3.0 * s2 * r * r - 2.0 * s2 * r**3

    def _resistance(self, r):
        return 1.0 + 6.0 * self.params.sigma_g_sq * (r - r * r)

    def modulus(self, solid, exposure):
        M = self.params.thiele * np.sqrt(solid * solid / self._resistance(solid))
        return M, None, False

    def solid_rate(self, solid, exposure, a):
        return a / self._resistance(solid)

    def advance(self, solid, exposure, dg):
        target = np.maximum(self._g(solid) - dg, 0.0)
        r_new = _invert_increasing(self._g, self._resistance, target,
                                   np.zeros_like(solid), solid, solid)
        return np.where(dg > 0.0, r_new, solid), exposure + dg

    def surface_budget(self, solid, exposure):
        return float(self._g(np.asarray(solid[-1])))


class _GrainModified(_PelletStepper):
    """Grain model with evolving grain size, porosity and diffusivity."""

    two_stage = True

    def _x(self, r):
        # relative growth of the grain volume: r**3 = 1 + x
        return (self.params.z_ratio - 1.0) * (1.0 - r**3)

    def _outer_radius(self, r):
        return np.exp(np.log1p(self._x(r)) / 3.0)

    def _g(self, r):
        s2 = self.params.sigma_g_sq
        zm1 = self.params.z_ratio - 1.0
        base = r + 3.0 * s2 * r * r
        if abs(zm1) < 1e-12:
            return base + 2.0 * s2 * (1.0 - r**3)
        # (1+x)^(2/3) - 1 evaluated without cancellation for small x
        grow = np.expm1(2.0 / 3.0 * np.log1p(self._x(r)))
        return base + (3.0 * s2 / zm1) * grow

    def _resistance(self, r):
        return 1.0 + 6.0 * self.params.sigma_g_sq * (r - r * r / self._outer_radius(r))

    def _delta(self, r):
        p = self.params
        bracket = 1.0 - (1.0 - p.porosity0) / p.porosity0 * (p.z_ratio - 1.0) * (1.0 - r**3)
        return np.maximum(bracket, 0.0) ** 2

    def modulus(self, solid, exposure):
        delta = self._delta(solid)
        plugged = bool(np.any((delta <= 0.0) & (solid > SOLID_FLOOR)))
        denom = self._resistance(solid) * np.maximum(delta, 1e-300)
        M = self.params.thiele * solid / np.sqrt(denom)
        M = np.where(delta > 0.0, M, _PLUGGED_MODULUS)
        return M, delta, plugged

    def solid_rate(self, solid, exposure, a):
        rate = a / self._resistance(solid)
        return np.where(self._delta(solid) > 0.0, rate, 0.0)

    def advance(self, solid, exposure, dg):
        frozen = self._delta(solid) <= 0.0
        g0 = self._g(np.zeros_like(solid))
        target = np.maximum(self._g(solid) - dg, g0)
        r_new = _invert_increasing(self._g, self._resistance, target,
                                   np.zeros_like(solid), solid, solid)
        r_new = np.where(frozen | (dg <= 0.0), solid, r_new)
        return r_new, exposure + dg

    def surface_budget(self, solid, exposure):
        r_s = np.asarray(solid[-1])
        return float(self._g(r_s) - self._g(np.asarray(0.0)))

    def porosity(self, solid):
        """Pellet porosity field implied by the current grain sizes."""
        p = self.params
        return 1.0 - (1.0 - p.porosity0) * (1.0 + self._x(solid))


# ---------------------------------------------------------------------------
# Random pore model
# ---------------------------------------------------------------------------


class _RandomPore(_PelletStepper):
    def _split(self, solid):
        w = -np.log(np.maximum(solid, _B_MIN))
        u = np.sqrt(1.0 + self.params.psi_cap * w)
        return w, u

    def _h_of_w(self, w):
        # integral of the kinetic resistance over the solid path; H(0) = 0
        u = np.sqrt(1.0 + self.params.psi_cap * w)
        bz = self.params.beta * self.params.z_ratio
        return 2.0 * w / (1.0 + u) + bz * w * w / (1.0 + u) ** 2

    def _rate_resistance(self, w, u):
        bz = self.params.beta * self.params.z_ratio
        return 1.0 + bz * w / (1.0 + u)

    def _dh_dw(self, w):
        u = np.sqrt(1.0 + self.params.psi_cap * w)
        return self._rate_resistance(w, u) / u

    def _delta(self, solid):
        p = self.params
        bracket = 1.0 - (p.z_ratio - 1.0) * (1.0 - p.porosity0) * (1.0 - solid) / p.porosity0
        return np.maximum(bracket, 0.0) ** 2

    def modulus(self, solid, exposure):
        w, u = self._split(solid)
        delta = self._delta(solid)
        plugged = bool(np.any((delta <= 0.0) & (solid > SOLID_FLOOR)))
        M_sq = self.params.thiele**2 * solid * u / (
            self._rate_resistance(w, u) * np.maximum(delta, 1e-300)
        )
        M = np.where(delta > 0.0, np.sqrt(M_sq), _PLUGGED_MODULUS)
        return M, delta, plugged

    def solid_rate(self, solid, exposure, a):
        w, u = self._split(solid)
        rate = a * solid * u / self._rate_resistance(w, u)
        return np.where(self._delta(solid) > 0.0, rate, 0.0)

    def advance(self, solid, exposure, dg):
        w_old, _ = self._split(solid)
        frozen = self._delta(solid) <= 0.0
        target = self._h_of_w(w_old) + dg
        hi = np.full_like(w_old, LN_B_CAP)
        w_new = np.where(
            self._h_of_w(hi) <= target,
            hi,
            _invert_increasing(self._h_of_w, self._dh_dw, target, w_old, hi, w_old),
        )
        b_new = np.exp(-w_new)
        b_new = np.where(frozen | (dg <= 0.0), solid, b_new)
        return b_new, exposure + dg


# ---------------------------------------------------------------------------
# Nucleation (Avrami) model
# ---------------------------------------------------------------------------


class _Nucleation(_PelletStepper):
    def modulus(self, solid, exposure):
        p = self.params
        n = p.solid_order
        # 2 F_p / |f'(b)| with f(b) = (-ln b)^(1/n) and b = exp(-g^n)
        gain = n * solid * exposure ** (n - 1.0) if n != 1.0 else solid
        M = p.thiele * np.sqrt(2.0 * p.pellet.shape_factor * gain)
        return M, None, False

    def solid_rate(self, solid, exposure, a):
        n = self.params.solid_order
        gain = n * solid * exposure ** (n - 1.0) if n != 1.0 else solid
        return a * gain

    def advance(self, solid, exposure, dg):
        g = exposure + dg
        b = np.exp(-np.minimum(g**self.params.solid_order, LN_B_CAP))
        return np.maximum(b, _B_MIN), g


# ---------------------------------------------------------------------------
# Two simultaneous gases consuming one solid
# ---------------------------------------------------------------------------


class _Simultaneous(_PelletStepper):
    """First-order kinetics in two gases A and C sharing the solid.

    ``solid`` is the total b; ``solid_aux`` on the state carries b_A, the
    solid that would remain if only gas A had reacted.
    """

    def _moduli(self, solid):
        p = self.params
        root = np.sqrt(2.0 * p.pellet.shape_factor * solid)
        return p.thiele_a * root, p.thiele_c * root

    def _profiles(self, solid):
        p = self.params
        m_a, m_c = self._moduli(solid)
        psi_a = p.psi_ab * sphere_ratio(m_a, self.grid.y)
        psi_c = p.psi_cb * sphere_ratio(m_c, self.grid.y)
        return psi_a, psi_c

    def current_profile(self, state: PelletState):
        psi_a, psi_c = self._profiles(state.solid)
        return GasProfile(values=psi_a), GasProfile(values=psi_c)

    def step(self, state: PelletState, dtheta: float):
        if dtheta < 0.0:
            raise SolverError("dtheta must be nonnegative")
        s = state.copy()
        if s.solid_aux is None:
            raise SolverError("simultaneous model state requires solid_aux (b_A)")
        max_dec = 0.0
        remaining = dtheta
        psi_a, psi_c = self._profiles(s.solid)
        floor = 1e-14 * max(1.0, dtheta)
        while remaining > floor:
            psi_a, psi_c = self._profiles(s.solid)
            total = psi_a + psi_c
            rate = total * s.solid
            rmax = float(np.max(rate))
            dt = remaining if rmax <= 0.0 else min(remaining, self.cap / rmax)
            shrink = -np.expm1(-total * dt)  # 1 - exp(-(psiA+psiC) dt)
            kernel = np.where(total > 0.0, shrink / np.where(total > 0.0, total, 1.0), dt)
            b_new = np.maximum(s.solid * (1.0 - shrink), _B_MIN)
            s.solid_aux = np.maximum(s.solid_aux - psi_a * s.solid * kernel, 0.0)
            max_dec = max(max_dec, float(np.max(s.solid - b_new)))
            s.solid = b_new
            s.exposure = s.exposure + total * dt
            s.theta += dt
            remaining -= dt
        profiles = (GasProfile(values=psi_a), GasProfile(values=psi_c))
        report = StepReport(s.theta, max_dec, False, StepStatus.OK)
        return s, profiles, report


_STEPPERS = {
    ModelKind.VOLUME_FIRST_ORDER: _VolumeFirstOrder,
    ModelKind.VOLUME_HALF_ORDER: _VolumeHalfOrder,
    ModelKind.GRAIN_SIMPLE: _GrainSimple,
    ModelKind.GRAIN_PRODUCT_LAYER: _GrainProductLayer,
    ModelKind.GRAIN_MODIFIED: _GrainModified,
    ModelKind.RANDOM_PORE: _RandomPore,
    ModelKind.NUCLEATION: _Nucleation,
    ModelKind.SIMULTANEOUS: _Simultaneous,
}


def make_stepper(params: ModelParams, grid: SpatialGrid,
                 series: SeriesControl | None = None,
                 decrement_cap: float = DEFAULT_DECREMENT_CAP) -> _PelletStepper:
    return _STEPPERS[params.kind](params, grid, series, decrement_cap)

