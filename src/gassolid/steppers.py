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

The grain update with a product layer (`_GrainModified`, for both kinds
that have one) and the random pore update are implicit: the new solid
solves g(r) = target for an increasing law g.  The random-pore law is a
quadratic in sqrt(1 + Psi w) - 1, and the product-layer law (Z_v = 1) a
cubic in r, so both are inverted in closed form.  Only the swelling grain
law is inverted by Newton: `_invert_increasing` solves it per node, with
the grain resistance as the derivative, from a start interpolated in a
table of g on a uniform grid of r that the stepper builds once (g is
strictly increasing, so the table inverts by linear interpolation); that
usually leaves one Newton step and the evaluation that confirms it.
Newton is safeguarded by a bracket that every iterate shrinks: a step
leaving the bracket is replaced by its midpoint, and nodes not converged
after a fixed number of steps finish by bisection.  A law whose
derivative is not positive raises.

Models whose solid reaches zero in finite time (half-order volume and the
grain family) switch to a second stage once the surface node exhausts:
a reaction front y_m recedes behind a fully converted shell, advanced by
inverting the tabulated theta(y_m) relation incrementally.  The front is
the stage: a state's y_m is None in the first stage, and the switch sets
it to 1 together with theta_c, the switch time the front relation reads.
A second-stage substep is sized by the second-stage profile of its
front, which at y_m = 1 is the quasi-steady one.

Every model runs on the one step loop of `_PelletStepper.step`, which
returns (state, status); `current_profile(state)` gives the gas profile
of a state, as an array (a pair of arrays (A, C) for the two-gas model).
A single-gas law gives only its open-pore closed forms, one `terms(solid,
exposure)` call per lagged state as in `fdref`: the frozen modulus M, the
structure factor delta or None, and k, the solid being used up at k * a,
which sizes the substep; `advance(solid, exposure, dg)` returns the new
solid, and the substep adds dg to the exposure.  The stepper closes the
pores where delta is 0 (`_lagged_terms`), and a law has a second stage
exactly when its `surface_budget` is finite.
The two-gas model replaces only the first-stage substep and the profile.
"""

from __future__ import annotations

import math
from enum import Flag

import numpy as np

from .core import (
    B_MIN,
    LN_B_CAP,
    SOLID_FLOOR,
    ModelKind,
    ModelParams,
    PelletState,
    SolverError,
    SpatialGrid,
)
from .kernels import (
    GasProfile,
    exposure_increment,
    front_time,
    profile_qss,
    profile_unsteady,
    second_stage_profiles,
    shape_ratio,
    solve_moving_boundary,
)

DEFAULT_DECREMENT_CAP = 0.01
_PLUGGED_MODULUS = 1e4  # large enough that the local profile underflows to 0


class StepStatus(Flag):
    """What happened during a step; the substeps' statuses are or-ed together."""

    OK = 0
    SERIES_WARNING = 1
    EXHAUSTED = 2
    PORE_PLUGGED = 4


_NEWTON_STEPS = 12  # a step capped by the decrement cap converges in about five
_BISECT_STEPS = 52
_STOP_ULPS = 4.0 * np.finfo(float).eps
_TRIG_S2_MIN = 1e-6  # below it one polish takes the linear root to within 3 s2^3
_START_POINTS = 4097  # r grid of the swelling grain's start table: starts within 1e-7 of the root


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
    x = np.clip(x0, lo, hi)
    scale, size = np.abs(x), np.abs(target)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        f = fn(x) - target
        d = dfn(x)
        if not (done | ((d > 0.0) & (d < np.inf))).all():
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

    def __init__(self, params: ModelParams, grid: SpatialGrid,
                 decrement_cap: float = DEFAULT_DECREMENT_CAP):
        self.params = params
        self.grid = grid
        self.geometry = params.pellet
        if not decrement_cap > 0.0:
            raise SolverError("decrement cap must be positive")
        self.cap = decrement_cap

    # -- model hooks: `terms` of the lagged state, then `advance` ---------

    def terms(self, solid, exposure):
        """(per-node M, per-node delta or None, k) of the lagged state, pores open.

        M and delta freeze the gas profile; under a gas a the solid is used
        up at |d solid / d theta| = k * a (k per node or a scalar), which
        sizes the substep.
        """
        raise NotImplementedError

    def advance(self, solid, exposure, dg):
        """New solid after gas exposure increment dg per node, pores open."""
        raise NotImplementedError

    def surface_budget(self, solid) -> float:
        """Remaining surface exposure until the surface node exhausts; inf for
        a law without a second stage."""
        return math.inf

    # -- stepping ----------------------------------------------------------

    def initial_state(self) -> PelletState:
        return PelletState.fresh(self.grid, self.params)

    def _lagged_terms(self, solid, exposure):
        """`terms` with pore closure: (M, delta, k, closed, status).

        A closed node (delta 0) gets the plugged modulus and k = 0; closed is
        None for a law without delta, and the status is PORE_PLUGGED when a
        closed node holds solid above SOLID_FLOOR."""
        M, delta, k = self.terms(solid, exposure)
        if delta is None:
            return M, None, k, None, StepStatus.OK
        closed = delta <= 0.0
        status = (StepStatus.PORE_PLUGGED if (closed & (solid > SOLID_FLOOR)).any()
                  else StepStatus.OK)
        return (np.where(closed, _PLUGGED_MODULUS, M), delta, np.where(closed, 0.0, k),
                closed, status)

    def _advance_open(self, s: PelletState, closed, dg):
        """`advance` of the state's solid, which keeps its old value at closed nodes."""
        solid = self.advance(s.solid, s.exposure, dg)
        return solid if closed is None else np.where(closed, s.solid, solid)

    def current_profile(self, state: PelletState) -> np.ndarray:
        """Gas profile a(y) of the state's frozen modulus."""
        M, delta, _, _, _ = self._lagged_terms(state.solid, state.exposure)
        if state.y_m is not None and 0.0 < state.y_m < 1.0:
            return second_stage_profiles(state.y_m, self._front_modulus(M, state), self.grid,
                                         self.geometry, self.params.sherwood)
        return self._first_stage_profile(M, delta, state.theta).values

    def _first_stage_profile(self, M, delta, theta: float) -> GasProfile:
        if self.params.quasi_steady:
            return profile_qss(M, self.grid, self.geometry, self.params.sherwood,
                               1.0 if delta is None else delta)
        scale = self.params.psi * self.params.thiele**2  # the accumulation group
        if delta is not None:
            scale = scale / np.maximum(delta, 1e-30)
        return profile_unsteady(M, theta, scale, self.grid, self.geometry)

    def step(self, state: PelletState, dtheta: float):
        """Advance by dtheta (internally subdivided); returns (state, status)."""
        if dtheta < 0.0:
            raise SolverError("dtheta must be nonnegative")
        s = state.copy()
        status = StepStatus.OK
        remaining = dtheta
        floor = 1e-14 * max(1.0, dtheta)
        while remaining > floor:
            if s.y_m is None:
                dt, st = self._first_stage_substep(s, remaining)
            else:
                dt, st = self._second_stage_substep(s, remaining)
            remaining -= dt
            status |= st
        return s, status

    # -- substeps ----------------------------------------------------------

    def _first_stage_substep(self, s: PelletState, remaining: float):
        M, delta, k, closed, status = self._lagged_terms(s.solid, s.exposure)
        prof = self._first_stage_profile(M, delta, s.theta)
        if prof.truncated:
            status |= StepStatus.SERIES_WARNING
        rmax = float((k * prof.values).max())
        dt = remaining if rmax <= 0.0 else min(remaining, self.cap / rmax)
        switching = False
        a_surf = float(prof.values[-1])  # constant over the increment
        if a_surf > 0.0:
            dt_star = self.surface_budget(s.solid) / a_surf  # inf without a second stage
            if dt_star <= dt:
                dt = max(dt_star, 0.0)
                switching = True
        for attempt in range(60):
            dg, truncated = exposure_increment(prof, dt)
            solid_new = self._advance_open(s, closed, dg)
            dec = float((s.solid - solid_new).max())
            if switching or dec <= 2.0 * self.cap:
                break
            if dt <= 1e-13 or attempt == 59:
                raise SolverError(
                    f"substep at theta {s.theta:.6g} removes {dec:.3g} of solid at "
                    f"dtheta {dt:.3g}, above twice the decrement cap {self.cap:g}")
            dt *= 0.5
        if truncated:
            status |= StepStatus.SERIES_WARNING
        s.solid = solid_new
        s.exposure += dg
        s.theta += dt
        if switching:
            s.solid[-1] = 0.0
            s.theta_c = s.theta
            s.y_m = 1.0
        return dt, status

    def _front_modulus(self, M: np.ndarray, s: PelletState) -> float:
        """Volume-mean effective modulus of the unexhausted inner zone.

        Exact for the constant-modulus problems the second-stage tables
        solve; for state-dependent moduli it is the consumption-matched
        single value used in the tabulated forms.
        """
        y = self.grid.y
        alive = (y <= s.y_m + 0.5 * self.grid.h) & (s.solid > SOLID_FLOOR)
        if not alive.any():
            return 0.0
        w = y[alive] ** (self.geometry.shape_factor - 1)
        wsum = float(w.sum())
        if wsum <= 0.0:  # only the center node is alive
            return math.sqrt((M[alive] ** 2).mean())
        return math.sqrt((w * M[alive] ** 2).sum() / wsum)

    def _second_stage_substep(self, s: PelletState, remaining: float):
        if s.theta_c is None:
            raise SolverError("a second-stage state (y_m set) requires theta_c")
        M, _, k, closed, status = self._lagged_terms(s.solid, s.exposure)
        sh = self.params.sherwood
        dt, y_new = remaining, 0.0  # an exhausted pellet takes the rest of the step
        if s.y_m > 0.0 and (s.solid > SOLID_FLOOR).any():
            m_eff = self._front_modulus(M, s)
            a0 = second_stage_profiles(s.y_m, m_eff, self.grid, self.geometry, sh)
            rmax = float(np.where(s.solid > SOLID_FLOOR, k * a0, 0.0).max())
            dt = remaining if rmax <= 0.0 else min(remaining, self.cap / rmax)
            target = front_time(s.y_m, m_eff, self.geometry, s.theta_c, sh) + dt
            y_new = solve_moving_boundary(target, m_eff, self.geometry, s.theta_c, sh)
        if y_new <= 0.0:  # exhausted, or the front reaches the centre within dt
            s.solid[:] = 0.0
            s.y_m = 0.0
            s.theta += dt
            return dt, status | StepStatus.EXHAUSTED
        dg = second_stage_profiles(y_new, m_eff, self.grid, self.geometry, sh) * dt
        s.solid = self._advance_open(s, closed, dg)
        s.solid[self.grid.y > y_new] = 0.0
        s.exposure += dg
        s.y_m = y_new
        s.theta += dt
        return dt, status


# ---------------------------------------------------------------------------
# Volume reaction models
# ---------------------------------------------------------------------------


class _VolumeFirstOrder(_PelletStepper):
    def terms(self, solid, exposure):
        return self.params.thiele * np.sqrt(solid), None, solid

    def advance(self, solid, exposure, dg):
        return np.maximum(solid * np.exp(-dg), B_MIN)


class _VolumeHalfOrder(_PelletStepper):
    def terms(self, solid, exposure):
        root = np.sqrt(solid)
        return self.params.thiele * np.sqrt(root), None, root

    def advance(self, solid, exposure, dg):
        root = np.maximum(np.sqrt(solid) - 0.5 * dg, 0.0)
        return root * root

    def surface_budget(self, solid):
        return 2.0 * math.sqrt(float(solid[-1]))


# ---------------------------------------------------------------------------
# Grain family (shrinking cores inside the pellet)
# ---------------------------------------------------------------------------


class _GrainSimple(_PelletStepper):
    def terms(self, solid, exposure):
        expo = 0.5 * (self.params.grain.shape_factor - 1)
        # a used-up grain reacts no more; with F_g = 1, solid ** 0 would still be 1
        core = solid**expo if expo else (solid > 0.0).astype(float)
        return self.params.thiele * core, None, 1.0

    def advance(self, solid, exposure, dg):
        return np.maximum(solid - dg, 0.0)

    def surface_budget(self, solid):
        return float(solid[-1])


class _GrainModified(_PelletStepper):
    """Grain model with a product layer and changing grain size, porosity and diffusivity.

    At Z_v = 1 (the product-layer grain model) the swelling terms are skipped:
    the outer radius is 1, delta None, and g the product-layer law plus 2 s2,
    a cubic whose root `advance` takes in closed form, not by Newton.
    """

    def __init__(self, params: ModelParams, grid: SpatialGrid,
                 decrement_cap: float = DEFAULT_DECREMENT_CAP):
        super().__init__(params, grid, decrement_cap)
        self._swells = abs(params.z_ratio - 1.0) >= 1e-12
        self._g0 = self._g(0.0)  # g of a fully converted grain
        if self._swells:  # g' is the grain resistance, at least 1: the table increases
            self._r_tab = np.linspace(0.0, 1.0, _START_POINTS)
            self._g_tab = self._g(self._r_tab)

    def _x(self, r):
        # relative growth of the grain volume: r**3 = 1 + x
        return (self.params.z_ratio - 1.0) * (1.0 - r**3)

    def _outer_radius(self, r):
        return np.exp(np.log1p(self._x(r)) / 3.0)

    def _g(self, r):
        s2 = self.params.sigma_g_sq
        base = r + 3.0 * s2 * r * r
        if not self._swells:
            return base + 2.0 * s2 * (1.0 - r**3)
        # (1+x)^(2/3) - 1 evaluated without cancellation for small x
        grow = np.expm1(2.0 / 3.0 * np.log1p(self._x(r)))
        return base + (3.0 * s2 / (self.params.z_ratio - 1.0)) * grow

    def _resistance(self, r):
        shell = r * r / self._outer_radius(r) if self._swells else r * r
        return 1.0 + 6.0 * self.params.sigma_g_sq * (r - shell)

    def _delta(self, r):
        if not self._swells:
            return None
        p = self.params
        bracket = 1.0 - (1.0 - p.porosity0) / p.porosity0 * (p.z_ratio - 1.0) * (1.0 - r**3)
        return np.maximum(bracket, 0.0) ** 2

    def terms(self, solid, exposure):
        resistance = self._resistance(solid)
        delta = self._delta(solid)
        diffusion = resistance if delta is None else resistance * np.maximum(delta, 1e-300)
        return self.params.thiele * solid / np.sqrt(diffusion), delta, 1.0 / resistance

    def _layer_root(self, target, solid):
        # g(r) = target is t^3 + P t + Q = 0 at r = t + 1/2: its middle trig root,
        # or the linear root where s2 is too small for it, polished by one Newton step
        s2 = self.params.sigma_g_sq
        if s2 < _TRIG_S2_MIN:
            r = target - 2.0 * s2
        else:
            p = -(1.5 * s2 + 1.0) / (2.0 * s2)
            q = (target - 2.0 * s2) / (2.0 * s2) - 0.25 - 0.25 / s2
            m = 2.0 * math.sqrt(-p / 3.0)
            angle = np.arccos(np.clip(3.0 * q / (p * m), -1.0, 1.0)) / 3.0
            r = 0.5 + m * np.cos(angle - 2.0 * math.pi / 3.0)
        return np.clip(r - (self._g(r) - target) / self._resistance(r), 0.0, solid)

    def advance(self, solid, exposure, dg):
        target = np.maximum(self._g(solid) - dg, self._g0)
        if self._swells:
            r_new = _invert_increasing(self._g, self._resistance, target, np.zeros_like(solid),
                                       solid, np.interp(target, self._g_tab, self._r_tab))
        else:
            r_new = self._layer_root(target, solid)
        return np.where(dg <= 0.0, solid, r_new)

    def surface_budget(self, solid):
        return float(self._g(np.asarray(solid[-1])) - self._g0)


# ---------------------------------------------------------------------------
# Random pore model
# ---------------------------------------------------------------------------


class _RandomPore(_PelletStepper):
    def _w(self, solid):
        # the law's solid variable, w = -ln b
        return -np.log(np.maximum(solid, B_MIN))

    def _h_of_w(self, w):
        # integral of the kinetic resistance over the solid path; H(0) = 0
        u = np.sqrt(1.0 + self.params.psi_cap * w)
        bz = self.params.beta * self.params.z_ratio
        return 2.0 * w / (1.0 + u) + bz * w * w / (1.0 + u) ** 2

    def _w_of_h(self, h):
        # the inverse of _h_of_w: h = 2 v + bz v^2 with v = w / (1 + u), and
        # u - 1 = Psi v, so v = h / (1 + r) with r = sqrt(1 + bz h), and
        # w = v (2 + Psi v); neither Psi nor bz is a divisor
        bz = self.params.beta * self.params.z_ratio
        v = h / (1.0 + np.sqrt(1.0 + bz * h))
        return v * (2.0 + self.params.psi_cap * v)

    def _delta(self, solid):
        p = self.params
        bracket = 1.0 - (p.z_ratio - 1.0) * (1.0 - p.porosity0) * (1.0 - solid) / p.porosity0
        return np.maximum(bracket, 0.0) ** 2

    def terms(self, solid, exposure):
        p = self.params
        w = self._w(solid)
        u = np.sqrt(1.0 + p.psi_cap * w)
        delta = self._delta(solid)
        k = solid * u / (1.0 + p.beta * p.z_ratio * w / (1.0 + u))  # b u over the resistance
        return np.sqrt(p.thiele**2 * k / np.maximum(delta, 1e-300)), delta, k

    def advance(self, solid, exposure, dg):
        w_new = np.minimum(self._w_of_h(self._h_of_w(self._w(solid)) + dg), LN_B_CAP)
        return np.where(dg <= 0.0, solid, np.exp(-w_new))


# ---------------------------------------------------------------------------
# Nucleation (Avrami) model
# ---------------------------------------------------------------------------


class _Nucleation(_PelletStepper):
    def terms(self, solid, exposure):
        p = self.params
        n = p.solid_order
        # 2 F_p / |f'(b)| with f(b) = (-ln b)^(1/n) and b = exp(-g^n)
        gain = n * solid * exposure ** (n - 1.0)
        return p.thiele * np.sqrt(2.0 * p.pellet.shape_factor * gain), None, gain

    def advance(self, solid, exposure, dg):
        g = exposure + dg
        b = np.exp(-np.minimum(g**self.params.solid_order, LN_B_CAP))
        return np.maximum(b, B_MIN)


# ---------------------------------------------------------------------------
# Two simultaneous gases consuming one solid
# ---------------------------------------------------------------------------


class _Simultaneous(_PelletStepper):
    """First-order kinetics in two gases A and C sharing the solid.

    ``solid`` is the total b; ``solid_aux`` on the state carries b_A, the
    solid that would remain if only gas A had reacted; ``exposure`` is not
    used.  The profile is the pair (A, C), and every substep is a
    first-stage one.
    """

    def current_profile(self, state: PelletState):
        if state.solid_aux is None:
            raise SolverError("simultaneous model state requires solid_aux (b_A)")
        p = self.params
        root = np.sqrt(2.0 * p.pellet.shape_factor * state.solid)
        # both gases in one kernel call on the stacked (2, n) modulus: the kernel
        # works element by element, so each row is the single-gas shape bit for bit
        moduli = np.array([[p.thiele_a], [p.thiele_c]]) * root
        psi_a, psi_c = np.array([[p.psi_ab], [p.psi_cb]]) * shape_ratio(self.geometry, moduli,
                                                                        self.grid.y)
        return psi_a, psi_c

    def _first_stage_substep(self, s: PelletState, remaining: float):
        psi_a, psi_c = self.current_profile(s)
        total = psi_a + psi_c
        rate = total * s.solid
        rmax = float(rate.max())
        dt = remaining if rmax <= 0.0 else min(remaining, self.cap / rmax)
        shrink = -np.expm1(-total * dt)  # 1 - exp(-(psiA+psiC) dt)
        kernel = np.where(total > 0.0, shrink / np.where(total > 0.0, total, 1.0), dt)
        b_new = np.maximum(s.solid * (1.0 - shrink), B_MIN)
        s.solid_aux = np.maximum(s.solid_aux - psi_a * s.solid * kernel, 0.0)
        s.solid = b_new
        s.theta += dt
        return dt, StepStatus.OK


_STEPPERS = {
    ModelKind.VOLUME_FIRST_ORDER: _VolumeFirstOrder,
    ModelKind.VOLUME_HALF_ORDER: _VolumeHalfOrder,
    ModelKind.GRAIN_SIMPLE: _GrainSimple,
    ModelKind.GRAIN_PRODUCT_LAYER: _GrainModified,
    ModelKind.GRAIN_MODIFIED: _GrainModified,
    ModelKind.RANDOM_PORE: _RandomPore,
    ModelKind.NUCLEATION: _Nucleation,
    ModelKind.SIMULTANEOUS: _Simultaneous,
}


def make_stepper(params: ModelParams, grid: SpatialGrid,
                 decrement_cap: float = DEFAULT_DECREMENT_CAP) -> _PelletStepper:
    return _STEPPERS[params.kind](params, grid, decrement_cap)

