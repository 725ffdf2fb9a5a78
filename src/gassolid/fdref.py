"""Finite-difference reference solver for the coupled gas-solid equations.

This integrates the original model PDEs directly (no per-step freezing of
the solid) and exists to verify the incremental analytical solvers and to
generate pinned fixtures.  It deliberately shares no profile code with
:mod:`gassolid.kernels`: the gas balance is discretized conservatively in
finite-volume form and solved as a tridiagonal system, and the solid is
advanced with the trapezoidal rule.

Every tridiagonal system here (quasi-steady gas, Crank-Nicolson gas and the
bed's bulk BVP) goes through one helper, :func:`solve_banded`.  It takes
the system packed in one ``(4, n)`` buffer (sub-, main and super-diagonal,
then the right-hand side) and hands its rows to LAPACK ``gtsv`` in place,
the routine ``scipy.linalg.solve_banded`` itself calls for one band on each
side, so the solutions are bit-identical to it.  It keeps the two checks
scipy made: one finiteness test over the whole buffer raises
``ValueError`` on inf or NaN, and a zero pivot raises ``LinAlgError``.
Each :class:`_GasGrid` builds the face conductances and the bands of the
flux operator (off-diagonals ``-cond``, diagonal sums of the adjacent
conductances) once, read-only, for the common case without a structure
factor; a solve copies them and only adds the reaction term ``rho * vol``,
plus the capacity term for Crank-Nicolson.  The Simpson weights of the
conversion quadrature are built once per grid on first use, read-only too.

The moving-boundary second stage needs no special casing here: clamping
the solid at zero and keeping the reaction indicator reproduces the
receding-front behavior on its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .analysis import simpson_weights
from .core import LN_B_CAP, ModelKind, ModelParams, SolverError
from .driver import RunResult, sample_schedule

_R_FLOOR = 1e-12
_B_MIN = math.exp(-LN_B_CAP)


@dataclass(frozen=True)
class FdControl:
    n_space: int = 401
    dtheta: float = 1e-3
    auto_refine: bool = True
    refine_tol: float = 1e-5
    max_refines: int = 6

    def __post_init__(self):
        if self.n_space < 3 or self.n_space % 2 == 0:
            raise SolverError("n_space must be odd and >= 3")
        if not self.dtheta > 0.0:
            raise SolverError("dtheta must be positive")
        if not self.refine_tol > 0.0:
            raise SolverError("refine_tol must be positive")
        if self.max_refines < 1:
            raise SolverError("max_refines must be >= 1")


# ---------------------------------------------------------------------------
# Model adapters: reaction coefficient, diffusivity ratio and solid rates
# ---------------------------------------------------------------------------


class _FdModel:
    def __init__(self, params: ModelParams):
        self.p = params

    def initial(self, n: int) -> dict:
        raise NotImplementedError

    def reaction_coefficient(self, st: dict) -> np.ndarray:
        raise NotImplementedError

    def delta(self, st: dict):
        return None

    def rates(self, st: dict, a: np.ndarray) -> dict:
        raise NotImplementedError

    def apply(self, st: dict, *rated: tuple[dict, float]) -> dict:
        """New state from weighted rate contributions (w1*r1 + w2*r2) * dtheta."""
        raise NotImplementedError

    def unreacted_integrand(self, st: dict) -> np.ndarray:
        raise NotImplementedError

    def consumption_norm(self) -> float:
        """Factor turning the integrated gas uptake into dX/dtheta."""
        raise NotImplementedError


class _FdVolumeFirst(_FdModel):
    def initial(self, n):
        return {"b": np.ones(n)}

    def reaction_coefficient(self, st):
        return self.p.thiele**2 * st["b"]

    def rates(self, st, a):
        return {"b": -a * st["b"]}

    def apply(self, st, *rated):
        db = sum(w * r["b"] for r, w in rated)
        return {"b": np.maximum(st["b"] + db, _B_MIN)}

    def unreacted_integrand(self, st):
        return st["b"]

    def consumption_norm(self):
        return self.p.pellet.shape_factor / self.p.thiele**2


class _FdVolumeHalf(_FdModel):
    def initial(self, n):
        return {"s": np.ones(n)}  # s = sqrt(b)

    def reaction_coefficient(self, st):
        return self.p.thiele**2 * st["s"] * (st["s"] > _R_FLOOR)

    def rates(self, st, a):
        return {"s": -0.5 * a * (st["s"] > _R_FLOOR)}

    def apply(self, st, *rated):
        ds = sum(w * r["s"] for r, w in rated)
        return {"s": np.maximum(st["s"] + ds, 0.0)}

    def unreacted_integrand(self, st):
        return st["s"] ** 2

    def consumption_norm(self):
        return self.p.pellet.shape_factor / self.p.thiele**2


class _FdGrainSimple(_FdModel):
    def initial(self, n):
        return {"r": np.ones(n)}

    def reaction_coefficient(self, st):
        fg = self.p.grain.shape_factor
        return self.p.thiele**2 * st["r"] ** (fg - 1) * (st["r"] > _R_FLOOR)

    def rates(self, st, a):
        return {"r": -a * (st["r"] > _R_FLOOR)}

    def apply(self, st, *rated):
        dr = sum(w * r["r"] for r, w in rated)
        return {"r": np.maximum(st["r"] + dr, 0.0)}

    def unreacted_integrand(self, st):
        return st["r"] ** self.p.grain.shape_factor

    def consumption_norm(self):
        return self.p.pellet.shape_factor * self.p.grain.shape_factor / self.p.thiele**2


class _FdGrainProductLayer(_FdGrainSimple):
    def _resistance(self, r):
        return 1.0 + 6.0 * self.p.sigma_g_sq * (r - r * r)

    def reaction_coefficient(self, st):
        r = st["r"]
        return self.p.thiele**2 * r * r / self._resistance(r) * (r > _R_FLOOR)

    def rates(self, st, a):
        return {"r": -a / self._resistance(st["r"]) * (st["r"] > _R_FLOOR)}

    def consumption_norm(self):
        return 3.0 * self.p.pellet.shape_factor / self.p.thiele**2


class _FdGrainModified(_FdGrainProductLayer):
    def _resistance(self, r):
        zv = self.p.z_ratio
        outer = np.cbrt(zv + (1.0 - zv) * r**3)
        return 1.0 + 6.0 * self.p.sigma_g_sq * (r - r * r / outer)

    def delta(self, st):
        p = self.p
        bracket = 1.0 - (1.0 - p.porosity0) / p.porosity0 * (p.z_ratio - 1.0) * (1.0 - st["r"] ** 3)
        return np.maximum(bracket, 0.0) ** 2

    def rates(self, st, a):
        alive = (st["r"] > _R_FLOOR) & (self.delta(st) > 0.0)
        return {"r": -a / self._resistance(st["r"]) * alive}

    def reaction_coefficient(self, st):
        r = st["r"]
        alive = (r > _R_FLOOR) & (self.delta(st) > 0.0)
        return self.p.thiele**2 * r * r / self._resistance(r) * alive


class _FdRandomPore(_FdModel):
    def initial(self, n):
        return {"w": np.zeros(n)}  # w = -ln b

    def _pieces(self, w):
        u = np.sqrt(1.0 + self.p.psi_cap * w)
        resist = 1.0 + self.p.beta * self.p.z_ratio * w / (1.0 + u)
        return u, resist

    def delta(self, st):
        p = self.p
        b = np.exp(-st["w"])
        bracket = 1.0 - (p.z_ratio - 1.0) * (1.0 - p.porosity0) * (1.0 - b) / p.porosity0
        return np.maximum(bracket, 0.0) ** 2

    def reaction_coefficient(self, st):
        u, resist = self._pieces(st["w"])
        rho = self.p.thiele**2 * np.exp(-st["w"]) * u / resist
        return rho * (self.delta(st) > 0.0)

    def rates(self, st, a):
        u, resist = self._pieces(st["w"])
        return {"w": a * u / resist * (self.delta(st) > 0.0)}

    def apply(self, st, *rated):
        dw = sum(w * r["w"] for r, w in rated)
        return {"w": np.minimum(st["w"] + dw, LN_B_CAP)}

    def unreacted_integrand(self, st):
        return np.exp(-st["w"])

    def consumption_norm(self):
        return self.p.pellet.shape_factor / self.p.thiele**2


class _FdNucleation(_FdModel):
    def initial(self, n):
        return {"u": np.zeros(n)}  # u = (-ln b)^(1/n), the transformed solid

    def _b(self, u):
        return np.exp(-np.minimum(u**self.p.solid_order, LN_B_CAP))

    def reaction_coefficient(self, st):
        n = self.p.solid_order
        u = st["u"]
        gain = n * self._b(u) * (u ** (n - 1.0) if n != 1.0 else 1.0)
        return 2.0 * self.p.pellet.shape_factor * self.p.thiele**2 * gain

    def rates(self, st, a):
        return {"u": np.asarray(a, dtype=float)}

    def apply(self, st, *rated):
        du = sum(w * r["u"] for r, w in rated)
        return {"u": np.maximum(st["u"] + du, 0.0)}

    def unreacted_integrand(self, st):
        return self._b(st["u"])

    def consumption_norm(self):
        return 1.0 / (2.0 * self.p.thiele**2)


_FD_MODELS = {
    ModelKind.VOLUME_FIRST_ORDER: _FdVolumeFirst,
    ModelKind.VOLUME_HALF_ORDER: _FdVolumeHalf,
    ModelKind.GRAIN_SIMPLE: _FdGrainSimple,
    ModelKind.GRAIN_PRODUCT_LAYER: _FdGrainProductLayer,
    ModelKind.GRAIN_MODIFIED: _FdGrainModified,
    ModelKind.RANDOM_PORE: _FdRandomPore,
    ModelKind.NUCLEATION: _FdNucleation,
}


# ---------------------------------------------------------------------------
# Conservative gas solves
# ---------------------------------------------------------------------------


def solve_banded(bands: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system packed as a ``(4, n)`` float64 array.

    The rows are the sub-diagonal, the main diagonal, the super-diagonal
    and the right-hand side; the off-diagonals use their first n-1 entries.
    LAPACK ``gtsv`` works in place, so ``bands`` is consumed and the
    solution returned is a view of its last row.
    """
    if not np.isfinite(bands).all():
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = dgtsv(bands[0, :-1], bands[1], bands[2, :-1], bands[3], 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _stencil(cond: np.ndarray) -> np.ndarray:
    """Bands of the conservative flux operator -div(cond grad a), zero rhs.

    Row i holds the fluxes through the faces of cell i; the last row keeps
    only the flux through its inner face, for the caller's surface condition.
    """
    bands = np.zeros((4, cond.size + 1))
    dl, d, du, _ = bands
    dl[:-1] = du[:-1] = -cond
    d[:-1] = cond
    d[1:] += cond
    return bands


class _GasGrid:
    """Finite-volume metadata on the uniform pellet grid."""

    def __init__(self, n: int, shape_factor: int):
        self.n = n
        self.fp = shape_factor
        self.y = np.linspace(0.0, 1.0, n)
        self.h = 1.0 / (n - 1)
        faces = self.y[:-1] + 0.5 * self.h
        self.face_w = faces ** (shape_factor - 1)
        left = np.maximum(self.y - 0.5 * self.h, 0.0)
        right = np.minimum(self.y + 0.5 * self.h, 1.0)
        if shape_factor == 1:
            self.vol = right - left
        else:
            self.vol = (right**3 - left**3) / 3.0
        # conductances and bands without a structure factor (delta is None)
        self.cond = self.face_w / self.h
        self.bands = _stencil(self.cond)
        self.cond.flags.writeable = False
        self.bands.flags.writeable = False

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Simpson weights of the conversion quadrature F_p * int y^(F_p-1) f dy."""
        w = simpson_weights(self.n) * self.fp * self.y ** (self.fp - 1)
        w.flags.writeable = False
        return w

    def conductance(self, delta):
        if delta is None:
            return self.cond
        dface = 0.5 * (delta[:-1] + delta[1:])
        return dface * self.face_w / self.h

    def operator_bands(self, cond: np.ndarray, rv: np.ndarray) -> np.ndarray:
        """Fresh bands of -div(cond grad a) + rho a; ``rv`` is ``rho * vol``."""
        bands = self.bands.copy() if cond is self.cond else _stencil(cond)
        bands[1] += rv
        return bands


def _dirichlet_surface(bands: np.ndarray) -> None:
    """Replace the last row by a = 1 at the surface."""
    bands[0, -2] = 0.0
    bands[1, -1] = bands[3, -1] = 1.0


def _solve_gas_qss(gg: _GasGrid, rho: np.ndarray, delta, sherwood: float | None):
    """Quasi-steady gas profile: conservative FV + tridiagonal solve."""
    cond = gg.conductance(delta)
    bands = gg.operator_bands(cond, rho * gg.vol)
    if sherwood is None:
        _dirichlet_surface(bands)
    else:
        # boundary flux delta * da/dy = sh (1 - a) enters the last half cell
        bands[1, -1] += sherwood
        bands[3, -1] = sherwood
    return solve_banded(bands), cond


def _gas_balance(gg: _GasGrid, a: np.ndarray, rho: np.ndarray, cond: np.ndarray,
                 sherwood: float | None):
    """(discrete surface uptake, domain-integrated reaction) - equal by construction."""
    consumption = float(np.sum(rho * gg.vol * a))
    if sherwood is None:
        flux = float(cond[-1] * (a[-1] - a[-2]) + rho[-1] * gg.vol[-1] * a[-1])
    else:
        flux = float(sherwood * (1.0 - a[-1]))
    return flux, consumption


def fd_solve(params: ModelParams, theta_end: float, ctl: FdControl = FdControl(),
             samples: int = 201) -> RunResult:
    """Reference solution of a single-pellet model, sampled like a QM run.

    In quasi-steady mode each step solves the gas two-point BVP with the
    lagged solid and advances the solid by the trapezoidal rule; unsteady
    mode integrates the gas equation with Crank-Nicolson.  With
    ``auto_refine`` the time step is halved until the sampled conversions
    change by less than ``refine_tol``.
    """
    if params.kind is ModelKind.SIMULTANEOUS:
        return _fd_solve_simultaneous(params, theta_end, ctl, samples)
    if params.kind not in _FD_MODELS:
        raise SolverError(f"no reference model for kind '{params.kind.value}'")
    schedule = sample_schedule(theta_end, samples)
    return _refined(
        lambda dtheta: _fd_march(params, schedule, ctl, dtheta), ctl,
        "reference solver did not converge under time refinement (last drift {drift:.3e})",
    )


def _refined(march, ctl: FdControl, failure: str) -> RunResult:
    """``march(ctl.dtheta)``; with ``auto_refine``, halve dtheta until converged.

    Each level restarts the march with half the step.  The sampled
    conversions (X, and X_a for two gases) must move by less than
    ``refine_tol`` within ``max_refines`` levels, else ``failure``
    (formatted with the last ``drift``) is raised.
    """
    result = march(ctl.dtheta)
    if not ctl.auto_refine:
        return result
    dtheta = ctl.dtheta
    for _ in range(ctl.max_refines):
        dtheta /= 2.0
        finer = march(dtheta)
        drift = max(float(np.max(np.abs(f - c)))
                    for f, c in ((finer.x, result.x), (finer.x_a, result.x_a)) if c is not None)
        result = finer
        if drift < ctl.refine_tol:
            return result
    raise SolverError(failure.format(drift=drift))


def _fd_march(params: ModelParams, schedule: np.ndarray, ctl: FdControl,
              dtheta: float) -> RunResult:
    model = _FD_MODELS[params.kind](params)
    gg = _GasGrid(ctl.n_space, params.pellet.shape_factor)
    st = model.initial(gg.n)
    sw = gg.weights

    def x_of(state) -> float:
        return float(min(max(1.0 - np.sum(sw * model.unreacted_integrand(state)), 0.0), 1.0))

    unsteady = not params.quasi_steady
    accum = params.psi * params.thiele**2
    if unsteady and params.sherwood is not None:
        raise SolverError("unsteady reference runs support Dirichlet surfaces only")

    a = np.zeros(gg.n)
    if unsteady:
        a[-1] = 1.0
    xs = [x_of(st)]
    max_flux_residual = 0.0
    uptake_integral = 0.0
    pending: tuple[float, float] | None = None  # (uptake at substep start, dt)

    for t0, t1 in zip(schedule[:-1], schedule[1:]):
        nsub = max(1, int(math.ceil((t1 - t0) / dtheta - 1e-12)))
        dt = (t1 - t0) / nsub
        for _ in range(nsub):
            rho = model.reaction_coefficient(st)
            delta = model.delta(st)
            if not unsteady:
                a, cond = _solve_gas_qss(gg, rho, delta, params.sherwood)
            else:
                a, cond = _advance_gas_cn(gg, a, rho, delta, accum, dt)
            flux, consumption = _gas_balance(gg, a, rho, cond, params.sherwood)
            max_flux_residual = max(
                max_flux_residual, abs(flux - consumption) / max(1.0, abs(flux))
            )
            uptake = flux * model.consumption_norm()
            if pending is not None:
                uptake_integral += 0.5 * pending[1] * (pending[0] + uptake)
            pending = (uptake, dt)
            k1 = model.rates(st, a)
            pred = model.apply(st, (k1, dt))
            rho2 = model.reaction_coefficient(pred)
            delta2 = model.delta(pred)
            if not unsteady:
                a2, _ = _solve_gas_qss(gg, rho2, delta2, params.sherwood)
            else:
                a2 = a
            k2 = model.rates(pred, a2)
            st = model.apply(st, (k1, 0.5 * dt), (k2, 0.5 * dt))
        xs.append(x_of(st))

    # close the trapezoid with the uptake of the final state
    rho = model.reaction_coefficient(st)
    if not unsteady:
        a_end, cond = _solve_gas_qss(gg, rho, model.delta(st), params.sherwood)
    else:
        a_end, cond = a, gg.conductance(model.delta(st))
    flux, _ = _gas_balance(gg, a_end, rho, cond, params.sherwood)
    if pending is not None:
        uptake_integral += 0.5 * pending[1] * (pending[0] + flux * model.consumption_norm())

    xs = np.asarray(xs)
    balance_residual = abs(uptake_integral - (xs[-1] - xs[0]))
    return RunResult(
        kind=params.kind,
        theta=schedule.copy(),
        x=xs,
        label="fd",
        diagnostics={
            "max_flux_residual": max_flux_residual,
            "balance_residual": balance_residual,
            "dtheta": dtheta,
        },
    )


def _advance_gas_cn(gg: _GasGrid, a_old: np.ndarray, rho: np.ndarray, delta,
                    accum: float, dt: float):
    """One Crank-Nicolson step of the unsteady gas equation (Dirichlet surface)."""
    cond = gg.conductance(delta)
    cap = accum * gg.vol / dt
    rv = rho * gg.vol
    # explicit part: the operator div(cond grad a) - rho a applied to a_old
    explicit = np.empty(gg.n)
    flux = cond * (a_old[1:] - a_old[:-1])
    explicit[0] = flux[0] - rv[0] * a_old[0]
    explicit[1:-1] = flux[1:] - flux[:-1] - rv[1:-1] * a_old[1:-1]
    explicit[-1] = 0.0
    bands = gg.operator_bands(cond, rv)
    bands[:3] *= 0.5
    bands[1] += cap
    bands[3] = cap * a_old + 0.5 * explicit
    _dirichlet_surface(bands)
    return solve_banded(bands), cond


def _fd_solve_simultaneous(params: ModelParams, theta_end: float, ctl: FdControl,
                           samples: int) -> RunResult:
    """Reference run for the two-gas model (quasi-steady, first order)."""
    schedule = sample_schedule(theta_end, samples)

    def march(dtheta: float) -> RunResult:
        gg = _GasGrid(ctl.n_space, params.pellet.shape_factor)
        sw = gg.weights
        b = np.ones(gg.n)
        b_a = np.ones(gg.n)
        two_fp = 2.0 * params.pellet.shape_factor

        def profiles(bb):
            rho_a = two_fp * params.thiele_a**2 * bb
            rho_c = two_fp * params.thiele_c**2 * bb
            pa, _ = _solve_gas_qss(gg, rho_a, None, None)
            pc, _ = _solve_gas_qss(gg, rho_c, None, None)
            return params.psi_ab * pa, params.psi_cb * pc

        xs = [0.0]
        x_as = [0.0]
        for t0, t1 in zip(schedule[:-1], schedule[1:]):
            nsub = max(1, int(math.ceil((t1 - t0) / dtheta - 1e-12)))
            dt = (t1 - t0) / nsub
            for _ in range(nsub):
                pa, pc = profiles(b)
                k1b = -(pa + pc) * b
                k1a = -pa * b
                b_pred = np.maximum(b + dt * k1b, _B_MIN)
                pa2, pc2 = profiles(b_pred)
                k2b = -(pa2 + pc2) * b_pred
                k2a = -pa2 * b_pred
                b = np.maximum(b + 0.5 * dt * (k1b + k2b), _B_MIN)
                b_a = np.maximum(b_a + 0.5 * dt * (k1a + k2a), 0.0)
            xs.append(float(min(max(1.0 - np.sum(sw * b), 0.0), 1.0)))
            x_as.append(float(min(max(1.0 - np.sum(sw * b_a), 0.0), 1.0)))
        return RunResult(kind=params.kind, theta=schedule, x=np.asarray(xs),
                         x_a=np.asarray(x_as), label="fd")

    return _refined(march, ctl, "two-gas reference run did not converge under refinement")


def initial_conversion_rate(params: ModelParams, ctl: FdControl = FdControl()) -> float:
    """dX/dtheta at theta = 0 from the initial gas solve (oracle self-check)."""
    if params.kind not in _FD_MODELS:
        raise SolverError(f"no reference model for kind '{params.kind.value}'")
    model = _FD_MODELS[params.kind](params)
    gg = _GasGrid(ctl.n_space, params.pellet.shape_factor)
    st = model.initial(gg.n)
    rho = model.reaction_coefficient(st)
    a, cond = _solve_gas_qss(gg, rho, model.delta(st), params.sherwood)
    flux, _ = _gas_balance(gg, a, rho, cond, params.sherwood)
    return flux * model.consumption_norm()


# ---------------------------------------------------------------------------
# Packed-bed bulk balance (independent verification of the closed form)
# ---------------------------------------------------------------------------


def fd_solve_bed_bulk(peclet: float, beta: float, bed_length: float,
                      a_surface: np.ndarray) -> np.ndarray:
    """Direct BVP solve of Y'' - Pe Y' = beta (Y - a_surface(eta)).

    Danckwerts inlet 1 = Y - Y'/Pe at eta = 0 and zero gradient at the
    outlet, discretized with central differences and ghost nodes, solved
    as one tridiagonal system.  ``a_surface`` supplies the pellet-surface
    concentration per axial node of a uniform grid on [0, bed_length].
    """
    if peclet <= 0.0 or beta < 0.0 or bed_length <= 0.0:
        raise SolverError("need Pe > 0, beta >= 0 and a positive bed length")
    s = np.asarray(a_surface, dtype=float)
    n = s.size
    if n < 3:
        raise SolverError("need at least 3 axial nodes")
    h = bed_length / (n - 1)
    bands = np.zeros((4, n))
    dl, d, du, rhs = bands  # dl[i] = A[i+1, i], du[i] = A[i, i+1]
    # interior: (Y[i-1] - 2 Y[i] + Y[i+1])/h^2 - Pe (Y[i+1]-Y[i-1])/(2h) - beta Y[i]
    dl[:-2] = 1.0 / h**2 + peclet / (2.0 * h)
    d[1:-1] = -2.0 / h**2 - beta
    du[1:-1] = 1.0 / h**2 - peclet / (2.0 * h)
    rhs[:] = -beta * s
    # inlet: ghost node from Y'(0) = Pe (Y0 - 1) folded into the PDE row
    d[0] = -2.0 / h**2 - 2.0 * peclet / h - peclet**2 - beta
    du[0] = 2.0 / h**2
    rhs[0] = -beta * s[0] - 2.0 * peclet / h - peclet**2
    # outlet: ghost node from Y'(L) = 0
    dl[-2] = 2.0 / h**2
    d[-1] = -2.0 / h**2 - beta
    return solve_banded(bands)
