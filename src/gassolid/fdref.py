"""Finite-difference reference solver for the coupled gas-solid equations.

This integrates the original model PDEs directly (no per-step freezing of
the solid) and exists to verify the incremental analytical solvers and to
generate pinned fixtures.  It deliberately shares no profile code with
:mod:`gassolid.kernels`: the gas balance is discretized conservatively in
finite-volume form and solved as a tridiagonal system, and the solid is
advanced with the trapezoidal rule.

Each solid law is an ``_FdModel`` whose state is one array per node: the
solid or a transform of it (sqrt(b), the grain radius, -ln b).  A model
gives the fresh state ``start``, the bounds ``lo`` and ``hi`` every new
state is clamped to, and ``terms``: the reaction coefficient and the
structure factor of the gas balance (None where diffusion does not
change), and the factor k of the rate, since every law moves its state at
k times the local gas.  The product-layer grain model is the modified
grain law at Z_v = 1, where its structure factor is None.  ``_fd_march``
calls ``terms`` once for the state and once for the Heun predictor, and
forms the predictor and the trapezoid itself, in place in buffers it
allocates once per march, so one march serves every single-gas law; the
two-gas model has its own.  It calls the gas solves by their module
names, so a tracer that rebinds them sees every call.  With gas
accumulation the gas and the solid advance together, second order in the
step: the predictor takes the rates under the gas at the step start, one
Crank-Nicolson step from that gas under the reaction and structure
averaged over the state and the predictor gives the end-of-step gas, and
the corrector's rates take the predictor under it.  That step is an
implicit half step to its mean gas m, (2C + L) m = 2C a_old with C the
capacity and L the operator, and a_new = 2m - a_old (Crank and Nicolson,
1947), so the operator is never applied explicitly.  A cell whose pores
closed on both faces and that no longer reacts has a zero row in the
quasi-steady system and is given a = 0.  At each sample end a law with a
structure factor looks for cells whose pores closed (delta = 0) around
unreacted solid, and the run reports them in ``run_qm``'s words.  With
``FdControl.auto_refine`` the step (4e-3 by default) is halved until the
sampled conversions move by less than ``_REFINE_TOL``, at most
``_MAX_REFINES`` times.

Every tridiagonal system here (quasi-steady gas, Crank-Nicolson gas and the
bed's bulk BVP) goes through :func:`solve_banded`, a direct call of LAPACK
``gtsv``, the routine ``scipy.linalg.solve_banded`` calls for one band on
each side, so the solutions are bit-identical to it; scipy's two checks
stay (inf or NaN raises ``ValueError``, a zero pivot ``LinAlgError``).
LAPACK is bound on the first solve, not with the module, so runs that never
use the oracle (QM and bed runs) never load scipy; see :func:`_load_dgtsv`.
Each :class:`_GasGrid` builds the face conductances and the bands of the
flux operator without a structure factor once, read-only; conversions use
``analysis.converted``.  The caller forms the reaction term ``rho * vol``
once per gas solve and passes it to the solve, which copies the bands and
adds it (with twice the capacity for Crank-Nicolson), and to the balance
``_gas_balance``; ``_qss_uptake`` does all three for a quasi-steady state.

The moving-boundary second stage needs no special casing here: clamping
the solid at zero and keeping the reaction indicator reproduces the
receding-front behavior on its own.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from .analysis import converted
from .core import B_MIN, LN_B_CAP, SOLID_FLOOR, ModelKind, ModelParams, SolverError
from .driver import PORES_CLOSED, RunResult, sample_schedule, sample_warning, split_interval

_R_FLOOR = 1e-12
_dgtsv = None  # LAPACK dgtsv, bound by the first solve_banded call
_REFINE_TOL = 1e-5  # auto_refine stops once the sampled conversions move less than this
_MAX_REFINES = 6  # halvings of dtheta before auto_refine gives up


@dataclass(frozen=True)
class FdControl:
    n_space: int = 401
    dtheta: float = 4e-3
    auto_refine: bool = True

    def __post_init__(self):
        if self.n_space < 3 or self.n_space % 2 == 0:
            raise SolverError("n_space must be odd and >= 3")
        if not self.dtheta > 0.0:
            raise SolverError("dtheta must be positive")


# ---------------------------------------------------------------------------
# Model adapters: reaction coefficient, diffusivity ratio and solid rates
# ---------------------------------------------------------------------------


class _FdModel:
    """One solid law; its state is one array of the transformed solid per node."""

    start = 1.0  # the state of the unreacted solid
    lo, hi = 0.0, np.inf  # every new state is clamped to [lo, hi]

    def __init__(self, params: ModelParams):
        self.p = params
        self.phi2 = params.thiele**2
        # at phi = 0 there is no flux and no norm: ``uptake`` takes the
        # consumption of this law at unit modulus, built once here
        self.unit = self if params.thiele > 0.0 else type(self)(replace(params, thiele=1.0))
        self.norm = self.unit.consumption_norm()

    def terms(self, st: np.ndarray):
        """(reaction coefficient rho, structure factor delta or None, k) of the
        state: rho and delta enter the gas balance, and under a gas profile a
        the state moves at d(state)/dtheta = k * a (k per node, or a scalar)."""
        raise NotImplementedError

    def unreacted_integrand(self, st: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def consumption_norm(self) -> float:
        """Factor turning the integrated gas uptake into dX/dtheta."""
        return self.p.pellet.shape_factor / self.phi2

    def uptake(self, flux: float, st: np.ndarray, a: np.ndarray, gg: _GasGrid) -> float:
        """dX/dtheta: the surface flux times ``norm``.  Both flux and
        consumption scale with phi^2, so at phi = 0 (no flux, no norm) it is
        the consumption of the same state and gas at unit modulus."""
        if self.unit is self:
            return flux * self.norm
        return float(np.sum(self.unit.terms(st)[0] * gg.vol * a)) * self.norm


class _FdVolumeFirst(_FdModel):
    lo = B_MIN  # state: b

    def terms(self, b):
        return self.phi2 * b, None, -b

    def unreacted_integrand(self, b):
        return b


class _FdVolumeHalf(_FdModel):
    # state: s = sqrt(b)
    def terms(self, s):
        live = (s > _R_FLOOR).astype(float)
        return self.phi2 * s * live, None, -0.5 * live

    def unreacted_integrand(self, s):
        return s**2


class _FdGrainSimple(_FdModel):
    # state: r, the grain core radius
    def terms(self, r):
        live = (r > _R_FLOOR).astype(float)
        fg = self.p.grain.shape_factor
        core = r if fg == 2 else r ** (fg - 1)  # r ** 1 is r, without numpy's generic power
        return self.phi2 * core * live, None, -live

    def unreacted_integrand(self, r):
        return r**self.p.grain.shape_factor

    def consumption_norm(self):
        return self.p.pellet.shape_factor * self.p.grain.shape_factor / self.phi2


class _FdGrainModified(_FdGrainSimple):
    """Grain model with a product layer and changing grain size."""

    def __init__(self, params: ModelParams):
        super().__init__(params)
        self._swells = abs(params.z_ratio - 1.0) >= 1e-12

    def _structure(self, r):
        """(grain resistance, delta, reacting nodes); at Z_v = 1 outer radius 1, delta None."""
        p = self.p
        shell, delta, alive = r * r, None, r > _R_FLOOR
        if self._swells:
            shell /= np.cbrt(p.z_ratio + (1.0 - p.z_ratio) * r**3)  # over the outer radius
            bracket = 1.0 - (1.0 - p.porosity0) / p.porosity0 * (p.z_ratio - 1.0) * (1.0 - r**3)
            delta = np.maximum(bracket, 0.0) ** 2
            alive &= delta > 0.0
        return 1.0 + 6.0 * p.sigma_g_sq * (r - shell), delta, alive

    def terms(self, r):
        resistance, delta, alive = self._structure(r)
        alive = alive.astype(float)
        return self.phi2 * r * r / resistance * alive, delta, -alive / resistance


class _FdRandomPore(_FdModel):
    start = 0.0  # state: w = -ln b
    lo, hi = -np.inf, LN_B_CAP

    def terms(self, w):
        p = self.p
        b = np.exp(-w)
        u = np.sqrt(1.0 + p.psi_cap * w)
        resist = 1.0 + p.beta * p.z_ratio * w / (1.0 + u)
        bracket = 1.0 - (p.z_ratio - 1.0) * (1.0 - p.porosity0) * (1.0 - b) / p.porosity0
        delta = np.maximum(bracket, 0.0) ** 2
        open_ = (delta > 0.0).astype(float)
        return self.phi2 * b * u / resist * open_, delta, u / resist * open_

    def unreacted_integrand(self, w):
        return np.exp(-w)


class _FdNucleation(_FdModel):
    start = 0.0  # state: u = (-ln b)^(1/n), the transformed solid

    def _b(self, u):
        return np.exp(-np.minimum(u**self.p.solid_order, LN_B_CAP))

    def terms(self, u):
        n = self.p.solid_order
        gain = n * self._b(u) * (u ** (n - 1.0) if n != 1.0 else 1.0)
        return 2.0 * self.p.pellet.shape_factor * self.phi2 * gain, None, 1.0

    def unreacted_integrand(self, u):
        return self._b(u)

    def consumption_norm(self):
        return 1.0 / (2.0 * self.phi2)


_FD_MODELS = {
    ModelKind.VOLUME_FIRST_ORDER: _FdVolumeFirst,
    ModelKind.VOLUME_HALF_ORDER: _FdVolumeHalf,
    ModelKind.GRAIN_SIMPLE: _FdGrainSimple,
    ModelKind.GRAIN_PRODUCT_LAYER: _FdGrainModified,
    ModelKind.GRAIN_MODIFIED: _FdGrainModified,
    ModelKind.RANDOM_PORE: _FdRandomPore,
    ModelKind.NUCLEATION: _FdNucleation,
}


# ---------------------------------------------------------------------------
# Conservative gas solves
# ---------------------------------------------------------------------------


def _load_dgtsv():
    """LAPACK ``dgtsv`` from scipy's f2py module ``scipy.linalg._flapack``.

    The module is loaded straight from its file, so the package init of
    ``scipy.linalg``, most of a fresh FD run's start-up, never runs.  The
    extension enters itself in ``sys.modules``, where a later ``import
    scipy.linalg`` finds it, and a module already there is reused.  The
    file's place is private to scipy, so if anything about loading it
    fails, the public import binds dgtsv.
    """
    name = "scipy.linalg._flapack"
    try:
        flapack = sys.modules.get(name)
        if flapack is None:
            import scipy

            folder = Path(scipy.__file__).parent / "linalg"
            path = next(p for s in EXTENSION_SUFFIXES if (p := folder / f"_flapack{s}").is_file())
            spec = importlib.util.spec_from_file_location(name, path)
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
        return flapack.dgtsv
    except Exception:  # whatever changed in scipy's private layout, the public path holds
        from scipy.linalg.lapack import dgtsv
        return dgtsv


def solve_banded(bands: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system packed as a ``(4, n)`` float64 array.

    The rows are the sub-diagonal, the main diagonal, the super-diagonal
    and the right-hand side; the off-diagonals use their first n-1 entries.
    LAPACK ``gtsv`` works in place, so ``bands`` is consumed and the
    solution returned is a view of its last row.
    """
    global _dgtsv
    flat = bands.ravel()  # a finite sum of squares proves every entry finite; past
    # about 1e154 it overflows (numpy warns), and only then is each entry checked
    if not math.isfinite(np.dot(flat, flat)) and not np.isfinite(bands).all():
        raise ValueError("array must not contain infs or NaNs")
    if _dgtsv is None:
        _dgtsv = _load_dgtsv()
    *_, x, info = _dgtsv(bands[0, :-1], bands[1], bands[2, :-1], bands[3], 1, 1, 1, 1)
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
        y = np.linspace(0.0, 1.0, n)
        self.h = 1.0 / (n - 1)
        faces = y[:-1] + 0.5 * self.h
        self.face_w = faces ** (shape_factor - 1)
        left = np.maximum(y - 0.5 * self.h, 0.0)
        right = np.minimum(y + 0.5 * self.h, 1.0)
        if shape_factor == 1:
            self.vol = right - left
        else:
            self.vol = (right**3 - left**3) / 3.0
        # conductances and bands without a structure factor (delta is None)
        self.cond = self.face_w / self.h
        self.bands = _stencil(self.cond)
        self.cond.flags.writeable = False
        self.bands.flags.writeable = False

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


def _solve_gas_qss(gg: _GasGrid, rv: np.ndarray, delta, sherwood: float | None):
    """Quasi-steady gas profile: conservative FV + tridiagonal solve; ``rv`` is ``rho * vol``."""
    cond = gg.conductance(delta)
    bands = gg.operator_bands(cond, rv)
    if sherwood is None:
        _dirichlet_surface(bands)
    else:
        # boundary flux delta * da/dy = sh (1 - a) enters the last half cell
        bands[1, -1] += sherwood
        bands[3, -1] = sherwood
    if delta is not None:
        # a cell whose pores closed on both faces and that no longer reacts
        # has a zero row; it holds no gas (a = 0).  Only delta closes faces.
        diag = bands[1]
        diag[diag == 0.0] = 1.0
    return solve_banded(bands), cond


def _gas_balance(a: np.ndarray, rv: np.ndarray, cond: np.ndarray, sherwood: float | None):
    """(discrete surface uptake, domain-integrated reaction) - equal by construction."""
    consumption = float(np.dot(rv, a))
    if sherwood is None:
        flux = float(cond[-1] * (a[-1] - a[-2]) + rv[-1] * a[-1])
    else:
        flux = float(sherwood * (1.0 - a[-1]))
    return flux, consumption


def _flux_residual(flux: float, consumption: float) -> float:
    """Gap between a gas solve's surface uptake and its consumption, relative above 1."""
    return abs(flux - consumption) / max(1.0, abs(flux))


def _qss_uptake(model: _FdModel, gg: _GasGrid, st: np.ndarray, rho: np.ndarray, delta):
    """(gas, flux residual, dX/dtheta) of the state, whose terms are rho and
    delta, under its quasi-steady gas."""
    rv = rho * gg.vol
    a, cond = _solve_gas_qss(gg, rv, delta, model.p.sherwood)
    flux, consumption = _gas_balance(a, rv, cond, model.p.sherwood)
    return a, _flux_residual(flux, consumption), model.uptake(flux, st, a, gg)


def fd_solve(params: ModelParams, theta_end: float, ctl: FdControl = FdControl(),
             samples: int = 201) -> RunResult:
    """Reference solution of a single-pellet model, sampled like a QM run.

    In quasi-steady mode each step solves the gas two-point BVP for the
    state and for the Heun predictor and advances the solid by the
    trapezoid of the two rates.  In unsteady mode the gas takes one
    Crank-Nicolson step per time step, under the reaction averaged over the
    state and the predictor, and the corrector uses the end-of-step gas, so
    the coupled march is second order in dtheta too.  The diagnostics hold
    the largest flux residual (surface flux against consumption, plus gas
    storage in unsteady mode) and the gap between the time-integrated
    uptake and X.  With ``auto_refine`` the time step is halved until the
    sampled conversions change by less than ``_REFINE_TOL``.
    """
    if params.kind is ModelKind.SIMULTANEOUS:
        return _fd_solve_simultaneous(params, theta_end, ctl, samples)
    schedule = sample_schedule(theta_end, samples)
    return _refined(
        lambda dtheta: _fd_march(params, schedule, ctl, dtheta), ctl,
        "reference solver did not converge under time refinement (last drift {drift:.3e})",
    )


def _refined(march, ctl: FdControl, failure: str) -> RunResult:
    """``march(ctl.dtheta)``; with ``auto_refine``, halve dtheta until converged.

    Each level restarts the march with half the step.  The sampled
    conversions (X, and X_a for two gases) must move by less than
    ``_REFINE_TOL`` within ``_MAX_REFINES`` levels, else ``failure``
    (formatted with the last ``drift``) is raised.  The result's
    diagnostics get ``levels``, the number of marches run.
    """
    result = march(ctl.dtheta)
    levels = 1
    if ctl.auto_refine:
        dtheta = ctl.dtheta
        for levels in range(2, _MAX_REFINES + 2):
            dtheta /= 2.0
            finer = march(dtheta)
            drift = max(float(np.max(np.abs(f - c))) for f, c in
                        ((finer.x, result.x), (finer.x_a, result.x_a)) if c is not None)
            result = finer
            if drift < _REFINE_TOL:
                break
        else:
            raise SolverError(failure.format(drift=drift))
    result.diagnostics["levels"] = levels
    return result


def _fd_march(params: ModelParams, schedule: np.ndarray, ctl: FdControl,
              dtheta: float) -> RunResult:
    model = _FD_MODELS[params.kind](params)
    gg = _GasGrid(ctl.n_space, params.pellet.shape_factor)
    st = np.full(gg.n, model.start)
    lo, hi = model.lo, model.hi

    def x_of(state) -> float:
        return converted(model.unreacted_integrand(state), params.pellet.shape_factor)

    def clamp(state):
        # an infinite bound clamps nothing, so it is skipped
        if lo > -np.inf:
            np.maximum(state, lo, out=state)
        if hi < np.inf:
            np.minimum(state, hi, out=state)

    unsteady = not params.quasi_steady
    accum = params.psi * model.phi2
    if unsteady and not accum > 0.0:
        raise SolverError("psi_phi_sq must be positive in unsteady mode")

    a = np.zeros(gg.n)
    if unsteady:
        a[-1] = 1.0
    xs = [x_of(st)]
    structured = model.terms(st)[1] is not None  # only a structure factor closes pores
    plugged = []  # the sample ends at which pores closed around unreacted solid
    max_flux_residual = 0.0
    uptake_integral = 0.0
    pending: tuple[float, float] | None = None  # (uptake at substep start, dt)
    k1, k2, pred = np.empty(gg.n), np.empty(gg.n), np.empty(gg.n)  # per-step buffers

    for t0, t1 in zip(schedule[:-1], schedule[1:]):
        nsub, dt = split_interval(t0, t1, dtheta)
        half = 0.5 * dt
        for _ in range(nsub):
            rho, delta, k = model.terms(st)
            if not unsteady:
                a, residual, uptake = _qss_uptake(model, gg, st, rho, delta)
                if pending is not None:
                    uptake_integral += 0.5 * pending[1] * (pending[0] + uptake)
                pending = (uptake, dt)
            # Heun in place: the predictor st + dt k1, then the trapezoid of k1 and k2
            np.multiply(k, a, out=k1)
            np.multiply(k1, dt, out=pred)
            pred += st
            clamp(pred)
            rho2, delta2, k = model.terms(pred)
            if not unsteady:
                a2, _ = _solve_gas_qss(gg, rho2 * gg.vol, delta2, params.sherwood)
            else:
                # one Crank-Nicolson step from a(theta_n) under the reaction and
                # structure averaged over the state and the predictor
                rv = 0.5 * (rho + rho2) * gg.vol
                delta = None if delta is None else 0.5 * (delta + delta2)
                a2, cond = _advance_gas_cn(gg, a, rv, delta, accum, dt)
                # the step's surface flux feeds its storage and its consumption
                flux, consumption = _gas_balance(0.5 * (a + a2), rv, cond, None)
                flux -= accum * float(np.dot(gg.vol, a2 - a)) / dt
                residual = _flux_residual(flux, consumption)
                uptake_integral += dt * consumption * model.norm
                a = a2
            max_flux_residual = max(max_flux_residual, residual)
            np.multiply(k, a2, out=k2)
            k1 *= half
            k2 *= half
            k1 += k2
            st += k1
            clamp(st)
        xs.append(x_of(st))
        if structured and np.any((model.terms(st)[1] == 0.0)
                                 & (model.unreacted_integrand(st) > SOLID_FLOOR)):
            plugged.append(t1)

    if pending is not None:
        # close the trapezoid with the uptake of the final state
        uptake = _qss_uptake(model, gg, st, *model.terms(st)[:2])[2]
        uptake_integral += 0.5 * pending[1] * (pending[0] + uptake)

    xs = np.asarray(xs)
    balance_residual = abs(uptake_integral - (xs[-1] - xs[0]))
    return RunResult(
        theta=schedule.copy(),
        x=xs,
        warnings=[sample_warning(PORES_CLOSED, plugged)] if plugged else [],
        label="fd",
        diagnostics={
            "max_flux_residual": float(max_flux_residual),
            "balance_residual": float(balance_residual),
            "dtheta": dtheta,
        },
    )


def _advance_gas_cn(gg: _GasGrid, a_old: np.ndarray, rv: np.ndarray, delta,
                    accum: float, dt: float):
    """One Crank-Nicolson gas step (Dirichlet surface), solved for the step's
    mean gas m = (a_old + a_new) / 2; ``rv`` is ``rho * vol``."""
    cond = gg.conductance(delta)
    cap = (2.0 * accum / dt) * gg.vol
    bands = gg.operator_bands(cond, rv + cap)
    bands[3] = cap * a_old
    _dirichlet_surface(bands)
    bands[3, -1] = 0.5 * (1.0 + a_old[-1])  # the mean of the surface gas
    a_new = solve_banded(bands)
    a_new *= 2.0
    a_new -= a_old
    return a_new, cond


def _fd_solve_simultaneous(params: ModelParams, theta_end: float, ctl: FdControl,
                           samples: int) -> RunResult:
    """Reference run for the two-gas model (quasi-steady, first order).

    The diagnostics are those of the single-gas march, over both gases: the
    largest flux residual of any gas solve, and the larger of the two gaps
    between a gas's time-integrated uptake and the conversion it caused
    (X_A for gas A, X - X_A for gas C).
    """
    schedule = sample_schedule(theta_end, samples)
    fp = params.pellet.shape_factor
    psis = np.array([params.psi_ab, params.psi_cb])

    def march(dtheta: float) -> RunResult:
        gg = _GasGrid(ctl.n_space, fp)
        b = np.ones(gg.n)
        b_a = np.ones(gg.n)
        two_fp = 2.0 * fp
        max_flux_residual = 0.0

        def profiles(bb):
            """(psi * P of gas A, of gas C) under the solid bb, and (rho * vol, P) of each."""
            rv_a = two_fp * params.thiele_a**2 * bb * gg.vol
            rv_c = two_fp * params.thiele_c**2 * bb * gg.vol
            pa, _ = _solve_gas_qss(gg, rv_a, None, None)
            pc, _ = _solve_gas_qss(gg, rv_c, None, None)
            return (params.psi_ab * pa, params.psi_cb * pc), ((rv_a, pa), (rv_c, pc))

        def uptakes(bb, solved) -> np.ndarray:
            """(dX_A, dX_C)/dtheta under the solid bb; records the flux residuals."""
            nonlocal max_flux_residual
            for rv, p in solved:
                residual = _flux_residual(*_gas_balance(p, rv, gg.cond, None))
                max_flux_residual = max(max_flux_residual, residual)
            # Fp * sum(vol b P) is the consumption over 2 sigma^2, defined also at sigma = 0
            return psis * fp * np.array([np.sum(gg.vol * bb * p) for _, p in solved])

        xs = [0.0]
        x_as = [0.0]
        uptake_integral = np.zeros(2)
        pending = None  # (uptakes at substep start, dt)
        for t0, t1 in zip(schedule[:-1], schedule[1:]):
            nsub, dt = split_interval(t0, t1, dtheta)
            for _ in range(nsub):
                (pa, pc), solved = profiles(b)
                uptake = uptakes(b, solved)
                if pending is not None:
                    uptake_integral += 0.5 * pending[1] * (pending[0] + uptake)
                pending = (uptake, dt)
                k1b = -(pa + pc) * b
                k1a = -pa * b
                b_pred = np.maximum(b + dt * k1b, B_MIN)
                (pa2, pc2), _ = profiles(b_pred)
                k2b = -(pa2 + pc2) * b_pred
                k2a = -pa2 * b_pred
                b = np.maximum(b + 0.5 * dt * (k1b + k2b), B_MIN)
                b_a = np.maximum(b_a + 0.5 * dt * (k1a + k2a), 0.0)
            xs.append(converted(b, fp))
            x_as.append(converted(b_a, fp))

        # close the trapezoid with the uptakes of the final state
        if pending is not None:
            _, solved = profiles(b)
            uptake_integral += 0.5 * pending[1] * (pending[0] + uptakes(b, solved))
        by_gas = np.array([x_as[-1], xs[-1] - x_as[-1]])  # X_A, X_C
        return RunResult(
            theta=schedule, x=np.asarray(xs), x_a=np.asarray(x_as), label="fd",
            diagnostics={
                "max_flux_residual": max_flux_residual,
                "balance_residual": float(np.max(np.abs(uptake_integral - by_gas))),
                "dtheta": dtheta,
            },
        )

    return _refined(march, ctl, "two-gas reference run did not converge under refinement")


def initial_conversion_rate(params: ModelParams, ctl: FdControl = FdControl()) -> float:
    """dX/dtheta at theta = 0 from the initial gas solve (oracle self-check)."""
    if params.kind not in _FD_MODELS:
        raise SolverError(f"no reference model for kind '{params.kind.value}'")
    model = _FD_MODELS[params.kind](params)
    gg = _GasGrid(ctl.n_space, params.pellet.shape_factor)
    st = np.full(gg.n, model.start)
    return _qss_uptake(model, gg, st, *model.terms(st)[:2])[2]


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
