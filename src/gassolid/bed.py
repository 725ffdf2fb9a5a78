"""Packed-bed coupling: axial bulk balance + per-section pellet profiles.

The bulk gas satisfies Y'' - Pe Y' = beta (Y - a|_surface) with a
Danckwerts inlet and a zero-gradient outlet.  Pellets at each bed height
carry a radial conversion field X(y); the pellet gas profile is the
kernels' filmed sphere with film resistance Bi_m and a per-node modulus
M = Phi sqrt(1 - X) frozen from the previous step.  Because the pellet
surface concentration varies along the bed, the closed-form bulk solution
is applied piecewise: the bed is partitioned into segments with constant
surface concentration and the two-exponential solution is joined with
continuous value and slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import simpson_weights
from .core import ConfigError, SolverError
from .kernels import filmed_sphere_ratio


@dataclass(frozen=True)
class BedParams:
    """Dimensionless packed-bed groups; the inlet signal is fixed at 1."""

    peclet: float
    beta: float
    phi: float
    biot_m: float
    bed_length: float = 1.0

    def __post_init__(self):
        if self.peclet <= 0.0:
            raise ConfigError(f"peclet must be positive, got {self.peclet}")
        if self.beta < 0.0:
            raise ConfigError(f"beta must be nonnegative, got {self.beta}")
        if self.phi <= 0.0:
            raise ConfigError(f"phi must be positive, got {self.phi}")
        if self.biot_m <= 0.0:
            raise ConfigError(f"biot_m must be positive, got {self.biot_m}")
        if self.bed_length <= 0.0:
            raise ConfigError(f"bed_length must be positive, got {self.bed_length}")


def characteristic_roots(peclet: float, beta: float) -> tuple[float, float]:
    """Roots r1 > 0 >= r2 of m^2 - Pe m - beta = 0 for the bulk balance."""
    disc = math.sqrt(peclet * peclet + 4.0 * beta)
    return 0.5 * (peclet + disc), 0.5 * (peclet - disc)


# a / Y of the filmed pellet profile (sherwood Bi_m, delta 1), per-node modulus.
# march_bed looks it up under this name, which perfbench's tracer wraps.
_pellet_shape = filmed_sphere_ratio


def surface_transmission(M, biot_m: float):
    """a(1)/Y of the filmed profile: the fraction reaching the pellet surface."""
    return filmed_sphere_ratio(M, 1.0, biot_m)


class SegmentedBulkSolver:
    """Piecewise closed-form solver for the axial bulk balance.

    The pellet-surface field is reduced to trapezoidal means over
    ``n_segments`` equal segments; within each segment Y is the exact
    two-exponential solution and the pieces are joined with continuous
    value and slope.  The joint system depends only on the bed
    parameters, so its LU factorization is built once and reused.
    """

    def __init__(self, bed: BedParams, eta: np.ndarray, n_segments: int = 64):
        from scipy.linalg import lu_factor, lu_solve

        self._lu_solve = lu_solve
        self.bed = bed
        self.eta = np.asarray(eta, dtype=float)
        if self.eta.ndim != 1 or self.eta.size < 2:
            raise SolverError("eta must be a 1-d grid with at least 2 nodes")
        self.n_seg = max(1, int(n_segments))
        lam = bed.bed_length
        self.edges = np.linspace(0.0, lam, self.n_seg + 1)
        self.r1, self.r2 = characteristic_roots(bed.peclet, bed.beta)

        # trapezoidal segment-mean weights: means = weights @ a_surface
        self.weights = np.zeros((self.n_seg, self.eta.size))
        for j in range(self.n_seg):
            mask = (self.eta >= self.edges[j] - 1e-12) & (self.eta <= self.edges[j + 1] + 1e-12)
            idx = np.nonzero(mask)[0]
            if idx.size == 0:
                raise SolverError("axial grid too coarse for the requested segment count")
            if idx.size == 1:
                self.weights[j, idx[0]] = 1.0
            else:
                sub = self.eta[idx]
                w = np.zeros(idx.size)
                d = np.diff(sub)
                w[:-1] += 0.5 * d
                w[1:] += 0.5 * d
                self.weights[j, idx] = w / (sub[-1] - sub[0])

        r1, r2 = self.r1, self.r2
        n_unknown = 2 * self.n_seg
        mat = np.zeros((n_unknown, n_unknown))

        def basis(j, x):
            return math.exp(r1 * (x - self.edges[j + 1])), math.exp(r2 * (x - self.edges[j]))

        row = 0
        e1, e2 = basis(0, 0.0)  # Danckwerts inlet: Y(0) - Y'(0)/Pe = 1
        mat[row, 0] = e1 * (1.0 - r1 / bed.peclet)
        mat[row, 1] = e2 * (1.0 - r2 / bed.peclet)
        row += 1
        for j in range(self.n_seg - 1):
            xj = self.edges[j + 1]
            e1l, e2l = basis(j, xj)
            e1r, e2r = basis(j + 1, xj)
            mat[row, 2 * j] = e1l
            mat[row, 2 * j + 1] = e2l
            mat[row, 2 * j + 2] = -e1r
            mat[row, 2 * j + 3] = -e2r
            row += 1
            mat[row, 2 * j] = r1 * e1l
            mat[row, 2 * j + 1] = r2 * e2l
            mat[row, 2 * j + 2] = -r1 * e1r
            mat[row, 2 * j + 3] = -r2 * e2r
            row += 1
        e1, e2 = basis(self.n_seg - 1, lam)  # outlet: Y'(L) = 0
        mat[row, 2 * self.n_seg - 2] = r1 * e1
        mat[row, 2 * self.n_seg - 1] = r2 * e2
        try:
            self._factored = lu_factor(mat)
        except ValueError as exc:
            raise SolverError(f"bulk profile system is singular: {exc}") from None

        self.seg_idx = np.minimum((self.eta / lam * self.n_seg).astype(int), self.n_seg - 1)
        self.e1_nodes = np.exp(r1 * (self.eta - self.edges[self.seg_idx + 1]))
        self.e2_nodes = np.exp(r2 * (self.eta - self.edges[self.seg_idx]))

    def solve(self, a_surface: np.ndarray) -> np.ndarray:
        s = np.asarray(a_surface, dtype=float)
        if s.shape != self.eta.shape:
            raise SolverError("a_surface must match the eta grid")
        means = self.weights @ s
        rhs = np.zeros(2 * self.n_seg)
        rhs[0] = 1.0 - means[0]
        if self.n_seg > 1:
            jumps = means[1:] - means[:-1]
            rhs[1:-1:2] = jumps
        coef = self._lu_solve(self._factored, rhs)
        return (
            means[self.seg_idx]
            + coef[2 * self.seg_idx] * self.e1_nodes
            + coef[2 * self.seg_idx + 1] * self.e2_nodes
        )


def bed_bulk_profile(bed: BedParams, a_surface: np.ndarray, eta: np.ndarray,
                     n_segments: int = 64) -> np.ndarray:
    """Closed-form bulk profile Y(eta) for a given pellet-surface field."""
    eta = np.asarray(eta, dtype=float)
    s = np.asarray(a_surface, dtype=float)
    if eta.shape != s.shape or eta.ndim != 1:
        raise SolverError("a_surface and eta must be matching 1-d arrays")
    return SegmentedBulkSolver(bed, eta, n_segments).solve(s)


def bed_bulk_profile_uniform(bed: BedParams, a_surface: float, eta: np.ndarray) -> np.ndarray:
    """Single-segment closed form for a constant surface concentration.

    The constants follow from the Danckwerts inlet and zero-gradient
    outlet applied to Y = a_s + C1 exp(r1 eta) + C2 exp(r2 eta).
    """
    r1, r2 = characteristic_roots(bed.peclet, bed.beta)
    pe, lam = bed.peclet, bed.bed_length
    ratio = (r2 / r1) * math.exp((r2 - r1) * lam)
    denom = pe - r2 - ratio * (pe - r1)
    c2 = (1.0 - a_surface) * pe / denom
    eta = np.asarray(eta, dtype=float)
    return a_surface + c2 * (np.exp(r2 * eta) - ratio * np.exp(r1 * eta))


@dataclass
class BedResult:
    """Time series of the bed state on the sampling schedule."""

    tau: np.ndarray
    eta: np.ndarray
    bulk: np.ndarray            # Y, shape (n_tau, n_eta)
    cumulative: np.ndarray      # C_Y, running time integral of Y
    x_surface: np.ndarray       # pellet-surface conversion
    x_average: np.ndarray       # radial-average pellet conversion
    params: BedParams = field(repr=False, default=None)


def _self_consistent_bulk(solver: SegmentedBulkSolver, trans: np.ndarray,
                          y_guess: np.ndarray,
                          tol: float = 1e-11, max_iter: int = 200) -> np.ndarray:
    """Fixed point of Y = bulk_profile(trans * Y): the quasi-static bulk field."""
    y = y_guess
    for _ in range(max_iter):
        y_new = solver.solve(trans * y)
        if float(np.max(np.abs(y_new - y))) < tol:
            return y_new
        y = y_new
    raise SolverError("bed bulk fixed point did not converge")


def march_bed(bed: BedParams, dtau: float, tau_end: float,
              n_eta: int = 257, n_radial: int = 101, n_segments: int = 64,
              samples: int = 101) -> BedResult:
    """March the bed with first-order pellet consumption f(X) = 1 - X.

    Each time step freezes the pellet modulus from the lagged conversion,
    resolves the pellet/bulk coupling to a fixed point, then updates the
    radial conversion field node-wise with X <- 1 - (1 - X) exp(-a dtau).
    """
    if dtau <= 0.0 or tau_end <= 0.0:
        raise SolverError("dtau and tau_end must be positive")
    if n_radial % 2 == 0:
        raise SolverError("n_radial must be odd (Simpson quadrature)")
    eta = np.linspace(0.0, bed.bed_length, n_eta)
    y = np.linspace(0.0, 1.0, n_radial)
    sw = simpson_weights(n_radial) * 3.0 * y**2  # spherical pellets
    sample_tau = np.linspace(0.0, tau_end, samples)
    solver = SegmentedBulkSolver(bed, eta, n_segments)

    x = np.zeros((n_eta, n_radial))
    modulus = bed.phi * np.sqrt(1.0 - x)
    trans = np.asarray(surface_transmission(modulus[:, -1], bed.biot_m))
    bulk = _self_consistent_bulk(solver, trans, np.ones(n_eta))
    c_y = np.zeros(n_eta)

    out_bulk = [bulk.copy()]
    out_cy = [c_y.copy()]
    out_xs = [x[:, -1].copy()]
    out_xa = [(1.0 - (1.0 - x) @ sw).copy()]

    tau = 0.0
    for t0, t1 in zip(sample_tau[:-1], sample_tau[1:]):
        nsub = max(1, int(math.ceil((t1 - t0) / dtau - 1e-12)))
        dt = (t1 - t0) / nsub
        for _ in range(nsub):
            profiles = bulk[:, None] * _pellet_shape(modulus, y[None, :], bed.biot_m)
            x = 1.0 - (1.0 - x) * np.exp(-profiles * dt)
            tau += dt
            modulus = bed.phi * np.sqrt(np.maximum(1.0 - x, 0.0))
            trans = np.asarray(surface_transmission(modulus[:, -1], bed.biot_m))
            bulk_new = _self_consistent_bulk(solver, trans, bulk)
            c_y = c_y + 0.5 * dt * (bulk + bulk_new)
            bulk = bulk_new
        out_bulk.append(bulk.copy())
        out_cy.append(c_y.copy())
        out_xs.append(x[:, -1].copy())
        out_xa.append((1.0 - (1.0 - x) @ sw).copy())

    return BedResult(
        tau=sample_tau,
        eta=eta,
        bulk=np.asarray(out_bulk),
        cumulative=np.asarray(out_cy),
        x_surface=np.asarray(out_xs),
        x_average=np.asarray(out_xa),
        params=bed,
    )
