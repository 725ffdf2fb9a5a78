"""Packed-bed coupling: axial bulk balance + per-section pellet profiles.

The bulk gas satisfies Y'' - Pe Y' = beta (Y - a|_surface) with a
Danckwerts inlet and a zero-gradient outlet.  Pellets at each bed height
carry a radial conversion field X(y), marched as sqrt(1 - X); the pellet
gas profile is the kernels' filmed sphere with film resistance Bi_m and a
per-node modulus M = Phi sqrt(1 - X) frozen from the previous step, and
one evaluation per step gives both the pellets' decay and, from its
surface column, the transmission the bulk sees.  Because the pellet
surface concentration varies along the bed, the closed-form bulk solution
is applied piecewise: the bed is partitioned into segments with constant
surface concentration and the two-exponential solution is joined with
continuous value and slope.  That bulk solution is affine in the segment
means m of the surface field, Y = 1 - G (1 - m), so each time step finds
the self-consistent bulk field with one n_segments x n_segments linear
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import radial_weights
from .core import ConfigError, SolverError
from .driver import sample_schedule, split_interval
from .kernels import filmed_sphere_ratio

_FIXED_POINT_TOL = 1e-11  # largest residual of the coupling solve against the bulk map


@dataclass(frozen=True)
class BedParams:
    """Dimensionless packed-bed groups; the inlet signal is fixed at 1."""

    peclet: float
    beta: float
    phi: float
    biot_m: float
    bed_length: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():  # beta may be 0; the others must be positive
            sign = "nonnegative" if name == "beta" else "positive"
            above = value >= 0.0 if name == "beta" else value > 0.0  # NaN fails both
            if not (above and value < math.inf):
                raise ConfigError(f"{name} must be {sign} and finite, got {value}")


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


def segment_spans(eta: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, stop) per segment between consecutive ``edges``: its nodes of
    the ascending grid ``eta``, those within 1e-12 of its ends, are
    ``eta[first:stop]``; a segment with ``stop <= first`` holds none."""
    return (np.searchsorted(eta, edges[:-1] - 1e-12, side="left"),
            np.searchsorted(eta, edges[1:] + 1e-12, side="right"))


class SegmentedBulkSolver:
    """Piecewise closed-form solver for the axial bulk balance.

    The pellet-surface field is reduced to trapezoidal means over
    ``n_segments`` equal segments; within each segment Y is the exact
    two-exponential solution and the pieces are joined with continuous
    value and slope.  The joint system depends only on the bed
    parameters, so it is solved once, for the unit-deficit column of each
    segment; ``solve`` applies the resulting affine map.
    """

    def __init__(self, bed: BedParams, eta: np.ndarray, n_segments: int):
        self.eta = np.asarray(eta, dtype=float)
        if self.eta.ndim != 1 or self.eta.size < 2:
            raise SolverError("eta must be a 1-d grid with at least 2 nodes")
        if n_segments < 1:
            raise SolverError(f"need at least one bulk segment, got {n_segments}")
        self.n_seg = int(n_segments)
        lam = bed.bed_length
        edges = np.linspace(0.0, lam, self.n_seg + 1)
        r1, r2 = characteristic_roots(bed.peclet, bed.beta)

        # each segment's nodes, padded to the longest by repeating its last node,
        # and their trapezoid mean weights, read by every segment mean; the
        # repeats span no length, so they weigh 0
        first, stop = segment_spans(self.eta, edges)
        if np.any(stop <= first):
            raise SolverError("axial grid too coarse for the requested segment count")
        seg_nodes = [np.arange(i, j) for i, j in zip(first, stop)]
        k = max(idx.size for idx in seg_nodes)
        self.nodes = np.array([np.pad(idx, (0, k - idx.size), mode="edge") for idx in seg_nodes])
        x = self.eta[self.nodes]
        half = 0.5 * np.diff(x, axis=1)
        w = np.pad(half, ((0, 0), (0, 1))) + np.pad(half, ((0, 0), (1, 0)))
        span = x[:, -1] - x[:, 0]
        w[span == 0.0, 0] = 1.0  # a one-node segment's mean is its node value
        self.node_weights = w / np.where(span > 0.0, span, 1.0)[:, None]

        n_unknown = 2 * self.n_seg
        mat = np.zeros((n_unknown, n_unknown))

        def basis(j, x):
            return math.exp(r1 * (x - edges[j + 1])), math.exp(r2 * (x - edges[j]))

        row = 0
        e1, e2 = basis(0, 0.0)  # Danckwerts inlet: Y(0) - Y'(0)/Pe = 1
        mat[row, 0] = e1 * (1.0 - r1 / bed.peclet)
        mat[row, 1] = e2 * (1.0 - r2 / bed.peclet)
        row += 1
        for j in range(self.n_seg - 1):
            xj = edges[j + 1]
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

        # Y is affine in the segment means m and equals 1 when m = 1, so
        # Y = 1 - gain @ (1 - m).  Column k of the right side is the jump
        # pattern of a unit deficit in segment k.
        cols = np.zeros((n_unknown, self.n_seg))
        cols[0, 0] = -1.0
        k = np.arange(self.n_seg - 1)
        cols[1 + 2 * k, 1 + k] = 1.0
        cols[1 + 2 * k, k] = -1.0
        try:
            coef = np.linalg.solve(mat, cols)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"bulk profile system is singular: {exc}") from None
        seg_idx = np.minimum((self.eta / lam * self.n_seg).astype(int), self.n_seg - 1)
        e1_nodes = np.exp(r1 * (self.eta - edges[seg_idx + 1]))
        e2_nodes = np.exp(r2 * (self.eta - edges[seg_idx]))
        self.gain = (coef[2 * seg_idx] * e1_nodes[:, None]
                     + coef[2 * seg_idx + 1] * e2_nodes[:, None]
                     + np.eye(self.n_seg)[seg_idx])
        # the gain rows at each segment's nodes: ``coupling`` reads only those
        self.node_gain = self.gain[self.nodes]
        self.eye = np.eye(self.n_seg)

    def _means(self, values: np.ndarray) -> np.ndarray:
        """Trapezoidal mean of ``values`` (one per eta node) over each segment."""
        return (self.node_weights * values[self.nodes]).sum(axis=1)

    def coupling(self, trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """I - W diag(trans) G and W (1 - trans), each row read from its segment's nodes."""
        wt = trans[self.nodes]
        wt *= self.node_weights
        return self.eye - np.matmul(wt[:, None, :], self.node_gain)[:, 0], self._means(1.0 - trans)

    def solve(self, a_surface: np.ndarray) -> np.ndarray:
        s = np.asarray(a_surface, dtype=float)
        if s.shape != self.eta.shape:
            raise SolverError("a_surface must match the eta grid")
        return 1.0 - self.gain @ (1.0 - self._means(s))


def bed_bulk_profile(bed: BedParams, a_surface: np.ndarray, eta: np.ndarray,
                     n_segments: int) -> np.ndarray:
    """Closed-form bulk profile Y(eta) for a given pellet-surface field."""
    return SegmentedBulkSolver(bed, eta, n_segments).solve(a_surface)


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


def _self_consistent_bulk(solver: SegmentedBulkSolver, trans: np.ndarray) -> np.ndarray:
    """Fixed point of Y = bulk_profile(trans * Y): the quasi-static bulk field.

    With Y = 1 - G d and the segment-mean deficit d = 1 - W (trans * Y),
    d solves (I - W diag(trans) G) d = W (1 - trans) exactly.  Solving for
    the deficit rather than the means keeps Y = 1 exact where trans = 1 even
    when the map is a very weak contraction.  One ``solver.solve`` of the
    result checks the residual of that solve against the fixed-point map,
    which must stay below ``_FIXED_POINT_TOL``.
    """
    try:
        deficit = np.linalg.solve(*solver.coupling(trans))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"bed bulk coupling system is singular: {exc}") from None
    y = 1.0 - solver.gain @ deficit
    if not np.all(np.isfinite(y)):
        raise SolverError("bed bulk coupling solve is not finite")
    y_out = solver.solve(trans * y)
    if not float(np.max(np.abs(y_out - y))) < _FIXED_POINT_TOL:
        raise SolverError("bed bulk coupling solve is not a fixed point")
    return y_out


def march_bed(bed: BedParams, dtau: float, tau_end: float, n_eta: int, n_radial: int,
              n_segments: int, samples: int) -> BedResult:
    """March the bed with first-order pellet consumption f(X) = 1 - X.

    The state is sqrt(b), the root of the unreacted fraction b = 1 - X, on
    the (n_eta, n_radial) pellet grid, so the pellet modulus M = Phi sqrt(b)
    is one product.  Each time step freezes M from the lagged state, takes
    the filmed pellet shape a/Y under it, and updates sqrt(b) in place
    node-wise with sqrt(b) <- sqrt(b) exp(-a dtau / 2), the factor
    -Y dtau / 2 folded per bed height.  That shape's surface column is the
    transmission of the updated state, so the pellet/bulk coupling, solved
    exactly with one linear solve over the segment means, needs no second
    kernel call; the shape then serves the next step's decay.  Only the
    fresh bed's transmission is a separate ``surface_transmission`` call.
    b and X are formed only at the samples.
    """
    if not (dtau > 0.0 and tau_end > 0.0):  # NaN fails too
        raise SolverError("dtau and tau_end must be positive")
    if n_radial % 2 == 0:
        raise SolverError("n_radial must be odd (Simpson quadrature)")
    sample_tau = sample_schedule(tau_end, samples)
    eta = np.linspace(0.0, bed.bed_length, n_eta)
    y = np.linspace(0.0, 1.0, n_radial)
    sw = radial_weights(n_radial, 3)  # spherical pellets
    solver = SegmentedBulkSolver(bed, eta, n_segments)

    root_b = np.ones((n_eta, n_radial))  # exactly 1, so X(0) is exactly 0
    work = np.empty((4, n_eta, n_radial))  # the shape kernel's buffers, for the whole march
    modulus = bed.phi * root_b
    bulk = _self_consistent_bulk(solver, surface_transmission(modulus[:, -1], bed.biot_m))
    shape = _pellet_shape(modulus, y[None, :], bed.biot_m, work=work)
    c_y = np.zeros(n_eta)

    out_bulk = [bulk]
    out_cy = [c_y.copy()]
    out_xs = [1.0 - root_b[:, -1]]  # b = sqrt(b) = 1
    out_xa = [1.0 - root_b @ sw]

    for t0, t1 in zip(sample_tau[:-1], sample_tau[1:]):
        nsub, dt = split_interval(t0, t1, dtau)
        for _ in range(nsub):
            shape *= (-0.5 * dt) * bulk[:, None]
            root_b *= np.exp(shape, out=shape)
            np.multiply(root_b, bed.phi, out=modulus)
            shape = _pellet_shape(modulus, y[None, :], bed.biot_m, work=work)
            bulk_new = _self_consistent_bulk(solver, shape[:, -1])
            c_y += 0.5 * dt * (bulk + bulk_new)
            bulk = bulk_new
        b = root_b * root_b
        out_bulk.append(bulk)
        out_cy.append(c_y.copy())
        out_xs.append(1.0 - b[:, -1])
        out_xa.append(1.0 - b @ sw)

    return BedResult(
        tau=sample_tau,
        eta=eta,
        bulk=np.asarray(out_bulk),
        cumulative=np.asarray(out_cy),
        x_surface=np.asarray(out_xs),
        x_average=np.asarray(out_xa),
        params=bed,
    )
