import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassolid import (
    BedParams,
    ConfigError,
    SolverError,
    bed_bulk_profile,
    bed_bulk_profile_uniform,
    characteristic_roots,
    fd_solve_bed_bulk,
    march_bed,
    surface_transmission,
)
from gassolid import bed as bed_module
from gassolid.kernels import filmed_sphere_ratio

FIG9 = BedParams(peclet=1.1, beta=3.3, phi=10.0, biot_m=50.0, bed_length=1.0)


def test_bed_params_validation():
    with pytest.raises(ConfigError):
        BedParams(peclet=0.0, beta=1.0, phi=1.0, biot_m=1.0)
    with pytest.raises(ConfigError):
        BedParams(peclet=1.0, beta=-1.0, phi=1.0, biot_m=1.0)
    with pytest.raises(ConfigError):
        BedParams(peclet=1.0, beta=1.0, phi=1.0, biot_m=0.0)
    BedParams(peclet=1.0, beta=0.0, phi=1.0, biot_m=1.0)  # beta = 0 is allowed


def test_characteristic_roots():
    r1, r2 = characteristic_roots(1.1, 3.3)
    assert r1 + r2 == pytest.approx(1.1, abs=1e-12)
    assert r1 * r2 == pytest.approx(-3.3, abs=1e-12)
    disc = math.sqrt(1.1**2 + 4 * 3.3)
    assert r1 == pytest.approx(0.5 * (1.1 + disc), abs=1e-15)
    assert r1 == pytest.approx(2.4480252896102307, abs=1e-12)
    assert r2 == pytest.approx(-1.3480252896102307, abs=1e-12)
    r1b, r2b = characteristic_roots(2.0, 0.0)
    assert (r1b, r2b) == (2.0, 0.0)


# --- pellet profile -----------------------------------------------------------
# The bed's pellet is the kernels' filmed sphere with sherwood Bi_m and delta 1:
# a(y) = Y * filmed_sphere_ratio(M, y, Bi_m).


def test_pellet_profile_fixture():
    # a(1) = Bi sinh M / (M cosh M + (Bi - 1) sinh M) at M = 1, Bi = 50, Y = 1
    assert bed_module._pellet_shape is filmed_sphere_ratio
    y = np.linspace(0.0, 1.0, 201)
    prof = filmed_sphere_ratio(1.0, y, 50.0)
    want = 50.0 * math.sinh(1.0) / (math.cosh(1.0) + 49.0 * math.sinh(1.0))
    assert want == pytest.approx(0.9937782468554515, abs=1e-12)
    assert prof[-1] == pytest.approx(want, abs=1e-12)


def test_pellet_profile_robin_condition():
    # da/dy|_1 = Bi (Y - a(1)), checked analytically and by differencing
    y = np.linspace(0.0, 1.0, 2001)
    for m, bi, bulk in [(1.0, 50.0, 1.0), (4.0, 3.0, 0.7), (0.3, 10.0, 0.2)]:
        prof = bulk * filmed_sphere_ratio(m, y, bi)
        slope = (3 * prof[-1] - 4 * prof[-2] + prof[-3]) / (2 * (y[1] - y[0]))
        assert slope == pytest.approx(bi * (bulk - prof[-1]), rel=1e-4, abs=1e-8)
        denom = m * math.cosh(m) + (bi - 1.0) * math.sinh(m)
        exact = bi * bulk * (m * math.cosh(m) - math.sinh(m)) / denom
        assert exact == pytest.approx(bi * (bulk - prof[-1]), rel=1e-12)


def test_pellet_profile_limits():
    y = np.linspace(0.0, 1.0, 101)
    # Bi -> infinity: Dirichlet, a(1) -> Y
    prof = 0.8 * filmed_sphere_ratio(1.0, y, 1e9)
    assert prof[-1] == pytest.approx(0.8, rel=1e-8)
    # M -> 0: no reaction, a = Y throughout
    prof0 = 0.6 * filmed_sphere_ratio(0.0, y, 50.0)
    assert np.allclose(prof0, 0.6, atol=1e-12)
    prof_small = 0.6 * filmed_sphere_ratio(1e-7, y, 50.0)
    assert np.allclose(prof_small, 0.6, atol=1e-6)
    # per-node modulus evaluation broadcasts
    m = np.linspace(0.0, 10.0, 101)
    profm = filmed_sphere_ratio(m, y, 50.0)
    assert profm.shape == (101,)
    assert np.all(np.isfinite(profm))


def test_surface_transmission_limits():
    assert surface_transmission(0.0, 50.0) == pytest.approx(1.0)
    c = surface_transmission(10.0, 50.0)
    assert c == pytest.approx(50.0 / (10.0 / math.tanh(10.0) + 49.0), rel=1e-10)
    arr = surface_transmission(np.array([0.0, 1.0, 10.0]), 50.0)
    assert arr.shape == (3,)
    assert np.all(np.diff(arr) < 0.0)  # stronger reaction, less reaches the surface


# --- bulk profile --------------------------------------------------------------


def test_bulk_profile_trivial_cases():
    eta = np.linspace(0.0, 1.0, 257)
    no_consumption = BedParams(peclet=1.1, beta=0.0, phi=1.0, biot_m=1.0)
    assert np.allclose(bed_bulk_profile(no_consumption, np.zeros(257), eta, 64), 1.0, atol=1e-12)
    assert np.allclose(bed_bulk_profile(FIG9, np.ones(257), eta, 64), 1.0, atol=1e-10)
    assert np.allclose(bed_bulk_profile_uniform(no_consumption, 0.4, eta), 1.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    log_pe=st.floats(-2.0, 2.0),
    beta=st.one_of(st.just(0.0), st.floats(-2.0, 5.0).map(lambda e: 10.0**e)),
    n_segments=st.sampled_from([1, 4, 16, 64]),
    a_s=st.floats(0.0, 1.0),
)
def test_bulk_profile_segments_match_single_closed_form(log_pe, beta, n_segments, a_s):
    # the segmented map, solved once for its gain, over its conditioning range
    bed = BedParams(peclet=10.0**log_pe, beta=beta, phi=1.0, biot_m=1.0)
    eta = np.linspace(0.0, 1.0, 257)
    ref = bed_bulk_profile_uniform(bed, a_s, eta)
    seg = bed_bulk_profile(bed, np.full(257, a_s), eta, n_segments=n_segments)
    assert np.max(np.abs(seg - ref)) <= 1e-13


def test_bulk_profile_matches_fd_for_varying_surface():
    # independent verification at N = 401 (the module invariant)
    eta = np.linspace(0.0, 1.0, 401)
    a_var = 0.9 - 0.5 * eta + 0.2 * np.sin(3.0 * eta)
    closed = bed_bulk_profile(FIG9, a_var, eta, n_segments=64)
    fd = fd_solve_bed_bulk(FIG9.peclet, FIG9.beta, FIG9.bed_length, a_var)
    assert np.max(np.abs(closed - fd)) < 1e-4


def test_bulk_profile_danckwerts_inlet():
    eta = np.linspace(0.0, 1.0, 401)
    y = bed_bulk_profile(FIG9, np.zeros(401), eta, n_segments=1)
    h = eta[1] - eta[0]
    slope0 = (-3 * y[0] + 4 * y[1] - y[2]) / (2 * h)
    assert y[0] - slope0 / FIG9.peclet == pytest.approx(1.0, abs=1e-5)
    slope_out = (3 * y[-1] - 4 * y[-2] + y[-3]) / (2 * h)
    assert slope_out == pytest.approx(0.0, abs=1e-5)  # O(h^2) differencing residual


def test_bulk_profile_validates_shapes():
    with pytest.raises(SolverError):
        bed_bulk_profile(FIG9, np.zeros(10), np.linspace(0, 1, 11), 64)
    # with a segment count the grid supports, the solve's own shape check fires
    with pytest.raises(SolverError, match="must match the eta grid"):
        bed_bulk_profile(FIG9, np.zeros(10), np.linspace(0, 1, 11), 4)


# --- bed march ------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig9_march():
    return march_bed(FIG9, dtau=0.02, tau_end=4.0, n_eta=129, n_radial=101,
                     n_segments=32, samples=41)


def test_march_initial_state(fig9_march):
    res = fig9_march
    assert res.tau[0] == 0.0
    assert np.all(res.x_surface[0] == 0.0)
    assert np.all(res.x_average[0] <= 1e-12)
    assert np.all(res.cumulative[0] == 0.0)
    # consumption makes Y strictly drop along the bed at early times
    assert np.all(np.diff(res.bulk[0]) < 0.0)


def test_march_monotonicities(fig9_march):
    res = fig9_march
    assert np.all(np.diff(res.bulk, axis=1) <= 1e-9)        # Y nonincreasing in eta
    assert np.all(np.diff(res.bulk, axis=0) >= -1e-9)       # Y nondecreasing in tau
    assert np.all(np.diff(res.cumulative, axis=0) >= -1e-12)
    assert np.all(np.diff(res.cumulative, axis=1) <= 1e-9)
    assert np.all(np.diff(res.x_surface, axis=0) >= -1e-12)
    assert np.all(np.diff(res.x_average, axis=0) >= -1e-12)
    assert np.all(np.diff(res.x_surface, axis=1) <= 1e-9)   # upstream converts first
    assert np.all((res.bulk >= -1e-12) & (res.bulk <= 1.0 + 1e-9))
    assert np.all((res.x_average >= -1e-12) & (res.x_average <= 1.0 + 1e-12))


def test_march_half_concentration_front(fig9_march):
    res = fig9_march
    fronts = []
    for row in res.bulk:
        below = np.nonzero(row < 0.5)[0]
        fronts.append(res.eta[below[0]] if below.size else res.params.bed_length)
    assert np.all(np.diff(fronts) >= -1e-12)


def test_march_consistent_with_bulk_solver(fig9_march):
    # rebuild the quasi-static bulk field from the recorded state and compare
    res = fig9_march
    i = len(res.tau) // 2
    modulus_surface = FIG9.phi * np.sqrt(1.0 - res.x_surface[i])
    trans = surface_transmission(modulus_surface, FIG9.biot_m)
    rebuilt = bed_bulk_profile(FIG9, trans * res.bulk[i], res.eta, n_segments=32)
    assert np.max(np.abs(rebuilt - res.bulk[i])) < 1e-9
    fd = fd_solve_bed_bulk(FIG9.peclet, FIG9.beta, FIG9.bed_length, trans * res.bulk[i])
    assert np.max(np.abs(fd - res.bulk[i])) < 1e-4


def test_march_exhaustion_limit():
    small = BedParams(peclet=1.0, beta=1.0, phi=0.5, biot_m=10.0, bed_length=1.0)
    res = march_bed(small, dtau=0.05, tau_end=40.0, n_eta=65, n_radial=51,
                    n_segments=16, samples=21)
    assert np.min(res.x_average[-1]) > 0.999   # bed fully converted
    assert np.min(res.bulk[-1]) > 0.999        # exhausted bed transmits the inlet
    # cumulative concentration keeps growing ~linearly once Y ~ 1
    tail = np.diff(res.cumulative[:, -1])[-3:]
    assert np.all(tail > 0.0)


def test_march_cumulative_is_trapezoid_of_sampled_bulk():
    # with one step per sample interval, C_Y is the running trapezoid of the
    # sampled Y at every height, up to the rounding of the sums
    res = march_bed(FIG9, dtau=0.05, tau_end=0.5, n_eta=33, n_radial=21,
                    n_segments=8, samples=11)
    steps = 0.5 * np.diff(res.tau)[:, None] * (res.bulk[1:] + res.bulk[:-1])
    want = np.vstack([np.zeros(res.eta.size), np.cumsum(steps, axis=0)])
    assert np.max(np.abs(res.cumulative - want)) <= 1e-15
    assert np.max(res.cumulative[-1]) > 0.3  # a pin on nonzero values


def test_march_evaluates_one_shape_per_step(monkeypatch):
    # each step's shape gives that step's transmission from its surface
    # column, bit for bit the separate call, and the next step's decay; only
    # the fresh bed's transmission is its own call
    calls = {"shape": 0, "transmission": 0}

    def shape(M, y, sherwood, work=None):
        calls["shape"] += 1
        out = filmed_sphere_ratio(M, y, sherwood, work=work)
        assert np.array_equal(out[:, -1], surface_transmission(M[:, -1], sherwood))
        return out

    def transmission(M, biot_m):
        calls["transmission"] += 1
        return surface_transmission(M, biot_m)

    monkeypatch.setattr(bed_module, "_pellet_shape", shape)
    monkeypatch.setattr(bed_module, "surface_transmission", transmission)
    res = march_bed(FIG9, dtau=0.05, tau_end=0.5, n_eta=17, n_radial=11,
                    n_segments=4, samples=3)
    assert calls == {"shape": 10 + 1, "transmission": 1}
    assert np.all(res.x_surface[0] == 0.0) and np.all(res.x_surface[-1] > 0.0)


@pytest.mark.parametrize("peclet, beta, phi", [(0.1, 3.3, 0.1), (0.1, 30.0, 0.05)])
def test_march_slow_pellets_low_peclet(peclet, beta, phi):
    # surface transmission ~0.999 makes the bulk map a weak contraction
    bed = BedParams(peclet=peclet, beta=beta, phi=phi, biot_m=50.0)
    res = march_bed(bed, dtau=0.05, tau_end=1.0, n_eta=65, n_radial=21,
                    n_segments=16, samples=5)
    assert np.all((res.bulk >= 0.0) & (res.bulk <= 1.0))
    for x_s, bulk in zip(res.x_surface, res.bulk):
        trans = surface_transmission(phi * np.sqrt(1.0 - x_s), bed.biot_m)
        fd = fd_solve_bed_bulk(peclet, beta, bed.bed_length, trans * bulk)
        assert np.max(np.abs(fd - bulk)) < 1e-4


def _picard_bulk(solver, trans, tol=1e-12, max_iter=300):
    """Plain fixed-point iteration of Y = solve(trans * Y); None if it stalls."""
    y = np.ones(solver.eta.size)
    for _ in range(max_iter):
        y_new = solver.solve(trans * y)
        if np.max(np.abs(y_new - y)) < tol:
            return y_new
        y = y_new
    return None


_ETA_257 = np.linspace(0.0, 1.0, 257)


@st.composite
def _coupling_case(draw):
    # _ETA_257 splits evenly into 1, 4, 16 or 64 segments; a drawn grid gives
    # the segments different node counts, so their padded rows differ
    if draw(st.booleans()):
        eta, n_segments = _ETA_257, draw(st.sampled_from([1, 4, 16, 64]))
    else:
        n_eta = draw(st.integers(3, 300))
        eta, n_segments = np.linspace(0.0, 1.0, n_eta), draw(st.integers(1, n_eta - 1))
    trans = draw(hnp.arrays(float, eta.size, elements=st.floats(0.0, 1.0)))
    return eta, n_segments, trans


def _dense_mean_weights(eta, n_segments):
    """W with W @ f the trapezoidal mean of f over each equal segment of [0, 1],
    built from eta and the segment edges alone."""
    edges = np.linspace(0.0, 1.0, n_segments + 1)
    w = np.zeros((n_segments, eta.size))
    unit = np.eye(eta.size)
    for j in range(n_segments):
        idx = np.nonzero((eta >= edges[j] - 1e-12) & (eta <= edges[j + 1] + 1e-12))[0]
        if idx.size == 1:
            w[j, idx] = 1.0
        else:
            span = eta[idx[-1]] - eta[idx[0]]
            w[j] = np.trapezoid(unit[idx], eta[idx], axis=0) / span
    return w


@settings(max_examples=60, deadline=None)
@given(
    log_pe=st.floats(-2.0, 2.0),
    beta=st.one_of(st.just(0.0), st.floats(-2.0, 5.0).map(lambda e: 10.0**e)),
    case=_coupling_case(),
)
def test_coupling_solve_is_the_fixed_point(log_pe, beta, case):
    eta, n_segments, trans = case
    bed = BedParams(peclet=10.0**log_pe, beta=beta, phi=1.0, biot_m=1.0)
    solver = bed_module.SegmentedBulkSolver(bed, eta, n_segments)
    # the per-segment gather forms the dense I - W diag(trans) G and W (1 - trans),
    # and the bulk map 1 - G (1 - W a)
    w = _dense_mean_weights(eta, n_segments)
    matrix, rhs = solver.coupling(trans)
    dense = np.eye(n_segments) - (w * trans) @ solver.gain
    assert np.max(np.abs(matrix - dense)) <= 1e-14
    assert np.max(np.abs(rhs - w @ (1.0 - trans))) <= 1e-14
    bulk = 1.0 - solver.gain @ (1.0 - w @ trans)
    assert np.max(np.abs(solver.solve(trans) - bulk)) <= 1e-14
    y = bed_module._self_consistent_bulk(solver, trans)
    assert np.max(np.abs(solver.solve(trans * y) - y)) <= 1e-13
    assert np.all((y >= -1e-12) & (y <= 1.0 + 1e-12))
    picard = _picard_bulk(solver, trans)
    if picard is not None:
        assert np.max(np.abs(picard - y)) <= 5e-11


@pytest.mark.parametrize("n_segments", [0, -2])
def test_bulk_solver_rejects_no_segments(n_segments):
    with pytest.raises(SolverError, match="at least one bulk segment"):
        bed_module.SegmentedBulkSolver(FIG9, _ETA_257, n_segments)


@pytest.mark.parametrize("samples", [0, 1])
def test_march_rejects_fewer_than_two_samples(samples):
    with pytest.raises(SolverError, match="at least two samples"):
        march_bed(FIG9, dtau=0.05, tau_end=0.1, n_eta=65, n_radial=21, n_segments=4,
                  samples=samples)


@pytest.mark.parametrize("n_segments", [1, 64])
def test_coupling_solve_exact_for_converted_bed(n_segments):
    # trans = 1 makes the bulk map a very weak contraction at low Pe and high
    # beta; the exact fixed point is Y = 1 everywhere
    bed = BedParams(peclet=0.01, beta=1e5, phi=1.0, biot_m=1.0)
    solver = bed_module.SegmentedBulkSolver(bed, _ETA_257, n_segments)
    y = bed_module._self_consistent_bulk(solver, np.ones(257))
    assert np.max(np.abs(y - 1.0)) <= 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_coupling_solve_rejects_nonfinite_transmission(bad):
    solver = bed_module.SegmentedBulkSolver(FIG9, _ETA_257, 16)
    trans = np.full(257, 0.5)
    trans[100] = bad
    with np.errstate(invalid="ignore"), pytest.raises(SolverError):
        bed_module._self_consistent_bulk(solver, trans)


# Y, X_surface and X_pellet_avg at every 8th axial node of the small march of
# test_cli.py::test_bed_section_writes_bed_csv, recorded from the direct coupling
# solve, the exact fixed point of the bulk map.
BED_PIN = {
    "bulk": [
        [0.7976980154935225, 0.7711533188502236, 0.7471997338007266, 0.7260169026456951,
         0.7078342736504504, 0.6929403688790564, 0.681693914623492, 0.6745372025083389,
         0.6720121223526],
        [0.8020215552846244, 0.7760304963610265, 0.7525531849380407, 0.7317738689220197,
         0.7139249810562645, 0.6992961954350635, 0.6882452678296653, 0.6812110062462429,
         0.6787287838691812],
        [0.8063755988736987, 0.7809427728998528, 0.757946859545193, 0.73757629191276,
         0.7200661143576504, 0.7057068172429808, 0.6948548786032462, 0.687945337901588,
         0.6855067859113962],
        [0.8107577576057549, 0.7858874592359332, 0.7633778210820139, 0.7434210367278917,
         0.7262543842317869, 0.7121688294910541, 0.7015192614295754, 0.6947366634380828,
         0.6923425778288864],
        [0.815165498290818, 0.7908617012164701, 0.7688429474018426, 0.749304763014462,
         0.7324862778394912, 0.7186785884641974, 0.7082346799618192, 0.7015811902741126,
         0.6992323476841089],
        [0.8195961447970737, 0.7958624814789264, 0.774338932403923, 0.7552239264142904,
         0.7387580600065347, 0.7252322124236148, 0.714997147628725, 0.7084748676984399,
         0.7061720225968953],
    ],
    "x_surface": [
        [0.0, 0.0, 0.0,
         0.0, 0.0, 0.0,
         0.0, 0.0, 0.0],
        [0.06554284494305185, 0.06344346848877669, 0.06154466910186873,
         0.05986207702007418, 0.05841523594293918, 0.05722833092689861,
         0.056331049234909836, 0.055759595572134835, 0.0555578852381754],
        [0.12744718255185739, 0.12354196060714706, 0.12000122978539018,
         0.11685687788817112, 0.11414803008614993, 0.11192238756330297,
         0.11023778589167765, 0.1091639984797188, 0.10878480771688614],
        [0.18586565544323397, 0.18042295148863752, 0.1754762706931594,
         0.17107391267422, 0.16727424068370111, 0.1641475182655856,
         0.1617780128588011, 0.16026638102049218, 0.15973233712182344],
        [0.2409476680853212, 0.23421199173112472, 0.22807543050364165,
         0.22260245111755372, 0.2178699900938108, 0.21396968195976018,
         0.21101036794743577, 0.20912087735421714, 0.20845304695673084],
        [0.29283928801329384, 0.28503259662745783, 0.2779032881844965,
         0.2715314211843123, 0.26601157483422055, 0.26145536999563024,
         0.25799425579443924, 0.2557825222225718, 0.2550004557369312],
    ],
    "x_average": [
        [0.0, 0.0, 0.0,
         0.0, 0.0, 0.0,
         0.0, 0.0, 0.0],
        [0.01799433166333797, 0.01740840883120376, 0.016879029293287107,
         0.016410373529332944, 0.016007715995599248, 0.015677629015622196,
         0.015428225753177482, 0.015269449327820594, 0.01521341623467487],
        [0.035637205965992846, 0.0345061220442443, 0.033482897875140916,
         0.03257603662258124, 0.031796139892179776, 0.03115629948965426,
         0.030672560983217467, 0.03036447087128924, 0.030255720442050604],
        [0.0529317065420406, 0.051294754087699235, 0.049812049481587684,
         0.048496514473308605, 0.047364091887852844, 0.046434309148650765,
         0.045730940463474146, 0.045282782105866115, 0.04512455589825959],
        [0.06988102132390162, 0.06777602451793951, 0.06586702629073227,
         0.06417141978998842, 0.06271046705650052, 0.06151001828236102,
         0.06060135119640364, 0.06002214573906628, 0.05981760856980567],
        [0.08648844202713146, 0.08395175977508251, 0.08164847256477015,
         0.07960045789469394, 0.07783424153454488, 0.07638185670247455,
         0.07528183988148851, 0.07458037746886892, 0.07433261496823407],
    ],
}


def test_march_matches_pinned_bed():
    res = march_bed(FIG9, dtau=0.05, tau_end=0.5, n_eta=65, n_radial=51,
                    n_segments=16, samples=6)
    for name, want in BED_PIN.items():
        got = getattr(res, name)[:, ::8]
        assert np.max(np.abs(got - np.asarray(want))) <= 1e-12, name


def test_march_validates_inputs():
    for dtau in (-0.1, math.nan):  # a NaN dtau used to fail converting NaN to an integer
        with pytest.raises(SolverError, match="dtau and tau_end must be positive"):
            march_bed(FIG9, dtau=dtau, tau_end=1.0, n_eta=257, n_radial=101, n_segments=64,
                      samples=101)
    with pytest.raises(SolverError):
        march_bed(FIG9, dtau=0.1, tau_end=1.0, n_eta=257, n_radial=100, n_segments=64,
                  samples=101)
