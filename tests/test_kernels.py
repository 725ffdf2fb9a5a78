import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassolid import (
    PelletGeometry,
    SeriesControl,
    SolverError,
    SpatialGrid,
    front_time,
    m_coth_m_minus_1,
    profile_qss,
    profile_unsteady,
    second_stage_profiles,
    solve_moving_boundary,
)
from gassolid.kernels import (
    _series_basis,
    _series_terms,
    exposure_increment,
    filmed_sphere_ratio,
    front_bracket,
    shape_ratio,
    slab_ratio,
    sphere_ratio,
)

SLAB = PelletGeometry(1)
SPHERE = PelletGeometry(3)


def _full_series(M, scale, y, geom, n_terms):
    """Coefficients and decay rates of all n_terms modes, mode by mode."""
    M = np.broadcast_to(np.asarray(M, dtype=float), y.shape)
    coef, omega = [], []
    for k in range(1, n_terms + 1):
        if geom.is_sphere:
            lam = k * math.pi
            safe_y = np.where(y > 0.0, y, 1.0)
            phi = np.where(y > 0.0, np.sin(lam * y) / safe_y, lam)
        else:
            lam = (2 * k - 1) * math.pi / 2.0
            phi = np.cos(lam * y)
        denom = M**2 + lam**2
        coef.append(2.0 * lam * (-1.0) ** k * phi / denom)
        omega.append(denom / scale)
    return np.array(coef), np.array(omega)


# --- closed-form profile shapes ----------------------------------------------


def test_sphere_profile_value(grid):
    # sinh(0.5)/(0.5 sinh 1)
    want = math.sinh(0.5) / (0.5 * math.sinh(1.0))
    prof = profile_qss(1.0, grid, SPHERE)
    assert prof.values[100] == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.8868188839700739, abs=1e-12)


def test_slab_profile_value(grid):
    prof = profile_qss(2.0, grid, SLAB)
    assert prof.values[0] == pytest.approx(1.0 / math.cosh(2.0), abs=1e-12)
    assert prof.values[0] == pytest.approx(0.2658022288340797, abs=1e-12)


def test_zero_modulus_gives_uniform_gas(grid):
    for geom in (SLAB, SPHERE):
        assert np.all(profile_qss(0.0, grid, geom).values == 1.0)


def test_center_limit_matches_neighbor(grid):
    # y -> 0 evaluation is the analytic limit, not a 0/0
    prof = profile_qss(3.0, grid, SPHERE)
    assert prof.values[0] == pytest.approx(3.0 / math.sinh(3.0), rel=1e-12)
    assert prof.values[1] > prof.values[0]


@pytest.mark.parametrize("modulus", [1e-12, 1e-4, 1.0, 50.0, 400.0, 1e4, 1e8])
def test_profiles_stable_for_any_modulus(grid, modulus):
    for geom in (SLAB, SPHERE):
        vals = profile_qss(modulus, grid, geom).values
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0) and vals[-1] == pytest.approx(1.0)
        assert np.all(np.diff(vals) >= -1e-13)  # nondecreasing toward surface


def test_profile_decreases_with_modulus(grid):
    prev = None
    for modulus in (0.5, 1.0, 2.0, 5.0, 20.0):
        vals = profile_qss(modulus, grid, SPHERE).values
        if prev is not None:
            assert np.all(vals[:-1] <= prev[:-1] + 1e-13)
        prev = vals


def test_per_node_modulus_evaluation(grid):
    # each node may carry its own frozen modulus
    m = np.linspace(0.5, 2.0, grid.n)
    vals = profile_qss(m, grid, SPHERE).values
    single = [profile_qss(float(mi), grid, SPHERE).values[i] for i, mi in enumerate(m)]
    assert np.allclose(vals, single, atol=1e-14)


def test_scaled_ratio_identities():
    y = np.linspace(0.0, 1.0, 11)
    for m in (0.3, 2.0, 8.0):
        assert np.allclose(slab_ratio(m, y), np.cosh(m * y) / np.cosh(m), rtol=1e-13)
        s = sphere_ratio(m, y[1:], 0.7)
        ref = (np.sinh(m * y[1:]) / y[1:]) / (np.sinh(m * 0.7) / 0.7)
        assert np.allclose(s, ref, rtol=1e-12)


def test_m_coth_m_minus_1_small_and_large():
    assert m_coth_m_minus_1(0.0) == 0.0
    for x in (1e-6, 1e-4, 0.01, 0.5, 3.0, 50.0):
        ref = x / math.tanh(x) - 1.0
        assert m_coth_m_minus_1(x) == pytest.approx(ref, rel=1e-10)


def test_film_factor_satisfies_robin(grid):
    # c (M coth M - 1) = sh (1 - c) is the surface balance of the scaled profile
    for m, sh in [(1.0, 5.0), (4.0, 0.5), (0.01, 10.0)]:
        c = filmed_sphere_ratio(m, 1.0, sh)
        assert c * m_coth_m_minus_1(m) == pytest.approx(sh * (1.0 - c), rel=1e-12)
        filmed = profile_qss(m, grid, SPHERE, sh).values
        assert np.allclose(filmed, c * sphere_ratio(m, grid.y), rtol=1e-13, atol=0.0)
    assert np.array_equal(profile_qss(2.0, grid, SPHERE, None).values, sphere_ratio(2.0, grid.y))


def _m_coth_m_minus_1_exact(M):
    """M coth M - 1 to a few ulp: the series below 1e-2, else M / tanh(M) - 1.

    The reference does not use kernels.m_coth_m_minus_1, whose 1 - exp(-2M)
    cancels just above its 1e-4 series cutoff (absolute error up to 3e-13).
    """
    small = M < 1e-2
    m = np.where(small, 1.0, M)
    series = M**2 / 3.0 - M**4 / 45.0 + 2.0 * M**6 / 945.0 - M**8 / 4725.0
    return np.where(small, series, m / np.tanh(m) - 1.0)


@st.composite
def _filmed_nodes(draw):
    # y > 0 stays above 1e-12: near 1e-300 the product 2 M y is subnormal
    # in the kernel and in sphere_ratio alike, and both lose digits.  sh stays
    # at 0.1 or more: for small M the bracket loses log10(delta/sh) digits.
    n = draw(st.integers(1, 24))
    nodes = st.tuples(
        st.floats(1e-9, 1e-4) | st.floats(1e-9, 50.0),  # M, small moduli drawn apart
        st.just(0.0) | st.floats(1e-12, 1.0),             # y, the centre included
        st.just(0.0) | st.floats(0.0, 1.0),               # delta, 0 included
    )
    m, y, delta = (np.array(col) for col in zip(*draw(st.lists(nodes, min_size=n, max_size=n))))
    return m, y, delta, draw(st.floats(0.1, 1e3))


@settings(max_examples=200, deadline=None)
@given(_filmed_nodes())
def test_filmed_sphere_matches_product_form(case):
    # sh sinh(My) / (y [delta M cosh M + (sh - delta) sinh M]) is the sphere
    # shape times the film factor 1 / (1 + (delta/sh) [M coth M - 1])
    m, y, delta, sh = case
    ref = sphere_ratio(m, y) / (1.0 + (delta / sh) * _m_coth_m_minus_1_exact(m))
    np.testing.assert_allclose(filmed_sphere_ratio(m, y, sh, delta), ref, rtol=1e-13, atol=0.0)
    # delta = 0 removes the film: the plain sphere shape
    np.testing.assert_allclose(filmed_sphere_ratio(m, y, sh, 0.0), sphere_ratio(m, y),
                               rtol=1e-13, atol=0.0)


def test_filmed_sphere_small_modulus_pin():
    # M = 1e-8, Bi 50: the exact a/Y (mpmath, 50 digits) rounds to 1 at these
    # nodes; forming 1 - exp(-2M) by subtraction was off by 1.6e-9 inside
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        m, bi = mp.mpf("1e-8"), mp.mpf(50)
        for y in (0.0, 0.5, 1.0):
            shape = m if y == 0.0 else mp.sinh(m * y) / y
            exact = bi * shape / (m * mp.cosh(m) + (bi - 1) * mp.sinh(m))
            got = filmed_sphere_ratio(1e-8, y, 50.0)
            assert abs(got - exact) / exact <= 1e-15


# --- unsteady eigen-series -----------------------------------------------------


def test_unsteady_starts_empty(grid):
    ctl = SeriesControl(max_terms=200)
    for geom in (SLAB, SPHERE):
        prof = profile_unsteady(1.0, 0.0, 0.1, grid, geom, ctl)
        assert np.max(np.abs(prof.values[:-1])) <= 1e-6
        assert prof.values[-1] == pytest.approx(1.0)


def test_unsteady_fully_decayed_transient(grid):
    # M=1, sphere, psi*phi^2=0.1, theta=5: transient fully decayed
    prof = profile_unsteady(1.0, 5.0, 0.1, grid, SPHERE)
    ref = profile_qss(1.0, grid, SPHERE)
    assert np.max(np.abs(prof.values - ref.values)) <= 1e-6
    assert prof.values[100] == pytest.approx(math.sinh(0.5) / (0.5 * math.sinh(1.0)), abs=1e-9)


def test_unsteady_relaxes_monotonically_to_steady(grid):
    ref = profile_qss(1.0, grid, SPHERE).values
    last = -1.0
    for theta in (0.01, 0.05, 0.1, 0.3, 1.0):
        vals = profile_unsteady(1.0, theta, 0.1, grid, SPHERE).values
        err = np.max(np.abs(vals - ref))
        gas = vals[grid.n // 2]
        assert gas >= last - 1e-12
        last = gas
    assert err <= 1e-8


def test_unsteady_series_warning_attached(grid):
    ctl = SeriesControl(max_terms=3, term_tol=1e-10)
    prof = profile_unsteady(1.0, 1e-4, 0.5, grid, SPHERE, ctl)
    assert prof.warning is not None


def test_unsteady_requires_positive_scale(grid):
    with pytest.raises(SolverError):
        profile_unsteady(1.0, 0.1, 0.0, grid, SPHERE)
    with pytest.raises(SolverError):
        profile_unsteady(1.0, -0.1, 0.1, grid, SPHERE)


def test_exposure_increment_validates_inputs(grid):
    with pytest.raises(SolverError):
        exposure_increment(1.0, 0.0, 0.1, 0.0, grid, SPHERE)
    with pytest.raises(SolverError):
        exposure_increment(1.0, 0.1, 0.2, -0.5, grid, SLAB)
    with pytest.raises(SolverError):
        exposure_increment(1.0, 0.1, 0.2, np.full(grid.n, -0.5), grid, SPHERE)
    with pytest.raises(SolverError):
        exposure_increment(1.0, -0.1, 0.2, 0.1, grid, SPHERE)
    for scale in (0.1, None):
        with pytest.raises(SolverError):
            exposure_increment(1.0, 0.2, 0.1, scale, grid, SPHERE)


@pytest.mark.parametrize("geom", [SLAB, SPHERE])
@pytest.mark.parametrize("per_node", [False, True])
@pytest.mark.parametrize("n_terms", [3, 200])
def test_series_terms_match_direct_formula(grid, geom, per_node, n_terms):
    M = np.linspace(0.3, 4.0, grid.n) if per_node else 1.7
    scale = 0.2
    coef, omega = _series_terms(M, scale, 0.0, grid.y, geom, n_terms)
    want_coef, want_omega = _full_series(M, scale, grid.y, geom, n_terms)
    assert coef.shape == omega.shape == (n_terms, grid.n)
    np.testing.assert_allclose(coef, want_coef, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(omega, want_omega, rtol=1e-15, atol=0.0)


def test_series_terms_keep_first_dead_mode(grid):
    M = np.linspace(0.3, 4.0, grid.n)
    scale, theta = np.linspace(0.1, 0.3, grid.n), 0.05
    coef, omega = _series_terms(M, scale, theta, grid.y, SPHERE, 200)
    n_live = len(coef)
    assert 1 < n_live < 200
    assert np.min(omega[-1]) * theta >= 36.0 > np.min(omega[-2]) * theta
    want_coef, want_omega = _full_series(M, scale, grid.y, SPHERE, 200)
    np.testing.assert_allclose(coef, want_coef[:n_live], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(omega, want_omega[:n_live], rtol=1e-15, atol=0.0)


def test_series_basis_cached_and_read_only():
    y = SpatialGrid(157).y
    _series_terms(1.0, 0.1, 0.0, y, SPHERE, 200)
    misses = _series_basis.cache_info().misses
    _series_terms(2.0, 0.3, 0.0, SpatialGrid(157).y, SPHERE, 200)
    assert _series_basis.cache_info().misses == misses
    lam_sq, basis = _series_basis(y.tobytes(), True, 200)
    assert _series_basis(SpatialGrid(157).y.tobytes(), True, 200)[1] is basis
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0
    with pytest.raises(ValueError):
        lam_sq[0] = 0.0


def _full_profile(M, theta, scale, grid, geom, ctl):
    """profile_unsteady summed over all max_terms modes."""
    steady = shape_ratio(geom, M, grid.y)
    coef, omega = _full_series(M, scale, grid.y, geom, ctl.max_terms)
    warning = None
    if np.min(omega[0]) * theta >= 36.0:
        values = steady.copy()
    elif np.min(omega[-1]) * theta >= 36.0:
        terms = coef * np.exp(-omega * theta)
        values = steady + terms.sum(axis=0) - 0.5 * terms[-1]
    else:
        terms = coef * np.expm1(-omega * theta)
        values = np.clip(terms.sum(axis=0) - 0.5 * terms[-1], 0.0, 1.0)
        if np.max(np.abs(terms[-1])) > ctl.term_tol and theta > 0.0:
            warning = "tail"
    values[-1] = steady[-1]
    return values, warning


def _full_exposure(M, theta0, theta1, scale, grid, geom, ctl):
    """exposure_increment summed over all max_terms modes (Dirichlet surface)."""
    dtheta = theta1 - theta0
    steady = shape_ratio(geom, M, grid.y)
    coef, omega = _full_series(M, scale, grid.y, geom, ctl.max_terms)
    if np.min(omega[0]) * theta0 >= 36.0:
        return steady * dtheta, None
    terms = coef * (-np.exp(-omega * theta0) * np.expm1(-omega * dtheta) / omega)
    warning = "tail" if np.max(np.abs(terms[-1])) > ctl.term_tol * max(dtheta, 1e-300) else None
    out = steady * dtheta + terms.sum(axis=0) - 0.5 * terms[-1]
    out[-1] = steady[-1] * dtheta
    return out, warning


_N_PROP = 101
_modulus = st.one_of(st.floats(0.0, 30.0), hnp.arrays(float, _N_PROP, elements=st.floats(0.0, 30.0)))
_scale = st.one_of(st.floats(1e-3, 10.0), hnp.arrays(float, _N_PROP, elements=st.floats(1e-3, 10.0)))
_theta = st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 20.0))


@settings(max_examples=80, deadline=None)
@given(M=_modulus, scale=_scale, theta=_theta, dtheta=st.floats(0.0, 0.5),
       sphere=st.booleans(), n_terms=st.sampled_from([3, 40, 200]))
def test_live_mode_cut_matches_full_series(M, scale, theta, dtheta, sphere, n_terms):
    grid = SpatialGrid(_N_PROP)
    geom = SPHERE if sphere else SLAB
    ctl = SeriesControl(max_terms=n_terms)
    prof = profile_unsteady(M, theta, scale, grid, geom, ctl)
    want, want_warn = _full_profile(M, theta, scale, grid, geom, ctl)
    assert np.max(np.abs(prof.values - want)) <= 1e-14
    assert (prof.warning is None) == (want_warn is None)
    dg, warn = exposure_increment(M, theta, theta + dtheta, scale, grid, geom, ctl=ctl)
    want, want_warn = _full_exposure(M, theta, theta + dtheta, scale, grid, geom, ctl)
    assert np.max(np.abs(dg - want)) <= 1e-14
    assert (warn is None) == (want_warn is None)


def test_exposure_increment_quasi_steady_is_a_dtheta(grid):
    dg, warn = exposure_increment(1.5, 0.3, 0.45, None, grid, SPHERE)
    assert warn is None
    assert np.allclose(dg, profile_qss(1.5, grid, SPHERE).values * 0.15, atol=1e-15)


def test_exposure_increment_matches_quadrature(grid):
    # independent check: trapezoidal quadrature of the unsteady profile
    m, scale = 1.0, 0.1
    for (t0, t1), tol in [((0.02, 0.08), 3e-8), ((0.0, 0.05), 3e-5)]:
        ts = np.linspace(t0, t1, 1201)
        prof = np.array([profile_unsteady(m, t, scale, grid, SPHERE).values for t in ts])
        prof[:, -1] = 1.0
        quad = np.trapezoid(prof, ts, axis=0)
        dg, _ = exposure_increment(m, t0, t1, scale, grid, SPHERE)
        assert np.max(np.abs(dg - quad)) <= tol


# --- moving boundary ----------------------------------------------------------


def test_front_time_at_surface_is_theta_c():
    for geom in (SLAB, SPHERE):
        for m in (0.5, 2.0, 10.0):
            assert front_time(1.0, m, geom, theta_c=1.7) == pytest.approx(1.7, abs=1e-14)
    assert front_time(1.0, 2.0, SPHERE, theta_c=1.3, sherwood=5.0) == pytest.approx(1.3, abs=1e-14)


def test_front_time_monotone_decreasing_in_y_m():
    ys = np.linspace(0.0, 1.0, 201)
    for geom in (SLAB, SPHERE):
        for sh in ((None,) if geom is SLAB else (None, 4.0)):
            vals = [front_time(float(y), 2.0, geom, 1.0, sh) for y in ys]
            assert np.all(np.diff(vals) < 0.0)


def test_front_relation_slab_fixture():
    # theta(0.5; M=2) = 1 + 2*0.25 + 2*0.5*tanh(1)
    want = 1.0 + 0.5 + math.tanh(1.0)
    got = front_time(0.5, 2.0, SLAB, theta_c=1.0)
    assert got == pytest.approx(2.2615941559557649, abs=1e-12)
    assert got == pytest.approx(want, abs=1e-14)
    back = solve_moving_boundary(got, 2.0, SLAB, theta_c=1.0)
    assert back == pytest.approx(0.5, abs=1e-8)


def test_front_complete_conversion_limit():
    # slab: theta(0) = 1 + M^2/2, tanh term vanishes
    assert solve_moving_boundary(1.0 + 2.0, 2.0, SLAB, theta_c=1.0) == 0.0
    assert solve_moving_boundary(10.0, 2.0, SLAB, theta_c=1.0) == 0.0


def test_front_at_stage_boundary():
    assert solve_moving_boundary(1.0, 2.0, SLAB, theta_c=1.0) == 1.0
    assert solve_moving_boundary(0.3, 2.0, SPHERE, theta_c=1.0) == 1.0


def test_front_zero_modulus_sweeps_instantly():
    # no diffusion resistance: the relation collapses to theta == theta_c
    assert solve_moving_boundary(1.0 + 1e-9, 0.0, SPHERE, theta_c=1.0) == 0.0


def test_front_bracket_center_values():
    assert front_bracket(SLAB, 2.0, 0.0) == pytest.approx(2.0)  # M^2/2
    assert front_bracket(SPHERE, 3.0, 0.0) == pytest.approx(1.5)  # M^2/6


# --- second-stage profiles ------------------------------------------------------


@pytest.mark.parametrize("geom,sh", [(SLAB, None), (SPHERE, None), (SPHERE, 5.0)])
def test_second_stage_continuity(grid, geom, sh):
    m, y_m = 2.0, 0.5
    two = second_stage_profiles(y_m, m, grid, geom, sh)
    i = np.searchsorted(grid.y, y_m)
    vals = two.values
    # value continuity across the front (adjacent nodes straddle y_m)
    assert abs(vals[i] - vals[i - 1]) < 0.02
    assert vals[i - 1] == pytest.approx(two.a_m, abs=5e-3)
    # the outer shell is pure diffusion: exactly linear (slab) / harmonic (sphere)
    outer = grid.y > y_m
    if geom is SLAB:
        slope = np.diff(vals[outer]) / grid.h
        assert np.allclose(slope, slope[0], atol=1e-10)
    else:
        harm = (vals[outer] - vals[outer][-1] * 0) * grid.y[outer]
        # A*y + B form in y*a
        slope = np.diff(harm) / grid.h
        assert np.allclose(slope, slope[0], atol=1e-10)


def test_second_stage_dirichlet_surface(grid):
    two = second_stage_profiles(0.5, 2.0, grid, SPHERE, None)
    assert two.values[-1] == pytest.approx(1.0, abs=1e-14)
    twos = second_stage_profiles(0.5, 2.0, grid, SLAB, None)
    assert twos.values[-1] == pytest.approx(1.0, abs=1e-14)


def test_second_stage_robin_surface(grid):
    sh = 5.0
    two = second_stage_profiles(0.5, 2.0, grid, SPHERE, sh)
    q = m_coth_m_minus_1(2.0 * 0.5)
    # analytic flux at the surface equals sh (1 - a(1))
    flux = two.a_m * q * 0.5
    assert flux == pytest.approx(sh * (1.0 - two.values[-1]), rel=1e-12)


def test_second_stage_converges_to_first_stage(grid):
    m = 2.0
    ref = profile_qss(m, grid, SPHERE).values
    two = second_stage_profiles(1.0 - 1e-9, m, grid, SPHERE)
    assert np.max(np.abs(two.values - ref)) < 1e-6


def test_second_stage_front_value_matches_shape(grid):
    m, y_m = 2.0, 0.5
    two = second_stage_profiles(y_m, m, grid, SPHERE)
    inner = grid.y <= y_m
    ref = two.a_m * shape_ratio(SPHERE, m, grid.y[inner], y_m)
    assert np.allclose(two.values[inner], ref, atol=1e-14)


def test_second_stage_rejects_bad_front(grid):
    with pytest.raises(SolverError):
        second_stage_profiles(0.0, 1.0, grid, SPHERE)
    with pytest.raises(SolverError):
        second_stage_profiles(1.0, 1.0, grid, SPHERE)
    with pytest.raises(SolverError):
        second_stage_profiles(0.5, 1.0, grid, SLAB, sherwood=3.0)


def test_step_profile_depends_only_on_frozen_state(grid):
    # the gas profile is a pure function of the lagged solid through M
    from gassolid import build_model, make_stepper

    p = build_model({"kind": "volume_first_order", "phi_v": 2.0})
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    state, _, _ = stepper.step(state, 0.37)
    m, _, _ = stepper.modulus(state.solid, state.exposure)
    prof_direct = profile_qss(m, grid, SPHERE)
    prof_reported = stepper.current_profile(state)
    assert np.array_equal(prof_direct.values, prof_reported.values)
