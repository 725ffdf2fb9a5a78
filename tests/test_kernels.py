import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gassolid import (
    PelletGeometry,
    SolverError,
    SpatialGrid,
    front_time,
    m_coth_m_minus_1,
    profile_qss,
    profile_unsteady,
    second_stage_profiles,
    solve_moving_boundary,
)
from gassolid import kernels
from gassolid.kernels import (
    _series_basis,
    _series_terms,
    exposure_increment,
    filmed_sphere_ratio,
    front_bracket,
    shape_ratio,
    slab_ratio,
)

SLAB = PelletGeometry(1)
SPHERE = PelletGeometry(3)


def _exact(fn, *arrays):
    """fn(mp, *node) at every node of the broadcast arrays, in 50-digit mpmath.

    The references built with it share no expression with the kernels.
    """
    mp = pytest.importorskip("mpmath")
    cols = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    with mp.workdps(50):
        out = [float(fn(mp, *map(mp.mpf, node))) for node in zip(*(c.ravel() for c in cols))]
    return np.array(out).reshape(cols[0].shape)


def _sphere_shape(mp, m, y, y_ref=1.0):
    """[sinh(My)/y] / [sinh(M y_ref)/y_ref]; the centre takes the limit M."""
    if m == 0:
        return mp.mpf(1)
    return (m if y == 0 else mp.sinh(m * y) / y) * y_ref / mp.sinh(m * y_ref)


def _filmed_sphere(mp, m, y, sh, delta):
    """The sphere shape times the film factor 1 / (1 + (delta/sh) [M coth M - 1])."""
    return _sphere_shape(mp, m, y) / (1 + (delta / sh) * (m / mp.tanh(m) - 1 if m else 0))


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


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(float, 201, elements=st.floats(-9.0, math.log10(50.0))))
def test_dirichlet_sphere_profile_within_unit_interval(log_m):
    # M log-uniform in [1e-9, 50] per node; without the kernel's cap at 1,
    # rounding leaves small-M shapes up to 4.4e-16 above 1
    grid = SpatialGrid(201)
    m = 10.0**log_m
    decayed = profile_unsteady(m, 50.0, 0.1, grid, SPHERE)  # the steady part only
    assert decayed._transient is None
    for values in (profile_qss(m, grid, SPHERE).values, decayed.values):
        assert np.all((values >= 0.0) & (values <= 1.0))


_SURFACES = [(SPHERE, None), (SPHERE, 5.0), (SLAB, None)]


@settings(max_examples=60, deadline=None)
@given(log_m=hnp.arrays(float, 201, elements=st.floats(-9.0, math.log10(50.0))),
       surface=st.sampled_from(_SURFACES), y_m=st.floats(0.01, 0.99),
       log_front=st.floats(-9.0, math.log10(50.0)))
@example(log_m=np.full(201, -8.5), surface=_SURFACES[0], y_m=0.988, log_front=1.585)
@example(log_m=np.full(201, -8.5), surface=_SURFACES[1], y_m=0.971, log_front=-7.722)
@example(log_m=np.full(201, -8.5), surface=_SURFACES[2], y_m=0.99, log_front=-7.752)
def test_slab_and_second_stage_profiles_within_unit_interval(log_m, surface, y_m, log_front):
    # M log-uniform in [1e-9, 50]; without their caps at 1, rounding leaves the
    # slab shape 2.2e-16 and the second-stage shell 3.6e-15 above 1
    grid = SpatialGrid(201)
    geom, sh = surface
    for values in (profile_qss(10.0**log_m, grid, SLAB).values,
                   second_stage_profiles(y_m, 10.0**log_front, grid, geom, sh)):
        assert np.all((values >= 0.0) & (values <= 1.0))


def test_scaled_ratio_identities():
    # the second-stage core is the shape with the front as its surface:
    # shape(M y_m, y / y_m) = shape(M, y) / shape(M, y_m) for y <= y_m
    y = np.linspace(0.0, 1.0, 11)
    core = y[y <= 0.7]
    # one unmasked slab pass: exactly 1 at M = 0, no inf/inf at the plugged modulus 1e4
    for m in (0.0, 0.3, 2.0, 8.0, 1e4):
        with np.errstate(invalid="raise", divide="raise"):
            slab = slab_ratio(m, y)
        assert np.allclose(slab, _exact(lambda mp, m, y: mp.cosh(m * y) / mp.cosh(m), m, y),
                           rtol=1e-13, atol=0.0)
    assert np.all(slab_ratio(0.0, y) == 1.0)
    for m in (0.3, 2.0, 8.0):
        s = shape_ratio(SLAB, m * 0.7, core / 0.7)
        assert np.allclose(s, np.cosh(m * core) / np.cosh(m * 0.7), rtol=1e-13)
        s = shape_ratio(SPHERE, m * 0.7, core / 0.7)
        assert np.allclose(s, _exact(_sphere_shape, m, core, 0.7), rtol=1e-12)


@pytest.mark.parametrize("ratio,exact", [
    (lambda m, y: shape_ratio(SPHERE, m, y), lambda m, y: _exact(_sphere_shape, m, y)),
    (lambda m, y: filmed_sphere_ratio(m, y, 5.0, 0.7),
     lambda m, y: _exact(_filmed_sphere, m, y, 5.0, 0.7)),
], ids=["sphere", "filmed_sphere"])
def test_sphere_shapes_at_subnormal_y(ratio, exact):
    # 1 / y overflows to inf below the smallest normal y, and at a normal y
    # with a subnormal 2My, expm1(-2My) loses digits (1.6e-8 at M 2e-9,
    # y 2.3e-308); there the shape equals its centre value to O((My)^2)
    subnormal = np.geomspace(5e-324, 2.2e-308, 60)
    assert np.all(subnormal < np.finfo(float).tiny)
    normal = np.geomspace(2.3e-308, 1e-290, 60)
    for y, moduli in ((subnormal, (1e-6, 0.3, 2.0, 50.0)), (normal, (2e-9, 1e-6, 1e-3))):
        for m in moduli:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                got = ratio(m, y)
            np.testing.assert_allclose(got, exact(m, 0.0), rtol=1e-15, atol=0.0)


def test_m_coth_m_minus_1_small_and_large():
    assert m_coth_m_minus_1(0.0) == 0.0
    for x in (1e-6, 1e-4, 0.01, 0.5, 3.0, 50.0):
        ref = x / math.tanh(x) - 1.0
        assert m_coth_m_minus_1(x) == pytest.approx(ref, rel=1e-10)


def test_m_coth_m_minus_1_against_mpmath():
    # q = -expm1(-2x) in x (2 - q) / q - 1; forming 1 - exp(-2x) by
    # subtraction was off by 3e-13 just above the former 1e-4 series cutoff
    mp = pytest.importorskip("mpmath")
    xs = np.concatenate([[0.0], np.geomspace(1e-8, 50.0, 400)])
    got = [m_coth_m_minus_1(float(x)) for x in xs]
    with mp.workdps(50):
        exact = [mp.mpf(x) / mp.tanh(mp.mpf(x)) - 1 if x else mp.mpf(0) for x in xs]
        err = max(abs(mp.mpf(g) - e) for g, e in zip(got, exact))
    assert err <= 1e-14


def test_film_factor_satisfies_robin(grid):
    # c (M coth M - 1) = sh (1 - c) is the surface balance of the scaled profile
    for m, sh in [(1.0, 5.0), (4.0, 0.5), (0.01, 10.0)]:
        c = filmed_sphere_ratio(m, 1.0, sh)
        assert c * m_coth_m_minus_1(m) == pytest.approx(sh * (1.0 - c), rel=1e-12)
        filmed = profile_qss(m, grid, SPHERE, sh).values
        assert np.allclose(filmed, c * _exact(_sphere_shape, m, grid.y), rtol=1e-13, atol=0.0)
    # the Dirichlet sphere is the filmed kernel without a film
    plain = profile_qss(2.0, grid, SPHERE, None).values
    assert np.array_equal(plain, filmed_sphere_ratio(2.0, grid.y, 1.0, 0.0))


@st.composite
def _filmed_nodes(draw):
    # sh stays at 0.1 or more: for small M the bracket loses log10(delta/sh) digits.
    n = draw(st.integers(1, 24))
    nodes = st.tuples(
        st.floats(1e-9, 1e-4) | st.floats(1e-9, 50.0),  # M, small moduli drawn apart
        st.just(0.0) | st.floats(5e-324, 1.0),            # y, the centre included
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
    ref = _exact(_filmed_sphere, m, y, sh, delta)
    np.testing.assert_allclose(filmed_sphere_ratio(m, y, sh, delta), ref, rtol=1e-13, atol=0.0)
    # delta = 0 removes the film: the plain sphere shape
    np.testing.assert_allclose(filmed_sphere_ratio(m, y, sh, 0.0), _exact(_sphere_shape, m, y),
                               rtol=1e-13, atol=0.0)


@st.composite
def _bed_layout(draw, shape=None):
    # march_bed's call: per-node M of shape (n_eta, n_radial) against y of
    # shape (1, n_radial), with a scalar or a per-node delta
    n_eta, n_radial = shape or (draw(st.integers(1, 6)), draw(st.integers(1, 8)))
    modulus = (st.just(0.0) | st.floats(0.0, 1e-9) | st.floats(1e-9, 50.0)
               | st.just(1e4))  # the stepper's plugged modulus
    m = draw(hnp.arrays(float, (n_eta, n_radial), elements=modulus))
    y = draw(hnp.arrays(float, (1, n_radial),
                        elements=st.sampled_from([0.0, 5e-324]) | st.floats(0.0, 1.0)))
    delta = draw(st.floats(0.0, 1.0)
                 | hnp.arrays(float, (n_eta, n_radial), elements=st.floats(0.0, 1.0)))
    return m, y, delta, draw(st.floats(0.1, 1e3))


@settings(max_examples=150, deadline=None)
@given(_bed_layout())
def test_filmed_sphere_one_pass_matches_scalar_calls(case):
    # the unmasked pass gives every node the value a call on that node alone gives
    m, y, delta, sh = case
    got = filmed_sphere_ratio(m, y, sh, delta)
    assert got.shape == m.shape
    nodes = zip(m.ravel(), np.broadcast_to(y, m.shape).ravel(),
                np.broadcast_to(delta, m.shape).ravel())
    want = np.array([filmed_sphere_ratio(float(mi), float(yi), sh, float(di))
                     for mi, yi, di in nodes]).reshape(m.shape)
    assert got.tobytes() == want.tobytes()
    assert np.all((got >= 0.0) & (got <= 1.0))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_filmed_sphere_reused_workspace_matches_fresh_call(data):
    # one workspace serves two calls in a row on different inputs (dead nodes,
    # y = 0, subnormal y, per-node delta): no value left in a buffer by a
    # previous call or by the caller reaches a result
    shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 8)))
    work = np.full((4, *shape), data.draw(st.sampled_from([0.0, 1.0, math.nan])))
    for _ in range(2):
        m, y, delta, sh = data.draw(_bed_layout(shape))
        got = filmed_sphere_ratio(m, y, sh, delta, work=work)
        assert np.shares_memory(got, work[0])
        assert got.tobytes() == filmed_sphere_ratio(m, y, sh, delta).tobytes()


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
    for geom in (SLAB, SPHERE):
        prof = profile_unsteady(1.0, 0.0, 0.1, grid, geom)
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


def test_unsteady_series_warning_attached():
    # at theta = 1e-6 the 200th term is still live, with tails of 1.09
    # (sphere) and 1.7e-3 (slab) against the 1e-10 tolerance; at 1e-3 it is dead
    grid = SpatialGrid(201)
    for geom in (SLAB, SPHERE):
        assert profile_unsteady(1.0, 1e-6, 0.5, grid, geom).truncated
        assert not profile_unsteady(1.0, 1e-3, 0.5, grid, geom).truncated


def test_unsteady_clip_is_reported():
    # on the slab at theta 1.26e-14 (M 2, scale 1) the last term, 1.6e-11, is
    # under the 1e-10 tolerance, but the smoothed sum dips 5.0e-10 below 0 at
    # an open node; the clip to [0, 1] hides that, so the profile reports it
    grid, theta = SpatialGrid(201), 1.26e-14
    coef, omega = _series_terms(2.0, 1.0, theta, grid.y, SLAB, 200)
    terms = coef * np.expm1(-omega * theta)
    summed = terms.sum(axis=0) - 0.5 * terms[-1]
    assert np.max(np.abs(terms[-1])) < 1e-10 < -np.min(summed[:-1])
    prof = profile_unsteady(2.0, theta, 1.0, grid, SLAB)
    assert prof.truncated
    assert np.min(prof.values) == 0.0


def test_unsteady_requires_positive_scale(grid):
    with pytest.raises(SolverError):
        profile_unsteady(1.0, 0.1, 0.0, grid, SPHERE)
    with pytest.raises(SolverError):
        profile_unsteady(1.0, 0.1, -0.5, grid, SLAB)
    with pytest.raises(SolverError):
        profile_unsteady(1.0, 0.1, np.full(grid.n, -0.5), grid, SPHERE)
    with pytest.raises(SolverError):
        profile_unsteady(1.0, -0.1, 0.1, grid, SPHERE)


def test_exposure_increment_validates_inputs(grid):
    for prof in (profile_unsteady(1.0, 0.1, 0.1, grid, SPHERE),
                 profile_unsteady(1.0, 50.0, 0.1, grid, SPHERE),
                 profile_qss(1.0, grid, SPHERE)):
        with pytest.raises(SolverError):
            exposure_increment(prof, -0.1)


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


def _full_profile(M, theta, scale, grid, geom, n_terms):
    """profile_unsteady summed over all n_terms modes."""
    steady = shape_ratio(geom, M, grid.y)
    coef, omega = _full_series(M, scale, grid.y, geom, n_terms)
    truncated = False
    if np.min(omega[0]) * theta >= 36.0:
        values = steady.copy()
    elif np.min(omega[-1]) * theta >= 36.0:
        terms = coef * np.exp(-omega * theta)
        values = steady + terms.sum(axis=0) - 0.5 * terms[-1]
    else:
        terms = coef * np.expm1(-omega * theta)
        summed = terms.sum(axis=0) - 0.5 * terms[-1]
        values = np.clip(summed, 0.0, 1.0)
        clipped = np.max(np.abs(values - summed)[:-1]) > 1e-10  # the surface is replaced
        truncated = bool((np.max(np.abs(terms[-1])) > 1e-10 or clipped) and theta > 0.0)
    values[-1] = steady[-1]
    return values, truncated


def _full_exposure(M, theta0, dtheta, scale, grid, geom, n_terms):
    """exposure_increment over [theta0, theta0 + dtheta], summed over all
    n_terms modes (Dirichlet surface)."""
    steady = shape_ratio(geom, M, grid.y)
    coef, omega = _full_series(M, scale, grid.y, geom, n_terms)
    if np.min(omega[0]) * theta0 >= 36.0:
        return steady * dtheta, False
    terms = coef * (-np.exp(-omega * theta0) * np.expm1(-omega * dtheta) / omega)
    truncated = bool(np.max(np.abs(terms[-1])) > 1e-10 * max(dtheta, 1e-300))
    out = steady * dtheta + terms.sum(axis=0) - 0.5 * terms[-1]
    out[-1] = steady[-1] * dtheta
    return out, truncated


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_MAX_TERMS", n_terms)
        prof = profile_unsteady(M, theta, scale, grid, geom)
        dg, truncated = exposure_increment(prof, dtheta)
    want, want_truncated = _full_profile(M, theta, scale, grid, geom, n_terms)
    assert np.max(np.abs(prof.values - want)) <= 1e-14
    assert prof.truncated == want_truncated
    want, want_truncated = _full_exposure(M, theta, dtheta, scale, grid, geom, n_terms)
    assert np.max(np.abs(dg - want)) <= 1e-14
    assert truncated == want_truncated


@pytest.mark.parametrize("sphere", [False, True])
def test_first_mode_eigenvalue_matches_series_basis(sphere):
    lam_sq, _ = _series_basis(SpatialGrid(_N_PROP).y.tobytes(), sphere, 200)
    assert kernels._LAM1_SQ[sphere] == lam_sq[0]


@settings(max_examples=60, deadline=None)
@given(M=_modulus, scale=_scale, stretch=st.floats(1.0, 4.0), sphere=st.booleans())
def test_early_exit_is_the_full_series_steady_profile(M, scale, stretch, sphere):
    # from the time the bound finds mode 1 dead, the profile is the one the
    # full series returns there, its steady part, and it builds no series
    grid = SpatialGrid(_N_PROP)
    geom = SPHERE if sphere else SLAB
    lam1_sq = kernels._LAM1_SQ[sphere]
    m_sq = np.asarray(M, dtype=float) ** 2
    theta = stretch * 36.0 * np.max(scale) / (np.min(m_sq) + lam1_sq)
    assume(kernels._decay_bound(m_sq, lam1_sq, scale, theta) >= 36.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_series_terms", None)  # a build would raise
        prof = profile_unsteady(M, theta, scale, grid, geom)
    _, omega = _series_terms(M, scale, theta, grid.y, geom, 200)
    assert np.min(omega[0]) * theta >= 36.0  # the full series' all-dead check
    assert np.array_equal(prof.values, shape_ratio(geom, M, grid.y))
    assert prof._transient is None and not prof.truncated


def _exposure_recomputed(tr, dtheta):
    """exposure_increment of a transient, with exp(-omega theta) formed again."""
    terms = tr.coef * (-np.exp(-tr.omega * tr.theta) * np.expm1(-tr.omega * dtheta) / tr.omega)
    truncated = float(np.max(np.abs(terms[-1]))) > 1e-10 * max(dtheta, 1e-300)
    out = tr.steady * dtheta + (np.sum(terms, axis=0) - 0.5 * terms[-1])
    out[-1] = tr.steady[-1] * dtheta
    return out, truncated


@settings(max_examples=60, deadline=None)
@given(M=_modulus, scale=_scale, theta=_theta, dtheta=st.floats(0.0, 0.5), sphere=st.booleans())
@example(M=1.5, scale=0.1, theta=0.05, dtheta=0.01, sphere=True)  # late transient
@example(M=1.5, scale=0.1, theta=1e-6, dtheta=0.01, sphere=False)  # early transient
def test_exposure_increment_reuses_the_late_transient_decay(M, scale, theta, dtheta, sphere):
    prof = profile_unsteady(M, theta, scale, SpatialGrid(_N_PROP), SPHERE if sphere else SLAB)
    tr = prof._transient
    assume(tr is not None)
    late = np.min(tr.omega[-1]) * theta >= 36.0
    if late:
        assert np.array_equal(tr.decay, np.exp(-tr.omega * theta))
    else:
        assert tr.decay is None
    dg, truncated = exposure_increment(prof, dtheta)
    want, want_truncated = _exposure_recomputed(tr, dtheta)
    assert np.array_equal(dg, want)
    assert truncated == want_truncated


def test_exposure_increment_quasi_steady_is_a_dtheta(grid):
    for prof in (profile_qss(1.5, grid, SPHERE), profile_qss(1.5, grid, SPHERE, 4.0, 0.5),
                 profile_unsteady(1.5, 50.0, 0.1, grid, SPHERE)):
        dg, truncated = exposure_increment(prof, 0.15)
        assert not truncated
        assert np.array_equal(dg, prof.values * 0.15)


def test_exposure_increment_matches_quadrature(grid):
    # independent check: trapezoidal quadrature of the unsteady profile
    m, scale = 1.0, 0.1
    for (t0, t1), tol in [((0.02, 0.08), 3e-8), ((0.0, 0.05), 3e-5)]:
        ts = np.linspace(t0, t1, 1201)
        prof = np.array([profile_unsteady(m, t, scale, grid, SPHERE).values for t in ts])
        prof[:, -1] = 1.0
        quad = np.trapezoid(prof, ts, axis=0)
        dg, _ = exposure_increment(profile_unsteady(m, t0, scale, grid, SPHERE), t1 - t0)
        assert np.max(np.abs(dg - quad)) <= tol


# --- moving boundary ----------------------------------------------------------


def test_front_time_at_surface_is_theta_c():
    for geom in (SLAB, SPHERE):
        for m in (0.5, 2.0, 10.0):
            assert front_time(1.0, m, geom, theta_c=1.7) == pytest.approx(1.7, abs=1e-14)
    # with a film the terms that vanish at the surface must cancel before theta_c is added
    for theta_c, sh in ((1.3, 5.0), (580.2352027203673, 1e-3)):
        assert front_time(1.0, 2.0, SPHERE, theta_c=theta_c, sherwood=sh) == theta_c


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


def _front_bisection(theta, M, geometry, theta_c, sherwood):
    """The former front solve: plain bisection of [0, 1] down to _FRONT_TOL."""
    if theta <= front_time(1.0, M, geometry, theta_c, sherwood):
        return 1.0
    if theta >= front_time(0.0, M, geometry, theta_c, sherwood):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > kernels._FRONT_TOL:
        mid = 0.5 * (lo + hi)
        if front_time(mid, M, geometry, theta_c, sherwood) >= theta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=200, deadline=None)
@given(sphere=st.booleans(), sherwood=st.none() | st.floats(0.3, 100.0),
       M=st.floats(1e-2, 20.0), theta_c=st.floats(0.2, 5.0),
       frac=st.floats(0.0, 1.0, exclude_min=True))
@example(sphere=True, sherwood=None, M=3.0, theta_c=1.0, frac=1.0)  # the centre itself
@example(sphere=True, sherwood=8.0, M=5.0, theta_c=1.0, frac=1.0 - 1e-9)  # flat near the centre
@example(sphere=False, sherwood=None, M=0.03, theta_c=1.0, frac=0.998)
def test_front_solve_matches_bisection(sphere, sherwood, M, theta_c, frac):
    geometry = SPHERE if sphere else SLAB
    sh = sherwood if sphere else None
    t_surface = front_time(1.0, M, geometry, theta_c, sh)
    theta = t_surface + frac * (front_time(0.0, M, geometry, theta_c, sh) - t_surface)
    evals = []

    def counted(*args):
        evals.append(1)
        return front_time(*args)

    kernels.front_time = counted
    try:
        y = solve_moving_boundary(theta, M, geometry, theta_c, sh)
    finally:
        kernels.front_time = front_time
    ref = _front_bisection(theta, M, geometry, theta_c, sh)
    assert len(evals) <= 36  # bisection's 2 ends and 34 halvings
    assert 0.0 <= y <= 1.0

    def theta_at(x):
        return front_time(x, M, geometry, theta_c, sh)

    # a residual no larger than the bisection's, up to the rounding of front_time
    assert abs(theta_at(y) - theta) <= abs(theta_at(ref) - theta) + 4 * np.finfo(float).eps * theta
    # where theta is not flat in y_m, the front is within the bisection's tolerance
    a, b = max(y - 1e-6, 0.0), min(y + 1e-6, 1.0)
    if abs(theta_at(b) - theta_at(a)) >= 1e-3 * theta * (b - a):
        assert abs(y - ref) <= kernels._FRONT_TOL


def test_front_bracket_center_values():
    assert front_bracket(SLAB, 2.0, 0.0) == pytest.approx(2.0)  # M^2/2
    assert front_bracket(SPHERE, 3.0, 0.0) == pytest.approx(1.5)  # M^2/6


# --- second-stage profiles ------------------------------------------------------


def _front_value(y_m, m, geom, sh=None):
    """a_m, fixed by matching the shell's diffusive flux to the core's uptake."""
    if geom is SLAB:
        return 1.0 / (1.0 + (1.0 - y_m) * m * math.tanh(m * y_m))
    q = m * y_m / math.tanh(m * y_m) - 1.0
    return 1.0 / (1.0 + (1.0 - y_m + (0.0 if sh is None else y_m / sh)) * q)


@pytest.mark.parametrize("geom,sh", [(SLAB, None), (SPHERE, None), (SPHERE, 5.0)])
def test_second_stage_continuity(grid, geom, sh):
    m, y_m = 2.0, 0.5
    vals = second_stage_profiles(y_m, m, grid, geom, sh)
    i = np.searchsorted(grid.y, y_m)
    # value continuity across the front (adjacent nodes straddle y_m)
    assert abs(vals[i] - vals[i - 1]) < 0.02
    assert vals[i - 1] == pytest.approx(_front_value(y_m, m, geom, sh), abs=5e-3)
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
    assert two[-1] == pytest.approx(1.0, abs=1e-14)
    twos = second_stage_profiles(0.5, 2.0, grid, SLAB, None)
    assert twos[-1] == pytest.approx(1.0, abs=1e-14)


def test_second_stage_robin_surface(grid):
    sh = 5.0
    two = second_stage_profiles(0.5, 2.0, grid, SPHERE, sh)
    q = m_coth_m_minus_1(2.0 * 0.5)
    # analytic flux at the surface equals sh (1 - a(1))
    flux = _front_value(0.5, 2.0, SPHERE, sh) * q * 0.5
    assert flux == pytest.approx(sh * (1.0 - two[-1]), rel=1e-12)


def test_second_stage_converges_to_first_stage(grid):
    m = 2.0
    ref = profile_qss(m, grid, SPHERE).values
    two = second_stage_profiles(1.0 - 1e-9, m, grid, SPHERE)
    assert np.max(np.abs(two - ref)) < 1e-6


def test_second_stage_front_value_matches_shape(grid):
    m, y_m = 2.0, 0.5
    two = second_stage_profiles(y_m, m, grid, SPHERE)
    inner = grid.y <= y_m
    ref = _front_value(y_m, m, SPHERE) * _exact(_sphere_shape, m, grid.y[inner], y_m)
    assert np.allclose(two[inner], ref, atol=1e-14)


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
    state, _ = stepper.step(state, 0.37)
    m, _, _ = stepper.terms(state.solid, state.exposure)
    prof_direct = profile_qss(m, grid, SPHERE)
    prof_reported = stepper.current_profile(state)
    assert np.array_equal(prof_direct.values, prof_reported)
