import numpy as np
import pytest

from gassolid import (
    ModelKind,
    PelletState,
    SolverError,
    build_model,
    compare_runs,
    conversion,
    conversion_by_gas_a,
)
from gassolid.analysis import (ConversionSeries, radial_average, radial_weights,
                               simpson_weights)


def _state_with(grid, values):
    return PelletState(theta=0.0, solid=np.asarray(values, dtype=float),
                       exposure=np.zeros(grid.n))


def test_conversion_trivials(grid):
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    assert conversion(_state_with(grid, np.ones(grid.n)), p) == 0.0
    assert conversion(_state_with(grid, np.zeros(grid.n)), p) == 1.0


def test_conversion_linear_solid_sphere(grid):
    # b(y) = y: X = 1 - 3 int y^3 dy = 1/4, Simpson exact for cubics
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    assert conversion(_state_with(grid, grid.y), p) == pytest.approx(0.25, abs=1e-15)


def test_conversion_grain_uses_fg_power(grid):
    p = build_model({"kind": "grain_simple", "sigma": 1.0, "F_g": 2})
    state = _state_with(grid, np.full(grid.n, 0.5))
    assert conversion(state, p) == pytest.approx(1.0 - 0.25, abs=1e-12)


def test_conversion_monotone_in_solid(grid):
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    rng = np.random.default_rng(7)
    for _ in range(5):
        b2 = rng.uniform(0.0, 1.0, grid.n)
        b1 = b2 * rng.uniform(0.0, 1.0, grid.n)  # b1 <= b2 node-wise
        assert conversion(_state_with(grid, b1), p) >= conversion(_state_with(grid, b2), p)


def test_simpson_exact_for_cubics():
    # the radial weights carry F_p y^(F_p-1): y^k is a cubic integrand for k <= 4 - F_p
    y = np.linspace(0.0, 1.0, 201)
    for w, fp in ((simpson_weights(201), 1), (radial_weights(201, 1), 1),
                  (radial_weights(201, 3), 3)):
        for k in range(5 - fp):
            assert np.sum(w * y**k) == pytest.approx(fp / (k + fp), abs=1e-15)
    with pytest.raises(SolverError):
        simpson_weights(200)


def test_simpson_three_nodes_exact_for_cubics():
    # the smallest Simpson rule, h/3 (1, 4, 1), integrates 1, y, y^2 and y^3 exactly
    y = np.array([0.0, 0.5, 1.0])
    w = simpson_weights(3)
    assert w == pytest.approx([1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0], abs=1e-16)
    for k in range(4):
        assert np.sum(w * y**k) == pytest.approx(1.0 / (k + 1), abs=1e-15)
    with pytest.raises(SolverError):
        simpson_weights(1)


def test_radial_average_slab_vs_sphere():
    vals = np.linspace(0.0, 1.0, 201) ** 2
    assert radial_average(vals, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # the sphere weight makes this a quartic: composite-Simpson error h^4/180 * 24
    assert radial_average(vals, 3) == pytest.approx(3.0 / 5.0, abs=1e-9)


def test_conversion_by_gas_a_requires_aux(grid):
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    with pytest.raises(SolverError):
        conversion_by_gas_a(_state_with(grid, np.ones(grid.n)), p)


def test_compare_runs_identical_and_offset():
    theta = np.linspace(0.0, 5.0, 200)
    x = 1.0 - np.exp(-theta)
    m = compare_runs(theta, x, theta, x)
    assert m.max_abs_dx == 0.0 and m.rms_dx == 0.0
    m2 = compare_runs(theta, np.clip(x + 0.01, 0, 1.1), theta, x)
    assert m2.max_abs_dx == pytest.approx(0.01, abs=1e-12)


def test_compare_runs_interpolates_and_checks_range():
    ta = np.linspace(0.0, 5.0, 201)
    tb = np.linspace(0.0, 5.0, 157)
    xa = 1.0 - np.exp(-ta)
    xb = 1.0 - np.exp(-tb)
    m = compare_runs(ta, xa, tb, xb)
    assert m.max_abs_dx < 2e-4  # linear interpolation error only
    with pytest.raises(SolverError):
        compare_runs(ta, xa, ta + 10.0, xa)


def test_conversion_series_validation():
    theta = np.linspace(0.0, 1.0, 11)
    x = np.linspace(0.0, 0.5, 11)
    ConversionSeries(theta, x, ModelKind.VOLUME_FIRST_ORDER)
    for bad_theta, bad_x in ((theta, x[:-1]), (theta[None, :], x[None, :])):
        with pytest.raises(SolverError, match="matching 1-d arrays"):
            ConversionSeries(bad_theta, bad_x, ModelKind.VOLUME_FIRST_ORDER)
    with pytest.raises(SolverError):
        ConversionSeries(theta, x[::-1], ModelKind.VOLUME_FIRST_ORDER)
    with pytest.raises(SolverError):
        ConversionSeries(theta[::-1], x, ModelKind.VOLUME_FIRST_ORDER)
    with pytest.raises(SolverError):
        ConversionSeries(theta, x + 0.6, ModelKind.VOLUME_FIRST_ORDER)
