import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gassolid import (
    FdControl,
    SolverError,
    build_model,
    fd_solve,
    fd_solve_bed_bulk,
    initial_conversion_rate,
    run_qm,
)
from gassolid import fdref
from gassolid.analysis import simpson_weights

FAST = FdControl(n_space=201, dtheta=2e-3, auto_refine=False)


def test_kinetic_control_limit():
    p = build_model({"kind": "volume_first_order", "phi_v": 0.05})
    res = fd_solve(p, 5.0, FdControl(n_space=201, dtheta=1e-3, auto_refine=False), samples=101)
    assert np.max(np.abs(res.x - (1.0 - np.exp(-res.theta)))) <= 2e-3
    assert res.x[0] == 0.0  # theta = 0 starts unconverted


def test_initial_rate_self_check():
    # dX/dtheta at theta=0 for phi_v=1 sphere equals the quadrature of the
    # exact initial profile sinh(y)/(y sinh 1): analytically 3 (coth 1 - 1)
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    analytic = 3.0 * (1.0 / math.tanh(1.0) - 1.0)
    assert analytic == pytest.approx(0.9391058564979936, abs=1e-13)
    y = np.linspace(0.0, 1.0, 801)
    prof = np.where(y > 0, np.sinh(y) / (np.where(y > 0, y, 1.0) * math.sinh(1.0)),
                    1.0 / math.sinh(1.0))
    quad = float(np.sum(simpson_weights(801) * 3.0 * y**2 * prof))
    assert quad == pytest.approx(analytic, abs=1e-10)
    got = initial_conversion_rate(p, FdControl(n_space=801))
    assert got == pytest.approx(analytic, rel=2e-6)


def test_flux_identity_and_global_balance():
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    res = fd_solve(p, 3.0, FdControl(n_space=201, dtheta=1e-3, auto_refine=False), samples=61)
    d = res.diagnostics
    assert d["max_flux_residual"] <= 1e-6   # discrete Green identity, conservative FV
    assert d["balance_residual"] <= 1e-4    # time-integrated uptake equals X


def test_flux_identity_with_film_and_structure():
    p = build_model({"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1.5,
                     "beta": 0.2, "z": 1.2, "eps0": 0.5, "sh": 5})
    res = fd_solve(p, 2.0, FdControl(n_space=201, dtheta=1e-3, auto_refine=False), samples=41)
    assert res.diagnostics["max_flux_residual"] <= 1e-6
    assert res.diagnostics["balance_residual"] <= 1e-4


def test_mesh_convergence():
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    coarse = fd_solve(p, 3.0, FdControl(n_space=201, dtheta=2e-3, auto_refine=False), samples=31)
    fine = fd_solve(p, 3.0, FdControl(n_space=401, dtheta=1e-3, auto_refine=False), samples=31)
    assert np.max(np.abs(coarse.x - fine.x)) < 1e-4


def test_auto_refine_flags_nonconvergence():
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    ctl = FdControl(n_space=201, dtheta=1e-2, auto_refine=True, refine_tol=1e-14,
                    max_refines=1)
    with pytest.raises(SolverError, match="refinement"):
        fd_solve(p, 1.0, ctl, samples=11)


def test_fd_control_rejects_max_refines_below_one():
    for bad in (0, -1):
        with pytest.raises(SolverError, match="max_refines"):
            FdControl(max_refines=bad)


def test_fd_control_rejects_nonpositive_refine_tol():
    for bad in (0.0, -1e-5, math.nan):
        with pytest.raises(SolverError, match="refine_tol"):
            FdControl(refine_tol=bad)


def test_moving_boundary_emerges_without_special_casing(grid):
    # constant grain modulus: the receding front comes out of clamp + indicator
    p = build_model({"kind": "grain_simple", "sigma": 2.0, "F_p": 1, "F_g": 1})
    fd = fd_solve(p, 3.0, FdControl(n_space=201, dtheta=1e-3, auto_refine=False), samples=61)
    qm = run_qm(p, grid, 3.0, samples=61)
    assert np.max(np.abs(fd.x - qm.x)) < 0.02
    assert fd.x[-1] == pytest.approx(1.0, abs=1e-4)


def test_unsteady_crank_nicolson_vs_backward_euler(grid):
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0, "psi": 0.1})
    cn = fd_solve(p, 1.0, FdControl(n_space=201, dtheta=1e-3, auto_refine=False), samples=21)
    qm = run_qm(p, grid, 1.0, samples=21)
    assert np.max(np.abs(cn.x - qm.x)) < 5e-4


def test_half_order_and_nucleation_references(grid):
    ph = build_model({"kind": "volume_half_order", "phi_v": 0.5, "F_p": 1})
    fd = fd_solve(ph, 2.5, FdControl(n_space=201, dtheta=5e-4, auto_refine=False), samples=51)
    qm = run_qm(ph, grid, 2.5, samples=51)
    assert np.max(np.abs(fd.x - qm.x)) < 5e-3
    pn = build_model({"kind": "nucleation", "sigma_n": 0.8, "n": 3})
    fdn = fd_solve(pn, 2.0, FdControl(n_space=201, dtheta=1e-3, auto_refine=False), samples=41)
    qmn = run_qm(pn, grid, 2.0, samples=41)
    assert np.max(np.abs(fdn.x - qmn.x)) < 5e-3


def test_simultaneous_reference(grid):
    p = build_model({"kind": "simultaneous", "sigma_a": 0.05, "sigma_c": 0.05,
                     "psi_ab": 0.4})
    fd = fd_solve(p, 3.0, FdControl(n_space=201, dtheta=1e-3, auto_refine=False), samples=31)
    s0 = fd.x_a[1:] / (fd.x[1:] - fd.x_a[1:])
    assert np.all(np.abs(s0 - 2.0 / 3.0) < 1e-3)


# --- packed-bed bulk BVP -----------------------------------------------------


def test_bed_bulk_no_consumption_is_flat():
    y = fd_solve_bed_bulk(1.1, 0.0, 1.0, np.zeros(101))
    assert np.allclose(y, 1.0, atol=1e-12)


def test_bed_bulk_equilibrium_with_surface():
    y = fd_solve_bed_bulk(1.1, 3.3, 1.0, np.ones(101))
    assert np.allclose(y, 1.0, atol=1e-12)


def test_bed_bulk_pinned_fixture():
    # Pe=1.1, beta=3.3, a_surface=0, Lambda=1 at N=2001; values pinned after
    # a mesh-convergence study (501..4001 agree to ~1e-8 with the closed form)
    y = fd_solve_bed_bulk(1.1, 3.3, 1.0, np.zeros(2001))
    eta = np.linspace(0.0, 1.0, 2001)
    pinned = {
        0.00: 0.458018140864,
        0.25: 0.333305065880,
        0.50: 0.249610064601,
        0.75: 0.199704168880,
        1.00: 0.182230331421,
    }
    for pos, want in pinned.items():
        got = float(y[np.argmin(np.abs(eta - pos))])
        assert got == pytest.approx(want, abs=1e-9)
    assert np.all(np.diff(y) < 0.0)  # strictly decreasing


def test_zero_duration_run_is_unconverted(grid):
    for raw in ({"kind": "volume_first_order", "phi_v": 1.0},
                {"kind": "nucleation", "sigma_n": 1.0, "n": 3}):
        p = build_model(raw)
        res = fd_solve(p, 0.0, FAST, samples=11)
        assert res.theta.tolist() == [0.0] and res.x.tolist() == [0.0]
        qm = run_qm(p, grid, 0.0, samples=11)
        assert qm.x.tolist() == [0.0]


def test_bed_bulk_input_validation():
    with pytest.raises(SolverError):
        fd_solve_bed_bulk(0.0, 1.0, 1.0, np.zeros(11))
    with pytest.raises(SolverError):
        fd_solve_bed_bulk(1.0, 1.0, 1.0, np.zeros(2))


# --- pinned oracle output ----------------------------------------------------
# Oracle output at n_space 101 and dtheta 2e-3 without refinement: a change to
# the FD assembly or solves that moves X by more than rounding fails here.

PIN_CONTROL = FdControl(n_space=101, dtheta=2e-3, auto_refine=False)
PINNED_X = [
    # quasi-steady, Dirichlet surface (no structure factor)
    ({"kind": "grain_simple", "sigma": 1.5}, 1.0,
     [0.0, 0.24248766057403326, 0.44542080134001627, 0.6109189640706358,
      0.741531532250904, 0.8402914436231297, 0.9107580499893869, 0.9570401633485883,
      0.9837895799119006, 0.9961566034261293, 0.999702946701511]),
    # quasi-steady with a film and a structure change (delta is an array)
    ({"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1.5, "beta": 0.2, "z": 1.2,
      "eps0": 0.5, "sh": 5}, 2.0,
     [0.0, 0.1704245346982164, 0.32547478299910004, 0.4624105003310839,
      0.5800344664584789, 0.6784070262357187, 0.7585624650980433, 0.8222282369707882,
      0.8715536163827382, 0.9088614253118481, 0.9364402225542551]),
    # unsteady gas, Crank-Nicolson
    ({"kind": "volume_first_order", "phi_v": 1.0, "psi": 0.1}, 1.0,
     [0.0, 0.08553712897594978, 0.16802245806537064, 0.2433972490615336,
      0.3122241011014829, 0.37502773868270434, 0.43229733764701395, 0.4844881249135947,
      0.5320229181410534, 0.5752936885201833, 0.6146631502929137]),
]
PINNED_BED = [
    0.5974679699744052, 0.5751219340037282, 0.5525629535365406, 0.5299799632400277,
    0.5075511711238972, 0.4854449636816844, 0.4638207789037924, 0.4428299527512703,
    0.4226165447702743, 0.40331814867143767, 0.38506669390021375, 0.36798924448863957,
    0.35220880181166153, 0.33784511827886066, 0.32501552948281714, 0.3138358129072886,
    0.304421081981972, 0.2968867250674099, 0.29134939987676056, 0.28792809490564597,
    0.28674527066415634,
]


@pytest.mark.parametrize("raw, theta_end, want", PINNED_X)
def test_oracle_x_pinned(raw, theta_end, want):
    res = fd_solve(build_model(raw), theta_end, PIN_CONTROL, samples=11)
    assert np.max(np.abs(res.x - np.asarray(want))) <= 1e-13


def test_bed_bulk_profile_pinned():
    eta = np.linspace(0.0, 1.0, 21)
    y = fd_solve_bed_bulk(1.1, 3.3, 1.0, 0.5 * (1.0 - eta) ** 2)
    assert np.max(np.abs(y - np.asarray(PINNED_BED))) <= 1e-13


# --- tridiagonal helper and finite-volume assembly ---------------------------


def _dominant_bands(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bands = rng.uniform(-1.0, 1.0, (4, n))
    bands[1] += np.where(rng.random(n) < 0.5, -3.0, 3.0)
    return bands


@pytest.mark.parametrize("n", [3, 401])
def test_solve_banded_matches_scipy(n):
    bands = _dominant_bands(n, seed=n)
    ab = np.zeros((3, n))  # scipy's (1, 1) layout
    ab[0, 1:] = bands[2, :-1]
    ab[1] = bands[1]
    ab[2, :-1] = bands[0, :-1]
    want = scipy.linalg.solve_banded((1, 1), ab, bands[3].copy())
    assert np.array_equal(fdref.solve_banded(bands), want)


def test_solve_banded_singular():
    # rows 0 and 1 of [[1, 1, 0], [1, 1, 0], [0, 0, 1]] are equal
    bands = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        fdref.solve_banded(bands)


@pytest.mark.parametrize("row", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solve_banded_rejects_nonfinite(row, bad):
    bands = _dominant_bands(5, seed=1)
    bands[row, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        fdref.solve_banded(bands)


def test_grid_conductance_is_read_only():
    gg = fdref._GasGrid(11, 3)
    cond = gg.conductance(None)
    assert cond is gg.conductance(None)
    for cached in (cond, gg.bands, gg.weights):
        with pytest.raises(ValueError):
            cached[0] = 1.0
    y = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(gg.weights, simpson_weights(11) * 3 * y**2)


def _dense_operator(n: int, fp: int, delta, rho: np.ndarray):
    """Rows 0..n-2 of -div(delta grad a) + rho a, built cell by cell."""
    h = 1.0 / (n - 1)
    y = np.linspace(0.0, 1.0, n)
    d_face = np.ones(n - 1) if delta is None else 0.5 * (delta[:-1] + delta[1:])
    cond = d_face * (y[:-1] + 0.5 * h) ** (fp - 1) / h
    lo, hi = np.clip(y - 0.5 * h, 0.0, 1.0), np.clip(y + 0.5 * h, 0.0, 1.0)
    vol = hi - lo if fp == 1 else (hi**3 - lo**3) / 3.0
    op = np.zeros((n, n))
    for i in range(n - 1):
        if i > 0:
            op[i, i - 1] -= cond[i - 1]
            op[i, i] += cond[i - 1]
        op[i, i + 1] -= cond[i]
        op[i, i] += cond[i] + rho[i] * vol[i]
    return op, cond, vol


def _unit_arrays(n, low):
    return st.lists(st.floats(low, 1.0), min_size=n, max_size=n).map(np.array)


@st.composite
def _fv_cases(draw):
    n = draw(st.integers(3, 41))
    fp = draw(st.sampled_from([1, 3]))
    delta = draw(st.none() | _unit_arrays(n, 1e-3))
    rho = draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n).map(np.array))
    return n, fp, delta, rho


@settings(max_examples=60, deadline=None)
@given(_fv_cases(), st.none() | st.floats(0.1, 100.0))
def test_qss_solve_matches_dense_stencil(case, sherwood):
    n, fp, delta, rho = case
    op, cond, vol = _dense_operator(n, fp, delta, rho)
    rhs = np.zeros(n)
    if sherwood is None:
        op[-1, -1] = rhs[-1] = 1.0
    else:
        op[-1, -2] = -cond[-1]
        op[-1, -1] = cond[-1] + rho[-1] * vol[-1] + sherwood
        rhs[-1] = sherwood
    a, _ = fdref._solve_gas_qss(fdref._GasGrid(n, fp), rho, delta, sherwood)
    np.testing.assert_allclose(a, np.linalg.solve(op, rhs), rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(_fv_cases(), st.floats(1e-3, 10.0), st.floats(1e-4, 1.0), st.data())
def test_cn_step_matches_dense_stencil(case, accum, dt, data):
    n, fp, delta, rho = case
    a_old = data.draw(_unit_arrays(n, 0.0))
    op, _, vol = _dense_operator(n, fp, delta, rho)
    cap = accum * vol / dt
    lhs = np.diag(cap) + 0.5 * op
    rhs = cap * a_old - 0.5 * (op @ a_old)
    lhs[-1] = 0.0
    lhs[-1, -1] = rhs[-1] = 1.0
    a, _ = fdref._advance_gas_cn(fdref._GasGrid(n, fp), a_old, rho, delta, accum, dt)
    np.testing.assert_allclose(a, np.linalg.solve(lhs, rhs), rtol=1e-10)
