import importlib.util
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gassolid import (
    FdControl,
    SolverError,
    SpatialGrid,
    build_model,
    fd_solve,
    fd_solve_bed_bulk,
    initial_conversion_rate,
    run_qm,
)
from gassolid import fdref
from gassolid.analysis import radial_weights, simpson_weights
from gassolid.core import LN_B_CAP
from test_steppers import _quasi_steady_models

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


@pytest.mark.parametrize("raw", [
    {"kind": "volume_first_order", "phi_v": 1.0},
    {"kind": "volume_first_order", "phi_v": 1.0, "psi": 0.1},
    {"kind": "simultaneous", "sigma_a": 0.3, "sigma_c": 1.0, "psi_ab": 0.4},
])
@pytest.mark.parametrize("auto_refine", [False, True])
def test_diagnostics_are_python_numbers(raw, auto_refine):
    # summary.txt prints them, so no numpy scalar; levels counts the marches run
    ctl = FdControl(n_space=21, dtheta=0.05, auto_refine=auto_refine)
    d = fd_solve(build_model(raw), 0.5, ctl, samples=6).diagnostics
    assert set(d) == {"dtheta", "levels", "max_flux_residual", "balance_residual"}
    assert type(d["levels"]) is int
    assert all(type(d[key]) is float for key in ("dtheta", "max_flux_residual",
                                                  "balance_residual"))
    assert d["dtheta"] == 0.05 / 2 ** (d["levels"] - 1)
    assert d["levels"] >= 2 if auto_refine else d["levels"] == 1


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


def test_auto_refine_flags_nonconvergence(monkeypatch):
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    monkeypatch.setattr(fdref, "_REFINE_TOL", 1e-14)
    monkeypatch.setattr(fdref, "_MAX_REFINES", 1)
    ctl = FdControl(n_space=201, dtheta=1e-2, auto_refine=True)
    with pytest.raises(SolverError, match="refinement"):
        fd_solve(p, 1.0, ctl, samples=11)


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


@pytest.mark.parametrize("raw", [
    {"kind": "volume_first_order", "phi_v": 0.0, "psi": 0.05},
    {"kind": "grain_simple", "sigma": 0.0, "F_g": 2, "psi": 0.05},
])
def test_unsteady_zero_modulus_rejected(grid, raw):
    # psi phi^2 = 0 leaves the Crank-Nicolson step without gas capacity; the
    # QM rejects the same run, so the oracle does not march it either
    p = build_model(raw)
    ctl = FdControl(n_space=101, dtheta=2e-3, auto_refine=False)
    with pytest.raises(SolverError, match="psi_phi_sq must be positive in unsteady mode"):
        fd_solve(p, 1.0, ctl, samples=11)
    with pytest.raises(SolverError, match="psi_phi_sq must be positive in unsteady mode"):
        run_qm(p, grid, 1.0, samples=11)


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
    # unsteady gas, Crank-Nicolson coupled to the Heun solid step
    ({"kind": "volume_first_order", "phi_v": 1.0, "psi": 0.1}, 1.0,
     [0.0, 0.08469239056159417, 0.1672466808506624, 0.24268729655250476,
      0.3115754064458992, 0.3744356464518537, 0.4317573658438085, 0.4839960407666474,
      0.531574760393591, 0.5748857697297625, 0.6142920503823552]),
    # the rest of the solid laws: half order (slab), the grain family with a
    # product layer and with a structure change (delta is an array), nucleation
    ({"kind": "volume_half_order", "phi_v": 0.8, "F_p": 1}, 3.0,
     [0.0, 0.23558614531600097, 0.44328807020375505, 0.621409454806118,
      0.7680158702518085, 0.8808833354648301, 0.9574314731465526, 0.9947716156550879,
      1.0, 1.0, 1.0]),
    ({"kind": "grain_product_layer", "sigma": 1.5, "sigma_g_sq": 0.5}, 2.0,
     [0.0, 0.38696082390716013, 0.6204360752419038, 0.7745215541993888,
      0.8773858813353727, 0.9434615402548914, 0.9814739045896156, 0.9977201836993796,
      0.9999998029280859, 1.0, 1.0]),
    ({"kind": "grain_modified", "sigma": 1.5, "sigma_g_sq": 0.2, "Z_v": 1.4, "eps0": 0.5},
     2.0,
     [0.0, 0.40476231780208694, 0.6588211210429484, 0.8235764204661166,
      0.925330936594653, 0.9792891077491752, 0.9981893626532796, 0.9999995616608405,
      1.0, 1.0, 1.0]),
    ({"kind": "nucleation", "sigma_n": 1.0, "n": 3}, 2.0,
     [0.0, 0.007619599233290364, 0.053526899924531524, 0.15135916232111024,
      0.2923293857853585, 0.4549039253626097, 0.6137300254667077, 0.7486309253726018,
      0.8503062615690773, 0.9195990630928507, 0.9624605091040134]),
    # unsteady gas under a structure factor averaged over the state and the predictor
    ({"kind": "grain_modified", "sigma": 1.5, "sigma_g_sq": 0.2, "Z_v": 1.4, "eps0": 0.5,
      "psi": 0.05}, 2.0,
     [0.0, 0.394572599780037, 0.6516440957478402, 0.8184990073229869,
      0.9219640344104211, 0.9774687983952371, 0.9976755651230415, 0.9999960720584707,
      1.0, 1.0, 1.0]),
    ({"kind": "random_pore", "phi_r": 1.5, "psi_cap": 2, "psi": 0.02}, 2.0,
     [0.0, 0.17166848472908813, 0.33670659261197244, 0.48627094845881114,
      0.61584957540643, 0.7232064840073782, 0.8081916418849193, 0.8723795687122683,
      0.9185681294175881, 0.9502020403066955, 0.9708173287995114]),
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


# --- unsteady march: gas and solid advance together, second order ------------

UNSTEADY_PIN = PINNED_X[2][0]


def test_unsteady_flux_identity_and_global_balance():
    # the Crank-Nicolson step's surface flux is its gas storage plus its
    # consumption, and the consumption integrates to X: the quasi-steady bounds
    res = fd_solve(build_model(UNSTEADY_PIN), 1.0, PIN_CONTROL, samples=11)
    assert res.diagnostics["max_flux_residual"] <= 1e-6
    assert res.diagnostics["balance_residual"] <= 1e-4


def test_unsteady_march_is_second_order():
    # a first-order step would shrink the drift by 2 per halving of dtheta
    p = build_model(UNSTEADY_PIN)
    xs = [fd_solve(p, 1.0, replace(PIN_CONTROL, dtheta=dt), samples=11).x
          for dt in (2e-3, 1e-3, 5e-4)]
    coarse, fine = (float(np.max(np.abs(b - a))) for a, b in zip(xs, xs[1:]))
    assert coarse >= 3.5 * fine


# X of the run below at a fixed dtheta 1.25e-4 (n_space 201, no refinement)
GRAIN_UNSTEADY_FINE = [
    0.0, 0.23782899047820016, 0.45373201929029217, 0.6360923343895347,
    0.783365912607516, 0.8938180375460673, 0.965485312224512, 0.9964218873855349,
    0.9999999530360089, *[1.0] * 12,
]


def test_unsteady_default_control_converges():
    # the default control serves unsteady runs too: from its dtheta a
    # first-order step does not converge here within _MAX_REFINES halvings
    p = build_model({"kind": "grain_simple", "sigma": 1.5, "F_g": 2, "psi": 0.05})
    res = fd_solve(p, 3.0, FdControl(n_space=201), samples=21)
    assert np.max(np.abs(res.x - np.asarray(GRAIN_UNSTEADY_FINE))) < fdref._REFINE_TOL


# --- pore plugging: closed cells hold no gas ----------------------------------
# Growing solid closes every pore of a cell and stops its reaction; its row of
# the quasi-steady system is then zero.  These two runs raised LinAlgError
# before such cells were given a = 0.

PLUG_CONTROL = FdControl(n_space=101, dtheta=1e-2, auto_refine=False)
PINNED_PLUGGED = [
    ({"kind": "grain_modified", "sigma": 0.25, "sigma_g_sq": 0.0, "Z_v": 2.0, "eps0": 0.25},
     [0.0, 0.266393145302503, 0.31498938727366665, 0.31498938727366665,
      0.31498938727366665, 0.31498938727366665, 0.31498938727366665, 0.31498938727366665,
      0.31498938727366665, 0.31498938727366665, 0.31498938727366665]),
    ({"kind": "random_pore", "phi_r": 0.125, "z": 2.0, "eps0": 0.25, "sh": 1.0},
     [0.0, 0.0945921328261361, 0.18016571574500062, 0.2573140870936246,
      0.32118787573939045, 0.32391207016623014, 0.32391207016623014, 0.32391207016623014,
      0.32391207016623014, 0.32391207016623014, 0.32391207016623014]),
]


@pytest.mark.parametrize("raw, want", PINNED_PLUGGED, ids=["grain_modified", "random_pore"])
def test_plugged_pellet_x_pinned(raw, want):
    res = fd_solve(build_model(raw), 1.0, PLUG_CONTROL, samples=11)
    assert np.max(np.abs(res.x - np.asarray(want))) <= 1e-13
    assert res.diagnostics["max_flux_residual"] <= 1e-12


@pytest.mark.parametrize("raw", [raw for raw, _ in PINNED_PLUGGED],
                         ids=["grain_modified", "random_pore"])
def test_plugged_pellet_warns_as_qm(raw):
    params = build_model(raw)
    res = fd_solve(params, 1.0, PLUG_CONTROL, samples=11)
    assert len(res.warnings) == 1
    assert res.warnings[0].startswith("pores closed around unreacted solid at")
    assert res.warnings == run_qm(params, SpatialGrid(101), 1.0, 11).warnings


@pytest.mark.parametrize("raw", [
    {"kind": "grain_modified", "sigma": 1.5, "sigma_g_sq": 0.2, "Z_v": 1.4, "eps0": 0.5},
    {"kind": "random_pore", "phi_r": 0.5, "z": 2.0, "eps0": 0.6},
], ids=["grain_modified", "random_pore"])
def test_open_pellet_gives_no_warning(raw):
    # both laws carry a structure factor, and their pores stay open
    res = fd_solve(build_model(raw), 1.0, PLUG_CONTROL, samples=11)
    assert res.x[-1] > 0.6 and res.warnings == []


@settings(max_examples=40, deadline=None)
@given(_quasi_steady_models())
def test_oracle_bounded_nondecreasing_and_balanced(case):
    params, theta_end = case
    res = fd_solve(params, theta_end, PLUG_CONTROL, samples=11)
    for x in (res.x, res.x_a):
        if x is not None:
            assert np.all((0.0 <= x) & (x <= 1.0))
            assert np.all(np.diff(x) >= 0.0)
    assert res.diagnostics["max_flux_residual"] <= 1e-6


# --- solid laws: one terms call gives the gas balance and the rate -----------


def _old_rate(p, st, a):
    """d(state)/dtheta of each law as written before ``terms`` returned k."""
    kind = p.kind.value
    if kind == "volume_first_order":
        return -a * st
    if kind == "volume_half_order":
        return -0.5 * a * (st > 1e-12)
    if kind == "grain_simple":
        return -a * (st > 1e-12)
    if kind in ("grain_product_layer", "grain_modified"):
        shell, alive = st * st, st > 1e-12
        if abs(p.z_ratio - 1.0) >= 1e-12:
            shell = shell / np.cbrt(p.z_ratio + (1.0 - p.z_ratio) * st**3)
            bracket = 1.0 - (1.0 - p.porosity0) / p.porosity0 * (p.z_ratio - 1.0) * (1.0 - st**3)
            alive = alive & (np.maximum(bracket, 0.0) ** 2 > 0.0)
        return -a / (1.0 + 6.0 * p.sigma_g_sq * (st - shell)) * alive
    if kind == "random_pore":
        u = np.sqrt(1.0 + p.psi_cap * st)
        bracket = 1.0 - (p.z_ratio - 1.0) * (1.0 - p.porosity0) * (1.0 - np.exp(-st)) / p.porosity0
        return a * u / (1.0 + p.beta * p.z_ratio * st / (1.0 + u)) * (np.maximum(bracket, 0.0) ** 2 > 0.0)
    return a  # nucleation


@st.composite
def _fd_law_states(draw):
    """(params, state, gas) for a single-gas FD law: up to 8 nodes of its
    state (b, sqrt(b), a grain radius, -ln b or (-ln b)^(1/n)) and of a in [0, 1]."""
    params, _ = draw(_quasi_steady_models().filter(lambda c: c[0].kind in fdref._FD_MODELS))
    n = draw(st.integers(1, 8))
    model = fdref._FD_MODELS[params.kind]
    lo, hi = (0.0, LN_B_CAP) if model.start == 0.0 else (model.lo, 1.0)
    nodes = st.lists(st.floats(lo, hi), min_size=n, max_size=n)
    gas = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    return params, np.array(draw(nodes)), np.array(draw(gas))


@settings(max_examples=200, deadline=None)
@given(_fd_law_states())
# the half-order factor 1/2, and a live node next to a dead one
@example((build_model({"kind": "volume_half_order", "phi_v": 1.0}),
          np.array([0.5, 0.0]), np.array([0.8, 0.8])))
# a modified-grain node whose pores closed (r^3 <= 2/3 at Z_v 2, eps0 0.25): k = 0
@example((build_model({"kind": "grain_modified", "sigma": 1.0, "Z_v": 2.0, "eps0": 0.25}),
          np.array([0.5, 0.95]), np.array([0.3, 0.9])))
def test_law_terms_give_the_old_rates(case):
    params, state, a = case
    rho, delta, k = fdref._FD_MODELS[params.kind](params).terms(state)
    old = _old_rate(params, state, a)
    assert np.all(np.abs(k * a - old) <= 4.0 * np.spacing(np.abs(old)))
    assert np.all(rho >= 0.0)
    if delta is not None:
        # delta = (porosity / its initial value)^2: the pores close as a
        # swelling solid (Z > 1) converts and open as a shrinking one converts
        assert np.all(delta >= 0.0)
        assert np.all(delta <= 1.0) if params.z_ratio >= 1.0 else np.all(delta >= 1.0)


# --- tridiagonal helper and finite-volume assembly ---------------------------


def _dominant_bands(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bands = rng.uniform(-1.0, 1.0, (4, n))
    bands[1] += np.where(rng.random(n) < 0.5, -3.0, 3.0)
    return bands


def _scipy_solve(bands: np.ndarray) -> np.ndarray:
    n = bands.shape[1]
    ab = np.zeros((3, n))  # scipy's (1, 1) layout
    ab[0, 1:] = bands[2, :-1]
    ab[1] = bands[1]
    ab[2, :-1] = bands[0, :-1]
    return scipy.linalg.solve_banded((1, 1), ab, bands[3].copy())


@pytest.mark.parametrize("n", [3, 401])
def test_solve_banded_matches_scipy(n):
    bands = _dominant_bands(n, seed=n)
    want = _scipy_solve(bands)
    assert np.array_equal(fdref.solve_banded(bands), want)


@pytest.mark.parametrize("loader_fails", [False, True])
def test_solve_banded_binds_flapack_or_falls_back(monkeypatch, loader_fails):
    # scipy.linalg is loaded here, so its _flapack is reused; with the module
    # gone and a file loader that raises, the public import binds dgtsv
    bands = _dominant_bands(401, seed=3)
    want = _scipy_solve(bands)
    refused = []

    def refuse(*args):
        refused.append(args)
        raise ImportError("no loader")

    monkeypatch.setattr(fdref, "_dgtsv", None)
    if loader_fails:
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.util, "spec_from_file_location", refuse)
    assert np.array_equal(fdref.solve_banded(bands), want)
    assert fdref._dgtsv is scipy.linalg.lapack.dgtsv
    assert len(refused) == loader_fails


@pytest.mark.parametrize("row", range(4))
@pytest.mark.parametrize("big", [1e200, -1e200])
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_solve_banded_takes_huge_finite_entries(row, big):
    # the sum of squares overflows, so only the entrywise check may decide
    bands = _dominant_bands(5, seed=2)
    bands[row, 1] = big
    want = _scipy_solve(bands)
    assert np.all(np.isfinite(want))
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
    for cached in (cond, gg.bands, radial_weights(11, 1), radial_weights(11, 3)):
        with pytest.raises(ValueError):
            cached[0] = 1.0
    y = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(radial_weights(11, 1), simpson_weights(11))
    assert np.array_equal(radial_weights(11, 3), simpson_weights(11) * 3 * y**2)


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
    gg = fdref._GasGrid(n, fp)
    a, _ = fdref._solve_gas_qss(gg, rho * gg.vol, delta, sherwood)
    np.testing.assert_allclose(a, np.linalg.solve(op, rhs), rtol=1e-10)


@st.composite
def _cn_cases(draw):
    n, fp, delta, rho = draw(_fv_cases())
    return n, fp, delta, rho, draw(_unit_arrays(n, 0.0))


@settings(max_examples=60, deadline=None)
@given(_cn_cases(), st.floats(1e-3, 10.0), st.floats(1e-4, 1.0))
@example((15, 1, None, np.full(15, 3.3), np.full(15, 0.81)), 0.19, 0.98)
def test_cn_step_matches_dense_stencil(case, accum, dt):
    # Both solves round on the scale of max|a|, not of each entry: in the
    # pinned example node 6 is 1.9e-5, off by 8.7e-15 (4.5e-10 relative).
    n, fp, delta, rho, a_old = case
    op, _, vol = _dense_operator(n, fp, delta, rho)
    cap = accum * vol / dt
    lhs = np.diag(cap) + 0.5 * op
    rhs = cap * a_old - 0.5 * (op @ a_old)
    lhs[-1] = 0.0
    lhs[-1, -1] = rhs[-1] = 1.0
    gg = fdref._GasGrid(n, fp)
    a, _ = fdref._advance_gas_cn(gg, a_old, rho * gg.vol, delta, accum, dt)
    want = np.linalg.solve(lhs, rhs)
    np.testing.assert_allclose(a, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))
