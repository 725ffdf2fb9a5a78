import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gassolid import (
    SolverError,
    SpatialGrid,
    StepStatus,
    build_model,
    conversion,
    conversion_by_gas_a,
    fdref,
    kernels,
    make_stepper,
    run_qm,
    steppers,
)
from gassolid.core import LN_B_CAP, PelletGeometry, PelletState
from gassolid.driver import PORES_CLOSED, sample_schedule

ZOO = [
    {"kind": "volume_first_order", "phi_v": 1.5},
    {"kind": "volume_half_order", "phi_v": 0.8, "F_p": 1},
    {"kind": "grain_simple", "sigma": 2.0, "F_g": 2},
    {"kind": "grain_simple", "sigma": 1.0, "F_p": 1, "F_g": 1},
    {"kind": "grain_product_layer", "sigma": 1.2, "sigma_g_sq": 0.4},
    {"kind": "grain_modified", "sigma": 1.2, "sigma_g_sq": 0.2, "Z_v": 1.4, "eps0": 0.5},
    {"kind": "random_pore", "phi_r": 1.0, "psi_cap": 2.0, "beta": 0.3, "z": 1.1, "eps0": 0.6},
    {"kind": "nucleation", "sigma_n": 0.8, "n": 3},
]


def test_zero_increment_is_identity(grid):
    p = build_model({"kind": "grain_simple", "sigma": 2.0, "F_g": 3})
    stepper = make_stepper(p, grid)
    s0 = stepper.initial_state()
    s1, status = stepper.step(s0, 0.0)
    assert np.array_equal(s1.solid, s0.solid)
    assert s1.theta == 0.0
    assert status is StepStatus.OK and s1.y_m is None
    assert stepper.current_profile(s1).shape == (grid.n,)


def test_volume_kinetic_control(grid):
    p = build_model({"kind": "volume_first_order", "phi_v": 0.05})
    res = run_qm(p, grid, 5.0, samples=101)
    assert np.max(np.abs(res.x - (1.0 - np.exp(-res.theta)))) <= 5e-3


def test_half_order_completes_at_two(grid):
    p = build_model({"kind": "volume_half_order", "phi_v": 0.1, "F_p": 1})
    res = run_qm(p, grid, 3.0, samples=301)
    assert res.theta_c == pytest.approx(2.0, abs=1e-9)
    done = res.theta[np.nonzero(res.x >= 1.0 - 1e-9)[0][0]]
    assert done == pytest.approx(2.0, abs=0.05)


def test_grain_kinetic_control_exact(grid):
    # sigma = 0: a = 1 everywhere, r* = 1 - theta, X = 1 - (1-theta)^Fg
    p = build_model({"kind": "grain_simple", "sigma": 0.0, "F_g": 3})
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    state, _ = stepper.step(state, 0.5)
    assert conversion(state, p) == pytest.approx(0.875, abs=1e-12)


def test_grain_slab_switches_at_one(grid):
    p = build_model({"kind": "grain_simple", "sigma": 2.0, "F_p": 1, "F_g": 1})
    res = run_qm(p, grid, 3.0, samples=151)
    assert res.theta_c == pytest.approx(1.0, abs=1e-9)


def test_grain_sphere_film_theta_c(grid):
    # constant grain modulus (F_g = 1): recorded switch matches the tabulated value
    p = build_model({"kind": "grain_simple", "sigma": 2.0, "F_p": 3, "F_g": 1, "sh": 5})
    res = run_qm(p, grid, 4.0, samples=201)
    want = 1.0 + (2.0 / math.tanh(2.0) - 1.0) / 5.0
    assert want == pytest.approx(1.2149258882910193, abs=1e-12)
    assert res.theta_c == pytest.approx(want, abs=1e-9)


def test_product_layer_theta_c(grid):
    p = build_model({"kind": "grain_product_layer", "sigma": 1.0, "sigma_g_sq": 0.5})
    res = run_qm(p, grid, 4.0, samples=151)
    assert res.theta_c == pytest.approx(1.5, abs=1e-9)


def test_product_layer_cubic_roundtrip(grid):
    p = build_model({"kind": "grain_product_layer", "sigma": 1.0, "sigma_g_sq": 0.5})
    stepper = make_stepper(p, grid)
    g = stepper._g
    g0 = g(np.asarray(0.0))  # the law is defined up to this constant
    assert g(np.asarray(1.0)) - g0 == pytest.approx(1.5)  # 1 + sigma_g^2 at r* = 1
    r = np.linspace(0.05, 1.0, 40)
    dg = np.full_like(r, 0.2)
    r_new = stepper.advance(r, np.zeros_like(r), dg)
    assert np.allclose(g(r_new), np.maximum(g(r) - 0.2, g0), atol=1e-10)
    assert np.all(np.diff(1.0 + 6.0 * 0.5 * (r - r * r)) != 0)  # resistance varies


def test_modified_grain_theta_c_fig3(grid):
    s2, zv = 0.167, 1.5
    p = build_model({"kind": "grain_modified", "sigma": 1.0, "sigma_g_sq": s2,
                     "Z_v": zv, "eps0": 0.5})
    res = run_qm(p, grid, 4.0, samples=151)
    want = 1.0 + 3.0 * s2 + (3.0 * s2 / (zv - 1.0)) * (1.0 - zv ** (2.0 / 3.0))
    assert res.theta_c == pytest.approx(want, abs=1e-9)


def test_modified_grain_structure_formulas(grid):
    p = build_model({"kind": "grain_modified", "sigma": 1.0, "sigma_g_sq": 0.1,
                     "Z_v": 1.5, "eps0": 0.5})
    stepper = make_stepper(p, grid)
    # outer grain radius at full conversion: Z_v^(1/3)
    assert float(stepper._outer_radius(np.asarray(0.0))) == pytest.approx(
        1.1447142425533319, abs=1e-12)
    # diffusivity ratio at r*^3 = 0.5: (1 - (0.5/0.5) * 0.5 * 0.5)^2
    r = 0.5 ** (1.0 / 3.0)
    assert float(stepper._delta(np.asarray(r))) == pytest.approx(0.5625, abs=1e-12)


def test_modified_grain_pore_plugging(grid):
    # strong volume growth consumes the porosity before full conversion; a
    # swelling random-pore solid closes its pores the same way
    for raw in ({"kind": "grain_modified", "sigma": 1.0, "sigma_g_sq": 0.0, "Z_v": 3.0,
                 "eps0": 0.2},
                {"kind": "random_pore", "phi_r": 1.0, "z": 2.5, "eps0": 0.3}):
        p = build_model(raw)
        stepper = make_stepper(p, grid)
        state = stepper.initial_state()
        saw_plug = False
        for _ in range(40):
            state, status = stepper.step(state, 0.1)
            saw_plug = saw_plug or status is StepStatus.PORE_PLUGGED
        assert saw_plug
        x = conversion(state, p)
        assert x < 0.999  # plugged nodes freeze short of complete conversion
        # frozen nodes stop moving
        before = state.solid.copy()
        closed = stepper._lagged_terms(before, state.exposure)[3]
        assert closed.any()
        state, _ = stepper.step(state, 0.5)
        assert np.array_equal(state.solid[closed], before[closed])


def test_random_pore_kinetic_inversion(grid):
    # phi_r -> 0: a = 1 and sqrt(1 - cap ln b) = 1 + cap*theta/2
    p = build_model({"kind": "random_pore", "phi_r": 0.05, "psi_cap": 1.0})
    res = run_qm(p, grid, 1.0, samples=51)
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    state, _ = stepper.step(state, 1.0)
    want = math.exp((1.0 - (1.0 + 0.5) ** 2) / 1.0)
    assert want == pytest.approx(0.2865047968601901, abs=1e-12)
    assert state.solid[-1] == pytest.approx(want, rel=1e-10)  # surface sees a = 1
    assert abs(res.x[-1] - (1.0 - want)) < 2e-3


def test_random_pore_structure_neutral_cases(grid):
    p = build_model({"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1.0,
                     "z": 1.0, "eps0": 0.4})
    stepper = make_stepper(p, grid)
    assert np.all(stepper._delta(np.linspace(0.01, 1.0, 5)) == 1.0)  # Z = 1
    p2 = build_model({"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1.0,
                      "z": 1.7, "eps0": 0.4})
    stepper2 = make_stepper(p2, grid)
    assert float(stepper2._delta(np.asarray(1.0))) == pytest.approx(1.0)  # b = 1


def test_nucleation_kinetic_control(grid):
    p = build_model({"kind": "nucleation", "sigma_n": 1e-3, "n": 3})
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    assert np.all(state.solid == 1.0)
    state, _ = stepper.step(state, 1.0)
    assert np.allclose(state.solid, math.exp(-1.0), atol=1e-6)
    assert math.exp(-1.0) == pytest.approx(0.36787944117144233, abs=1e-15)


# --- reduction chain ----------------------------------------------------------


def test_nucleation_n1_equals_volume_first_order(grid):
    phi = 1.3
    pv = build_model({"kind": "volume_first_order", "phi_v": phi})
    pn = build_model({"kind": "nucleation", "sigma_n": phi / math.sqrt(6.0), "n": 1})
    rv = run_qm(pv, grid, 3.0, samples=121)
    rn = run_qm(pn, grid, 3.0, samples=121)
    assert np.max(np.abs(rv.x - rn.x)) <= 1e-6


def test_product_layer_zero_resistance_equals_grain(grid):
    pg = build_model({"kind": "grain_simple", "sigma": 1.5, "F_g": 3})
    pp = build_model({"kind": "grain_product_layer", "sigma": 1.5, "sigma_g_sq": 0.0})
    rg = run_qm(pg, grid, 3.0, samples=121)
    rp = run_qm(pp, grid, 3.0, samples=121)
    assert np.max(np.abs(rg.x - rp.x)) <= 1e-8


def test_modified_grain_unit_volume_ratio_equals_product_layer(grid):
    pm = build_model({"kind": "grain_modified", "sigma": 1.5, "sigma_g_sq": 0.3,
                      "Z_v": 1.0 + 1e-8, "eps0": 0.5})
    pp = build_model({"kind": "grain_product_layer", "sigma": 1.5, "sigma_g_sq": 0.3})
    rm = run_qm(pm, grid, 4.0, samples=121)
    rp = run_qm(pp, grid, 4.0, samples=121)
    assert np.max(np.abs(rm.x - rp.x)) <= 1e-4


def test_unit_volume_ratio_has_no_structure_factor(grid):
    # at Z_v = 1 the grains keep their size: neither solver reports a
    # structure factor, so the FD gas solve keeps its precomputed bands
    r = np.linspace(0.0, 1.0, 11)
    gg = fdref._GasGrid(r.size, 3)
    for raw in ({"kind": "grain_product_layer", "sigma": 1.5, "sigma_g_sq": 0.3},
                {"kind": "grain_modified", "sigma": 1.5, "sigma_g_sq": 0.3, "Z_v": 1.0}):
        p = build_model(raw)
        stepper = make_stepper(p, grid)
        _, delta, _ = stepper.terms(r, r)
        assert delta is None and stepper._lagged_terms(r, r)[3:] == (None, StepStatus.OK)
        _, fd_delta, _ = fdref._FD_MODELS[p.kind](p).terms(r)
        assert fd_delta is None and gg.conductance(fd_delta) is gg.cond
    swelling = build_model({"kind": "grain_modified", "sigma": 1.5, "sigma_g_sq": 0.3,
                            "Z_v": 1.4})
    assert make_stepper(swelling, grid).terms(r, r)[1] is not None
    assert fdref._FD_MODELS[swelling.kind](swelling).terms(r)[1] is not None


@st.composite
def _law_states(draw):
    """A single-gas QM law with a lagged state away from exhaustion.

    Returns (stepper, solid, exposure, FD state): the FD law carries the same
    solid as s = sqrt(b) (half order), w = -ln b (random pore), u = g
    (nucleation, where b = exp(-g^n)), else as the solid itself.  Modified
    grain is drawn at Z_v < 1, Z_v = 1 and Z_v > 1; Z > 1 and Z_v > 1 close
    pores at some states.
    """
    kind = draw(st.sampled_from(["volume_first_order", "volume_half_order", "grain_simple",
                                 "grain_product_layer", "grain_modified", "random_pore",
                                 "nucleation"]))
    raw = {"kind": kind, "thiele": draw(st.floats(0.1, 5.0))}
    if kind.startswith("volume"):
        raw["F_p"] = draw(st.sampled_from([1, 3]))
    elif kind == "grain_simple":
        raw.update(F_p=draw(st.sampled_from([1, 3])), F_g=draw(st.sampled_from([1, 2, 3])))
    elif kind.startswith("grain"):
        raw["sigma_g_sq"] = draw(st.floats(0.0, 0.5))
        if kind == "grain_modified":
            raw.update(Z_v=draw(st.floats(0.3, 0.95) | st.just(1.0) | st.floats(1.05, 3.0)),
                       eps0=draw(st.floats(0.1, 0.9)))
    elif kind == "random_pore":
        raw.update(psi_cap=draw(st.floats(0.0, 4.0)), beta=draw(st.floats(0.0, 2.0)),
                   z=draw(st.floats(0.3, 3.0)), eps0=draw(st.floats(0.1, 0.9)))
    else:
        raw["n"] = draw(st.sampled_from([1, 3]))
    p = build_model(raw)
    nodes = st.lists(st.floats(0.2, 1.0), min_size=7, max_size=7).map(np.array)
    solid = draw(nodes)
    exposure = draw(nodes) * 1.5
    fd_state = {"volume_half_order": np.sqrt(solid), "random_pore": -np.log(solid),
                "nucleation": exposure}.get(kind, solid)
    if kind == "nucleation":
        solid = np.exp(-np.minimum(exposure**p.solid_order, LN_B_CAP))
    return make_stepper(p, SpatialGrid(101)), solid, exposure, fd_state


@settings(max_examples=150, deadline=None)
@given(_law_states())
def test_qm_and_fd_laws_agree_on_reaction_coefficient(case):
    # two implementations of one law: M^2 delta of the QM is the FD reaction
    # coefficient rho of the same solid, wherever the pores are open
    stepper, solid, exposure, fd_state = case
    M, delta, _ = stepper.terms(solid, exposure)
    rho, fd_delta, _ = fdref._FD_MODELS[stepper.params.kind](stepper.params).terms(fd_state)
    if delta is None:
        assert fd_delta is None
        delta, open_ = 1.0, np.ones(solid.shape, dtype=bool)
    else:
        open_ = (delta > 0.0) & (fd_delta > 0.0)
    np.testing.assert_allclose((M**2 * delta)[open_], rho[open_], rtol=1e-14, atol=0.0)


@settings(max_examples=150, deadline=None)
@given(_law_states())
def test_rate_factor_k_matches_the_update(case):
    # k, which sizes the substep, is the rate of the law's own update: the
    # one-sided difference of advance at dg 1e-7 (truncation below 1e-6 in
    # these boxes) on open nodes; the stepper's closure gives closed nodes
    # (delta 0) k 0 and the plugged modulus, and keeps their solid
    stepper, solid, exposure, _ = case
    M, delta, k = stepper.terms(solid, exposure)
    h = 1e-7
    dg = np.full(solid.shape, h)
    new = stepper.advance(solid, exposure, dg)
    M_c, _, k_c, closed, _ = stepper._lagged_terms(solid, exposure)
    assert (closed is None) == (delta is None)
    open_ = np.ones(solid.shape, dtype=bool) if closed is None else delta > 0.0
    k, k_c = np.broadcast_to(k, solid.shape), np.broadcast_to(k_c, solid.shape)
    np.testing.assert_allclose(((solid - new) / h)[open_], k[open_], rtol=1e-6, atol=0.0)
    assert np.array_equal(M_c[open_], M[open_]) and np.array_equal(k_c[open_], k[open_])
    assert np.all(k_c[~open_] == 0.0) and np.all(M_c[~open_] == steppers._PLUGGED_MODULUS)
    kept = stepper._advance_open(PelletState(0.0, solid, exposure), closed, dg)
    assert np.array_equal(kept, np.where(open_, new, solid))


def test_random_pore_vanishing_structure_equals_volume(grid):
    pv = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    pr = build_model({"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1e-8})
    rv = run_qm(pv, grid, 3.0, samples=121)
    rr = run_qm(pr, grid, 3.0, samples=121)
    assert np.max(np.abs(rv.x - rr.x)) <= 1e-4


# --- simultaneous gases ---------------------------------------------------------


def test_simultaneous_flat_selectivity(grid):
    p = build_model({"kind": "simultaneous", "sigma_a": 0.05, "sigma_c": 0.05,
                     "psi_ab": 0.4})
    res = run_qm(p, grid, 5.0, samples=51)
    s0 = res.selectivity_series
    assert np.all(np.abs(s0[1:] - 2.0 / 3.0) <= 1e-6)


def test_simultaneous_single_gas_degenerate(grid):
    p = build_model({"kind": "simultaneous", "sigma_a": 1.0, "sigma_c": 0.7, "psi_ab": 1.0})
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    for _ in range(5):
        state, _ = stepper.step(state, 0.3)
    assert np.allclose(state.solid_aux, state.solid, atol=1e-12)
    assert np.all(stepper.current_profile(state)[1] == 0.0)  # psi_C == 0


def test_simultaneous_initial_condition(grid):
    p = build_model({"kind": "simultaneous", "sigma_a": 0.3, "sigma_c": 1.0, "psi_ab": 0.4})
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    assert np.all(state.solid == 1.0) and np.all(state.solid_aux == 1.0)
    psi_a, psi_c = stepper.current_profile(state)
    assert psi_a[-1] == pytest.approx(0.4)
    assert psi_c[-1] == pytest.approx(0.6)


@pytest.mark.parametrize("dtheta", [0.0, 0.1])
def test_simultaneous_step_requires_b_a(grid, dtheta):
    p = build_model({"kind": "simultaneous", "sigma_a": 0.3, "sigma_c": 1.0, "psi_ab": 0.4})
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    state.solid_aux = None
    with pytest.raises(SolverError, match="solid_aux"):
        if dtheta == 0.0:  # a zero step evaluates nothing; the profile still needs b_A
            stepper.current_profile(state)
        else:
            stepper.step(state, dtheta)


def test_simultaneous_selectivity_exceeds_flat_ratio_when_fast_gas_starved(grid):
    # sigma_C >> sigma_A: C cannot reach the interior, A overconverts there,
    # so S0 = X_A/(X - X_A) sits strictly above psi_ab/psi_cb.
    p = build_model({"kind": "simultaneous", "sigma_a": 0.1, "sigma_c": 3.0, "psi_ab": 0.4})
    res = run_qm(p, grid, 8.0, samples=81)
    s0 = res.selectivity_series
    assert np.all(s0[1:] > 2.0 / 3.0)


# --- generic stepping properties -----------------------------------------------


@pytest.mark.parametrize("raw", ZOO, ids=lambda r: r["kind"] + str(r.get("F_g", "")))
def test_solid_monotone_and_surface_first(grid, raw):
    p = build_model(raw)
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    prev_solid = state.solid.copy()
    prev_x = 0.0
    prev_ym = 1.0
    for _ in range(12):
        state, _ = stepper.step(state, 0.25)
        # the front and the switch time are set together, at the switch
        assert (state.y_m is None) == (state.theta_c is None)
        prof = stepper.current_profile(state)
        assert np.all(state.solid <= prev_solid + 1e-12)
        assert np.all(state.solid >= -1e-15)
        x = conversion(state, p)
        assert x >= prev_x - 1e-12
        assert 0.0 <= x <= 1.0
        # surface is richest in gas, so it converts first
        assert state.solid[-1] <= np.min(state.solid) + 1e-9
        assert np.all(prof <= 1.0 + 1e-9)
        if state.y_m is not None:
            assert state.theta >= state.theta_c - 1e-12
            assert state.y_m <= prev_ym + 1e-12
            prev_ym = state.y_m
            beyond = grid.y > state.y_m
            assert np.all(state.solid[beyond] <= 1e-9)
        prev_solid = state.solid.copy()
        prev_x = x
    # the run reads its theta_c off the final state of the same 13-point schedule
    assert run_qm(p, grid, 3.0, samples=13).theta_c == state.theta_c


@pytest.mark.parametrize("raw", [ZOO[0], ZOO[2], ZOO[4], ZOO[6]],
                         ids=lambda r: r["kind"])
def test_step_size_robustness(grid, raw):
    # halving the internal cap moves X by less than 10x the cap
    p = build_model(raw)
    r1 = run_qm(p, grid, 2.0, samples=41, decrement_cap=0.01)
    r2 = run_qm(p, grid, 2.0, samples=41, decrement_cap=0.005)
    assert np.max(np.abs(r1.x - r2.x)) < 0.1



@pytest.mark.parametrize("kw, plugged", [
    ({"sigma": 3.0, "sigma_g_sq": 0.2, "Z_v": 3.0, "eps0": 0.3, "psi": 1.0},
     "at 10 sample step(s), first near theta=0.1"),
    ({"sigma": 0.25, "sigma_g_sq": 0.0, "Z_v": 2.0, "eps0": 0.25, "psi": 0.05},
     "at 9 sample step(s), first near theta=0.2"),
], ids=("kw0", "kw1"))
def test_series_warning_reported_on_plugged_steps(kw, plugged):
    # unsteady plugging pellets truncate the eigen-series on every step; a
    # step that also plugs must still count as a series warning, and the
    # plugging is reported on its own line
    p = build_model({"kind": "grain_modified", **kw})
    grid = SpatialGrid(101)
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    statuses = []
    for _ in range(10):
        state, status = stepper.step(state, 0.1)
        statuses.append(status)
    assert all(StepStatus.SERIES_WARNING in s for s in statuses)
    assert any(StepStatus.PORE_PLUGGED in s for s in statuses)
    res = run_qm(p, grid, 1.0, samples=11)
    assert res.warnings == ["eigen-series truncated before term_tol at 10 sample step(s), "
                            "first near theta=0.1",
                            f"pores closed around unreacted solid {plugged}"]


def test_dropped_snapshot_reported(grid):
    # a snapshot time past theta_end is not sampled; the run names it
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    res = run_qm(p, grid, 1.0, samples=11, snapshot_thetas=(0.5, 2.0))
    assert [snap.theta for snap in res.snapshots] == [0.5]
    assert res.warnings == ["snapshot theta(s) outside [0, 1] dropped: 2.0"]


def test_snapshot_near_a_sample_is_that_sample():
    # 0.3 and 0.7 are an ulp off the samples of linspace(0, 1, 11): each is
    # taken as that sample, not added as a second sample and snapshot
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    res = run_qm(p, SpatialGrid(101), 1.0, 11, (0.3, 0.7))
    assert res.theta.size == 11 and len(res.snapshots) == 2
    assert res.warnings == []
    # an off-grid time and one within 1e-12 theta_end of it add one sample;
    # a time outside [0, theta_end] is still dropped and named
    res = run_qm(p, SpatialGrid(101), 1.0, 11, (0.35, 0.35 + 1e-15, 0.3, 1.5))
    assert res.theta.size == 12 and np.all(np.diff(res.theta) > 0.0)
    assert [snap.theta for snap in res.snapshots] == pytest.approx([0.3, 0.35], abs=1e-15)
    assert res.warnings == ["snapshot theta(s) outside [0, 1] dropped: 1.5"]


def test_snapshot_theta_is_its_sample_theta():
    # the state's theta is a sum of substeps; a snapshot carries its sample's theta
    p = build_model({"kind": "volume_first_order", "phi_v": 1.5})
    res = run_qm(p, SpatialGrid(101), 3.0, 61, (0.5, 1.0))
    assert [snap.theta for snap in res.snapshots] == [res.theta[10], res.theta[20]]
    assert [snap.theta for snap in res.snapshots] == [0.5, 1.0]


def test_snapshot_tolerance_at_both_ends():
    # an ulp past either end of [0, theta_end] is that end; 1e-9 past it is dropped
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    res = run_qm(p, SpatialGrid(101), 1.0, 11, (1.0000000000000002, 0.9999999999999999))
    assert res.theta.size == 11
    assert [snap.theta for snap in res.snapshots] == [1.0]
    assert res.warnings == []
    res = run_qm(p, SpatialGrid(101), 1.0, 11, (-1e-13, 1.0 + 1e-9))
    assert res.theta.size == 11
    assert [snap.theta for snap in res.snapshots] == [0.0]
    assert res.warnings == ["snapshot theta(s) outside [0, 1] dropped: 1.000000001"]


@pytest.mark.parametrize("theta_end", [math.nan, math.inf])
def test_sample_schedule_rejects_nonfinite_end(theta_end):
    # a NaN or infinite end used to give a schedule of NaN
    with pytest.raises(SolverError, match="theta_end must be nonnegative and finite"):
        sample_schedule(theta_end, 11)


def test_grain_run_reaches_exhaustion(grid):
    p = build_model({"kind": "grain_simple", "sigma": 1.0, "F_g": 1, "F_p": 1})
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    status = None
    while state.theta < 4.0:
        state, status = stepper.step(state, 0.25)
        if status is StepStatus.EXHAUSTED:
            break
    assert status is StepStatus.EXHAUSTED
    assert conversion(state, p) == pytest.approx(1.0, abs=1e-12)
    assert state.y_m == 0.0


@pytest.mark.parametrize("fg", [1, 2, 3])
@pytest.mark.parametrize("sherwood", [None, 5.0])
def test_exhausted_grain_pellet_consumes_no_gas(fg, sherwood):
    # a used-up grain takes no gas, so the gas fills the exhausted pellet; with
    # F_g = 1 the law's r ** 0 used to give it the full modulus (gas min 0.551)
    raw = {"kind": "grain_simple", "sigma": 2.0, "F_g": fg}
    if sherwood is not None:
        raw["sh"] = sherwood
    res = run_qm(build_model(raw), SpatialGrid(101), 8.0, 5, (8.0,))
    (snap,) = res.snapshots
    assert res.x[-1] == 1.0 and not snap.solid.any()
    assert np.all(snap.gas == 1.0)


def test_decrement_cap_respected(grid):
    p = build_model({"kind": "volume_first_order", "phi_v": 0.2})
    stepper = make_stepper(p, grid, decrement_cap=0.01)
    state = stepper.initial_state()
    remaining, substeps = 1.0, 0
    while remaining > 1e-14:
        before = state.solid.copy()
        dt, _ = stepper._first_stage_substep(state, remaining)
        assert np.max(before - state.solid) <= 0.021  # soft cap, within 2x
        remaining -= dt
        substeps += 1
    assert substeps > 1


def test_make_stepper_steps_every_kind(grid):
    for raw in [
        {"kind": "volume_first_order", "phi_v": 1.0},
        {"kind": "volume_half_order", "phi_v": 1.0, "F_p": 1},
        {"kind": "grain_simple", "sigma": 1.0, "F_g": 2},
        {"kind": "grain_product_layer", "sigma": 1.0, "sigma_g_sq": 0.2},
        {"kind": "grain_modified", "sigma": 1.0, "sigma_g_sq": 0.2, "Z_v": 1.2, "eps0": 0.5},
        {"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1.0},
        {"kind": "nucleation", "sigma_n": 1.0, "n": 3},
        {"kind": "simultaneous", "sigma_a": 0.5, "sigma_c": 0.5, "psi_ab": 0.5},
    ]:
        stepper = make_stepper(build_model(raw), grid)
        out, _ = stepper.step(stepper.initial_state(), 0.05)
        assert out.theta == pytest.approx(0.05)


@pytest.mark.parametrize("raw", [
    {"kind": "volume_first_order", "phi_v": 2.0},
    {"kind": "volume_half_order", "phi_v": 2.0, "F_p": 1},
    {"kind": "grain_simple", "sigma": 2.0, "F_g": 3},
    {"kind": "grain_product_layer", "sigma": 2.0, "sigma_g_sq": 0.5},
], ids=lambda r: r["kind"])
def test_modulus_bounded_by_base_thiele(grid, raw):
    # for solid-power moduli the per-node value never exceeds the fresh one
    p = build_model(raw)
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    for _ in range(8):
        state, _ = stepper.step(state, 0.2)
        m, _, _ = stepper.terms(state.solid, state.exposure)
        assert np.all(m <= p.thiele + 1e-12)


def test_negative_dtheta_rejected(grid):
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    stepper = make_stepper(p, grid)
    with pytest.raises(SolverError):
        stepper.step(stepper.initial_state(), -0.1)


@pytest.mark.parametrize("cap", [0.0, -0.01, math.nan])
def test_nonpositive_decrement_cap_rejected(grid, cap):
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    with pytest.raises(SolverError, match="decrement cap must be positive"):
        make_stepper(p, grid, cap)


def test_single_gas_run_has_no_selectivity(grid):
    res = run_qm(build_model({"kind": "volume_first_order", "phi_v": 1.0}), grid, 0.5, samples=3)
    assert res.x_a is None and res.selectivity_series is None


@pytest.mark.parametrize("centre, m_front", [(0.5, 1.0), (0.0, 0.0)])
def test_front_modulus_fallbacks(grid, centre, m_front):
    # a sphere whose only unexhausted node is the centre has no volume weight
    # there, so the front takes that node's modulus, sigma b = 1; with no node
    # alive the front modulus is 0
    stepper = make_stepper(build_model({"kind": "grain_simple", "sigma": 2.0, "F_g": 3}), grid)
    state = stepper.initial_state()
    state.solid[:] = 0.0
    state.solid[0] = centre
    state.y_m, state.theta_c = 0.3, 1.0
    want = kernels.second_stage_profiles(0.3, m_front, grid, stepper.geometry)
    assert np.array_equal(stepper.current_profile(state), want)


def test_second_stage_without_theta_c_rejected(grid):
    # a front with no switch time has no theta(y_m) relation to advance on
    stepper = make_stepper(build_model({"kind": "grain_simple", "sigma": 1.0}), grid)
    state = stepper.initial_state()
    state.y_m = 0.5
    with pytest.raises(SolverError, match="theta_c"):
        stepper.step(state, 0.1)


# --- substep halving -------------------------------------------------------------


def _fixed_removal(stepper, calls=60):
    """Make the first `calls` advances remove 0.5 of solid, whatever the increment.

    Later advances remove nothing, so a loop that accepted the oversized
    substep would finish the step instead of raising.
    """
    seen = []

    def advance(solid, exposure, dg):
        seen.append(1)
        return solid - (0.5 if len(seen) <= calls else 0.0)

    stepper.advance = advance
    return stepper


def test_halving_reports_tiny_substep(grid):
    stepper = _fixed_removal(make_stepper(build_model({"kind": "volume_first_order",
                                                       "phi_v": 1.0}), grid))
    with pytest.raises(SolverError, match="decrement cap"):
        stepper.step(stepper.initial_state(), 1e-12)


def test_halving_reports_exhausted_tries(grid):
    # a zero rate estimate starts the halving at dtheta 1e6: 59 halvings leave
    # dtheta near 1.7e-12, so the try limit ends the loop, not the 1e-13 floor
    stepper = _fixed_removal(make_stepper(build_model({"kind": "volume_first_order",
                                                       "phi_v": 1.0}), grid))
    terms = stepper.terms
    stepper.terms = lambda solid, exposure: terms(solid, exposure)[:2] + (0.0,)
    with pytest.raises(SolverError, match="decrement cap"):
        stepper.step(stepper.initial_state(), 1e6)


# --- solid update: safeguarded Newton and closed forms ---------------------------
# X series recorded at n 101 and 21 samples with the former 52-step bisection;
# the Newton update and the closed-form roots must reproduce them within the
# 1e-10 refactor bound.

PINNED_QM = [
    ({"kind": "grain_product_layer", "sigma": 1.5, "sigma_g_sq": 0.5}, 2.0,
     [0.0, 0.2213454642570999, 0.38641993066005254, 0.5158209878164496,
      0.6198653150435108, 0.7046209655272261, 0.7740315730624053, 0.8308299993416874,
      0.8770067168760827, 0.9140688435274202, 0.9431961479813946, 0.9653434349924986,
      0.9813162958259471, 0.9918402339827405, 0.9976584193301922, 0.9997624343848011,
      1.0, 1.0, 1.0, 1.0, 1.0], None),
    ({"kind": "grain_modified", "sigma": 1.5, "sigma_g_sq": 0.2, "Z_v": 1.4, "eps0": 0.5},
     2.0,
     [0.0, 0.22827042779589246, 0.4051164335186148, 0.5460377085555992,
      0.6595902274838511, 0.7511434299366437, 0.8243620231718323, 0.8819093395987287,
      0.9258377281275278, 0.9578416905101141, 0.9794576315875217, 0.9922649452140211,
      0.9981618889379258, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], None),
    ({"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1.0, "beta": 0.5, "z": 1.3, "sh": 8},
     3.0,
     [0.0, 0.12844682508735938, 0.24321148605223242, 0.3451522660590183,
      0.43522359266418986, 0.5144212248841648, 0.5837442331222289, 0.6441687240955761,
      0.6966279445968755, 0.741999647999305, 0.7811022919068442, 0.814689436954722,
      0.8434473307929544, 0.8679978542310738, 0.88889898429807, 0.9066458636871662,
      0.9216801444462882, 0.9343882927764015, 0.9451076434807952, 0.9541319326538092,
      0.9617161147534606], None),
    ({"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1.0, "psi": 0.02}, 2.0,
     [0.0, 0.09068480762190578, 0.17794629625759217, 0.2603694647159245,
      0.33773220802199366, 0.40989142108516907, 0.4767764974982803, 0.5383873600792972,
      0.5947866227505627, 0.6460939973092696, 0.692479161133486, 0.7341538813096775,
      0.7713630422532021, 0.8043805123754484, 0.8334963025522261, 0.8590132899830536,
      0.8812396361595466, 0.9004807718811897, 0.917036265013248, 0.9311961684357997,
      0.9432342665335514], None),
    # two gases, recorded with the former _Simultaneous.step loop: X, then X_A
    ({"kind": "simultaneous", "psi_ab": 0.5, "sigma_a": 1.0, "sigma_c": 2.0}, 2.0,
     [0.0, 0.05986706914813111, 0.11660004388106548, 0.17034320353422383,
      0.22123504728433585, 0.26940942935163326, 0.31499017977168886, 0.35809958898052263,
      0.3988520548526008, 0.4373594351802126, 0.4737231400525743, 0.5080524452175927,
      0.5404417700384337, 0.5709820299757963, 0.5997607728479931, 0.6268650142702445,
      0.6523794747549135, 0.6763812749479274, 0.6989444964904951, 0.7201402952912315,
      0.740037012910197],
     [0.0, 0.036139849696304016, 0.07034674595617674, 0.10270866972380543,
      0.133310161119929, 0.1622328504277626, 0.18955315793726046, 0.21534606703034243,
      0.23968238384709006, 0.26263108330717966, 0.28425601889364804, 0.3046235820728186,
      0.3237932177877859, 0.341822288754695, 0.3587661398348583, 0.3746792009738322,
      0.3896142286501352, 0.4036202871757273, 0.41674460131637203, 0.4290326092394081,
      0.44052801370658945]),
]


@pytest.mark.parametrize("raw, theta_end, want, want_a", PINNED_QM,
                         ids=["product_layer", "modified", "random_pore_film",
                              "random_pore_unsteady", "simultaneous"])
def test_implicit_update_x_pinned(raw, theta_end, want, want_a):
    res = run_qm(build_model(raw), SpatialGrid(101), theta_end, samples=21)
    assert np.max(np.abs(res.x - np.asarray(want))) <= 1e-10
    assert (res.x_a is None) == (want_a is None)
    if want_a is not None:
        assert np.max(np.abs(res.x_a - np.asarray(want_a))) <= 1e-10


# --- filmed first stage: one kernel expression for pellet and bed -------------
# X series recorded at n 101 and 21 samples with the former product of the
# plain sphere shape and the film factor; the fused filmed kernel must agree
# to 1e-12.

PINNED_FILM = [
    ({"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1.0, "beta": 0.5, "z": 1.3, "sh": 8},
     3.0,
     [0.0, 0.12844682508734628, 0.24321148605222676, 0.3451522660590213,
      0.4352235926642064, 0.514421224884182, 0.5837442331222514, 0.6441687240956038,
      0.696627944596904, 0.7419996479993317, 0.7811022919068664, 0.8146894369547399,
      0.843447330792971, 0.8679978542310871, 0.8888989842980815, 0.9066458636871778,
      0.9216801444462978, 0.9343882927764093, 0.9451076434808018, 0.9541319326538154,
      0.9617161147534656]),
    ({"kind": "grain_simple", "sigma": 2.0, "F_g": 2, "sh": 5}, 1.5,
     [0.0, 0.09760274539602665, 0.19153118491360166, 0.28161779411053234,
      0.36767975650633034, 0.449516848761885, 0.5269089286847817, 0.5996129303838802,
      0.6673592423446395, 0.7298473053308504, 0.786740213402053, 0.8376580262856086,
      0.8821707147238597, 0.9197854552332463, 0.9499319983192059, 0.9720806419616211,
      0.9909931299153234, 1.0, 1.0, 1.0, 1.0]),
]


@pytest.mark.parametrize("raw, theta_end, want", PINNED_FILM,
                         ids=["random_pore", "grain_simple"])
def test_filmed_x_pinned(raw, theta_end, want):
    res = run_qm(build_model(raw), SpatialGrid(101), theta_end, samples=21)
    assert np.max(np.abs(res.x - np.asarray(want))) <= 1e-12


_EPS = np.finfo(float).eps


def _implicit_law(kind, s2=0.3, z=1.3, psi_cap=1.0, bz=0.5):
    if kind == "grain_product_layer":
        raw = {"kind": kind, "sigma": 1.0, "sigma_g_sq": s2}
    elif kind == "grain_modified":
        raw = {"kind": kind, "sigma": 1.0, "sigma_g_sq": s2, "Z_v": z, "eps0": 0.5}
    else:
        raw = {"kind": kind, "phi_r": 1.0, "psi_cap": psi_cap, "beta": bz / z, "z": z}
    return make_stepper(build_model(raw), SpatialGrid(101))


def _update_problem(stepper, solid, dg):
    """(fn, dfn, target, lo, hi, x0) of the grain law's update, started from the old solid.

    `advance` poses the same problem but starts the swelling law from its
    tabulated inverse; the old solid is a far start, which exercises Newton's
    safeguards over several steps.
    """
    g0 = stepper._g(np.zeros_like(solid))
    return (stepper._g, stepper._resistance, np.maximum(stepper._g(solid) - dg, g0),
            np.zeros_like(solid), solid, solid)


def _bisection(fn, target, lo, hi):
    """The former bisection, run on until every bracket is 1e-16 or one ulp wide.

    52 halvings resolve the random-pore bracket [0, 700] only to about
    1.6e-13, so the reference keeps halving instead of stopping there.
    """
    lo, hi = lo.copy(), hi.copy()
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((hi - lo > 1e-16) & (mid != lo) & (mid != hi)):
            return mid
        below = fn(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)


@st.composite
def _implicit_updates(draw, kinds=("grain_product_layer", "grain_modified")):
    kind = draw(st.sampled_from(kinds))
    stepper = _implicit_law(kind, s2=draw(st.floats(0.0, 1.0)), z=draw(st.floats(0.6, 2.0)))
    n = draw(st.integers(1, 12))
    solid = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)))
    dg = np.array(draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n)))
    return stepper, solid, dg


@settings(max_examples=100, deadline=None)
@given(_implicit_updates())
def test_newton_update_matches_bisection(case):
    stepper, solid, dg = case
    fn, dfn, target, lo, hi, x0 = _update_problem(stepper, solid, dg)
    evals = []

    def counted(x):
        evals.append(1)
        return fn(x)

    x = steppers._invert_increasing(counted, dfn, target, lo, hi, x0)
    assert np.all((lo <= x) & (x <= hi))
    # the Newton phase converges on its own: no node needs the bisection finish
    assert len(evals) <= steppers._NEWTON_STEPS
    ref = _bisection(fn, target, lo, hi)
    assert np.all(np.abs(x - ref) <= 1e-14)  # grain radii are at most 1
    assert np.all(np.abs(fn(x) - target) <= 8 * _EPS * np.maximum(np.abs(target), 1.0))
    # a larger exposure never leaves more solid (up to rounding of the root)
    s0 = np.full(dg.size, solid[0])
    new = stepper.advance(s0, np.zeros_like(s0), np.sort(dg))
    assert np.all(np.diff(new) <= 8 * _EPS * s0[0])


@contextlib.contextmanager
def _counted_invert():
    """Evaluations of the law per `_invert_increasing` call, one list entry per call.

    Wraps the fn that `advance` passes, as the benchmark's tracer does."""
    calls = []
    invert = steppers._invert_increasing

    def wrapped(fn, *args):
        calls.append(0)

        def counted(x):
            calls[-1] += 1
            return fn(x)

        return invert(counted, *args)

    steppers._invert_increasing = wrapped
    try:
        yield calls
    finally:
        steppers._invert_increasing = invert


_SWELLING_EVALS = 3  # the most evaluations one advance took over this box, in 3,000 scratch draws


@settings(max_examples=100, deadline=None)
@given(_implicit_updates(kinds=("grain_modified",)).filter(lambda case: case[0]._swells))
def test_swelling_update_from_the_table_matches_bisection(case):
    # advance starts Newton from the interpolated table: the root is the
    # bisection's, one or two Newton steps and the confirming evaluation away
    stepper, solid, dg = case
    fn, _, target, lo, hi, _ = _update_problem(stepper, solid, dg)
    with _counted_invert() as calls:
        r = stepper.advance(solid, np.zeros_like(solid), dg)
    assert len(calls) == 1 and calls[0] <= _SWELLING_EVALS
    assert np.all((lo <= r) & (r <= hi))
    ref = _bisection(fn, target, lo, hi)
    assert np.all(np.abs(r - ref) <= 1e-14)
    assert np.all(np.abs(fn(r) - target) <= 8 * _EPS * np.maximum(np.abs(target), 1.0))


def test_swelling_update_takes_two_evaluations_at_the_nominal_case():
    # the benchmark's swelling case: one Newton step from the table and the
    # evaluation that confirms it, at every update of a run to exhaustion
    p = build_model({"kind": "grain_modified", "sigma": 1.5, "sigma_g_sq": 0.2, "Z_v": 1.4,
                     "eps0": 0.5})
    with _counted_invert() as calls:
        res = run_qm(p, SpatialGrid(201), 4.0, samples=81)
    assert res.x[-1] > 0.99
    assert len(calls) > 50 and set(calls) == {2}


@pytest.mark.parametrize("geometry", [PelletGeometry(3), PelletGeometry(1)], ids=["sphere", "slab"])
def test_stacked_shapes_are_the_single_shapes(grid, geometry):
    # the kernel works element by element, so a (2, n) modulus gives each
    # row's own shape bit for bit, with M = 0 nodes and the centre node among them
    root = np.linspace(-0.5, 1.0, grid.n).clip(0.0) ** 2
    moduli = np.array([[0.7], [25.0]]) * root
    stacked = kernels.shape_ratio(geometry, moduli, grid.y)
    for row, m in zip(stacked, moduli):
        assert np.array_equal(row, kernels.shape_ratio(geometry, m, grid.y))


def test_two_gas_profile_is_two_single_gas_shapes(grid):
    p = build_model({"kind": "simultaneous", "sigma_a": 0.7, "sigma_c": 2.5, "psi_ab": 0.4})
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    state.solid = np.linspace(-0.5, 1.0, grid.n).clip(0.0) ** 2
    root = np.sqrt(2.0 * p.pellet.shape_factor * state.solid)
    psi_a, psi_c = stepper.current_profile(state)
    assert np.array_equal(psi_a, p.psi_ab * kernels.shape_ratio(p.pellet, p.thiele_a * root, grid.y))
    assert np.array_equal(psi_c, p.psi_cb * kernels.shape_ratio(p.pellet, p.thiele_c * root, grid.y))


@settings(max_examples=150, deadline=None)
@given(s2=st.floats(math.log(1e-12), math.log(50.0)).map(math.exp),
       solid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       share=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=12))
@example(s2=0.0, solid=[0.0, 1e-9, 0.4, 1.0], share=[0.0, 0.3, 1.0, 1.5])
@example(s2=1e-12, solid=[1e-9, 0.4, 1.0], share=[0.0, 1e-9, 0.5])
@example(s2=1e-6, solid=[1e-9, 0.4, 1.0], share=[0.0, 1e-9, 0.5])  # the trig branch's edge
@example(s2=50.0, solid=[1e-9, 0.4, 1.0], share=[0.0, 1e-9, 0.5])
def test_product_layer_closed_form_root(s2, solid, share):
    # the cubic's root against a bisection of g, for dg from 0 to past
    # exhaustion (share > 1 floors the target at g0 and the core at 0)
    stepper = _implicit_law("grain_product_layer", s2=s2)
    g, g0 = stepper._g, stepper._g0
    solid = np.array(solid)
    dg = np.resize(share, solid.size) * (g(solid) - g0)
    r = stepper.advance(solid, np.zeros_like(solid), dg)
    target = np.maximum(g(solid) - dg, g0)
    assert np.all((0.0 <= r) & (r <= solid))
    ref = _bisection(g, target, np.zeros_like(solid), solid)
    scale = np.maximum(ref, target / stepper._resistance(ref))
    assert np.all(np.abs(r - ref) <= np.maximum(8 * _EPS * scale, 1e-16))  # the bisection's stop
    assert np.all(np.abs(g(r) - target) <= 8 * _EPS * np.maximum(np.abs(g(r)), target))
    # a larger exposure never leaves more solid, up to the rounding of the
    # root: neighbouring targets may round up to about half an ulp of scale apart
    for b in (solid[0], 1.0):
        s0 = np.full(len(share), b)
        new = stepper.advance(s0, np.zeros_like(s0), np.sort(share) * (g(s0) - g0))
        assert np.all(np.diff(new) <= 8 * _EPS * max(b, g(b) / stepper._resistance(b)))


@pytest.mark.parametrize("kind, law", [
    ("grain_product_layer", {"s2": 0.7}),
    ("grain_modified", {"s2": 0.4, "z": 1.6}),
    ("grain_modified", {"s2": 0.4, "z": 0.7}),
    ("grain_modified", {"s2": 0.4, "z": 1.0}),  # the Z = 1 branch of _g
])
def test_update_derivatives_match_finite_differences(kind, law):
    stepper = _implicit_law(kind, **law)
    x = np.linspace(0.02, 0.98, 41)
    h = 1e-6
    central = (stepper._g(x + h) - stepper._g(x - h)) / (2.0 * h)
    assert np.allclose(stepper._resistance(x), central, rtol=1e-8, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(psi_cap=st.floats(0.0, 30.0), bz=st.floats(0.0, 10.0),
       log_w=st.lists(st.floats(math.log(1e-12), math.log(LN_B_CAP)), min_size=1, max_size=12),
       dg=st.lists(st.floats(0.0, 0.5), min_size=2, max_size=12))
@example(psi_cap=0.0, bz=1.5, log_w=[math.log(1e-12), 0.0, math.log(LN_B_CAP)], dg=[0.0, 0.3])
@example(psi_cap=4.0, bz=0.0, log_w=[math.log(1e-12), 0.0, math.log(LN_B_CAP)], dg=[0.0, 0.3])
def test_random_pore_closed_form_inverse(psi_cap, bz, log_w, dg):
    stepper = _implicit_law("random_pore", psi_cap=psi_cap, bz=bz, z=1.3)
    h = stepper._h_of_w(np.exp(log_w))
    w = stepper._w_of_h(h)
    # 1e-14 relative on w above 1, where ulp(w) reaches 1.1e-13 at the cap
    ref = _bisection(stepper._h_of_w, h, np.zeros_like(h), np.full_like(h, LN_B_CAP))
    assert np.all(np.abs(w - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    assert np.all(np.abs(stepper._h_of_w(w) - h) <= 8 * _EPS * h)
    # a larger exposure never leaves more solid, up to the rounding of the
    # round trip through h: a few ulp of w, which b = exp(-w) makes relative
    dg = np.sort(dg)
    for b in (1.0, 0.3, 1e-9):
        s0 = np.full(dg.size, b)
        new = stepper.advance(s0, np.zeros_like(s0), dg)
        assert np.all(np.diff(new) <= 8 * _EPS * b * max(1.0, -math.log(b)))


def test_invert_rejects_a_non_monotone_law():
    lo, hi = np.zeros(3), np.ones(3)
    target = np.full(3, 0.3)
    with pytest.raises(SolverError, match="law is not monotone"):
        steppers._invert_increasing(lambda x: -x, lambda x: -np.ones_like(x),
                                    -target, lo, hi, hi)

    # increasing between the endpoints, decreasing around x0 = 0.5
    def wavy(x):
        return x + 0.5 * np.sin(2.0 * np.pi * x)

    def slope(x):
        return 1.0 + np.pi * np.cos(2.0 * np.pi * x)

    with pytest.raises(SolverError, match="law is not monotone"):
        steppers._invert_increasing(wavy, slope, target, lo, hi, np.full(3, 0.5))
    with pytest.raises(SolverError, match="law is not monotone"):
        steppers._invert_increasing(lambda x: x, lambda x: np.full_like(x, np.nan),
                                    target, lo, hi, hi)


def test_invert_finishes_by_bisection():
    # a derivative far too small throws every Newton step out of the bracket,
    # so the nodes reach the bisection finish and still land on the root
    evals = []

    def fn(x):
        evals.append(1)
        return x**3 + x

    target = np.array([0.1, 1.0, 2.0])
    lo, hi = np.zeros(3), np.ones(3)
    x = steppers._invert_increasing(fn, lambda x: np.full_like(x, 1e-9), target, lo, hi, hi)
    assert len(evals) == steppers._NEWTON_STEPS + steppers._BISECT_STEPS
    assert np.all(np.abs(x - _bisection(fn, target, lo, hi)) <= 1e-14)


# --- invariants over random parameters -----------------------------------------

_MODULUS = st.floats(0.01, 10.0)


@st.composite
def _quasi_steady_models(draw, kinds=None):
    """A valid quasi-steady parameter set of any kind (or of ``kinds``, by
    value), as build_model takes it."""
    kind = draw(st.sampled_from(sorted((k for k in steppers._STEPPERS
                                        if kinds is None or k.value in kinds),
                                       key=lambda k: k.value)))
    raw = {"kind": kind.value}
    if kind.value in ("volume_first_order", "volume_half_order"):
        raw.update(phi_v=draw(_MODULUS), F_p=draw(st.sampled_from([1, 3])))
    elif kind.value == "grain_simple":
        raw.update(sigma=draw(_MODULUS), F_p=draw(st.sampled_from([1, 3])),
                   F_g=draw(st.sampled_from([1, 2, 3])))
        if raw["F_p"] == 3 and draw(st.booleans()):
            raw["sh"] = draw(st.floats(0.5, 50.0))
    elif kind.value == "grain_product_layer":
        raw.update(sigma=draw(_MODULUS), sigma_g_sq=draw(st.floats(0.0, 1.0)))
    elif kind.value == "grain_modified":
        raw.update(sigma=draw(_MODULUS), sigma_g_sq=draw(st.floats(0.0, 1.0)),
                   Z_v=draw(st.floats(0.6, 2.0)), eps0=draw(st.floats(0.2, 0.8)))
    elif kind.value == "random_pore":
        raw.update(phi_r=draw(_MODULUS), psi_cap=draw(st.floats(0.0, 5.0)),
                   beta=draw(st.floats(0.0, 2.0)), z=draw(st.floats(0.6, 2.0)),
                   eps0=draw(st.floats(0.2, 0.8)))
        if draw(st.booleans()):
            raw["sh"] = draw(st.floats(0.5, 50.0))
    elif kind.value == "nucleation":
        raw.update(sigma_n=draw(_MODULUS), n=draw(st.sampled_from([1, 3])))
    else:
        raw.update(sigma_a=draw(_MODULUS), sigma_c=draw(_MODULUS),
                   psi_ab=draw(st.floats(0.0, 1.0)))
    return build_model(raw), draw(st.floats(0.2, 3.0))


@st.composite
def _unsteady_models(draw):
    """A valid unsteady parameter set (psi > 0) of any kind that has one: no
    film, and beta 0 and Z 1 for random pore."""
    kinds = sorted((k for k in steppers._STEPPERS if k.value != "simultaneous"),
                   key=lambda k: k.value)
    kind = draw(st.sampled_from(kinds))
    raw = {"kind": kind.value, "psi": draw(st.floats(0.01, 0.2))}
    if kind.value in ("volume_first_order", "volume_half_order"):
        raw.update(phi_v=draw(_MODULUS), F_p=draw(st.sampled_from([1, 3])))
    elif kind.value == "grain_simple":
        raw.update(sigma=draw(_MODULUS), F_p=draw(st.sampled_from([1, 3])),
                   F_g=draw(st.sampled_from([1, 2, 3])))
    elif kind.value == "grain_product_layer":
        raw.update(sigma=draw(_MODULUS), sigma_g_sq=draw(st.floats(0.0, 1.0)))
    elif kind.value == "grain_modified":
        raw.update(sigma=draw(_MODULUS), sigma_g_sq=draw(st.floats(0.0, 1.0)),
                   Z_v=draw(st.floats(0.6, 2.0)), eps0=draw(st.floats(0.2, 0.8)))
    elif kind.value == "random_pore":
        raw.update(phi_r=draw(_MODULUS), psi_cap=draw(st.floats(0.0, 5.0)),
                   beta=0.0, z=1.0, eps0=draw(st.floats(0.2, 0.8)))
    else:
        raw.update(sigma_n=draw(_MODULUS), n=draw(st.sampled_from([1, 3])))
    return build_model(raw), draw(st.floats(0.2, 3.0))


# about 60 draws of each
@settings(max_examples=120, deadline=None)
@given(st.one_of(_quasi_steady_models(), _unsteady_models()))
def test_conversion_bounded_and_nondecreasing(case):
    params, theta_end = case
    res = run_qm(params, SpatialGrid(101), theta_end, samples=11)
    for x in (res.x, res.x_a):
        if x is not None:
            assert np.all((0.0 <= x) & (x <= 1.0))
            assert np.all(np.diff(x) >= 0.0)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_quasi_steady_models(), _unsteady_models()),
       st.floats(0.0, 2.0), st.floats(1e-3, 1.0))
def test_two_half_steps_match_one_step(case, theta0, dtheta):
    # the substep schedules differ, so X may differ, but only by O(cap).  The
    # bound is one cap: nucleation at n = 3 reaches about 0.4 cap, because
    # near g = 0 its modulus grows with g while its solid barely moves.
    params, _ = case
    stepper = make_stepper(params, SpatialGrid(101))
    start, _ = stepper.step(stepper.initial_state(), theta0)
    one, _ = stepper.step(start, dtheta)
    half, _ = stepper.step(start, 0.5 * dtheta)
    two, _ = stepper.step(half, 0.5 * dtheta)
    assert two.theta == pytest.approx(one.theta, abs=1e-12)
    measures = [conversion] + ([conversion_by_gas_a] if one.solid_aux is not None else [])
    for measure in measures:
        assert abs(measure(one, params) - measure(two, params)) <= stepper.cap


_PSI_ORDERED = ("volume_first_order", "grain_simple", "nucleation")


@settings(max_examples=60, deadline=None)
@given(_unsteady_models().filter(lambda case: case[0].kind.value in _PSI_ORDERED))
def test_more_accumulation_never_converts_faster(case):
    # psi x 1.5 slows the gas's approach to its steady profile, so X at every
    # sample is no higher; the bound is 0, as 600 draws of this box broke it by 0
    params, theta_end = case
    slower = dataclasses.replace(params, psi=1.5 * params.psi)
    base = run_qm(params, SpatialGrid(101), theta_end, samples=31).x
    assert np.all(run_qm(slower, SpatialGrid(101), theta_end, samples=31).x <= base)


def _ordering_slack(*runs):
    """How far an ordering of the runs' X may break: 0 while every pore stays
    open, and twice the decrement cap once one closes.

    Where a pore closes around unreacted solid, X ends near a plugging value
    that hardly moves with the modulus or Sh (in the worst draws the oracle
    breaks the ordering by 4.5e-6 and 1.4e-6), and the QM's O(cap) error
    there breaks it at the default cap: by up to 9.1e-3 for the modulus and
    5.3e-4 for Sh, over about 32,000 and 21,000 scratch draws, and by 0 at
    cap 1e-3 in the worst draw.  With every pore open the draws broke it by 0.
    """
    closed = any(w.startswith(PORES_CLOSED) for run in runs for w in run.warnings)
    return 2.0 * steppers.DEFAULT_DECREMENT_CAP if closed else 0.0


@settings(max_examples=100, deadline=None)
@given(st.one_of(_quasi_steady_models(), _unsteady_models())
       .filter(lambda case: case[0].kind.value != "simultaneous"))
def test_larger_modulus_never_converts_faster(case):
    # the base modulus x 1.25 (and with it psi phi^2) depletes the gas inside
    # the pellet more, so X at every sample is no higher
    params, theta_end = case
    faster = dataclasses.replace(params, thiele=1.25 * params.thiele)
    base = run_qm(params, SpatialGrid(101), theta_end, samples=31)
    fast = run_qm(faster, SpatialGrid(101), theta_end, samples=31)
    assert np.all(fast.x <= base.x + _ordering_slack(base, fast))


@settings(max_examples=80, deadline=None)
@given(_quasi_steady_models(kinds=("grain_simple", "random_pore"))
       .filter(lambda case: case[0].sherwood is not None))
def test_stronger_film_never_converts_slower(case):
    # Sh x 2 lowers the film resistance, so X at every sample is no lower
    params, theta_end = case
    thinner = dataclasses.replace(params, sherwood=2.0 * params.sherwood)
    base = run_qm(params, SpatialGrid(101), theta_end, samples=31)
    thin = run_qm(thinner, SpatialGrid(101), theta_end, samples=31)
    assert np.all(thin.x >= base.x - _ordering_slack(base, thin))


@pytest.mark.parametrize("raw", [
    {"kind": "volume_first_order", "phi_v": 2.0, "F_p": 1, "psi": 0.05},
    {"kind": "grain_simple", "sigma": 1.5, "F_g": 2, "psi": 0.05},
])
def test_unsteady_substep_builds_series_once(monkeypatch, grid, raw):
    # at most one build per first-stage substep: exactly one where
    # kernels._decay_bound finds the first mode live, none where it is dead
    series, builds, live = [0], [], []

    def counted_series(*args):
        series[0] += 1
        return series_terms(*args)

    def bounded_profile(M, theta, scale, grid, geometry):
        bound = kernels._decay_bound(np.asarray(M, dtype=float) ** 2,
                                     kernels._LAM1_SQ[geometry.is_sphere], scale, theta)
        live[-1] += int(bound < kernels._DEAD)
        return profile_unsteady(M, theta, scale, grid, geometry)

    def counted_substep(self, *args):
        before = series[0]
        live.append(0)
        out = substep(self, *args)
        builds.append(series[0] - before)
        return out

    series_terms, profile_unsteady = kernels._series_terms, steppers.profile_unsteady
    substep = steppers._PelletStepper._first_stage_substep
    monkeypatch.setattr(kernels, "_series_terms", counted_series)
    monkeypatch.setattr(steppers, "profile_unsteady", bounded_profile)
    monkeypatch.setattr(steppers._PelletStepper, "_first_stage_substep", counted_substep)
    run_qm(build_model(raw), grid, 3.0, samples=31)
    assert 0 < sum(live) < len(live)  # both live and fully decayed substeps
    assert max(builds) <= 1
    assert builds == live
