import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassolid import (
    SolverError,
    SpatialGrid,
    Stage,
    StepStatus,
    build_model,
    conversion,
    make_stepper,
    run_qm,
    steppers,
)
from gassolid.core import LN_B_CAP

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
    s1, prof, rep = stepper.step(s0, 0.0)
    assert np.array_equal(s1.solid, s0.solid)
    assert s1.theta == 0.0
    assert rep.max_solid_decrement == 0.0 and not rep.stage_switched
    assert prof.values.shape == (grid.n,)


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
    state, _, _ = stepper.step(state, 0.5)
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
    assert g(np.asarray(1.0)) == pytest.approx(1.5)  # 1 + sigma_g^2 at r* = 1
    r = np.linspace(0.05, 1.0, 40)
    dg = np.full_like(r, 0.2)
    r_new, _ = stepper.advance(r, np.zeros_like(r), dg)
    assert np.allclose(g(r_new), np.maximum(g(r) - 0.2, 0.0), atol=1e-10)
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
    # porosity bookkeeping matches the diffusivity law: delta = (eps/eps0)^2
    eps = stepper.porosity(np.asarray(r))
    assert float((eps / 0.5) ** 2) == pytest.approx(0.5625, abs=1e-12)


def test_modified_grain_pore_plugging(grid):
    # strong volume growth consumes the porosity before full conversion
    p = build_model({"kind": "grain_modified", "sigma": 1.0, "sigma_g_sq": 0.0,
                     "Z_v": 3.0, "eps0": 0.2})
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    saw_plug = False
    for _ in range(40):
        state, _, rep = stepper.step(state, 0.1)
        saw_plug = saw_plug or rep.status is StepStatus.PORE_PLUGGED
    assert saw_plug
    x = conversion(state, p)
    assert x < 0.999  # plugged nodes freeze short of complete conversion
    # frozen nodes stop moving
    before = state.solid.copy()
    state, _, _ = stepper.step(state, 0.5)
    plugged = stepper._delta(before) <= 0.0
    assert np.allclose(state.solid[plugged], before[plugged], atol=1e-12)


def test_random_pore_kinetic_inversion(grid):
    # phi_r -> 0: a = 1 and sqrt(1 - cap ln b) = 1 + cap*theta/2
    p = build_model({"kind": "random_pore", "phi_r": 0.05, "psi_cap": 1.0})
    res = run_qm(p, grid, 1.0, samples=51)
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    state, _, _ = stepper.step(state, 1.0)
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
    state, _, _ = stepper.step(state, 1.0)
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
        state, profs, _ = stepper.step(state, 0.3)
    assert np.allclose(state.solid_aux, state.solid, atol=1e-12)
    assert np.all(profs[1].values == 0.0)  # psi_C == 0


def test_simultaneous_initial_condition(grid):
    p = build_model({"kind": "simultaneous", "sigma_a": 0.3, "sigma_c": 1.0, "psi_ab": 0.4})
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    _, profs, _ = stepper.step(state, 0.0)
    assert np.all(state.solid == 1.0) and np.all(state.solid_aux == 1.0)
    assert profs[0].values[-1] == pytest.approx(0.4)
    assert profs[1].values[-1] == pytest.approx(0.6)


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
        state, prof, rep = stepper.step(state, 0.25)
        assert np.all(state.solid <= prev_solid + 1e-12)
        assert np.all(state.solid >= -1e-15)
        x = conversion(state, p)
        assert x >= prev_x - 1e-12
        assert 0.0 <= x <= 1.0
        # surface is richest in gas, so it converts first
        assert state.solid[-1] <= np.min(state.solid) + 1e-9
        assert np.all(prof.values <= 1.0 + 1e-9)
        if state.stage is Stage.SECOND:
            assert state.theta >= state.theta_c - 1e-12
            assert state.y_m <= prev_ym + 1e-12
            prev_ym = state.y_m
            beyond = grid.y > state.y_m
            assert np.all(state.solid[beyond] <= 1e-9)
        prev_solid = state.solid.copy()
        prev_x = x


@pytest.mark.parametrize("raw", [ZOO[0], ZOO[2], ZOO[4], ZOO[6]],
                         ids=lambda r: r["kind"])
def test_step_size_robustness(grid, raw):
    # halving the internal cap moves X by less than 10x the cap
    p = build_model(raw)
    r1 = run_qm(p, grid, 2.0, samples=41, decrement_cap=0.01)
    r2 = run_qm(p, grid, 2.0, samples=41, decrement_cap=0.005)
    assert np.max(np.abs(r1.x - r2.x)) < 0.1


def test_grain_run_reaches_exhaustion(grid):
    p = build_model({"kind": "grain_simple", "sigma": 1.0, "F_g": 1, "F_p": 1})
    stepper = make_stepper(p, grid)
    state = stepper.initial_state()
    status = None
    while state.theta < 4.0:
        state, _, rep = stepper.step(state, 0.25)
        status = rep.status
        if status is StepStatus.EXHAUSTED:
            break
    assert status is StepStatus.EXHAUSTED
    assert conversion(state, p) == pytest.approx(1.0, abs=1e-12)
    assert state.y_m == 0.0


def test_decrement_cap_respected(grid):
    p = build_model({"kind": "volume_first_order", "phi_v": 0.2})
    stepper = make_stepper(p, grid, decrement_cap=0.01)
    state = stepper.initial_state()
    state, _, rep = stepper.step(state, 1.0)
    assert rep.max_solid_decrement <= 0.021  # soft cap, within 2x


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
        out, _, rep = stepper.step(stepper.initial_state(), 0.05)
        assert rep.theta_after == pytest.approx(0.05)
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
        state, _, _ = stepper.step(state, 0.2)
        m, _, _ = stepper.modulus(state.solid, state.exposure)
        assert np.all(m <= p.thiele + 1e-12)


def test_negative_dtheta_rejected(grid):
    p = build_model({"kind": "volume_first_order", "phi_v": 1.0})
    stepper = make_stepper(p, grid)
    with pytest.raises(SolverError):
        stepper.step(stepper.initial_state(), -0.1)


# --- substep halving -------------------------------------------------------------


def _fixed_removal(stepper, calls=60):
    """Make the first `calls` advances remove 0.5 of solid, whatever the increment.

    Later advances remove nothing, so a loop that accepted the oversized
    substep would finish the step instead of raising.
    """
    seen = []

    def advance(solid, exposure, dg):
        seen.append(1)
        return solid - (0.5 if len(seen) <= calls else 0.0), exposure + dg

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
    stepper.solid_rate = lambda solid, exposure, a: np.zeros_like(solid)
    with pytest.raises(SolverError, match="decrement cap"):
        stepper.step(stepper.initial_state(), 1e6)


# --- solid update: safeguarded Newton --------------------------------------------
# X series recorded at n 101 and 21 samples with the former 52-step bisection;
# the Newton update must reproduce them within the 1e-10 refactor bound.

PINNED_QM = [
    ({"kind": "grain_product_layer", "sigma": 1.5, "sigma_g_sq": 0.5}, 2.0,
     [0.0, 0.2213454642570999, 0.38641993066005254, 0.5158209878164496,
      0.6198653150435108, 0.7046209655272261, 0.7740315730624053, 0.8308299993416874,
      0.8770067168760827, 0.9140688435274202, 0.9431961479813946, 0.9653434349924986,
      0.9813162958259471, 0.9918402339827405, 0.9976584193301922, 0.9997624343848011,
      1.0, 1.0, 1.0, 1.0, 1.0]),
    ({"kind": "grain_modified", "sigma": 1.5, "sigma_g_sq": 0.2, "Z_v": 1.4, "eps0": 0.5},
     2.0,
     [0.0, 0.22827042779589246, 0.4051164335186148, 0.5460377085555992,
      0.6595902274838511, 0.7511434299366437, 0.8243620231718323, 0.8819093395987287,
      0.9258377281275278, 0.9578416905101141, 0.9794576315875217, 0.9922649452140211,
      0.9981618889379258, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    ({"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1.0, "beta": 0.5, "z": 1.3, "sh": 8},
     3.0,
     [0.0, 0.12844682508735938, 0.24321148605223242, 0.3451522660590183,
      0.43522359266418986, 0.5144212248841648, 0.5837442331222289, 0.6441687240955761,
      0.6966279445968755, 0.741999647999305, 0.7811022919068442, 0.814689436954722,
      0.8434473307929544, 0.8679978542310738, 0.88889898429807, 0.9066458636871662,
      0.9216801444462882, 0.9343882927764015, 0.9451076434807952, 0.9541319326538092,
      0.9617161147534606]),
    ({"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1.0, "psi": 0.02}, 2.0,
     [0.0, 0.09068480762190578, 0.17794629625759217, 0.2603694647159245,
      0.33773220802199366, 0.40989142108516907, 0.4767764974982803, 0.5383873600792972,
      0.5947866227505627, 0.6460939973092696, 0.692479161133486, 0.7341538813096775,
      0.7713630422532021, 0.8043805123754484, 0.8334963025522261, 0.8590132899830536,
      0.8812396361595466, 0.9004807718811897, 0.917036265013248, 0.9311961684357997,
      0.9432342665335514]),
]


@pytest.mark.parametrize("raw, theta_end, want", PINNED_QM,
                         ids=["product_layer", "modified", "random_pore_film",
                              "random_pore_unsteady"])
def test_implicit_update_x_pinned(raw, theta_end, want):
    res = run_qm(build_model(raw), SpatialGrid(101), theta_end, samples=21)
    assert np.max(np.abs(res.x - np.asarray(want))) <= 1e-10


# --- filmed first stage: one kernel expression for pellet and bed -------------
# X series recorded at n 101 and 21 samples with the former product
# sphere_ratio * film_factor; the fused filmed kernel must agree to 1e-12.

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
    """(fn, dfn, target, lo, hi, x0) as the law's advance poses them."""
    if isinstance(stepper, steppers._RandomPore):
        w_old = -np.log(solid)
        return (stepper._h_of_w, stepper._dh_dw, stepper._h_of_w(w_old) + dg,
                w_old, np.full_like(w_old, LN_B_CAP), w_old)
    g0 = stepper._g(np.zeros_like(solid))
    return (stepper._g, stepper._resistance, np.maximum(stepper._g(solid) - dg, g0),
            np.zeros_like(solid), solid, solid)


def _bisection(fn, target, lo, hi):
    """The former bisection, run on until every bracket is 1e-16 or one ulp wide.

    52 halvings resolve the random-pore bracket [w_old, 700] only to about
    8e-14, so the reference keeps halving instead of stopping there.
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
def _implicit_updates(draw):
    kind = draw(st.sampled_from(["grain_product_layer", "grain_modified", "random_pore"]))
    stepper = _implicit_law(kind, s2=draw(st.floats(0.0, 1.0)), z=draw(st.floats(0.6, 2.0)),
                            psi_cap=draw(st.floats(0.0, 5.0)), bz=draw(st.floats(0.0, 2.0)))
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
    assert len(evals) <= 2 + steppers._NEWTON_STEPS
    # 1e-14 absolute on grain radii (<= 1); relative on random-pore w, where
    # ulp(w) reaches 3.6e-15 at w = 17 (solid 4e-8)
    ref = _bisection(fn, target, lo, hi)
    assert np.all(np.abs(x - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    assert np.all(np.abs(fn(x) - target) <= 8 * _EPS * np.maximum(np.abs(target), 1.0))
    # a larger exposure never leaves more solid (up to rounding of the root)
    s0 = np.full(dg.size, solid[0])
    new, _ = stepper.advance(s0, np.zeros_like(s0), np.sort(dg))
    assert np.all(np.diff(new) <= 8 * _EPS * s0[0])


@pytest.mark.parametrize("kind, law", [
    ("grain_product_layer", {"s2": 0.7}),
    ("grain_modified", {"s2": 0.4, "z": 1.6}),
    ("grain_modified", {"s2": 0.4, "z": 0.7}),
    ("grain_modified", {"s2": 0.4, "z": 1.0}),  # the Z = 1 branch of _g
    ("random_pore", {"psi_cap": 3.0, "bz": 1.5, "z": 1.5}),
    ("random_pore", {"psi_cap": 0.0, "bz": 0.0, "z": 1.0}),
])
def test_update_derivatives_match_finite_differences(kind, law):
    stepper = _implicit_law(kind, **law)
    if kind == "random_pore":
        fn, dfn, x = stepper._h_of_w, stepper._dh_dw, np.linspace(1e-3, 20.0, 41)
    else:
        fn, dfn, x = stepper._g, stepper._resistance, np.linspace(0.02, 0.98, 41)
    h = 1e-6 * np.maximum(x, 1.0)
    central = (fn(x + h) - fn(x - h)) / (2.0 * h)
    assert np.allclose(dfn(x), central, rtol=1e-8, atol=0.0)


def test_invert_rejects_a_non_monotone_law():
    lo, hi = np.zeros(3), np.ones(3)
    target = np.full(3, 0.3)
    with pytest.raises(SolverError, match="bracket is not monotone"):
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
    assert len(evals) == 2 + steppers._NEWTON_STEPS + steppers._BISECT_STEPS
    assert np.all(np.abs(x - _bisection(fn, target, lo, hi)) <= 1e-14)


# --- invariants over random quasi-steady parameters -----------------------------

_MODULUS = st.floats(0.01, 10.0)


@st.composite
def _quasi_steady_models(draw):
    """A valid quasi-steady parameter set of any kind, as build_model takes it."""
    kind = draw(st.sampled_from(sorted(steppers._STEPPERS, key=lambda k: k.value)))
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


@settings(max_examples=60, deadline=None)
@given(_quasi_steady_models())
def test_conversion_bounded_and_nondecreasing(case):
    params, theta_end = case
    res = run_qm(params, SpatialGrid(101), theta_end, samples=11)
    for x in (res.x, res.x_a):
        if x is not None:
            assert np.all((0.0 <= x) & (x <= 1.0))
            assert np.all(np.diff(x) >= 0.0)
