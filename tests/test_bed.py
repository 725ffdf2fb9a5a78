import math

import numpy as np
import pytest

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
    assert np.allclose(bed_bulk_profile(no_consumption, np.zeros(257), eta), 1.0, atol=1e-12)
    assert np.allclose(bed_bulk_profile(FIG9, np.ones(257), eta), 1.0, atol=1e-10)
    assert np.allclose(bed_bulk_profile_uniform(no_consumption, 0.4, eta), 1.0, atol=1e-12)


def test_bulk_profile_segments_match_single_closed_form():
    eta = np.linspace(0.0, 1.0, 257)
    for a_s in (0.0, 0.35, 0.9):
        ref = bed_bulk_profile_uniform(FIG9, a_s, eta)
        seg = bed_bulk_profile(FIG9, np.full(257, a_s), eta, n_segments=64)
        assert np.max(np.abs(seg - ref)) < 1e-12


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
        bed_bulk_profile(FIG9, np.zeros(10), np.linspace(0, 1, 11))


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


# Y, X_surface and X_pellet_avg at every 8th axial node of the small march of
# test_cli.py::test_bed_section_writes_bed_csv, recorded with the bed's former
# inline copy of the filmed pellet profile; the kernel form must agree to 1e-12.
BED_PIN = {
    "bulk": [
        [0.7976980155010783, 0.7711533188588069, 0.7471997338103011, 0.7260169026561977,
         0.7078342736617882, 0.6929403688911047, 0.6816939146360921, 0.6745372025212968,
         0.6720121223656852],
        [0.8020215552759798, 0.7760304963512064, 0.752553184927087, 0.7317738689100051,
         0.713924981043295, 0.6992961954212823, 0.6882452678152535, 0.6812110062314224,
         0.6787287838542151],
        [0.8063755988671386, 0.7809427728924011, 0.7579468595368817, 0.7375762919036443,
         0.7200661143478112, 0.7057068172325264, 0.6948548785923143, 0.6879453378903463,
         0.6855067859000444],
        [0.81075775759765, 0.7858874592267266, 0.7633778210717459, 0.7434210367166306,
         0.7262543842196328, 0.7121688294781411, 0.7015192614160732, 0.6947366634241987,
         0.6923425778148662],
        [0.8151654982845751, 0.7908617012093787, 0.7688429473939338, 0.7493047630057894,
         0.7324862778301316, 0.7186785884542543, 0.708234679951423, 0.7015811902634227,
         0.6992323476733145],
        [0.8195961447894033, 0.795862481470214, 0.7743389323942069, 0.7552239264036359,
         0.7387580599950371, 0.7252322124114007, 0.7149971476159548, 0.7084748676853093,
         0.7061720225836363],
    ],
    "x_surface": [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.06554284494304352, 0.06344346848876725, 0.061544669101858074,
         0.05986207702006252, 0.058415235942926524, 0.057228330926885174,
         0.05633104923489596, 0.05575959557212051, 0.055557885238160964],
        [0.1274471825513076, 0.12354196060651979, 0.12000122978468775,
         0.11685687788739807, 0.11414803008531316, 0.1119223875624118,
         0.11023778589074429, 0.10916399847875768, 0.10878480771591548],
        [0.18586565544223344, 0.18042295148749388, 0.17547627069187632,
         0.1710739126728058, 0.16727424068216823, 0.16414751826395102,
         0.1617780128570876, 0.16026638101872703, 0.1597323371200402],
        [0.24094766808382262, 0.23421199172940832, 0.22807543050171275,
         0.2226024511154242, 0.2178699900914992, 0.2139696819572927,
         0.21101036794484673, 0.20912087735154883, 0.20845304695403444],
        [0.29283928801148595, 0.28503259662538305, 0.2779032881821607,
         0.27153142118172935, 0.2660115748314129, 0.2614553699926301,
         0.25799425579128865, 0.25578252221932307, 0.2550004557336477],
    ],
    "x_average": [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.017994331663335528, 0.017408408831201205, 0.01687902929328422,
         0.016410373529329725, 0.016007715995595806, 0.01567762901561842,
         0.015428225753173375, 0.015269449327816487, 0.015213416234670873],
        [0.03563720596583342, 0.03450612204406278, 0.03348289787493819,
         0.03257603662235842, 0.03179613989193908, 0.03115629948939813,
         0.03067256098294968, 0.03036447087101357, 0.03025572044177227],
        [0.052931706541739176, 0.051294754087355954, 0.04981204948120388,
         0.04849651447288661, 0.04736409188739654, 0.046434309148165265,
         0.045730940462965886, 0.04528278210534309, 0.045124555897731344],
        [0.06988102132343221, 0.0677760245174045, 0.06586702629013363,
         0.06417141978932994, 0.0627104670557882, 0.06151001828160263,
         0.06060135119560972, 0.06002214573824882, 0.059817608568979996],
        [0.08648844202654227, 0.08395175977441038, 0.08164847256401753,
         0.07960045789386583, 0.0778342415336486, 0.07638185670151998,
         0.07528183988048864, 0.0745803774678393, 0.07433261496719412],
    ],
}


def test_march_matches_pinned_bed():
    res = march_bed(FIG9, dtau=0.05, tau_end=0.5, n_eta=65, n_radial=51,
                    n_segments=16, samples=6)
    for name, want in BED_PIN.items():
        got = getattr(res, name)[:, ::8]
        assert np.max(np.abs(got - np.asarray(want))) <= 1e-12, name


def test_march_validates_inputs():
    with pytest.raises(SolverError):
        march_bed(FIG9, dtau=-0.1, tau_end=1.0)
    with pytest.raises(SolverError):
        march_bed(FIG9, dtau=0.1, tau_end=1.0, n_radial=100)
