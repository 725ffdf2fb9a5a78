"""Every model/mode combination against the finite-difference reference.

These are the slowest checks outside the acceptance gate; the pinned
bounds carry ~2x margin over the observed discrepancies so they flag
regressions, not noise.
"""

import numpy as np
import pytest

from gassolid import FdControl, SpatialGrid, build_model, fd_solve, run_qm

CASES = [
    ({"kind": "grain_simple", "sigma": 2, "F_p": 3, "F_g": 2, "sh": 5}, 5.0, 0.012),
    ({"kind": "volume_half_order", "phi_v": 0.8, "psi": 0.05, "F_p": 1}, 3.0, 0.012),
    ({"kind": "grain_simple", "sigma": 1.5, "F_g": 2, "psi": 0.05}, 3.0, 0.010),
    ({"kind": "grain_modified", "sigma": 1.5, "sigma_g_sq": 0.2, "z_v": 1.4,
      "eps0": 0.5, "psi": 0.05}, 4.0, 0.006),
    ({"kind": "random_pore", "phi_r": 1.5, "psi_cap": 2.0, "psi": 0.02}, 4.0, 0.004),
    ({"kind": "nucleation", "sigma_n": 1.0, "n": 3, "psi": 0.05}, 3.0, 0.013),
    ({"kind": "random_pore", "phi_r": 1.0, "psi_cap": 1.0, "beta": 0.5, "z": 1.3,
      "eps0": 0.5, "sh": 8}, 5.0, 0.004),
    ({"kind": "grain_product_layer", "sigma": 1.5, "sigma_g_sq": 0.5}, 4.0, 0.008),
]


@pytest.mark.parametrize("raw,theta_end,bound", CASES,
                         ids=lambda v: v["kind"] if isinstance(v, dict) else None)
def test_qm_tracks_reference(raw, theta_end, bound):
    params = build_model(raw)
    grid = SpatialGrid(201)
    qm = run_qm(params, grid, theta_end, samples=81)
    fd = fd_solve(params, theta_end,
                  FdControl(n_space=201, dtheta=5e-4, auto_refine=False), samples=81)
    gap = float(np.max(np.abs(qm.x - fd.x)))
    assert gap <= bound, f"{raw['kind']}: max |dX| = {gap:.4f}"
    # both runs end essentially converted for these settings
    if raw["kind"] != "random_pore" or "sh" not in raw:
        assert qm.x[-1] > 0.99 and fd.x[-1] > 0.99


# Every single-gas kind at a zero modulus, where the gas is at a = 1
# throughout and both solvers integrate the bare solid law.  The largest
# observed gap is 1.0e-6 (grain_simple), far inside every kind's bound above.
ZERO_MODULUS = [
    {"kind": "volume_first_order"},
    {"kind": "volume_half_order"},
    {"kind": "grain_simple", "F_g": 2, "sh": 5},
    {"kind": "grain_product_layer", "sigma_g_sq": 0.5},
    {"kind": "grain_modified", "sigma_g_sq": 0.2, "z_v": 1.4, "eps0": 0.5},
    {"kind": "random_pore", "psi_cap": 2.0},
    {"kind": "nucleation", "n": 3},
]


@pytest.mark.parametrize("raw", ZERO_MODULUS, ids=lambda raw: raw["kind"])
def test_zero_modulus_tracks_reference(raw):
    params = build_model({**raw, "thiele": 0.0})
    qm = run_qm(params, SpatialGrid(101), 3.0, samples=31)
    fd = fd_solve(params, 3.0, FdControl(n_space=101, dtheta=2e-3, auto_refine=False),
                  samples=31)
    gap = float(np.max(np.abs(qm.x - fd.x)))
    assert gap <= 1e-5, f"{raw['kind']}: max |dX| = {gap:.3g}"
    assert np.all(np.isfinite(list(fd.diagnostics.values())))
    assert fd.diagnostics["balance_residual"] <= 1e-4
