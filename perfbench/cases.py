"""Seed-drawn inputs of the four benchmark workloads.

Each workload is a fixed list of case templates.  A template holds the
config entries a ``.cfg`` file would hold; the seed draws each varied
parameter uniformly within +/-SPREAD of its nominal value.  The nominal
values are the cases the test suite already pins (``tests/
test_cross_validation.py``, the acceptance criteria and the two files in
``sample_configs/``), so every bound below is one the test suite states.

This module uses the standard library only, so the set-up probe can
import it without adding to the time it measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("pellet_unsteady", "pellet_qss", "fd_compare", "packed_bed")

SPREAD = 0.01  # half-width of every seed-drawn range, as a share of nominal

# FdControl of tests/test_cross_validation.py: the reference for the pellet
# workloads and for the one unsteady case of fd_compare.  Unsteady cases
# stay off the default auto-refining control because of a known defect:
# there unsteady half order slab took 58 s and unsteady grain_simple raised
# "did not converge under time refinement".
CROSS_CONTROL = {"n_space": 201, "dtheta": 5e-4, "auto_refine": False}
SMOKE_CONTROL = {"n_space": 101, "dtheta": 2e-3, "auto_refine": False}

# max |X_qm - X_fd| allowed per case.  Sources: the test_cross_validation
# entry of the same kind and regime, else the one of the same kind, else
# C3a (first-order volume model, 0.02) for the first-order kinetics of the
# volume_first_order and simultaneous cases.  C8b gives the bed bound.
BOUND_GRAIN_SIMPLE_FILM = 0.012
BOUND_GRAIN_SIMPLE_UNSTEADY = 0.010
BOUND_HALF_ORDER = 0.012
BOUND_GRAIN_MODIFIED = 0.006
BOUND_RANDOM_PORE = 0.004
BOUND_NUCLEATION = 0.013
BOUND_PRODUCT_LAYER = 0.008
BOUND_FIRST_ORDER = 0.02
BOUND_BED_BULK = 1e-4


@dataclass(frozen=True)
class Case:
    """One configuration run by every pass of a workload."""

    label: str
    entries: dict            # config key -> value string
    x_final_min: float       # X_qm and X_fd must reach this at theta_end
    gap_bound: float         # largest allowed gap to the reference
    fd_in_pass: bool = False  # compare at CROSS_CONTROL inside the pass


# (label, fixed entries, varied entries {key: nominal}, x_final_min, gap bound)
_PELLET_UNSTEADY = [
    ("volume_first_order_slab",
     {"model.kind": "volume_first_order", "model.F_p": "1", "grid.theta_end": "4"},
     {"model.phi_v": 2.0, "model.psi": 0.05}, 0.85, BOUND_FIRST_ORDER),
    ("volume_half_order_slab",
     {"model.kind": "volume_half_order", "model.F_p": "1", "grid.theta_end": "3"},
     {"model.phi_v": 0.8, "model.psi": 0.05}, 0.99, BOUND_HALF_ORDER),
    ("grain_simple",
     {"model.kind": "grain_simple", "model.F_g": "2", "grid.theta_end": "3"},
     {"model.sigma": 1.5, "model.psi": 0.05}, 0.99, BOUND_GRAIN_SIMPLE_UNSTEADY),
    ("grain_modified",
     {"model.kind": "grain_modified", "model.eps0": "0.5", "grid.theta_end": "4"},
     {"model.sigma": 1.5, "model.sigma_g_sq": 0.2, "model.z_v": 1.4, "model.psi": 0.05},
     0.99, BOUND_GRAIN_MODIFIED),
    ("random_pore",
     {"model.kind": "random_pore", "grid.theta_end": "4"},
     {"model.phi_r": 1.5, "model.psi_cap": 2.0, "model.psi": 0.02}, 0.99, BOUND_RANDOM_PORE),
    ("nucleation_n3",
     {"model.kind": "nucleation", "model.n": "3", "grid.theta_end": "3"},
     {"model.sigma_n": 1.0, "model.psi": 0.05}, 0.99, BOUND_NUCLEATION),
]

_PELLET_QSS = [
    ("grain_product_layer",
     {"model.kind": "grain_product_layer", "grid.theta_end": "4"},
     {"model.sigma": 1.5, "model.sigma_g_sq": 0.5}, 0.99, BOUND_PRODUCT_LAYER),
    ("grain_modified",
     {"model.kind": "grain_modified", "model.eps0": "0.5", "grid.theta_end": "4"},
     {"model.sigma": 1.5, "model.sigma_g_sq": 0.2, "model.z_v": 1.4},
     0.99, BOUND_GRAIN_MODIFIED),
    ("random_pore_layer_film",
     {"model.kind": "random_pore", "model.eps0": "0.5", "grid.theta_end": "5"},
     {"model.phi_r": 1.0, "model.psi_cap": 1.0, "model.beta": 0.5, "model.z": 1.3,
      "model.sh": 8.0}, 0.95, BOUND_RANDOM_PORE),
    ("grain_simple_film",
     {"model.kind": "grain_simple", "model.F_g": "2", "grid.theta_end": "5"},
     {"model.sigma": 2.0, "model.sh": 5.0}, 0.99, BOUND_GRAIN_SIMPLE_FILM),
    ("volume_half_order_slab",
     {"model.kind": "volume_half_order", "model.F_p": "1", "grid.theta_end": "3"},
     {"model.phi_v": 0.8}, 0.99, BOUND_HALF_ORDER),
    ("simultaneous",
     {"model.kind": "simultaneous", "grid.theta_end": "4"},
     {"model.psi_ab": 0.5, "model.sigma_a": 1.0, "model.sigma_c": 2.0},
     0.90, BOUND_FIRST_ORDER),
]

_FD_COMPARE = [
    # sample_configs/grain_compare.cfg
    ("grain_simple_compare",
     {"model.kind": "grain_simple", "model.F_p": "3", "model.F_g": "2",
      "grid.theta_end": "4", "grid.samples": "201", "output.snapshots": "0.5, 1.0, 2.0"},
     {"model.sigma": 2.0}, 0.99, BOUND_GRAIN_SIMPLE_FILM),
    ("volume_half_order_slab_compare",
     {"model.kind": "volume_half_order", "model.F_p": "1", "grid.theta_end": "3",
      "grid.samples": "301"},
     {"model.phi_v": 0.8}, 0.99, BOUND_HALF_ORDER),
]
# The Crank-Nicolson path, compared at CROSS_CONTROL.
_FD_COMPARE_UNSTEADY = (
    "grain_simple_unsteady_cn",
    {"model.kind": "grain_simple", "model.F_g": "2", "grid.theta_end": "3"},
    {"model.sigma": 1.5, "model.psi": 0.05}, 0.99, BOUND_GRAIN_SIMPLE_UNSTEADY,
)

# sample_configs/packed_bed.cfg; the pellet run execute_run makes beside
# the bed is kept as the file has it.
_PACKED_BED = (
    "packed_bed",
    {"model.kind": "volume_first_order", "model.phi_v": "1.0", "grid.theta_end": "1.0",
     "grid.samples": "11", "bed.bed_length": "1.0", "bed.tau_end": "5.0", "bed.dtau": "0.01",
     "bed.n_eta": "257", "bed.n_radial": "101", "bed.samples": "51"},
    {"bed.peclet": 1.1, "bed.beta": 3.3, "bed.phi": 10.0, "bed.biot_m": 50.0},
    0.5, BOUND_BED_BULK,
)

_PELLET_GRID = {"grid.n": "201", "grid.samples": "81"}

# Smoke variant: coarse grids, large steps and short horizons, so all four
# workloads run end to end in well under 2 s.  Only the shape checks apply
# to it; the accuracy bounds and final-X thresholds are for the full sizes.
_SMOKE = {"grid.n": "101", "grid.samples": "11", "grid.decrement_cap": "0.05"}
_SMOKE_THETA = 0.5
_SMOKE_BED = {"bed.n_eta": "65", "bed.n_radial": "21", "bed.tau_end": "0.5",
              "bed.samples": "6", "bed.dtau": "0.05"}


def _draw(rng: random.Random, varied: dict) -> dict:
    return {key: f"{nominal * rng.uniform(1.0 - SPREAD, 1.0 + SPREAD):.4g}"
            for key, nominal in varied.items()}


def _case(rng, template, mode, extra=None, fd_in_pass=False, smoke=False) -> Case:
    label, fixed, varied, x_min, bound = template
    entries = {"mode": mode, **(extra or {}), **fixed, **_draw(rng, varied)}
    if smoke:
        entries.update(_SMOKE)
        if "bed.n_eta" in entries:
            entries.update(_SMOKE_BED)
        entries["grid.theta_end"] = f"{min(float(entries['grid.theta_end']), _SMOKE_THETA):g}"
        entries.pop("output.snapshots", None)
        x_min, bound = 0.0, float("inf")
    return Case(label, entries, x_min, bound, fd_in_pass)


def make_cases(workload: str, seed: int, smoke: bool = False) -> list[Case]:
    """The cases of ``workload`` for ``seed``; the same seed gives the same cases."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pellet_unsteady":
        return [_case(rng, t, "qm_only", _PELLET_GRID, smoke=smoke) for t in _PELLET_UNSTEADY]
    if workload == "pellet_qss":
        return [_case(rng, t, "qm_only", _PELLET_GRID, smoke=smoke) for t in _PELLET_QSS]
    if workload == "fd_compare":
        cases = [_case(rng, t, "compare", {"grid.n": "201"}, smoke=smoke) for t in _FD_COMPARE]
        cases.append(_case(rng, _FD_COMPARE_UNSTEADY, "qm_only", _PELLET_GRID,
                           fd_in_pass=True, smoke=smoke))
        return cases
    return [_case(rng, _PACKED_BED, "qm_only", smoke=smoke)]


def fd_control(smoke: bool) -> dict:
    """FdControl arguments of the reference runs the benchmark makes itself."""
    return SMOKE_CONTROL if smoke else CROSS_CONTROL
