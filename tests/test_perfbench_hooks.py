"""The benchmark's layer hooks resolve against the current sources.

``perfbench/spans.py`` wraps gassolid functions by name; a renamed or
removed name would make its per-layer metric read 0.  Installing the
tracer here makes such a rename fail the test suite, not only the
benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

import numpy as np

from gassolid import FdControl, SpatialGrid, build_model, fdref, kernels, make_stepper, steppers

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_hook_resolves():
    originals = (kernels._series_terms, steppers.exposure_increment,
                 steppers._PelletStepper._first_stage_substep)
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert kernels._series_terms is not originals[0]
    finally:
        tracer.uninstall()
    assert (kernels._series_terms, steppers.exposure_increment,
            steppers._PelletStepper._first_stage_substep) == originals


def test_traced_solves_count_their_evaluations():
    # the front solve looks front_time up through kernels and the swelling
    # grain advance looks _invert_increasing up through steppers, so both
    # counters see every evaluation; a local binding would leave them reading 0.
    # The product layer (Z_v = 1) takes its cubic's root in closed form, so
    # its advance makes no invert evaluation
    stepper = make_stepper(build_model({"kind": "grain_product_layer", "sigma": 3.0,
                                        "sigma_g_sq": 0.5}), SpatialGrid(101))
    swelling = make_stepper(build_model({"kind": "grain_modified", "sigma": 1.5,
                                         "sigma_g_sq": 0.2, "Z_v": 1.4, "eps0": 0.5}),
                            SpatialGrid(101))
    state = stepper.initial_state()
    while state.y_m is None:
        state, _ = stepper.step(state, 0.05)
    solid = np.linspace(0.2, 1.0, 101)
    update = (solid, np.zeros_like(solid), np.full_like(solid, 0.01))
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        state, _ = stepper.step(state, 0.01)
        assert tracer.counts.get("kernels.front_time", 0) > 0
        fronts = tracer.counts["kernels.front_time"]
        kernels.solve_moving_boundary(1.5, 2.0, stepper.geometry)  # inside the bracket
        assert tracer.counts["kernels.front_time"] - fronts > 2  # beyond the two ends
        stepper.advance(*update)
        assert tracer.counts.get("steppers.invert.evals", 0) == 0
        swelling.advance(*update)
        assert tracer.counts.get("steppers.invert.evals", 0) > 0
    finally:
        tracer.uninstall()
    assert 0.0 < state.y_m < 1.0


def test_traced_fd_runs_count_every_gas_solve():
    # _fd_march looks _solve_gas_qss, _advance_gas_cn and solve_banded up
    # through fdref, so their counters see every solve: a quasi-steady step
    # solves the gas twice and the run once more to close its uptake
    # integral; an unsteady step takes one Crank-Nicolson solve
    steps = 5
    ctl = FdControl(n_space=21, dtheta=0.1 / steps, auto_refine=False)
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        since = tracer.mark()
        for raw in ({"kind": "volume_first_order", "phi_v": 1.0},
                    {"kind": "volume_first_order", "phi_v": 1.0, "psi": 0.1}):
            fdref.fd_solve(build_model(raw), 0.1, ctl, samples=2)
        spans, _ = tracer.aggregate(since)
    finally:
        tracer.uninstall()
    calls = {name: count for name, (count, _) in spans.items()}
    assert calls["fdref.march"] == 2
    assert calls["fdref.gas_qss"] == 2 * steps + 1
    assert calls["fdref.gas_cn"] == steps
    assert calls["fdref.solve_banded"] == calls["fdref.gas_qss"] + calls["fdref.gas_cn"]
