"""The benchmark's layer hooks resolve against the current sources.

``perfbench/spans.py`` wraps gassolid functions by name; a renamed or
removed name would make its per-layer metric read 0.  Installing the
tracer here makes such a rename fail the test suite, not only the
benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

import numpy as np

from gassolid import SpatialGrid, Stage, build_model, kernels, make_stepper, steppers

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
    # the front solve looks front_time up through kernels and the grain
    # advance looks _invert_increasing up through steppers, so both counters
    # see every evaluation; a local binding would leave them reading 0
    stepper = make_stepper(build_model({"kind": "grain_product_layer", "sigma": 3.0,
                                        "sigma_g_sq": 0.5}), SpatialGrid(101))
    state = stepper.initial_state()
    while state.stage is not Stage.SECOND:
        state, _ = stepper.step(state, 0.05)
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        state, _ = stepper.step(state, 0.01)
        assert tracer.counts.get("kernels.front_time", 0) > 0
        fronts = tracer.counts["kernels.front_time"]
        kernels.solve_moving_boundary(1.5, 2.0, stepper.geometry)  # inside the bracket
        assert tracer.counts["kernels.front_time"] - fronts > 2  # beyond the two ends
        evals = tracer.counts.get("steppers.invert.evals", 0)
        solid = np.linspace(0.2, 1.0, 101)
        stepper.advance(solid, np.zeros_like(solid), np.full_like(solid, 0.01))
        assert tracer.counts.get("steppers.invert.evals", 0) > evals
    finally:
        tracer.uninstall()
    assert 0.0 < state.y_m < 1.0
