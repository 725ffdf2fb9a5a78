"""The benchmark's layer hooks resolve against the current sources.

``perfbench/spans.py`` wraps gassolid functions by name; a renamed or
removed name would make its per-layer metric read 0.  Installing the
tracer here makes such a rename fail the test suite, not only the
benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

from gassolid import kernels, steppers

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
