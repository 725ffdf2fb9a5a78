"""Spans and counters recorded around the calls into each gassolid layer.

A hook rebinds a name where the caller looks it up: ``steppers`` imports
the kernel functions by name, ``cli`` imports ``run_qm``, ``fd_solve``,
``compare_runs`` and ``march_bed`` by name, while ``kernels._series_terms``
and ``fdref.solve_banded`` resolve through their own module globals.  A
name that no longer exists is listed in ``Tracer.missing``; the runner
then reports the run as not correct, since its metric would read 0.

Spans (name, start, end, parent span) are appended to flat arrays in
memory and saved when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

# Spans: metric base name -> places the callee is looked up ("module:attr"
# or "module:Class.attr").  "module:*Class.attr" wraps attr on every
# stepper class in steppers._STEPPERS that defines it.
SPANS = {
    "kernels.series_terms": ["kernels:_series_terms"],
    "kernels.profile_unsteady": ["steppers:profile_unsteady", "kernels:profile_unsteady"],
    "kernels.exposure_increment": ["steppers:exposure_increment", "kernels:exposure_increment"],
    "kernels.profile_qss": ["steppers:profile_qss", "kernels:profile_qss"],
    "kernels.solve_moving_boundary": ["steppers:solve_moving_boundary",
                                      "kernels:solve_moving_boundary"],
    "steppers.step": ["steppers:*step"],
    "steppers.advance": ["steppers:*advance"],
    "driver.run_qm": ["cli:run_qm", "driver:run_qm"],
    "analysis.conversion": ["driver:conversion", "analysis:conversion"],
    "analysis.compare_runs": ["cli:compare_runs", "analysis:compare_runs"],
    "fdref.fd_solve": ["cli:fd_solve", "fdref:fd_solve"],
    "fdref.march": ["fdref:_fd_march"],
    "fdref.gas_qss": ["fdref:_solve_gas_qss"],
    "fdref.gas_cn": ["fdref:_advance_gas_cn"],
    "fdref.solve_banded": ["fdref:solve_banded"],
    "bed.march": ["cli:march_bed", "bed:march_bed"],
    "bed.bulk_solve": ["bed:SegmentedBulkSolver.solve"],
    "bed.pellet_shape": ["bed:_pellet_shape"],
    "bed.surface_transmission": ["bed:surface_transmission"],
    "bed.solver_init": ["bed:SegmentedBulkSolver.__init__"],
    "config.parse": ["config:config_from_entries"],
    "cli.execute_run": ["cli:execute_run"],
}
# Counters only: too frequent or too nested to be worth a span.
COUNTS = {
    "kernels.front_time": ["kernels:front_time", "steppers:front_time"],
    "steppers.first_stage_substep": ["steppers:_PelletStepper._first_stage_substep"],
    "steppers.second_stage_substep": ["steppers:_PelletStepper._second_stage_substep"],
    "bed.fixed_point": ["bed:_self_consistent_bulk"],
}
INVERT = "steppers:_invert_increasing"   # span plus evaluations of its fn
WRITE = "cli:_write_lines"               # span plus bytes written

# Root spans the runner opens around one pass and one case.
PASS_SPAN = "bench.pass"
CASE_SPAN = "bench.case"


def _resolve(target: str):
    """(owner, attr) pairs for one target string."""
    mod_name, path = target.split(":")
    module = importlib.import_module(f"gassolid.{mod_name}")
    if path.startswith("*"):
        owners = {base for cls in getattr(module, "_STEPPERS", {}).values()
                  for base in cls.__mro__ if base.__module__ == module.__name__}
        return [(cls, path[1:]) for cls in owners if path[1:] in vars(cls)]
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    return [(owner, attr)] if attr in vars(owner) else []


class Tracer:
    """Records spans and counts while its hooks are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        return self._open(self._id(name))

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _invert(self, fn):
        span = self._span("steppers.invert", fn)
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            def counted(x):
                counts["steppers.invert.evals"] = counts.get("steppers.invert.evals", 0) + 1
                return f(x)

            return span(counted, *args, **kwargs)

        return wrapper

    def _write(self, fn):
        span = self._span("cli.write", fn)
        counts = self.counts

        def wrapper(path, *args, **kwargs):
            out = span(path, *args, **kwargs)
            counts["cli.write.bytes"] = counts.get("cli.write.bytes", 0) + path.stat().st_size
            return out

        return wrapper

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        plan = [(t, lambda fn, n=name: self._span(n, fn)) for name, ts in SPANS.items() for t in ts]
        plan += [(t, lambda fn, n=name: self._count(n, fn)) for name, ts in COUNTS.items() for t in ts]
        plan += [(INVERT, self._invert), (WRITE, self._write)]
        self.missing = []
        for target, make in plan:
            pairs = _resolve(target)
            if not pairs:
                self.missing.append(target)
            for owner, attr in pairs:
                original = vars(owner)[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position to aggregate from: span index and a copy of the counters."""
        return len(self.name_id), dict(self.counts)

    def aggregate(self, since: tuple[int, dict[str, int]]) -> tuple[dict, dict]:
        """(calls, self seconds) per span name, and counter deltas, since a mark."""
        i0, counts0 = since
        names = np.frombuffer(self.name_id, dtype=np.int32)[i0:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[i0:] - i0
        dur = (np.frombuffer(self.end, dtype=np.float64)[i0:]
               - np.frombuffer(self.start, dtype=np.float64)[i0:])
        own = dur.copy()
        inside = parent >= 0
        np.subtract.at(own, parent[inside], dur[inside])
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        spans = {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}
        counts = {k: v - counts0.get(k, 0) for k, v in self.counts.items()}
        return spans, counts

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_counts(spans: dict, counts: dict, metrics) -> dict[str, float]:
    """The count and ratio metrics of one traced pass, out of the per-layer
    metric names ``metrics``."""
    calls = {name: c for name, (c, _) in spans.items()}
    c = counts.get
    first = c("steppers.first_stage_substep", 0)
    out = {
        "kernels.front_time.calls": c("kernels.front_time", 0),
        "steppers.substeps": first + c("steppers.second_stage_substep", 0),
        "steppers.dt_halvings": calls.get("kernels.exposure_increment", 0) - first,
        "kernels.series_per_substep": _ratio(calls.get("kernels.series_terms", 0), first),
        "steppers.invert.evals_per_call": _ratio(c("steppers.invert.evals", 0),
                                                 calls.get("steppers.invert", 0)),
        "fdref.refine.useful_frac": _ratio(calls.get("fdref.fd_solve", 0),
                                           calls.get("fdref.march", 0)),
        "bed.fixed_point.calls": c("bed.fixed_point", 0),
        "bed.picard_per_step": _ratio(calls.get("bed.bulk_solve", 0), c("bed.fixed_point", 0)),
        "cli.write.bytes": c("cli.write.bytes", 0),
    }
    for metric in metrics:
        base, _, leaf = metric.rpartition(".")
        if leaf == "calls" and metric not in out:
            out[metric] = calls.get(base, 0)
    return out


def pass_seconds(spans: dict, metrics) -> dict[str, float]:
    """Self seconds of one traced pass, per ``.s`` metric in ``metrics``."""
    return {metric: spans.get(metric[:-2], (0, 0.0))[1]
            for metric in metrics
            if metric.endswith(".s") and not metric.startswith("trace.")}
