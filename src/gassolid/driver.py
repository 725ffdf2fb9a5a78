"""Run orchestration: march a pellet model and collect a result series."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import conversion, conversion_by_gas_a
from .core import ModelKind, ModelParams, PelletState, SolverError, SpatialGrid
from .steppers import DEFAULT_DECREMENT_CAP, StepStatus, make_stepper


@dataclass
class ProfileSnapshot:
    """Radial profiles captured at one sample time."""

    theta: float
    y: np.ndarray
    gas: np.ndarray
    solid: np.ndarray
    gas_c: np.ndarray | None = None
    solid_a: np.ndarray | None = None


@dataclass
class RunResult:
    """Conversion history of one run plus optional profile snapshots."""

    theta: np.ndarray
    x: np.ndarray
    x_a: np.ndarray | None = None
    theta_c: float | None = None
    snapshots: list[ProfileSnapshot] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    label: str = "qm"
    diagnostics: dict | None = None

    @property
    def selectivity_series(self) -> np.ndarray | None:
        if self.x_a is None:
            return None
        denom = self.x - self.x_a
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom > 0.0, self.x_a / np.where(denom > 0.0, denom, 1.0), np.nan)


def sample_schedule(theta_end: float, samples: int) -> np.ndarray:
    if theta_end == 0.0:
        return np.zeros(1)  # degenerate run: the initial state only
    if not 0.0 < theta_end < math.inf:  # NaN fails too
        raise SolverError(f"theta_end must be nonnegative and finite, got {theta_end}")
    if samples < 2:
        raise SolverError("need at least two samples")
    return np.linspace(0.0, theta_end, samples)


def _with_extra_times(schedule: np.ndarray, extra) -> tuple[np.ndarray, list[int | None]]:
    """The schedule with the extra times added, and each extra time's index in it
    (None for a time outside [0, schedule[-1]]).  An extra time within
    1e-12 * schedule[-1] of a sample, or of another extra time, is that time;
    the same tolerance widens both ends of the range."""
    end = float(schedule[-1])
    tol = 1e-12 * end
    inside = [-tol <= t <= end + tol for t in extra]
    times = schedule.tolist()
    for t in sorted(float(t) for t, ok in zip(extra, inside) if ok):
        if min(abs(t - s) for s in times) > tol:
            times.append(t)
    merged = np.asarray(sorted(times))
    return merged, [int(np.abs(merged - t).argmin()) if ok else None
                    for t, ok in zip(extra, inside)]


def split_interval(t0: float, t1: float, step: float) -> tuple[int, float]:
    """(n, (t1 - t0) / n): the fewest equal substeps of [t0, t1] no longer than
    ``step``, where a span within 1e-12 steps of a whole number takes that number."""
    n = max(1, int(math.ceil((t1 - t0) / step - 1e-12)))
    return n, (t1 - t0) / n


PORES_CLOSED = "pores closed around unreacted solid"

# Step statuses a run reports, each as one warning naming its sample steps.
_STATUS_WARNINGS = (
    (StepStatus.SERIES_WARNING, "eigen-series truncated before term_tol"),
    (StepStatus.PORE_PLUGGED, PORES_CLOSED),
)


def sample_warning(what: str, hits: list[float]) -> str:
    """The warning that ``what`` happened in the sample steps ending at ``hits``."""
    return f"{what} at {len(hits)} sample step(s), first near theta={hits[0]:.6g}"


def run_qm(params: ModelParams, grid: SpatialGrid, theta_end: float,
           samples: int = 201, snapshot_thetas: tuple[float, ...] = (),
           decrement_cap: float = DEFAULT_DECREMENT_CAP) -> RunResult:
    """March the incremental analytical solver and record X(theta)."""
    stepper = make_stepper(params, grid, decrement_cap)
    schedule, snap_at = _with_extra_times(sample_schedule(theta_end, samples), snapshot_thetas)
    snap_idx = {i for i in snap_at if i is not None}
    warnings: list[str] = []
    dropped = [repr(float(t)) for t, i in zip(snapshot_thetas, snap_at) if i is None]
    if dropped:
        warnings.append(f"snapshot theta(s) outside [0, {theta_end:.6g}] dropped: "
                        f"{', '.join(dropped)}")
    state = stepper.initial_state()
    xs = [conversion(state, params)]
    x_as = [conversion_by_gas_a(state, params)] if params.kind is ModelKind.SIMULTANEOUS else None
    snapshots: list[ProfileSnapshot] = []
    steps = []  # (theta, status) at the end of each sample step
    if 0 in snap_idx:
        snapshots.append(_snapshot(0.0, state, stepper, grid))
    for i, (prev, nxt) in enumerate(zip(schedule[:-1], schedule[1:]), 1):
        state, status = stepper.step(state, float(nxt - prev))
        steps.append((state.theta, status))
        xs.append(conversion(state, params))
        if x_as is not None:
            x_as.append(conversion_by_gas_a(state, params))
        if i in snap_idx:
            snapshots.append(_snapshot(float(nxt), state, stepper, grid))
    for flag, what in _STATUS_WARNINGS:
        hits = [theta for theta, status in steps if flag in status]
        if hits:
            warnings.append(sample_warning(what, hits))
    return RunResult(
        theta=schedule,
        x=np.asarray(xs),
        x_a=None if x_as is None else np.asarray(x_as),
        theta_c=state.theta_c,
        snapshots=snapshots,
        warnings=warnings,
        label="qm",
    )


def _snapshot(theta: float, state: PelletState, stepper, grid: SpatialGrid) -> ProfileSnapshot:
    """The profiles of ``state``, stamped with its sample time ``theta`` (the
    state's own theta is a sum of substeps and may differ in its last digits)."""
    gas = stepper.current_profile(state)  # a fresh array, or the two-gas pair
    gas_c = solid_a = None
    if isinstance(gas, tuple):
        (gas, gas_c), solid_a = gas, state.solid_aux.copy()
    return ProfileSnapshot(theta=theta, y=grid.y.copy(), gas=gas,
                           solid=state.solid.copy(), gas_c=gas_c, solid_a=solid_a)
