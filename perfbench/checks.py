"""Output checks: read back what ``execute_run`` wrote and test it.

A check returns a list of problems; an empty list means the case passed.
Nothing here aborts the run, so every failed check is counted.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from gassolid import analysis, fdref
from gassolid.core import ModelKind, SolverError


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV file written by the CLI, by header name."""
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def digest(out_dir: Path, fd_x: np.ndarray | None) -> str:
    """Hash of every file the case wrote and of its in-pass reference X."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    if fd_x is not None:
        h.update(fd_x.tobytes())
    return h.hexdigest()


def series_problems(label: str, theta: np.ndarray, x: np.ndarray, kind: ModelKind,
                    x_final_min: float) -> list[str]:
    """ConversionSeries invariants plus the case's final-X threshold."""
    problems = []
    try:
        analysis.ConversionSeries(theta, x, kind)
    except SolverError as exc:
        problems.append(f"{label}: {exc}")
    if not x[-1] >= x_final_min:
        problems.append(f"{label}: final X {x[-1]:.6f} below {x_final_min}")
    return problems


def transmission(modulus: np.ndarray, biot: float) -> np.ndarray:
    """a(1)/Y of the filmed first-order sphere: Bi / (M coth M + Bi - 1)."""
    em = np.exp(-2.0 * modulus)
    bracket = modulus * (1.0 + em) + (biot - 1.0) * (1.0 - em)
    return np.where(modulus > 1e-9, biot * (1.0 - em) / np.where(modulus > 1e-9, bracket, 1.0),
                    1.0)


def bed_problems(out_dir: Path, cfg) -> tuple[list[str], float]:
    """Bed invariants and the largest gap of Y to the independent BVP solve.

    At every sampled tau the pellet-surface field a_s = trans(X_surface) * Y
    is rebuilt from the CSV; the closed-form march holds Y at the fixed
    point Y = bulk(a_s), so |Y - fd_solve_bed_bulk(a_s)| is the C8b gap.
    """
    cols = read_csv(out_dir / "bed.csv")
    n_eta = cfg.bed_n_eta
    shape = (-1, n_eta)
    y = cols["Y"].reshape(shape)
    x_avg = cols["X_pellet_avg"].reshape(shape)
    x_surf = cols["X_surface"].reshape(shape)
    problems = []
    if y.shape[0] != cfg.bed_samples:
        problems.append(f"bed: {y.shape[0]} tau samples, expected {cfg.bed_samples}")
    if np.any(y < -1e-12) or np.any(y > 1.0 + 1e-12):
        problems.append("bed: Y leaves [0, 1]")
    if np.any(np.diff(x_avg, axis=0) < -1e-12):
        problems.append("bed: X_pellet_avg decreases in tau")
    bed = cfg.bed
    gap = 0.0
    for row_y, row_x in zip(y, x_surf):
        modulus = bed.phi * np.sqrt(np.maximum(1.0 - row_x, 0.0))
        ref = fdref.fd_solve_bed_bulk(bed.peclet, bed.beta, bed.bed_length,
                                      transmission(modulus, bed.biot_m) * row_y)
        gap = max(gap, float(np.max(np.abs(row_y - ref))))
    return problems, gap


def reference_x(cfg, control: dict) -> np.ndarray:
    """X of the finite-difference reference on the case's sample schedule."""
    ref = fdref.fd_solve(cfg.model, cfg.theta_end, fdref.FdControl(**control), cfg.samples)
    return ref.x


def conversion_problems(out_dir: Path, cfg, case, fd_x: np.ndarray | None
                        ) -> tuple[list[str], float | None]:
    """Checks on conversion.csv; returns problems and the QM-FD gap if known.

    ``fd_x`` is the reference X on the QM schedule when the pass did not
    write it to the CSV itself (the unsteady compare, or a reference run
    made by the benchmark after the passes).
    """
    cols = read_csv(out_dir / "conversion.csv")
    theta, x_qm = cols["theta"], cols["X_qm"]
    kind = cfg.model.kind
    problems = series_problems(f"{case.label} qm", theta, x_qm, kind, case.x_final_min)
    if "X_fd" in cols:
        fd_x = cols["X_fd"]
    if fd_x is None:
        return problems, None
    if fd_x.shape != x_qm.shape:
        return problems + [f"{case.label}: reference has {fd_x.size} samples, QM {x_qm.size}"], None
    problems += series_problems(f"{case.label} fd", theta, fd_x, kind, case.x_final_min)
    gap = float(np.max(np.abs(x_qm - fd_x)))
    if not gap <= case.gap_bound:
        problems.append(f"{case.label}: max |X_qm - X_fd| = {gap:.5f} above {case.gap_bound}")
    return problems, gap


def summary_gap(out_dir: Path) -> float | None:
    """max_abs_dX as summary.txt states it (compare mode only)."""
    for line in (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        if key == "max_abs_dX":
            return float(value)
    return None
