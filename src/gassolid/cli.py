"""Batch front door: run, compare and sweep configurations, emit CSVs.

Output files are deterministic: fixed 17-significant-digit float
formatting, no timestamps, columns fixed by model kind and mode.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import CompareMetrics, compare_runs
from .bed import BedResult, march_bed
from .config import RunConfig, RunMode, config_from_entries, load_config, parse_config_text
from .core import ConfigError, SolverError, SpatialGrid
from .driver import RunResult, run_qm
from .fdref import FdControl, fd_solve


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv_rows(columns) -> list[str]:
    """One CSV row per index of the equal-length columns, each value as `_fmt` gives it.

    Formatting the Python floats of ``tolist`` skips a numpy scalar per value.
    """
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    row = ",".join(["%.17g"] * len(cols))
    return [row % values for values in zip(*cols)]


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _conversion_csv(qm: RunResult | None, fd: RunResult | None) -> list[str]:
    """X (and X_A) of each run on the first run's theta, interpolated where a
    run's own theta differs."""
    runs = [run for run in (qm, fd) if run is not None]
    theta = runs[0].theta
    cols, series = ["theta"], [theta]
    for run in runs:
        same = np.array_equal(run.theta, theta)
        for name, x in (("X", run.x), ("X_A", run.x_a)):
            if x is not None:
                cols.append(f"{name}_{run.label}")
                series.append(x if same else np.interp(theta, run.theta, x))
    return [",".join(cols)] + _csv_rows(series)


def _block_rows(blocks) -> list[str]:
    """CSV rows of (t, grid, columns) blocks, one per grid node: t, the node and
    its column values, each as `_fmt` gives it.  t is formatted once per block
    and a grid once while consecutive blocks share it, so a row formats only
    its own columns."""
    lines = []
    grid = grid_text = None
    for t, nodes, columns in blocks:
        if grid is None or not np.array_equal(nodes, grid):
            grid = nodes
            grid_text = ["%.17g," % v for v in np.asarray(nodes, dtype=float).tolist()]
        lead = "%.17g," % float(t)
        lines += [lead + node + row for node, row in zip(grid_text, _csv_rows(columns))]
    return lines


def _profiles_csv(qm: RunResult) -> list[str]:
    two_gas = any(s.gas_c is not None for s in qm.snapshots)
    cols = ["theta", "y", "psi_a", "psi_c", "solid", "solid_a"] if two_gas else [
        "theta", "y", "a", "solid"]
    return [",".join(cols)] + _block_rows(
        (snap.theta, snap.y, [snap.gas, snap.gas_c, snap.solid, snap.solid_a] if two_gas
         else [snap.gas, snap.solid]) for snap in qm.snapshots)


def _bed_csv(res: BedResult) -> list[str]:
    return ["tau,eta,Y,C_Y,X_surface,X_pellet_avg"] + _block_rows(
        (t, res.eta, [res.bulk[i], res.cumulative[i], res.x_surface[i], res.x_average[i]])
        for i, t in enumerate(res.tau))


def _summary(cfg: RunConfig, qm: RunResult | None, fd: RunResult | None,
             metrics: CompareMetrics | None, bed: BedResult | None) -> list[str]:
    lines = [f"gassolid {__version__}", f"mode = {cfg.mode.value}"]
    lines.append("[model]")
    for key, value in sorted(cfg.raw.items()):
        if key.startswith("model."):
            lines.append(f"{key} = {value}")
    lines.append("[grid]")
    lines.append(f"grid.n = {cfg.grid_n}")
    lines.append(f"grid.theta_end = {_fmt(cfg.theta_end)}")
    lines.append(f"grid.samples = {cfg.samples}")
    lines.append(f"grid.decrement_cap = {_fmt(cfg.decrement_cap)}")
    for run in (qm, fd):
        if run is None:
            continue
        lines.append(f"[{run.label}]")
        lines.append(f"final_X = {_fmt(run.x[-1])}")
        if run.theta_c is not None:
            lines.append(f"theta_c = {_fmt(run.theta_c)}")
        if run.x_a is not None:
            lines.append(f"final_X_A = {_fmt(run.x_a[-1])}")
        for warning in run.warnings:
            lines.append(f"warning = {warning}")
        if run.diagnostics is not None:  # the oracle's last step, marches run and residuals
            for key in ("dtheta", "levels", "max_flux_residual", "balance_residual"):
                lines.append(f"{key} = {_fmt(run.diagnostics[key])}")
    if metrics is not None:
        lines.append("[compare]")
        lines.append(f"max_abs_dX = {_fmt(metrics.max_abs_dx)}")
        lines.append(f"rms_dX = {_fmt(metrics.rms_dx)}")
        lines.append(f"theta_of_max = {_fmt(metrics.theta_of_max)}")
    if bed is not None:
        lines.append("[bed]")
        lines.append(f"final_min_Y = {_fmt(float(np.min(bed.bulk[-1])))}")
        lines.append(f"final_outlet_C_Y = {_fmt(float(bed.cumulative[-1, -1]))}")
    return lines


def execute_run(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> dict:
    """Run one configuration and write its artifacts; returns summary values.

    Every solve runs before the first file is written, and writing creates
    ``out_dir``, so a run that fails leaves no output directory behind.
    """
    grid = SpatialGrid(cfg.grid_n)
    qm = fd = None
    metrics = None
    if cfg.mode in (RunMode.QM_ONLY, RunMode.COMPARE):
        qm = run_qm(cfg.model, grid, cfg.theta_end, cfg.samples, cfg.snapshots,
                    cfg.decrement_cap)
    if cfg.mode in (RunMode.FD_ONLY, RunMode.COMPARE):
        fd = fd_solve(cfg.model, cfg.theta_end, FdControl(), cfg.samples)
    if cfg.mode is RunMode.COMPARE:
        metrics = compare_runs(qm.theta, qm.x, fd.theta, fd.x)

    bed_result = None
    if cfg.bed is not None:
        bed_result = march_bed(cfg.bed, cfg.bed_dtau, cfg.bed_tau_end, cfg.bed_n_eta,
                               cfg.bed_n_radial, cfg.bed_n_segments, cfg.bed_samples)
        _write_lines(out_dir / "bed.csv", _bed_csv(bed_result))

    _write_lines(out_dir / "conversion.csv", _conversion_csv(qm, fd))
    if qm is not None and qm.snapshots:
        _write_lines(out_dir / "profiles.csv", _profiles_csv(qm))
    _write_lines(out_dir / "summary.txt", _summary(cfg, qm, fd, metrics, bed_result))

    picked = qm if qm is not None else fd
    info = {
        "final_X": float(picked.x[-1]),
        "max_abs_dX": None if metrics is None else metrics.max_abs_dx,
        "theta_at_X50": _theta_at(picked, 0.5),
        "theta_at_X90": _theta_at(picked, 0.9),
    }
    if not quiet:
        print(f"wrote {out_dir}")
    return info


def _theta_at(run: RunResult, level: float) -> float | None:
    idx = np.nonzero(run.x >= level)[0]
    if idx.size == 0:
        return None
    i = int(idx[0])
    if i == 0:
        return float(run.theta[0])
    # linear interpolation between the bracketing samples
    x0, x1 = run.x[i - 1], run.x[i]
    t0, t1 = run.theta[i - 1], run.theta[i]
    return float(t0 + (level - x0) * (t1 - t0) / (x1 - x0))


def _parse_sweep_spec(spec: str) -> tuple[str, list[str]]:
    if "=" not in spec:
        raise ConfigError(f"sweep spec must look like key=v1,v2,... got {spec!r}")
    key, values = spec.split("=", 1)
    key = key.strip().lower()
    vals = [v.strip() for v in values.split(",") if v.strip()]
    if not key or not vals:
        raise ConfigError(f"sweep spec {spec!r} has an empty key or value list")
    return key, vals


def _sweep_point_name(assignment: dict[str, str]) -> str:
    parts = []
    for key, value in assignment.items():
        short = key.split(".")[-1]
        parts.append(f"{short}={value}")
    return "_".join(parts).replace("/", "-")


def _run_sweep_point(args: tuple[dict, dict, str, bool]) -> tuple[dict, dict]:
    entries, assignment, out_root, quiet = args
    merged = dict(entries)
    merged.update(assignment)
    cfg = config_from_entries(merged)
    out_dir = Path(out_root) / _sweep_point_name(assignment)
    info = execute_run(cfg, out_dir, quiet=quiet)
    return assignment, info


def run_sweep(config_path: Path, specs: list[str], out_root: Path, quiet: bool,
              parallel: bool = True) -> Path:
    entries = parse_config_text(config_path.read_text(encoding="utf-8"), str(config_path))
    keys_values = [_parse_sweep_spec(spec) for spec in specs]
    for key, _ in keys_values:
        if key == "mode" or key.split(".", 1)[0] not in ("model", "grid", "bed", "output"):
            raise ConfigError(f"cannot sweep key '{key}'")
    combos = list(itertools.product(*[[(k, v) for v in vals] for k, vals in keys_values]))
    jobs = [(entries, dict(combo), str(out_root), quiet) for combo in combos]
    if parallel and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep needs it

        with ProcessPoolExecutor() as pool:
            results = list(pool.map(_run_sweep_point, jobs))
    else:
        results = [_run_sweep_point(job) for job in jobs]

    keys = [k for k, _ in keys_values]
    lines = [",".join(keys + ["theta_at_X50", "theta_at_X90", "final_X", "max_abs_dX"])]
    for assignment, info in results:
        row = [assignment[k] for k in keys]
        for name in ("theta_at_X50", "theta_at_X90", "final_X", "max_abs_dX"):
            value = info.get(name)
            row.append("" if value is None else _fmt(value))
        lines.append(",".join(row))
    _write_lines(out_root / "aggregate.csv", lines)
    return out_root / "aggregate.csv"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gassolid",
        description="Fluid-solid reaction kinetics: incremental analytical runs, "
                    "finite-difference reference runs, and packed-bed marches.",
    )
    parser.add_argument("--version", action="version", version=f"gassolid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one configuration")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--out", type=Path, default=None, help="output directory")
    run_p.add_argument("--quiet", action="store_true")

    cmp_p = sub.add_parser("compare", help="run with the reference solver and compare")
    cmp_p.add_argument("config", type=Path)
    cmp_p.add_argument("--out", type=Path, default=None)
    cmp_p.add_argument("--quiet", action="store_true")

    sweep_p = sub.add_parser("sweep", help="cartesian sweep over key=v1,v2,... specs")
    sweep_p.add_argument("config", type=Path)
    sweep_p.add_argument("specs", nargs="+", help="e.g. model.sigma=1,2,5")
    sweep_p.add_argument("--out", type=Path, default=None)
    sweep_p.add_argument("--quiet", action="store_true")
    sweep_p.add_argument("--serial", action="store_true", help="disable parallel points")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "compare"):
            cfg = load_config(args.config)
            if args.command == "compare":
                cfg.mode = RunMode.COMPARE
            out_dir = args.out if args.out is not None else (
                Path(cfg.out_dir) if cfg.out_dir else args.config.parent / "out")
            execute_run(cfg, Path(out_dir), quiet=args.quiet)
        elif args.command == "sweep":
            out_root = args.out if args.out is not None else args.config.parent / "sweep_out"
            run_sweep(args.config, args.specs, Path(out_root), args.quiet,
                      parallel=not args.serial)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
