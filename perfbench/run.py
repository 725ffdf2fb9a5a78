"""Benchmark of gassolid: four workloads over the pellet, oracle and bed paths.

One run measures one workload at one seed:

    python3 perfbench/run.py --workload pellet_unsteady --seed 1 --seconds 15 --trace 0

Every pass drives the public entry points (``config.config_from_entries``
then ``cli.execute_run`` into a scratch directory) over the seed's cases,
serially in this process.  Passes repeat until ``--seconds`` of pass time
has been measured; case times are scaled to a reference speed to cancel
contention from other tenants of the host (see ``reference_work``).  The
outputs of every pass are read back and checked.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced passes.  The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

    python3 perfbench/run.py --workload all --seed 1     # every workload, both modes
    python3 perfbench/run.py --self-test                 # counter and smoke checks

See perfbench/README.md for why each workload exists and what each
metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# The load is serial; BLAS thread pools would only compete for the cores.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_PROBES = 7     # fresh interpreters per untraced run, spread over its passes
MIN_PASSES = 3       # untraced passes per run, even if --seconds is exceeded
MIN_TRACED = 2       # traced and untraced passes each, in a --trace 1 run
SMOKE_LIMIT_S = 2.0

# Metric names and units, as BENCHMARK.json defines them.
_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}


def pin_threads() -> None:
    for var in BLAS_VARS:
        os.environ[var] = "1"


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Timing at the reference speed
#
# On a shared 2-vCPU virtual machine, other tenants of the host slowed pure
# computation by up to 1.8x, in phases lasting from seconds to over a
# minute, with no steal time; process CPU time grew with wall time.  Raw
# pass times spread by 0.17-0.40 of their median from run to run.  So
# every timed case is bracketed by a fixed piece of reference work that
# uses numpy and scipy only, and is scaled by REFERENCE_S over the mean of
# the two reference timings.  The host's slowdown cancels; gassolid's does
# not, because the reference work runs none of its code.
# ---------------------------------------------------------------------------

REFERENCE_S = 0.015  # reference work time uncontended (x86-64 VM, numpy 2.4)


def reference_work() -> float:
    """Seconds taken by a fixed mix of the kinds of work gassolid does.

    Small-array numpy (the kernels), medium arrays (the bed's pellet
    field), small LU solves (the bed's bulk solve) and a pure-Python loop.
    """
    import numpy as np
    from scipy.linalg import lu_factor, lu_solve

    y = np.linspace(0.0, 1.0, 201)
    k = np.arange(1, 41)[:, None] * np.pi
    field = np.linspace(0.0, 1.0, 257 * 101).reshape(257, 101)
    lu = lu_factor(np.eye(128) * 4.0 + np.eye(128, k=1) + np.eye(128, k=-1))
    rhs = np.ones(128)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60):
        table = np.sin(k * y) / (k * k + 1.0)
        acc += float(np.sum(table[:, ::7])) + float(np.exp(-y * (1.0 + 1e-3 * i))[3])
    for i in range(24):
        acc += float(np.sum(np.exp(-field * (1.0 + 1e-3 * i)) * np.sqrt(field + 1.0)))
    for _ in range(180):
        rhs = lu_solve(lu, rhs) + 1.0
    count = 0
    for i in range(36000):
        count += i % 7
    return time.perf_counter() - t0


def at_reference(seconds: list[float], refs: list[float]) -> list[float]:
    """Scale interval i by REFERENCE_S over the reference work around it."""
    return [t * REFERENCE_S / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(seconds)]


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """One fresh interpreter: (seconds from process start to "ready",
    seconds of reference work timed inside that same process)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        out, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed, float(out.split()[-1])


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Workload:
    """The seed's cases, their scratch directories and the per-case record."""

    def __init__(self, name: str, seed: int, out_root: Path, smoke: bool = False):
        import cases

        self.cases = cases.make_cases(name, seed, smoke)
        self.control = cases.fd_control(smoke)
        self.dirs = [out_root / f"case{i}" for i in range(len(self.cases))]
        self.failed = [[] for _ in self.cases]     # per case: one bool per pass
        self.problems = [[] for _ in self.cases]   # per case: distinct messages
        self.gaps: list[float | None] = [None] * len(self.cases)
        self.checked: list[tuple[str, list[str]] | None] = [None] * len(self.cases)

    def run_case(self, case, out_dir: Path):
        """One case as a user runs it; returns the in-pass reference X, if any."""
        from gassolid import cli, config, fdref

        cfg = config.config_from_entries(dict(case.entries))
        cli.execute_run(cfg, out_dir, quiet=True)
        if case.fd_in_pass:
            return fdref.fd_solve(cfg.model, cfg.theta_end, fdref.FdControl(**self.control),
                                  cfg.samples).x
        return None

    def run_pass(self, tracer=None) -> tuple[list[float], list[float], list]:
        """Run every case once.

        Returns the raw seconds of each case, the reference timings around
        them (one more than cases) and each case's (error, fd_x).
        """
        from spans import CASE_SPAN, PASS_SPAN

        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        seconds, results = [], []
        refs = [reference_work()]
        pass_span = tracer.open(PASS_SPAN) if tracer else None
        for case, out_dir in zip(self.cases, self.dirs):
            case_span = tracer.open(CASE_SPAN) if tracer else None
            t0 = time.perf_counter()
            try:
                results.append((None, self.run_case(case, out_dir)))
            except Exception as exc:  # a failing case is counted; the run goes on
                results.append((f"{case.label}: {type(exc).__name__}: {exc}", None))
            finally:
                seconds.append(time.perf_counter() - t0)
                if tracer:
                    tracer.close(case_span)
            refs.append(reference_work())
        if tracer:
            tracer.close(pass_span)
        return seconds, refs, results

    def check_pass(self, results: list) -> None:
        """Check what the pass wrote; a problem fails that case in this pass."""
        import checks
        from gassolid import config

        for i, (case, out_dir, (error, fd_x)) in enumerate(zip(self.cases, self.dirs, results)):
            problems = [error] if error else []
            if not error:
                try:
                    problems += self._check_case(i, case, out_dir, fd_x, config, checks)
                except Exception as exc:  # unreadable output fails the case
                    problems.append(f"{case.label}: output unreadable: {exc}")
            self.failed[i].append(bool(problems))
            for p in problems:
                if p not in self.problems[i]:
                    self.problems[i].append(p)

    def _check_case(self, i, case, out_dir, fd_x, config, checks) -> list[str]:
        digest = checks.digest(out_dir, fd_x)
        if self.checked[i] is not None:
            first_digest, first_problems = self.checked[i]
            if digest != first_digest:
                return [f"{case.label}: outputs differ from the first pass"]
            return list(first_problems)  # the same bytes pass the same checks
        cfg = config.config_from_entries(dict(case.entries))
        problems = []
        if cfg.bed is not None:
            bed_problems, gap = checks.bed_problems(out_dir, cfg)
            problems += bed_problems
            if not gap <= case.gap_bound:
                problems.append(f"{case.label}: bulk gap {gap:.2e} above {case.gap_bound}")
            self.gaps[i] = gap
        conv_problems, gap = checks.conversion_problems(out_dir, cfg, case, fd_x)
        problems += conv_problems
        if gap is not None:
            self.gaps[i] = gap
            stated = checks.summary_gap(out_dir)
            if stated is not None and abs(stated - gap) > 1e-12:
                problems.append(f"{case.label}: summary max_abs_dX {stated} != CSV gap {gap}")
        self.checked[i] = (digest, problems)
        return problems

    def check_reference(self) -> None:
        """Gap to the FD reference for cases whose passes did not produce one.

        Runs after the timed passes, on the last pass's outputs, which are
        byte-identical to every passing pass's.  A failure here fails the
        case in every pass.
        """
        import checks
        from gassolid import config

        for i, (case, out_dir) in enumerate(zip(self.cases, self.dirs)):
            if self.gaps[i] is not None or self.failed[i][-1]:
                continue
            try:
                cfg = config.config_from_entries(dict(case.entries))
                fd_x = checks.reference_x(cfg, self.control)
                problems, self.gaps[i] = checks.conversion_problems(out_dir, cfg, case, fd_x)
            except Exception as exc:  # a failing reference run fails the case
                problems = [f"{case.label}: reference run failed: {exc}"]
            if problems:
                self.failed[i] = [True] * len(self.failed[i])
                self.problems[i] += problems

    @property
    def attempted(self) -> int:
        return sum(len(f) for f in self.failed)

    @property
    def failed_count(self) -> int:
        return sum(sum(f) for f in self.failed)


def pass_times(passes: list[tuple[list[float], list[float]]]) -> list[float]:
    """Seconds of each pass at the reference speed."""
    return [sum(at_reference(raw, refs)) for raw, refs in passes]


def typical_pass(passes: list[tuple[list[float], list[float]]]) -> float:
    """Sum over cases of each case's median time at the reference speed."""
    scaled = [at_reference(raw, refs) for raw, refs in passes]
    return sum(statistics.median(runs) for runs in zip(*scaled))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (metrics, checks, environment)."""
    import spans

    run_id = f"{workload}-seed{seed}-trace{int(trace)}"
    out_root = WORK / "out" / f"{run_id}-{os.getpid()}"
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment()}
    setup = []   # set-up probes as (raw seconds, reference seconds in the probe)
    wl = Workload(workload, seed, out_root)
    tracer = spans.Tracer() if trace else None
    plain, traced, per_pass = [], [], []   # passes as (raw case seconds, reference timings)
    try:
        measured = 0.0
        while True:
            if trace and len(traced) < len(plain):
                tracer.install()
                mark = tracer.mark()
                try:
                    raw, refs, results = wl.run_pass(tracer)
                finally:
                    tracer.uninstall()
                per_pass.append(tracer.aggregate(mark))
                traced.append((raw, refs))
            else:
                # Probes go between untraced passes, one each time another
                # 1/SETUP_PROBES of --seconds has been measured, so that
                # they sample the host over the whole run.
                while not trace and len(setup) < SETUP_PROBES * min(1.0, measured / seconds):
                    setup.append(setup_probe(workload, seed))
                raw, refs, results = wl.run_pass()
                plain.append((raw, refs))
            measured += sum(raw)
            wl.check_pass(results)
            need = MIN_TRACED if trace else MIN_PASSES
            if measured >= seconds and len(plain) >= need and (not trace or len(traced) >= need):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not trace and len(setup) < SETUP_PROBES:
            setup.append(setup_probe(workload, seed))
        wl.check_reference()
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    gaps = [g for g in wl.gaps if g is not None]
    record.update({
        "attempted": wl.attempted,
        "failed": wl.failed_count,
        "failed_frac": wl.failed_count / wl.attempted,
        "pass_seconds": pass_times(plain),
        "traced_pass_seconds": pass_times(traced),
        "raw_pass_seconds": [sum(raw) for raw, _ in plain],
        "raw_case_seconds": [raw for raw, _ in plain],
        "reference_seconds": [refs for _, refs in plain + traced],
        "setup_seconds": [raw for raw, _ in setup],
        "setup_reference_seconds": [ref for _, ref in setup],
        "cases": [{"label": c.label, "entries": c.entries, "gap": g, "gap_bound": c.gap_bound,
                   "x_final_min": c.x_final_min, "failed_passes": sum(f), "problems": p}
                  for c, g, f, p in zip(wl.cases, wl.gaps, wl.failed, wl.problems)],
    })
    if trace:
        counts = [spans.pass_counts(*agg, PER_LAYER) for agg in per_pass]
        layer_seconds = []
        for agg, (_, refs) in zip(per_pass, traced):
            scale = REFERENCE_S / statistics.fmean(refs)
            layer_seconds.append({k: v * scale
                                  for k, v in spans.pass_seconds(agg[0], PER_LAYER).items()})
        metrics = dict(counts[0])
        for name in layer_seconds[0]:
            metrics[name] = statistics.median(p[name] for p in layer_seconds)
        metrics["trace.wall_s"] = typical_pass(traced)
        metrics["trace.overhead_s"] = typical_pass(traced) - typical_pass(plain)
        record["metrics"] = {k: {"value": metrics[k], "unit": unit}
                             for k, unit in PER_LAYER.items()}
        record["counts_repeat"] = all(c == counts[0] for c in counts)
        record["hooks_missing"] = tracer.missing
        WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
        tracer.save(WORK / "traces" / f"{run_id}.npz")
    else:
        values = {
            "wall_s": typical_pass(plain),
            "setup_s": statistics.median(raw * REFERENCE_S / ref for raw, ref in setup),
            "peak_rss_mb": peak_rss_mb,
            "max_abs_dX": max(gaps) if gaps else 0.0,
        }
        record["metrics"] = {k: {"value": values[k], "unit": unit}
                             for k, unit in END_TO_END.items()}
    # A hook that found nothing to wrap, or counts that change between
    # traced passes, make the per-layer figures wrong, not just zero.
    record["correct"] = (wl.failed_count == 0
                         and not (trace and (tracer.missing or not record["counts_repeat"])))
    return record


def _spread(values: list[float]) -> str:
    return (f"n={len(values)}, median {statistics.median(values):.4f} s, "
            f"min {min(values):.4f} s, max {max(values):.4f} s")


def report(record: dict) -> None:
    """Human-readable lines; the caller prints the JSON result line after them."""
    env = record["environment"]
    print(f"# gassolid benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"trace {record['trace']}")
    print(f"# env: nproc {env['nproc']} (affinity {env['affinity']}), python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS threads "
          f"{env['blas_threads']['OPENBLAS_NUM_THREADS']}, commit {env['git_commit']}, "
          f"src lines {env['src_lines']}")
    for case in record["cases"]:
        varied = ", ".join(f"{k}={v}" for k, v in case["entries"].items()
                           if k.startswith(("model.", "bed.")) and k != "model.kind")
        gap = "n/a" if case["gap"] is None else f"{case['gap']:.3e}"
        print(f"# case {case['label']}: {varied}; gap {gap} (bound {case['gap_bound']})")
        for problem in case["problems"]:
            print(f"#   FAILED: {problem}")
    refs = [r for run in record["reference_seconds"] for r in run]
    print(f"# reference work ({REFERENCE_S * 1e3:g} ms uncontended): {_spread(refs)}")
    print(f"# untraced passes at reference speed: {_spread(record['pass_seconds'])}")
    print(f"# untraced passes, raw wall time: {_spread(record['raw_pass_seconds'])}")
    if record["traced_pass_seconds"]:
        print(f"# traced passes at reference speed: {_spread(record['traced_pass_seconds'])}; "
              f"counts repeat across traced passes: {record['counts_repeat']}")
        if record["hooks_missing"]:
            print(f"# hooks not found: {', '.join(record['hooks_missing'])}")
    if record["setup_seconds"]:
        scaled = [t * REFERENCE_S / r for t, r in zip(record["setup_seconds"],
                                                      record["setup_reference_seconds"])]
        print(f"# set-up probes at reference speed: {_spread(scaled)}")
        print(f"# set-up probes, raw wall time: {_spread(record['setup_seconds'])}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {record['failed_frac']:.6g} ({record['failed']} of "
          f"{record['attempted']} case runs)")


def result_line(record: dict) -> str:
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": record["metrics"]})


def save(record: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Every workload at once, and the self-test
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced."""
    import cases

    rows = []
    for workload in cases.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            rows.append((workload, trace, result))
    print("# summary")
    ok = True
    for workload, trace, result in rows:
        if result is None:
            print(f"{workload} trace {trace}: run failed")
            ok = False
            continue
        ok = ok and result["correct"]
        frac = result["failed"] / result["attempted"]
        print(f"{workload} trace {trace}: correct {result['correct']}, failed_frac {frac:g} "
              f"({result['failed']} of {result['attempted']})")
        if not trace:
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


_CLI = ["config.parse.s", "cli.execute_run.s", "cli.write.s", "cli.write.bytes"]
_QM = ["driver.run_qm.calls", "analysis.conversion.calls", "steppers.step.calls",
       "steppers.substeps", "steppers.advance.calls", "kernels.exposure_increment.calls"]
_SERIES = ["kernels.series_terms.calls", "kernels.profile_unsteady.calls",
           "kernels.series_per_substep"]
_FRONT = ["kernels.solve_moving_boundary.calls", "kernels.front_time.calls"]
_INVERT = ["steppers.invert.calls", "steppers.invert.evals_per_call"]
_FD = ["fdref.fd_solve.s", "fdref.march.calls", "fdref.refine.useful_frac",
       "fdref.solve_banded.calls"]
_BED = ["bed.march.s", "bed.fixed_point.calls", "bed.bulk_solve.calls", "bed.picard_per_step",
        "bed.pellet_shape.calls", "bed.surface_transmission.calls", "bed.solver_init.s"]

# The prediction table of README.md as counts: what must be nonzero and
# what must be exactly zero on each workload at full size.
EXPECT_NONZERO = {
    "pellet_unsteady": _CLI + _QM + _SERIES + _FRONT + _INVERT,
    "pellet_qss": _CLI + _QM + _FRONT + _INVERT + ["kernels.profile_qss.calls"],
    "fd_compare": _CLI + _QM + _FD + ["fdref.gas_qss.calls", "fdref.gas_cn.calls",
                                      "analysis.compare_runs.s"],
    "packed_bed": _CLI + _BED + ["driver.run_qm.calls"],
}
EXPECT_ZERO = {
    "pellet_unsteady": _FD + _BED + ["analysis.compare_runs.s"],
    "pellet_qss": _SERIES + _FD + _BED + ["analysis.compare_runs.s"],
    "fd_compare": _BED + _INVERT,
    "packed_bed": _SERIES + _FRONT + _INVERT + _FD + ["analysis.compare_runs.s"],
}


def self_test(seed: int) -> int:
    """Counter expectations, repeatable counts and the smoke variant's time."""
    import cases
    import spans

    failures = []
    for workload in cases.WORKLOADS:
        counted = []
        for _ in range(2):
            wl = Workload(workload, seed, WORK / "out" / f"selftest-{os.getpid()}")
            tracer = spans.Tracer()
            tracer.install()
            failures += [f"{workload}: hook not found: {t}" for t in tracer.missing]
            try:
                mark = tracer.mark()
                _, _, results = wl.run_pass(tracer)
            finally:
                tracer.uninstall()
                shutil.rmtree(wl.dirs[0].parent, ignore_errors=True)
            errors = [e for e, _ in results if e]
            failures += [f"{workload}: {e}" for e in errors]
            agg = tracer.aggregate(mark)
            metrics = {**spans.pass_counts(*agg, PER_LAYER),
                       **spans.pass_seconds(agg[0], PER_LAYER)}
            counted.append({k: v for k, v in metrics.items() if not k.endswith(".s")})
        failures += [f"{workload}: {m} is 0" for m in EXPECT_NONZERO[workload] if not metrics[m]]
        failures += [f"{workload}: {m} = {metrics[m]}, predicted 0"
                     for m in EXPECT_ZERO[workload] if metrics[m]]
        if counted[0] != counted[1]:
            diff = sorted(k for k in counted[0] if counted[0][k] != counted[1].get(k))
            failures.append(f"{workload}: counts differ between two traced runs: {diff}")
        print(f"# {workload}: counters checked")

    smoke_s = 0.0
    for workload in cases.WORKLOADS:
        wl = Workload(workload, seed, WORK / "out" / f"smoke-{os.getpid()}", smoke=True)
        try:
            raw, refs, results = wl.run_pass()
            wl.check_pass(results)
        finally:
            shutil.rmtree(wl.dirs[0].parent, ignore_errors=True)
        smoke_s += sum(at_reference(raw, refs))
        failures += [p for probs in wl.problems for p in probs]
    print(f"# smoke variant, all four workloads: {smoke_s:.3f} s at the reference speed "
          f"(limit {SMOKE_LIMIT_S} s)")
    if smoke_s >= SMOKE_LIMIT_S:
        failures.append(f"smoke variant took {smoke_s:.3f} s")
    for f in failures:
        print(f"FAILED: {f}")
    print("self-test passed" if not failures else f"self-test failed: {len(failures)} problem(s)")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gassolid benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", help="pellet_unsteady, pellet_qss, fd_compare, "
                                           "packed_bed, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not (SRC / "gassolid" / "__init__.py").is_file():
        print(f"benchmark: no gassolid sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))

    import cases

    if args.self_test:
        return self_test(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in cases.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    save(record)
    report(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
