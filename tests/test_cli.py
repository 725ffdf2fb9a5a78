import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gassolid import ConfigError, RunMode, SpatialGrid, build_model, load_config, run_qm
from gassolid.bed import BedParams, BedResult, march_bed
from gassolid.cli import (_bed_csv, _conversion_csv, _csv_rows, _fmt, _profiles_csv,
                          _theta_at, main)
from gassolid.config import config_from_entries, parse_config_text
from gassolid.driver import RunResult

BASE = """
mode = qm_only
model.kind = volume_first_order
model.phi_v = 1.0
model.psi = 0
model.F_p = 3
grid.n = 201
grid.theta_end = 2.0
grid.samples = 41
output.snapshots = 0.5, 1.5
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_config_text_line_errors():
    with pytest.raises(ConfigError, match=":2:"):
        parse_config_text("mode = qm_only\nnot a key value\n", source="x.cfg")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("grid.n = 201\ngrid.n = 401\n")
    with pytest.raises(ConfigError, match=":2: empty key or value"):
        parse_config_text("grid.n = 201\ngrid.samples =  # none\n", source="x.cfg")
    entries = parse_config_text("a.b = 1  # trailing comment\n\n# full comment\n")
    assert entries == {"a.b": "1"}


def test_config_roundtrip(tmp_path):
    cfg = load_config(_write(tmp_path, BASE))
    assert cfg.mode is RunMode.QM_ONLY
    assert cfg.grid_n == 201
    assert cfg.theta_end == 2.0
    assert cfg.samples == 41
    assert cfg.snapshots == (0.5, 1.5)


def test_config_unknown_key():
    with pytest.raises(ConfigError, match="grid.bogus"):
        config_from_entries({"model.kind": "volume_first_order", "model.phi_v": "1",
                             "grid.bogus": "3"})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_entries({"model.kind": "volume_first_order", "model.phi_v": "1",
                             "wat": "3"})
    with pytest.raises(ConfigError, match="model"):
        config_from_entries({"mode": "qm_only"})
    with pytest.raises(ConfigError, match="key 'mode': unknown mode 'fast'"):
        config_from_entries({"mode": "fast", "model.kind": "volume_first_order",
                             "model.phi_v": "1"})


def test_config_rejects_bed_csv_switch():
    # bed.csv is always written with a bed section; there is no switch for it
    with pytest.raises(ConfigError, match="output.bed_csv"):
        config_from_entries({"model.kind": "volume_first_order", "model.phi_v": "1",
                             "output.bed_csv": "0"})


def test_run_happy_path(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    conv = (out / "conversion.csv").read_text().splitlines()
    assert conv[0] == "theta,X_qm"
    assert len(conv) == 1 + 41
    first = conv[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    profiles = (out / "profiles.csv").read_text().splitlines()
    assert profiles[0] == "theta,y,a,solid"
    assert len(profiles) == 1 + 2 * 201  # two snapshots
    summary = (out / "summary.txt").read_text()
    assert "final_X" in summary and "mode = qm_only" in summary
    assert not (out / "bed.csv").exists()


def test_run_deterministic_outputs(tmp_path):
    cfg = _write(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["run", str(cfg), "--out", str(out2), "--quiet"]) == 0
    for name in ("conversion.csv", "profiles.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_compare_mode(tmp_path):
    text = BASE.replace("mode = qm_only", "mode = compare").replace(
        "grid.theta_end = 2.0", "grid.theta_end = 1.0")
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["compare", str(cfg), "--out", str(out), "--quiet"]) == 0
    conv = (out / "conversion.csv").read_text().splitlines()
    assert conv[0] == "theta,X_qm,X_fd"
    summary = (out / "summary.txt").read_text()
    assert "max_abs_dX" in summary
    line = [ln for ln in summary.splitlines() if ln.startswith("max_abs_dX")][0]
    assert float(line.split("=")[1]) < 0.02


def test_compare_summary_reports_the_oracle_refinement(tmp_path):
    # aim 4: the oracle's last step, its marches and its residuals in summary.txt
    cfg = Path(__file__).resolve().parents[1] / "sample_configs" / "grain_compare.cfg"
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    fd = lines[lines.index("[fd]") + 1:lines.index("[compare]")]
    values = dict(line.split(" = ") for line in fd)
    assert values["dtheta"] == "0.002"
    assert values["levels"] == "2"
    assert float(values["max_flux_residual"]) <= 1e-6
    assert float(values["balance_residual"]) <= 1e-4
    assert "levels" not in lines[:lines.index("[fd]")]  # the QM section has none


def test_fd_only_mode(tmp_path):
    text = BASE.replace("mode = qm_only", "mode = fd_only").replace(
        "grid.theta_end = 2.0", "grid.theta_end = 1.0").replace(
        "grid.samples = 41", "grid.samples = 21")
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    conv = (out / "conversion.csv").read_text().splitlines()
    assert conv[0] == "theta,X_fd"
    assert len(conv) == 1 + 21
    assert not (out / "profiles.csv").exists()  # no QM snapshots in fd-only mode


def test_default_out_directory(tmp_path, capsys):
    cfg = _write(tmp_path, BASE.replace("grid.samples = 41", "grid.samples = 11"))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "conversion.csv").exists()


def test_config_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, BASE.replace("model.F_p = 3", "model.F_p = 2"))
    assert main(["run", str(bad), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "pellet shape" in err
    missing = tmp_path / "nope.cfg"
    assert main(["run", str(missing)]) == 2


@pytest.mark.parametrize("cap", ["0", "-0.1", "nan"])
def test_nonpositive_decrement_cap_exit_code(tmp_path, capsys, cap):
    # rejected when the config loads, before any output
    cfg = _write(tmp_path, BASE + f"grid.decrement_cap = {cap}\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "config error: grid.decrement_cap must be positive" in capsys.readouterr().err
    assert not out.exists()


_BED_TEXT = """
bed.peclet = 1.1
bed.beta = 3.3
bed.phi = 10
bed.biot_m = 50
bed.tau_end = 0.2
bed.dtau = 0.05
bed.n_eta = 33
bed.n_radial = 21
bed.n_segments = 4
bed.samples = 3
"""


@pytest.mark.parametrize("key, value, message", [
    ("grid.theta_end", "nan", "grid.theta_end must be positive and finite, got nan"),
    ("grid.theta_end", "inf", "grid.theta_end must be positive and finite, got inf"),
    ("bed.dtau", "nan", "bed.dtau must be positive and finite, got nan"),
    ("bed.dtau", "inf", "bed.dtau must be positive and finite, got inf"),
    ("bed.tau_end", "nan", "bed.tau_end must be positive and finite, got nan"),
    ("bed.tau_end", "inf", "bed.tau_end must be positive and finite, got inf"),
    ("bed.peclet", "nan", "peclet must be positive and finite, got nan"),
    ("bed.beta", "nan", "beta must be nonnegative and finite, got nan"),
    ("bed.phi", "inf", "phi must be positive and finite, got inf"),
    ("bed.biot_m", "inf", "biot_m must be positive and finite, got inf"),
    ("bed.bed_length", "nan", "bed_length must be positive and finite, got nan"),
])
def test_nonfinite_run_and_bed_settings_exit_code(tmp_path, capsys, key, value, message):
    # each used to load: a NaN theta_end ran to X 0 and exit 0, a NaN dtau or
    # tau_end ended in a traceback, and a NaN peclet or beta in exit 3
    lines = [line for line in (BASE + _BED_TEXT).splitlines() if not line.startswith(key)]
    cfg = _write(tmp_path, "\n".join(lines) + f"\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_removed_settings_are_rejected(tmp_path, capsys):
    # conversion.csv and profiles.csv have no switch, and grid.n has no CLI override
    for key in ("output.conversion_csv", "output.profiles_csv"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            config_from_entries({"model.kind": "volume_first_order", "model.phi_v": "1",
                                 key: "0"})
    with pytest.raises(SystemExit) as exc:
        main(["run", str(_write(tmp_path, BASE)), "--seed-grid", "401"])
    assert exc.value.code == 2
    assert "--seed-grid" in capsys.readouterr().err


def test_simultaneous_profile_schema(tmp_path):
    text = """
model.kind = simultaneous
model.sigma_a = 0.3
model.sigma_c = 1.0
model.psi_ab = 0.4
grid.theta_end = 1.0
grid.samples = 11
output.snapshots = 1.0
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    conv = (out / "conversion.csv").read_text().splitlines()
    assert conv[0] == "theta,X_qm,X_A_qm"
    profiles = (out / "profiles.csv").read_text().splitlines()
    assert profiles[0] == "theta,y,psi_a,psi_c,solid,solid_a"


def _fmt_row(*values):
    return ",".join(_fmt(v) for v in values)


def test_csv_rows_are_fmt_rows():
    # every CSV row is the values through _fmt, comma-joined, in the old loop order
    small = march_bed(BedParams(1.1, 3.3, 10.0, 50.0), 0.05, 0.2, n_eta=9, n_radial=11,
                      n_segments=4, samples=3)
    edge = np.array([[-0.0, 5e-324], [0.1, 1e16]])
    hand = BedResult(tau=np.array([-0.0, 0.1]), eta=np.array([5e-324, 1e16]), bulk=edge,
                     cumulative=edge[::-1], x_surface=edge[:, ::-1], x_average=-edge)
    for res in (small, hand):
        want = [_fmt_row(t, e, res.bulk[i, j], res.cumulative[i, j], res.x_surface[i, j],
                         res.x_average[i, j])
                for i, t in enumerate(res.tau) for j, e in enumerate(res.eta)]
        assert _bed_csv(res) == ["tau,eta,Y,C_Y,X_surface,X_pellet_avg"] + want
    tiny, tenth, big = "4.9406564584124654e-324", "0.10000000000000001", "10000000000000000"
    assert _bed_csv(hand)[1] == f"-0,{tiny},-0,{tenth},{tiny},0"
    assert _bed_csv(hand)[4] == f"{tenth},{big},{big},{tiny},{tenth},-{big}"

    params = build_model({"kind": "simultaneous", "sigma_a": 0.3, "sigma_c": 1.0, "psi_ab": 0.4})
    two_gas = run_qm(params, SpatialGrid(101), 1.0, 11, (0.5, 1.0))
    want = [_fmt_row(t, x, xa) for t, x, xa in zip(two_gas.theta, two_gas.x, two_gas.x_a)]
    assert _conversion_csv(two_gas, None) == ["theta,X_qm,X_A_qm"] + want
    want = [_fmt_row(s.theta, s.y[j], s.gas[j], s.gas_c[j], s.solid[j], s.solid_a[j])
            for s in two_gas.snapshots for j in range(s.y.size)]
    assert _profiles_csv(two_gas) == ["theta,y,psi_a,psi_c,solid,solid_a"] + want


def _old_bed_csv(res):
    # the writer that formatted every column of every row, tau and eta included
    lines = ["tau,eta,Y,C_Y,X_surface,X_pellet_avg"]
    for i, t in enumerate(res.tau):
        lines += _csv_rows([np.full(res.eta.size, t), res.eta, res.bulk[i], res.cumulative[i],
                            res.x_surface[i], res.x_average[i]])
    return lines


def _old_profiles_csv(qm, cols):
    lines = [cols]
    for snap in qm.snapshots:
        values = [snap.gas, snap.solid] if snap.gas_c is None else [
            snap.gas, snap.gas_c, snap.solid, snap.solid_a]
        lines += _csv_rows([np.full(snap.y.size, snap.theta), snap.y] + values)
    return lines


def _text(lines):
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_block_writers_match_the_all_column_writers():
    # formatting each time and grid node once gives the same bytes as
    # formatting every value of every row
    small = march_bed(BedParams(1.1, 3.3, 10.0, 50.0), 0.05, 0.2, n_eta=9, n_radial=11,
                      n_segments=4, samples=3)
    lines = _bed_csv(small)
    assert _text(lines) == _text(_old_bed_csv(small))
    assert lines[1].startswith("0,0,") and lines[9].startswith("0,1,")  # tau 0; eta 0 and 1

    one_gas = run_qm(build_model({"kind": "volume_first_order", "phi_v": 2.0}), SpatialGrid(101),
                     1.0, 5, (0.0, 0.5, 1.0))
    lines = _profiles_csv(one_gas)
    assert _text(lines) == _text(_old_profiles_csv(one_gas, "theta,y,a,solid"))
    assert lines[1] == "0,0,%s,1" % _fmt(one_gas.snapshots[0].gas[0])  # theta 0, y 0, solid 1
    two_gas = run_qm(build_model({"kind": "simultaneous", "sigma_a": 0.3, "sigma_c": 1.0,
                                  "psi_ab": 0.4}), SpatialGrid(101), 1.0, 5, (0.5, 1.0))
    assert _text(_profiles_csv(two_gas)) == _text(
        _old_profiles_csv(two_gas, "theta,y,psi_a,psi_c,solid,solid_a"))


def _series(theta, x):
    return RunResult(theta=np.asarray(theta, dtype=float),
                     x=np.asarray(x, dtype=float))


def test_theta_at_interpolates_the_crossing_sample_step():
    run = _series([0.0, 1.0, 2.0, 3.0], [0.0, 0.2, 0.6, 1.0])
    assert _theta_at(run, 0.5) == pytest.approx(1.75, abs=1e-15)
    assert _theta_at(run, 0.9) == pytest.approx(2.75, abs=1e-15)
    assert _theta_at(run, 0.6) == 2.0  # a sample on the level is its own theta
    assert _theta_at(run, 1.5) is None  # never reached


def test_theta_at_past_a_flat_step():
    # the flat samples lie below the level; the crossing is in the step after them
    run = _series([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.3, 0.3, 0.3, 0.7])
    assert _theta_at(run, 0.5) == pytest.approx(3.5, abs=1e-15)
    assert _theta_at(run, 0.3) == pytest.approx(1.0, abs=1e-15)


def test_theta_at_first_sample_crossing():
    run = _series([0.25, 1.0], [0.6, 0.9])
    assert _theta_at(run, 0.5) == 0.25
    assert _theta_at(run, 0.6) == 0.25


def test_bed_section_writes_bed_csv(tmp_path):
    text = BASE + """
bed.peclet = 1.1
bed.beta = 3.3
bed.phi = 10
bed.biot_m = 50
bed.tau_end = 0.5
bed.dtau = 0.05
bed.n_eta = 65
bed.n_radial = 51
bed.n_segments = 16
bed.samples = 6
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    bedlines = (out / "bed.csv").read_text().splitlines()
    assert bedlines[0] == "tau,eta,Y,C_Y,X_surface,X_pellet_avg"
    assert len(bedlines) == 1 + 6 * 65
    row = bedlines[1].split(",")
    assert len(row) == 6 and float(row[0]) == 0.0


def test_bed_sizes_default_to_run_config(tmp_path):
    # a bed section without sizes runs at RunConfig's 257 heights and 51 samples
    text = BASE + """
bed.peclet = 1.1
bed.beta = 3.3
bed.phi = 10
bed.biot_m = 50
bed.tau_end = 0.05
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert len((out / "bed.csv").read_text().splitlines()) == 1 + 51 * 257


def test_compare_mode_at_zero_modulus(tmp_path):
    # the oracle's uptake diagnostic is defined at phi = 0 (a = 1 throughout)
    text = BASE.replace("qm_only", "compare").replace("phi_v = 1.0", "phi_v = 0")
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    summary = (out / "summary.txt").read_text()
    gap = float(summary.split("max_abs_dX = ")[1].split()[0])
    assert gap <= 1e-5


def test_fd_run_at_zero_unsteady_modulus_exit_code(tmp_path, capsys):
    text = (BASE.replace("qm_only", "fd_only").replace("phi_v = 1.0", "phi_v = 0")
            .replace("model.psi = 0", "model.psi = 0.05"))
    out = tmp_path / "out"
    assert main(["run", str(_write(tmp_path, text)), "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "psi_phi_sq must be positive" in err
    assert not (out / "conversion.csv").exists()


def test_sweep(tmp_path):
    cfg = _write(tmp_path, BASE.replace("grid.samples = 41", "grid.samples = 21"))
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "model.phi_v=0.5,1.0", "--out", str(out),
                 "--quiet", "--serial"]) == 0
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "model.phi_v,theta_at_X50,theta_at_X90,final_X,max_abs_dX"
    assert len(agg) == 3
    assert (out / "phi_v=0.5" / "conversion.csv").exists()
    assert (out / "phi_v=1.0" / "conversion.csv").exists()
    # slower diffusion -> later half-conversion
    t50 = [float(line.split(",")[1]) for line in agg[1:]]
    assert t50[0] < t50[1]


def test_sweep_parallel_two_keys(tmp_path):
    cfg = _write(tmp_path, BASE.replace("grid.samples = 41", "grid.samples = 11"))
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "model.phi_v=0.5,1.0", "grid.n=201,401",
                 "--out", str(out), "--quiet"]) == 0
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 5  # cartesian 2 x 2
    assert agg[0].startswith("model.phi_v,grid.n,")


def test_sweep_bad_specs(tmp_path):
    cfg = _write(tmp_path, BASE)
    assert main(["sweep", str(cfg), "model.phi_v=", "--quiet"]) == 2
    assert main(["sweep", str(cfg), "nonsense", "--quiet"]) == 2
    assert main(["sweep", str(cfg), "mode=compare,qm_only", "--quiet"]) == 2


def test_solver_error_exit_code(tmp_path, capsys):
    # gas accumulation without a modulus leaves the QM step no gas capacity
    text = BASE.replace("phi_v = 1.0", "phi_v = 0").replace("model.psi = 0", "model.psi = 0.05")
    cfg = _write(tmp_path, text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "psi_phi_sq must be positive" in err


def test_solver_error_leaves_no_output_directory(tmp_path):
    text = BASE.replace("phi_v = 1.0", "phi_v = 0").replace("model.psi = 0", "model.psi = 0.05")
    out = tmp_path / "o"
    assert main(["run", str(_write(tmp_path, text)), "--out", str(out), "--quiet"]) == 3
    assert not out.exists()


@pytest.mark.parametrize("n_segments, samples", [(0, 3), (4, 1)])
def test_bad_bed_counts_exit_code(tmp_path, capsys, n_segments, samples):
    # rejected when the config loads; both used to end in a solver error
    # (exit 3) after the pellet had been solved, leaving an empty directory
    text = BASE + f"""
bed.peclet = 1.1
bed.beta = 3.3
bed.phi = 10
bed.biot_m = 50
bed.n_eta = 17
bed.n_segments = {n_segments}
bed.tau_end = 0.1
bed.dtau = 0.05
bed.samples = {samples}
"""
    out = tmp_path / "o"
    assert main(["run", str(_write(tmp_path, text)), "--out", str(out), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("grid.n", "100", "grid size must be odd and >= 101, got 100"),
    ("grid.n", "99", "grid size must be odd and >= 101, got 99"),
    ("bed.n_radial", "100", "bed.n_radial must be odd and >= 3, got 100"),
    ("bed.n_radial", "1", "bed.n_radial must be odd and >= 3, got 1"),
    ("bed.n_segments", "0", "bed.n_segments must be at least 1, got 0"),
    ("bed.n_eta", "1", "bed.n_eta = 1 is too coarse for bed.n_segments = 4"),
    ("bed.n_eta", "2", "bed.n_eta = 2 is too coarse for bed.n_segments = 4"),
    ("bed.samples", "1", "bed.samples must be at least 2, got 1"),
    ("grid.samples", "1", "grid.samples must be at least 2"),
])
def test_bad_sizes_exit_code(tmp_path, capsys, key, value, message):
    # each size is checked when the config loads, so nothing is solved or
    # written; a bad grid.n used to leave an empty output directory
    lines = [line for line in (BASE + _BED_TEXT).splitlines() if not line.startswith(key + " ")]
    cfg = _write(tmp_path, "\n".join(lines) + f"\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_coarsest_axial_grid_that_fills_every_segment_runs():
    # 3 nodes (0, 1/2, 1) put one on an end of every quarter of the bed (2
    # leave the middle quarters empty), and the config check takes what the
    # bulk solver takes
    entries = {**parse_config_text(BASE + _BED_TEXT), "bed.n_eta": "3"}
    cfg = config_from_entries(entries)
    res = march_bed(cfg.bed, cfg.bed_dtau, cfg.bed_tau_end, cfg.bed_n_eta, cfg.bed_n_radial,
                    cfg.bed_n_segments, cfg.bed_samples)
    assert res.bulk.shape == (3, 3)


def test_quasi_steady_and_unsteady_sweep(tmp_path):
    cfg = _write(tmp_path, BASE.replace("grid.samples = 41", "grid.samples = 11"))
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "model.psi=0,0.1", "--out", str(out),
                 "--quiet", "--serial"]) == 0
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 3


# A fresh interpreter: QM and bed runs through execute_run, then one oracle
# solve.  Only the oracle may load scipy, and then not scipy.linalg's package
# init, and only a parallel sweep concurrent.futures.
_LAZY_IMPORTS = """
import sys
from pathlib import Path

import gassolid
from gassolid import cli, config

runs = [
    {"mode": "qm_only", "model.kind": "volume_first_order", "model.phi_v": "1.0",
     "grid.n": "101", "grid.theta_end": "0.5", "grid.samples": "6"},
    {"mode": "qm_only", "model.kind": "volume_first_order", "model.phi_v": "1.0",
     "grid.n": "101", "grid.theta_end": "0.5", "grid.samples": "3",
     "bed.peclet": "1.1", "bed.beta": "3.3", "bed.phi": "10", "bed.biot_m": "50",
     "bed.tau_end": "0.2", "bed.dtau": "0.05", "bed.n_eta": "33", "bed.n_radial": "21",
     "bed.n_segments": "4", "bed.samples": "3"},
]
for i, entries in enumerate(runs):
    cli.execute_run(config.config_from_entries(entries), Path(sys.argv[1]) / str(i), quiet=True)
loaded = [name for name in ("scipy", "concurrent.futures") if name in sys.modules]
assert not loaded, f"QM and bed runs loaded {loaded}"
res = gassolid.fd_solve(gassolid.build_model({"kind": "volume_first_order", "phi_v": 1.0}), 0.5,
                        gassolid.FdControl(n_space=21, dtheta=0.05, auto_refine=False), 3)
assert res.x[-1] > 0.0 and "scipy" in sys.modules
assert "scipy.linalg" not in sys.modules, "the oracle ran scipy.linalg's package init"
import scipy.linalg.lapack
assert gassolid.fdref._dgtsv is scipy.linalg.lapack.dgtsv
print("ok")
"""


def test_qm_and_bed_runs_leave_scipy_unloaded(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
    assert (tmp_path / "1" / "bed.csv").exists()
