import pytest

from gassolid import ConfigError, RunMode, load_config
from gassolid.cli import main
from gassolid.config import config_from_entries, parse_config_text

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


def test_seed_grid_override(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--seed-grid", "401", "--quiet"]) == 0
    profiles = (out / "profiles.csv").read_text().splitlines()
    assert len(profiles) == 1 + 2 * 401


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
    # axial grid too coarse for the segment count -> hard solver error
    text = BASE + """
bed.peclet = 1.1
bed.beta = 3.3
bed.phi = 10
bed.biot_m = 50
bed.n_eta = 17
bed.n_segments = 64
bed.tau_end = 0.1
bed.dtau = 0.05
bed.samples = 3
"""
    cfg = _write(tmp_path, text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert "solver error" in capsys.readouterr().err


def test_quasi_steady_and_unsteady_sweep(tmp_path):
    cfg = _write(tmp_path, BASE.replace("grid.samples = 41", "grid.samples = 11"))
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "model.psi=0,0.1", "--out", str(out),
                 "--quiet", "--serial"]) == 0
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 3
