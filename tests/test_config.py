"""Run-configuration front door: every key round-trips, bad values name their key."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassolid import ConfigError, load_config
from gassolid import config as config_module

ROOT = Path(__file__).resolve().parents[1]
MODEL = "model.kind = volume_first_order\nmodel.phi_v = 1.0\n"
BED = {"bed.peclet": "1.1", "bed.beta": "3.3", "bed.phi": "10", "bed.biot_m": "50"}

_POSITIVE = st.floats(1e-9, 1e9)

# key -> (where load_config puts it, how to draw a (text, value) pair)
FIELDS = {
    "grid.n": ("grid_n", st.integers(1, 10**6).map(lambda v: (str(v), v))),
    "grid.theta_end": ("theta_end", _POSITIVE.map(lambda v: (repr(v), v))),
    "grid.samples": ("samples", st.integers(2, 10**6).map(lambda v: (str(v), v))),
    "grid.decrement_cap": ("decrement_cap", _POSITIVE.map(lambda v: (repr(v), v))),
    "output.directory": ("out_dir", st.from_regex(r"[A-Za-z0-9_./-]{1,24}", fullmatch=True)
                         .map(lambda v: (v, v))),
    "output.snapshots": ("snapshots", st.lists(st.floats(0.0, 1e6), min_size=1, max_size=5)
                         .map(lambda vs: (", ".join(map(repr, vs)), tuple(vs)))),
    "bed.peclet": ("bed.peclet", _POSITIVE.map(lambda v: (repr(v), v))),
    "bed.beta": ("bed.beta", st.floats(0.0, 1e9).map(lambda v: (repr(v), v))),
    "bed.phi": ("bed.phi", _POSITIVE.map(lambda v: (repr(v), v))),
    "bed.biot_m": ("bed.biot_m", _POSITIVE.map(lambda v: (repr(v), v))),
    "bed.bed_length": ("bed.bed_length", _POSITIVE.map(lambda v: (repr(v), v))),
    "bed.dtau": ("bed_dtau", _POSITIVE.map(lambda v: (repr(v), v))),
    "bed.tau_end": ("bed_tau_end", _POSITIVE.map(lambda v: (repr(v), v))),
    "bed.n_eta": ("bed_n_eta", st.integers(2, 10**6).map(lambda v: (str(v), v))),
    "bed.n_radial": ("bed_n_radial", st.integers(3, 10**6).map(lambda v: (str(v), v))),
    "bed.n_segments": ("bed_n_segments", st.integers(1, 10**4).map(lambda v: (str(v), v))),
    "bed.samples": ("bed_samples", st.integers(2, 10**6).map(lambda v: (str(v), v))),
}
NUMERIC = [key for key in FIELDS if key.startswith(("grid.", "bed.")) or key == "output.snapshots"]


def _lookup(cfg, where):
    obj = cfg
    for part in where.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_config_key_is_covered():
    assert set(FIELDS) == set(config_module._KEYS)


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries({key: strategy for key, (_, strategy) in FIELDS.items()}))
def test_config_round_trip(tmp_path_factory, drawn):
    text = MODEL + "".join(f"{key} = {pair[0]}\n" for key, pair in drawn.items())
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(text, encoding="utf-8")
    cfg = load_config(path)
    for key, (_, value) in drawn.items():
        assert _lookup(cfg, FIELDS[key][0]) == value, key


@pytest.mark.parametrize("key", NUMERIC)
def test_non_numeric_value_names_its_key(key):
    entries = {"model.kind": "volume_first_order", "model.phi_v": "1", **BED, key: "abc"}
    with pytest.raises(ConfigError, match=re.escape(f"key '{key}'")):
        config_module.config_from_entries(entries)


@pytest.mark.parametrize("missing", sorted(BED))
def test_bed_section_needs_every_group(missing):
    entries = {"model.kind": "volume_first_order", "model.phi_v": "1", **BED, "bed.dtau": "0.1"}
    del entries[missing]
    with pytest.raises(ConfigError, match=re.escape(f"bed section missing '{missing}'")):
        config_module.config_from_entries(entries)


@pytest.mark.parametrize("path", sorted((ROOT / "sample_configs").glob("*.cfg")),
                         ids=lambda path: path.name)
def test_sample_configs_load(path):
    assert load_config(path).model is not None


def test_readme_example_loads(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.bed is not None
