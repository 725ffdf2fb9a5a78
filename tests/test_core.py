import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gassolid import (
    ConfigError,
    GrainGeometry,
    ModelKind,
    ModelParams,
    PelletGeometry,
    PelletState,
    SpatialGrid,
    build_model,
)
from gassolid import core
from gassolid.cli import main


def test_minimal_volume_config():
    p = build_model({"kind": "volume_first_order", "phi_v": 1, "psi": 0, "F_p": 3})
    assert p.kind is ModelKind.VOLUME_FIRST_ORDER
    assert p.thiele == 1.0
    assert p.quasi_steady
    assert p.pellet.shape_factor == 3
    assert p.sherwood is None


def test_modified_grain_config_fig3_parameters():
    p = build_model({"kind": "grain_modified", "Z_v": 1.5, "sigma_g_sq": 0.167,
                     "eps0": 0.5, "sigma": 1})
    assert p.z_ratio == 1.5
    assert p.sigma_g_sq == 0.167
    assert p.porosity0 == 0.5
    assert p.pellet.shape_factor == 3 and p.grain.shape_factor == 3


def test_cylindrical_pellet_rejected():
    with pytest.raises(ConfigError, match="pellet shape"):
        build_model({"kind": "volume_first_order", "phi_v": 1, "F_p": 2})
    with pytest.raises(ConfigError):
        PelletGeometry(2)


def test_grain_shape_values():
    for fg in (1, 2, 3):
        assert GrainGeometry(fg).shape_factor == fg
    with pytest.raises(ConfigError):
        GrainGeometry(4)


@pytest.mark.parametrize("key, value, built", [
    ("F_p", 3, 3), ("F_p", 3.0, 3), ("F_p", "3.0", 3), ("F_p", "1", 1),
    ("F_g", 2, 2), ("F_g", 3.0, 3), ("F_g", "2", 2),
    ("F_p", 3.7, None), ("F_p", "1.5", None), ("F_g", 2.9, None), ("F_g", "inf", None),
])
def test_shape_factors_must_be_integral(key, value, built):
    raw = {"kind": "grain_simple", "thiele": 1.0, key: value}
    if built is None:
        with pytest.raises(ConfigError, match="expected an integer"):
            build_model(raw)
    else:
        p = build_model(raw)
        assert (p.pellet if key == "F_p" else p.grain).shape_factor == built


def test_unknown_kind_and_keys():
    with pytest.raises(ConfigError, match="unknown model kind"):
        build_model({"kind": "shrinking_banana", "phi_v": 1})
    with pytest.raises(ConfigError, match="no_such_key"):
        build_model({"kind": "volume_first_order", "phi_v": 1, "no_such_key": 2})
    with pytest.raises(ConfigError, match="kind"):
        build_model({"phi_v": 1})
    # two aliases of one group: the same value is one key, different values conflict
    assert build_model({"kind": "grain_simple", "sigma": 2, "phi_v": 2}).thiele == 2.0
    with pytest.raises(ConfigError, match="key 'phi_v' conflicts with an alias already given"):
        build_model({"kind": "grain_simple", "sigma": 2, "phi_v": 3})
    with pytest.raises(ConfigError, match=r"model 'random_pore' missing required key\(s\): \['thiele'\]"):
        build_model({"kind": "random_pore", "psi_cap": 1})
    # the square-root-rate law is the only half-order modulus law
    with pytest.raises(ConfigError, match="half_order_modulus"):
        build_model({"kind": "volume_half_order", "phi_v": 1,
                     "half_order_modulus": "table_literal"})


# A valid model that sets each canonical key other than kind.
_SETS_KEY = {
    "thiele": {"kind": "volume_first_order", "thiele": 1.3},
    "psi": {"kind": "volume_first_order", "thiele": 1.0, "psi": 0.05},
    "sigma_g_sq": {"kind": "grain_product_layer", "thiele": 1.0, "sigma_g_sq": 0.4},
    "psi_cap": {"kind": "random_pore", "thiele": 1.0, "psi_cap": 2.0},
    "beta": {"kind": "random_pore", "thiele": 1.0, "beta": 0.5},
    "z_ratio": {"kind": "random_pore", "thiele": 1.0, "z_ratio": 1.2},
    "porosity0": {"kind": "random_pore", "thiele": 1.0, "porosity0": 0.4},
    "sherwood": {"kind": "grain_simple", "thiele": 1.0, "sherwood": 5.0},
    "solid_order": {"kind": "nucleation", "thiele": 1.0, "solid_order": 3},
    "psi_ab": {"kind": "simultaneous", "psi_ab": 0.4, "thiele_a": 0.3, "thiele_c": 1.0},
    "thiele_a": {"kind": "simultaneous", "psi_ab": 0.4, "thiele_a": 0.3, "thiele_c": 1.0},
    "thiele_c": {"kind": "simultaneous", "psi_ab": 0.4, "thiele_a": 0.3, "thiele_c": 1.0},
    "pellet_shape": {"kind": "volume_first_order", "thiele": 1.0, "pellet_shape": 1},
    "grain_shape": {"kind": "grain_simple", "thiele": 1.0, "grain_shape": 2},
}


def _renamed(raw, old, new):
    return {new if key == old else key: value for key, value in raw.items()}


def _kind_spelled(spelling, kind):
    raw = _SETS_KEY["psi_ab" if kind is ModelKind.SIMULTANEOUS else "thiele"]
    return pytest.param({**raw, "kind": spelling}, {**raw, "kind": kind.value},
                        id=f"kind={spelling}")


_SPELLINGS = [
    pytest.param(_renamed(_SETS_KEY[canon], canon, alias), _SETS_KEY[canon], id=alias)
    for alias, canon in core._KEY_ALIASES.items() if canon != "kind"
] + [_kind_spelled(spelling, kind) for spelling, kind in core._KIND_ALIASES.items()]


@pytest.mark.parametrize("spelled, canonical", _SPELLINGS)
def test_every_spelling_builds_the_canonical_model(spelled, canonical):
    assert build_model(spelled) == build_model(canonical)


def test_value_validation():
    with pytest.raises(ConfigError):
        build_model({"kind": "volume_first_order", "phi_v": -1})
    with pytest.raises(ConfigError, match="porosity0"):
        build_model({"kind": "grain_modified", "sigma": 1, "sigma_g_sq": 0.1,
                     "Z_v": 1.5, "eps0": 1.5})
    with pytest.raises(ConfigError, match="psi_ab"):
        build_model({"kind": "simultaneous", "sigma_a": 1, "sigma_c": 1, "psi_ab": 1.4})
    with pytest.raises(ConfigError):
        build_model({"kind": "volume_first_order", "phi_v": 1, "psi": -0.1})
    # NaN is out of every range; a NaN phi_v used to run as phi_v 0
    with pytest.raises(ConfigError, match="thiele must be nonnegative, got nan"):
        build_model({"kind": "volume_first_order", "phi_v": "nan"})
    for name in ("thiele", "psi", "sigma_g_sq", "psi_cap", "beta", "z_ratio", "thiele_a",
                 "thiele_c", "porosity0", "psi_ab"):
        with pytest.raises(ConfigError, match=rf"^{name} must .*, got nan"):
            ModelParams(kind=ModelKind.RANDOM_PORE, **{name: float("nan")})
    # so is infinity; an infinite group used to end in a solver error (X = nan for sigma_a)
    for name in (*core._FLOAT_KEYS, "sherwood"):
        with pytest.raises(ConfigError, match=rf"^{name} must be finite, got inf"):
            ModelParams(kind=ModelKind.RANDOM_PORE, **{name: float("inf")})


@pytest.mark.parametrize("raw, field_name", [
    pytest.param({"kind": "volume_first_order", "phi_v": "inf"}, "thiele", id="phi_v"),
    pytest.param({"kind": "simultaneous", "sigma_a": "inf", "sigma_c": 1, "psi_ab": 0.5},
                 "thiele_a", id="sigma_a"),
])
def test_infinite_group_exit_code(raw, field_name, tmp_path, capsys):
    text = "".join(f"model.{key} = {value}\n" for key, value in raw.items())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "grid.theta_end = 1\ngrid.samples = 3\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"config error: {field_name} must be finite, got inf" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_irrelevant_fields_must_stay_neutral():
    with pytest.raises(ConfigError, match="sigma_g_sq"):
        build_model({"kind": "volume_first_order", "phi_v": 1, "sigma_g_sq": 0.3})
    with pytest.raises(ConfigError, match="beta"):
        build_model({"kind": "grain_simple", "sigma": 1, "beta": 0.2})
    with pytest.raises(ConfigError, match="z_ratio"):
        build_model({"kind": "grain_product_layer", "sigma": 1, "sigma_g_sq": 0.1, "z": 2.0})


# A group each kind does not read, set away from its neutral value, and the
# ModelParams field it names.
_UNREAD_GROUPS = [
    pytest.param({"kind": "grain_simple", "sigma": 1, "eps0": 0.3}, "porosity0",
                 id="grain_simple-eps0"),
    pytest.param({"kind": "grain_product_layer", "sigma": 1, "sigma_g_sq": 0.2, "eps0": 0.3},
                 "porosity0", id="grain_product_layer-eps0"),
    pytest.param({"kind": "random_pore", "phi_r": 1, "psi_cap": 1, "n": 3}, "solid_order",
                 id="random_pore-n"),
    pytest.param({"kind": "volume_first_order", "phi_v": 1, "F_g": 2}, "grain",
                 id="volume_first_order-F_g"),
    pytest.param({"kind": "nucleation", "sigma_n": 1, "F_g": 2}, "grain",
                 id="nucleation-F_g"),
    pytest.param({"kind": "simultaneous", "sigma": 7, "sigma_a": 1, "sigma_c": 1,
                  "psi_ab": 0.5}, "thiele", id="simultaneous-sigma"),
]


@pytest.mark.parametrize("raw, field_name", _UNREAD_GROUPS)
def test_unread_groups_are_rejected(raw, field_name, tmp_path, capsys):
    with pytest.raises(ConfigError, match=rf"^{field_name} is not used by model '{raw['kind']}'"):
        build_model(raw)
    text = "".join(f"model.{key} = {value}\n" for key, value in raw.items())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "grid.theta_end = 1\ngrid.samples = 3\n", encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert f"config error: {field_name} is not used" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_film_resistance_only_where_tabulated():
    # spherical simple grain and random pore carry a film factor
    build_model({"kind": "grain_simple", "sigma": 1, "F_p": 3, "F_g": 2, "sh": 5})
    build_model({"kind": "random_pore", "phi_r": 1, "psi_cap": 1, "sh": 5})
    with pytest.raises(ConfigError):
        build_model({"kind": "volume_first_order", "phi_v": 1, "sh": 5})
    with pytest.raises(ConfigError):
        build_model({"kind": "grain_simple", "sigma": 1, "F_p": 1, "F_g": 1, "sh": 5})
    with pytest.raises(ConfigError):
        build_model({"kind": "grain_simple", "sigma": 1, "F_p": 3, "F_g": 2,
                     "sh": 5, "psi": 0.1})
    # 'inf' spells the Dirichlet variant
    p = build_model({"kind": "grain_simple", "sigma": 1, "F_p": 3, "F_g": 2, "sh": "inf"})
    assert p.sherwood is None


def test_unsteady_restrictions():
    with pytest.raises(ConfigError):
        build_model({"kind": "random_pore", "phi_r": 1, "psi_cap": 1, "psi": 0.1,
                     "beta": 0.5})
    with pytest.raises(ConfigError):
        build_model({"kind": "random_pore", "phi_r": 1, "psi_cap": 1, "psi": 0.1,
                     "z": 2.0})
    with pytest.raises(ConfigError, match="quasi-steady"):
        build_model({"kind": "simultaneous", "sigma_a": 1, "sigma_c": 1,
                     "psi_ab": 0.5, "psi": 0.1})
    # beta=0, Z=1 unsteady random pore is allowed
    p = build_model({"kind": "random_pore", "phi_r": 1, "psi_cap": 1, "psi": 0.01})
    assert not p.quasi_steady


def test_tabulated_geometry_restrictions():
    with pytest.raises(ConfigError):
        build_model({"kind": "grain_product_layer", "sigma": 1, "sigma_g_sq": 0.1, "F_g": 2})
    with pytest.raises(ConfigError):
        build_model({"kind": "nucleation", "sigma_n": 1, "n": 3, "F_p": 1})
    with pytest.raises(ConfigError):
        build_model({"kind": "nucleation", "sigma_n": 1, "n": 2})
    with pytest.raises(ConfigError):
        build_model({"kind": "random_pore", "phi_r": 1, "psi_cap": 1, "F_p": 1})


# Per field: its default (or neutral) value first, then values that some
# kind accepts and values that every kind rejects.
_INF = float("inf")
_FIELD_VALUES = {
    "thiele": [1.5, 0.0, -1.0, _INF],
    "psi": [0.0, 0.05, -0.1, _INF],
    "sigma_g_sq": [0.0, 0.3, -0.1, _INF],
    "psi_cap": [0.0, 2.0, -1.0, _INF],
    "beta": [0.0, 0.5, -1.0, _INF],
    "z_ratio": [1.0, 1.4, 0.7, 0.0, _INF],
    "porosity0": [0.5, 0.3, 0.0, 1.0, _INF],
    "solid_order": [1.0, 0.5, 3.0, 2.0, _INF],
    "psi_ab": [1.0, 0.5, 0.0, 1.5, _INF],
    "thiele_a": [0.0, 1.0, -1.0, _INF],
    "thiele_c": [0.0, 2.0, -1.0, _INF],
    "sherwood": [None, 5.0, 0.0, -1.0],  # "inf" spells None in a config
}


def _fields(**moved):
    return {name: moved.get(name, values[0]) for name, values in _FIELD_VALUES.items()}


@st.composite
def _model_inputs(draw):
    """Every ModelParams field set, as (kind, fields, F_p, F_g).  Up to two of the
    groups the kind reads, or psi, move off their default, and F_p is drawn; a
    group the kind does not read stays at its neutral value."""
    kind = draw(st.sampled_from(list(ModelKind)))
    reads = core._RELEVANT[kind]
    moved = draw(st.sets(st.sampled_from(sorted(_FIELD_VALUES.keys() & (reads | {"psi"}))),
                         max_size=2))
    unread = {name: neutral for name, neutral in core._NEUTRAL.items()
              if name in _FIELD_VALUES and name not in reads}
    fields = _fields(**unread, **{name: draw(st.sampled_from(_FIELD_VALUES[name][1:]))
                                  for name in moved})
    fg = draw(st.sampled_from([3, 2, 1, 4])) if "grain" in reads else 3
    return kind, fields, draw(st.sampled_from([3, 1, 2])), fg


def _outcome(build):
    try:
        return build()
    except ConfigError:
        return ConfigError


@settings(max_examples=500, deadline=None)
@given(_model_inputs(), st.booleans())
# accepted models, one per kind
@example((ModelKind.VOLUME_FIRST_ORDER, _fields(), 3, 3), False)
@example((ModelKind.VOLUME_HALF_ORDER, _fields(solid_order=0.5), 1, 3), True)  # rarely drawn
@example((ModelKind.GRAIN_SIMPLE, _fields(sherwood=5.0), 3, 2), True)
@example((ModelKind.GRAIN_PRODUCT_LAYER, _fields(sigma_g_sq=0.3), 3, 3), False)
@example((ModelKind.GRAIN_MODIFIED, _fields(z_ratio=1.4, porosity0=0.3), 3, 3), True)
@example((ModelKind.RANDOM_PORE, _fields(psi_cap=2.0, beta=0.5), 3, 3), False)
@example((ModelKind.NUCLEATION, _fields(solid_order=3.0, psi=0.05), 3, 3), True)
@example((ModelKind.SIMULTANEOUS, _fields(thiele=0.0, psi_ab=0.5, thiele_a=1.0,
                                          thiele_c=2.0), 3, 3), False)
def test_build_model_and_constructor_validate_alike(inputs, as_text):
    # a config file gives every value as text; "inf" spells sherwood None
    kind, fields, fp, fg = inputs
    raw = {"kind": kind.value, "F_p": fp, "F_g": fg}
    for name, value in fields.items():
        value = "inf" if value is None else value
        raw[name] = str(value) if as_text else value
    direct = _outcome(lambda: ModelParams(kind=kind, pellet=PelletGeometry(fp),
                                          grain=GrainGeometry(fg), **fields))
    assert _outcome(lambda: build_model(raw)) == direct


def test_params_are_immutable():
    p = build_model({"kind": "volume_first_order", "phi_v": 1})
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.thiele = 2.0
    q = dataclasses.replace(p, thiele=2.0)
    assert q.thiele == 2.0 and p.thiele == 1.0


def test_construction_is_total_for_stepping(grid):
    # anything that validates can be stepped without further config errors
    from gassolid import make_stepper

    zoo = [
        {"kind": "volume_first_order", "phi_v": 2},
        {"kind": "volume_half_order", "phi_v": 0.5, "F_p": 1},
        {"kind": "grain_simple", "sigma": 2, "F_g": 2, "sh": 4},
        {"kind": "grain_product_layer", "sigma": 1, "sigma_g_sq": 0.4},
        {"kind": "grain_modified", "sigma": 1, "sigma_g_sq": 0.2, "Z_v": 1.3, "eps0": 0.4},
        {"kind": "random_pore", "phi_r": 1, "psi_cap": 2, "beta": 0.5, "z": 1.2, "eps0": 0.6},
        {"kind": "nucleation", "sigma_n": 0.7, "n": 3},
        {"kind": "simultaneous", "sigma_a": 0.3, "sigma_c": 1.5, "psi_ab": 0.4},
    ]
    for raw in zoo:
        stepper = make_stepper(build_model(raw), grid)
        state = stepper.initial_state()
        state, _ = stepper.step(state, 0.1)
        assert state.theta == pytest.approx(0.1)


# --- grids and state ---------------------------------------------------------


def test_grid_invariants():
    g = SpatialGrid(201)
    assert g.y[0] == 0.0 and g.y[-1] == 1.0
    assert np.all(np.diff(g.y) > 0)
    assert np.allclose(np.diff(g.y), g.h)
    assert g.h == pytest.approx(1.0 / 200.0)


@pytest.mark.parametrize("n", [100, 200, 99, 4])
def test_grid_rejects_even_or_small(n):
    with pytest.raises(ConfigError):
        SpatialGrid(n)


def test_grid_refinement_changes_no_validation(grid, fine_grid):
    p = build_model({"kind": "grain_simple", "sigma": 1.0, "F_g": 3})
    for g in (grid, fine_grid):
        st = PelletState.fresh(g, p)
        assert st.solid.shape == (g.n,)
        assert np.all(st.solid == 1.0)
        assert st.theta == 0.0 and st.y_m is None and st.theta_c is None


def test_fresh_state_simultaneous_has_aux():
    p = build_model({"kind": "simultaneous", "sigma_a": 1, "sigma_c": 1, "psi_ab": 0.4})
    st = PelletState.fresh(SpatialGrid(101), p)
    assert st.solid_aux is not None and np.all(st.solid_aux == 1.0)
