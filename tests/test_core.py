import dataclasses

import numpy as np
import pytest

from gassolid import (
    ConfigError,
    GrainGeometry,
    ModelKind,
    PelletGeometry,
    PelletState,
    SpatialGrid,
    build_model,
)


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


def test_unknown_kind_and_keys():
    with pytest.raises(ConfigError, match="unknown model kind"):
        build_model({"kind": "shrinking_banana", "phi_v": 1})
    with pytest.raises(ConfigError, match="no_such_key"):
        build_model({"kind": "volume_first_order", "phi_v": 1, "no_such_key": 2})
    with pytest.raises(ConfigError, match="kind"):
        build_model({"phi_v": 1})
    # the square-root-rate law is the only half-order modulus law
    with pytest.raises(ConfigError, match="half_order_modulus"):
        build_model({"kind": "volume_half_order", "phi_v": 1,
                     "half_order_modulus": "table_literal"})


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


def test_irrelevant_fields_must_stay_neutral():
    with pytest.raises(ConfigError, match="sigma_g_sq"):
        build_model({"kind": "volume_first_order", "phi_v": 1, "sigma_g_sq": 0.3})
    with pytest.raises(ConfigError, match="beta"):
        build_model({"kind": "grain_simple", "sigma": 1, "beta": 0.2})
    with pytest.raises(ConfigError, match="z_ratio"):
        build_model({"kind": "grain_product_layer", "sigma": 1, "sigma_g_sq": 0.1, "z": 2.0})


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


def test_params_are_immutable():
    p = build_model({"kind": "volume_first_order", "phi_v": 1})
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.thiele = 2.0
    q = p.with_(thiele=2.0)
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
        state, _, report = stepper.step(state, 0.1)
        assert report.theta_after == pytest.approx(0.1)


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
