"""Fluid-solid reaction kinetics via incremental analytical stepping.

Seven single-pellet reaction models (volume first/half order, three grain
variants, random pore, nucleation, two simultaneous gases) advanced with
per-step frozen-modulus closed forms, an independent finite-difference
reference solver, conversion/selectivity analysis, and an axially
dispersed packed-bed coupler.
"""

__version__ = "0.1.0"

from .analysis import (
    CompareMetrics,
    ConversionSeries,
    compare_runs,
    conversion,
    conversion_by_gas_a,
    cumulative_bulk_concentration,
    selectivity,
)
from .bed import (
    BedParams,
    BedResult,
    bed_bulk_profile,
    bed_bulk_profile_uniform,
    characteristic_roots,
    march_bed,
    surface_transmission,
)
from .config import RunConfig, RunMode, load_config
from .core import (
    ConfigError,
    GasProfile,
    GrainGeometry,
    ModelKind,
    ModelParams,
    PelletGeometry,
    PelletState,
    SolverError,
    SpatialGrid,
    Stage,
    build_model,
)
from .driver import ProfileSnapshot, RunResult, run_qm
from .fdref import FdControl, fd_solve, fd_solve_bed_bulk, initial_conversion_rate
from .kernels import (
    SeriesControl,
    front_time,
    m_coth_m_minus_1,
    profile_qss,
    profile_unsteady,
    second_stage_profiles,
    solve_moving_boundary,
)
from .steppers import (
    StepReport,
    StepStatus,
    make_stepper,
)

__all__ = [name for name in dir() if not name.startswith("_")]
