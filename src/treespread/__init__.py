"""Competing-disease dynamics on Galton-Watson and z-ary trees."""

from .offspring import (
    OffspringDistribution,
    OffspringError,
    make_offspring,
    parse_offspring,
    pgf,
    pgf_deriv,
    zary,
)
from .dynamics import (
    DiseaseProfile,
    DynamicsError,
    ScalarMapSpec,
    Trajectory,
    dominant_profile,
    iterate,
    make_profile,
    scalar_deriv,
    scalar_eval,
    step_full,
    step_variant,
    uniform_profile,
    zary_map,
)
from .analysis import (
    BasinReport,
    CriticalPointReport,
    FixedPointReport,
    OrbitReport,
    asymptotic_multiplier,
    basin_classify,
    check_orbit_conditions,
    critical_points,
    find_fixed_point,
    find_orbit,
    framing_bounds,
    nonuniform_spectrum,
    x_tilde,
)
from .mc_sim import SimConfig, SimResult, SimulationError, simulate_root

__version__ = "0.1.0"
