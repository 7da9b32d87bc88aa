"""Arrival-time operators for a free quantum particle on a momentum grid.

Eigenstate families (Aharonov-Bohm, Kijowski-Delgado-Muga, the |x|-based
variants, and the current-based self-adjoint operator), their arrival-time
probability distributions, operator matrices with hermiticity/commutator
checks, and measurement-model simulations (half-line propagation, sequential
window measurements, crossing probabilities, the small-time current law).
"""

from .numerics import (
    GridSpec,
    PhysConsts,
    integrate,
    simpson_weights,
)
from .states import (
    GaussianSpec,
    Representation,
    WaveFunction,
    centered_position_grid,
    conjugate_position_grid,
    make_gaussian,
    make_reflected_state,
    reflected_position_state,
    to_momentum,
    to_position,
)
from .operators import (
    EigenFamily,
    OperatorKind,
    OperatorMatrix,
    build_operator,
    completeness_check,
    current_expectation,
    distribution,
    dwell_low_momentum_check,
    eigenstate_values,
    hermiticity_defect,
    kinetic_energy_density,
    overlap,
)
from .measurement import (
    CrossingResult,
    CurrentLawFit,
    MeasurementChain,
    Propagator,
    WindowSpec,
    chain_final_state,
    classical_arrival,
    classical_current_moment,
    classical_stopwatch,
    conditional_distribution,
    crossing_probability,
    free_evolve,
    halfline_propagate,
    make_zeno_chain,
    small_time_current_law,
    window_project,
)

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "PhysConsts",
    "integrate",
    "simpson_weights",
    "GaussianSpec",
    "Representation",
    "WaveFunction",
    "centered_position_grid",
    "conjugate_position_grid",
    "make_gaussian",
    "make_reflected_state",
    "reflected_position_state",
    "to_momentum",
    "to_position",
    "EigenFamily",
    "OperatorKind",
    "OperatorMatrix",
    "build_operator",
    "completeness_check",
    "current_expectation",
    "distribution",
    "dwell_low_momentum_check",
    "eigenstate_values",
    "hermiticity_defect",
    "kinetic_energy_density",
    "overlap",
    "CrossingResult",
    "CurrentLawFit",
    "MeasurementChain",
    "Propagator",
    "WindowSpec",
    "chain_final_state",
    "classical_arrival",
    "classical_current_moment",
    "classical_stopwatch",
    "conditional_distribution",
    "crossing_probability",
    "free_evolve",
    "halfline_propagate",
    "make_zeno_chain",
    "small_time_current_law",
    "window_project",
    "__version__",
]
