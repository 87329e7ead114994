"""Finite-key secret key rates for decoy-state BB84.

The package splits into four layers: ``model`` holds the shared domain types
and math primitives, ``bounds`` the finite-key estimation chain, ``simulator``
the expected-statistics channel model, and ``optimizer`` the parameter search
used for rate/time comparisons. ``cli`` exposes all of it as a command-line
tool emitting CSV.
"""

from .model import (
    Basis,
    ChannelParams,
    InsufficientStatisticsError,
    NoDetectionsError,
    NoKeyError,
    Observations,
    ParameterError,
    ProtocolParams,
    RatePoint,
    SecurityParams,
    Variant,
    binary_entropy,
    hoeffding_delta,
    photon_number_prob,
    poisson_pmf,
)
from .bounds import (
    BoundInputs,
    BoundOptions,
    DEFAULT_BOUND_OPTIONS,
    EpsilonBudget,
    KeyEstimate,
    corrected_count,
    epsilon_budget,
    error_correction_leakage,
    estimate_key,
    phase_error_fluctuation,
    phase_error_upper,
    single_photon_errors_upper,
    single_photon_lower,
    vacuum_events_lower,
    vacuum_events_upper,
)
from .simulator import (
    DETECTOR_PRESETS,
    DetectorPreset,
    SimulationPoint,
    channel_from_preset,
    dead_time_factor,
    detection_prob,
    error_prob,
    expected_observations,
    rate_point,
    saturated_dead_time_factor,
)
from .optimizer import (
    ComparisonRow,
    OptimizationSpec,
    SweepResult,
    SweepRow,
    compare_protocols,
    optimize_point,
    sweep,
)

__version__ = "0.1.0"
