"""Parallel-in-time Langevin dynamics with adaptive parareal convergence."""

__version__ = "0.1.0"

from .model import (
    LangevinParams,
    NodeTrajectory,
    PhaseState,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .potentials import (
    DoubleWell,
    Free,
    Harmonic,
    LennardJonesCluster,
    MinimizationError,
    Perturbed,
    Potential,
    PotentialError,
    PropagatorPair,
    gradient_check,
    local_minima,
)
from .rng import NoisePlan, derive_seed, derive_seeds, gaussian_stream, gaussian_streams
from .integrator import (
    ALL_SUBSTEPS,
    WINDOW_ENDS,
    AnalyticCoefficients,
    BlowUpError,
    InfeasibleScheduleError,
    TemperatureReport,
    TemperatureSchedule,
    measure_kinetic_temperature,
    predicted_intermediate_variance,
    predicted_kinetic_temperature,
    predicted_schedule_temperature,
    propagate_window,
    solve_schedule,
)
from .analysis import (
    BasinCatalog,
    EnsembleComparison,
    InsufficientDataError,
    ResidenceEvent,
    ResidenceStats,
    compare_ensembles,
    label_basin,
    label_positions,
    label_trajectory,
    mean_ci,
    residence_histogram,
    residence_stats,
    residence_times,
    write_residence_histogram_csv,
)
from .accounting import (
    GAIN_CSV_HEADER,
    GainReport,
    adaptive_cost,
    adaptive_gain,
    classic_gain,
    gain_csv_row,
    write_gain_csv,
)
from .parareal import (
    DegenerateNormalizationError,
    PararealConfig,
    PararealResult,
    SlabAttempt,
    SlabCollapseError,
    SlabRecord,
    parareal_adaptive,
    parareal_adaptive_engine,
    parareal_classic,
    parareal_classic_engine,
    relative_error,
    sequential_propagate,
)

# The CLI's config types are served lazily, so that importing the package
# does not import ``cli`` (``python -m paralangevin.cli`` would then find it
# already imported and warn).
_CLI_NAMES = frozenset(
    {
        "ConfigError",
        "EnsembleSpec",
        "ExperimentConfig",
        "SweepGrid",
        "TemperatureSpec",
        "validate_config",
    }
)


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
