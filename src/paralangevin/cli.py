"""Experiment harness: config files in, deterministic report files out.

One subcommand per protocol (temperature calibration, sequential baseline,
classic and adaptive parareal, gain sweep, ensemble statistics) plus
``validate``.  A run reads a JSON config, executes the protocol, and writes
a manifest plus result files into the output directory.  Result JSON/CSV
content depends only on the config and the master seed; worker counts and
timestamps appear in the manifest only, so reruns of the same config are
byte-identical file for file.

Exit codes: 0 success, 2 config or validation error, 3 numerical failure
(blow-up, slab collapse, failed minimization), 4 non-convergence at the
iteration cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__
from .accounting import adaptive_gain, classic_gain, gain_csv_row, write_gain_csv
from .analysis import (
    BasinCatalog,
    InsufficientDataError,
    compare_ensembles,
    label_trajectory,
    residence_stats,
    residence_times,
    write_residence_histogram_csv,
)
from .integrator import (
    ALL_SUBSTEPS,
    WINDOW_ENDS,
    BlowUpError,
    InfeasibleScheduleError,
    TemperatureSchedule,
    measure_kinetic_temperature,
)
from .model import LangevinParams, PhaseState, atomic_open, write_trajectory_csv
from .parareal import (
    DegenerateNormalizationError,
    PararealConfig,
    PararealResult,
    SlabCollapseError,
    parareal_adaptive,
    parareal_classic,
    sequential_propagate,
)
from .potentials import (
    DoubleWell,
    Free,
    Harmonic,
    LennardJonesCluster,
    MinimizationError,
    Potential,
    PotentialError,
    PropagatorPair,
    local_minima,
)
from .rng import NoisePlan, derive_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NO_CONVERGENCE = 4

EXPERIMENTS = (
    "temperature",
    "sequential",
    "parareal_classic",
    "parareal_adaptive",
    "gain_sweep",
    "ensemble",
)

# Offset separating ensemble-member seed derivation from window indices.
MEMBER_SEED_OFFSET = 10**9

_TOP_LEVEL_KEYS = frozenset(
    {
        "experiment",
        "master_seed",
        "params",
        "schedule",
        "potential",
        "initial",
        "parareal",
        "sweep",
        "ensemble",
        "temperature",
        "output_dir",
    }
)


class ConfigError(ValueError):
    """Invalid experiment config; ``errors`` lists every collected message."""

    def __init__(self, errors: Sequence[str]):
        self.errors = tuple(errors)
        super().__init__("\n".join(self.errors))


class _NonConvergenceAbort(RuntimeError):
    """A protocol step failed to converge, so downstream results are void."""


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid of the gain sweep: every combination is one run."""

    dt: tuple[float, ...]
    delta_conv: tuple[float, ...]
    delta_expl: tuple[float, ...]


@dataclass(frozen=True)
class EnsembleSpec:
    """Ensemble protocol sizes and the basin catalog starting points."""

    size: int
    segment_windows: int
    thermalization_windows: int
    basin_starts: tuple[tuple[float, ...], ...]
    min_run: int
    histogram_bin_width: int


@dataclass(frozen=True)
class TemperatureSpec:
    """Kinetic-temperature measurement length and sampling choices."""

    n_windows: int
    dimension: int
    burn_in: float
    sampling: str


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description.

    ``raw`` keeps the parsed config file for the manifest echo; every other
    field is already coerced to the domain types the runners consume.
    """

    experiment: str
    master_seed: int
    params: LangevinParams
    schedule: TemperatureSchedule
    fine: Potential | None
    coarse: Potential | None
    cost_fine: float
    cost_coarse: float
    initial: PhaseState | None
    n_windows: int | None
    delta_conv: float | None
    delta_expl: float | None
    k_max: int | None
    sweep: SweepGrid | None
    ensemble: EnsembleSpec | None
    temperature: TemperatureSpec | None
    output_dir: Path | None
    raw: Mapping[str, Any]

    def pair(self) -> PropagatorPair:
        if self.fine is None or self.coarse is None:
            raise ValueError("this experiment has no fine/coarse pair configured")
        return PropagatorPair(
            fine=self.fine,
            coarse=self.coarse,
            cost_fine=self.cost_fine,
            cost_coarse=self.cost_coarse,
        )


# -- config loading and validation -----------------------------------------


def _err(errors: list[str], path: str, message: str) -> None:
    errors.append(f"{path}: {message}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _reject_unknown(
    section: Mapping[str, Any], allowed: frozenset[str], path: str, errors: list[str]
) -> None:
    for key in section:
        if key not in allowed:
            _err(errors, f"{path}.{key}" if path else key, "unknown field")


def _number_field(
    section: Mapping[str, Any],
    key: str,
    path: str,
    errors: list[str],
    required: bool = True,
    default: float | None = None,
) -> float | None:
    if key not in section:
        if required:
            _err(errors, f"{path}.{key}", "missing required field")
        return default
    value = section[key]
    if not _is_number(value) or not math.isfinite(value):
        _err(errors, f"{path}.{key}", f"must be a finite number, got {value!r}")
        return None
    return float(value)


def _int_field(
    section: Mapping[str, Any],
    key: str,
    path: str,
    errors: list[str],
    required: bool = True,
    default: int | None = None,
    minimum: int | None = None,
) -> int | None:
    if key not in section:
        if required:
            _err(errors, f"{path}.{key}", "missing required field")
        return default
    value = section[key]
    if not isinstance(value, int) or isinstance(value, bool):
        _err(errors, f"{path}.{key}", f"must be an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        _err(errors, f"{path}.{key}", f"must be >= {minimum}, got {value}")
        return None
    return value


def _vector_field(value: Any, path: str, errors: list[str]) -> tuple[float, ...] | None:
    if (
        not isinstance(value, list)
        or not value
        or not all(_is_number(x) and math.isfinite(x) for x in value)
    ):
        _err(errors, path, "must be a non-empty list of finite numbers")
        return None
    return tuple(float(x) for x in value)


def _build_params(raw: Mapping[str, Any], errors: list[str]) -> LangevinParams | None:
    section = raw.get("params")
    if not isinstance(section, dict):
        _err(errors, "params", "missing required section")
        return None
    _reject_unknown(
        section, frozenset({"gamma", "inv_beta", "dt", "substeps", "mass"}), "params", errors
    )
    gamma = _number_field(section, "gamma", "params", errors)
    inv_beta = _number_field(section, "inv_beta", "params", errors)
    dt = _number_field(section, "dt", "params", errors)
    substeps = _int_field(section, "substeps", "params", errors, required=False, default=1, minimum=1)
    mass = None
    if section.get("mass") is not None:
        mass = _vector_field(section["mass"], "params.mass", errors)
    if None in (gamma, inv_beta, dt, substeps):
        return None
    try:
        return LangevinParams(
            gamma=gamma,
            inv_beta=inv_beta,
            dt=dt,
            substeps=substeps,
            mass=None if mass is None else np.asarray(mass),
        )
    except ValueError as exc:
        _err(errors, "params", str(exc))
        return None


def _build_one_potential(spec: Any, path: str, errors: list[str]) -> Potential | None:
    if not isinstance(spec, dict):
        _err(errors, path, "must be an object with a 'kind' field")
        return None
    kind = spec.get("kind")
    try:
        if kind == "free":
            _reject_unknown(spec, frozenset({"kind"}), path, errors)
            return Free()
        if kind == "harmonic":
            _reject_unknown(spec, frozenset({"kind", "k"}), path, errors)
            return Harmonic(k=spec.get("k", 1.0))
        if kind == "double_well":
            _reject_unknown(spec, frozenset({"kind", "a", "b"}), path, errors)
            return DoubleWell(a=spec.get("a", 1.0), b=spec.get("b", 1.0))
        if kind == "lennard_jones":
            _reject_unknown(
                spec, frozenset({"kind", "epsilon", "sigma", "n_atoms", "space_dim"}), path, errors
            )
            return LennardJonesCluster(
                epsilon=spec.get("epsilon", 1.0),
                sigma=spec.get("sigma", 1.0),
                n_atoms=spec.get("n_atoms", 7),
                space_dim=spec.get("space_dim", 2),
            )
        _err(errors, f"{path}.kind", f"unknown potential kind {kind!r}")
    except (TypeError, ValueError) as exc:
        _err(errors, path, str(exc))
    return None


def _build_potentials(
    raw: Mapping[str, Any], need: str, errors: list[str]
) -> tuple[Potential | None, Potential | None, float, float]:
    """Build the fine/coarse potentials; ``need`` is none, fine, or pair."""
    section = raw.get("potential")
    if section is None:
        if need != "none":
            _err(errors, "potential", "missing required section")
        return None, None, 1.0, 1.0
    if not isinstance(section, dict):
        _err(errors, "potential", "must be an object")
        return None, None, 1.0, 1.0
    _reject_unknown(
        section, frozenset({"fine", "coarse", "cost_fine", "cost_coarse"}), "potential", errors
    )
    fine = coarse = None
    if "fine" in section:
        fine = _build_one_potential(section["fine"], "potential.fine", errors)
    elif need != "none":
        _err(errors, "potential.fine", "missing required field")
    if "coarse" in section:
        coarse = _build_one_potential(section["coarse"], "potential.coarse", errors)
    elif need == "pair":
        _err(errors, "potential.coarse", "missing required field")
    cost_fine = _number_field(section, "cost_fine", "potential", errors, required=False, default=1.0)
    cost_coarse = _number_field(
        section, "cost_coarse", "potential", errors, required=False, default=1.0
    )
    if cost_fine is None:
        cost_fine = 1.0
    if cost_coarse is None:
        cost_coarse = 1.0
    if fine is not None and coarse is not None:
        try:
            PropagatorPair(fine=fine, coarse=coarse, cost_fine=cost_fine, cost_coarse=cost_coarse)
        except ValueError as exc:
            _err(errors, "potential", str(exc))
    return fine, coarse, cost_fine, cost_coarse


def _build_schedule(
    raw: Mapping[str, Any], substeps: int | None, errors: list[str]
) -> TemperatureSchedule | None:
    if "schedule" not in raw:
        _err(errors, "schedule", "missing required field")
        return None
    spec = raw["schedule"]
    try:
        if spec == "identity":
            return None if substeps is None else TemperatureSchedule.identity(substeps)
        if spec == "robust":
            return None if substeps is None else TemperatureSchedule.robust(substeps)
        if spec == "flat2":
            if substeps is not None and substeps != 1:
                _err(errors, "schedule", f"flat2 needs substeps == 1, got {substeps}")
                return None
            return TemperatureSchedule.flat_pair()
        if isinstance(spec, list):
            weights = _vector_field(spec, "schedule", errors)
            if weights is None:
                return None
            schedule = TemperatureSchedule(coefficients=weights)
            if substeps is not None and schedule.substeps != substeps:
                _err(
                    errors,
                    "schedule",
                    f"lists {schedule.substeps} substeps, params.substeps is {substeps}",
                )
                return None
            return schedule
        _err(errors, "schedule", "expected 'identity', 'robust', 'flat2', or a weight list")
    except (ValueError, InfeasibleScheduleError) as exc:
        _err(errors, "schedule", str(exc))
    return None


def _build_initial(
    raw: Mapping[str, Any], required: bool, errors: list[str]
) -> PhaseState | None:
    section = raw.get("initial")
    if section is None:
        if required:
            _err(errors, "initial", "missing required section")
        return None
    if not isinstance(section, dict):
        _err(errors, "initial", "must be an object")
        return None
    _reject_unknown(section, frozenset({"q", "p"}), "initial", errors)
    if "q" not in section:
        _err(errors, "initial.q", "missing required field")
        return None
    q = _vector_field(section["q"], "initial.q", errors)
    if q is None:
        return None
    p: tuple[float, ...] | None = (0.0,) * len(q)
    if section.get("p") is not None:
        p = _vector_field(section["p"], "initial.p", errors)
        if p is None:
            return None
        if len(p) != len(q):
            _err(errors, "initial.p", f"has {len(p)} components, q has {len(q)}")
            return None
    return PhaseState(q=np.asarray(q), p=np.asarray(p))


def _build_parareal_fields(
    raw: Mapping[str, Any], needs: frozenset[str], errors: list[str]
) -> tuple[int | None, float | None, float | None, int | None]:
    required_keys = needs & {"n_windows", "delta_conv", "delta_expl"}
    section = raw.get("parareal")
    if section is None:
        for key in sorted(required_keys):
            _err(errors, f"parareal.{key}", "missing required field")
        return None, None, None, None
    if not isinstance(section, dict):
        _err(errors, "parareal", "must be an object")
        return None, None, None, None
    _reject_unknown(
        section, frozenset({"n_windows", "delta_conv", "delta_expl", "k_max"}), "parareal", errors
    )
    n_windows = _int_field(
        section, "n_windows", "parareal", errors, required="n_windows" in needs, minimum=1
    )
    delta_conv = _number_field(
        section, "delta_conv", "parareal", errors, required="delta_conv" in needs
    )
    delta_expl = _number_field(
        section, "delta_expl", "parareal", errors, required="delta_expl" in needs
    )
    k_max = _int_field(section, "k_max", "parareal", errors, required=False, minimum=1)
    if delta_conv is not None and delta_conv <= 0.0:
        _err(errors, "parareal.delta_conv", f"must be positive, got {delta_conv}")
        delta_conv = None
    if delta_expl is not None and delta_expl <= 0.0:
        _err(errors, "parareal.delta_expl", f"must be positive, got {delta_expl}")
        delta_expl = None
    if delta_conv is not None and delta_expl is not None and delta_expl <= delta_conv:
        _err(
            errors,
            "parareal.delta_expl",
            f"must exceed delta_conv: got {delta_expl} <= {delta_conv}",
        )
    return n_windows, delta_conv, delta_expl, k_max


def _build_sweep(
    raw: Mapping[str, Any],
    required: bool,
    params: LangevinParams | None,
    errors: list[str],
) -> SweepGrid | None:
    section = raw.get("sweep")
    if section is None:
        if required:
            _err(errors, "sweep", "missing required section")
        return None
    if not isinstance(section, dict):
        _err(errors, "sweep", "must be an object")
        return None
    _reject_unknown(section, frozenset({"dt", "delta_conv", "delta_expl"}), "sweep", errors)
    grids: dict[str, tuple[float, ...] | None] = {}
    for key in ("dt", "delta_conv", "delta_expl"):
        if key not in section:
            _err(errors, f"sweep.{key}", "missing required grid")
            grids[key] = None
            continue
        grids[key] = _vector_field(section[key], f"sweep.{key}", errors)
    if any(grid is None for grid in grids.values()):
        return None
    for i, dt in enumerate(grids["dt"]):
        if not dt > 0.0:
            _err(errors, f"sweep.dt[{i}]", f"must be positive, got {dt}")
        elif params is not None and params.gamma * dt >= 2.0:
            _err(errors, f"sweep.dt[{i}]", f"gamma * dt must stay below 2, got {params.gamma * dt}")
    for key in ("delta_conv", "delta_expl"):
        for i, value in enumerate(grids[key]):
            if not value > 0.0:
                _err(errors, f"sweep.{key}[{i}]", f"must be positive, got {value}")
    if grids["delta_conv"] and grids["delta_expl"]:
        worst_conv = max(grids["delta_conv"])
        worst_expl = min(grids["delta_expl"])
        if worst_expl <= worst_conv:
            _err(
                errors,
                "sweep.delta_expl",
                f"every value must exceed every delta_conv: got {worst_expl} <= {worst_conv}",
            )
    return SweepGrid(
        dt=grids["dt"], delta_conv=grids["delta_conv"], delta_expl=grids["delta_expl"]
    )


def _build_ensemble(
    raw: Mapping[str, Any], required: bool, errors: list[str]
) -> EnsembleSpec | None:
    section = raw.get("ensemble")
    if section is None:
        if required:
            _err(errors, "ensemble", "missing required section")
        return None
    if not isinstance(section, dict):
        _err(errors, "ensemble", "must be an object")
        return None
    allowed = frozenset(
        {
            "size",
            "segment_windows",
            "thermalization_windows",
            "basin_starts",
            "min_run",
            "histogram_bin_width",
        }
    )
    _reject_unknown(section, allowed, "ensemble", errors)
    size = _int_field(section, "size", "ensemble", errors, minimum=2)
    segment = _int_field(section, "segment_windows", "ensemble", errors, minimum=1)
    therm = _int_field(
        section, "thermalization_windows", "ensemble", errors, required=False, default=0, minimum=0
    )
    min_run = _int_field(section, "min_run", "ensemble", errors, required=False, default=1, minimum=1)
    bin_width = _int_field(
        section, "histogram_bin_width", "ensemble", errors, required=False, default=50, minimum=1
    )
    starts_raw = section.get("basin_starts")
    starts: tuple[tuple[float, ...], ...] | None = None
    if not isinstance(starts_raw, list) or not starts_raw:
        _err(errors, "ensemble.basin_starts", "must be a non-empty list of position lists")
    else:
        built = []
        for i, entry in enumerate(starts_raw):
            vec = _vector_field(entry, f"ensemble.basin_starts[{i}]", errors)
            if vec is not None:
                built.append(vec)
        if len(built) == len(starts_raw):
            dims = {len(v) for v in built}
            if len(dims) > 1:
                _err(errors, "ensemble.basin_starts", "entries have inconsistent dimensions")
            else:
                starts = tuple(built)
    if None in (size, segment, therm, min_run, bin_width) or starts is None:
        return None
    return EnsembleSpec(
        size=size,
        segment_windows=segment,
        thermalization_windows=therm,
        basin_starts=starts,
        min_run=min_run,
        histogram_bin_width=bin_width,
    )


def _build_temperature(
    raw: Mapping[str, Any], required: bool, errors: list[str]
) -> TemperatureSpec | None:
    section = raw.get("temperature")
    if section is None:
        if required:
            _err(errors, "temperature", "missing required section")
        return None
    if not isinstance(section, dict):
        _err(errors, "temperature", "must be an object")
        return None
    _reject_unknown(
        section, frozenset({"n_windows", "dimension", "burn_in", "sampling"}), "temperature", errors
    )
    n_windows = _int_field(section, "n_windows", "temperature", errors, minimum=1)
    dimension = _int_field(section, "dimension", "temperature", errors, required=False, default=1, minimum=1)
    burn_in = _number_field(section, "burn_in", "temperature", errors, required=False, default=0.1)
    if burn_in is not None and not 0.0 <= burn_in < 1.0:
        _err(errors, "temperature.burn_in", f"must lie in [0, 1), got {burn_in}")
        burn_in = None
    sampling = section.get("sampling", ALL_SUBSTEPS)
    if sampling not in (ALL_SUBSTEPS, WINDOW_ENDS):
        _err(
            errors,
            "temperature.sampling",
            f"must be {ALL_SUBSTEPS!r} or {WINDOW_ENDS!r}, got {sampling!r}",
        )
        sampling = None
    if None in (n_windows, dimension, burn_in, sampling):
        return None
    return TemperatureSpec(
        n_windows=n_windows, dimension=dimension, burn_in=burn_in, sampling=sampling
    )


# Sections each experiment requires beyond params/schedule/master_seed.
_REQUIREMENTS: dict[str, frozenset[str]] = {
    "temperature": frozenset({"temperature"}),
    "sequential": frozenset({"fine", "initial", "n_windows"}),
    "parareal_classic": frozenset({"pair", "initial", "n_windows", "delta_conv"}),
    "parareal_adaptive": frozenset({"pair", "initial", "n_windows", "delta_conv", "delta_expl"}),
    "gain_sweep": frozenset({"pair", "initial", "n_windows", "sweep"}),
    "ensemble": frozenset({"pair", "initial", "delta_conv", "delta_expl", "ensemble"}),
}


def _cross_checks(cfg_fields: dict[str, Any], errors: list[str]) -> None:
    """Dimension consistency between sections that are individually valid."""
    initial: PhaseState | None = cfg_fields["initial"]
    params: LangevinParams | None = cfg_fields["params"]
    ensemble: EnsembleSpec | None = cfg_fields["ensemble"]
    temperature: TemperatureSpec | None = cfg_fields["temperature"]
    dim = initial.dim if initial is not None else None
    for name in ("fine", "coarse"):
        pot: Potential | None = cfg_fields[name]
        if pot is not None and pot.dimension is not None and dim is not None:
            if pot.dimension != dim:
                _err(
                    errors,
                    "initial.q",
                    f"dimension {dim} does not match potential.{name} dimension {pot.dimension}",
                )
    if params is not None and params.mass is not None and dim is not None:
        if params.mass.shape[0] != dim:
            _err(
                errors,
                "params.mass",
                f"has {params.mass.shape[0]} components, initial.q has {dim}",
            )
    if ensemble is not None and dim is not None:
        if any(len(start) != dim for start in ensemble.basin_starts):
            _err(errors, "ensemble.basin_starts", f"entries must have dimension {dim}")
    if (
        temperature is not None
        and params is not None
        and params.mass is not None
        and temperature.dimension != params.mass.shape[0]
    ):
        _err(
            errors,
            "temperature.dimension",
            f"is {temperature.dimension}, params.mass has {params.mass.shape[0]} components",
        )


def _build_config(raw: Mapping[str, Any]) -> tuple[ExperimentConfig | None, list[str]]:
    errors: list[str] = []
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "", errors)

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        _err(
            errors,
            "experiment",
            f"must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}",
        )
        experiment = None
    needs = _REQUIREMENTS.get(experiment, frozenset())

    master_seed = raw.get("master_seed")
    if not isinstance(master_seed, int) or isinstance(master_seed, bool):
        _err(errors, "master_seed", "missing required field (an integer in [0, 2^64))")
        master_seed = None
    elif not 0 <= master_seed < 2**64:
        _err(errors, "master_seed", f"must lie in [0, 2^64), got {master_seed}")
        master_seed = None

    params = _build_params(raw, errors)
    schedule = _build_schedule(raw, params.substeps if params is not None else None, errors)
    need_pot = "pair" if "pair" in needs else ("fine" if "fine" in needs else "none")
    fine, coarse, cost_fine, cost_coarse = _build_potentials(raw, need_pot, errors)
    initial = _build_initial(raw, "initial" in needs, errors)
    n_windows, delta_conv, delta_expl, k_max = _build_parareal_fields(raw, needs, errors)
    sweep = _build_sweep(raw, "sweep" in needs, params, errors)
    ensemble = _build_ensemble(raw, "ensemble" in needs, errors)
    temperature = _build_temperature(raw, "temperature" in needs, errors)

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        _err(errors, "output_dir", f"must be a string path, got {output_dir!r}")
        output_dir = None

    fields = {
        "fine": fine,
        "coarse": coarse,
        "initial": initial,
        "params": params,
        "ensemble": ensemble,
        "temperature": temperature,
    }
    _cross_checks(fields, errors)

    if errors:
        return None, errors
    return (
        ExperimentConfig(
            experiment=experiment,
            master_seed=master_seed,
            params=params,
            schedule=schedule,
            fine=fine,
            coarse=coarse,
            cost_fine=cost_fine,
            cost_coarse=cost_coarse,
            initial=initial,
            n_windows=n_windows,
            delta_conv=delta_conv,
            delta_expl=delta_expl,
            k_max=k_max,
            sweep=sweep,
            ensemble=ensemble,
            temperature=temperature,
            output_dir=None if output_dir is None else Path(output_dir),
            raw=dict(raw),
        ),
        [],
    )


def load_raw_config(path: str | Path) -> dict[str, Any]:
    """Parse the JSON config file; parse errors carry line and column."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a JSON object"])
    return raw


def validate_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a config file.

    Raises :class:`ConfigError` whose ``errors`` attribute lists every
    problem found, each prefixed with the offending field path; validation
    does not stop at the first failure.
    """
    cfg, errors = _build_config(load_raw_config(path))
    if errors:
        raise ConfigError(errors)
    return cfg


# -- report writing ---------------------------------------------------------


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


def _write_json(path: Path, payload: dict[str, Any]) -> Path:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    with atomic_open(path) as fh:
        fh.write(text)
    return path


def _write_history_csv(path: Path, history) -> Path:
    """``slab,iteration,delta`` rows with :func:`csv.writer`'s bytes
    (``\\r\\n`` line ends, no field needs quoting)."""
    with atomic_open(path) as fh:
        fh.write("slab,iteration,delta\r\n")
        fh.writelines(
            f"{slab},{iteration},{delta:.17g}\r\n" for slab, iteration, delta in history
        )
    return path


def _slab_payload(result: PararealResult) -> list[dict[str, Any]]:
    return [
        {
            "slab_index": s.slab_index,
            "n_init": s.n_init,
            "n_final": s.n_final,
            "k_conv": s.k_conv,
            "attempts": [[a.n_final, a.iterations] for a in s.attempts],
        }
        for s in result.slabs
    ]


def _state_payload(state: PhaseState) -> dict[str, Any]:
    return {"q": state.q, "p": state.p}


def _write_manifest(
    out_dir: Path,
    cfg: ExperimentConfig,
    workers: int,
    outputs: list[Path],
    status: str,
    error: dict[str, Any] | None = None,
) -> Path:
    manifest: dict[str, Any] = {
        "code_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "status": status,
        "workers": workers,
        "config": dict(cfg.raw, master_seed=cfg.master_seed),
        "output_dir": str(out_dir),
        "outputs": [p.name for p in outputs],
    }
    if error is not None:
        manifest["error"] = error
    return _write_json(out_dir / "manifest.json", manifest)


# -- protocol runners -------------------------------------------------------


def _run_temperature(
    cfg: ExperimentConfig, out_dir: Path, workers: int, outputs: list[Path]
) -> int:
    spec = cfg.temperature
    params = cfg.params
    if params.mass is None and spec.dimension > 1:
        params = replace(params, mass=np.ones(spec.dimension))
    pot = cfg.fine if cfg.fine is not None else Free()
    report = measure_kinetic_temperature(
        pot,
        params,
        cfg.schedule,
        spec.n_windows,
        cfg.master_seed,
        sampling=spec.sampling,
        burn_in=spec.burn_in,
    )
    payload = {
        "experiment": cfg.experiment,
        "inv_beta": cfg.params.inv_beta,
        "substeps": cfg.params.substeps,
        "schedule": list(cfg.schedule.coefficients),
        "k_eq_empirical": report.k_eq_empirical,
        "k_eq_predicted": report.k_eq_predicted,
        "per_substep_variance": list(report.per_substep_variance),
        "n_windows": report.n_windows,
        "n_burn_in": report.n_burn_in,
        "sampling": report.sampling,
    }
    outputs.append(_write_json(out_dir / "result.json", payload))
    return EXIT_OK


def _run_sequential(
    cfg: ExperimentConfig, out_dir: Path, workers: int, outputs: list[Path]
) -> int:
    plan = NoisePlan.for_windows(cfg.master_seed, cfg.n_windows)
    trajectory = sequential_propagate(
        cfg.initial, cfg.n_windows, cfg.fine, cfg.params, cfg.schedule, plan
    )
    traj_path = out_dir / "trajectory.csv"
    write_trajectory_csv(trajectory, traj_path, cfg.params.window_dt)
    outputs.append(traj_path)
    payload = {
        "experiment": cfg.experiment,
        "n_windows": cfg.n_windows,
        "window_dt": cfg.params.window_dt,
        "final": _state_payload(trajectory[cfg.n_windows]),
    }
    outputs.append(_write_json(out_dir / "result.json", payload))
    return EXIT_OK


def _run_parareal(
    cfg: ExperimentConfig, out_dir: Path, workers: int, outputs: list[Path]
) -> int:
    adaptive = cfg.experiment == "parareal_adaptive"
    pair = cfg.pair()
    plan = NoisePlan.for_windows(cfg.master_seed, cfg.n_windows)
    config = PararealConfig(
        n_windows=cfg.n_windows,
        delta_conv=cfg.delta_conv,
        delta_expl=cfg.delta_expl,
        k_max=cfg.k_max,
    )
    engine = parareal_adaptive if adaptive else parareal_classic
    result = engine(cfg.initial, pair, cfg.params, cfg.schedule, plan, config)

    traj_path = out_dir / "trajectory.csv"
    write_trajectory_csv(result.trajectory, traj_path, cfg.params.window_dt)
    outputs.append(traj_path)
    outputs.append(_write_history_csv(out_dir / "history.csv", result.error_history))

    gain = None
    if result.converged:
        if adaptive:
            gain = adaptive_gain(result.slabs, cfg.n_windows, pair.cost_fine, pair.cost_coarse)
        else:
            gain = classic_gain(
                cfg.n_windows, result.slabs[0].k_conv, pair.cost_fine, pair.cost_coarse
            )
    payload = {
        "experiment": cfg.experiment,
        "n_windows": cfg.n_windows,
        "window_dt": cfg.params.window_dt,
        "delta_conv": cfg.delta_conv,
        "delta_expl": cfg.delta_expl,
        "converged": result.converged,
        "n_slab": result.n_slab,
        "total_iterations": result.total_iterations,
        "slabs": _slab_payload(result),
        "gain": None if gain is None else gain.as_dict(),
        "final": _state_payload(result.trajectory[cfg.n_windows]),
    }
    outputs.append(_write_json(out_dir / "result.json", payload))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _run_sweep(
    cfg: ExperimentConfig, out_dir: Path, workers: int, outputs: list[Path]
) -> int:
    pair = cfg.pair()
    plan = NoisePlan.for_windows(cfg.master_seed, cfg.n_windows)
    rows: list[tuple[str, ...]] = []
    records: list[dict[str, Any]] = []
    # row order is dt-major, then delta_conv, then delta_expl
    for dt in cfg.sweep.dt:
        params = replace(cfg.params, dt=dt)
        for delta_conv in cfg.sweep.delta_conv:
            for delta_expl in cfg.sweep.delta_expl:
                config = PararealConfig(
                    n_windows=cfg.n_windows,
                    delta_conv=delta_conv,
                    delta_expl=delta_expl,
                    k_max=cfg.k_max,
                )
                result = parareal_adaptive(cfg.initial, pair, params, cfg.schedule, plan, config)
                if not result.converged:
                    raise _NonConvergenceAbort(
                        f"sweep combination dt={dt}, delta_conv={delta_conv}, "
                        f"delta_expl={delta_expl} did not converge within the iteration cap"
                    )
                report = adaptive_gain(
                    result.slabs, cfg.n_windows, pair.cost_fine, pair.cost_coarse
                )
                rows.append(gain_csv_row(report, dt, delta_expl, delta_conv))
                records.append(
                    {
                        "dt": dt,
                        "delta_conv": delta_conv,
                        "delta_expl": delta_expl,
                        "gain": report.gain,
                        "gain_ideal": report.ideal_gain,
                        "n_slab": report.n_slab,
                        "total_iterations": report.total_iterations,
                    }
                )
    gains_path = out_dir / "gains.csv"
    write_gain_csv(gains_path, rows)
    outputs.append(gains_path)
    payload = {
        "experiment": cfg.experiment,
        "n_windows": cfg.n_windows,
        "rows": records,
    }
    outputs.append(_write_json(out_dir / "result.json", payload))
    return EXIT_OK


def _run_ensemble(
    cfg: ExperimentConfig, out_dir: Path, workers: int, outputs: list[Path]
) -> int:
    spec = cfg.ensemble
    pair = cfg.pair()
    # equilibration: minimize on the fine surface, then thermalize per member
    start_q = local_minima(pair.fine, [cfg.initial.q])[0]
    start = PhaseState(q=start_q, p=np.zeros_like(start_q))
    catalog = BasinCatalog.from_potential(pair.fine, spec.basin_starts)
    config = PararealConfig(
        n_windows=spec.segment_windows,
        delta_conv=cfg.delta_conv,
        delta_expl=cfg.delta_expl,
        k_max=cfg.k_max,
    )

    def run_member(i: int):
        member_seed = derive_seed(cfg.master_seed, MEMBER_SEED_OFFSET + i)
        state = start
        if spec.thermalization_windows:
            therm_plan = NoisePlan.for_windows(
                derive_seed(member_seed, 1), spec.thermalization_windows
            )
            warm = sequential_propagate(
                state, spec.thermalization_windows, pair.fine, cfg.params, cfg.schedule, therm_plan
            )
            state = warm[spec.thermalization_windows]
        segment_plan = NoisePlan.for_windows(derive_seed(member_seed, 2), spec.segment_windows)
        fine_traj = sequential_propagate(
            state, spec.segment_windows, pair.fine, cfg.params, cfg.schedule, segment_plan
        )
        result = parareal_adaptive(state, pair, cfg.params, cfg.schedule, segment_plan, config)
        return fine_traj, result

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            members = list(pool.map(run_member, range(spec.size)))
    else:
        members = [run_member(i) for i in range(spec.size)]

    fine_events = []
    adaptive_events = []
    gains = []
    for i, (fine_traj, result) in enumerate(members):
        if not result.converged:
            raise _NonConvergenceAbort(
                f"ensemble member {i} did not converge within the iteration cap"
            )
        fine_events += residence_times(
            label_trajectory(fine_traj, catalog), min_run=spec.min_run
        )
        adaptive_events += residence_times(
            label_trajectory(result.trajectory, catalog), min_run=spec.min_run
        )
        gains.append(
            adaptive_gain(
                result.slabs, spec.segment_windows, pair.cost_fine, pair.cost_coarse
            ).gain
        )

    fine_stats = residence_stats(fine_events)
    adaptive_stats = residence_stats(adaptive_events)
    comparison = compare_ensembles(fine_stats, adaptive_stats)

    for name, events in (("fine", fine_events), ("adaptive", adaptive_events)):
        hist_path = out_dir / f"residence_{name}.csv"
        complete = [e.duration for e in events if not e.censored]
        write_residence_histogram_csv(hist_path, complete, spec.histogram_bin_width)
        outputs.append(hist_path)

    payload = {
        "experiment": cfg.experiment,
        "size": spec.size,
        "segment_windows": spec.segment_windows,
        "thermalization_windows": spec.thermalization_windows,
        "min_run": spec.min_run,
        "start_q": start_q,
        "basins": list(catalog.minima),
        "fine": fine_stats.as_dict(),
        "adaptive": adaptive_stats.as_dict(),
        "comparison": {"overlap": comparison.overlap, "intervals": comparison.intervals},
        "mean_gain": sum(gains) / len(gains),
    }
    outputs.append(_write_json(out_dir / "result.json", payload))
    return EXIT_OK


_SUBCOMMANDS = {
    "temperature": "temperature",
    "sequential": "sequential",
    "parareal": "parareal_classic",
    "adaptive": "parareal_adaptive",
    "sweep": "gain_sweep",
    "ensemble": "ensemble",
}

_RUNNERS = {
    "temperature": _run_temperature,
    "sequential": _run_sequential,
    "parareal_classic": _run_parareal,
    "parareal_adaptive": _run_parareal,
    "gain_sweep": _run_sweep,
    "ensemble": _run_ensemble,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paralangevin",
        description="Parallel-in-time Langevin dynamics experiment harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "temperature": "measure the stationary kinetic temperature",
        "sequential": "run the sequential fine baseline",
        "parareal": "run classic parareal over the whole range",
        "adaptive": "run adaptive parareal with explosion-triggered slabs",
        "sweep": "run an adaptive gain sweep over dt and threshold grids",
        "ensemble": "run the equilibrated ensemble consistency protocol",
        "validate": "check a config file and report every problem",
    }
    for name, help_text in helps.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, type=Path, help="JSON config file")
        if name != "validate":
            cmd.add_argument("--out", type=Path, default=None, help="output directory")
            cmd.add_argument(
                "--seed", type=int, default=None, help="override the config master_seed"
            )
            cmd.add_argument(
                "--workers",
                type=int,
                default=1,
                help="threads for ensemble members; the other commands accept it "
                "and run serially (results never depend on it)",
            )
    return parser


def _error_payload(exc: BaseException) -> dict[str, Any]:
    payload: dict[str, Any] = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, BlowUpError):
        payload["window"] = exc.window
        payload["iteration"] = exc.iteration
        payload["substep"] = exc.substep
    return payload


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = validate_config(args.config)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "validate":
        print(f"ok: {args.config} ({cfg.experiment})")
        return EXIT_OK

    expected = _SUBCOMMANDS[args.command]
    if cfg.experiment != expected:
        print(
            f"config error: experiment: config declares {cfg.experiment!r} "
            f"but the {args.command} command runs {expected!r}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            print(f"config error: --seed must lie in [0, 2^64), got {args.seed}", file=sys.stderr)
            return EXIT_CONFIG
        cfg = replace(cfg, master_seed=args.seed)
    if args.workers < 1:
        print(f"config error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out if args.out is not None else cfg.output_dir
    if out_dir is None:
        print("config error: output_dir: set it in the config or pass --out", file=sys.stderr)
        return EXIT_CONFIG
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs: list[Path] = []
    _write_manifest(out_dir, cfg, args.workers, outputs, "running")
    try:
        status = _RUNNERS[cfg.experiment](cfg, out_dir, args.workers, outputs)
    except BlowUpError as exc:
        _write_manifest(out_dir, cfg, args.workers, outputs, "incomplete", _error_payload(exc))
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (
        SlabCollapseError,
        DegenerateNormalizationError,
        MinimizationError,
        PotentialError,
    ) as exc:
        _write_manifest(out_dir, cfg, args.workers, outputs, "incomplete", _error_payload(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except _NonConvergenceAbort as exc:
        _write_manifest(out_dir, cfg, args.workers, outputs, "incomplete", _error_payload(exc))
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except InsufficientDataError as exc:
        _write_manifest(out_dir, cfg, args.workers, outputs, "incomplete", _error_payload(exc))
        print(
            f"insufficient data: {exc} (lengthen segment_windows or enlarge the ensemble)",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    except BaseException as exc:  # interrupts included: the manifest says so, then re-raise
        _write_manifest(out_dir, cfg, args.workers, outputs, "failed", _error_payload(exc))
        raise

    _write_manifest(out_dir, cfg, args.workers, outputs, "complete")
    for path in outputs:
        print(f"wrote {path}")
    if status == EXIT_NO_CONVERGENCE:
        print("did not converge within the iteration cap", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
