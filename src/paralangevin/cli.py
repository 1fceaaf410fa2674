"""Experiment harness: config files in, deterministic report files out.

One subcommand per protocol (temperature calibration, sequential baseline,
classic and adaptive parareal, gain sweep, ensemble statistics) plus
``validate``.  A run reads a JSON config, executes the protocol, and writes
a manifest plus result files into the output directory.  Result JSON/CSV
content depends only on the config and the master seed; worker counts and
timestamps appear in the manifest only, so reruns of the same config are
byte-identical file for file.

Exit codes: 0 success, 2 config, validation or data error, 3 numerical failure,
4 non-convergence at the iteration cap; ``_FAILURES`` and README list the causes.
"""

from __future__ import annotations

import argparse
import json
import sys
# Not used here: perfbench's tracer patches ``cli.ThreadPoolExecutor``.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

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
    TemperatureSchedule,
    measure_kinetic_temperature,
)
from .model import LangevinParams, PhaseState, atomic_open, write_csv, write_trajectory_csv
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

# Offset separating ensemble-member seed derivation from window indices.
MEMBER_SEED_OFFSET = 10**9


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


class _Field(NamedTuple):
    """How :func:`_read` checks one config field.

    ``read`` is the field's reader, or None for a field that its section's
    builder reads.  ``required`` is True, False, or the entry of an
    experiment's ``needs`` that requires the field.
    """

    read: Callable[..., Any] | None
    required: bool | str = False
    default: Any = None
    minimum: int | None = None  # of an _int
    choices: tuple[str, ...] = ()  # of a _choice
    missing: str = "missing required field"  # what an absent required field reports


_Fields = dict[str, _Field]


def _err(errors: list[str], path: str, message: str) -> None:
    errors.append(f"{path}: {message}")


def _finite(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max  # an int is compared exactly, never converted


def _build(cls: type, values: Mapping[str, Any], path: str, errors: list[str]) -> Any:
    """``cls(**values)``, or None once the class's own ValueError is reported at ``path``."""
    try:
        return cls(**values)
    except ValueError as exc:
        _err(errors, path, str(exc))
        return None


# Field readers: each returns the field's value, or None once it has
# reported why there is none.


def _number(value: Any, path: str, errors: list[str], field: _Field | None = None) -> float | None:
    if not _finite(value):
        _err(errors, path, f"must be a finite number, got {value!r}")
        return None
    return float(value)


def _fraction(value: Any, path: str, errors: list[str], field: _Field) -> float | None:
    value = _number(value, path, errors)
    if value is not None and not 0.0 <= value < 1.0:
        _err(errors, path, f"must lie in [0, 1), got {value}")
        return None
    return value


#: the largest integer any config field takes: every integer up to it is a
#: float exactly, and no count the runs derive from it overflows a float
_MAX_INT = 2**53


def _int(value: Any, path: str, errors: list[str], field: _Field) -> int | None:
    if not isinstance(value, int) or isinstance(value, bool):
        _err(errors, path, f"must be an integer, got {value!r}")
        return None
    if field.minimum is not None and value < field.minimum:
        _err(errors, path, f"must be >= {field.minimum}, got {value}")
        return None
    if value > _MAX_INT:
        _err(errors, path, f"must be <= {_MAX_INT}, got {value}")
        return None
    return value


def _vector(value: Any, path: str, errors: list[str], field: _Field | None = None):
    if isinstance(value, list) and value and all(_finite(x) for x in value):
        return tuple(float(x) for x in value)
    _err(errors, path, "must be a non-empty list of finite numbers")
    return None


def _coefficient(value: Any, path: str, errors: list[str], field: _Field):
    """A potential's per-axis coefficient: one number for every axis, or a list."""
    if isinstance(value, list):
        return _vector(value, path, errors)
    if not _finite(value):
        _err(errors, path, f"must be a finite number or a list of them, got {value!r}")
        return None
    return float(value)


def _choice(value: Any, path: str, errors: list[str], field: _Field) -> str | None:
    if value not in field.choices:
        _err(errors, path, f"must be {' or '.join(map(repr, field.choices))}, got {value!r}")
        return None
    return value


_NOT_POINTS = "must be a non-empty list of position lists"


def _points(value: Any, path: str, errors: list[str], field: _Field):
    """Basin starting points: a non-empty list of positions of one dimension."""
    if not isinstance(value, list) or not value:
        _err(errors, path, _NOT_POINTS)
        return None
    points = [_vector(entry, f"{path}[{i}]", errors) for i, entry in enumerate(value)]
    if None in points:
        return None
    if len({len(point) for point in points}) > 1:
        _err(errors, path, "entries have inconsistent dimensions")
        return None
    return tuple(points)


def _potential(spec: Any, path: str, errors: list[str], field: _Field) -> Potential | None:
    if not isinstance(spec, dict):
        _err(errors, path, "must be an object with a 'kind' field")
        return None
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _POTENTIALS:
        _err(errors, f"{path}.kind", f"unknown potential kind {kind!r}")
        return None
    cls, fields = _POTENTIALS[kind]
    spec = {key: value for key, value in spec.items() if key != "kind"}
    values, ok = _read(spec, path, frozenset(), errors, fields)
    return _build(cls, values, path, errors) if ok else None


_COEFFICIENT = _Field(_coefficient, default=1.0)

# Each potential kind's class and fields; the class checks the values.
_POTENTIALS: dict[str, tuple[type[Potential], _Fields]] = {
    "free": (Free, {}),
    "harmonic": (Harmonic, {"k": _COEFFICIENT}),
    "double_well": (DoubleWell, {"a": _COEFFICIENT, "b": _COEFFICIENT}),
    "lennard_jones": (
        LennardJonesCluster,
        {
            "epsilon": _Field(_number, default=1.0),
            "sigma": _Field(_number, default=1.0),
            "n_atoms": _Field(_int, default=7),
            "space_dim": _Field(_int, default=2),
        },
    ),
}

# Each section's fields, in the order their problems are reported.  A section
# is required when its name is among the experiment's needs.
_SECTIONS: dict[str, _Fields] = {
    "params": {
        "gamma": _Field(_number, True),
        "inv_beta": _Field(_number, True),
        "dt": _Field(_number, True),
        "substeps": _Field(_int, default=1, minimum=1),
        "mass": _Field(None),  # a vector; null means unit masses
    },
    "potential": {
        "fine": _Field(_potential, "fine"),
        "coarse": _Field(_potential, "coarse"),
        "cost_fine": _Field(_number, default=1.0),
        "cost_coarse": _Field(_number, default=1.0),
    },
    # p is read once q is valid; null means zero momenta
    "initial": {"q": _Field(_vector, True), "p": _Field(None)},
    "parareal": {
        "n_windows": _Field(_int, "n_windows", minimum=1),
        "delta_conv": _Field(_number, "delta_conv"),
        "delta_expl": _Field(_number, "delta_expl"),
        "k_max": _Field(_int, minimum=1),
    },
    "sweep": {
        key: _Field(_vector, True, missing="missing required grid")
        for key in ("dt", "delta_conv", "delta_expl")
    },
    "ensemble": {
        "size": _Field(_int, True, minimum=2),
        "segment_windows": _Field(_int, True, minimum=1),
        "thermalization_windows": _Field(_int, default=0, minimum=0),
        "min_run": _Field(_int, default=1, minimum=1),
        "histogram_bin_width": _Field(_int, default=50, minimum=1),
        "basin_starts": _Field(_points, True, missing=_NOT_POINTS),
    },
    "temperature": {
        "n_windows": _Field(_int, True, minimum=1),
        "dimension": _Field(_int, default=1, minimum=1),
        "burn_in": _Field(_fraction, default=0.1),
        "sampling": _Field(_choice, default=ALL_SUBSTEPS, choices=(ALL_SUBSTEPS, WINDOW_ENDS)),
    },
}

_TOP_LEVEL_KEYS = frozenset({"experiment", "master_seed", "schedule", "output_dir", *_SECTIONS})


def _read(
    section: Any, path: str, needs: frozenset[str], errors: list[str], fields: _Fields | None = None
) -> tuple[dict[str, Any], bool]:
    """Check ``section`` against ``fields`` (by default, those of the
    top-level section ``path``), reporting every problem.

    Returns each field's value (its default when absent or invalid) and
    whether the section is complete: an object whose fields all read.
    Unknown fields are reported without making the section incomplete.
    """
    fields = _SECTIONS[path] if fields is None else fields
    if not isinstance(section, dict):
        if section is not None:
            _err(errors, path, "must be an object")
        elif path in needs:
            _err(errors, path, "missing required section")
        else:
            # an absent optional section still owes the fields a need requires (by name)
            for key in sorted(fields):
                if fields[key].required in needs:
                    _err(errors, f"{path}.{key}", "missing required field")
        return {key: field.default for key, field in fields.items()}, False
    for key in section:
        if key not in fields:
            _err(errors, f"{path}.{key}", "unknown field")
    values: dict[str, Any] = {}
    ok = True
    for key, field in fields.items():
        if key not in section:
            values[key] = field.default
            if field.required is True or field.required in needs:
                _err(errors, f"{path}.{key}", field.missing)
                ok = False
        elif field.read is None:
            values[key] = section[key]
        else:
            value = field.read(section[key], f"{path}.{key}", errors, field)
            ok = ok and value is not None
            values[key] = field.default if value is None else value
    return values, ok


def _schedule(
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
            weights = _vector(spec, "schedule", errors)
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
    except ValueError as exc:  # InfeasibleScheduleError included
        _err(errors, "schedule", str(exc))
    return None


def _initial(
    raw: Mapping[str, Any], needs: frozenset[str], errors: list[str]
) -> PhaseState | None:
    values, ok = _read(raw.get("initial"), "initial", needs, errors)
    if not ok:
        return None
    q, p = values["q"], values["p"]
    p = (0.0,) * len(q) if p is None else _vector(p, "initial.p", errors)
    if p is None:
        return None
    if len(p) != len(q):
        _err(errors, "initial.p", f"has {len(p)} components, q has {len(q)}")
        return None
    return PhaseState(q=q, p=p)


def _parareal(raw: Mapping[str, Any], needs: frozenset[str], errors: list[str]) -> dict[str, Any]:
    """``n_windows``, ``delta_conv``, ``delta_expl`` and ``k_max``; None where invalid."""
    values, _ = _read(raw.get("parareal"), "parareal", needs, errors)
    for key in ("delta_conv", "delta_expl"):
        if values[key] is not None and values[key] <= 0.0:
            _err(errors, f"parareal.{key}", f"must be positive, got {values[key]}")
            values[key] = None
    delta_conv, delta_expl = values["delta_conv"], values["delta_expl"]
    if delta_conv is not None and delta_expl is not None and delta_expl <= delta_conv:
        _err(
            errors,
            "parareal.delta_expl",
            f"must exceed delta_conv: got {delta_expl} <= {delta_conv}",
        )
    return values


def _sweep(
    raw: Mapping[str, Any], needs: frozenset[str], params: LangevinParams | None, errors: list[str]
) -> SweepGrid | None:
    grids, ok = _read(raw.get("sweep"), "sweep", needs, errors)
    if not ok:
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
    worst_conv = max(grids["delta_conv"])
    worst_expl = min(grids["delta_expl"])
    if worst_expl <= worst_conv:
        _err(
            errors,
            "sweep.delta_expl",
            f"every value must exceed every delta_conv: got {worst_expl} <= {worst_conv}",
        )
    return SweepGrid(**grids)


def _cross_checks(fields: dict[str, Any], errors: list[str]) -> None:
    """Dimension consistency between sections that are individually valid."""
    params, temperature = fields["params"], fields["temperature"]
    mass = None if params is None else params.mass
    if fields["initial"] is not None:
        dim = fields["initial"].dim
        for name in ("fine", "coarse"):
            pot = fields[name]
            if pot is not None and pot.dimension not in (None, dim):
                _err(
                    errors,
                    "initial.q",
                    f"dimension {dim} does not match potential.{name} dimension {pot.dimension}",
                )
        if mass is not None and mass.shape[0] != dim:
            _err(errors, "params.mass", f"has {mass.shape[0]} components, initial.q has {dim}")
        ensemble = fields["ensemble"]
        if ensemble is not None and any(len(start) != dim for start in ensemble.basin_starts):
            _err(errors, "ensemble.basin_starts", f"entries must have dimension {dim}")
    if temperature is not None and mass is not None and temperature.dimension != mass.shape[0]:
        _err(
            errors,
            "temperature.dimension",
            f"is {temperature.dimension}, params.mass has {mass.shape[0]} components",
        )
    fine_dim = None if fields["fine"] is None else fields["fine"].dimension
    if temperature is not None and fine_dim not in (None, temperature.dimension):
        message = f"is {temperature.dimension}, potential.fine has dimension {fine_dim}"
        _err(errors, "temperature.dimension", message)


def _build_config(raw: Mapping[str, Any]) -> tuple[ExperimentConfig | None, list[str]]:
    errors: list[str] = []
    for key in raw:
        if key not in _TOP_LEVEL_KEYS:
            _err(errors, key, "unknown field")

    experiment = raw.get("experiment")
    needs = frozenset({"params"})  # every experiment needs params
    if isinstance(experiment, str) and experiment in EXPERIMENTS:
        needs |= EXPERIMENTS[experiment].needs
    else:
        _err(errors, "experiment", f"must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}")

    master_seed = raw.get("master_seed")
    if "master_seed" not in raw:
        _err(errors, "master_seed", "missing required field (an integer in [0, 2^64))")
    elif not isinstance(master_seed, int) or isinstance(master_seed, bool):
        _err(errors, "master_seed", f"must be an integer, got {master_seed!r}")
    elif not 0 <= master_seed < 2**64:
        _err(errors, "master_seed", f"must lie in [0, 2^64), got {master_seed}")

    # every ExperimentConfig field but output_dir and raw, section by section
    fields: dict[str, Any] = {"experiment": experiment, "master_seed": master_seed}
    values, ok = _read(raw.get("params"), "params", needs, errors)
    if values["mass"] is not None:  # an invalid mass is reported and left out
        values["mass"] = _vector(values["mass"], "params.mass", errors)
    params = fields["params"] = _build(LangevinParams, values, "params", errors) if ok else None
    fields["schedule"] = _schedule(raw, None if params is None else params.substeps, errors)
    potential, _ = _read(raw.get("potential"), "potential", needs, errors)  # bad costs read as 1.0
    if potential["fine"] is not None and potential["coarse"] is not None:
        _build(PropagatorPair, potential, "potential", errors)
    fields.update(potential)
    fields["initial"] = _initial(raw, needs, errors)
    fields.update(_parareal(raw, needs, errors))
    fields["sweep"] = _sweep(raw, needs, params, errors)
    ensemble, ok = _read(raw.get("ensemble"), "ensemble", needs, errors)
    fields["ensemble"] = EnsembleSpec(**ensemble) if ok else None
    temperature, ok = _read(raw.get("temperature"), "temperature", needs, errors)
    fields["temperature"] = TemperatureSpec(**temperature) if ok else None

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        _err(errors, "output_dir", f"must be a string path, got {output_dir!r}")

    _cross_checks(fields, errors)
    if errors:
        return None, errors
    output_dir = None if output_dir is None else Path(output_dir)
    return ExperimentConfig(**fields, output_dir=output_dir, raw=dict(raw)), []


def _parse_int(text: str) -> int | float:
    # past int()'s digit limit, the float (infinite), which the field's check reports
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_raw_config(path: str | Path) -> dict[str, Any]:
    """Parse the JSON config file; parse errors carry line and column."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    try:
        raw = json.loads(text, parse_int=_parse_int)
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


def _json_default(obj: Any) -> Any:
    """What :func:`json.dumps` writes for the numpy values and paths it cannot encode."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict[str, Any]) -> Path:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    with atomic_open(path) as fh:
        fh.write(text)
    return path


def _write_history_csv(path: Path, history) -> Path:
    """``slab,iteration,delta`` rows, one per entry of ``history``."""
    lines = (f"{slab},{iteration},{delta:.17g}" for slab, iteration, delta in history)
    write_csv(path, ("slab", "iteration", "delta"), lines)
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


def _parareal_config(cfg: ExperimentConfig, **fields: Any) -> PararealConfig:
    """The config's fields of :class:`PararealConfig`'s names, with ``fields`` replaced."""
    names = ("n_windows", "delta_conv", "delta_expl", "k_max")
    return PararealConfig(**{**{name: getattr(cfg, name) for name in names}, **fields})


def _run_temperature(cfg: ExperimentConfig, out_dir: Path, outputs: list[Path]) -> int:
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


def _run_sequential(cfg: ExperimentConfig, out_dir: Path, outputs: list[Path]) -> int:
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


def _run_parareal(cfg: ExperimentConfig, out_dir: Path, outputs: list[Path]) -> int:
    adaptive = cfg.experiment == "parareal_adaptive"
    pair = cfg.pair()
    plan = NoisePlan.for_windows(cfg.master_seed, cfg.n_windows)
    config = _parareal_config(cfg)
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


def _run_sweep(cfg: ExperimentConfig, out_dir: Path, outputs: list[Path]) -> int:
    pair = cfg.pair()
    plan = NoisePlan.for_windows(cfg.master_seed, cfg.n_windows)
    rows: list[tuple[str, ...]] = []
    records: list[dict[str, Any]] = []
    # row order is dt-major, then delta_conv, then delta_expl
    for dt in cfg.sweep.dt:
        params = replace(cfg.params, dt=dt)
        for delta_conv in cfg.sweep.delta_conv:
            for delta_expl in cfg.sweep.delta_expl:
                config = _parareal_config(cfg, delta_conv=delta_conv, delta_expl=delta_expl)
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


def _run_ensemble(cfg: ExperimentConfig, out_dir: Path, outputs: list[Path]) -> int:
    spec = cfg.ensemble
    pair = cfg.pair()
    # equilibration: minimize on the fine surface, then thermalize per member
    start_q = local_minima(pair.fine, [cfg.initial.q])[0]
    start = PhaseState(q=start_q, p=np.zeros_like(start_q))
    catalog = BasinCatalog.from_potential(pair.fine, spec.basin_starts)
    config = _parareal_config(cfg, n_windows=spec.segment_windows)

    # every member runs before any is analysed, so a member's failure outranks an
    # earlier member's non-convergence
    members = []
    for i in range(spec.size):
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
        members.append((fine_traj, result))

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


class _Experiment(NamedTuple):
    """One protocol: its subcommand and help line, the sections and fields
    its config must supply beyond params, schedule and master_seed, and its
    runner."""

    command: str
    help: str
    needs: frozenset[str]
    run: Callable[[ExperimentConfig, Path, list[Path]], int]


# What every experiment with a fine/coarse pair needs.
_PAIR_NEEDS = frozenset({"potential", "fine", "coarse", "initial"})

# In the order the ``experiment`` error message lists them.
EXPERIMENTS: dict[str, _Experiment] = {
    "temperature": _Experiment(
        "temperature",
        "measure the stationary kinetic temperature",
        frozenset({"temperature"}),
        _run_temperature,
    ),
    "sequential": _Experiment(
        "sequential",
        "run the sequential fine baseline",
        frozenset({"potential", "fine", "initial", "n_windows"}),
        _run_sequential,
    ),
    "parareal_classic": _Experiment(
        "parareal",
        "run classic parareal over the whole range",
        _PAIR_NEEDS | {"n_windows", "delta_conv"},
        _run_parareal,
    ),
    "parareal_adaptive": _Experiment(
        "adaptive",
        "run adaptive parareal with explosion-triggered slabs",
        _PAIR_NEEDS | {"n_windows", "delta_conv", "delta_expl"},
        _run_parareal,
    ),
    "gain_sweep": _Experiment(
        "sweep",
        "run an adaptive gain sweep over dt and threshold grids",
        _PAIR_NEEDS | {"n_windows", "sweep"},
        _run_sweep,
    ),
    "ensemble": _Experiment(
        "ensemble",
        "run the equilibrated ensemble consistency protocol",
        _PAIR_NEEDS | {"delta_conv", "delta_expl", "ensemble"},
        _run_ensemble,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paralangevin",
        description="Parallel-in-time Langevin dynamics experiment harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, experiment in EXPERIMENTS.items():
        cmd = sub.add_parser(experiment.command, help=experiment.help)
        cmd.set_defaults(experiment=name)
        cmd.add_argument("--config", required=True, type=Path, help="JSON config file")
        cmd.add_argument("--out", type=Path, default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config master_seed")
        cmd.add_argument(
            "--workers",
            type=int,
            default=1,
            help="accepted for compatibility and recorded in the manifest; every run is "
            "serial, so results never depend on it",
        )
    cmd = sub.add_parser("validate", help="check a config file and report every problem")
    cmd.add_argument("--config", required=True, type=Path, help="JSON config file")
    return parser


def _error_payload(exc: BaseException) -> dict[str, Any]:
    payload: dict[str, Any] = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, BlowUpError):
        payload["window"] = exc.window
        payload["iteration"] = exc.iteration
        payload["substep"] = exc.substep
    return payload


_NUMERICAL = (SlabCollapseError, DegenerateNormalizationError, MinimizationError, PotentialError)

# (exception types, stderr line, exit code) of each failure that leaves an ``incomplete``
# manifest, tried in order; any other exception leaves a ``failed`` one and propagates.
_FAILURES = (
    ((BlowUpError,), "blow-up: {}", EXIT_BLOWUP),
    (_NUMERICAL, "numerical failure: {}", EXIT_BLOWUP),
    ((_NonConvergenceAbort,), "non-convergence: {}", EXIT_NO_CONVERGENCE),
    (
        (InsufficientDataError,),
        "insufficient data: {} (lengthen segment_windows or enlarge the ensemble)",
        EXIT_CONFIG,
    ),
)


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

    if cfg.experiment != args.experiment:
        print(
            f"config error: experiment: config declares {cfg.experiment!r} "
            f"but the {args.command} command runs {args.experiment!r}",
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: output_dir: cannot create {out_dir}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG

    outputs: list[Path] = []
    _write_manifest(out_dir, cfg, args.workers, outputs, "running")
    try:
        status = EXPERIMENTS[cfg.experiment].run(cfg, out_dir, outputs)
    except BaseException as exc:  # interrupts included: the manifest says so, then re-raise
        failure = next((row for row in _FAILURES if isinstance(exc, row[0])), None)
        state = "failed" if failure is None else "incomplete"
        _write_manifest(out_dir, cfg, args.workers, outputs, state, _error_payload(exc))
        if failure is None:
            raise
        _, line, code = failure
        print(line.format(exc), file=sys.stderr)
        return code

    _write_manifest(out_dir, cfg, args.workers, outputs, "complete")
    for path in outputs:
        print(f"wrote {path}")
    if status == EXIT_NO_CONVERGENCE:
        print("did not converge within the iteration cap", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
