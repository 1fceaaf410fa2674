"""Tests for the experiment harness: validation, runners, exit codes, replay.

Runner tests use deliberately tiny window counts; the statistical claims
live in the acceptance suite.  Byte-identity assertions compare whole file
contents, so they cover float formatting and key ordering as well.
"""

from __future__ import annotations

import copy
import csv
import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paralangevin
from paralangevin import (
    ConfigError,
    GAIN_CSV_HEADER,
    TemperatureSpec,
    read_trajectory_csv,
    validate_config,
)
from paralangevin import cli
from paralangevin.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"


def _base_config(experiment: str = "parareal_adaptive") -> dict:
    return {
        "experiment": experiment,
        "master_seed": 11,
        "params": {"gamma": 0.5, "inv_beta": 0.4, "dt": 0.05, "substeps": 2},
        "schedule": "robust",
        "potential": {
            "fine": {"kind": "double_well", "a": 1.0, "b": 1.0},
            "coarse": {"kind": "double_well", "a": 0.8, "b": 1.0},
            "cost_fine": 175.0,
            "cost_coarse": 1.0,
        },
        "initial": {"q": [-1.0]},
        "parareal": {"n_windows": 10, "delta_conv": 1e-8, "delta_expl": 0.35},
    }


def _write(tmp_path: Path, config: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def _errors_of(path: Path) -> tuple[str, ...]:
    with pytest.raises(ConfigError) as info:
        validate_config(path)
    return info.value.errors


class TestValidateConfig:
    @pytest.mark.parametrize(
        "name",
        ["temperature", "sequential", "parareal", "adaptive", "sweep", "ensemble"],
    )
    def test_shipped_configs_validate(self, name):
        cfg = validate_config(CONFIG_DIR / f"{name}.json")
        assert cfg.master_seed >= 0

    def test_missing_master_seed_names_the_field(self, tmp_path):
        config = _base_config()
        del config["master_seed"]
        errors = _errors_of(_write(tmp_path, config))
        assert any(e.startswith("master_seed:") for e in errors)

    def test_negative_dt_names_the_constraint(self, tmp_path):
        config = _base_config()
        config["params"]["dt"] = -0.1
        errors = _errors_of(_write(tmp_path, config))
        assert any("dt must be positive" in e for e in errors)

    def test_delta_expl_must_exceed_delta_conv(self, tmp_path):
        config = _base_config()
        config["parareal"]["delta_expl"] = 1e-9
        errors = _errors_of(_write(tmp_path, config))
        assert any("parareal.delta_expl" in e and "exceed" in e for e in errors)

    def test_every_error_reported_not_fail_fast(self, tmp_path):
        config = _base_config()
        del config["master_seed"]
        config["params"]["gamma"] = "fast"
        config["potential"]["fine"]["kind"] = "triple_well"
        config["parareal"]["n_windows"] = 0
        errors = _errors_of(_write(tmp_path, config))
        joined = "\n".join(errors)
        assert len(errors) >= 4
        for fragment in ("master_seed", "params.gamma", "potential.fine.kind", "parareal.n_windows"):
            assert fragment in joined

    def test_parse_error_carries_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "experiment": oops\n}')
        errors = _errors_of(path)
        assert len(errors) == 1
        assert ":2:" in errors[0]

    def test_unknown_top_level_key_rejected(self, tmp_path):
        config = _base_config()
        config["outdir"] = "somewhere"
        errors = _errors_of(_write(tmp_path, config))
        assert any(e.startswith("outdir:") and "unknown" in e for e in errors)

    def test_unknown_experiment_rejected(self, tmp_path):
        config = _base_config()
        config["experiment"] = "quenching"
        errors = _errors_of(_write(tmp_path, config))
        assert any(e.startswith("experiment:") for e in errors)

    def test_flat2_schedule_needs_single_substep(self, tmp_path):
        config = _base_config()
        config["schedule"] = "flat2"
        errors = _errors_of(_write(tmp_path, config))
        assert any("flat2" in e for e in errors)

    def test_schedule_list_length_must_match_substeps(self, tmp_path):
        config = _base_config()
        config["schedule"] = [3.0, 1.0]
        errors = _errors_of(_write(tmp_path, config))
        assert any("schedule:" in e and "substeps" in e for e in errors)

    def test_explicit_schedule_list_accepted(self, tmp_path):
        config = _base_config()
        config["schedule"] = [3.0, 1.0, 1.0]
        cfg = validate_config(_write(tmp_path, config))
        assert cfg.schedule.coefficients == (3.0, 1.0, 1.0)

    def test_sweep_grid_must_be_nonempty(self, tmp_path):
        config = _base_config("gain_sweep")
        config["parareal"] = {"n_windows": 10}
        config["sweep"] = {"dt": [], "delta_conv": [1e-8], "delta_expl": [0.35]}
        errors = _errors_of(_write(tmp_path, config))
        assert any("sweep.dt" in e for e in errors)

    def test_sweep_thresholds_must_be_ordered_across_the_grid(self, tmp_path):
        config = _base_config("gain_sweep")
        config["parareal"] = {"n_windows": 10}
        config["sweep"] = {"dt": [0.05], "delta_conv": [1e-8, 0.4], "delta_expl": [0.35]}
        errors = _errors_of(_write(tmp_path, config))
        assert any("sweep.delta_expl" in e for e in errors)

    def test_initial_momentum_length_must_match(self, tmp_path):
        config = _base_config()
        config["initial"] = {"q": [-1.0], "p": [0.0, 0.0]}
        errors = _errors_of(_write(tmp_path, config))
        assert any("initial.p" in e for e in errors)

    def test_potential_dimension_cross_check(self, tmp_path):
        config = _base_config()
        config["potential"]["fine"] = {"kind": "harmonic", "k": [1.0, 2.0]}
        config["potential"]["coarse"] = {"kind": "harmonic", "k": [1.0, 1.5]}
        errors = _errors_of(_write(tmp_path, config))
        assert any("initial.q" in e and "dimension" in e for e in errors)

    def test_mass_length_cross_check(self, tmp_path):
        config = _base_config()
        config["params"]["mass"] = [1.0, 2.0]
        errors = _errors_of(_write(tmp_path, config))
        assert any("params.mass" in e for e in errors)

    def test_basin_starts_dimension_check(self, tmp_path):
        config = _base_config("ensemble")
        config["parareal"] = {"delta_conv": 1e-5, "delta_expl": 0.35}
        config["ensemble"] = {
            "size": 2,
            "segment_windows": 10,
            "basin_starts": [[-1.0, 0.0], [1.0, 0.0]],
        }
        errors = _errors_of(_write(tmp_path, config))
        assert any("ensemble.basin_starts" in e for e in errors)


_DROP = object()
_INF = float("inf")
_LJ_PAIR = {
    "potential.fine": {"kind": "lennard_jones", "n_atoms": 2, "space_dim": 1},
    "potential.coarse": {"kind": "lennard_jones", "n_atoms": 2, "space_dim": 1},
    "initial.q": [0.0, 1.1],
}

# The section each of these experiments adds to the adaptive base config.
_EXTRA_SECTIONS = {
    "gain_sweep": {"sweep": {"dt": [0.05], "delta_conv": [1e-8], "delta_expl": [0.35]}},
    "ensemble": {"ensemble": {"size": 2, "segment_windows": 10, "basin_starts": [[-1.0], [1.0]]}},
    "temperature": {"temperature": {"n_windows": 10, "dimension": 3}},
}


def _changed_config(changes: dict) -> dict:
    """A valid config for ``changes["experiment"]`` (adaptive by default) with
    ``changes`` applied; keys are dotted paths and ``_DROP`` deletes."""
    experiment = changes.get("experiment")
    config = _base_config()
    if isinstance(experiment, str):
        config.update(copy.deepcopy(_EXTRA_SECTIONS.get(experiment, {})))
    for path, value in changes.items():
        *parents, last = path.split(".")
        node = config
        for key in parents:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = copy.deepcopy(value)
    return config


# (id, changes, every message validate_config reports, in order); () means accepted.
_MESSAGE_TABLE = [
    # top level
    ("top_unknown_field", {"outdir": "x"}, ("outdir: unknown field",)),
    (
        "experiment_missing",
        {"experiment": _DROP},
        (
            "experiment: must be one of temperature, sequential, parareal_classic, "
            "parareal_adaptive, gain_sweep, ensemble; got None",
        ),
    ),
    (
        "experiment_unknown",
        {"experiment": "quenching"},
        (
            "experiment: must be one of temperature, sequential, parareal_classic, "
            "parareal_adaptive, gain_sweep, ensemble; got 'quenching'",
        ),
    ),
    (
        "experiment_not_a_string",
        {"experiment": ["ensemble"]},
        (
            "experiment: must be one of temperature, sequential, parareal_classic, "
            "parareal_adaptive, gain_sweep, ensemble; got ['ensemble']",
        ),
    ),
    (
        "master_seed_missing",
        {"master_seed": _DROP},
        ("master_seed: missing required field (an integer in [0, 2^64))",),
    ),
    ("master_seed_float", {"master_seed": 1.5}, ("master_seed: must be an integer, got 1.5",)),
    ("master_seed_string", {"master_seed": "7"}, ("master_seed: must be an integer, got '7'",)),
    ("master_seed_bool", {"master_seed": True}, ("master_seed: must be an integer, got True",)),
    ("master_seed_null", {"master_seed": None}, ("master_seed: must be an integer, got None",)),
    ("master_seed_negative", {"master_seed": -1}, ("master_seed: must lie in [0, 2^64), got -1",)),
    (
        "master_seed_too_large",
        {"master_seed": 2**64},
        ("master_seed: must lie in [0, 2^64), got 18446744073709551616",),
    ),
    ("output_dir_not_a_string", {"output_dir": 5}, ("output_dir: must be a string path, got 5",)),
    # params
    ("params_missing", {"params": _DROP}, ("params: missing required section",)),
    ("params_null", {"params": None}, ("params: missing required section",)),
    ("params_number", {"params": 5}, ("params: must be an object",)),
    ("params_list", {"params": []}, ("params: must be an object",)),
    ("params_unknown_field", {"params.friction": 1.0}, ("params.friction: unknown field",)),
    (
        "params_unknown_field_keeps_params",
        {"params.friction": 1.0, "schedule": "flat2"},
        ("params.friction: unknown field", "schedule: flat2 needs substeps == 1, got 2"),
    ),
    (
        "params_fields_missing",
        {"params.gamma": _DROP, "params.inv_beta": _DROP, "params.dt": _DROP},
        (
            "params.gamma: missing required field",
            "params.inv_beta: missing required field",
            "params.dt: missing required field",
        ),
    ),
    (
        "params_gamma_string",
        {"params.gamma": "fast"},
        ("params.gamma: must be a finite number, got 'fast'",),
    ),
    (
        "params_gamma_bool",
        {"params.gamma": True},
        ("params.gamma: must be a finite number, got True",),
    ),
    (
        "params_gamma_null",
        {"params.gamma": None},
        ("params.gamma: must be a finite number, got None",),
    ),
    (
        "params_gamma_infinite",
        {"params.gamma": _INF},
        ("params.gamma: must be a finite number, got inf",),
    ),
    (
        "params_gamma_beyond_float_range",
        {"params.gamma": 10**400},
        (f"params.gamma: must be a finite number, got {10**400}",),
    ),
    (
        "params_substeps_float",
        {"params.substeps": 2.0},
        ("params.substeps: must be an integer, got 2.0",),
    ),
    ("params_substeps_zero", {"params.substeps": 0}, ("params.substeps: must be >= 1, got 0",)),
    (
        "params_substeps_default",
        {"params.substeps": _DROP, "schedule": [3.0, 1.0, 1.0]},
        ("schedule: lists 2 substeps, params.substeps is 1",),
    ),
    (
        "params_dt_negative",
        {"params.dt": -0.1},
        ("params: dt must be positive and finite, got -0.1",),
    ),
    (
        "params_gamma_dt_too_large",
        {"params.gamma": 50.0},
        (
            "params: gamma * dt must stay below 2 so the half-step damping 1 - gamma*dt/2 stays "
            "positive: got 2.5",
        ),
    ),
    (
        "params_mass_empty",
        {"params.mass": []},
        ("params.mass: must be a non-empty list of finite numbers",),
    ),
    (
        "params_mass_string",
        {"params.mass": "heavy"},
        ("params.mass: must be a non-empty list of finite numbers",),
    ),
    ("params_mass_null", {"params.mass": None}, ()),
    (
        "params_mass_invalid_keeps_params",
        {"params.mass": [], "schedule": "flat2"},
        (
            "params.mass: must be a non-empty list of finite numbers",
            "schedule: flat2 needs substeps == 1, got 2",
        ),
    ),
    (
        "params_mass_length",
        {"params.mass": [1.0, 2.0]},
        ("params.mass: has 2 components, initial.q has 1",),
    ),
    # schedule
    ("schedule_missing", {"schedule": _DROP}, ("schedule: missing required field",)),
    (
        "schedule_unknown",
        {"schedule": "fast"},
        ("schedule: expected 'identity', 'robust', 'flat2', or a weight list",),
    ),
    (
        "schedule_null",
        {"schedule": None},
        ("schedule: expected 'identity', 'robust', 'flat2', or a weight list",),
    ),
    (
        "schedule_flat2_needs_one_substep",
        {"schedule": "flat2"},
        ("schedule: flat2 needs substeps == 1, got 2",),
    ),
    ("schedule_flat2_one_substep", {"schedule": "flat2", "params.substeps": 1}, ()),
    (
        "schedule_list_length",
        {"schedule": [3.0, 1.0]},
        ("schedule: lists 1 substeps, params.substeps is 2",),
    ),
    (
        "schedule_list_empty",
        {"schedule": []},
        ("schedule: must be a non-empty list of finite numbers",),
    ),
    (
        "schedule_list_entries",
        {"schedule": [1.0, "a", 1.0]},
        ("schedule: must be a non-empty list of finite numbers",),
    ),
    (
        "schedule_list_single_weight",
        {"schedule": [1.0], "params.substeps": 1},
        ("schedule: a schedule needs at least C_0 and C_1 (substeps >= 1)",),
    ),
    (
        "schedule_list_negative_weight",
        {"schedule": [1.0, -1.0, 1.0]},
        ("schedule: schedule weight C_1 must be positive, got -1.0",),
    ),
    (
        "schedule_with_invalid_substeps",
        {"schedule": "flat2", "params.substeps": 0},
        ("params.substeps: must be >= 1, got 0",),
    ),
    # potential section
    ("potential_missing", {"potential": _DROP}, ("potential: missing required section",)),
    (
        "potential_missing_sequential",
        {"experiment": "sequential", "potential": _DROP},
        ("potential: missing required section",),
    ),
    ("potential_missing_temperature", {"experiment": "temperature", "potential": _DROP}, ()),
    ("potential_null", {"potential": None}, ("potential: missing required section",)),
    ("potential_number", {"potential": 5}, ("potential: must be an object",)),
    ("potential_unknown_field", {"potential.medium": 1.0}, ("potential.medium: unknown field",)),
    (
        "potential_fine_missing",
        {"potential.fine": _DROP},
        ("potential.fine: missing required field",),
    ),
    (
        "potential_coarse_missing",
        {"potential.coarse": _DROP},
        ("potential.coarse: missing required field",),
    ),
    (
        "potential_coarse_missing_sequential",
        {"experiment": "sequential", "potential.coarse": _DROP},
        (),
    ),
    (
        "potential_fine_number",
        {"potential.fine": 5},
        ("potential.fine: must be an object with a 'kind' field",),
    ),
    (
        "potential_fine_null",
        {"potential.fine": None},
        ("potential.fine: must be an object with a 'kind' field",),
    ),
    (
        "potential_kind_unknown",
        {"potential.fine.kind": "triple_well"},
        ("potential.fine.kind: unknown potential kind 'triple_well'",),
    ),
    (
        "potential_kind_missing",
        {"potential.fine.kind": _DROP},
        ("potential.fine.kind: unknown potential kind None",),
    ),
    (
        "potential_kind_not_a_string",
        {"potential.fine.kind": ["free"]},
        ("potential.fine.kind: unknown potential kind ['free']",),
    ),
    (
        "potential_unknown_spec_field",
        {"potential.fine.c": 1.0},
        ("potential.fine.c: unknown field",),
    ),
    (
        "potential_unknown_spec_field_keeps_potential",
        {"potential.fine": {"kind": "harmonic", "k": [1.0, 2.0], "c": 1.0}},
        (
            "potential.fine.c: unknown field",
            "initial.q: dimension 1 does not match potential.fine dimension 2",
        ),
    ),
    (
        "potential_free_unknown_field",
        {"potential.fine": {"kind": "free", "k": 1.0}},
        ("potential.fine.k: unknown field",),
    ),
    (
        "potential_cost_fine_string",
        {"potential.cost_fine": "x"},
        ("potential.cost_fine: must be a finite number, got 'x'",),
    ),
    (
        "potential_cost_fine_null",
        {"potential.cost_fine": None},
        ("potential.cost_fine: must be a finite number, got None",),
    ),
    (
        "potential_cost_fine_falls_back_to_default",
        {"potential.cost_fine": "x", "potential.cost_coarse": 2.0},
        (
            "potential.cost_fine: must be a finite number, got 'x'",
            "potential: cost_fine must be >= cost_coarse",
        ),
    ),
    (
        "potential_cost_coarse_zero",
        {"potential.cost_coarse": 0},
        ("potential: cost_coarse must be positive",),
    ),
    (
        "potential_cost_fine_below_coarse",
        {"potential.cost_fine": 0.5},
        ("potential: cost_fine must be >= cost_coarse",),
    ),
    (
        "potential_pair_dimensions",
        {
            "potential.fine": {"kind": "harmonic", "k": [1.0, 2.0]},
            "potential.coarse": {"kind": "harmonic", "k": [1.0, 2.0, 3.0]},
        },
        (
            "potential: fine and coarse potentials have incompatible dimensions",
            "initial.q: dimension 1 does not match potential.fine dimension 2",
            "initial.q: dimension 1 does not match potential.coarse dimension 3",
        ),
    ),
    (
        "potential_dimension_cross_check",
        {
            "potential.fine": {"kind": "harmonic", "k": [1.0, 2.0]},
            "potential.coarse": {"kind": "harmonic", "k": [1.0, 1.5]},
        },
        (
            "initial.q: dimension 1 does not match potential.fine dimension 2",
            "initial.q: dimension 1 does not match potential.coarse dimension 2",
        ),
    ),
    # potential kinds: value checks stay in the constructors
    (
        "harmonic_k_negative",
        {"potential.fine": {"kind": "harmonic", "k": -1.0}},
        ("potential.fine: k must be positive",),
    ),
    ("double_well_a_list", {"potential.fine": {"kind": "double_well", "a": [1.0], "b": 1.0}}, ()),
    (
        "double_well_dimensions",
        {"potential.fine": {"kind": "double_well", "a": [1.0], "b": [1.0, 2.0]}},
        ("potential.fine: a and b have inconsistent dimensions",),
    ),
    ("lennard_jones_pair", _LJ_PAIR, ()),
    (
        "lennard_jones_epsilon_negative",
        {**_LJ_PAIR, "potential.fine.epsilon": -1.0},
        ("potential.fine: epsilon must be positive",),
    ),
    (
        "lennard_jones_one_atom",
        {**_LJ_PAIR, "potential.fine.n_atoms": 1},
        ("potential.fine: need at least 2 atoms",),
    ),
    (
        "lennard_jones_space_dim_zero",
        {**_LJ_PAIR, "potential.fine.space_dim": 0},
        ("potential.fine: space_dim must be >= 1",),
    ),
    (
        "lennard_jones_unknown_field",
        {**_LJ_PAIR, "potential.fine.r_cut": 2.5},
        ("potential.fine.r_cut: unknown field",),
    ),
    # potential kinds: the table checks each field's type
    (
        "harmonic_k_bool",
        {"potential.fine": {"kind": "harmonic", "k": True}},
        ("potential.fine.k: must be a finite number or a list of them, got True",),
    ),
    (
        "harmonic_k_string",
        {"potential.fine": {"kind": "harmonic", "k": "x"}},
        ("potential.fine.k: must be a finite number or a list of them, got 'x'",),
    ),
    (
        "harmonic_k_null",
        {"potential.fine": {"kind": "harmonic", "k": None}},
        ("potential.fine.k: must be a finite number or a list of them, got None",),
    ),
    (
        "harmonic_k_empty_list",
        {"potential.fine": {"kind": "harmonic", "k": []}},
        ("potential.fine.k: must be a non-empty list of finite numbers",),
    ),
    (
        "harmonic_k_nested_list",
        {"potential.fine": {"kind": "harmonic", "k": [[1.0]]}},
        ("potential.fine.k: must be a non-empty list of finite numbers",),
    ),
    (
        "harmonic_k_list_entry",
        {"potential.fine": {"kind": "harmonic", "k": [1.0, True]}},
        ("potential.fine.k: must be a non-empty list of finite numbers",),
    ),
    (
        "harmonic_k_infinite",
        {"potential.fine": {"kind": "harmonic", "k": _INF}},
        ("potential.fine.k: must be a finite number or a list of them, got inf",),
    ),
    (
        "double_well_a_bool_b_string",
        {"potential.fine.a": True, "potential.fine.b": "deep"},
        (
            "potential.fine.a: must be a finite number or a list of them, got True",
            "potential.fine.b: must be a finite number or a list of them, got 'deep'",
        ),
    ),
    (
        "lennard_jones_epsilon_bool",
        {**_LJ_PAIR, "potential.fine.epsilon": True},
        ("potential.fine.epsilon: must be a finite number, got True",),
    ),
    (
        "lennard_jones_sigma_string",
        {**_LJ_PAIR, "potential.fine.sigma": "x"},
        ("potential.fine.sigma: must be a finite number, got 'x'",),
    ),
    (
        "lennard_jones_sigma_list",
        {**_LJ_PAIR, "potential.fine.sigma": [1.0]},
        ("potential.fine.sigma: must be a finite number, got [1.0]",),
    ),
    (
        "lennard_jones_n_atoms_float",
        {**_LJ_PAIR, "potential.fine.n_atoms": 2.5},
        ("potential.fine.n_atoms: must be an integer, got 2.5",),
    ),
    (
        "lennard_jones_space_dim_bool",
        {**_LJ_PAIR, "potential.fine.space_dim": True},
        ("potential.fine.space_dim: must be an integer, got True",),
    ),
    # initial
    ("initial_missing", {"initial": _DROP}, ("initial: missing required section",)),
    ("initial_missing_temperature", {"experiment": "temperature", "initial": _DROP}, ()),
    ("initial_number", {"initial": 5}, ("initial: must be an object",)),
    ("initial_unknown_field", {"initial.v": [0.0]}, ("initial.v: unknown field",)),
    ("initial_q_missing", {"initial.q": _DROP}, ("initial.q: missing required field",)),
    (
        "initial_q_null",
        {"initial.q": None},
        ("initial.q: must be a non-empty list of finite numbers",),
    ),
    (
        "initial_q_empty",
        {"initial.q": []},
        ("initial.q: must be a non-empty list of finite numbers",),
    ),
    (
        "initial_q_entries",
        {"initial.q": ["a"]},
        ("initial.q: must be a non-empty list of finite numbers",),
    ),
    (
        "initial_q_invalid_skips_p",
        {"initial.q": "x", "initial.p": "y"},
        ("initial.q: must be a non-empty list of finite numbers",),
    ),
    (
        "initial_q_missing_skips_p",
        {"initial.q": _DROP, "initial.p": "y"},
        ("initial.q: missing required field",),
    ),
    (
        "initial_p_string",
        {"initial.p": "x"},
        ("initial.p: must be a non-empty list of finite numbers",),
    ),
    ("initial_p_null", {"initial.p": None}, ()),
    ("initial_p_length", {"initial.p": [0.0, 0.0]}, ("initial.p: has 2 components, q has 1",)),
    (
        "initial_p_invalid_skips_cross_checks",
        {"initial.q": [1.0, 2.0], "initial.p": "x"},
        ("initial.p: must be a non-empty list of finite numbers",),
    ),
    # parareal
    (
        "parareal_missing_adaptive",
        {"parareal": _DROP},
        (
            "parareal.delta_conv: missing required field",
            "parareal.delta_expl: missing required field",
            "parareal.n_windows: missing required field",
        ),
    ),
    (
        "parareal_missing_sequential",
        {"experiment": "sequential", "parareal": _DROP},
        ("parareal.n_windows: missing required field",),
    ),
    (
        "parareal_missing_ensemble",
        {"experiment": "ensemble", "parareal": _DROP},
        (
            "parareal.delta_conv: missing required field",
            "parareal.delta_expl: missing required field",
        ),
    ),
    ("parareal_missing_temperature", {"experiment": "temperature", "parareal": _DROP}, ()),
    ("parareal_number", {"parareal": 5}, ("parareal: must be an object",)),
    ("parareal_unknown_field", {"parareal.k_min": 1}, ("parareal.k_min: unknown field",)),
    (
        "parareal_fields_missing",
        {"parareal.n_windows": _DROP, "parareal.delta_conv": _DROP, "parareal.delta_expl": _DROP},
        (
            "parareal.n_windows: missing required field",
            "parareal.delta_conv: missing required field",
            "parareal.delta_expl: missing required field",
        ),
    ),
    (
        "parareal_delta_expl_optional_for_classic",
        {"experiment": "parareal_classic", "parareal.delta_expl": _DROP},
        (),
    ),
    (
        "parareal_n_windows_zero",
        {"parareal.n_windows": 0},
        ("parareal.n_windows: must be >= 1, got 0",),
    ),
    (
        "parareal_n_windows_float",
        {"parareal.n_windows": 10.0},
        ("parareal.n_windows: must be an integer, got 10.0",),
    ),
    (
        "parareal_n_windows_401_digits",
        {"parareal.n_windows": 10**400},
        (f"parareal.n_windows: must be <= 9007199254740992, got {10**400}",),
    ),
    (
        "parareal_n_windows_at_the_integer_bound",
        {"parareal.n_windows": 2**53},
        (),
    ),
    ("parareal_k_max_zero", {"parareal.k_max": 0}, ("parareal.k_max: must be >= 1, got 0",)),
    (
        "parareal_k_max_null",
        {"parareal.k_max": None},
        ("parareal.k_max: must be an integer, got None",),
    ),
    (
        "parareal_delta_conv_string",
        {"parareal.delta_conv": "tight"},
        ("parareal.delta_conv: must be a finite number, got 'tight'",),
    ),
    (
        "parareal_delta_conv_zero",
        {"parareal.delta_conv": 0.0},
        ("parareal.delta_conv: must be positive, got 0.0",),
    ),
    (
        "parareal_delta_expl_negative",
        {"parareal.delta_expl": -1.0},
        ("parareal.delta_expl: must be positive, got -1.0",),
    ),
    (
        "parareal_delta_expl_not_above_conv",
        {"parareal.delta_expl": 1e-09},
        ("parareal.delta_expl: must exceed delta_conv: got 1e-09 <= 1e-08",),
    ),
    (
        "parareal_positivity_after_type_checks",
        {"parareal.n_windows": 0, "parareal.delta_conv": -1.0, "parareal.k_max": "x"},
        (
            "parareal.n_windows: must be >= 1, got 0",
            "parareal.k_max: must be an integer, got 'x'",
            "parareal.delta_conv: must be positive, got -1.0",
        ),
    ),
    # sweep
    (
        "sweep_missing",
        {"experiment": "gain_sweep", "sweep": _DROP},
        ("sweep: missing required section",),
    ),
    ("sweep_number", {"experiment": "gain_sweep", "sweep": 5}, ("sweep: must be an object",)),
    (
        "sweep_unknown_field",
        {"experiment": "gain_sweep", "sweep.gamma": [0.5]},
        ("sweep.gamma: unknown field",),
    ),
    (
        "sweep_grids_missing",
        {
            "experiment": "gain_sweep",
            "sweep.dt": _DROP,
            "sweep.delta_conv": _DROP,
            "sweep.delta_expl": _DROP,
        },
        (
            "sweep.dt: missing required grid",
            "sweep.delta_conv: missing required grid",
            "sweep.delta_expl: missing required grid",
        ),
    ),
    (
        "sweep_grid_empty",
        {"experiment": "gain_sweep", "sweep.dt": []},
        ("sweep.dt: must be a non-empty list of finite numbers",),
    ),
    (
        "sweep_grid_null",
        {"experiment": "gain_sweep", "sweep.delta_conv": None},
        ("sweep.delta_conv: must be a non-empty list of finite numbers",),
    ),
    (
        "sweep_dt_not_positive",
        {"experiment": "gain_sweep", "sweep.dt": [0.05, 0.0, -1.0]},
        ("sweep.dt[1]: must be positive, got 0.0", "sweep.dt[2]: must be positive, got -1.0"),
    ),
    (
        "sweep_gamma_dt_too_large",
        {"experiment": "gain_sweep", "sweep.dt": [0.05, 4.0]},
        ("sweep.dt[1]: gamma * dt must stay below 2, got 2.0",),
    ),
    (
        "sweep_gamma_dt_without_params",
        {"experiment": "gain_sweep", "sweep.dt": [0.05, 4.0], "params.gamma": "x"},
        ("params.gamma: must be a finite number, got 'x'",),
    ),
    (
        "sweep_deltas_not_positive",
        {
            "experiment": "gain_sweep",
            "sweep.delta_conv": [-1e-08, 1e-08],
            "sweep.delta_expl": [0.0, 0.35],
        },
        (
            "sweep.delta_conv[0]: must be positive, got -1e-08",
            "sweep.delta_expl[0]: must be positive, got 0.0",
            "sweep.delta_expl: every value must exceed every delta_conv: got 0.0 <= 1e-08",
        ),
    ),
    (
        "sweep_thresholds_ordered",
        {"experiment": "gain_sweep", "sweep.delta_conv": [1e-08, 0.4]},
        ("sweep.delta_expl: every value must exceed every delta_conv: got 0.35 <= 0.4",),
    ),
    (
        "sweep_checked_when_present",
        {"sweep": {"dt": []}},
        (
            "sweep.dt: must be a non-empty list of finite numbers",
            "sweep.delta_conv: missing required grid",
            "sweep.delta_expl: missing required grid",
        ),
    ),
    # ensemble
    (
        "ensemble_missing",
        {"experiment": "ensemble", "ensemble": _DROP},
        ("ensemble: missing required section",),
    ),
    (
        "ensemble_number",
        {"experiment": "ensemble", "ensemble": 5},
        ("ensemble: must be an object",),
    ),
    (
        "ensemble_unknown_field",
        {"experiment": "ensemble", "ensemble.members": 3},
        ("ensemble.members: unknown field",),
    ),
    (
        "ensemble_fields_missing",
        {
            "experiment": "ensemble",
            "ensemble.size": _DROP,
            "ensemble.segment_windows": _DROP,
            "ensemble.basin_starts": _DROP,
        },
        (
            "ensemble.size: missing required field",
            "ensemble.segment_windows: missing required field",
            "ensemble.basin_starts: must be a non-empty list of position lists",
        ),
    ),
    (
        "ensemble_size_one",
        {"experiment": "ensemble", "ensemble.size": 1},
        ("ensemble.size: must be >= 2, got 1",),
    ),
    (
        "ensemble_size_bool",
        {"experiment": "ensemble", "ensemble.size": True},
        ("ensemble.size: must be an integer, got True",),
    ),
    (
        "ensemble_size_past_the_integer_bound",
        {"experiment": "ensemble", "ensemble.size": 2**53 + 1},
        ("ensemble.size: must be <= 9007199254740992, got 9007199254740993",),
    ),
    (
        "ensemble_segment_zero",
        {"experiment": "ensemble", "ensemble.segment_windows": 0},
        ("ensemble.segment_windows: must be >= 1, got 0",),
    ),
    (
        "ensemble_optional_ints_invalid",
        {
            "experiment": "ensemble",
            "ensemble.thermalization_windows": -1,
            "ensemble.min_run": 0,
            "ensemble.histogram_bin_width": 2.5,
        },
        (
            "ensemble.thermalization_windows: must be >= 0, got -1",
            "ensemble.min_run: must be >= 1, got 0",
            "ensemble.histogram_bin_width: must be an integer, got 2.5",
        ),
    ),
    (
        "ensemble_basin_starts_empty",
        {"experiment": "ensemble", "ensemble.basin_starts": []},
        ("ensemble.basin_starts: must be a non-empty list of position lists",),
    ),
    (
        "ensemble_basin_starts_null",
        {"experiment": "ensemble", "ensemble.basin_starts": None},
        ("ensemble.basin_starts: must be a non-empty list of position lists",),
    ),
    (
        "ensemble_basin_starts_entry",
        {"experiment": "ensemble", "ensemble.basin_starts": [[-1.0], "x", []]},
        (
            "ensemble.basin_starts[1]: must be a non-empty list of finite numbers",
            "ensemble.basin_starts[2]: must be a non-empty list of finite numbers",
        ),
    ),
    (
        "ensemble_basin_starts_inconsistent",
        {"experiment": "ensemble", "ensemble.basin_starts": [[-1.0], [1.0, 0.0]]},
        ("ensemble.basin_starts: entries have inconsistent dimensions",),
    ),
    (
        "ensemble_basin_starts_dimension",
        {"experiment": "ensemble", "ensemble.basin_starts": [[-1.0, 0.0], [1.0, 0.0]]},
        ("ensemble.basin_starts: entries must have dimension 1",),
    ),
    (
        "ensemble_basin_starts_checked_after_ints",
        {"experiment": "ensemble", "ensemble.size": 0, "ensemble.basin_starts": []},
        (
            "ensemble.size: must be >= 2, got 0",
            "ensemble.basin_starts: must be a non-empty list of position lists",
        ),
    ),
    # temperature
    (
        "temperature_missing",
        {"experiment": "temperature", "temperature": _DROP},
        ("temperature: missing required section",),
    ),
    (
        "temperature_number",
        {"experiment": "temperature", "temperature": 5},
        ("temperature: must be an object",),
    ),
    (
        "temperature_unknown_field",
        {"experiment": "temperature", "temperature.thermostat": "bbk"},
        ("temperature.thermostat: unknown field",),
    ),
    (
        "temperature_n_windows_missing",
        {"experiment": "temperature", "temperature.n_windows": _DROP},
        ("temperature.n_windows: missing required field",),
    ),
    (
        "temperature_n_windows_zero",
        {"experiment": "temperature", "temperature.n_windows": 0},
        ("temperature.n_windows: must be >= 1, got 0",),
    ),
    (
        "temperature_n_windows_401_digits",
        {"experiment": "temperature", "temperature.n_windows": 10**400},
        (f"temperature.n_windows: must be <= 9007199254740992, got {10**400}",),
    ),
    (
        "temperature_dimension_zero",
        {"experiment": "temperature", "temperature.dimension": 0},
        ("temperature.dimension: must be >= 1, got 0",),
    ),
    (
        "temperature_burn_in_string",
        {"experiment": "temperature", "temperature.burn_in": "x"},
        ("temperature.burn_in: must be a finite number, got 'x'",),
    ),
    (
        "temperature_burn_in_one",
        {"experiment": "temperature", "temperature.burn_in": 1.0},
        ("temperature.burn_in: must lie in [0, 1), got 1.0",),
    ),
    (
        "temperature_burn_in_negative",
        {"experiment": "temperature", "temperature.burn_in": -0.1},
        ("temperature.burn_in: must lie in [0, 1), got -0.1",),
    ),
    (
        "temperature_sampling_unknown",
        {"experiment": "temperature", "temperature.sampling": "sometimes"},
        ("temperature.sampling: must be 'all_substeps' or 'window_ends', got 'sometimes'",),
    ),
    (
        "temperature_sampling_null",
        {"experiment": "temperature", "temperature.sampling": None},
        ("temperature.sampling: must be 'all_substeps' or 'window_ends', got None",),
    ),
    (
        "temperature_sampling_window_ends",
        {"experiment": "temperature", "temperature.sampling": "window_ends"},
        (),
    ),
    (
        "temperature_burn_in_before_sampling",
        {"experiment": "temperature", "temperature.burn_in": 1.5, "temperature.sampling": "x"},
        (
            "temperature.burn_in: must lie in [0, 1), got 1.5",
            "temperature.sampling: must be 'all_substeps' or 'window_ends', got 'x'",
        ),
    ),
    (
        "temperature_dimension_vs_mass",
        {"experiment": "temperature", "params.mass": [1.0, 1.0]},
        (
            "params.mass: has 2 components, initial.q has 1",
            "temperature.dimension: is 3, params.mass has 2 components",
        ),
    ),
    (
        "temperature_dimension_vs_potential",
        {
            "experiment": "temperature",
            "initial": _DROP,
            "potential.fine": {"kind": "double_well", "a": [1.0, 1.2], "b": 1.0},
            "temperature.dimension": 1,
        },
        ("temperature.dimension: is 1, potential.fine has dimension 2",),
    ),
    # several sections at once: every error, in section order
    (
        "every_error_in_section_order",
        {
            "master_seed": _DROP,
            "params.gamma": "fast",
            "potential.fine.kind": "triple_well",
            "parareal.n_windows": 0,
            "zzz": 1,
            "output_dir": 1,
        },
        (
            "zzz: unknown field",
            "master_seed: missing required field (an integer in [0, 2^64))",
            "params.gamma: must be a finite number, got 'fast'",
            "potential.fine.kind: unknown potential kind 'triple_well'",
            "parareal.n_windows: must be >= 1, got 0",
            "output_dir: must be a string path, got 1",
        ),
    ),
]


class TestMessageTable:
    @pytest.mark.parametrize(
        "changes, expected", [pytest.param(c, e, id=i) for i, c, e in _MESSAGE_TABLE]
    )
    def test_messages(self, tmp_path, changes, expected):
        path = _write(tmp_path, _changed_config(changes))
        try:
            validate_config(path)
        except ConfigError as exc:
            assert exc.errors == expected
        else:
            assert expected == ()

    @pytest.mark.parametrize(
        "text, expected",
        [
            (None, "{path}: [Errno 2] No such file or directory: '{path}'"),
            ("[1, 2]", "{path}: top level must be a JSON object"),
            ('{\n  "experiment": oops\n}', "{path}:2:17: Expecting value"),
            # past the digit limit of int(), which json.loads uses for integers
            (
                json.dumps(_base_config()).replace('"gamma": 0.5', '"gamma": ' + "9" * 5000),
                "params.gamma: must be a finite number, got inf",
            ),
        ],
        ids=["file_missing", "file_not_an_object", "file_not_json", "file_integer_too_long"],
    )
    def test_file_messages(self, tmp_path, text, expected):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert _errors_of(path) == (expected.format(path=path),)

    def test_absent_fields_take_their_defaults(self, tmp_path):
        changes = {
            "experiment": "ensemble",
            "params.substeps": _DROP,
            "schedule": "flat2",
            "potential.cost_fine": _DROP,
            "potential.cost_coarse": _DROP,
        }
        cfg = validate_config(_write(tmp_path, _changed_config(changes), "ensemble.json"))
        assert (cfg.params.substeps, cfg.params.mass) == (1, None)
        assert (cfg.cost_fine, cfg.cost_coarse) == (1.0, 1.0)
        assert cfg.initial.p.tolist() == [0.0]
        assert cfg.k_max is None
        spec = cfg.ensemble
        assert (spec.thermalization_windows, spec.min_run, spec.histogram_bin_width) == (0, 1, 50)

        changes = {"experiment": "temperature", "temperature.dimension": _DROP}
        cfg = validate_config(_write(tmp_path, _changed_config(changes), "temperature.json"))
        assert cfg.temperature == TemperatureSpec(
            n_windows=10, dimension=1, burn_in=0.1, sampling="all_substeps"
        )

        wells = {"kind": "harmonic"}, {"kind": "double_well"}
        changes = {"potential.fine": wells[0], "potential.coarse": wells[1]}
        cfg = validate_config(_write(tmp_path, _changed_config(changes), "wells.json"))
        assert (cfg.fine.k, cfg.coarse.a, cfg.coarse.b) == (1.0, 1.0, 1.0)

        cluster = {"kind": "lennard_jones"}
        changes = {"potential.fine": cluster, "potential.coarse": cluster, "initial.q": [0.0] * 14}
        cfg = validate_config(_write(tmp_path, _changed_config(changes), "cluster.json"))
        assert (cfg.fine.epsilon, cfg.fine.sigma, cfg.fine.n_atoms, cfg.fine.space_dim) == (
            1.0,
            1.0,
            7,
            2,
        )


class TestExitCodes:
    def test_validate_subcommand_ok(self, capsys):
        code = main(["validate", "--config", str(CONFIG_DIR / "adaptive.json")])
        assert code == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_validate_subcommand_reports_every_error(self, tmp_path, capsys):
        config = _base_config()
        del config["master_seed"]
        config["params"]["dt"] = -1.0
        code = main(["validate", "--config", str(_write(tmp_path, config))])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("config error:") >= 2

    def test_experiment_subcommand_mismatch(self, tmp_path, capsys):
        path = _write(tmp_path, _base_config("parareal_classic"))
        code = main(["adaptive", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "parareal_classic" in capsys.readouterr().err

    def test_blowup_exits_3_and_marks_manifest_incomplete(self, tmp_path, capsys):
        config = {
            "experiment": "sequential",
            "master_seed": 3,
            "params": {"gamma": 0.1, "inv_beta": 0.1, "dt": 0.5, "substeps": 20},
            "schedule": "robust",
            "potential": {"fine": {"kind": "harmonic", "k": 1e6}},
            "initial": {"q": [1.0]},
            "parareal": {"n_windows": 3},
        }
        out = tmp_path / "out"
        code = main(["sequential", "--config", str(_write(tmp_path, config)), "--out", str(out)])
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["error"]["type"] == "BlowUpError"
        assert manifest["error"]["window"] == 1
        assert "blow-up" in capsys.readouterr().err

    def test_non_convergence_exits_4_with_complete_outputs(self, tmp_path, capsys):
        config = _base_config("parareal_classic")
        config["potential"]["coarse"] = {"kind": "harmonic", "k": 0.2}
        config["parareal"] = {"n_windows": 25, "delta_conv": 1e-300, "k_max": 2}
        out = tmp_path / "out"
        code = main(["parareal", "--config", str(_write(tmp_path, config)), "--out", str(out)])
        assert code == 4
        result = json.loads((out / "result.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert result["converged"] is False
        assert result["gain"] is None
        assert manifest["status"] == "complete"
        capsys.readouterr()

    _COLLAPSE = "slab 1 exploded at its first window 1; no shorter slab exists"
    _SWEEP_ABORT = (
        "sweep combination dt=0.05, delta_conv=1e-08, delta_expl=0.35 "
        "did not converge within the iteration cap"
    )
    _MEMBER_ABORT = "ensemble member 0 did not converge within the iteration cap"
    _TOO_FEW = "need at least 2 complete residence events, got 0"

    @pytest.mark.parametrize(
        "command, changes, code, line, error",
        [
            (
                "adaptive",
                {"parareal.delta_conv": 1e-10, "parareal.delta_expl": 1e-9},
                3,
                f"numerical failure: {_COLLAPSE}",
                {"type": "SlabCollapseError", "message": _COLLAPSE},
            ),
            (
                "sweep",
                {"experiment": "gain_sweep", "parareal.k_max": 1},
                4,
                f"non-convergence: {_SWEEP_ABORT}",
                {"type": "_NonConvergenceAbort", "message": _SWEEP_ABORT},
            ),
            (
                "ensemble",
                {"experiment": "ensemble", "parareal.k_max": 1},
                4,
                f"non-convergence: {_MEMBER_ABORT}",
                {"type": "_NonConvergenceAbort", "message": _MEMBER_ABORT},
            ),
            (
                "ensemble",
                {"experiment": "ensemble", "ensemble.segment_windows": 5},
                2,
                f"insufficient data: {_TOO_FEW} (lengthen segment_windows or enlarge the ensemble)",
                {"type": "InsufficientDataError", "message": _TOO_FEW},
            ),
        ],
        ids=["slab-collapse", "sweep-abort", "ensemble-abort", "insufficient-data"],
    )
    def test_failure_exit_line_and_manifest(
        self, tmp_path, capsys, command, changes, code, line, error
    ):
        out = tmp_path / "out"
        path = _write(tmp_path, _changed_config(changes))
        assert main([command, "--config", str(path), "--out", str(out)]) == code
        assert capsys.readouterr().err == line + "\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["error"] == error
        assert manifest["outputs"] == []
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize(
        "relative, reason",
        [("taken", errno.EEXIST), ("taken/run", errno.ENOTDIR)],
        ids=["out-is-a-file", "parent-is-a-file"],
    )
    def test_output_dir_that_cannot_be_created_exits_2(self, tmp_path, capsys, relative, reason):
        (tmp_path / "taken").write_text("a file")
        path = _write(tmp_path, _base_config())
        out = tmp_path / relative
        assert main(["adaptive", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: output_dir: cannot create {out}: {os.strerror(reason)}\n"
        )
        assert (tmp_path / "taken").read_text() == "a file"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.json", "taken"]

    def test_integer_past_the_bound_exits_2(self, tmp_path, capsys):
        changes = {"experiment": "temperature", "temperature.n_windows": 10**400}
        path = _write(tmp_path, _changed_config(changes))
        code = main(["temperature", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "temperature.n_windows: must be <= 9007199254740992" in capsys.readouterr().err

    def test_missing_output_dir_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, _base_config())
        code = main(["adaptive", "--config", str(path)])
        assert code == 2
        assert "output_dir" in capsys.readouterr().err

    def test_seed_override_out_of_range_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, _base_config())
        code = main(
            ["adaptive", "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "-1"]
        )
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_workers_below_one_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, _base_config())
        code = main(
            ["adaptive", "--config", str(path), "--out", str(tmp_path / "o"), "--workers", "0"]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
    def test_unexpected_exception_marks_manifest_failed_and_propagates(
        self, tmp_path, monkeypatch, exc_type
    ):
        seen = []

        def runner(cfg, out_dir, outputs):
            seen.append(json.loads((out_dir / "manifest.json").read_text())["status"])
            raise exc_type("stopped in the runner")

        row = cli.EXPERIMENTS["sequential"]._replace(run=runner)
        monkeypatch.setitem(cli.EXPERIMENTS, "sequential", row)
        out = tmp_path / "out"
        path = _write(tmp_path, json.loads((CONFIG_DIR / "sequential.json").read_text()))
        with pytest.raises(exc_type, match="stopped in the runner"):
            main(["sequential", "--config", str(path), "--out", str(out)])
        assert seen == ["running"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {
            "type": exc_type.__name__,
            "message": "stopped in the runner",
        }
        assert manifest["outputs"] == []
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json"]

    def test_console_script_is_installed(self):
        """Run the script on PATH if any, else the `[project.scripts]` entry point in a child as its wrapper would."""
        command, env = _console_command()
        proc = subprocess.run(
            [*command, "validate", "--config", str(CONFIG_DIR / "sequential.json")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ok:")

    def test_module_run_has_no_runpy_warning(self):
        """`python -m paralangevin.cli` must not find `cli` imported by the package."""
        proc = subprocess.run(
            [sys.executable, "-m", "paralangevin.cli", "validate",
             "--config", str(CONFIG_DIR / "adaptive.json")],
            capture_output=True,
            text=True,
            env=_package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_temperature_run_imports_no_scipy(self, tmp_path):
        """numpy is the only runtime dependency: a `temperature` run loads no scipy module."""
        config = json.loads((CONFIG_DIR / "temperature.json").read_text())
        config["temperature"]["n_windows"] = 100
        path = _write(tmp_path, config)
        code = (
            "import sys; from paralangevin.cli import main; "
            f"code = main(['temperature', '--config', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(code)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


def _console_command() -> tuple[list[str], dict[str, str] | None]:
    """Command and environment that start the `paralangevin` console command.

    An installed script on the PATH is used as is.  Without one, the child
    runs what a pip/setuptools console wrapper runs for the entry point that
    `pyproject.toml` declares, importing the package the tests imported.
    """
    script = shutil.which("paralangevin")
    if script is not None:
        return [script], None
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["paralangevin"]
    module, func = entry.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code], _package_env()


def _package_env() -> dict[str, str]:
    """This environment with the tested package's root first on PYTHONPATH."""
    package_root = str(Path(paralangevin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def _run(tmp_path, config, command, out_name, *extra):
    out = tmp_path / out_name
    path = _write(tmp_path, config, name=f"{out_name}.json")
    code = main([command, "--config", str(path), "--out", str(out), *extra])
    return code, out


class TestRunners:
    def test_sequential_writes_trajectory_and_result(self, tmp_path, capsys):
        config = _base_config("sequential")
        config["potential"] = {"fine": {"kind": "double_well", "a": 1.0, "b": 1.0}}
        config["parareal"] = {"n_windows": 5}
        code, out = _run(tmp_path, config, "sequential", "out")
        assert code == 0
        trajectory = read_trajectory_csv(out / "trajectory.csv")
        result = json.loads((out / "result.json").read_text())
        assert trajectory.n_windows == 5
        assert result["final"]["q"] == list(trajectory[5].q)
        assert result["final"]["p"] == list(trajectory[5].p)
        capsys.readouterr()

    def test_temperature_reports_biased_kinetic_temperature(self, tmp_path, capsys):
        config = {
            "experiment": "temperature",
            "master_seed": 5,
            "params": {"gamma": 0.05, "inv_beta": 1.0, "dt": 0.1, "substeps": 1},
            "schedule": "identity",
            "temperature": {"n_windows": 40000, "dimension": 16},
        }
        code, out = _run(tmp_path, config, "temperature", "out")
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["k_eq_predicted"] == pytest.approx(0.5)
        assert result["k_eq_empirical"] == pytest.approx(0.5, rel=0.1)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "schedule, substeps, expected",
        [
            ("robust", 4, 2.0),
            ("flat2", 1, 2.0),
            ([2.9, 1.1, 0.7], 2, 2.0),  # meets the flat-variance recursion up to roundoff
            ("identity", 4, 2.0 * (1.0 - 1.0 / 8.0)),
            ([2.0, 1.0, 1.0], 2, None),
        ],
    )
    def test_temperature_predicts_only_what_the_schedule_supports(
        self, tmp_path, capsys, schedule, substeps, expected
    ):
        config = {
            "experiment": "temperature",
            "master_seed": 5,
            "params": {"gamma": 0.05, "inv_beta": 2.0, "dt": 0.1, "substeps": substeps},
            "schedule": schedule,
            "temperature": {"n_windows": 200, "dimension": 2},
        }
        code, out = _run(tmp_path, config, "temperature", "out")
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["k_eq_predicted"] == expected
        capsys.readouterr()

    def test_classic_run_reports_single_slab_gain(self, tmp_path, capsys):
        code, out = _run(tmp_path, _base_config("parareal_classic"), "parareal", "out")
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["converged"] is True
        assert result["n_slab"] == 1
        assert result["slabs"][0]["n_final"] == 10
        assert result["gain"]["gain"] > 0.0
        assert result["gain"]["gain"] <= result["gain"]["ideal_gain"]
        assert (out / "history.csv").read_text().startswith("slab,iteration,delta")
        capsys.readouterr()

    def test_adaptive_run_tiles_the_range(self, tmp_path, capsys):
        config = _base_config()
        config["parareal"]["n_windows"] = 30
        code, out = _run(tmp_path, config, "adaptive", "out")
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["converged"] is True
        assert result["slabs"][0]["n_init"] == 0
        assert result["slabs"][-1]["n_final"] == 30
        capsys.readouterr()

    def test_sweep_writes_one_row_per_combination(self, tmp_path, capsys):
        config = _base_config("gain_sweep")
        config["parareal"] = {"n_windows": 20}
        config["sweep"] = {"dt": [0.05], "delta_conv": [1e-4, 1e-8], "delta_expl": [0.35]}
        code, out = _run(tmp_path, config, "sweep", "out")
        assert code == 0
        lines = (out / "gains.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(GAIN_CSV_HEADER)
        assert len(lines) == 3
        result = json.loads((out / "result.json").read_text())
        assert [row["delta_conv"] for row in result["rows"]] == [1e-4, 1e-8]
        assert all(row["gain"] > 0.0 for row in result["rows"])
        capsys.readouterr()

    def test_ensemble_reports_stats_and_histograms(self, tmp_path, capsys):
        config = {
            "experiment": "ensemble",
            "master_seed": 77,
            "params": {"gamma": 0.5, "inv_beta": 0.55, "dt": 0.05, "substeps": 2},
            "schedule": "robust",
            "potential": {
                "fine": {"kind": "double_well", "a": 0.6, "b": 1.0},
                "coarse": {"kind": "double_well", "a": 0.5, "b": 1.0},
                "cost_fine": 175.0,
                "cost_coarse": 1.0,
            },
            "initial": {"q": [-0.9]},
            "parareal": {"delta_conv": 1e-6, "delta_expl": 0.5},
            "ensemble": {
                "size": 3,
                "segment_windows": 80,
                "thermalization_windows": 5,
                "basin_starts": [[-1.0], [1.0]],
                "histogram_bin_width": 20,
            },
        }
        code, out = _run(tmp_path, config, "ensemble", "out", "--workers", "2")
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        # every labeled node lands in exactly one residence event
        nodes = 3 * (80 + 1)
        for method in ("fine", "adaptive"):
            assert sum(d for _, d in result[method]["durations"]) == nodes
            assert result[method]["n_events"] >= 2
        assert isinstance(result["comparison"]["overlap"], bool)
        assert result["mean_gain"] > 1.0
        for name in ("residence_fine.csv", "residence_adaptive.csv"):
            assert (out / name).read_text().startswith("bin_start,bin_end,count")
        capsys.readouterr()


class TestReplayDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        config = _base_config("sequential")
        config["potential"] = {"fine": {"kind": "double_well", "a": 1.0, "b": 1.0}}
        config["parareal"] = {"n_windows": 8}
        _, first = _run(tmp_path, config, "sequential", "first")
        _, second = _run(tmp_path, config, "sequential", "second")
        for name in ("trajectory.csv", "result.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        capsys.readouterr()

    def test_workers_never_change_result_files(self, tmp_path, capsys):
        config = _base_config()
        config["parareal"]["n_windows"] = 30
        _, one = _run(tmp_path, config, "adaptive", "w1", "--workers", "1")
        _, four = _run(tmp_path, config, "adaptive", "w4", "--workers", "4")
        for name in ("trajectory.csv", "history.csv", "result.json"):
            assert (one / name).read_bytes() == (four / name).read_bytes()
        capsys.readouterr()

    def test_seed_override_is_reproducible_and_effective(self, tmp_path, capsys):
        config = _base_config("sequential")
        config["potential"] = {"fine": {"kind": "double_well", "a": 1.0, "b": 1.0}}
        config["parareal"] = {"n_windows": 5}
        _, base = _run(tmp_path, config, "sequential", "base")
        _, alt1 = _run(tmp_path, config, "sequential", "alt1", "--seed", "99")
        _, alt2 = _run(tmp_path, config, "sequential", "alt2", "--seed", "99")
        assert (alt1 / "trajectory.csv").read_bytes() == (alt2 / "trajectory.csv").read_bytes()
        assert (alt1 / "trajectory.csv").read_bytes() != (base / "trajectory.csv").read_bytes()
        manifest = json.loads((alt1 / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 99
        capsys.readouterr()


def _csv_writer_history(path, history):
    """The history writer as it was written with csv.writer (frozen reference)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("slab", "iteration", "delta"))
        for slab, iteration, delta in history:
            writer.writerow((str(slab), str(iteration), format(delta, ".17g")))


def test_history_csv_bytes_equal_the_csv_writer_reference(tmp_path):
    history = [
        (1, 1, 0.0), (1, 2, -0.0), (1, 3, 5e-324), (2, 1, 1e308), (2, 2, float("inf")),
        (12, 345, 0.1), (3, 7, 1.2345678901234567e-17), (3, 8, 2.0 / 3.0),
    ]
    cli._write_history_csv(tmp_path / "new.csv", history)
    _csv_writer_history(tmp_path / "ref.csv", history)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    cli._write_history_csv(tmp_path / "empty.csv", [])
    _csv_writer_history(tmp_path / "ref_empty.csv", [])
    assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "ref_empty.csv").read_bytes()


def _frozen_jsonable(obj):
    """The report encoding as it was written by hand, one type at a time
    (frozen reference)."""
    if isinstance(obj, dict):
        return {str(k): _frozen_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_frozen_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_frozen_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


def test_json_bytes_equal_the_hand_encoding_reference(tmp_path):
    payload = {
        "f64": np.float64(0.1),
        "f32": np.float32(0.1),
        "i64": np.int64(-(2**62)),
        "specials": [np.float64("nan"), float("inf"), np.float32("-inf"), -0.0, 5e-324],
        "matrix": np.arange(6.0).reshape(2, 3) / 3.0,
        "row_f32": np.array([0.1, 2.5], dtype=np.float32),
        "row_i64": np.arange(3, dtype=np.int64),
        "empty": np.empty((0, 2)),
        "tuple": (1, (2.5, np.float64(1e-300)), [np.int64(3)], ()),
        "path": Path("out") / "run",
        "nested": {"b": [np.float32(1.5), None, True, "s"], "a": {"z": (np.int64(0),)}},
    }
    cli._write_json(tmp_path / "new.json", payload)
    reference = json.dumps(_frozen_jsonable(payload), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "new.json").read_bytes() == reference.encode()
    with pytest.raises(TypeError):
        cli._write_json(tmp_path / "bad.json", {"x": object()})
    assert sorted(f.name for f in tmp_path.iterdir()) == ["new.json"]
