"""Tests for the experiment harness: validation, runners, exit codes, replay.

Runner tests use deliberately tiny window counts; the statistical claims
live in the acceptance suite.  Byte-identity assertions compare whole file
contents, so they cover float formatting and key ordering as well.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import paralangevin
from paralangevin import ConfigError, GAIN_CSV_HEADER, read_trajectory_csv, validate_config
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

        def runner(cfg, out_dir, workers, outputs):
            seen.append(json.loads((out_dir / "manifest.json").read_text())["status"])
            raise exc_type("stopped in the runner")

        monkeypatch.setitem(cli._RUNNERS, "sequential", runner)
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
        package_root = str(Path(paralangevin.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "paralangevin.cli", "validate",
             "--config", str(CONFIG_DIR / "adaptive.json")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr


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
    package_root = str(Path(paralangevin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return [sys.executable, "-c", code], env


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
