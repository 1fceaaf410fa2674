"""Self-tests of the benchmark: each checker passes on a good output and fails
on a corrupted one; the tracer counts what it should and leaves the program
as it found it.

    python3 -m pytest -q perfbench

The outputs come from small configs run in-process, so the module takes a
few seconds.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from paralangevin import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Hotter and shorter than the ensemble-dw-w2 workload, so that two members
# already give the two complete residence events an interval needs.
SMALL_ENSEMBLE = {
    "size": 2, "segment_windows": 100, "thermalization_windows": 10, "histogram_bin_width": 10,
}


def _run(tmp: Path, name: str, command: str, cfg: dict, workers: int = 1) -> Path:
    cfg_path = tmp / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp / name
    code = cli.main([command, "--config", str(cfg_path), "--out", str(out), "--workers", str(workers)])
    assert code == 0
    return out


def _adaptive_cfg() -> dict:
    cfg = workloads.adaptive_dw()
    cfg["parareal"]["n_windows"] = 60
    return cfg


def _classic_cfg() -> dict:
    cfg = workloads.classic_lj7()
    cfg["parareal"]["n_windows"] = 12
    return cfg


def _temperature_cfg() -> dict:
    cfg = workloads.temperature_free()
    cfg["params"]["gamma"] = 0.05
    cfg["temperature"]["n_windows"] = 3000
    return cfg


def _ensemble_cfg() -> dict:
    cfg = workloads.ensemble_dw()
    cfg["params"]["inv_beta"] = 1.0
    cfg["ensemble"].update(SMALL_ENSEMBLE)
    return cfg


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    made = {}
    for name, command, cfg in (
        ("adaptive", "adaptive", _adaptive_cfg()),
        ("classic", "parareal", _classic_cfg()),
        ("temperature", "temperature", _temperature_cfg()),
        ("ensemble", "ensemble", _ensemble_cfg()),
    ):
        out = _run(tmp, name, command, cfg)
        reference = None
        if name in ("adaptive", "classic"):
            seq = _run(tmp, f"{name}-sequential", "sequential", dict(cfg, experiment="sequential"))
            reference = checks.read_trajectory(seq / "trajectory.csv")
        made[name] = (out, cfg, reference)
    return made


@pytest.fixture
def copy_of(outputs, tmp_path):
    def copy(name: str):
        out, cfg, reference = outputs[name]
        target = tmp_path / name
        shutil.copytree(out, target)
        return target, cfg, reference

    return copy


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("name", ["adaptive", "classic", "temperature", "ensemble"])
def test_good_output_passes(outputs, name):
    out, cfg, reference = outputs[name]
    assert checks.CHECKERS[cfg["experiment"]](out, cfg, reference) == []


@pytest.mark.parametrize("name", ["adaptive", "classic"])
def test_perturbed_trajectory_node_fails(copy_of, name):
    out, cfg, reference = copy_of(name)

    def nudge(rows):
        rows[7][2] = format(float(rows[7][2]) + 1e-4, ".17g")

    _edit_csv(out / "trajectory.csv", nudge)
    problems = checks.check_parareal(out, cfg, reference)
    assert any("node 6" in p for p in problems)


@pytest.mark.parametrize("name", ["adaptive", "classic"])
def test_gain_changed_in_sixth_digit_fails(copy_of, name):
    out, cfg, reference = copy_of(name)

    def bump(result):
        gain = result["gain"]["gain"]
        result["gain"]["gain"] = gain + 10.0 ** (math.floor(math.log10(gain)) - 5)

    _edit_json(out / "result.json", bump)
    problems = checks.check_parareal(out, cfg, reference)
    assert any(p.startswith("gain: gain") for p in problems)


def test_untiled_slabs_fail(copy_of):
    out, cfg, reference = copy_of("adaptive")
    _edit_json(out / "result.json", lambda r: r["slabs"][0].update(n_init=1))
    problems = checks.check_parareal(out, cfg, reference)
    assert "slabs: the first slab does not start at window 0" in problems


def test_unconverged_fails(copy_of):
    out, cfg, reference = copy_of("classic")
    _edit_json(out / "result.json", lambda r: r.update(converged=False))
    assert checks.check_parareal(out, cfg, reference) == ["result: converged is not true"]


def test_temperature_variance_off_by_four_percent_fails(copy_of):
    out, cfg, _ = copy_of("temperature")
    _edit_json(
        out / "result.json",
        lambda r: r["per_substep_variance"].__setitem__(3, 1.04 * cfg["params"]["inv_beta"]),
    )
    assert any("per_substep_variance[3]" in p for p in checks.check_temperature(out, cfg))


def test_temperature_burn_in_off_by_one_fails(copy_of):
    out, cfg, _ = copy_of("temperature")
    _edit_json(out / "result.json", lambda r: r.update(n_burn_in=r["n_burn_in"] + 1))
    assert any("n_burn_in" in p for p in checks.check_temperature(out, cfg))


def test_histogram_count_moved_fails(copy_of):
    out, cfg, _ = copy_of("ensemble")

    def move(rows):
        counts = [int(r[2]) for r in rows[1:]]
        src = next(i for i, c in enumerate(counts) if c > 0)
        dst = (src + 1) % len(counts) if len(counts) > 1 else src
        assert dst != src, "need two bins to move a count between"
        rows[1 + src][2] = str(counts[src] - 1)
        rows[1 + dst][2] = str(counts[dst] + 1)

    _edit_csv(out / "residence_fine.csv", move)
    assert checks.check_ensemble(out, cfg) == [
        "residence_fine.csv: the bins disagree with the complete events"
    ]


def test_ensemble_intervals_that_miss_fail(copy_of):
    out, cfg, _ = copy_of("ensemble")

    def shift(result):
        width = result["adaptive"]["ci_high"] - result["adaptive"]["ci_low"]
        for key in ("mean", "ci_low", "ci_high"):
            result["adaptive"][key] += 2 * width + 1

    _edit_json(out / "result.json", shift)
    assert any("overlap" in p for p in checks.check_ensemble(out, cfg))


def test_ensemble_result_files_identical_at_one_and_two_workers(tmp_path):
    cfg = _ensemble_cfg()
    one = _run(tmp_path, "w1", "ensemble", cfg, workers=1)
    two = _run(tmp_path, "w2", "ensemble", cfg, workers=2)
    assert checks.file_hashes(one) == checks.file_hashes(two)
    assert set(checks.file_hashes(one)) == {"result.json", "residence_fine.csv", "residence_adaptive.csv"}


def test_hexagon_is_a_stationary_point_of_the_fine_cluster():
    from paralangevin.potentials import LennardJonesCluster

    grad = LennardJonesCluster(n_atoms=7, space_dim=2).gradient(workloads.hexagon_positions())
    assert max(abs(g) for g in grad) < 1e-9


def test_tracer_counts_and_restores(tmp_path):
    from paralangevin import integrator, parareal, potentials, rng

    watched = [
        (cli, "parareal_adaptive"), (cli, "validate_config"), (cli, "ThreadPoolExecutor"),
        (parareal, "propagate_window"), (integrator, "gaussian_stream"), (rng, "derive_seeds"),
    ]
    before = [getattr(owner, attr) for owner, attr in watched]
    gradient = potentials.DoubleWell.__dict__["gradient"]
    for_windows = rng.NoisePlan.__dict__["for_windows"]

    tracer = Tracer()
    tracer.install(cli)
    try:
        cfg = _adaptive_cfg()
        out = _run(tmp_path, "traced", "adaptive", cfg)
    finally:
        tracer.uninstall()

    assert [getattr(owner, attr) for owner, attr in watched] == before
    assert potentials.DoubleWell.__dict__["gradient"] is gradient
    assert rng.NoisePlan.__dict__["for_windows"] is for_windows

    n = cfg["parareal"]["n_windows"]
    summary = tracer.summary()
    result = json.loads((out / "result.json").read_text())
    assert summary["parareal.iterations"] == result["total_iterations"]
    assert summary["parareal.slabs"] == result["n_slab"]
    windows = summary["integrator.fine_windows"] + summary["integrator.coarse_windows"]
    assert summary["parareal.windows_per_node"] == windows / n
    # one 3-variate stream per window, three gradients per L=2 window
    assert summary["rng.variates"] == 3 * windows
    assert summary["potentials.gradient_calls"] == 3 * windows
    # the plan derives its seeds, then derives them again to validate them
    assert summary["rng.seeds_derived"] == 2 * n
    assert summary["rng.calls"] == windows + 1
    assert all(summary[f"{layer}.self_s"] >= 0.0 for layer in ("rng", "integrator", "parareal"))
