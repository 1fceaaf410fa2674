"""Golden hashes: every result file of every shipped experiment, byte for byte.

Each case runs the CLI into a temporary directory and compares the sha256 of
every output file except ``manifest.json`` (which holds a timestamp) with a
digest recorded from an earlier revision of the code.  A refactor that keeps
these digests keeps every result byte; a change that moves one on purpose
must re-record it and say why.

Slow configs are reduced so the whole file stays within a few seconds; each
reduction is stated next to its case.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from paralangevin.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Flat (x0, y0, x1, y1, ...) coordinates of the centred 7-atom hexagon at the
# spacing where it is a minimum of the sigma = 1 Lennard-Jones energy: the
# centre first, then the ring at angles k * 60 degrees.
HEXAGON_Q = [
    0.0, 0.0,
    1.1184600639400135, 0.0,
    0.5592300319700069, 0.9686148284904192,
    -0.5592300319700065, 0.9686148284904194,
    -1.1184600639400135, 1.3697185372782815e-16,
    -0.5592300319700072, -0.968614828490419,
    0.5592300319700069, -0.9686148284904192,
]


def _shipped(name: str) -> dict:
    return json.loads((CONFIG_DIR / name).read_text())


def _adaptive() -> dict:
    cfg = _shipped("adaptive.json")
    cfg["parareal"]["n_windows"] = 200  # shipped: 800
    return cfg


def _ensemble() -> dict:
    cfg = _shipped("ensemble.json")
    cfg["ensemble"]["size"] = 4  # shipped: 50
    cfg["ensemble"]["segment_windows"] = 200  # shipped: 2000
    return cfg


def _sweep() -> dict:
    cfg = _shipped("sweep.json")
    cfg["parareal"]["n_windows"] = 100  # shipped: 400
    return cfg


def _adaptive_vector() -> dict:
    """Adaptive parareal on a 3-D DoubleWell, 100 windows: the array path.

    Every slab but the last truncates after its first sweep, which runs
    while the slab's bootstrap is still in flight when sweeps overlap.
    """
    return {
        "experiment": "parareal_adaptive",
        "master_seed": 23,
        "params": {"gamma": 0.5, "inv_beta": 0.4, "dt": 0.05, "substeps": 2},
        "schedule": "robust",
        "potential": {
            "fine": {"kind": "double_well", "a": [1.0, 1.2, 0.9], "b": [1.0, 1.1, 1.0]},
            "coarse": {"kind": "double_well", "a": [0.8, 1.0, 0.7], "b": [1.0, 1.1, 1.0]},
            "cost_fine": 175.0,
            "cost_coarse": 1.0,
        },
        "initial": {"q": [-1.0, 0.9, -0.8]},
        "parareal": {"n_windows": 100, "delta_conv": 1e-10, "delta_expl": 0.05},
    }


def _temperature() -> dict:
    cfg = _shipped("temperature.json")
    cfg["temperature"]["n_windows"] = 20_000  # shipped: 200,000
    return cfg


def _temperature_chain() -> dict:
    """Kinetic temperature on a 2-D DoubleWell, 4,000 windows: the chain that
    steps window by window (the free particle takes a closed form instead)."""
    return {
        "experiment": "temperature",
        "master_seed": 29,
        "params": {"gamma": 0.5, "inv_beta": 0.4, "dt": 0.05, "substeps": 3},
        "schedule": "robust",
        "potential": {"fine": {"kind": "double_well", "a": [1.0, 1.2], "b": [1.0, 1.1]}},
        "temperature": {"n_windows": 4_000, "dimension": 2, "burn_in": 0.1},
    }


def _classic_lj7() -> dict:
    """Classic parareal on a 2-D LJ-7 cluster, 40 windows."""
    lj = {"kind": "lennard_jones", "epsilon": 1.0, "n_atoms": 7, "space_dim": 2}
    return {
        "experiment": "parareal_classic",
        "master_seed": 11,
        "params": {"gamma": 1.0, "inv_beta": 0.1, "dt": 0.005, "substeps": 2},
        "schedule": "robust",
        "potential": {
            "fine": dict(lj, sigma=1.0),
            "coarse": dict(lj, sigma=0.98),
            "cost_fine": 175.0,
            "cost_coarse": 1.0,
        },
        "initial": {"q": list(HEXAGON_Q)},
        "parareal": {"n_windows": 40, "delta_conv": 1e-8},
    }


CASES = {
    "adaptive": ("adaptive", _adaptive),
    "adaptive-vector": ("adaptive", _adaptive_vector),
    "ensemble": ("ensemble", _ensemble),
    "parareal": ("parareal", lambda: _shipped("parareal.json")),
    "sequential": ("sequential", lambda: _shipped("sequential.json")),
    "sweep": ("sweep", _sweep),
    "temperature": ("temperature", _temperature),
    "temperature-chain": ("temperature", _temperature_chain),
    "classic-lj7": ("parareal", _classic_lj7),
}

GOLDEN = {
    "adaptive": {
        "history.csv": "d3cd17870d228759ba839f8aaa1c43a0e76aea3d4f5629421307aec55a6a861f",
        "result.json": "83cc26e036673fc575aa36ad0e427d907f71f57b87dfb8d2f1e2b2483bfb5127",
        "trajectory.csv": "6792cd0b32b46971f35c8966b8534ba786aa0de812a446789daaaac679c8e33b",
    },
    "adaptive-vector": {
        "history.csv": "9651cdee5fc9e0fbc690188dc8a199c894accf3bd3378123c0a24973bf872840",
        "result.json": "a22294e1bc8d65ca96f42aa1d96f5182e67df92ba0cbd79e495a093036636ec6",
        "trajectory.csv": "366a56fea7bed6766c562e5310a325c20ee032b385046cd4babf301512e73e04",
    },
    "classic-lj7": {
        "history.csv": "5c401616d82aa8bad951ea8a51b8dd0c3f7f99b5b77e35d26d25ef09c2f22b70",
        "result.json": "a0ae2552df926ec331b78e48f68c746a7c9932ac537ada93f4516678716e6c9b",
        "trajectory.csv": "3530d71cb820052ea41e28b0e0efcfbf95c10039cd5753d561497ed8dc6f3726",
    },
    "ensemble": {
        "residence_adaptive.csv": "5bc09659134ed9e3100b510cfda4a9e1e178e813db7c2a250f9fe83f0be11e37",
        "residence_fine.csv": "5bc09659134ed9e3100b510cfda4a9e1e178e813db7c2a250f9fe83f0be11e37",
        "result.json": "4e0fb1d42b8f6fc36b67d7efdd2713da063c2e598092e27dae813b29596e29e1",
    },
    "parareal": {
        "history.csv": "61039345559171e7ec296e73b04d69be39be14224cef0b3833136cf436091e3d",
        "result.json": "f1b672e5e80494644c0b28b045e9fc521efc5563685c937bf7c210ab39e7c39f",
        "trajectory.csv": "7fdc351f51eae6d1c6250f225d40cf7fa0a997bfef4f65e8010b0941e062ad71",
    },
    "sequential": {
        "result.json": "b3f02e710ad5f45f5d58b63ec794374f360789524453a263232c140d588da0a4",
        "trajectory.csv": "2ec418bada45848e055a5f11207e8048205bc0c4655770da69064dc93e736d75",
    },
    "sweep": {
        "gains.csv": "a6a99fe887c5b89d024a3e0ab099bf330ee61690d64ce95c1d3d7ef835d94d75",
        "result.json": "4f76715838bc73901300a4a6ecfc444d8a3b1ca047139b00a2ed31200244508c",
    },
    "temperature": {
        # re-recorded when k_eq_predicted became 1/beta for the robust
        # schedule (285.0 -> 300.0); every other byte is unchanged
        "result.json": "8907d3445dcc02caf732d04625c640c54a87f08d7f080df7834a8ee8358bb068",
    },
    "temperature-chain": {
        "result.json": "213b14aa3baa4b9f9da43c9c1608446913acafed702aed3508d7c741669f507d",
    },
}


def _digests(out_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.name != "manifest.json"
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_files_match_golden_hashes(case, tmp_path):
    command, build = CASES[case]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(build()))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--out", str(out_dir)]) == 0
    assert _digests(out_dir) == GOLDEN[case]
