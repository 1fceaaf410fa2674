"""The benchmark's workloads: which CLI command runs on which config.

Every workload's program inputs are pinned (config and master seed below).
The cost of a parareal run depends on its noise realisation: over seven
master seeds the 800-window adaptive run took between 38k and 57k window
propagations.  A seed-dependent config would put that spread into every
timing, and it would stop the runs of one set from writing byte-identical
result files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# Sizes chosen for the benchmark; the README gives the reason for each.
TEMPERATURE_WINDOWS = 40_000
ENSEMBLE_SIZE = 4
ENSEMBLE_SEGMENT = 200
LJ_WINDOWS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    workers: int
    config: Callable[[], dict]


def _shipped(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def adaptive_dw() -> dict:
    return _shipped("adaptive.json")


def temperature_free() -> dict:
    cfg = _shipped("temperature.json")
    cfg["temperature"]["n_windows"] = TEMPERATURE_WINDOWS
    return cfg


def ensemble_dw() -> dict:
    cfg = _shipped("ensemble.json")
    cfg["ensemble"]["size"] = ENSEMBLE_SIZE
    cfg["ensemble"]["segment_windows"] = ENSEMBLE_SEGMENT
    return cfg


def _lj_pair_slope(r: float, sigma: float) -> float:
    """d/dr of the pair energy 4 ((sigma/r)^12 - (sigma/r)^6), epsilon = 1."""
    u6 = (sigma / r) ** 6
    return 4.0 * (-12.0 * u6 * u6 + 6.0 * u6) / r


def hexagon_spacing(sigma: float = 1.0) -> float:
    """Nearest spacing at which the centred 7-atom hexagon is a minimum.

    The hexagon's 21 pairs are 12 at the spacing ``a`` (centre-ring and ring
    neighbours), 6 at ``sqrt(3) a`` and 3 at ``2 a``.  By symmetry the centre
    feels no force and every ring atom the same radial one, so dE/da = 0
    makes every force vanish.  Bisection on dE/da around 2^(1/6) sigma.
    """
    def slope(a: float) -> float:
        s3 = math.sqrt(3.0)
        return (
            12.0 * _lj_pair_slope(a, sigma)
            + 6.0 * s3 * _lj_pair_slope(s3 * a, sigma)
            + 6.0 * _lj_pair_slope(2.0 * a, sigma)
        )

    lo, hi = 0.9 * sigma, 1.3 * sigma
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hexagon_positions(sigma: float = 1.0) -> list[float]:
    """Flat ``(x0, y0, x1, y1, ...)`` coordinates: centre first, then the ring."""
    a = hexagon_spacing(sigma)
    q = [0.0, 0.0]
    for k in range(6):
        angle = k * math.pi / 3.0
        q += [a * math.cos(angle), a * math.sin(angle)]
    return q


def classic_lj7() -> dict:
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
        "initial": {"q": hexagon_positions()},
        "parareal": {"n_windows": LJ_WINDOWS, "delta_conv": 1e-8},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("adaptive-dw", "adaptive", 1, adaptive_dw),
        Workload("temperature-free", "temperature", 1, temperature_free),
        Workload("ensemble-dw-w2", "ensemble", 2, ensemble_dw),
        Workload("classic-lj7", "parareal", 1, classic_lj7),
    )
}
