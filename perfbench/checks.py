"""Output checks: each returns a list of problems, empty when the output is right.

The checks compare a run's files with properties of the method or with
quantities computed here, never with stored copies of earlier outputs:

* parareal (adaptive and classic): converged; every node within
  ``NODE_TOLERANCE * delta_conv`` of the sequential fine run on the same
  noise plan (converged parareal reproduces its fine propagator); slab
  records that tile ``[0, N]``; the gain equal to the cost model
  re-implemented below and no greater than ``N / total_iterations``.
* temperature: the robust schedule restores 1/beta, so the empirical
  temperature and every per-substep variance lie within
  ``TEMPERATURE_TOLERANCE`` of ``inv_beta``; the burn-in count is
  ``round(burn_in * n_windows)``.
* ensemble: basins at +-sqrt(b); mean, interval and histogram of each
  ensemble recomputed from its pooled event list; intervals that bracket
  their means and overlap; each histogram summing to its event count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Converged parareal agreed with the fine run to 17 * delta_conv (adaptive-dw,
# positions) and 41 * delta_conv (classic-lj7, momenta) when this was written.
NODE_TOLERANCE = 1000.0
GAIN_RTOL = 1e-12
TEMPERATURE_TOLERANCE = 0.03
BASIN_TOLERANCE = 1e-6
INTERVAL_RTOL = 1e-9  # numpy and Python sum in different orders


def file_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every result file; the manifest holds a timestamp and is left out."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def read_trajectory(path: Path) -> tuple[list[list[float]], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    d = (len(rows[0]) - 2) // 2
    qs = [[float(x) for x in row[2 : 2 + d]] for row in rows[1:]]
    ps = [[float(x) for x in row[2 + d :]] for row in rows[1:]]
    return qs, ps


def modelled_cost(slabs: list[dict], n_windows: int, cf: float, cc: float, classic: bool) -> float:
    """Wall-clock cost model of the paper, from the slab records alone.

    Classic: a coarse bootstrap, then per iteration one fine plus one coarse
    window on the critical path and a coarse sweep over all windows.
    Adaptive: per slab a coarse bootstrap from its start to the end, then
    per attempt the same iteration cost over the attempt's range.
    """
    if classic:
        k = slabs[0]["k_conv"]
        return n_windows * cc + k * ((cf + cc) + n_windows * cc)
    total = 0.0
    for slab in slabs:
        total += (n_windows - slab["n_init"]) * cc
        for n_final, iterations in slab["attempts"]:
            total += iterations * ((cf + cc) + (n_final - slab["n_init"]) * cc)
    return total


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_slabs(slabs: list[dict], n_windows: int) -> list[str]:
    problems = []
    if not slabs or slabs[0]["n_init"] != 0:
        problems.append("slabs: the first slab does not start at window 0")
    for a, b in zip(slabs, slabs[1:]):
        if b["n_init"] != a["n_final"]:
            problems.append(f"slabs: gap or overlap at {a['n_final']} -> {b['n_init']}")
    if slabs and slabs[-1]["n_final"] != n_windows:
        problems.append(f"slabs: the last slab ends at {slabs[-1]['n_final']}, not {n_windows}")
    for i, slab in enumerate(slabs):
        if slab["slab_index"] != i + 1:
            problems.append(f"slabs: slab {i} has index {slab['slab_index']}")
        if not slab["attempts"] or slab["attempts"][-1][0] != slab["n_final"]:
            problems.append(f"slabs: slab {i + 1} does not end at its last attempt")
        if sum(it for _, it in slab["attempts"]) != slab["k_conv"]:
            problems.append(f"slabs: slab {i + 1} k_conv is not the sum of its attempts")
    return problems


def check_parareal(out_dir: Path, cfg: dict, reference) -> list[str]:
    """Adaptive or classic parareal output against its fine reference and cost model.

    ``reference`` is ``read_trajectory`` of the sequential fine run on the
    same config, or None when that run failed.
    """
    out_dir = Path(out_dir)
    result = json.loads((out_dir / "result.json").read_text())
    problems = []
    if reference is None:
        return ["trajectory: no sequential fine run to compare with"]
    if result.get("converged") is not True:
        return ["result: converged is not true"]
    n = cfg["parareal"]["n_windows"]
    delta_conv = cfg["parareal"]["delta_conv"]
    classic = cfg["experiment"] == "parareal_classic"

    ref_q, ref_p = reference
    qs, ps = read_trajectory(out_dir / "trajectory.csv")
    if len(qs) != n + 1:
        problems.append(f"trajectory: {len(qs)} nodes, expected {n + 1}")
    scale = max(1.0, max(abs(x) for row in ref_q for x in row))
    tol = NODE_TOLERANCE * delta_conv * scale
    for node, (q, p, rq, rp) in enumerate(zip(qs, ps, ref_q, ref_p)):
        gap = max(abs(a - b) for a, b in zip(q + p, rq + rp))
        if not gap <= tol:
            problems.append(f"trajectory: node {node} is {gap:.3g} from the fine run (tolerance {tol:.3g})")
            break

    slabs = result["slabs"]
    problems += check_slabs(slabs, n)
    total_iterations = sum(s["k_conv"] for s in slabs)
    if result["total_iterations"] != total_iterations or result["n_slab"] != len(slabs):
        problems.append("result: total_iterations or n_slab disagrees with the slab records")
    pot = cfg["potential"]
    cf, cc = pot["cost_fine"], pot["cost_coarse"]
    cost = modelled_cost(slabs, n, cf, cc, classic)
    gain = result["gain"]
    expected = {
        "total_cost": cost,
        "sequential_cost": n * cf,
        "gain": n * cf / cost,
        "ideal_gain": n / total_iterations,
    }
    for key, value in expected.items():
        if not _close(gain[key], value, GAIN_RTOL):
            problems.append(f"gain: {key} is {gain[key]!r}, the cost model gives {value!r}")
    if not gain["gain"] <= n / total_iterations:
        problems.append(f"gain: {gain['gain']} exceeds N / total_iterations = {n / total_iterations}")
    return problems


def check_temperature(out_dir: Path, cfg: dict, reference=None) -> list[str]:
    result = json.loads((Path(out_dir) / "result.json").read_text())
    inv_beta = cfg["params"]["inv_beta"]
    spec = cfg["temperature"]
    problems = []
    values = {"k_eq_empirical": result["k_eq_empirical"]}
    values.update(
        (f"per_substep_variance[{i}]", v) for i, v in enumerate(result["per_substep_variance"])
    )
    if len(result["per_substep_variance"]) != cfg["params"]["substeps"]:
        problems.append("result: one variance per substep expected")
    for key, value in values.items():
        if not abs(value / inv_beta - 1.0) <= TEMPERATURE_TOLERANCE:
            problems.append(f"temperature: {key} = {value} is not within 3% of 1/beta = {inv_beta}")
    if result["n_windows"] != spec["n_windows"]:
        problems.append(f"result: n_windows is {result['n_windows']}, config has {spec['n_windows']}")
    expected_burn = round(spec["burn_in"] * spec["n_windows"])
    if result["n_burn_in"] != expected_burn:
        problems.append(f"result: n_burn_in is {result['n_burn_in']}, expected {expected_burn}")
    return problems


def read_histogram(path: Path) -> list[tuple[int, int, int]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [(int(a), int(b), int(c)) for a, b, c in rows[1:]]


def complete_durations(durations: list, segment_windows: int, size: int) -> list[int] | None:
    """Complete residence times from the pooled event list, None if it is malformed.

    Each member labels the ``segment_windows + 1`` nodes of its segment, so
    its events' durations sum to that count; its last event is censored.
    """
    complete: list[int] = []
    member: list[int] = []
    members = 0
    for _, d in durations:
        member.append(d)
        if sum(member) == segment_windows + 1:
            complete += member[:-1]
            member = []
            members += 1
        elif sum(member) > segment_windows + 1:
            return None
    return complete if not member and members == size else None


def histogram(durations: list[int], width: int) -> list[tuple[int, int, int]]:
    counts = [0] * (max(durations) // width + 1) if durations else []
    for d in durations:
        counts[d // width] += 1
    return [(k * width, (k + 1) * width, c) for k, c in enumerate(counts)]


def check_ensemble(out_dir: Path, cfg: dict, reference=None) -> list[str]:
    """Basins, intervals and histograms, recomputed from the pooled event lists."""
    out_dir = Path(out_dir)
    result = json.loads((out_dir / "result.json").read_text())
    spec = cfg["ensemble"]
    problems = []
    b = cfg["potential"]["fine"].get("b", 1.0)
    basins = sorted(q for (q,) in result["basins"])
    expected = [-math.sqrt(b), math.sqrt(b)]
    if len(basins) != 2 or any(abs(x - e) > BASIN_TOLERANCE for x, e in zip(basins, expected)):
        problems.append(f"basins: {basins}, expected {expected}")
    for name in ("fine", "adaptive"):
        stats = result[name]
        if not stats["ci_low"] <= stats["mean"] <= stats["ci_high"]:
            problems.append(f"{name}: interval [{stats['ci_low']}, {stats['ci_high']}] misses its mean")
        complete = complete_durations(stats["durations"], spec["segment_windows"], spec["size"])
        if complete is None:
            problems.append(f"{name}: the event list does not split into {spec['size']} members")
            continue
        n = len(complete)
        if stats["n_events"] != n or stats["censored"] != spec["size"]:
            problems.append(f"{name}: n_events or censored disagrees with the event list")
        if n >= 2:
            mean = sum(complete) / n
            half = 1.96 * math.sqrt(sum((d - mean) ** 2 for d in complete) / (n - 1) / n)
            for key, value in (("mean", mean), ("ci_low", mean - half), ("ci_high", mean + half)):
                if not _close(stats[key], value, INTERVAL_RTOL):
                    problems.append(f"{name}: {key} is {stats[key]!r}, the events give {value!r}")
        hist_path = out_dir / f"residence_{name}.csv"
        written = read_histogram(hist_path)
        if sum(c for _, _, c in written) != stats["n_events"]:
            problems.append(f"{hist_path.name}: the counts do not sum to n_events = {stats['n_events']}")
        if written != histogram(complete, spec.get("histogram_bin_width", 50)):
            problems.append(f"{hist_path.name}: the bins disagree with the complete events")
    fine, adaptive = result["fine"], result["adaptive"]
    overlap = fine["ci_low"] <= adaptive["ci_high"] and adaptive["ci_low"] <= fine["ci_high"]
    if not overlap or result["comparison"]["overlap"] is not True:
        problems.append("comparison: the fine and adaptive 95% intervals do not overlap")
    return problems


CHECKERS = {
    "parareal_adaptive": check_parareal,
    "parareal_classic": check_parareal,
    "temperature": check_temperature,
    "ensemble": check_ensemble,
}
