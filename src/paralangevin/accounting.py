"""Cost model and modelled wall-clock gain of parareal runs.

Costs are configured, never measured: one fine window propagation costs
``cf`` and one coarse window costs ``cc`` (arbitrary but consistent units),
and the communication time is taken to be zero.  Wall-clock cost and gain
are modelled from these costs, with no clock involved, so gains are
deterministic functions of the slab bookkeeping.

The classic run costs the coarse bootstrap plus, per iteration, one parallel
fine-plus-coarse jump stage and one sequential corrected coarse sweep:

    N*cc + k_conv*((cf + cc) + N*cc)

The adaptive run sums the analogous expression over its slabs; each slab
pays a bootstrap over the whole remaining range ``(N - n_init)*cc`` and
every attempt ``j`` on that slab pays ``k_ij*((cf + cc) + (n_final_j -
n_init)*cc)``.  The gain is the sequential fine cost ``N*cf`` divided by the
total; the ideal gain ``N / sum(k_conv)`` is what a free coarse propagator
would deliver and bounds the gain from above whenever ``cc > 0``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .model import write_csv
from .parareal import SlabRecord, check_slab_tiling

GAIN_CSV_HEADER = ("dt", "delta_expl", "delta_conv", "gain_ideal", "gain", "n_slab")


@dataclass(frozen=True)
class GainReport:
    """Cost summary of one run.

    ``total_effort`` is the summed CPU effort over all ranks (reported for
    classic runs only); every other field refers to the wall-clock model.
    """

    total_cost: float
    sequential_cost: float
    gain: float
    ideal_gain: float
    n_slab: int
    total_iterations: int
    total_effort: float | None = None

    def __post_init__(self) -> None:
        for name in ("total_cost", "sequential_cost", "gain", "ideal_gain"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.n_slab < 1:
            raise ValueError(f"n_slab must be >= 1, got {self.n_slab}")
        if self.total_iterations < 1:
            raise ValueError(
                f"total_iterations must be >= 1, got {self.total_iterations}"
            )
        if self.total_effort is not None and not (
            math.isfinite(self.total_effort) and self.total_effort >= 0.0
        ):
            raise ValueError(f"total_effort must be finite and >= 0, got {self.total_effort}")

    def as_dict(self) -> dict:
        return asdict(self)


def _check_costs(cf: float, cc: float) -> None:
    if not (math.isfinite(cf) and cf > 0.0):
        raise ValueError(f"fine cost must be positive and finite, got {cf}")
    if not (math.isfinite(cc) and cc >= 0.0):
        raise ValueError(f"coarse cost must be >= 0 and finite, got {cc}")


def _check_tiling(slabs: Sequence[SlabRecord], n_windows: int) -> None:
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    check_slab_tiling(slabs)
    if slabs[-1].n_final != n_windows:
        raise ValueError(
            f"last slab ends at {slabs[-1].n_final}, expected {n_windows}"
        )


def classic_gain(n_windows: int, k_conv: int, cf: float, cc: float) -> GainReport:
    """Gain report for a classic run that converged in ``k_conv`` iterations.

    Its wall-clock cost is the adaptive cost of one slab over the whole
    range, converged at its first attempt.
    """
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    if k_conv < 1:
        raise ValueError(f"k_conv must be >= 1, got {k_conv}")
    slab = SlabRecord(1, 0, ((n_windows, k_conv),), n_windows, k_conv)
    report = adaptive_gain([slab], n_windows, cf, cc)
    effort = n_windows * cc + k_conv * (n_windows * (cf + cc) + 2 * n_windows * cc)
    return replace(report, total_effort=effort)


def adaptive_cost(
    slabs: Sequence[SlabRecord], n_windows: int, cf: float, cc: float
) -> float:
    """Total wall-clock cost of an adaptive run, summed over slabs.

    With ``cc == 0`` this collapses to ``cf`` times the total attempt
    iteration count, independent of the slab shapes.
    """
    _check_tiling(slabs, n_windows)
    _check_costs(cf, cc)
    total = 0.0
    for slab in slabs:
        total += (n_windows - slab.n_init) * cc
        for attempt in slab.attempts:
            total += attempt.iterations * ((cf + cc) + (attempt.n_final - slab.n_init) * cc)
    return total


def adaptive_gain(
    slabs: Sequence[SlabRecord], n_windows: int, cf: float, cc: float
) -> GainReport:
    """Gain report for an adaptive run described by its slab records."""
    cost = adaptive_cost(slabs, n_windows, cf, cc)
    total_iterations = sum(slab.k_conv for slab in slabs)
    sequential = n_windows * cf
    return GainReport(
        total_cost=cost,
        sequential_cost=sequential,
        gain=sequential / cost,
        ideal_gain=n_windows / total_iterations,
        n_slab=len(slabs),
        total_iterations=total_iterations,
    )


def gain_csv_row(
    report: GainReport, dt: float, delta_expl: float | None, delta_conv: float
) -> tuple[str, ...]:
    """One gain-table row; run parameters come first, then the report."""
    return (
        format(dt, ".17g"),
        "" if delta_expl is None else format(delta_expl, ".17g"),
        format(delta_conv, ".17g"),
        format(report.ideal_gain, ".17g"),
        format(report.gain, ".17g"),
        str(report.n_slab),
    )


def write_gain_csv(path: str | Path, rows: Iterable[tuple[str, ...]]) -> None:
    """Write a gain table with the standard header."""
    write_csv(path, GAIN_CSV_HEADER, map(",".join, rows))
