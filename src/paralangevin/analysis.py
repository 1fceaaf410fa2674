"""Metastability analysis: basin labels, residence times, confidence bands.

A trajectory is reduced to a sequence of basin labels (nearest catalogued
minimum per node), the label sequence to run-length-encoded residence
events, and the complete events to a mean residence time with a normal
95% confidence interval (1.96 standard errors; the construction is an
assumption, stated here once).  The final run of every sequence is censored:
the trajectory ended before the system left, so its duration is a lower
bound and never enters the mean.

Durations are counted in nodes, i.e. units of the window length, because
basins are labeled per node at the trajectory resolution available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .model import NodeTrajectory, write_csv
from .potentials import Potential, local_minima

RESIDENCE_HISTOGRAM_HEADER = ("bin_start", "bin_end", "count")


class InsufficientDataError(ValueError):
    """Fewer than two complete residence events; no interval can be formed."""


@dataclass(frozen=True)
class BasinCatalog:
    """Local minima of the reference potential, labeled by position index."""

    minima: tuple[np.ndarray, ...]
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        minima = tuple(
            np.ascontiguousarray(np.atleast_1d(np.asarray(m, dtype=float)))
            for m in self.minima
        )
        for m in minima:
            m.setflags(write=False)
        object.__setattr__(self, "minima", minima)
        if not minima:
            raise ValueError("a basin catalog needs at least one minimum")
        dim = minima[0].shape
        if any(m.shape != dim for m in minima):
            raise ValueError("catalog minima must share one dimension")
        if any(not np.all(np.isfinite(m)) for m in minima):
            raise ValueError("catalog minima must be finite")
        for i, a in enumerate(minima):
            for b in minima[i + 1 :]:
                if float(np.linalg.norm(a - b)) <= self.tolerance:
                    raise ValueError(
                        f"catalog minima {a.tolist()} and {b.tolist()} coincide "
                        f"within tolerance {self.tolerance}"
                    )

    @classmethod
    def from_potential(cls, pot: Potential, starts: Sequence, **kwargs) -> "BasinCatalog":
        """Catalog the minima found by descending from the given starts."""
        return cls(minima=tuple(local_minima(pot, starts, **kwargs)))

    @property
    def size(self) -> int:
        return len(self.minima)

    @property
    def dim(self) -> int:
        return self.minima[0].shape[0]


class ResidenceEvent(NamedTuple):
    basin: int
    duration: int
    censored: bool


class EnsembleComparison(NamedTuple):
    overlap: bool
    intervals: tuple[tuple[float, float], tuple[float, float]]


def label_basin(q, catalog: BasinCatalog) -> int:
    """Index of the nearest catalogued minimum; ties go to the lowest index."""
    q = np.asarray(q, dtype=float)
    distances = [float(np.linalg.norm(q - m)) for m in catalog.minima]
    return int(np.argmin(distances))


def label_positions(positions: np.ndarray, catalog: BasinCatalog) -> np.ndarray:
    """Nearest-minimum labels for an (n, d) position array, row by row."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != catalog.dim:
        raise ValueError(
            f"positions must have shape (n, {catalog.dim}), got {positions.shape}"
        )
    stacked = np.stack([m for m in catalog.minima])  # (M, d)
    distances = np.linalg.norm(positions[:, None, :] - stacked[None, :, :], axis=2)
    return np.argmin(distances, axis=1).astype(np.int64)


def label_trajectory(trajectory: NodeTrajectory, catalog: BasinCatalog) -> np.ndarray:
    """One basin label per node."""
    return label_positions(trajectory.positions(), catalog)


def _debounce(labels: np.ndarray, min_run: int) -> np.ndarray:
    # hysteresis filter: the system stays in its current basin until the new
    # label persists for at least min_run consecutive nodes
    out = np.empty_like(labels)
    current = labels[0]
    i = 0
    n = len(labels)
    while i < n:
        j = i
        while j < n and labels[j] == labels[i]:
            j += 1
        if i == 0 or j - i >= min_run:
            current = labels[i]
        out[i:j] = current
        i = j
    return out


def residence_times(labels, min_run: int = 1) -> list[ResidenceEvent]:
    """Run-length encode a basin-label sequence.

    The final run is always censored: the sequence ended while the system
    was still inside.  ``min_run`` > 1 applies a hysteresis filter first, so
    excursions shorter than ``min_run`` nodes never count as transitions
    (default off, matching raw residence counting).
    """
    if min_run < 1:
        raise ValueError(f"min_run must be >= 1, got {min_run}")
    labels = np.asarray(labels)
    if labels.size == 0:
        return []
    if labels.ndim != 1:
        raise ValueError("labels must form a one-dimensional sequence")
    if min_run > 1:
        labels = _debounce(labels, min_run)
    events: list[ResidenceEvent] = []
    start = 0
    for i in range(1, len(labels)):
        if labels[i] != labels[start]:
            events.append(ResidenceEvent(int(labels[start]), i - start, False))
            start = i
    events.append(ResidenceEvent(int(labels[start]), len(labels) - start, True))
    return events


def mean_ci(durations: Sequence[float]) -> tuple[float, float, float]:
    """Sample mean with a normal 95% interval: mean +- 1.96 * s / sqrt(n).

    ``durations`` must be complete (non-censored) residence times; fewer
    than two leave the spread undefined.
    """
    values = np.asarray(durations, dtype=float)
    if values.size < 2:
        raise InsufficientDataError(
            f"need at least 2 complete residence events, got {values.size}"
        )
    if np.any(values <= 0):
        raise ValueError("residence durations must be positive")
    mean = float(np.mean(values))
    half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(values.size)
    return mean, mean - half, mean + half


@dataclass(frozen=True)
class ResidenceStats:
    """Residence-time summary of one trajectory or a pooled ensemble."""

    durations: tuple[tuple[int, int], ...]
    mean: float
    ci_low: float
    ci_high: float
    n_events: int
    censored: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "durations", tuple((int(b), int(d)) for b, d in self.durations)
        )
        if any(d <= 0 for _, d in self.durations):
            raise ValueError("residence durations must be positive")
        if not self.ci_low <= self.mean <= self.ci_high:
            raise ValueError(
                f"interval [{self.ci_low}, {self.ci_high}] must bracket "
                f"the mean {self.mean}"
            )
        if self.n_events < 0 or self.censored < 0:
            raise ValueError("event counts must be >= 0")

    def as_dict(self) -> dict:
        return {
            "durations": [list(d) for d in self.durations],
            "mean": self.mean,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_events": self.n_events,
            "censored": self.censored,
        }


def residence_stats(events: Sequence[ResidenceEvent]) -> ResidenceStats:
    """Summarize events (possibly pooled over ensemble members).

    Censored events are listed in ``durations`` and counted in ``censored``
    but never enter the mean.
    """
    complete = [e.duration for e in events if not e.censored]
    censored = sum(1 for e in events if e.censored)
    mean, lo, hi = mean_ci(complete)
    return ResidenceStats(
        durations=tuple((e.basin, e.duration) for e in events),
        mean=mean,
        ci_low=lo,
        ci_high=hi,
        n_events=len(complete),
        censored=censored,
    )


def compare_ensembles(a: ResidenceStats, b: ResidenceStats) -> EnsembleComparison:
    """Do the two 95% intervals intersect?"""
    overlap = a.ci_low <= b.ci_high and b.ci_low <= a.ci_high
    return EnsembleComparison(
        overlap=bool(overlap),
        intervals=((a.ci_low, a.ci_high), (b.ci_low, b.ci_high)),
    )


def residence_histogram(
    durations: Sequence[int], bin_width: int
) -> list[tuple[int, int, int]]:
    """Counts of durations in half-open bins [k*w, (k+1)*w), empty bins kept."""
    if bin_width < 1:
        raise ValueError(f"bin_width must be >= 1, got {bin_width}")
    values = [int(d) for d in durations]
    if any(d <= 0 for d in values):
        raise ValueError("residence durations must be positive")
    if not values:
        return []
    n_bins = max(values) // bin_width + 1
    counts = [0] * n_bins
    for d in values:
        counts[d // bin_width] += 1
    return [
        (k * bin_width, (k + 1) * bin_width, counts[k]) for k in range(n_bins)
    ]


def write_residence_histogram_csv(
    path: str | Path, durations: Sequence[int], bin_width: int
) -> None:
    lines = (f"{lo},{hi},{count}" for lo, hi, count in residence_histogram(durations, bin_width))
    write_csv(path, RESIDENCE_HISTOGRAM_HEADER, lines)
