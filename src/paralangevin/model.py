"""Core value types: phase-space states, dynamics parameters, trajectories.

States and parameter sets are immutable so they can be shared freely between
the sequential reference propagator and parareal iterations without
defensive copying.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _frozen_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d real vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PhaseState:
    """One point (q, p) in phase space; q and p have the same dimension."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _frozen_vector(self.q, "q"))
        object.__setattr__(self, "p", _frozen_vector(self.p, "p"))
        if self.q.shape != self.p.shape:
            raise ValueError(
                f"q and p must have equal dimension, got {self.q.shape} and {self.p.shape}"
            )

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseState):
            return NotImplemented
        return np.array_equal(self.q, other.q) and np.array_equal(self.p, other.p)


@dataclass(frozen=True)
class LangevinParams:
    """Parameters of the discretized Langevin dynamics.

    ``dt`` is the fine step; one propagation window advances ``substeps``
    fine steps, so the window length is ``substeps * dt`` (derived, never
    stored).  ``inv_beta`` is the temperature in energy units; zero switches
    the noise off and leaves damped deterministic dynamics.  ``mass`` is an
    optional per-component mass vector; ``None`` means unit masses in any
    dimension.
    """

    gamma: float
    inv_beta: float
    dt: float
    substeps: int = 1
    mass: np.ndarray | None = None

    def __post_init__(self) -> None:
        # gamma = 0 is admitted for the deterministic (velocity Verlet) limit
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be >= 0 and finite, got {self.gamma}")
        if not (np.isfinite(self.inv_beta) and self.inv_beta >= 0.0):
            raise ValueError(f"inv_beta must be >= 0 and finite, got {self.inv_beta}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.gamma * self.dt >= 2.0:
            raise ValueError(
                f"gamma * dt must stay below 2 so the half-step damping "
                f"1 - gamma*dt/2 stays positive: got {self.gamma * self.dt}"
            )
        if not (isinstance(self.substeps, (int, np.integer)) and self.substeps >= 1):
            raise ValueError(f"substeps must be an integer >= 1, got {self.substeps}")
        object.__setattr__(self, "substeps", int(self.substeps))
        if self.mass is not None:
            mass = _frozen_vector(self.mass, "mass")
            if not (mass > 0.0).all():
                raise ValueError("mass components must be positive")
            object.__setattr__(self, "mass", mass)

    @property
    def window_dt(self) -> float:
        """Length of one propagation window (coarse step)."""
        return self.substeps * self.dt

    def mass_vector(self, dim: int) -> np.ndarray:
        if self.mass is None:
            return np.ones(dim)
        if self.mass.shape[0] != dim:
            raise ValueError(
                f"mass has dimension {self.mass.shape[0]}, state has dimension {dim}"
            )
        return self.mass


def _row_state(q: np.ndarray, p: np.ndarray) -> PhaseState:
    """A :class:`PhaseState` on rows already checked and read-only, without a copy."""
    state = object.__new__(PhaseState)
    object.__setattr__(state, "q", q)
    object.__setattr__(state, "p", p)
    return state


class NodeTrajectory:
    """States at the window endpoints n = 0..N of one run.

    Held as two read-only ``(N+1, d)`` arrays, positions and momenta, checked
    once for shape and finiteness.  Build it from a sequence of
    :class:`PhaseState` s, or from the arrays themselves (copied):
    ``NodeTrajectory(q=positions, p=momenta)``.  Indexing and iteration give
    ``PhaseState`` s whose ``q`` and ``p`` are read-only row views.
    """

    __slots__ = ("_q", "_p")
    __hash__ = None

    def __init__(self, states=None, *, q=None, p=None) -> None:
        if (states is None) == (q is None) or (q is None) != (p is None):
            raise TypeError("give either the states or both the q and p arrays")
        if states is not None:
            states = tuple(states)
            if not states:
                raise ValueError("a trajectory needs at least the initial node")
            for k, s in enumerate(states):
                if not isinstance(s, PhaseState):
                    raise TypeError(f"node {k} is not a PhaseState")
                if s.dim != states[0].dim:
                    raise ValueError(f"node {k} has dimension {s.dim}, expected {states[0].dim}")
            q = np.stack([s.q for s in states])
            p = np.stack([s.p for s in states])
        else:
            q = np.array(q, dtype=float)
            p = np.array(p, dtype=float)
        if q.ndim != 2 or q.shape[1] == 0 or q.shape != p.shape:
            raise ValueError(
                f"q and p must be (N+1, d) arrays of one shape, got {q.shape} and {p.shape}"
            )
        if q.shape[0] == 0:
            raise ValueError("a trajectory needs at least the initial node")
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            raise ValueError("trajectory nodes must be finite")
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_p", p)

    def __setattr__(self, name, value):
        raise AttributeError("NodeTrajectory is immutable")

    @property
    def n_windows(self) -> int:
        return self._q.shape[0] - 1

    @property
    def dim(self) -> int:
        return self._q.shape[1]

    @property
    def states(self) -> tuple[PhaseState, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self._q.shape[0]

    def __getitem__(self, n: int) -> PhaseState:
        return _row_state(self._q[n], self._p[n])

    def __iter__(self):
        return map(_row_state, self._q, self._p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NodeTrajectory):
            return NotImplemented
        return np.array_equal(self._q, other._q) and np.array_equal(self._p, other._p)

    def __repr__(self) -> str:
        return f"NodeTrajectory(n_windows={self.n_windows}, dim={self.dim})"

    def slice(self, n_init: int, n_final: int) -> "NodeTrajectory":
        """Nodes ``n_init..n_final`` inclusive, re-indexed from zero."""
        if not 0 <= n_init <= n_final <= self.n_windows:
            raise IndexError(
                f"slice [{n_init}, {n_final}] outside trajectory range [0, {self.n_windows}]"
            )
        return NodeTrajectory(q=self._q[n_init : n_final + 1], p=self._p[n_init : n_final + 1])

    def positions(self) -> np.ndarray:
        """(N+1, d) array of node positions (a copy)."""
        return self._q.copy()

    def momenta(self) -> np.ndarray:
        """(N+1, d) array of node momenta (a copy)."""
        return self._p.copy()


@contextmanager
def atomic_open(path: str | Path):
    """Open a text file in ``path``'s directory that replaces ``path`` on success.

    The file is written under a temporary name and moved over ``path`` with
    :func:`os.replace` once the block completes, so a reader never sees a
    partly written file.  If the block raises, the temporary file is removed
    and ``path`` keeps its old content.  Newlines are written untranslated,
    as :mod:`csv` expects.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trajectory_csv(
    trajectory: NodeTrajectory, path: str | Path, window_dt: float
) -> None:
    """Write nodes as CSV rows ``n, t, q_0..q_{d-1}, p_0..p_{d-1}``.

    Floats carry 17 significant digits, enough to round-trip doubles exactly.
    The bytes are those of :func:`csv.writer` (``\\r\\n`` line ends, no
    field needs quoting).
    """
    d = trajectory.dim
    header = ["n", "t"] + [f"q_{i}" for i in range(d)] + [f"p_{i}" for i in range(d)]
    rows = np.hstack([trajectory._q, trajectory._p]).tolist()
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(
            f"{n},{n * window_dt:.17g}," + ",".join([format(x, ".17g") for x in row]) + "\r\n"
            for n, row in enumerate(rows)
        )


def read_trajectory_csv(path: str | Path) -> NodeTrajectory:
    """Read a trajectory written by :func:`write_trajectory_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) < 4 or header[0] != "n" or header[1] != "t":
            raise ValueError(f"unrecognized trajectory header: {header}")
        if len(header) % 2:
            raise ValueError(f"trajectory header needs as many p as q columns: {header}")
        d = (len(header) - 2) // 2
        values = np.array([[float(x) for x in row[2:]] for row in reader], dtype=float)
    if len(values) and (values.ndim != 2 or values.shape[1] != 2 * d):
        raise ValueError(f"trajectory rows must carry {2 * d} values after n and t")
    values = values.reshape(-1, 2 * d)
    return NodeTrajectory(q=values[:, :d], p=values[:, d:])
