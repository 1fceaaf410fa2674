"""Potential energy surfaces and the fine/coarse propagator pairing.

All potentials expose ``energy(q) -> float`` and ``gradient(q) -> ndarray``
on flat coordinate vectors.  The propagators call the unchecked ``_grad``
instead, which also takes a Python float (d = 1) or a ``(B, d)`` stack of
rows and returns the same shape.  A cheap surrogate for an expensive
reference is expressed with :class:`Perturbed`, which interpolates linearly
between the two; :class:`PropagatorPair` bundles a reference (fine) and
surrogate (coarse) potential together with their configured per-window costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PotentialError(ValueError):
    """Invalid coordinates or parameters for a potential evaluation."""


class MinimizationError(RuntimeError):
    """Gradient descent failed to reach the requested tolerance."""


def _coeff(value, name: str):
    """Normalize a per-axis coefficient: scalar stays scalar, else a vector."""
    if np.isscalar(value):
        out = float(value)
        if not np.isfinite(out):
            raise ValueError(f"{name} must be finite")
        return out
    arr = np.array(value, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
        raise ValueError(f"{name} must be a finite scalar or 1-d vector")
    arr.setflags(write=False)
    return arr


class Potential:
    """Base interface; subclasses implement energy and gradient."""

    #: fixed coordinate dimension, or None when any dimension is accepted
    dimension: int | None = None

    def energy(self, q: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _grad(self, q):
        """Gradient of a float, a ``(d,)`` row or ``(B, d)`` rows, unchecked.

        Subclasses with elementwise or batched formulas override this; the
        fallback calls :meth:`gradient` row by row, bitwise equal to it.
        """
        if isinstance(q, float):
            return float(self.gradient(np.array([q]))[0])
        if q.ndim == 1:
            return self.gradient(q)
        return np.array([self.gradient(row) for row in q])

    def _check_q(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.ndim != 1:
            raise PotentialError(f"coordinates must be a 1-d vector, got shape {q.shape}")
        if self.dimension is not None and q.shape[0] != self.dimension:
            raise PotentialError(
                f"{type(self).__name__} expects dimension {self.dimension}, got {q.shape[0]}"
            )
        return q


@dataclass(frozen=True)
class Free(Potential):
    """V = 0; the exactly solvable case used for temperature calibration."""

    def energy(self, q) -> float:
        self._check_q(q)
        return 0.0

    def gradient(self, q) -> np.ndarray:
        return self._grad(self._check_q(q))

    def _grad(self, q):
        # +0.0 like zeros_like: 0.0 * q would give -0.0 for negative q
        return 0.0 if isinstance(q, float) else np.zeros_like(q)


@dataclass(frozen=True)
class Harmonic(Potential):
    """V(q) = sum_i k_i q_i^2 / 2 with per-axis (or shared scalar) stiffness."""

    k: float | np.ndarray = 1.0

    def __post_init__(self) -> None:
        k = _coeff(self.k, "k")
        if np.any(np.asarray(k) <= 0.0):
            raise ValueError("k must be positive")
        object.__setattr__(self, "k", k)
        if isinstance(k, np.ndarray):
            object.__setattr__(self, "dimension", k.shape[0])

    def energy(self, q) -> float:
        q = self._check_q(q)
        return float(0.5 * np.sum(self.k * q * q))

    def gradient(self, q) -> np.ndarray:
        return self._grad(self._check_q(q))

    def _grad(self, q):
        return self.k * q


@dataclass(frozen=True)
class DoubleWell(Potential):
    """V(q) = sum_i a_i (q_i^2 - b_i)^2, axis-separable with minima at +-sqrt(b_i).

    The barrier between the two wells of axis i has height a_i * b_i^2.
    """

    a: float | np.ndarray = 1.0
    b: float | np.ndarray = 1.0

    def __post_init__(self) -> None:
        a = _coeff(self.a, "a")
        b = _coeff(self.b, "b")
        if np.any(np.asarray(a) <= 0.0) or np.any(np.asarray(b) <= 0.0):
            raise ValueError("a and b must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        dims = {x.shape[0] for x in (a, b) if isinstance(x, np.ndarray)}
        if len(dims) > 1:
            raise ValueError("a and b have inconsistent dimensions")
        if dims:
            object.__setattr__(self, "dimension", dims.pop())
        # 4 a q (q^2 - b) groups as (4 a) q (q^2 - b), so 4 a is bound once
        object.__setattr__(self, "_a4", 4.0 * a)

    def energy(self, q) -> float:
        q = self._check_q(q)
        w = q * q - self.b
        return float(np.sum(self.a * w * w))

    def gradient(self, q) -> np.ndarray:
        return self._grad(self._check_q(q))

    def _grad(self, q):
        return self._a4 * q * (q * q - self.b)


@dataclass(frozen=True)
class LennardJonesCluster(Potential):
    """An n-atom Lennard-Jones cluster on flat coordinates.

    Coordinates are packed atom-major: ``q = (x_0, y_0, ..., x_1, y_1, ...)``
    with ``space_dim`` components per atom.  Pair energy
    4 eps ((sigma/r)^12 - (sigma/r)^6).

    Every i < j pair is evaluated once, in a ``(component, pair, row)``
    layout: its distance, its coefficient and its term
    ``t = coeff (x_i - x_j)``.  Atom i's force is then the sum over j of
    the antisymmetric matrix ``M[i, j]`` (``t``, ``-t`` for j < i, +0.0 on
    the diagonal), in the order of the dense n x n formula this replaces,
    so the result is bitwise that formula's.  The layout matters because
    numpy sums an axis that is contiguous in memory pairwise once it has 8
    or more elements, and any other axis in sequence: the dense formula
    sums the ``space_dim`` components of r^2 over a contiguous axis and the
    j terms over a strided one, except for ``space_dim == 1``, where its j
    axis is contiguous too.
    """

    epsilon: float = 1.0
    sigma: float = 1.0
    n_atoms: int = 7
    space_dim: int = 2

    def __post_init__(self) -> None:
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive")
        if self.n_atoms < 2:
            raise ValueError("need at least 2 atoms")
        if self.space_dim < 1:
            raise ValueError("space_dim must be >= 1")
        n, dim = self.n_atoms, self.space_dim
        object.__setattr__(self, "dimension", n * dim)
        i, j = np.triu_indices(n, k=1)
        pairs = np.arange(i.size)
        component = np.arange(dim)[:, None]
        # coordinate columns of both ends of every pair: (2, dim, pairs)
        object.__setattr__(self, "_ends", np.stack([i * dim + component, j * dim + component]))
        # slot[j, i]: where M[i, j] sits in the table [t, -t, 0]
        slot = np.full((n, n), 2 * i.size)
        slot[j, i] = pairs
        slot[i, j] = i.size + pairs
        object.__setattr__(self, "_slot", slot)
        # sigma^2 / r2, 24 eps u3 and 48 eps u3 u3 as the formulas group them
        object.__setattr__(self, "_sigma2", self.sigma * self.sigma)
        object.__setattr__(self, "_eps24", 24.0 * self.epsilon)
        object.__setattr__(self, "_eps48", 48.0 * self.epsilon)

    def _pair_r2(self, q: np.ndarray):
        """Differences x_i - x_j, ``(dim, pairs, *rows)``, and squared distances
        of the i < j pairs, ``(pairs, *rows)``, of one row or a stack of rows."""
        ends = q.T[self._ends]
        diff = ends[0] - ends[1]
        sq = diff * diff
        if self.space_dim < 8:
            r2 = sq[0]
            for component in sq[1:]:
                r2 = r2 + component
        else:  # the dense formula's contiguous, pairwise component sum
            r2 = np.moveaxis(sq, 0, -1).copy().sum(axis=-1)
        if not r2.all():  # r2 >= 0 or NaN: finds exact zeros only
            raise PotentialError("coincident atoms: pair distance is zero")
        return diff, r2

    def energy(self, q) -> float:
        q = self._check_q(q)
        _, r2 = self._pair_r2(q)
        u3 = (self.sigma * self.sigma / r2) ** 3
        return float(np.sum(4.0 * self.epsilon * (u3 * u3 - u3)))

    def gradient(self, q) -> np.ndarray:
        return self._grad(self._check_q(q))

    def _grad(self, q):
        diff, r2 = self._pair_r2(q)
        u3 = (self._sigma2 / r2) ** 3
        coeff = (self._eps24 * u3 - self._eps48 * u3 * u3) / r2
        pairs = r2.shape[0]
        table = np.zeros((self.space_dim, 2 * pairs + 1) + r2.shape[1:])  # [t, -t, +0.0]
        t = np.multiply(coeff, diff, out=table[:, :pairs])
        np.negative(t, out=table[:, pairs:-1])
        if self.space_dim > 1:  # M laid out (dim, j, i, *rows): a strided j sum
            force = np.add.reduce(table.take(self._slot, axis=1), axis=1)
            return np.ascontiguousarray(force.T).reshape(q.shape)
        # (*rows, i, j): a contiguous j sum, as the dense formula's
        rows = np.ascontiguousarray(np.moveaxis(table[0], 0, -1))
        return np.add.reduce(rows.take(self._slot.T, axis=-1), axis=-1)


@dataclass(frozen=True)
class Perturbed(Potential):
    """V = V_base + lam * V_delta, exactly linear in the mixing weight.

    With ``lam == 0`` both energy and gradient are returned straight from the
    base potential, bit for bit.
    """

    base: Potential
    delta: Potential
    lam: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.lam):
            raise ValueError("lam must be finite")
        dims = {
            p.dimension for p in (self.base, self.delta) if p.dimension is not None
        }
        if len(dims) > 1:
            raise ValueError("base and delta have incompatible dimensions")
        if dims:
            object.__setattr__(self, "dimension", dims.pop())

    def energy(self, q) -> float:
        if self.lam == 0.0:
            return self.base.energy(q)
        return self.base.energy(q) + self.lam * self.delta.energy(q)

    def gradient(self, q) -> np.ndarray:
        if self.lam == 0.0:
            return self.base.gradient(q)
        return self.base.gradient(q) + self.lam * self.delta.gradient(q)

    def _grad(self, q):
        if self.lam == 0.0:
            return self.base._grad(q)
        return self.base._grad(q) + self.lam * self.delta._grad(q)


def gradient_check(pot: Potential, q, h: float = 1e-6) -> float:
    """Largest componentwise gap between the gradient and central differences."""
    q = np.asarray(q, dtype=float)
    grad = pot.gradient(q)
    worst = 0.0
    for i in range(q.shape[0]):
        qp = q.copy()
        qm = q.copy()
        qp[i] += h
        qm[i] -= h
        fd = (pot.energy(qp) - pot.energy(qm)) / (2.0 * h)
        worst = max(worst, abs(fd - grad[i]))
    return worst


def _descend(pot: Potential, start: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Steepest descent with Armijo backtracking until |grad| <= tol.

    The sufficient-decrease constant is kept large (0.5) so that accepted
    steps stay near the local quadratic model; a permissive constant lets
    the search jump across barriers into a different basin.
    """
    x = np.array(start, dtype=float)
    energy = pot.energy(x)
    step = 1.0
    for _ in range(max_iter):
        grad = pot.gradient(x)
        gnorm2 = float(np.dot(grad, grad))
        if np.sqrt(gnorm2) <= tol:
            return x
        step = min(step * 2.0, 1e3)
        while True:
            trial = x - step * grad
            try:
                trial_energy = pot.energy(trial)
            except PotentialError:
                trial_energy = np.inf
            if np.isfinite(trial_energy) and trial_energy <= energy - 0.5 * step * gnorm2:
                break
            step *= 0.5
            if step < 1e-18:
                raise MinimizationError(
                    f"line search stalled while minimizing from start "
                    f"{np.asarray(start, dtype=float).tolist()}"
                )
        x = trial
        energy = trial_energy
    raise MinimizationError(
        f"no convergence to |grad| <= {tol} within {max_iter} iterations "
        f"from start {np.asarray(start, dtype=float).tolist()}"
    )


def local_minima(
    pot: Potential, starts, tol: float = 1e-8, max_iter: int = 50_000
) -> list[np.ndarray]:
    """Minimize from every start; returns distinct minima in first-found order.

    Each returned point satisfies ``|gradient| <= tol``; points closer than
    ``tol`` to an earlier minimum are treated as duplicates and dropped.
    Raises :class:`MinimizationError`, naming the start, when a descent does
    not converge.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    minima: list[np.ndarray] = []
    for start in starts:
        x = _descend(pot, np.asarray(start, dtype=float), tol, max_iter)
        if all(np.linalg.norm(x - m) > tol for m in minima):
            minima.append(x)
    return minima


@dataclass(frozen=True)
class PropagatorPair:
    """Reference (fine) and surrogate (coarse) potentials with their costs.

    Costs are configured, not measured: they express the relative price of
    one window propagation under each potential and feed the gain reports.
    """

    fine: Potential
    coarse: Potential
    cost_fine: float = 1.0
    cost_coarse: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.cost_coarse) and self.cost_coarse > 0.0):
            raise ValueError("cost_coarse must be positive")
        if not (np.isfinite(self.cost_fine) and self.cost_fine >= self.cost_coarse):
            raise ValueError("cost_fine must be >= cost_coarse")
        dims = {
            p.dimension for p in (self.fine, self.coarse) if p.dimension is not None
        }
        if len(dims) > 1:
            raise ValueError("fine and coarse potentials have incompatible dimensions")
