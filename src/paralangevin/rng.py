"""Deterministic, replayable noise for window-based Langevin propagation.

Every propagation window draws its Gaussian increments from a stream that is
a pure function of a (seed, counter) pair.  This makes the noise independent
of evaluation order: a window can be re-propagated at any parareal iteration,
serially or from a worker pool, and it sees bitwise-identical increments.

Seeds for successive windows are derived from a single master seed with a
SplitMix64-style mixing finalizer.  The finalizer is a bijection on 64-bit
words and the window index is spread with an odd multiplicative constant, so
distinct windows can never collide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # odd, so n -> n * _GOLDEN is a bijection mod 2^64
_U53 = 2.0 ** -53

# Below this many variates a stream's log is ``math.log``, from this many on
# ``np.log``; the two can differ in the last bit.  ``_polar_scalar`` (one
# short stream) and ``_polar_batch`` (any stack) both follow the cutoff, so a
# given (seed, count) pair gives the same variates through either entry point.
_SCALAR_CUTOFF = 16


def _mix(z: int) -> int:
    """SplitMix64 finalizer on a Python int (64-bit wrapping)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_u64(z: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer; `z` must be uint64 (wrapping ops)."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _check_u64(value: int, name: str) -> int:
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must be in [0, 2^64), got {value}")
    return value


def derive_seed(master_seed: int, n: int) -> int:
    """Seed for window ``n`` (1-based), a pure function of (master_seed, n).

    Distinct ``n`` always yield distinct seeds: the finalizer is a bijection
    applied to ``master_seed XOR (n * odd_constant)``.
    """
    master_seed = _check_u64(master_seed, "master_seed")
    if n < 1:
        raise ValueError(f"window index must be >= 1, got {n}")
    return _mix(master_seed ^ ((n * _GOLDEN) & _MASK64))


def derive_seeds(master_seed: int, n_windows: int) -> np.ndarray:
    """Seeds for windows ``1..n_windows`` as a uint64 array.

    Bitwise identical to calling :func:`derive_seed` per window.
    """
    master_seed = _check_u64(master_seed, "master_seed")
    if n_windows < 0:
        raise ValueError(f"n_windows must be >= 0, got {n_windows}")
    n = np.arange(1, n_windows + 1, dtype=np.uint64)
    return _mix_u64(np.uint64(master_seed) ^ (n * np.uint64(_GOLDEN)))


def _uniform(seed: int, j: int) -> float:
    """j-th uniform in [0, 1) of the counter-based stream for ``seed``."""
    z = _mix((seed + ((j + 1) * _GOLDEN)) & _MASK64)
    return (z >> 11) * _U53


def _polar_scalar(seed: int, count: int) -> np.ndarray:
    out = np.empty(count)
    filled = 0
    j = 0
    while filled < count:
        u1 = _uniform(seed, j)
        u2 = _uniform(seed, j + 1)
        j += 2
        x = 2.0 * u1 - 1.0
        y = 2.0 * u2 - 1.0
        s = x * x + y * y
        if 0.0 < s < 1.0:
            f = math.sqrt(-2.0 * math.log(s) / s)
            out[filled] = x * f
            filled += 1
            if filled < count:
                out[filled] = y * f
                filled += 1
    return out


def _polar_batch(seeds: np.ndarray, count: int) -> np.ndarray:
    """Marsaglia polar streams for many seeds at once.

    Row b reproduces ``_polar_scalar(seeds[b], count)`` exactly: uniforms are
    consumed in pairs in counter order and accepted pairs land in draw order,
    so the vectorization cannot change any stream.  The uniforms, the divide
    and the correctly rounded square root are the same IEEE operations on
    both paths; only the log can differ, so it follows ``_SCALAR_CUTOFF``.
    """
    n_rows = seeds.shape[0]
    out = np.empty((n_rows, count))
    pairs_needed = (count + 1) // 2
    pairs_done = np.zeros(n_rows, dtype=np.int64)
    consumed = np.zeros(n_rows, dtype=np.uint64)  # uniforms drawn per row
    active = np.arange(n_rows)
    # ~pi/4 of pairs are accepted; oversample so one round usually suffices.
    n_pairs = pairs_needed + (pairs_needed >> 2) + 4
    while active.size:
        k = np.arange(2 * n_pairs, dtype=np.uint64)
        state = (
            seeds[active, None]
            + (consumed[active, None] + k[None, :] + np.uint64(1)) * np.uint64(_GOLDEN)
        )
        u = (_mix_u64(state) >> np.uint64(11)) * _U53
        x = 2.0 * u[:, 0::2] - 1.0
        y = 2.0 * u[:, 1::2] - 1.0
        s = x * x + y * y
        accept = (s > 0.0) & (s < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            if count < _SCALAR_CUTOFF:
                # the short streams' log is _polar_scalar's, taken where it is used
                log_s = np.zeros_like(s)
                log_s[accept] = [math.log(v) for v in s[accept].tolist()]
            else:
                log_s = np.log(s)
            f = np.sqrt(-2.0 * log_s / s)
        rows, cols = np.nonzero(accept)
        rank = np.cumsum(accept, axis=1)
        pair_pos = pairs_done[active][rows] + rank[rows, cols] - 1
        idx0 = 2 * pair_pos
        idx1 = idx0 + 1
        out_rows = active[rows]
        keep0 = idx0 < count
        out[out_rows[keep0], idx0[keep0]] = (x * f)[rows, cols][keep0]
        keep1 = idx1 < count
        out[out_rows[keep1], idx1[keep1]] = (y * f)[rows, cols][keep1]
        pairs_done[active] += rank[:, -1]
        consumed[active] += np.uint64(2 * n_pairs)
        active = active[pairs_done[active] < pairs_needed]
        deficit = int((pairs_needed - pairs_done[active]).max()) if active.size else 0
        n_pairs = deficit + (deficit >> 2) + 4
    return out


def gaussian_stream(seed: int, count: int) -> np.ndarray:
    """``count`` standard normal variates, a pure function of ``seed``.

    Counter-based uniforms are pushed through the Marsaglia polar transform;
    the stream is stateless and bitwise reproducible.
    """
    seed = _check_u64(seed, "seed")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0)
    if count < _SCALAR_CUTOFF:
        return _polar_scalar(seed, count)
    return _polar_batch(np.array([seed], dtype=np.uint64), count)[0]


def gaussian_streams(seeds: np.ndarray, count: int) -> np.ndarray:
    """Stack of :func:`gaussian_stream` outputs, one row per seed.

    Bitwise identical to stacking the per-seed streams; exists because many
    short streams are much cheaper to generate in one vectorized pass.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.ndim != 1:
        raise ValueError("seeds must be a 1-d array")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty((seeds.shape[0], 0))
    return _polar_batch(seeds, count)


@dataclass(frozen=True)
class NoisePlan:
    """Master seed plus the derived per-window seeds for one run.

    The plan pins down every random number a run will consume.  Two runs
    built from the same master seed use identical noise regardless of how
    the windows are scheduled across workers or parareal iterations.
    """

    master_seed: int
    window_seeds: tuple[int, ...]
    _noise: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_u64(self.master_seed, "master_seed")
        expected = derive_seeds(self.master_seed, len(self.window_seeds))
        if not np.array_equal(
            np.asarray(self.window_seeds, dtype=np.uint64), expected
        ):
            raise ValueError("window_seeds are not the seeds derived from master_seed")

    @classmethod
    def for_windows(cls, master_seed: int, n_windows: int) -> "NoisePlan":
        seeds = derive_seeds(master_seed, n_windows)
        return cls(master_seed=int(master_seed), window_seeds=tuple(int(s) for s in seeds))

    @property
    def n_windows(self) -> int:
        return len(self.window_seeds)

    def seed_for(self, n: int) -> int:
        """Seed of window ``n`` (1-based, matching trajectory node ``n``)."""
        if not 1 <= n <= len(self.window_seeds):
            raise IndexError(
                f"window {n} outside plan range 1..{len(self.window_seeds)}"
            )
        return self.window_seeds[n - 1]

    def noise(self, count: int) -> np.ndarray:
        """Read-only ``(n_windows, count)`` array: row ``n - 1`` is window n's stream.

        Built once per count through :func:`gaussian_streams`, so every row
        is bitwise ``gaussian_stream(seed_for(n), count)``.
        """
        rows = self._noise.get(count)
        if rows is None:
            rows = gaussian_streams(np.array(self.window_seeds, dtype=np.uint64), count)
            rows.setflags(write=False)
            self._noise[count] = rows
        return rows
