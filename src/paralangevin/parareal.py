"""Parallel-in-time propagation: adaptive parareal and its classic special case.

Parareal bootstraps a trajectory with the cheap coarse propagator and then
iterates: jump terms (fine minus coarse, one per window) are computed from
the previous iterate, independently per window, and a sequential corrected
coarse sweep folds them in.  Each iteration extends the exactly-converged
prefix by at least one window, so N windows converge in at most N
iterations.

The adaptive method watches a running relative error during the sweep.
When the error leaves the trusted band it gives up on the full range,
truncates the current time-slab just before the offending window, and keeps
iterating on the shortened slab; once a slab converges the next one opens
from its endpoint.  Slab bookkeeping (attempt endpoints and per-attempt
iteration counts) is preserved for cost accounting.  Classic parareal is the
same loop without an explosion threshold: one slab, one attempt, over the
whole range.

Two conventions matter for reproducibility:

* The error metric compares positions only, one Euclidean norm per node,
  accumulated left to right; the running error of the sweep is bitwise
  identical to recomputing the sums from scratch at every node.
* The corrected value is evaluated exactly as ``coarse(state) + jump`` with
  the jump formed first, so a degenerate pair (coarse identical to fine)
  cancels to the coarse trajectory up to floating-point zeros and converges
  in one iteration.

Only the work the method needs is done.  Every coarse output G(U_m) from the
bootstrap and from each sweep is kept, and it is exactly the coarse value
the next jump stage needs, so a jump stage never runs coarse: per iteration
the coarse propagator runs once per node of the serial sweep, and the fine
propagator runs over the whole slab in one batched call.

The ``*_engine`` functions take the propagators either as plain callables
``(state, m) -> PhaseState``, where ``m`` is the 0-based window index (so
scripted propagators can be tested against hand-executed traces; they run
row by row), or as :class:`~paralangevin.integrator.PlanWindows`.  The
``parareal_*`` wrappers build the latter: potential-driven windows on a
shared noise plan (fine and coarse consume the same seed for the same
window, at every iteration), batched in the jump stage and on Python floats
(d = 1) or raw arrays in the serial sweep.  No ``PhaseState`` is built
inside the loop; the trajectory's states are built once at the end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

# propagate_window stays importable here: perfbench's tracer patches parareal.propagate_window
from .integrator import BlowUpError, PlanWindows, TemperatureSchedule, propagate_window
from .model import LangevinParams, NodeTrajectory, PhaseState
from .potentials import Potential, PropagatorPair
from .rng import NoisePlan

WindowPropagator = Callable[[PhaseState, int], PhaseState]


class DegenerateNormalizationError(ValueError):
    """The relative-error denominator vanished (all reference positions zero)."""


class SlabCollapseError(RuntimeError):
    """An adaptive slab shortened to zero windows."""

    def __init__(self, message: str, slab_index: int, n_init: int):
        super().__init__(message)
        self.slab_index = slab_index
        self.n_init = n_init


@dataclass(frozen=True)
class PararealConfig:
    """Run parameters shared by both engines.

    ``delta_expl`` is only consulted by the adaptive engine and must then
    exceed ``delta_conv``.  ``k_max`` caps the iterations of any single
    attempt; the default ``n_windows + 1`` sits one beyond the worst-case
    exact-arithmetic convergence count, so it only triggers when
    ``delta_conv`` is below what roundoff can deliver.
    """

    n_windows: int
    delta_conv: float
    delta_expl: float | None = None
    k_max: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n_windows, int) or self.n_windows < 1:
            raise ValueError(f"n_windows must be a positive integer, got {self.n_windows}")
        if not (np.isfinite(self.delta_conv) and self.delta_conv > 0.0):
            raise ValueError(f"delta_conv must be positive and finite, got {self.delta_conv}")
        if self.delta_expl is not None and not self.delta_expl > self.delta_conv:
            raise ValueError(
                f"delta_expl ({self.delta_expl}) must exceed delta_conv ({self.delta_conv})"
            )
        if self.k_max is not None and (not isinstance(self.k_max, int) or self.k_max < 1):
            raise ValueError(f"k_max must be a positive integer, got {self.k_max}")

    @property
    def iteration_cap(self) -> int:
        return self.k_max if self.k_max is not None else self.n_windows + 1


class SlabAttempt(NamedTuple):
    n_final: int
    iterations: int


@dataclass(frozen=True)
class SlabRecord:
    """Bookkeeping for one adaptive time-slab.

    ``attempts`` lists the successive slab endpoints tried (first one is the
    full remaining range) with the iterations spent on each; the last entry
    is the endpoint that converged.
    """

    slab_index: int
    n_init: int
    attempts: tuple[SlabAttempt, ...]
    n_final: int
    k_conv: int

    def __post_init__(self) -> None:
        attempts = tuple(SlabAttempt(int(a[0]), int(a[1])) for a in self.attempts)
        object.__setattr__(self, "attempts", attempts)
        if self.slab_index < 1:
            raise ValueError(f"slab_index must be >= 1, got {self.slab_index}")
        if not attempts:
            raise ValueError("a slab record needs at least one attempt")
        if not 0 <= self.n_init < self.n_final:
            raise ValueError(
                f"slab range [{self.n_init}, {self.n_final}] must be non-empty"
            )
        for a, b in zip(attempts, attempts[1:]):
            if b.n_final > a.n_final:
                raise ValueError("attempt endpoints must be non-increasing")
        if attempts[-1].n_final != self.n_final:
            raise ValueError(
                f"last attempt ends at {attempts[-1].n_final}, slab at {self.n_final}"
            )
        if any(a.iterations < 1 for a in attempts):
            raise ValueError("every attempt must count at least one iteration")
        if sum(a.iterations for a in attempts) != self.k_conv:
            raise ValueError("k_conv must equal the sum of attempt iterations")

    @property
    def width(self) -> int:
        return self.n_final - self.n_init


@dataclass(frozen=True)
class PararealResult:
    """Outcome of a parareal run.

    ``error_history`` holds (slab index, iteration within the slab, error)
    triples, one per node update of every sweep.  Classic parareal (the
    adaptive loop without an explosion threshold, so always one slab) keeps
    only the entry of each sweep's last node: the error of the whole sweep.
    ``iterates`` optionally keeps the trajectory after the bootstrap and
    after every sweep (classic engine only).
    """

    trajectory: NodeTrajectory
    slabs: tuple[SlabRecord, ...]
    error_history: tuple[tuple[int, int, float], ...]
    converged: bool
    iterates: tuple[NodeTrajectory, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "slabs", tuple(self.slabs))
        object.__setattr__(
            self,
            "error_history",
            tuple((int(s), int(k), float(e)) for s, k, e in self.error_history),
        )
        if self.iterates is not None:
            object.__setattr__(self, "iterates", tuple(self.iterates))
        if not self.slabs:
            raise ValueError("a result needs at least one slab record")
        if self.slabs[0].n_init != 0:
            raise ValueError("the first slab must start at window 0")
        for i, slab in enumerate(self.slabs):
            if slab.slab_index != i + 1:
                raise ValueError("slab indices must run 1..n_slab in order")
        for a, b in zip(self.slabs, self.slabs[1:]):
            if b.n_init != a.n_final:
                raise ValueError(
                    f"slabs must tile the window range: {a.n_final} != {b.n_init}"
                )
        if self.converged and self.slabs[-1].n_final != self.trajectory.n_windows:
            raise ValueError("a converged result must cover every window")

    @property
    def n_slab(self) -> int:
        return len(self.slabs)

    @property
    def total_iterations(self) -> int:
        return sum(slab.k_conv for slab in self.slabs)


def _norm_float(x: float) -> float:
    return math.sqrt(x * x)  # bitwise np.linalg.norm of the 1-vector


def _norm_array(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x))  # what np.linalg.norm computes for a 1-d array


def _finite_float(q: float, p: float) -> bool:
    return math.isfinite(q) and math.isfinite(p)


def _finite_array(q: np.ndarray, p: np.ndarray) -> bool:
    return bool(np.isfinite(q).all() and np.isfinite(p).all())


def relative_error(a, b, n_init: int, n_final: int) -> float:
    """Relative position error of iterate ``b`` against iterate ``a``.

    Sums one Euclidean norm per node over ``max(n_init, 1) .. n_final``:
    sum |b_n - a_n| over sum |a_n|.  Node 0 never enters (it is the shared
    initial condition); momenta never enter.
    """
    if n_init < 0:
        raise ValueError(f"n_init must be >= 0, got {n_init}")
    if n_final < max(n_init, 1):
        raise ValueError(
            f"n_final must be >= max(n_init, 1), got n_init={n_init}, n_final={n_final}"
        )
    if n_final >= len(a) or n_final >= len(b):
        raise IndexError(
            f"node {n_final} out of range for trajectories of {len(a)} and {len(b)} nodes"
        )
    num, den = 0.0, 0.0
    for n in range(max(n_init, 1), n_final + 1):
        num += _norm_array(b[n].q - a[n].q)
        den += _norm_array(a[n].q)
    if den == 0.0:
        raise DegenerateNormalizationError(
            f"all reference positions on nodes {max(n_init, 1)}..{n_final} are zero"
        )
    return num / den


def _attach_context(err: BlowUpError, window, iteration) -> None:
    if err.window is None:
        err.window = window
    if err.iteration is None:
        err.iteration = iteration


def _one(prop, q, p, m: int, iteration):
    try:
        return prop.one(q, p, m)
    except BlowUpError as err:
        _attach_context(err, window=m + 1, iteration=iteration)
        raise


def _rows(prop, qs, ps, m0: int, iteration: int):
    try:
        return prop.rows(qs, ps, m0)
    except BlowUpError as err:
        _attach_context(err, window=None, iteration=iteration)
        raise


class _Scripted:
    """Row-by-row adapter that gives a plain ``(state, m)`` callable the
    :class:`PlanWindows` interface on ``(d,)`` array raw states."""

    scalar = False

    def __init__(self, prop: WindowPropagator) -> None:
        self._prop = prop

    def raw(self, state: PhaseState):
        return state.q, state.p

    def state(self, q, p) -> PhaseState:
        return PhaseState(q=q, p=p)

    def one(self, q, p, m: int):
        out = self._prop(PhaseState(q=q, p=p), m)
        return out.q, out.p

    def rows(self, qs, ps, m0: int):
        out = [_one(self, q, p, m0 + i, None) for i, (q, p) in enumerate(zip(qs, ps))]
        return [q for q, _ in out], [p for _, p in out]


def _windows(prop):
    return prop if isinstance(prop, PlanWindows) else _Scripted(prop)


def _check_plan(plan: NoisePlan, n_windows: int) -> None:
    if plan.n_windows < n_windows:
        raise ValueError(f"noise plan covers {plan.n_windows} windows, need {n_windows}")


def sequential_propagate(
    initial: PhaseState,
    n_windows: int,
    pot: Potential,
    params: LangevinParams,
    schedule: TemperatureSchedule,
    plan: NoisePlan,
) -> NodeTrajectory:
    """Chain ``n_windows`` fine windows; node n+1 uses the plan's seed n+1."""
    if n_windows < 0:
        raise ValueError(f"n_windows must be >= 0, got {n_windows}")
    _check_plan(plan, n_windows)
    if n_windows == 0:
        return NodeTrajectory((initial,))
    (windows,) = PlanWindows.for_potentials([pot], params, schedule, plan, initial)
    q, p = windows.raw(initial)
    nodes = []
    for m in range(n_windows):
        q, p = _one(windows, q, p, m, 0)
        nodes.append((q, p))
    return NodeTrajectory((initial,) + tuple(windows.state(q, p) for q, p in nodes))


def _close_attempt(attempts, n_init, n_final, iterations):
    width = n_final - n_init
    if iterations > width + 1:
        warnings.warn(
            f"slab [{n_init}, {n_final}] needed {iterations} iterations, beyond "
            f"the width + 1 = {width + 1} exact-arithmetic bound; delta_conv may "
            "be below roundoff",
            RuntimeWarning,
            stacklevel=4,
        )
    attempts.append(SlabAttempt(n_final=n_final, iterations=iterations))


def _parareal_loop(initial, fine, coarse, config, delta_expl, record_iterates=False):
    """Slab-shortening parareal with explosion threshold ``delta_expl``.

    With ``delta_expl = inf`` no sweep can explode, so the run is one slab of
    one attempt over the whole range: classic parareal.  ``fine`` and
    ``coarse`` are :class:`PlanWindows` or :class:`_Scripted`; states are
    kept raw as ``cur_q[n], cur_p[n]`` and ``g_q[m], g_p[m]`` holds the
    coarse output of window ``m`` from the current ``cur[m]``.
    """
    n = config.n_windows
    conv, expl = config.delta_conv, delta_expl
    mid = 0.5 * (conv + expl)
    norm, finite = (_norm_float, _finite_float) if coarse.scalar else (_norm_array, _finite_array)

    def trajectory():
        return NodeTrajectory(
            (initial,) + tuple(coarse.state(q, p) for q, p in zip(cur_q[1:], cur_p[1:]))
        )

    q0, p0 = coarse.raw(initial)
    cur_q = [q0] + [None] * n
    cur_p = [p0] + [None] * n
    g_q = [None] * n
    g_p = [None] * n
    iterates: list[NodeTrajectory] = []
    n_init = 0
    n_final = 0
    delta = 0.0  # below any threshold, so the first pass opens slab 1
    n_slab = 0
    slabs: list[SlabRecord] = []
    history: list[tuple[int, int, float]] = []
    attempts: list[SlabAttempt] = []
    k_in_slab = 0
    converged = True

    while n_final < n:
        if delta < expl:
            # previous slab converged (or nothing ran yet): open a new slab
            # on the whole remaining range and bootstrap it coarsely
            n_init = n_final
            n_final = n
            for m in range(n_init, n):
                q, p = _one(coarse, cur_q[m], cur_p[m], m, 0)
                g_q[m] = cur_q[m + 1] = q
                g_p[m] = cur_p[m + 1] = p
            if record_iterates:
                iterates.append(trajectory())
            n_slab += 1
            attempts = []
            k_in_slab = 0
        delta = mid
        k_attempt = 0
        aborted = False
        while conv <= delta <= expl:
            if k_attempt >= config.iteration_cap:
                aborted = True
                break
            prev_q = list(cur_q)
            # jumps F(U_m) - G(U_m) over the slab: one batched fine call,
            # and the coarse values kept from the bootstrap or last sweep
            f_q, f_p = _rows(
                fine, cur_q[n_init:n_final], cur_p[n_init:n_final], n_init, k_in_slab + 1
            )
            jump_q = [f - g for f, g in zip(f_q, g_q[n_init:n_final])]
            jump_p = [f - g for f, g in zip(f_p, g_p[n_init:n_final])]
            k_attempt += 1
            k_in_slab += 1
            num, den = 0.0, 0.0
            if n_init >= 1:
                num += norm(cur_q[n_init] - prev_q[n_init])
                den += norm(prev_q[n_init])
            for m in range(n_init, n_final):
                base_q, base_p = _one(coarse, cur_q[m], cur_p[m], m, k_in_slab)
                g_q[m], g_p[m] = base_q, base_p
                q = base_q + jump_q[m - n_init]
                p = base_p + jump_p[m - n_init]
                if not finite(q, p):
                    raise BlowUpError(
                        f"corrected state is not finite at window {m + 1} "
                        f"(iteration {k_in_slab})",
                        window=m + 1,
                        iteration=k_in_slab,
                    )
                cur_q[m + 1], cur_p[m + 1] = q, p
                num += norm(q - prev_q[m + 1])
                den += norm(prev_q[m + 1])
                if den == 0.0:
                    raise DegenerateNormalizationError(
                        f"all reference positions on nodes {max(n_init, 1)}..{m + 1} are zero"
                    )
                delta = num / den
                history.append((n_slab, k_in_slab, delta))
                if delta > expl:
                    if m == n_init:
                        raise SlabCollapseError(
                            f"slab {n_slab} exploded at its first window "
                            f"{n_init + 1}; no shorter slab exists",
                            slab_index=n_slab,
                            n_init=n_init,
                        )
                    _close_attempt(attempts, n_init, n_final, k_attempt)
                    n_final = m
                    break
            if record_iterates:
                iterates.append(trajectory())
        if aborted or delta < conv:
            _close_attempt(attempts, n_init, n_final, k_attempt)
            slabs.append(
                SlabRecord(
                    slab_index=n_slab,
                    n_init=n_init,
                    attempts=tuple(attempts),
                    n_final=n_final,
                    k_conv=sum(a.iterations for a in attempts),
                )
            )
        if aborted:
            converged = False
            break
    return PararealResult(
        trajectory=trajectory(),
        slabs=tuple(slabs),
        error_history=tuple(history),
        converged=converged,
        iterates=tuple(iterates) if record_iterates else None,
    )


def parareal_classic_engine(
    initial: PhaseState,
    fine: WindowPropagator | PlanWindows,
    coarse: WindowPropagator | PlanWindows,
    config: PararealConfig,
    record_iterates: bool = False,
) -> PararealResult:
    """Classic parareal over ``config.n_windows`` windows.

    Stops when the post-sweep relative error drops below ``delta_conv``, or
    after ``iteration_cap`` sweeps (then ``converged`` is false).  Runs the
    adaptive loop without an explosion threshold and keeps the error at the
    last node of each sweep.
    """
    result = _parareal_loop(
        initial, _windows(fine), _windows(coarse), config, math.inf, record_iterates
    )
    n = config.n_windows
    return replace(result, error_history=result.error_history[n - 1 :: n])


def parareal_adaptive_engine(
    initial: PhaseState,
    fine: WindowPropagator | PlanWindows,
    coarse: WindowPropagator | PlanWindows,
    config: PararealConfig,
) -> PararealResult:
    """Adaptive slab-shortening parareal.

    The running error is re-evaluated after every node of the corrected
    sweep; crossing ``delta_expl`` truncates the slab just before the node
    that crossed and iteration resumes on the shortened slab without a new
    bootstrap.  Converged slabs hand their endpoint to the next slab's
    bootstrap.  ``iteration_cap`` applies per attempt.
    """
    if config.delta_expl is None:
        raise ValueError("adaptive mode needs delta_expl in the configuration")
    return _parareal_loop(initial, _windows(fine), _windows(coarse), config, config.delta_expl)


def parareal_classic(
    initial: PhaseState,
    pair: PropagatorPair,
    params: LangevinParams,
    schedule: TemperatureSchedule,
    plan: NoisePlan,
    config: PararealConfig,
    record_iterates: bool = False,
) -> PararealResult:
    """Classic parareal on a potential pair under a shared noise plan."""
    _check_plan(plan, config.n_windows)
    fine, coarse = PlanWindows.for_potentials(
        [pair.fine, pair.coarse], params, schedule, plan, initial
    )
    return parareal_classic_engine(
        initial,
        fine,
        coarse,
        config,
        record_iterates=record_iterates,
    )


def parareal_adaptive(
    initial: PhaseState,
    pair: PropagatorPair,
    params: LangevinParams,
    schedule: TemperatureSchedule,
    plan: NoisePlan,
    config: PararealConfig,
) -> PararealResult:
    """Adaptive parareal on a potential pair under a shared noise plan."""
    _check_plan(plan, config.n_windows)
    fine, coarse = PlanWindows.for_potentials(
        [pair.fine, pair.coarse], params, schedule, plan, initial
    )
    return parareal_adaptive_engine(initial, fine, coarse, config)
