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
the coarse propagator runs once per node of the sweep, and the fine
propagator once per window.

The iterations of a slab run as a wave (pipelined parareal: Aubanel,
Parallel Computing 37, 2011; Ruprecht, Euro-Par 2017).  The bootstrap is
iteration 0, and iteration k + 1 takes window m only once iteration k has
taken it, so the iterations in flight always sit on distinct windows.  Each
step makes one coarse call over the current window of every iteration in
flight, and at most one fine call: only when a follower has run out of
jumps, and then over every window each follower's predecessor has reached.
While k stays within the depth, the k N serial windows of k sweeps become
about N + g k batched steps (g the gap below), and every value is computed
by the same expression as in a serial run, so results do not depend on the
schedule:

* The windows bound the schedule.  ``depth`` caps the iterations in flight
  and ``gap`` is how many windows a follower starts behind its predecessor
  (so one fine call serves that many steps).  Depth is 1 on the float path
  (d = 1), where a window costs about 1 us and a batched call about 70 us,
  and for plain callables; there each iteration makes one fine call over its
  whole slab and then sweeps it window by window, accounting for each
  common node inline.  On the array path they are
  ``integrator._WAVE_DEPTH`` and ``integrator._WAVE_GAP``.
* Followers start on evidence.  A follower starts only while more than half
  of the iterations in flight that gave evidence will almost surely be
  followed in a serial run: the bootstrap, a sweep that cut the slab, a
  sweep whose running error already reached ``delta_conv`` (the error
  rarely falls along a sweep, as each node adds its own error to the sum).
  A sweep still bit-identical to its predecessor, its running error exactly
  0 however it will end, gave none.  A slab that converges in a few
  iterations thus keeps few in flight, and one that needs many fills the
  depth.
* Speculation leaves no trace.  An iteration that a serial run would never
  start (its predecessor converged, reached ``iteration_cap`` or cut the
  slab short of its windows) is dropped with its work and its errors.
* Errors are deferred.  An iteration's errors are raised only when it is
  the oldest in flight, in serial order: first a fine blow-up, naming the
  lowest bad window of its range, then the first error of its own sweep.

The ``*_engine`` functions take the propagators either as plain callables
``(state, m) -> PhaseState``, where ``m`` is the 0-based window index (so
scripted propagators can be tested against hand-executed traces; they run
row by row), or as :class:`~paralangevin.integrator.PlanWindows`.  The
``parareal_*`` wrappers build the latter: potential-driven windows on a
shared noise plan (fine and coarse consume the same seed for the same
window, at every iteration), on Python floats (d = 1) or raw arrays.  No
``PhaseState`` is built inside the loop; the trajectory is built once at the
end, from the node storage in one call.  On the array path that storage is
two packed tables whose rows hold ``q`` then ``p`` (:func:`_storage`): the
batched stages gather and scatter whole rows, the per-row code reads views.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat
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


def check_slab_tiling(slabs) -> None:
    """Raise :class:`ValueError` unless ``slabs`` run 1..n and tile a range from window 0."""
    if not slabs:
        raise ValueError("slab list is empty; it must tile the window range")
    if slabs[0].n_init != 0:
        raise ValueError(f"first slab starts at {slabs[0].n_init}, expected 0")
    for i, slab in enumerate(slabs):
        if slab.slab_index != i + 1:
            raise ValueError("slab indices must run 1..n_slab in order")
    for a, b in zip(slabs, slabs[1:]):
        if b.n_init != a.n_final:
            raise ValueError(f"slabs must tile the window range: {a.n_final} != {b.n_init}")


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
        object.__setattr__(self, "error_history", tuple(self.error_history))
        if self.iterates is not None:
            object.__setattr__(self, "iterates", tuple(self.iterates))
        check_slab_tiling(self.slabs)
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


def _norms(x: np.ndarray) -> np.ndarray:
    """The :func:`_norm_array` of every row of ``x`` (``(B, d)``) in one
    stacked matmul, bitwise; ``einsum`` and ``(x * x).sum(1)`` are not."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


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


def _attach_context(err: Exception, window, iteration) -> None:
    if not isinstance(err, BlowUpError):
        return
    if err.window is None:
        err.window = window
    if err.iteration is None:
        err.iteration = iteration


class _Scripted:
    """Row-by-row adapter that gives a plain ``(state, m)`` callable the
    :class:`PlanWindows` interface on ``(d,)`` array raw states.  Its depth
    and gap are 1 unless a test asks for others."""

    scalar = False

    def __init__(self, prop: WindowPropagator, depth: int = 1, gap: int = 1) -> None:
        self._prop = prop
        self.depth = depth
        self.gap = gap

    def raw(self, state: PhaseState):
        return state.q, state.p

    def one(self, q, p, m: int):
        out = self._prop(PhaseState(q=q, p=p), m)
        return out.q, out.p

    def rows(self, qs, ps, ms):
        """:meth:`PlanWindows.rows` one row at a time; any exception a row
        raises is reported as that row's error.  A script may keep state, so
        the rows after the first bad one are not run and not returned; the
        engine never reads them."""
        out_q, out_p, bad = [], [], {}
        for q, p, m in zip(qs, ps, map(int, ms)):
            try:
                q, p = self.one(q, p, m)
            except Exception as err:
                _attach_context(err, window=m + 1, iteration=None)
                bad[len(out_q)] = err
                break
            out_q.append(q)
            out_p.append(p)
        d = np.shape(qs)[1]
        return np.reshape(out_q, (-1, d)), np.reshape(out_p, (-1, d)), bad


def _windows(prop):
    return prop if isinstance(prop, (PlanWindows, _Scripted)) else _Scripted(prop)


def _plan_windows(pots, initial, params, schedule, plan: NoisePlan, n_windows: int):
    """One :class:`PlanWindows` per potential on ``plan``, which must cover ``n_windows``."""
    if plan.n_windows < n_windows:
        raise ValueError(f"noise plan covers {plan.n_windows} windows, need {n_windows}")
    return PlanWindows.for_potentials(pots, params, schedule, plan, initial)


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
    if n_windows == 0:
        return _trajectory([initial.q], [initial.p], initial.dim)
    (windows,) = _plan_windows([pot], initial, params, schedule, plan, n_windows)
    q, p = windows.raw(initial)
    qs, ps = [q], [p]
    m = 0
    try:
        for m in range(n_windows):
            q, p = windows.one(q, p, m)
            qs.append(q)
            ps.append(p)
    except BlowUpError as err:
        _attach_context(err, window=m + 1, iteration=0)
        raise
    return _trajectory(qs, ps, initial.dim)


def _trajectory(qs, ps, d: int) -> NodeTrajectory:
    """The trajectory of raw nodes ``qs, ps``: floats, ``(d,)`` rows or an array."""
    return NodeTrajectory(q=np.reshape(qs, (-1, d)), p=np.reshape(ps, (-1, d)))


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


def _storage(scalar: bool, n_slots: int, n: int, d: int):
    """Storage allocated once per run, ``(X, G)``: nodes ``0..n`` of
    ``n_slots`` iterates, and one value per window ``0..n-1`` that the
    iterations share.  On the array path they are packed tables, ``(n_slots,
    n + 1, 2d)`` and ``(n, 2d)``, each row ``q`` then ``p``, and the per-row
    code reads ``q`` and ``p`` as views; on the float path each is a pair
    ``(q, p)`` of lists of floats.

    Window m's shared value is G(U_m) of the last iteration to take window
    m, until the fine stage of the next one turns it into that one's jump
    F(U_m) - G(U_m), which that iteration reads when it takes window m and
    then replaces by its own G(U_m).  Iterations take a window in order, so
    one value per window suffices.
    """
    if scalar:
        return [[[None] * (n + 1) for _ in range(n_slots)] for _ in "qp"], [[None] * n for _ in "qp"]
    return np.empty((n_slots, n + 1, 2 * d)), np.empty((n, 2 * d))


class _Sweep:
    """One iteration of a slab: its bootstrap (``k = 0``) or a corrected sweep.

    ``q[n], p[n]`` are its nodes, storage slot ``slot``.  Windows
    ``n_init .. pos - 1`` are done, and its jumps (from ``prev``) are known
    below window ``jumps`` (for the bootstrap, which takes none, ``end``).
    The sweep ends at ``end``, or at the window ``cut`` whose node crossed
    the explosion threshold.  ``fine_error`` (its jump stage) and ``error``
    (its own sweep) are held until the sweep is the oldest in flight.
    """

    __slots__ = (
        "k", "prev", "slot", "q", "p", "pos", "jumps", "end",
        "num", "den", "deltas", "cut", "error", "fine_error",
    )

    def __init__(self, k, prev, slot, q, p, n_init, end):
        self.k, self.prev, self.slot = k, prev, slot
        self.q, self.p = q, p
        self.pos = self.jumps = n_init
        self.end = end
        self.num = self.den = 0.0
        self.deltas = []
        self.cut = self.error = self.fine_error = None

    @property
    def done(self) -> bool:
        return self.cut is not None or self.pos == self.end

    @property
    def follower_end(self) -> int:
        return self.end if self.cut is None else self.cut


def _most_lead(flight, conv) -> bool:
    """Whether more than half of the iterations in ``flight`` that gave
    evidence lead (see the module docstring).  The bootstrap and a sweep
    that cut the slab lead; a sweep with a nonzero running error leads when
    it is at or above ``conv``; a sweep whose error is still exactly 0 has
    not voted."""
    lead = voters = 0
    for t in flight:
        if t.k == 0 or t.cut is not None:
            lead += 1
        elif t.num != 0.0:
            lead += bool(t.deltas) and t.deltas[-1] >= conv
        else:
            continue
        voters += 1
    return 2 * lead > voters


def _wave(q0, p0, n_init, n, fine, coarse, depth, gap, storage, cap, conv, expl, n_slab):
    """Yield the iterations of the slab opening at node ``n_init``, bootstrap
    first, each once its sweep is done; see the module docstring.

    Up to ``depth`` iterations are in flight, iteration ``k`` in node slot
    ``k`` modulo the slots (:func:`_storage`).  A step starts at most one
    follower, makes at most one fine call (when a follower has run out of
    jumps; it gives every follower the jumps of all windows its predecessor
    has reached), then one coarse call over the current windows of all
    ready iterations, oldest first.  A follower starts ``gap``
    windows behind its predecessor, and only while ``cap`` lets it run and
    most iterations in flight that gave evidence lead (:func:`_most_lead`);
    an iteration's error or convergence drops its followers, which no
    depth-1 run would start.  Errors are held, whatever their type, and
    raised when their iteration is the next to be yielded.
    """
    scalar = coarse.scalar
    norm = _norm_float if scalar else _norm_array
    one = coarse.one
    X, G = storage
    d = None if scalar else X.shape[2] // 2
    # the per-row code reads q and p as views of the packed rows on the array path
    (Q, P), (GQ, GP) = (X, G) if scalar else ((X[..., :d], X[..., d:]), (G[:, :d], G[:, d:]))

    def start(k, prev, end):
        slot = k % len(Q)
        s = _Sweep(k, prev, slot, Q[slot], P[slot], n_init, end)
        s.q[n_init], s.p[n_init] = q0, p0
        if prev is None:
            s.jumps = end  # the bootstrap takes no jumps
        elif n_init >= 1:
            s.num += norm(q0 - prev.q[n_init])
            s.den += norm(prev.q[n_init])
        return s

    def converged(s) -> bool:
        return s.k > 0 and s.cut is None and s.pos == s.end and s.deltas[-1] < conv

    def node(s, m, ok, n_step, n_x) -> bool:
        """Account for the corrected node ``m + 1`` of ``s``: ``ok`` if it is
        finite, ``n_step`` the norm of its position minus the reference
        position, ``n_x`` the norm of the reference position.  False when the
        node crossed the threshold and cut the slab at ``m``."""
        if not ok:
            raise BlowUpError(
                f"corrected state is not finite at window {m + 1} (iteration {s.k})",
                window=m + 1,
                iteration=s.k,
            )
        s.num += n_step
        s.den += n_x
        if s.den == 0.0:
            raise DegenerateNormalizationError(
                f"all reference positions on nodes {max(n_init, 1)}..{m + 1} are zero"
            )
        delta = s.num / s.den
        s.deltas.append(delta)
        if delta > expl:
            if m == n_init:
                raise SlabCollapseError(
                    f"slab {n_slab} exploded at its first window {n_init + 1}; "
                    "no shorter slab exists",
                    slab_index=n_slab,
                    n_init=n_init,
                )
            s.cut = s.pos = m
            return False
        return True

    def advance(s, hi):
        """Take ``s`` through windows ``s.pos .. hi - 1``, one coarse window at a time."""
        q, p, gq, gp = s.q, s.p, GQ, GP
        m = s.pos
        try:
            if s.prev is None:
                for m in range(s.pos, hi):
                    bq, bp = one(q[m], p[m], m)
                    q[m + 1] = gq[m] = bq
                    p[m + 1] = gp[m] = bp
            elif scalar:
                # node() inline for the common node: finite, a nonzero
                # denominator, not above expl; any other goes through node()
                pq, deltas = s.prev.q, s.deltas
                sqrt, inf = math.sqrt, math.inf
                for m in range(s.pos, hi):
                    bq, bp = one(q[m], p[m], m)
                    q[m + 1] = nq = bq + gq[m]  # the jump, replaced by G(U_m) next
                    p[m + 1] = np_ = bp + gp[m]
                    gq[m], gp[m] = bq, bp
                    x = pq[m + 1]
                    step = nq - x
                    n_step, n_x = sqrt(step * step), sqrt(x * x)  # _norm_float
                    ok = -inf < nq < inf and -inf < np_ < inf  # false for NaN
                    if ok:
                        num, den = s.num + n_step, s.den + n_x
                        if den != 0.0:
                            delta = num / den
                            if not delta > expl:
                                s.num, s.den = num, den
                                deltas.append(delta)
                                continue
                    if not node(s, m, ok, n_step, n_x):
                        return
            else:
                pq, nodes = s.prev.q, X[s.slot]
                for m in range(s.pos, hi):
                    c = np.concatenate(one(q[m], p[m], m))
                    nodes[m + 1] = nx = c + G[m]  # the jump, replaced by G(U_m) next
                    G[m] = c
                    x = pq[m + 1]
                    if not node(s, m, np.isfinite(nx).all(), norm(nx[:d] - x), norm(x)):
                        return
            s.pos = hi
        except Exception as err:  # held until s is the oldest in flight
            _attach_context(err, window=m + 1, iteration=s.k)
            s.error, s.pos = err, m

    def fine_stage(requests):
        """One fine call for ``requests``, ``(sweep, a, b)`` oldest first:
        the jumps of windows ``a .. b - 1`` from each sweep's predecessor.
        The first bad row's error goes to its sweep, whose index in
        ``requests`` is returned (``None`` when every row is good)."""
        if scalar:  # depth 1: one request
            ((s, a, b),) = requests
            fq, fp, bad = fine.rows(s.prev.q[a:b], s.prev.p[a:b], range(a, b))
            first = min(bad, default=b - a)
            GQ[a : a + first] = [f - g for f, g in zip(fq, GQ[a : a + first])]
            GP[a : a + first] = [f - g for f, g in zip(fp, GP[a : a + first])]
        else:
            slot = [s.prev.slot for s, a, b in requests for _ in range(a, b)]
            ms = [m for _, a, b in requests for m in range(a, b)]
            u = X[slot, ms]
            fq, fp, bad = fine.rows(u[:, :d], u[:, d:], ms)
            first = min(bad, default=len(ms))
            ms = ms[:first]
            G[ms] = np.concatenate((fq[:first], fp[:first]), axis=1) - G[ms]
        i = 0
        for r, (s, a, b) in enumerate(requests):
            s.jumps = a + min(b - a, first - i)
            if s.jumps < b:
                s.fine_error = bad[first]
                _attach_context(s.fine_error, window=None, iteration=s.k)
                return r
            i += b - a
        return None

    def coarse_stage(ready):
        """One coarse call over the current windows of ``ready`` (array
        path, oldest first), then their node updates in that order, with
        both norms of every corrected node taken in one call."""
        slot = np.array([t.slot for t in ready])
        ms = np.array([t.pos for t in ready])
        u = X[slot, ms]
        cq, cp, bad = coarse.rows(u[:, :d], u[:, d:], ms)
        first = min(bad, default=len(ready))
        c = np.concatenate((cq[:first], cp[:first]), axis=1)
        boot = ready[0].prev is None  # the bootstrap, when in flight, is the oldest
        up = slot[boot:first], ms[boot:first] + 1  # nodes the corrected rows set
        nx = c[boot:] + G[ms[boot:first]]
        # the predecessors' nodes: start() puts iteration k in slot k % slots,
        # so k - 1 sits one slot below it, and index -1 wraps to the last slot
        x = X[up[0] - 1, up[1], :d]
        G[ms[:first]] = c
        if boot and first:
            X[slot[0], ms[0] + 1] = c[0]
            ready[0].pos += 1
        X[up] = nx
        b = len(x)
        # one test for the whole array; the rows only when it fails
        ok = [True] * b if np.isfinite(nx).all() else np.isfinite(nx).all(axis=1).tolist()
        # no square overflows: windows keep every component within
        # BLOWUP_LIMIT, and plain callables run at depth 1
        norms = _norms(np.concatenate((nx[:, :d] - x, x))).tolist()
        for i in range(boot, first):
            t, j = ready[i], i - boot
            m = t.pos
            try:
                if node(t, m, ok[j], norms[j], norms[b + j]):
                    t.pos = m + 1
                    if t.pos < t.end:
                        continue  # no error, no cut, not converged: after() has nothing to do
            except Exception as err:  # held until t is the oldest in flight
                t.error = err
            if not after(t):
                return
        if first < len(ready):
            t = ready[first]
            t.error = bad[first]
            _attach_context(t.error, window=None, iteration=t.k)
            after(t)

    def after(t) -> bool:
        """Bookkeeping once ``t`` took a window: an error or convergence
        drops its followers (false: stop there); a cut shortens them."""
        nonlocal cut_k
        if t.error is not None or converged(t):
            del flight[flight.index(t) + 1 :]
            return False
        if t.cut is not None:
            cut_k = max(cut_k, t.k)
            for u in flight[flight.index(t) + 1 :]:
                u.end = min(u.end, t.cut)
        return True

    flight = [start(0, None, n)]
    cut_k = 0  # the last iteration known to have cut the slab
    while True:
        s = flight[0]
        if (s.error is not None or s.done) and s.fine_error is None and s.jumps < s.end:
            # depth-1 order: the jump stage covers the whole range before the
            # sweep starts, whatever the sweep then does
            fine_stage([(s, s.jumps, s.end)])
        if s.error is not None or s.fine_error is not None:
            raise s.fine_error or s.error
        if s.done:
            del flight[0]
            s.prev = None
            yield s
            if not flight:
                flight.append(start(s.k + 1, s, s.follower_end))
            continue
        y = flight[-1]
        grow = (
            len(flight) < depth
            and y.error is None
            and y.fine_error is None
            and y.k - cut_k < cap
            and not converged(y)
            and _most_lead(flight, conv)
        )
        if grow and y.pos >= min(n_init + gap, y.follower_end):
            flight.append(start(y.k + 1, y, y.follower_end))
        # a fine call only when a follower ran out of jumps; it then gives
        # every follower the jumps of all windows its predecessor has reached.
        # The requests are listed only on steps where one may have.
        if any(t.jumps == t.pos for t in flight):
            requests = [
                (t, t.jumps, b)
                for t in flight
                if t.prev is not None and t.error is None and t.fine_error is None
                and t.jumps < (b := min(t.prev.pos, t.end))
            ]
            if any(t.jumps == t.pos for t, _, _ in requests):
                r = fine_stage(requests)
                if r is not None:
                    del flight[flight.index(requests[r][0]) + 1 :]
        ready = [
            t for t in flight
            if t.error is None and t.fine_error is None and not t.done and t.jumps > t.pos
        ]
        if len(ready) == 1:
            # when nothing else can move until t is done, t goes as far as its
            # jumps go; otherwise one window, like the batched step
            t = ready[0]
            alone = not grow and all(u.done for u in flight if u is not t)
            advance(t, t.jumps if alone else t.pos + 1)
            after(t)
        elif ready:
            coarse_stage(ready)


def _parareal_loop(initial, fine, coarse, config, delta_expl, record_iterates=False):
    """Slab-shortening parareal with explosion threshold ``delta_expl``.

    Each pass opens a slab on the remaining range, bootstraps it and sweeps
    until a sweep converges or ``iteration_cap`` sweeps of one attempt ran;
    a sweep that cuts the slab closes the attempt and shortens the slab.
    With ``delta_expl = inf`` no sweep can cut, so the run is one slab of one
    attempt over the whole range, classic parareal, and the history keeps
    each sweep's last node only.  ``fine`` and ``coarse`` are
    :class:`PlanWindows` or :class:`_Scripted`; each slab's iterations come
    from :func:`_wave` in iteration order, and ``cur_q[n], cur_p[n]`` holds
    every node as the last iteration to reach it left it.
    """
    n = config.n_windows
    conv, cap = config.delta_conv, config.iteration_cap
    last_only = delta_expl == math.inf
    depth = min(fine.depth, coarse.depth)
    # node slots for the iterations in flight and the predecessor of the oldest
    storage = _storage(coarse.scalar, depth + 1, n, initial.dim)
    if coarse.scalar:
        cur_q, cur_p = [None] * (n + 1), [None] * (n + 1)
    else:
        cur_q, cur_p = np.empty((n + 1, initial.dim)), np.empty((n + 1, initial.dim))
    cur_q[0], cur_p[0] = coarse.raw(initial)
    slabs: list[SlabRecord] = []
    history: list[tuple[int, int, float]] = []
    iterates: list[NodeTrajectory] = []

    def commit(sweep) -> None:
        """Write the nodes ``sweep`` set into the current iterate, as a serial
        run overwrites them: up to its end, or to the node past its cut."""
        last = sweep.end if sweep.cut is None else sweep.cut + 1
        cur_q[n_init + 1 : last + 1] = sweep.q[n_init + 1 : last + 1]
        cur_p[n_init + 1 : last + 1] = sweep.p[n_init + 1 : last + 1]
        if record_iterates:
            iterates.append(_trajectory(cur_q, cur_p, initial.dim))

    n_init = 0
    converged = True
    while converged and n_init < n:
        n_slab, n_final = len(slabs) + 1, n
        wave = _wave(
            cur_q[n_init], cur_p[n_init], n_init, n, fine, coarse, depth, fine.gap, storage,
            cap, conv, delta_expl, n_slab,
        )
        commit(next(wave))
        attempts: list[SlabAttempt] = []
        k_in_slab = k_attempt = 0
        converged = False
        while not converged and k_attempt < cap:
            sweep = next(wave)
            k_attempt += 1
            k_in_slab += 1
            deltas = sweep.deltas[-1:] if last_only else sweep.deltas
            history.extend(zip(repeat(n_slab), repeat(k_in_slab), deltas))
            commit(sweep)
            if sweep.cut is not None:
                _close_attempt(attempts, n_init, n_final, k_attempt)
                n_final, k_attempt = sweep.cut, 0
            else:
                converged = sweep.deltas[-1] < conv
        _close_attempt(attempts, n_init, n_final, k_attempt)
        slabs.append(SlabRecord(n_slab, n_init, tuple(attempts), n_final, k_in_slab))
        n_init = n_final
    return PararealResult(
        trajectory=_trajectory(cur_q, cur_p, initial.dim),
        slabs=slabs,
        error_history=history,
        converged=converged,
        iterates=iterates if record_iterates else None,
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
    return _parareal_loop(
        initial, _windows(fine), _windows(coarse), config, math.inf, record_iterates
    )


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
    pots = (pair.fine, pair.coarse)
    fine, coarse = _plan_windows(pots, initial, params, schedule, plan, config.n_windows)
    return parareal_classic_engine(initial, fine, coarse, config, record_iterates=record_iterates)


def parareal_adaptive(
    initial: PhaseState,
    pair: PropagatorPair,
    params: LangevinParams,
    schedule: TemperatureSchedule,
    plan: NoisePlan,
    config: PararealConfig,
) -> PararealResult:
    """Adaptive parareal on a potential pair under a shared noise plan."""
    pots = (pair.fine, pair.coarse)
    fine, coarse = _plan_windows(pots, initial, params, schedule, plan, config.n_windows)
    return parareal_adaptive_engine(initial, fine, coarse, config)
