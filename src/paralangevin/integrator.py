"""A BBK-type Langevin integrator with per-substep temperature correction.

One propagation *window* advances ``substeps`` fine steps of size ``dt``.
The scheme is a velocity-Verlet splitting with friction and a fluctuation
half-kick on each side of the position update.  Two properties matter for
everything built on top:

* Noise reuse.  A window of L substeps consumes exactly L + 1 Gaussian
  blocks.  Block 0 enters only the opening half-kick, block L only the
  closing one, and every interior block ``l`` is used twice: in the closing
  half-kick of substep ``l`` and again in the opening half-kick of substep
  ``l + 1``, with the same amplitude.  That is what keeps the scheme at one
  fresh Gaussian and one force evaluation per step.

* Damping lag.  From the second substep on, the friction term of the opening
  half-kick acts on the previous half-step momentum, not on the full-step
  momentum.  Chains of windows restart from a full-step momentum, and that
  restart is what biases the stationary kinetic temperature: for L substeps
  per window the scheme equilibrates near ``inv_beta * (1 - 1/(2L))``
  instead of ``inv_beta``.

The bias can be removed by scaling the fluctuation amplitude of block ``l``
with a weight ``C_l``.  Requiring the leading-order stationary momentum
variance to be flat across a window forces the recursion ``C_1 = 4 - C_0``,
``C_l = 4 - 3 C_{l-1}``, which :func:`solve_schedule` evaluates; most
choices of ``C_0`` go negative after a few substeps, so the robust choice
``C_0 = 3`` (all later weights 1) is provided as a named constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LangevinParams, PhaseState
from .potentials import Free, Potential
from .rng import derive_seeds, gaussian_stream, gaussian_streams

#: any component beyond this magnitude aborts the window as a blow-up
BLOWUP_LIMIT = 1e12

#: rows of Gaussian streams generated per call in a kinetic-temperature run
_NOISE_BLOCK_ROWS = 256

#: parareal iterations in flight on the array path, at most; the engine
#: starts fewer when few look needed (see :mod:`paralangevin.parareal`).  A
#: batched call costs a fixed part plus a part per row: LJ-7 coarse, L = 2,
#: one serial window 65 us, 1, 8, 24 and 64 rows 75, 90, 116 and 156 us (its
#: gradient 22 us plus 0.3 us a row); 3-D double well 26 us, and 32 to 43 us
#: for 1 to 64 rows (in process, 2-vCPU host).  So a row in a call of 24
#: costs 0.07 of a serial window or less, and the cap mainly bounds the
#: storage, depth + 1 iterates of (N + 1, d) each; only slabs of more than
#: 24 iterations run faster deeper (BENCH_2.json).
_WAVE_DEPTH = 24

#: windows a follower starts behind its predecessor on the array path: one
#: fine call then gives the jumps of that many steps, and a call of a few
#: rows costs little more than a call of one (figures above).
_WAVE_GAP = 4

#: sampling modes for kinetic-temperature measurement
ALL_SUBSTEPS = "all_substeps"
WINDOW_ENDS = "window_ends"


class BlowUpError(RuntimeError):
    """A propagated state left the trusted numerical range."""

    def __init__(self, message: str, substep=None, window=None, iteration=None):
        super().__init__(message)
        self.substep = substep
        self.window = window
        self.iteration = iteration


class InfeasibleScheduleError(ValueError):
    """The correction recursion produced a non-positive weight."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class AnalyticCoefficients:
    """Per-step damping and fluctuation scales of the discrete scheme.

    ``theta = gamma * inv_beta * dt / 2`` is the variance injected by one
    unit-weight half-kick; ``mu = 1 - gamma * dt / 2`` is the half-step
    damping factor.
    """

    theta: float
    mu: float

    def __post_init__(self) -> None:
        # mu = 1 corresponds to the frictionless limit gamma = 0
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must lie in (0, 1], got {self.mu}")
        if self.theta < 0.0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")

    @classmethod
    def from_params(cls, params: LangevinParams) -> "AnalyticCoefficients":
        return cls(
            theta=0.5 * params.gamma * params.inv_beta * params.dt,
            mu=1.0 - 0.5 * params.gamma * params.dt,
        )


@dataclass(frozen=True)
class TemperatureSchedule:
    """Fluctuation weights ``C_0..C_L``, one per Gaussian block of a window."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) < 2:
            raise ValueError("a schedule needs at least C_0 and C_1 (substeps >= 1)")
        for i, c in enumerate(coeffs):
            if not (np.isfinite(c) and c > 0.0):
                raise ValueError(f"schedule weight C_{i} must be positive, got {c}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def substeps(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def identity(cls, substeps: int) -> "TemperatureSchedule":
        """All weights 1: the uncorrected scheme."""
        return cls(coefficients=(1.0,) * (substeps + 1))

    @classmethod
    def robust(cls, substeps: int) -> "TemperatureSchedule":
        """C_0 = 3, all later weights 1; feasible for every substep count."""
        return solve_schedule(substeps, 3.0)

    @classmethod
    def flat_pair(cls) -> "TemperatureSchedule":
        """C_0 = C_1 = 2, the alternative single-substep correction."""
        return solve_schedule(1, 2.0)


def solve_schedule(substeps: int, c0: float) -> TemperatureSchedule:
    """Weights from the flat-variance recursion, starting at ``C_0 = c0``.

    ``C_1 = 4 - C_0`` and ``C_l = 4 - 3 C_{l-1}`` afterwards.  Every weight
    must come out positive; otherwise the schedule is infeasible and the
    error names the first failing index.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    coeffs = [float(c0)]
    if not (np.isfinite(c0) and c0 > 0.0):
        raise InfeasibleScheduleError(
            f"schedule infeasible: C_0 = {c0} is not positive", index=0
        )
    coeffs.append(4.0 - coeffs[0])
    for l in range(2, substeps + 1):
        coeffs.append(4.0 - 3.0 * coeffs[l - 1])
    for i, c in enumerate(coeffs):
        if not c > 0.0:
            raise InfeasibleScheduleError(
                f"schedule infeasible for C_0 = {c0}: C_{i} = {c} is not positive",
                index=i,
            )
    return TemperatureSchedule(coefficients=tuple(coeffs))


def _amplitude(params: LangevinParams, c: float) -> float:
    """Fluctuation amplitude of one half-kick with schedule weight ``c``."""
    if not c > 0.0:
        raise ValueError(f"schedule weight must be positive, got {c}")
    return 0.5 * math.sqrt(2.0 * params.gamma * c * params.inv_beta * params.dt)


def _blow_up(substep: int) -> BlowUpError:
    return BlowUpError(
        f"state left the trusted range (|component| > {BLOWUP_LIMIT:g} "
        f"or non-finite) at substep {substep}",
        substep=substep,
    )


def _check_bounded(q: np.ndarray, p: np.ndarray, substep: int) -> None:
    # abs(nan) <= x is False, so this also catches non-finite components
    if not ((np.abs(q) <= BLOWUP_LIMIT).all() and (np.abs(p) <= BLOWUP_LIMIT).all()):
        raise _blow_up(substep)


def _check_substeps(params: LangevinParams, schedule: TemperatureSchedule) -> None:
    if schedule.substeps != params.substeps:
        raise ValueError(
            f"schedule has {schedule.substeps} substeps, params have {params.substeps}"
        )


def _step_kernel(q, p, p_half_prev, grad_q, grad_fn, gamma, dt, mass, kick_l, kick_lp1):
    p_half = p - 0.5 * dt * grad_q - 0.5 * dt * gamma * p_half_prev + kick_l
    q1 = q + dt * (p_half / mass)
    grad_q1 = grad_fn(q1)
    p1 = p_half - 0.5 * dt * grad_q1 - 0.5 * dt * gamma * p_half + kick_lp1
    return q1, p1, p_half, grad_q1


def _window_kernel(q, p, grad_fn, gamma, dt, mass, kicks, after_substep):
    """Advance one window; ``q`` and ``p`` are ``(d,)`` rows or ``(B, d)`` rows.

    ``kicks[l]`` is the amplitude-scaled Gaussian block ``l`` (``(B, d)`` for
    stacked rows; see :func:`_amplitudes`).  Every operation is elementwise
    per row, so a row of a stack is bitwise the row on its own.
    ``after_substep(q, p, l)`` runs after substep ``l`` (1-based).
    """
    # the opening substep's friction acts on the full-step momentum itself
    p_half = p
    grad_q = grad_fn(q)
    for l in range(len(kicks) - 1):
        q, p, p_half, grad_q = _step_kernel(
            q, p, p_half, grad_q, grad_fn, gamma, dt, mass, kicks[l], kicks[l + 1]
        )
        after_substep(q, p, l + 1)
    return q, p


def _amplitudes(params, schedule, mass):
    """``(L + 1, d)`` block amplitudes; ``(..., L + 1, d)`` blocks times them
    are the kicks, one multiply per component however many at once."""
    sqrt_m = np.sqrt(mass)
    return np.array([_amplitude(params, c) * sqrt_m for c in schedule.coefficients])


def propagate_window(
    state: PhaseState,
    pot: Potential,
    params: LangevinParams,
    schedule: TemperatureSchedule,
    seed: int,
) -> PhaseState:
    """Advance one window of ``params.substeps`` fine steps.

    The window's noise is drawn entirely from ``seed``: block ``l`` of the
    stream is the Gaussian vector G_l, consumed substep-major and
    component-minor.  Re-propagating with the same arguments is bitwise
    reproducible.  Raises :class:`BlowUpError` when any intermediate
    component exceeds :data:`BLOWUP_LIMIT` or turns non-finite.
    """
    _check_substeps(params, schedule)
    d = state.dim
    mass = params.mass_vector(d)
    noise = gaussian_stream(seed, (params.substeps + 1) * d).reshape(-1, d)
    q, p = _window_kernel(
        state.q, state.p, pot.gradient, params.gamma, params.dt, mass,
        noise * _amplitudes(params, schedule, mass), _check_bounded,
    )
    return PhaseState(q=q, p=p)


class PlanWindows:
    """The windows of one potential on one noise plan, set up once per run.

    Raw states are Python floats when ``scalar`` is set and ``(d,)`` arrays
    otherwise; build them with :meth:`for_potentials`, which checks the
    state's dimension and picks one representation for all potentials.
    :meth:`one` advances one window on that lean serial path; :meth:`rows`
    advances any set of windows in one batched kernel call.  Both are
    bitwise equal to :func:`propagate_window` with the plan's seed, and the
    noise comes from the plan's cache (:meth:`NoisePlan.noise`), scaled once
    per plan for all its potentials.  On floats :meth:`one` is the kernel
    written out in one frame, with the half-step factors formed once: a
    double-well window of 2 substeps costs about 1.0 us in process, against
    1.9 us through the kernel's per-substep calls (2-vCPU host,
    BENCH_5.json).

    ``depth`` is how many parareal iterations the engine may keep in flight
    on these windows, 1 on the float path and :data:`_WAVE_DEPTH` on the
    array path, and ``gap`` how many windows a follower starts behind its
    predecessor (see :mod:`paralangevin.parareal`).
    """

    def __init__(self, pot: Potential, params: LangevinParams, kicks: np.ndarray, scalar: bool) -> None:
        """``kicks`` is the plan's amplitude-scaled noise, ``(n_windows, L + 1,
        d)``, one read-only array shared by every potential on the plan."""
        self._d = kicks.shape[2]
        mass = params.mass_vector(self._d)
        self._grad = pot._grad
        self._gamma, self._dt = params.gamma, params.dt
        self._kicks = kicks
        self.scalar = scalar
        self.depth = 1 if scalar else _WAVE_DEPTH
        self.gap = _WAVE_GAP
        if scalar:
            self._mass = float(mass[0])
            # the float window's constants, as the array kernel forms them:
            # 0.5 * dt * x is (0.5 * dt) * x
            half_dt = 0.5 * self._dt
            self._float_window = (
                self._grad, self._dt, self._mass, half_dt, half_dt * self._gamma,
                -BLOWUP_LIMIT, BLOWUP_LIMIT,
            )
            self._substeps = range(1, params.substeps + 1)
            self._float_kicks = kicks[:, :, 0].tolist()
        else:
            self._mass = mass

    @classmethod
    def for_potentials(cls, pots, params, schedule, plan, initial) -> list["PlanWindows"]:
        """One per potential, on Python floats when d = 1 and every raw
        gradient keeps a float a float, else all on ``(d,)`` arrays."""
        for pot in pots:
            pot._check_q(initial.q)
        _check_substeps(params, schedule)
        x = float(initial.q[0])
        scalar = initial.dim == 1 and all(type(pot._grad(x)) is float for pot in pots)
        d = initial.dim
        noise = plan.noise((params.substeps + 1) * d).reshape(plan.n_windows, -1, d)
        kicks = noise * _amplitudes(params, schedule, params.mass_vector(d))
        kicks.setflags(write=False)
        return [cls(pot, params, kicks, scalar) for pot in pots]

    def raw(self, state: PhaseState):
        return (float(state.q[0]), float(state.p[0])) if self.scalar else (state.q, state.p)

    def one(self, q, p, m: int):
        """Window ``m`` (0-based) from raw ``(q, p)``; raises at the first bad substep."""
        if not self.scalar:
            return _window_kernel(
                q, p, self._grad, self._gamma, self._dt, self._mass, self._kicks[m],
                _check_bounded,
            )
        # _window_kernel on floats in one frame, operation for operation
        grad, dt, mass, h, hg, lo, hi = self._float_window
        kicks = self._float_kicks[m]
        kick = kicks[0]
        p_half = p
        g = grad(q)
        for l in self._substeps:
            p_half = p - h * g - hg * p_half + kick
            q = q + dt * (p_half / mass)
            g = grad(q)
            kick = kicks[l]
            p = p_half - h * g - hg * p_half + kick
            # false for NaN and inf, as abs(q) <= BLOWUP_LIMIT is
            if not (lo <= q <= hi and lo <= p <= hi):
                raise _blow_up(l)
        return q, p

    def rows(self, qs, ps, ms):
        """Windows ``ms[i]`` (0-based) from the raw states ``qs[i], ps[i]``, in one call.

        Returns ``(q_rows, p_rows, bad)``.  ``bad`` maps the index of every
        row that left the range to a :class:`BlowUpError` naming that row's
        window and its own first bad substep, as :meth:`one` would raise it;
        such rows carry no usable state.  Nothing is raised.
        """
        b = len(ms)
        # the kernel never writes its inputs, so a fresh gather needs no copy
        q = np.asarray(qs, dtype=float).reshape(b, self._d)
        p = np.asarray(ps, dtype=float).reshape(b, self._d)
        first_bad = np.zeros(b, dtype=np.int64)
        # consecutive windows are a view, so they cost no copy
        if isinstance(ms, range):
            kicks = self._kicks[ms.start : ms.stop]
        else:
            kicks = self._kicks.take(ms, axis=0)

        def mark(q, p, substep):
            # one test for the whole stack; max propagates NaN, and NaN <= x
            # is False.  The rows are looked at only when one of them failed.
            worst = np.abs(q)
            np.maximum(worst, np.abs(p), out=worst)
            if not worst.max(initial=0.0) <= BLOWUP_LIMIT:
                ok = worst.max(axis=1) <= BLOWUP_LIMIT
                first_bad[~ok & (first_bad == 0)] = substep

        # rows that blew up keep running to the window end; silence their overflow
        with np.errstate(all="ignore"):
            q, p = _window_kernel(
                q, p, self._grad, self._gamma, self._dt, self._mass, kicks.swapaxes(0, 1), mark
            )
        bad = {}
        for i in np.flatnonzero(first_bad).tolist():
            bad[i] = err = _blow_up(int(first_bad[i]))
            err.window = int(ms[i]) + 1
        if self.scalar:
            return q[:, 0].tolist(), p[:, 0].tolist(), bad
        return q, p, bad


def predicted_kinetic_temperature(substeps: int, inv_beta: float) -> float:
    """Leading-order stationary kinetic temperature of the uncorrected scheme."""
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    return inv_beta * (1.0 - 1.0 / (2.0 * substeps))


def predicted_schedule_temperature(
    schedule: TemperatureSchedule, inv_beta: float
) -> float | None:
    """Leading-order stationary kinetic temperature under ``schedule``.

    ``inv_beta`` when the weights meet the flat-variance recursion of
    :func:`solve_schedule` (up to roundoff), as ``robust`` and ``flat_pair``
    do; the uncorrected :func:`predicted_kinetic_temperature` when every
    weight is 1; ``None`` for any other weights, which no formula here covers.
    """
    c = schedule.coefficients
    if all(w == 1.0 for w in c):
        return predicted_kinetic_temperature(schedule.substeps, inv_beta)
    recursion = [4.0 - c[0]] + [4.0 - 3.0 * w for w in c[1:-1]]
    if all(math.isclose(w, r, rel_tol=1e-12) for w, r in zip(c[1:], recursion)):
        return inv_beta
    return None


def predicted_intermediate_variance(l: int, params: LangevinParams) -> float:
    """Leading-order stationary momentum variance after substep ``l``.

    Interpolates linearly in ``l`` between the window-start deficit and the
    equilibrium value reached at the window end.
    """
    n_sub = params.substeps
    if not 1 <= l <= n_sub:
        raise ValueError(f"substep index must lie in 1..{n_sub}, got {l}")
    coeffs = AnalyticCoefficients.from_params(params)
    k_eq = predicted_kinetic_temperature(n_sub, params.inv_beta)
    return k_eq + 2.0 * coeffs.theta * (l / n_sub - 1.0)


@dataclass(frozen=True)
class TemperatureReport:
    """Outcome of a kinetic-temperature measurement."""

    k_eq_empirical: float
    k_eq_predicted: float | None
    per_substep_variance: tuple[float, ...]
    n_windows: int
    n_burn_in: int
    sampling: str


def _accumulate_variance(s1, s2, count, mass):
    """Mass-weighted, component-averaged variance from running moments."""
    mean = s1 / count
    var = s2 / count - mean * mean
    return float(np.mean(var / mass))


def _window_noise(master_seed, n_windows, count, chunk):
    """Yield ``(n0, rows)``: the streams of windows ``n0 + 1 ..``, ``chunk`` rows at a time,
    each chunk filled :data:`_NOISE_BLOCK_ROWS` rows per call to keep the generator's
    temporaries small.  A row depends only on its seed, never on the blocking."""
    seeds = derive_seeds(master_seed, n_windows)
    for n0 in range(0, n_windows, chunk):
        n1 = min(n0 + chunk, n_windows)
        noise = np.empty((n1 - n0, count))
        for b0 in range(n0, n1, _NOISE_BLOCK_ROWS):
            b1 = min(b0 + _NOISE_BLOCK_ROWS, n1)
            noise[b0 - n0 : b1 - n0] = gaussian_streams(seeds[b0:b1], count)
        yield n0, noise


def _measure_chain(pot, params, amps, n_windows, master_seed, n_burn, d, mass):
    q = p = np.zeros(d)
    n_sub = params.substeps
    s1 = np.zeros((n_sub, d))
    s2 = np.zeros((n_sub, d))
    count = 0
    momenta = np.empty((n_sub, d))

    def record(q, p, substep):
        _check_bounded(q, p, substep)
        momenta[substep - 1] = p

    for n0, noise in _window_noise(master_seed, n_windows, (n_sub + 1) * d, _NOISE_BLOCK_ROWS):
        for n, kicks in enumerate(noise.reshape(-1, n_sub + 1, d) * amps, start=n0):
            q, p = _window_kernel(
                q, p, pot.gradient, params.gamma, params.dt, mass, kicks, record
            )
            if n >= n_burn:
                s1 += momenta
                s2 += momenta * momenta
                count += 1
    return s1, s2, count


def _measure_free(params, amps, n_windows, master_seed, n_burn, d):
    """Variance moments for the free potential without stepping window by window.

    For V = 0 the momentum recursion inside a window is linear with constant
    coefficients, so a window maps its start momentum to
    ``p_L = a p_0 + (noise combination)`` with ``a = mu^2 r^(L-1)`` and
    ``r = 1 - gamma dt``.  The chain over windows is then a first-order
    linear recursion over the window ends, and the interior momenta are
    reconstructed from its window starts.  Output agrees with the
    window-by-window chain up to roundoff.
    """
    n_sub = params.substeps
    mu = AnalyticCoefficients.from_params(params).mu
    r = 1.0 - params.gamma * params.dt
    # weight of amplitude-scaled block j inside the window-end map
    wcoef = np.empty(n_sub + 1)
    wcoef[0] = mu * r ** (n_sub - 1)
    for j in range(1, n_sub):
        wcoef[j] = 2.0 * mu * r ** (n_sub - 1 - j)
    wcoef[n_sub] = 1.0
    a = mu * mu * r ** (n_sub - 1)

    s1 = np.zeros((n_sub, d))
    s2 = np.zeros((n_sub, d))
    count = 0
    # the chunk is the summation unit, so its size is part of the result
    chunk = max(1, int(4_194_304 // ((n_sub + 1) * d)))
    z = p_end = np.zeros(d)
    for n0, noise in _window_noise(master_seed, n_windows, (n_sub + 1) * d, chunk):
        scaled = noise.reshape(-1, n_sub + 1, d) * amps
        # window-end momenta: p_L[i] = w[i] + a p_L[i - 1], in place
        w = np.einsum("j,bjd->bd", wcoef, scaled)
        for row in w:
            row += z
            z = a * row
        p0 = np.vstack([p_end[None, :], w[:-1]])
        lo = max(0, n_burn - n0)
        h = mu * p0 + scaled[:, 0, :]
        for l in range(1, n_sub + 1):
            p_l = mu * h + scaled[:, l, :]
            if lo < p_l.shape[0]:
                s1[l - 1] += p_l[lo:].sum(axis=0)
                s2[l - 1] += (p_l[lo:] * p_l[lo:]).sum(axis=0)
            if l < n_sub:
                h = r * h + 2.0 * scaled[:, l, :]
        count += max(0, w.shape[0] - lo)
        p_end = w[-1]
        _check_bounded(p_end, p_end, substep=n_sub)
    return s1, s2, count


def measure_kinetic_temperature(
    pot: Potential,
    params: LangevinParams,
    schedule: TemperatureSchedule,
    n_windows: int,
    master_seed: int,
    sampling: str = ALL_SUBSTEPS,
    burn_in: float = 0.1,
) -> TemperatureReport:
    """Chain windows from a cold start and report the stationary temperature.

    Window ``n`` uses the seed derived for index ``n`` from ``master_seed``.
    The first ``burn_in`` fraction of windows is discarded; the remaining
    full-step momenta enter the empirical variance, either all substeps
    (default) or the window-end momenta only.  The variance is mass-weighted
    (p^2/m) and averaged over components.
    """
    if sampling not in (ALL_SUBSTEPS, WINDOW_ENDS):
        raise ValueError(f"unknown sampling mode: {sampling!r}")
    if not 0.0 <= burn_in < 1.0:
        raise ValueError(f"burn_in must lie in [0, 1), got {burn_in}")
    if n_windows < 1:
        raise ValueError("n_windows must be >= 1")
    n_burn = int(round(burn_in * n_windows))
    if n_burn >= n_windows:
        n_burn = n_windows - 1
    _check_substeps(params, schedule)
    d = params.mass.shape[0] if params.mass is not None else 1
    mass = params.mass_vector(d)
    amps = _amplitudes(params, schedule, mass)
    if isinstance(pot, Free):
        s1, s2, count = _measure_free(params, amps, n_windows, master_seed, n_burn, d)
    else:
        s1, s2, count = _measure_chain(pot, params, amps, n_windows, master_seed, n_burn, d, mass)
    per_substep = tuple(
        _accumulate_variance(s1[l], s2[l], count, mass) for l in range(params.substeps)
    )
    if sampling == ALL_SUBSTEPS:
        k_emp = _accumulate_variance(
            s1.sum(axis=0), s2.sum(axis=0), count * params.substeps, mass
        )
    else:
        k_emp = per_substep[-1]
    return TemperatureReport(
        k_eq_empirical=k_emp,
        k_eq_predicted=predicted_schedule_temperature(schedule, params.inv_beta),
        per_substep_variance=per_substep,
        n_windows=n_windows,
        n_burn_in=n_burn,
        sampling=sampling,
    )
