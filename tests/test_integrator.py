"""Integrator tests.

The step oracles below are hand-coded transcriptions of the update rule,
written independently of the implementation module, and the free-particle
variance oracle propagates second moments exactly through the linear
recursion.  Expected numbers are frozen from those oracles, not from the
code under test.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paralangevin.integrator as integrator_module
from paralangevin.integrator import (
    ALL_SUBSTEPS,
    BLOWUP_LIMIT,
    WINDOW_ENDS,
    AnalyticCoefficients,
    BlowUpError,
    InfeasibleScheduleError,
    PlanWindows,
    TemperatureSchedule,
    measure_kinetic_temperature,
    predicted_intermediate_variance,
    predicted_kinetic_temperature,
    propagate_window,
    solve_schedule,
)
from paralangevin.model import LangevinParams, PhaseState
from paralangevin.potentials import (
    DoubleWell,
    Free,
    Harmonic,
    LennardJonesCluster,
    Perturbed,
    Potential,
)
from paralangevin.rng import NoisePlan, derive_seed, derive_seeds, gaussian_stream


# ---------------------------------------------------------------------------
# independent oracles


def _oracle_amp(gamma, inv_beta, dt, c, mass):
    return 0.5 * np.sqrt(2.0 * gamma * c * inv_beta * dt) * np.sqrt(mass)


def _oracle_first(q0, p0, grad, gamma, inv_beta, dt, mass, c0, c1, g0, g1):
    """Transcription of the opening substep: friction acts on p0 itself."""
    a0 = _oracle_amp(gamma, inv_beta, dt, c0, mass)
    a1 = _oracle_amp(gamma, inv_beta, dt, c1, mass)
    p_half = p0 - 0.5 * dt * grad(q0) - 0.5 * dt * gamma * p0 + a0 * g0
    q1 = q0 + dt * (p_half / mass)
    p1 = p_half - 0.5 * dt * grad(q1) - 0.5 * dt * gamma * p_half + a1 * g1
    return q1, p1, p_half


def _oracle_step(q, p, p_half_prev, grad, gamma, inv_beta, dt, mass, c_l, c_lp1, g_l, g_lp1):
    """Transcription of a subsequent substep: friction acts on the previous
    half-step momentum and the opening block g_l is the one that closed the
    substep before."""
    a_l = _oracle_amp(gamma, inv_beta, dt, c_l, mass)
    a_lp1 = _oracle_amp(gamma, inv_beta, dt, c_lp1, mass)
    p_half = p - 0.5 * dt * grad(q) - 0.5 * dt * gamma * p_half_prev + a_l * g_l
    q1 = q + dt * (p_half / mass)
    p1 = p_half - 0.5 * dt * grad(q1) - 0.5 * dt * gamma * p_half + a_lp1 * g_lp1
    return q1, p1, p_half


def _oracle_window(state, pot, params, coefficients, seed):
    L = params.substeps
    d = state.dim
    mass = params.mass_vector(d)
    g = gaussian_stream(seed, (L + 1) * d).reshape(L + 1, d)
    q, p = state.q, state.p
    q, p, p_half = _oracle_first(
        q, p, pot.gradient, params.gamma, params.inv_beta, params.dt, mass,
        coefficients[0], coefficients[1], g[0], g[1],
    )
    for l in range(1, L):
        q, p, p_half = _oracle_step(
            q, p, p_half, pot.gradient, params.gamma, params.inv_beta, params.dt,
            mass, coefficients[l], coefficients[l + 1], g[l], g[l + 1],
        )
    return q, p


def _uncorrected_window(state, pot, params, seed):
    """The plain scheme with no weight machinery at all, for the bitwise
    identity-schedule check."""
    L = params.substeps
    d = state.dim
    mass = params.mass_vector(d)
    amp = 0.5 * math.sqrt(2.0 * params.gamma * params.inv_beta * params.dt) * np.sqrt(mass)
    g = gaussian_stream(seed, (L + 1) * d).reshape(L + 1, d)
    gamma, dt = params.gamma, params.dt
    q, p = state.q, state.p
    p_half = p - 0.5 * dt * pot.gradient(q) - 0.5 * dt * gamma * p + amp * g[0]
    q = q + dt * (p_half / mass)
    p = p_half - 0.5 * dt * pot.gradient(q) - 0.5 * dt * gamma * p_half + amp * g[1]
    for l in range(1, L):
        p_half_new = p - 0.5 * dt * pot.gradient(q) - 0.5 * dt * gamma * p_half + amp * g[l]
        q = q + dt * (p_half_new / mass)
        p = p_half_new - 0.5 * dt * pot.gradient(q) - 0.5 * dt * gamma * p_half_new + amp * g[l + 1]
        p_half = p_half_new
    return q, p


def _free_variance_oracle(params, schedule):
    """Exact stationary momentum variances for the free potential, unit mass.

    Propagates second moments through the linear window map and solves the
    affine fixed point over chained windows.  No leading-order truncation.
    """
    theta = [0.5 * params.gamma * params.inv_beta * params.dt * c
             for c in schedule.coefficients]
    mu = 1.0 - 0.5 * params.gamma * params.dt
    r = 1.0 - params.gamma * params.dt
    L = params.substeps

    def end_var(v):
        vh = mu * mu * v + theta[0]
        for l in range(1, L):
            vh = r * r * vh + 4.0 * theta[l]
        return mu * mu * vh + theta[L]

    offset = end_var(0.0)
    slope = end_var(1.0) - offset
    v_star = offset / (1.0 - slope)
    vh = mu * mu * v_star + theta[0]
    per_substep = []
    for l in range(1, L + 1):
        per_substep.append(mu * mu * vh + theta[l])
        if l < L:
            vh = r * r * vh + 4.0 * theta[l]
    return v_star, per_substep


# ---------------------------------------------------------------------------
# single steps


def _substep(state, p_half_prev, pot, params, c_l, c_lp1, g_l, g_lp1):
    """One substep through the integrator's step kernel.

    An opening substep passes ``p_half_prev = state.p``, so its friction acts
    on the full-step momentum.  Returns the new state and the half-step
    momentum that the next substep takes as ``p_half_prev``.
    """
    mass = params.mass_vector(state.dim)
    sqrt_m = np.sqrt(mass)
    q1, p1, p_half, _ = integrator_module._step_kernel(
        state.q,
        state.p,
        np.asarray(p_half_prev, dtype=float),
        pot.gradient(state.q),
        pot.gradient,
        params.gamma,
        params.dt,
        mass,
        integrator_module._amplitude(params, c_l) * sqrt_m * np.asarray(g_l, dtype=float),
        integrator_module._amplitude(params, c_lp1) * sqrt_m * np.asarray(g_lp1, dtype=float),
    )
    return PhaseState(q=q1, p=p1), p_half


class TestBBKSteps:
    def test_first_step_hand_values(self):
        # harmonic k=1, gamma=0, inv_beta=0, q0=1, p0=0, dt=0.1
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1)
        state = PhaseState(q=[1.0], p=[0.0])
        new, p_half = _substep(
            state, state.p, Harmonic(k=1.0), params, 1.0, 1.0, np.zeros(1), np.zeros(1)
        )
        assert p_half[0] == pytest.approx(-0.05, rel=1e-14)
        assert new.q[0] == pytest.approx(0.995, rel=1e-14)
        assert new.p[0] == pytest.approx(-0.09975, rel=1e-14)

    def test_first_step_free_streaming(self):
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.125)
        state = PhaseState(q=[2.0, -1.0], p=[0.5, 0.25])
        # nonzero variates must not matter: the amplitude is exactly zero
        g = np.array([1.3, -0.7])
        new, p_half = _substep(state, state.p, Free(), params, 1.0, 1.0, g, g)
        assert np.array_equal(new.p, state.p)
        assert np.array_equal(p_half, state.p)
        assert np.array_equal(new.q, state.q + 0.125 * state.p)

    def test_step_free_streaming(self):
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.125)
        state = PhaseState(q=[2.0], p=[0.5])
        g = np.array([0.9])
        new, p_half = _substep(state, state.p, Free(), params, 1.0, 1.0, g, g)
        assert np.array_equal(new.p, state.p)
        assert np.array_equal(new.q, state.q + 0.125 * state.p)

    def test_first_step_matches_transcription(self):
        params = LangevinParams(gamma=1.0, inv_beta=1.0, dt=0.1)
        pot = Harmonic(k=1.0)
        state = PhaseState(q=[1.0, -0.5, 0.25], p=[0.3, 0.0, -0.8])
        g0 = np.full(3, 1.0)
        g1 = np.full(3, 1.0)
        new, p_half = _substep(state, state.p, pot, params, 1.0, 1.0, g0, g1)
        q_ref, p_ref, ph_ref = _oracle_first(
            state.q, state.p, pot.gradient, 1.0, 1.0, 0.1, np.ones(3), 1.0, 1.0, g0, g1
        )
        np.testing.assert_allclose(new.q, q_ref, rtol=1e-15)
        np.testing.assert_allclose(new.p, p_ref, rtol=1e-15)
        np.testing.assert_allclose(p_half, ph_ref, rtol=1e-15)

    def test_step_matches_transcription_with_weights_and_mass(self):
        mass = np.array([1.0, 2.5])
        params = LangevinParams(gamma=0.7, inv_beta=2.0, dt=0.05, mass=mass)
        pot = DoubleWell(a=1.0, b=1.0)
        state = PhaseState(q=[0.4, -1.2], p=[0.1, 0.6])
        p_half_prev = np.array([0.05, 0.55])
        g_l = np.array([0.3, -1.1])
        g_lp1 = np.array([-0.2, 0.8])
        new, p_half = _substep(state, p_half_prev, pot, params, 3.0, 1.0, g_l, g_lp1)
        q_ref, p_ref, ph_ref = _oracle_step(
            state.q, state.p, p_half_prev, pot.gradient,
            0.7, 2.0, 0.05, mass, 3.0, 1.0, g_l, g_lp1,
        )
        np.testing.assert_allclose(new.q, q_ref, rtol=1e-15)
        np.testing.assert_allclose(new.p, p_ref, rtol=1e-15)
        np.testing.assert_allclose(p_half, ph_ref, rtol=1e-15)

    def test_two_steps_match_damped_verlet_hand_recursion(self):
        # zero noise, L=2: the scheme must agree with an explicit
        # velocity-Verlet-with-friction recursion written out by hand
        gamma, dt = 0.3, 0.05
        params = LangevinParams(gamma=gamma, inv_beta=1.0, dt=dt, substeps=2)
        pot = Harmonic(k=1.0)
        q0, p0 = np.array([1.0]), np.array([0.5])
        z = np.zeros(1)

        s1, ph1 = _substep(PhaseState(q=q0, p=p0), p0, pot, params, 1.0, 1.0, z, z)
        s2, _ = _substep(s1, ph1, pot, params, 1.0, 1.0, z, z)

        ph = p0 - 0.5 * dt * q0 - 0.5 * dt * gamma * p0
        q1 = q0 + dt * ph
        p1 = ph - 0.5 * dt * q1 - 0.5 * dt * gamma * ph
        ph2 = p1 - 0.5 * dt * q1 - 0.5 * dt * gamma * ph
        q2 = q1 + dt * ph2
        p2 = ph2 - 0.5 * dt * q2 - 0.5 * dt * gamma * ph2
        np.testing.assert_allclose(s2.q, q2, rtol=1e-15)
        np.testing.assert_allclose(s2.p, p2, rtol=1e-15)


# ---------------------------------------------------------------------------
# window propagation


def _window_params(**kw):
    base = dict(gamma=0.8, inv_beta=2.3, dt=0.05, substeps=4)
    base.update(kw)
    return LangevinParams(**base)


class TestPropagateWindow:
    def test_single_substep_equals_first_step(self):
        params = _window_params(substeps=1)
        state = PhaseState(q=[0.2, -0.4], p=[1.0, 0.3])
        seed = derive_seed(11, 1)
        g = gaussian_stream(seed, 2 * state.dim).reshape(2, state.dim)
        expected, _ = _substep(
            state, state.p, Harmonic(k=1.0), params, 1.0, 1.0, g[0], g[1]
        )
        out = propagate_window(
            state, Harmonic(k=1.0), params, TemperatureSchedule.identity(1), seed
        )
        assert np.array_equal(out.q, expected.q)
        assert np.array_equal(out.p, expected.p)

    def test_deterministic(self):
        params = _window_params()
        state = PhaseState(q=[0.1, 0.2, 0.3], p=[0.0, -1.0, 1.0])
        sched = TemperatureSchedule.robust(4)
        a = propagate_window(state, DoubleWell(), params, sched, 99)
        b = propagate_window(state, DoubleWell(), params, sched, 99)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.p, b.p)

    def test_matches_window_oracle_with_robust_schedule(self):
        params = _window_params(mass=np.array([1.0, 2.0]))
        sched = TemperatureSchedule.robust(4)
        pot = DoubleWell(a=1.0, b=1.0)
        state = PhaseState(q=[0.9, -1.1], p=[0.2, 0.0])
        out = propagate_window(state, pot, params, sched, derive_seed(5, 3))
        q_ref, p_ref = _oracle_window(state, pot, params, sched.coefficients,
                                      derive_seed(5, 3))
        np.testing.assert_allclose(out.q, q_ref, rtol=1e-15)
        np.testing.assert_allclose(out.p, p_ref, rtol=1e-15)

    def test_identity_schedule_is_bitwise_uncorrected(self):
        params = _window_params()
        pot = Harmonic(k=1.0)
        sched = TemperatureSchedule.identity(4)
        state = PhaseState(q=[0.3, -0.2, 0.7], p=[0.1, 0.0, -0.5])
        for n in range(1, 6):
            seed = derive_seed(42, n)
            out = propagate_window(state, pot, params, sched, seed)
            q_ref, p_ref = _uncorrected_window(state, pot, params, seed)
            assert np.array_equal(out.q, q_ref)
            assert np.array_equal(out.p, p_ref)
            state = out

    def test_free_window_is_exact_streaming(self):
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.125, substeps=3)
        state = PhaseState(q=[2.0], p=[0.5])
        out = propagate_window(
            state, Free(), params, TemperatureSchedule.identity(3), seed=1
        )
        assert out.p[0] == 0.5
        assert out.q[0] == 2.0 + 3 * 0.125 * 0.5

    def test_schedule_length_mismatch(self):
        params = _window_params(substeps=2)
        state = PhaseState(q=[0.0], p=[0.0])
        with pytest.raises(ValueError, match="substeps"):
            propagate_window(
                state, Free(), params, TemperatureSchedule.identity(3), seed=1
            )

    def test_noise_blocks_consumed_in_order_and_reused(self, monkeypatch):
        """Block l must close substep l and reopen substep l+1 with the same
        amplitude; exactly one stream of (L+1)*d variates is drawn."""
        calls = []
        streams = []
        real_step = integrator_module._step_kernel
        real_stream = integrator_module.gaussian_stream

        def spy_step(q, p, p_half, grad_q, grad_fn, gamma, dt, mass, kick_l, kick_lp1):
            calls.append((np.copy(p_half), np.copy(kick_l), np.copy(kick_lp1)))
            return real_step(q, p, p_half, grad_q, grad_fn, gamma, dt, mass, kick_l, kick_lp1)

        def spy_stream(seed, count):
            streams.append((seed, count))
            return real_stream(seed, count)

        monkeypatch.setattr(integrator_module, "_step_kernel", spy_step)
        monkeypatch.setattr(integrator_module, "gaussian_stream", spy_stream)

        n_sub, d, seed = 4, 2, derive_seed(8, 2)
        params = _window_params(substeps=n_sub, mass=np.array([1.0, 3.0]))
        sched = TemperatureSchedule.robust(n_sub)
        start = PhaseState(q=[0.1, 0.2], p=[0.4, -0.3])
        propagate_window(start, Harmonic(k=1.0), params, sched, seed)

        assert streams == [(seed, (n_sub + 1) * d)]
        blocks = gaussian_stream(seed, (n_sub + 1) * d).reshape(n_sub + 1, d)
        assert len(calls) == n_sub
        # the opening substep's friction acts on the start momentum itself
        assert np.array_equal(calls[0][0], start.p)
        sqrt_m = np.sqrt(params.mass_vector(d))
        amps = [integrator_module._amplitude(params, c) * sqrt_m for c in sched.coefficients]
        for l, (_, kick_open, kick_close) in enumerate(calls):
            # kick l is block l times its amplitude, one multiply per component
            assert np.array_equal(kick_open, amps[l] * blocks[l])
            assert np.array_equal(kick_close, amps[l + 1] * blocks[l + 1])
            if l > 0:
                # reused block: the same kick as the closing half-kick of
                # the previous substep
                assert np.array_equal(kick_open, calls[l - 1][2])


# ---------------------------------------------------------------------------
# schedules


class TestSchedules:
    def test_robust_choice(self):
        for n_sub in (1, 4, 10):
            sched = solve_schedule(n_sub, 3.0)
            assert sched.coefficients == (3.0,) + (1.0,) * n_sub
            assert TemperatureSchedule.robust(n_sub) == sched

    def test_flat_pair(self):
        assert solve_schedule(1, 2.0).coefficients == (2.0, 2.0)
        assert TemperatureSchedule.flat_pair().coefficients == (2.0, 2.0)

    def test_infeasible_at_index_two(self):
        with pytest.raises(InfeasibleScheduleError, match="C_2") as exc_info:
            solve_schedule(3, 2.0)
        assert exc_info.value.index == 2

    def test_infeasible_examples(self):
        # c0=2.5 dies at C_2 = 4 - 4.5; c0=3.5 survives to L=2, dies at C_3
        assert solve_schedule(1, 2.5).coefficients == (2.5, 1.5)
        with pytest.raises(InfeasibleScheduleError) as exc_info:
            solve_schedule(2, 2.5)
        assert exc_info.value.index == 2
        assert solve_schedule(2, 3.5).coefficients == (3.5, 0.5, 2.5)
        with pytest.raises(InfeasibleScheduleError) as exc_info:
            solve_schedule(3, 3.5)
        assert exc_info.value.index == 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_schedule(0, 3.0)
        with pytest.raises(InfeasibleScheduleError):
            solve_schedule(1, 0.0)
        with pytest.raises(InfeasibleScheduleError):
            solve_schedule(1, -1.0)

    @settings(max_examples=200)
    @given(
        st.floats(min_value=0.5, max_value=3.9),
        st.integers(min_value=1, max_value=8),
    )
    def test_recursion_matches_closed_form(self, c0, n_sub):
        # closed form: C_l = 1 + 3^(l-1)(c0 - 3) for even l, 1 + 3^(l-1)(3 - c0)
        # for odd l; on failure the reported index is the first non-positive one
        def closed(l):
            if l == 0:
                return c0
            sign = (c0 - 3.0) if l % 2 == 0 else (3.0 - c0)
            return 1.0 + 3.0 ** (l - 1) * sign

        try:
            sched = solve_schedule(n_sub, c0)
        except InfeasibleScheduleError as err:
            assert closed(err.index) <= 1e-9
            for l in range(err.index):
                assert closed(l) > -1e-9
        else:
            for l, c in enumerate(sched.coefficients):
                assert c == pytest.approx(closed(l), rel=1e-12, abs=1e-12)

    def test_schedule_type_validation(self):
        with pytest.raises(ValueError):
            TemperatureSchedule(coefficients=(1.0,))
        with pytest.raises(ValueError, match="C_1"):
            TemperatureSchedule(coefficients=(1.0, 0.0))
        with pytest.raises(ValueError):
            TemperatureSchedule(coefficients=(1.0, np.nan))
        sched = TemperatureSchedule.identity(5)
        assert sched.substeps == 5
        assert sched.coefficients == (1.0,) * 6


# ---------------------------------------------------------------------------
# analytic predictions


class TestPredictions:
    def test_analytic_coefficients(self):
        params = LangevinParams(gamma=0.5, inv_beta=2.0, dt=0.1)
        coeffs = AnalyticCoefficients.from_params(params)
        assert coeffs.theta == 0.5 * 0.5 * 2.0 * 0.1
        assert coeffs.mu == 1.0 - 0.5 * 0.5 * 0.1
        assert AnalyticCoefficients.from_params(
            LangevinParams(gamma=0.0, inv_beta=1.0, dt=0.1)
        ).mu == 1.0
        with pytest.raises(ValueError):
            AnalyticCoefficients(theta=0.1, mu=0.0)
        with pytest.raises(ValueError):
            AnalyticCoefficients(theta=-0.1, mu=0.5)

    def test_kinetic_temperature_values(self):
        assert predicted_kinetic_temperature(1, 300.0) == 150.0
        assert predicted_kinetic_temperature(10, 300.0) == pytest.approx(285.0, rel=1e-14)
        assert predicted_kinetic_temperature(10**9, 300.0) == pytest.approx(300.0, rel=1e-8)
        with pytest.raises(ValueError):
            predicted_kinetic_temperature(0, 300.0)

    def test_intermediate_variance_hand_values(self):
        params = LangevinParams(gamma=1.0, inv_beta=1.0, dt=0.1, substeps=10)
        k_eq = predicted_kinetic_temperature(10, 1.0)
        assert predicted_intermediate_variance(10, params) == k_eq
        assert predicted_intermediate_variance(5, params) == pytest.approx(
            k_eq - 0.05, rel=1e-13
        )
        with pytest.raises(ValueError):
            predicted_intermediate_variance(0, params)
        with pytest.raises(ValueError):
            predicted_intermediate_variance(11, params)

    def test_intermediate_correction_negligible_at_small_friction(self):
        # gamma*dt = 5e-4 at inv_beta = 300: every per-substep deviation from
        # the window-end value stays below 0.15, tiny next to K_eq = 285
        params = LangevinParams(gamma=1.0, inv_beta=300.0, dt=5e-4, substeps=10)
        k_eq = predicted_kinetic_temperature(10, 300.0)
        deviations = [abs(predicted_intermediate_variance(l, params) - k_eq)
                      for l in range(1, 11)]
        assert max(deviations) <= 0.15
        assert deviations[0] == pytest.approx(0.135, rel=1e-12)


# ---------------------------------------------------------------------------
# temperature measurement


class TestMeasureKineticTemperature:
    def test_empirical_matches_exact_recursion(self):
        # identity schedule, L=4: empirical per-substep variances against the
        # exact second-moment recursion, within 4 sigma of the estimator
        params = LangevinParams(
            gamma=0.5, inv_beta=2.0, dt=0.05, substeps=4, mass=np.ones(8)
        )
        sched = TemperatureSchedule.identity(4)
        n_windows = 200_000
        report = measure_kinetic_temperature(
            Free(), params, sched, n_windows, master_seed=2024
        )
        v_star, per_substep = _free_variance_oracle(params, sched)
        assert v_star == pytest.approx(per_substep[-1], rel=1e-12)

        # effective sample count under window-to-window correlation a
        mu = 1.0 - 0.5 * params.gamma * params.dt
        r = 1.0 - params.gamma * params.dt
        a = mu * mu * r ** 3
        n_samples = (n_windows - report.n_burn_in) * 8
        n_eff = n_samples * (1.0 - a * a) / (1.0 + a * a)
        four_sigma = 4.0 * math.sqrt(2.0 / n_eff)
        for emp, exact in zip(report.per_substep_variance, per_substep):
            assert abs(emp - exact) <= four_sigma * exact
        pooled = sum(per_substep) / len(per_substep)
        assert abs(report.k_eq_empirical - pooled) <= four_sigma * pooled

    def test_corrected_schedule_flattens_variance(self):
        # robust weights push every per-substep variance to inv_beta itself
        params = LangevinParams(
            gamma=0.5, inv_beta=2.0, dt=0.05, substeps=4, mass=np.ones(8)
        )
        _, per_substep = _free_variance_oracle(params, TemperatureSchedule.robust(4))
        for v in per_substep:
            assert v == pytest.approx(2.0, rel=0.02)
        # and the uncorrected window-end value sits near the predicted deficit
        _, uncorrected = _free_variance_oracle(params, TemperatureSchedule.identity(4))
        assert uncorrected[-1] == pytest.approx(
            predicted_kinetic_temperature(4, 2.0), rel=0.02
        )

    @pytest.mark.parametrize(
        "substeps,dim",
        [(3, 2), (1, 8)],  # scalar-variate regime and vectorized regime
    )
    def test_free_fast_path_matches_windowed_chain(self, substeps, dim):
        # Perturbed(base=Free, lam=0) computes identical forces but is not
        # dispatched to the closed-form fast path, so it exercises the
        # window-by-window chain on bitwise-identical noise
        params = LangevinParams(
            gamma=0.4, inv_beta=1.7, dt=0.05, substeps=substeps,
            mass=np.linspace(1.0, 2.0, dim),
        )
        sched = TemperatureSchedule.robust(substeps)
        fast = measure_kinetic_temperature(
            Free(), params, sched, 400, master_seed=77
        )
        chain = measure_kinetic_temperature(
            Perturbed(Free(), Harmonic(k=1.0), lam=0.0), params, sched, 400,
            master_seed=77,
        )
        assert fast.k_eq_empirical == pytest.approx(chain.k_eq_empirical, rel=1e-9)
        for a, b in zip(fast.per_substep_variance, chain.per_substep_variance):
            assert a == pytest.approx(b, rel=1e-9)
        assert fast.n_burn_in == chain.n_burn_in == 40

    def test_window_ends_sampling(self):
        params = LangevinParams(gamma=0.6, inv_beta=1.0, dt=0.05, substeps=3)
        sched = TemperatureSchedule.identity(3)
        report = measure_kinetic_temperature(
            Harmonic(k=1.0), params, sched, 50, master_seed=5, sampling=WINDOW_ENDS
        )
        assert report.sampling == WINDOW_ENDS
        assert report.k_eq_empirical == report.per_substep_variance[-1]
        assert report.n_windows == 50
        assert report.n_burn_in == 5
        assert len(report.per_substep_variance) == 3

    @pytest.mark.parametrize("pot", [Free(), Harmonic(k=1.0)], ids=["free", "chain"])
    def test_burn_in_keeps_the_last_window(self, pot):
        # 0.75 of 2 windows rounds to 2; the clamp keeps the last one, so the
        # run is the one that discards a single window
        params = LangevinParams(gamma=0.5, inv_beta=1.0, dt=0.05, substeps=2)
        sched = TemperatureSchedule.identity(2)
        report = measure_kinetic_temperature(pot, params, sched, 2, 1, burn_in=0.75)
        assert (report.n_windows, report.n_burn_in) == (2, 1)
        assert report == measure_kinetic_temperature(pot, params, sched, 2, 1, burn_in=0.5)

    def test_input_validation(self):
        params = LangevinParams(gamma=0.5, inv_beta=1.0, dt=0.05)
        sched = TemperatureSchedule.identity(1)
        with pytest.raises(ValueError, match="sampling"):
            measure_kinetic_temperature(Free(), params, sched, 10, 1, sampling="mean")
        with pytest.raises(ValueError, match="burn_in"):
            measure_kinetic_temperature(Free(), params, sched, 10, 1, burn_in=1.0)
        with pytest.raises(ValueError, match="n_windows"):
            measure_kinetic_temperature(Free(), params, sched, 0, 1)

    @pytest.mark.parametrize("pot", [Free(), Harmonic(k=1.0)], ids=["free", "chain"])
    def test_schedule_must_match_substeps(self, pot):
        params = LangevinParams(gamma=0.5, inv_beta=1.0, dt=0.05, substeps=2)
        with pytest.raises(ValueError, match="schedule has 3 substeps, params have 2"):
            measure_kinetic_temperature(pot, params, TemperatureSchedule.identity(3), 10, 1)


# ---------------------------------------------------------------------------
# deterministic limit and blow-up handling


class _NaNPotential(Potential):
    def energy(self, q):
        return float("nan")

    def gradient(self, q):
        return np.full(np.asarray(q, dtype=float).shape, np.nan)


class TestLimitsAndFailures:
    def test_deterministic_limit_energy_drift(self):
        # gamma = 0, inv_beta = 0 reduces the scheme to velocity Verlet; the
        # harmonic energy must show no secular drift. The drift is the
        # least-squares slope of E(t) times the run length, which ignores the
        # bounded O(dt^2) oscillation a plain endpoint difference would see.
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.01, substeps=1)
        sched = TemperatureSchedule.identity(1)
        pot = Harmonic(k=1.0)
        n_steps = 10_000
        seeds = derive_seeds(3, n_steps)
        state = PhaseState(q=[1.0], p=[0.0])
        e0 = pot.energy(state.q) + 0.5 * float(state.p @ state.p)
        energies = np.empty(n_steps)
        for n in range(n_steps):
            state = propagate_window(state, pot, params, sched, int(seeds[n]))
            energies[n] = pot.energy(state.q) + 0.5 * float(state.p @ state.p)
        times = params.dt * np.arange(1, n_steps + 1)
        slope = np.polyfit(times, energies, 1)[0]
        drift = abs(slope) * (params.dt * n_steps)
        assert drift / e0 < 1e-6
        # the oscillation itself stays at the (omega*dt)^2 scale
        assert np.max(np.abs(energies - e0)) / e0 < 5e-5

    def test_blow_up_raises_with_substep(self):
        # omega*dt = 100 is far beyond the stability limit of the splitting
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1, substeps=20)
        sched = TemperatureSchedule.identity(20)
        state = PhaseState(q=[1.0], p=[0.0])
        with pytest.raises(BlowUpError, match="substep") as exc_info:
            propagate_window(state, Harmonic(k=1e6), params, sched, seed=1)
        assert exc_info.value.substep == 2
        assert exc_info.value.window is None

    def test_blow_up_on_out_of_range_start(self):
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1, substeps=2)
        state = PhaseState(q=[10.0 * BLOWUP_LIMIT], p=[0.0])
        with pytest.raises(BlowUpError):
            propagate_window(
                state, Free(), params, TemperatureSchedule.identity(2), seed=1
            )

    def test_blow_up_on_non_finite(self):
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1, substeps=2)
        state = PhaseState(q=[0.0], p=[0.0])
        with pytest.raises(BlowUpError, match="non-finite") as exc_info:
            propagate_window(
                state, _NaNPotential(), params, TemperatureSchedule.identity(2), seed=1
            )
        assert exc_info.value.substep == 1


# ---------------------------------------------------------------------------
# batched rows and the lean serial path against propagate_window


class _GradientOnly(Potential):
    """A potential that defines only the public gradient (no raw ``_grad``)."""

    def energy(self, q):
        q = np.asarray(q, dtype=float)
        return float(np.sum(0.25 * q**4 - q * q))

    def gradient(self, q):
        q = self._check_q(q)
        return q * q * q - 2.0 * q


_HEXAGON = np.array(
    [(0.0, 0.0)]
    + [(1.12 * math.cos(k * math.pi / 3), 1.12 * math.sin(k * math.pi / 3)) for k in range(6)]
).reshape(-1)

# (potential, dimension, scale of the random start positions around `centre`)
_BATCH_CASES = {
    "harmonic": (Harmonic(k=1.7), 1, 1.5),
    "harmonic-vector": (Harmonic(k=[0.5, 2.0, 1.0]), 3, 1.5),
    "double-well": (DoubleWell(a=1.0, b=1.0), 1, 1.5),
    "double-well-vector": (DoubleWell(a=[1.0, 0.6], b=[1.0, 2.0]), 2, 1.5),
    "double-well-length-1": (DoubleWell(a=[1.3], b=[0.9]), 1, 1.5),
    "lj7": (LennardJonesCluster(n_atoms=7, space_dim=2), 14, 0.05),
    "lj3-3d": (LennardJonesCluster(n_atoms=3, space_dim=3, sigma=0.6), 9, 0.05),
    "perturbed": (Perturbed(base=DoubleWell(a=1.0, b=1.0), delta=Harmonic(k=1.0), lam=0.3), 1, 1.5),
    "gradient-only": (_GradientOnly(), 2, 1.5),
}


def _centre(name, d):
    if name == "lj7":
        return _HEXAGON
    if name == "lj3-3d":
        return np.array([0.0, 0.0, 0.0, 0.7, 0.0, 0.0, 0.0, 0.7, 0.1])
    return np.zeros(d)


def _window_bytes(q, p):
    return np.asarray(q, dtype=float).tobytes() + np.asarray(p, dtype=float).tobytes()


class TestPlanWindows:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(_BATCH_CASES)),
        n_sub=st.integers(1, 4),
        master=st.integers(0, 2**64 - 1),
        n_rows=st.integers(1, 6),
        m0=st.integers(0, 3),
        data=st.data(),
    )
    def test_rows_and_one_equal_propagate_window(self, name, n_sub, master, n_rows, m0, data):
        pot, d, scale = _BATCH_CASES[name]
        params = LangevinParams(gamma=0.7, inv_beta=0.5, dt=0.01, substeps=n_sub)
        schedule = TemperatureSchedule.robust(n_sub)
        plan = NoisePlan.for_windows(master, m0 + n_rows)
        floats = st.floats(-1.0, 1.0, allow_nan=False)
        starts = [
            PhaseState(
                q=_centre(name, d) + scale * np.array(data.draw(st.lists(floats, min_size=d, max_size=d))),
                p=np.array(data.draw(st.lists(floats, min_size=d, max_size=d))),
            )
            for _ in range(n_rows)
        ]
        # any window indices, in any order and with repeats, as the
        # pipelined engine gathers them from several iterations
        windows = st.integers(0, m0 + n_rows - 1)
        ms = data.draw(st.lists(windows, min_size=n_rows, max_size=n_rows))
        expected = [
            propagate_window(s, pot, params, schedule, plan.seed_for(m + 1))
            for m, s in zip(ms, starts)
        ]
        (windows,) = PlanWindows.for_potentials([pot], params, schedule, plan, starts[0])
        raw = [windows.raw(s) for s in starts]
        qs, ps, bad = windows.rows([q for q, _ in raw], [p for _, p in raw], ms)
        assert bad == {}
        for i, ref in enumerate(expected):
            assert _window_bytes(qs[i], ps[i]) == _window_bytes(ref.q, ref.p)
            q1, p1 = windows.one(*raw[i], ms[i])
            assert _window_bytes(q1, p1) == _window_bytes(ref.q, ref.p)
            assert PhaseState(q=np.atleast_1d(q1), p=np.atleast_1d(p1)) == ref

    def test_float_path_only_where_every_gradient_keeps_floats(self):
        params = LangevinParams(gamma=0.5, inv_beta=0.4, dt=0.05, substeps=2)
        schedule = TemperatureSchedule.robust(2)
        plan = NoisePlan.for_windows(3, 2)
        start = PhaseState(q=[0.3], p=[0.0])
        pots = [DoubleWell(), Harmonic(k=2.0), Free(), _GradientOnly()]
        assert all(w.scalar for w in PlanWindows.for_potentials(pots, params, schedule, plan, start))
        mixed = PlanWindows.for_potentials(
            [DoubleWell(), DoubleWell(a=[1.3], b=[0.9])], params, schedule, plan, start
        )
        assert not any(w.scalar for w in mixed)

    def test_rows_report_the_lowest_window_with_its_own_substep(self):
        # omega * dt = 100 diverges from any nonzero start; the larger start
        # (window 3) leaves the range at an earlier substep than window 2,
        # and window 1 starts at rest and stays there
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1, substeps=20)
        schedule = TemperatureSchedule.identity(20)
        pot = Harmonic(k=1e6)
        plan = NoisePlan.for_windows(4, 3)
        starts = [0.0, 1e-6, 1.0]
        substeps = []
        for m, q in enumerate(starts[1:], start=2):
            with pytest.raises(BlowUpError) as exc:
                propagate_window(
                    PhaseState(q=[q], p=[0.0]), pot, params, schedule, plan.seed_for(m)
                )
            substeps.append(exc.value.substep)
        assert substeps[1] < substeps[0]
        (windows,) = PlanWindows.for_potentials(
            [pot], params, schedule, plan, PhaseState(q=[0.0], p=[0.0])
        )
        qs, _, bad = windows.rows(starts, [0.0, 0.0, 0.0], range(3))
        assert sorted(bad) == [1, 2] and qs[0] == 0.0
        lowest = bad[min(bad)]
        assert isinstance(lowest, BlowUpError) and "substep" in str(lowest)
        assert lowest.window == 2
        assert lowest.substep == substeps[0]
        assert (bad[2].window, bad[2].substep) == (3, substeps[1])
        # rows name their own windows whatever order they come in
        _, _, bad = windows.rows(starts[::-1], [0.0, 0.0, 0.0], [2, 1, 0])
        assert {i: (e.window, e.substep) for i, e in bad.items()} == {
            0: (3, substeps[1]), 1: (2, substeps[0])
        }

    @pytest.mark.parametrize(
        "case, q0, p0",
        [
            ("thermal", math.nan, 0.0),
            ("thermal", 0.0, math.nan),
            ("thermal", math.inf, 0.0),
            ("thermal", -math.inf, 0.0),
            ("thermal", 0.0, math.inf),
            ("thermal", 0.0, -math.inf),
            ("thermal", math.nextafter(BLOWUP_LIMIT, math.inf), 0.0),
            ("thermal", -math.nextafter(BLOWUP_LIMIT, math.inf), 0.0),
            ("thermal", 0.0, math.nextafter(BLOWUP_LIMIT, math.inf)),
            ("stiff", 1e-6, 0.0),
            ("stiff", 1.0, 0.0),
        ],
    )
    def test_float_one_blows_up_where_propagate_window_does(self, case, q0, p0):
        # "stiff" diverges from any nonzero start (omega * dt = 100), leaving
        # the range part-way through the window
        if case == "stiff":
            pot = Harmonic(k=1e6)
            params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1, substeps=20)
            schedule = TemperatureSchedule.identity(20)
        else:
            pot = DoubleWell(a=1.0, b=1.0)
            params = LangevinParams(gamma=0.7, inv_beta=0.5, dt=0.01, substeps=3)
            schedule = TemperatureSchedule.robust(3)
        plan = NoisePlan.for_windows(9, 3)
        (windows,) = PlanWindows.for_potentials(
            [pot], params, schedule, plan, PhaseState(q=[0.0], p=[0.0])
        )
        assert windows.scalar
        # a PhaseState holds finite components only; the window reads q, p and dim
        start = SimpleNamespace(q=np.array([q0]), p=np.array([p0]), dim=1)
        with pytest.raises(BlowUpError) as ref, np.errstate(all="ignore"):
            propagate_window(start, pot, params, schedule, plan.seed_for(2))
        with pytest.raises(BlowUpError) as got:
            windows.one(q0, p0, 1)
        _, _, bad = windows.rows([q0], [p0], [1])
        row = bad[0]
        assert (str(got.value), got.value.substep) == (str(ref.value), ref.value.substep)
        assert (str(row), row.substep) == (str(ref.value), ref.value.substep)
        assert ref.value.substep > 1 if case == "stiff" else ref.value.substep == 1
