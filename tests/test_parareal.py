"""Tests for the parareal engines, the error metric, and slab bookkeeping.

The scripted-propagator traces below (coarse halves the position, fine keeps
it) were executed by hand on paper: every value is a dyadic rational, so the
engine must reproduce the frozen numbers exactly, including the error ratios.
``_hand_adaptive`` is an independent transcription of the adaptive loop that
recomputes the relative error from scratch at every node; the engine keeps
running sums instead, and the equality tests pin down that both give the
same floats.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

import paralangevin.integrator as integrator_module
from paralangevin import (
    BlowUpError,
    DegenerateNormalizationError,
    DoubleWell,
    Free,
    Harmonic,
    LangevinParams,
    NodeTrajectory,
    NoisePlan,
    PararealConfig,
    PararealResult,
    PhaseState,
    PropagatorPair,
    SlabAttempt,
    SlabCollapseError,
    SlabRecord,
    TemperatureSchedule,
    parareal_adaptive,
    parareal_adaptive_engine,
    parareal_classic,
    parareal_classic_engine,
    propagate_window,
    relative_error,
    sequential_propagate,
)


def _state(q, p=None):
    q = np.asarray(q, dtype=float)
    return PhaseState(q=q, p=np.zeros_like(q) if p is None else np.asarray(p, dtype=float))


def _traj(qs):
    return NodeTrajectory(tuple(_state([q] if np.isscalar(q) else q) for q in qs))


def _halving_coarse(state, m):
    return PhaseState(q=0.5 * state.q, p=state.p)


def _identity_fine(state, m):
    return PhaseState(q=state.q, p=state.p)


def _hand_adaptive(initial, fine, coarse, config):
    """Independent transcription of the adaptive loop.

    Follows the published pseudocode line by line and recomputes the error
    with ``relative_error`` (fresh sums) after every node update, instead of
    the engine's running sums.
    """
    n, conv, expl = config.n_windows, config.delta_conv, config.delta_expl
    mid = 0.5 * (conv + expl)
    cur = [initial] + [None] * n
    n_init = n_final = 0
    delta = mid
    n_slab = 0
    slabs, history, attempts = [], [], []
    k_in_slab = 0
    while n_final < n:
        if delta < expl:
            n_init, n_final = n_final, n
            for m in range(n_init, n):
                cur[m + 1] = coarse(cur[m], m)
            n_slab += 1
            attempts = []
            k_in_slab = 0
        delta = mid
        k_attempt = 0
        while conv <= delta <= expl:
            assert k_attempt < config.iteration_cap, "hand traces are expected to converge"
            prev = list(cur)
            k_attempt += 1
            k_in_slab += 1
            for m in range(n_init, n_final):
                f = fine(prev[m], m)
                c_prev = coarse(prev[m], m)
                base = coarse(cur[m], m)
                cur[m + 1] = PhaseState(q=base.q + (f.q - c_prev.q), p=base.p + (f.p - c_prev.p))
                delta = relative_error(prev, cur, n_init, m + 1)
                history.append((n_slab, k_in_slab, delta))
                if delta > expl:
                    assert m != n_init, "hand traces must not collapse a slab"
                    attempts.append(SlabAttempt(n_final, k_attempt))
                    n_final = m
                    break
        if delta < conv:
            attempts.append(SlabAttempt(n_final, k_attempt))
            slabs.append(
                SlabRecord(
                    slab_index=n_slab,
                    n_init=n_init,
                    attempts=tuple(attempts),
                    n_final=n_final,
                    k_conv=sum(a.iterations for a in attempts),
                )
            )
    return cur, slabs, history


def _dw_setup(n_windows, master=31, coarse=None, q0=-1.0):
    params = LangevinParams(gamma=0.5, inv_beta=0.4, dt=0.05, substeps=2)
    schedule = TemperatureSchedule.robust(2)
    plan = NoisePlan.for_windows(master, n_windows)
    pair = PropagatorPair(
        fine=DoubleWell(a=1.0, b=1.0),
        coarse=DoubleWell(a=0.7, b=1.0) if coarse is None else coarse,
        cost_fine=100.0,
        cost_coarse=1.0,
    )
    initial = _state([q0])
    return initial, pair, params, schedule, plan


class TestPararealConfig:
    def test_defaults_and_cap(self):
        config = PararealConfig(n_windows=10, delta_conv=1e-8)
        assert config.delta_expl is None
        assert config.k_max is None
        assert config.iteration_cap == 11
        assert PararealConfig(n_windows=10, delta_conv=1e-8, k_max=7).iteration_cap == 7

    def test_infinite_explosion_threshold_allowed(self):
        config = PararealConfig(n_windows=4, delta_conv=1e-8, delta_expl=float("inf"))
        assert config.delta_expl == float("inf")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_windows": 0, "delta_conv": 1e-8},
            {"n_windows": 4, "delta_conv": 0.0},
            {"n_windows": 4, "delta_conv": -1.0},
            {"n_windows": 4, "delta_conv": float("inf")},
            {"n_windows": 4, "delta_conv": 1e-3, "delta_expl": 1e-3},
            {"n_windows": 4, "delta_conv": 1e-3, "delta_expl": 1e-4},
            {"n_windows": 4, "delta_conv": 1e-8, "k_max": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PararealConfig(**kwargs)


class TestRelativeError:
    def test_identical_iterates_give_zero(self):
        t = _traj([7.0, 1.0, 2.0, 3.0])
        assert relative_error(t, t, 0, 3) == 0.0

    def test_hand_case_from_start(self):
        # nodes 1..2: |1-1| + |2-1| over |1| + |1| = 0.5; node 0 excluded
        a = _traj([7.0, 1.0, 1.0])
        b = _traj([7.0, 1.0, 2.0])
        assert relative_error(a, b, 0, 2) == 0.5

    def test_hand_case_interior_window(self):
        # nodes 1..2: (0 + 1) / (2 + 2) = 0.25; the slab start enters the sums
        a = _traj([7.0, 2.0, 2.0])
        b = _traj([7.0, 2.0, 3.0])
        assert relative_error(a, b, 1, 2) == 0.25

    def test_euclidean_norm_per_node(self):
        a = NodeTrajectory((_state([0.0, 0.0]), _state([1.0, 0.0])))
        b = NodeTrajectory((_state([0.0, 0.0]), _state([4.0, 4.0])))
        assert relative_error(a, b, 0, 1) == 5.0

    def test_momenta_never_enter(self):
        a = NodeTrajectory((_state([1.0]), _state([2.0], p=[0.0])))
        b = NodeTrajectory((_state([1.0]), _state([2.0], p=[999.0])))
        assert relative_error(a, b, 0, 1) == 0.0

    def test_zero_denominator_raises(self):
        a = _traj([1.0, 0.0, 0.0])
        b = _traj([1.0, 1.0, 1.0])
        with pytest.raises(DegenerateNormalizationError):
            relative_error(a, b, 0, 2)

    def test_range_validation(self):
        t = _traj([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            relative_error(t, t, -1, 2)
        with pytest.raises(ValueError):
            relative_error(t, t, 0, 0)  # n_final must reach max(n_init, 1)
        with pytest.raises(IndexError):
            relative_error(t, t, 0, 3)


class TestSequentialPropagate:
    def test_zero_windows_is_initial_only(self):
        initial, pair, params, schedule, plan = _dw_setup(4)
        traj = sequential_propagate(initial, 0, pair.fine, params, schedule, plan)
        assert len(traj) == 1
        assert traj[0] is initial

    def test_free_streaming_is_exact(self):
        # gamma = 0 and inv_beta = 0: q_n = q_0 + n * window_dt * p_0 exactly
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.25, substeps=2)
        schedule = TemperatureSchedule.identity(2)
        plan = NoisePlan.for_windows(9, 8)
        traj = sequential_propagate(_state([1.0], p=[0.5]), 8, Free(), params, schedule, plan)
        for n, node in enumerate(traj):
            assert node.q[0] == 1.0 + n * params.window_dt * 0.5
            assert node.p[0] == 0.5

    def test_rerun_is_bitwise_identical(self):
        initial, pair, params, schedule, plan = _dw_setup(50)
        first = sequential_propagate(initial, 50, pair.fine, params, schedule, plan)
        second = sequential_propagate(initial, 50, pair.fine, params, schedule, plan)
        assert len(first) == 51
        for a, b in zip(first, second):
            assert a.q.tobytes() == b.q.tobytes()
            assert a.p.tobytes() == b.p.tobytes()

    def test_plan_must_cover_windows(self):
        initial, pair, params, schedule, plan = _dw_setup(4)
        with pytest.raises(ValueError, match="plan"):
            sequential_propagate(initial, 5, pair.fine, params, schedule, plan)

    def test_blow_up_reports_window(self):
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1, substeps=20)
        schedule = TemperatureSchedule.identity(20)
        plan = NoisePlan.for_windows(3, 4)
        with pytest.raises(BlowUpError) as exc:
            sequential_propagate(_state([1.0]), 4, Harmonic(k=1e6), params, schedule, plan)
        assert exc.value.window == 1


class TestClassicEngineScripted:
    """Coarse halves the position, fine keeps it; initial q = 1, N = 4.

    All states are dyadic, so the frozen per-sweep errors are exact:
    bootstrap (1, 1/2, 1/4, 1/8, 1/16), then each sweep extends the exact
    all-ones prefix by one node.
    """

    def _run(self, **overrides):
        config = PararealConfig(
            **{"n_windows": 4, "delta_conv": 1e-3, **overrides}
        )
        return parareal_classic_engine(
            _state([1.0]), _identity_fine, _halving_coarse, config, record_iterates=True
        )

    def test_frozen_error_history(self):
        result = self._run()
        assert result.error_history == (
            (1, 1, 1.625 / 0.9375),
            (1, 2, 1.0 / 2.5625),
            (1, 3, 0.375 / 3.5625),
            (1, 4, 0.0625 / 3.9375),
            (1, 5, 0.0),
        )
        assert result.converged
        assert result.slabs == (
            SlabRecord(slab_index=1, n_init=0, attempts=(SlabAttempt(4, 5),), n_final=4, k_conv=5),
        )

    def test_trajectory_reaches_fine_reference(self):
        result = self._run()
        for node in result.trajectory:
            assert node.q[0] == 1.0

    def test_iterates_extend_exact_prefix(self):
        result = self._run()
        assert len(result.iterates) == 6
        bootstrap = [1.0, 0.5, 0.25, 0.125, 0.0625]
        assert [s.q[0] for s in result.iterates[0]] == bootstrap
        for k, iterate in enumerate(result.iterates):
            for n in range(min(k, 4) + 1):
                assert iterate[n].q[0] == 1.0

    def test_iteration_cap_stops_without_convergence(self):
        result = self._run(k_max=3)
        assert not result.converged
        assert result.slabs[0].k_conv == 3
        assert len(result.error_history) == 3

    def test_jump_applies_to_momenta_but_metric_ignores_them(self):
        # fine shifts p by 100 per window and leaves q alone: the metric sees
        # no position change, so one iteration converges with shifted momenta
        def fine(state, m):
            return PhaseState(q=state.q, p=state.p + 100.0)

        config = PararealConfig(n_windows=3, delta_conv=1e-6)
        result = parareal_classic_engine(_state([2.0]), fine, _identity_fine, config)
        assert result.converged
        assert result.slabs[0].k_conv == 1
        assert result.error_history == ((1, 1, 0.0),)
        assert [s.p[0] for s in result.trajectory] == [0.0, 100.0, 200.0, 300.0]

    def test_degenerate_positions_raise(self):
        config = PararealConfig(n_windows=3, delta_conv=1e-6)
        with pytest.raises(DegenerateNormalizationError):
            parareal_classic_engine(_state([0.0]), _identity_fine, _identity_fine, config)

    def test_iteration_bound_warning(self):
        # a drifting (stateful) fine propagator never lets the error settle,
        # so the cap fires and the attempt exceeds the width + 1 bound
        counter = itertools.count(1)

        def drifting_fine(state, m):
            return PhaseState(q=state.q + 1e-3 * next(counter), p=state.p)

        config = PararealConfig(n_windows=3, delta_conv=1e-12, k_max=5)
        with pytest.warns(RuntimeWarning, match="width"):
            result = parareal_classic_engine(_state([1.0]), drifting_fine, _identity_fine, config)
        assert not result.converged
        assert result.slabs[0].attempts == (SlabAttempt(3, 5),)


class TestClassicReal:
    def test_degenerate_pair_converges_in_one_iteration(self):
        initial, _, params, schedule, plan = _dw_setup(10)
        dw = DoubleWell(a=1.0, b=1.0)
        pair = PropagatorPair(fine=dw, coarse=dw, cost_fine=1.0, cost_coarse=1.0)
        config = PararealConfig(n_windows=10, delta_conv=1e-12)
        result = parareal_classic(initial, pair, params, schedule, plan, config)
        assert result.converged
        assert result.slabs[0].k_conv == 1
        assert result.error_history[0][2] <= 1e-12
        reference = sequential_propagate(initial, 10, dw, params, schedule, plan)
        for ours, ref in zip(result.trajectory, reference):
            assert np.array_equal(ours.q, ref.q)
            assert np.array_equal(ours.p, ref.p)

    def test_finite_step_exactness(self):
        # after k iterations the first k nodes match the sequential fine
        # trajectory; with k_max = N every node matches at the last iterate
        n = 5
        initial, pair, params, schedule, plan = _dw_setup(n)
        config = PararealConfig(n_windows=n, delta_conv=1e-300, k_max=n)
        result = parareal_classic(
            initial, pair, params, schedule, plan, config, record_iterates=True
        )
        reference = sequential_propagate(initial, n, pair.fine, params, schedule, plan)
        assert len(result.iterates) == n + 1
        for k, iterate in enumerate(result.iterates):
            for m in range(min(k, n) + 1):
                assert abs(iterate[m].q - reference[m].q).max() <= 1e-10
                assert abs(iterate[m].p - reference[m].p).max() <= 1e-10

    def test_every_window_consumes_its_planned_seed(self, monkeypatch):
        n = 4
        initial, pair, params, schedule, plan = _dw_setup(n)
        calls = []
        real_stream = integrator_module.gaussian_stream

        def spy(seed, count):
            calls.append((int(seed), int(count)))
            return real_stream(seed, count)

        monkeypatch.setattr(integrator_module, "gaussian_stream", spy)
        config = PararealConfig(n_windows=n, delta_conv=1e-10)
        result = parareal_classic(initial, pair, params, schedule, plan, config)
        assert result.converged
        k = result.slabs[0].k_conv
        seed_counts = Counter(seed for seed, _ in calls)
        assert set(seed_counts) == {plan.seed_for(m) for m in range(1, n + 1)}
        # one bootstrap pass, then fine jump + coarse jump + sweep per iteration
        assert set(seed_counts.values()) == {1 + 3 * k}
        assert {count for _, count in calls} == {(params.substeps + 1) * initial.dim}

    def test_blow_up_during_jump_reports_context(self):
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1, substeps=20)
        schedule = TemperatureSchedule.identity(20)
        plan = NoisePlan.for_windows(3, 3)
        pair = PropagatorPair(
            fine=Harmonic(k=1e6), coarse=Harmonic(k=1.0), cost_fine=2.0, cost_coarse=1.0
        )
        config = PararealConfig(n_windows=3, delta_conv=1e-8)
        with pytest.raises(BlowUpError) as exc:
            parareal_classic(_state([1.0]), pair, params, schedule, plan, config)
        assert exc.value.window == 1
        assert exc.value.iteration == 1
        assert exc.value.substep is not None

    def test_blow_up_during_bootstrap_is_iteration_zero(self):
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1, substeps=20)
        schedule = TemperatureSchedule.identity(20)
        plan = NoisePlan.for_windows(3, 3)
        pair = PropagatorPair(
            fine=Harmonic(k=1.0), coarse=Harmonic(k=1e6), cost_fine=2.0, cost_coarse=1.0
        )
        config = PararealConfig(n_windows=3, delta_conv=1e-8)
        with pytest.raises(BlowUpError) as exc:
            parareal_classic(_state([1.0]), pair, params, schedule, plan, config)
        assert exc.value.window == 1
        assert exc.value.iteration == 0


class TestAdaptiveEngineScripted:
    """Frozen hand trace, N = 4, delta_conv = 1e-3, delta_expl = 1.

    Slab 1 bootstraps (1, 1/2, 1/4, 1/8, 1/16); its first sweep survives
    node 1 (error exactly 1, not above the threshold) and explodes at node 2
    (error 4/3), truncating to [0, 1], which converges on the next sweep.
    Slab 2 covers [1, 4] and converges in four sweeps.
    """

    def _config(self, **overrides):
        return PararealConfig(
            **{"n_windows": 4, "delta_conv": 1e-3, "delta_expl": 1.0, **overrides}
        )

    def test_frozen_slab_records(self):
        result = parareal_adaptive_engine(
            _state([1.0]), _identity_fine, _halving_coarse, self._config()
        )
        assert result.converged
        assert result.slabs == (
            SlabRecord(
                slab_index=1,
                n_init=0,
                attempts=(SlabAttempt(4, 1), SlabAttempt(1, 1)),
                n_final=1,
                k_conv=2,
            ),
            SlabRecord(
                slab_index=2,
                n_init=1,
                attempts=(SlabAttempt(4, 4),),
                n_final=4,
                k_conv=4,
            ),
        )
        assert result.n_slab == 2
        assert result.total_iterations == 6

    def test_frozen_error_history(self):
        result = parareal_adaptive_engine(
            _state([1.0]), _identity_fine, _halving_coarse, self._config()
        )
        assert result.error_history == (
            (1, 1, 1.0),
            (1, 1, 1.0 / 0.75),
            (1, 2, 0.0),
            (2, 1, 0.5 / 1.5),
            (2, 1, 1.0 / 1.75),
            (2, 1, 1.375 / 1.875),
            (2, 2, 0.0),
            (2, 2, 0.25 / 2.75),
            (2, 2, 0.625 / 3.25),
            (2, 3, 0.0),
            (2, 3, 0.0),
            (2, 3, 0.125 / 3.875),
            (2, 4, 0.0),
            (2, 4, 0.0),
            (2, 4, 0.0),
        )

    def test_trajectory_reaches_fine_reference(self):
        result = parareal_adaptive_engine(
            _state([1.0]), _identity_fine, _halving_coarse, self._config()
        )
        assert [s.q[0] for s in result.trajectory] == [1.0] * 5

    def test_matches_hand_transcription(self):
        config = self._config()
        result = parareal_adaptive_engine(_state([1.0]), _identity_fine, _halving_coarse, config)
        states, slabs, history = _hand_adaptive(
            _state([1.0]), _identity_fine, _halving_coarse, config
        )
        assert result.error_history == tuple(history)
        assert result.slabs == tuple(slabs)
        for ours, ref in zip(result.trajectory, states):
            assert ours.q.tobytes() == ref.q.tobytes()
            assert ours.p.tobytes() == ref.p.tobytes()

    def test_huge_explosion_threshold_reduces_to_classic(self):
        config = self._config(delta_expl=1e12)
        adaptive = parareal_adaptive_engine(
            _state([1.0]), _identity_fine, _halving_coarse, config
        )
        classic = parareal_classic_engine(
            _state([1.0]), _identity_fine, _halving_coarse, self._config()
        )
        assert adaptive.converged and classic.converged
        assert adaptive.slabs == classic.slabs
        for a, b in zip(adaptive.trajectory, classic.trajectory):
            assert a.q.tobytes() == b.q.tobytes()
        # the last node update of each adaptive sweep is the classic error
        per_sweep = adaptive.error_history[3::4]
        assert per_sweep == classic.error_history

    def test_slab_collapse_raises(self):
        # with delta_expl = 0.3 the very first node update (error exactly 1)
        # explodes, leaving no shorter slab to retry
        config = self._config(delta_expl=0.3)
        with pytest.raises(SlabCollapseError) as exc:
            parareal_adaptive_engine(_state([1.0]), _identity_fine, _halving_coarse, config)
        assert exc.value.slab_index == 1
        assert exc.value.n_init == 0

    def test_iteration_cap_aborts_with_partial_slabs(self):
        counter = itertools.count(1)

        def drifting_fine(state, m):
            return PhaseState(q=state.q + 1e-3 * next(counter), p=state.p)

        config = self._config(delta_conv=1e-12, delta_expl=1e6, k_max=6)
        with pytest.warns(RuntimeWarning, match="width"):
            result = parareal_adaptive_engine(
                _state([1.0]), drifting_fine, _identity_fine, config
            )
        assert not result.converged
        assert result.slabs[-1].attempts == (SlabAttempt(4, 6),)

    def test_requires_explosion_threshold(self):
        config = PararealConfig(n_windows=4, delta_conv=1e-3)
        with pytest.raises(ValueError, match="delta_expl"):
            parareal_adaptive_engine(_state([1.0]), _identity_fine, _halving_coarse, config)


class TestAdaptiveReal:
    def test_degenerate_pair_single_slab(self):
        n = 20
        initial, _, params, schedule, plan = _dw_setup(n)
        dw = DoubleWell(a=1.0, b=1.0)
        pair = PropagatorPair(fine=dw, coarse=dw, cost_fine=1.0, cost_coarse=1.0)
        config = PararealConfig(n_windows=n, delta_conv=1e-12, delta_expl=0.35)
        result = parareal_adaptive(initial, pair, params, schedule, plan, config)
        assert result.converged
        assert result.slabs == (
            SlabRecord(slab_index=1, n_init=0, attempts=(SlabAttempt(n, 1),), n_final=n, k_conv=1),
        )
        assert result.error_history[-1][2] <= 1e-12
        reference = sequential_propagate(initial, n, dw, params, schedule, plan)
        for ours, ref in zip(result.trajectory, reference):
            assert np.array_equal(ours.q, ref.q)
            assert np.array_equal(ours.p, ref.p)

    def test_matches_hand_transcription_with_truncations(self):
        # a deliberately poor coarse surrogate under a tight explosion
        # threshold: the run must truncate at least once and still agree
        # with the from-scratch transcription float for float
        n = 25
        params = LangevinParams(gamma=0.5, inv_beta=0.4, dt=0.1, substeps=1)
        schedule = TemperatureSchedule.robust(1)
        plan = NoisePlan.for_windows(11, n)
        fine_pot = DoubleWell(a=1.0, b=1.0)
        coarse_pot = Harmonic(k=0.3)

        def fine(state, m):
            return propagate_window(state, fine_pot, params, schedule, plan.seed_for(m + 1))

        def coarse(state, m):
            return propagate_window(state, coarse_pot, params, schedule, plan.seed_for(m + 1))

        config = PararealConfig(n_windows=n, delta_conv=1e-9, delta_expl=0.1)
        result = parareal_adaptive_engine(_state([-1.2]), fine, coarse, config)
        states, slabs, history = _hand_adaptive(_state([-1.2]), fine, coarse, config)
        assert result.error_history == tuple(history)
        assert result.slabs == tuple(slabs)
        for ours, ref in zip(result.trajectory, states):
            assert ours.q.tobytes() == ref.q.tobytes()
            assert ours.p.tobytes() == ref.p.tobytes()
        assert result.converged
        assert result.n_slab >= 2
        assert any(len(slab.attempts) > 1 for slab in result.slabs)

    def test_adaptive_wrapper_checks_plan_coverage(self):
        initial, pair, params, schedule, plan = _dw_setup(4)
        config = PararealConfig(n_windows=6, delta_conv=1e-8, delta_expl=0.35)
        with pytest.raises(ValueError, match="plan"):
            parareal_adaptive(initial, pair, params, schedule, plan, config)


class TestRecordValidation:
    def test_slab_record_rejects_malformed_attempts(self):
        with pytest.raises(ValueError, match="at least one attempt"):
            SlabRecord(slab_index=1, n_init=0, attempts=(), n_final=4, k_conv=0)
        with pytest.raises(ValueError, match="non-increasing"):
            SlabRecord(
                slab_index=1,
                n_init=0,
                attempts=(SlabAttempt(3, 1), SlabAttempt(4, 1)),
                n_final=4,
                k_conv=2,
            )
        with pytest.raises(ValueError, match="last attempt"):
            SlabRecord(slab_index=1, n_init=0, attempts=(SlabAttempt(4, 1),), n_final=3, k_conv=1)
        with pytest.raises(ValueError, match="at least one iteration"):
            SlabRecord(slab_index=1, n_init=0, attempts=(SlabAttempt(4, 0),), n_final=4, k_conv=0)
        with pytest.raises(ValueError, match="sum"):
            SlabRecord(slab_index=1, n_init=0, attempts=(SlabAttempt(4, 2),), n_final=4, k_conv=3)
        with pytest.raises(ValueError, match="non-empty"):
            SlabRecord(slab_index=1, n_init=4, attempts=(SlabAttempt(4, 1),), n_final=4, k_conv=1)

    def test_result_requires_tiling_slabs(self):
        trajectory = _traj([1.0] * 5)
        first = SlabRecord(
            slab_index=1, n_init=0, attempts=(SlabAttempt(2, 1),), n_final=2, k_conv=1
        )
        gapped = SlabRecord(
            slab_index=2, n_init=3, attempts=(SlabAttempt(4, 1),), n_final=4, k_conv=1
        )
        with pytest.raises(ValueError, match="tile"):
            PararealResult(
                trajectory=trajectory,
                slabs=(first, gapped),
                error_history=(),
                converged=True,
            )

    def test_result_requires_full_coverage_when_converged(self):
        trajectory = _traj([1.0] * 5)
        slab = SlabRecord(
            slab_index=1, n_init=0, attempts=(SlabAttempt(2, 1),), n_final=2, k_conv=1
        )
        with pytest.raises(ValueError, match="cover"):
            PararealResult(
                trajectory=trajectory, slabs=(slab,), error_history=(), converged=True
            )
        partial = PararealResult(
            trajectory=trajectory, slabs=(slab,), error_history=(), converged=False
        )
        assert partial.n_slab == 1

    def test_result_requires_ordered_indices(self):
        trajectory = _traj([1.0] * 5)
        slab = SlabRecord(
            slab_index=2, n_init=0, attempts=(SlabAttempt(4, 1),), n_final=4, k_conv=1
        )
        with pytest.raises(ValueError, match="indices"):
            PararealResult(
                trajectory=trajectory, slabs=(slab,), error_history=(), converged=True
            )
