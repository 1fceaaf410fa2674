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

import paralangevin.rng as rng_module
from paralangevin.integrator import PlanWindows
from paralangevin import (
    BlowUpError,
    DegenerateNormalizationError,
    DoubleWell,
    Free,
    Harmonic,
    LangevinParams,
    LennardJonesCluster,
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
        # the plan's noise cache draws every window's stream once per run;
        # the bootstrap, the jump stages and the sweeps all read it from there
        n = 4
        initial, pair, params, schedule, plan = _dw_setup(n)
        draws = []
        real_streams = rng_module.gaussian_streams

        def spy(seeds, count):
            draws.extend((int(seed), int(count)) for seed in seeds)
            return real_streams(seeds, count)

        monkeypatch.setattr(rng_module, "gaussian_streams", spy)
        config = PararealConfig(n_windows=n, delta_conv=1e-10)
        result = parareal_classic(initial, pair, params, schedule, plan, config)
        assert result.converged
        drawn = [seed for seed, _ in draws]
        assert set(drawn) == {plan.seed_for(m) for m in range(1, n + 1)}
        assert len(drawn) == n
        assert {count for _, count in draws} == {(params.substeps + 1) * initial.dim}

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


def _window_callables(pair, params, schedule, plan):
    """Per-window ``propagate_window`` propagators, the reference for the lean paths."""

    def bind(pot):
        def prop(state, m):
            return propagate_window(state, pot, params, schedule, plan.seed_for(m + 1))

        return prop

    return bind(pair.fine), bind(pair.coarse)


def _assert_same_run(result, states, slabs, history):
    assert result.error_history == tuple(history)
    assert result.slabs == tuple(slabs)
    assert len(result.trajectory) == len(states)
    for ours, ref in zip(result.trajectory, states):
        assert ours.q.tobytes() == ref.q.tobytes()
        assert ours.p.tobytes() == ref.p.tobytes()


class TestPotentialPathsMatchHandTranscription:
    """The wrappers' batched jumps, reused coarse values and lean sweep
    against the from-scratch transcription run window by window."""

    def test_adaptive_float_path_with_truncations(self):
        n = 25
        params = LangevinParams(gamma=0.5, inv_beta=0.4, dt=0.1, substeps=1)
        schedule = TemperatureSchedule.robust(1)
        plan = NoisePlan.for_windows(11, n)
        pair = PropagatorPair(fine=DoubleWell(a=1.0, b=1.0), coarse=Harmonic(k=0.3))
        config = PararealConfig(n_windows=n, delta_conv=1e-9, delta_expl=0.1)
        result = parareal_adaptive(_state([-1.2]), pair, params, schedule, plan, config)
        fine, coarse = _window_callables(pair, params, schedule, plan)
        _assert_same_run(result, *_hand_adaptive(_state([-1.2]), fine, coarse, config))
        assert result.converged
        assert any(len(slab.attempts) > 1 for slab in result.slabs)

    def test_adaptive_array_path_with_mixed_coefficients(self):
        # a length-1 coefficient vector keeps the coarse gradient on arrays,
        # so both propagators run on (1,) arrays
        n = 30
        initial, _, params, schedule, plan = _dw_setup(n, master=5)
        pair = PropagatorPair(fine=DoubleWell(a=1.0, b=1.0), coarse=DoubleWell(a=[0.5], b=[1.3]))
        config = PararealConfig(n_windows=n, delta_conv=1e-10, delta_expl=0.05)
        result = parareal_adaptive(initial, pair, params, schedule, plan, config)
        fine, coarse = _window_callables(pair, params, schedule, plan)
        _assert_same_run(result, *_hand_adaptive(initial, fine, coarse, config))
        assert any(len(slab.attempts) > 1 for slab in result.slabs)

    @pytest.mark.parametrize("case", ["double-well", "lj7"])
    def test_classic(self, case):
        if case == "lj7":
            n = 6
            params = LangevinParams(gamma=1.0, inv_beta=0.05, dt=0.005, substeps=3)
            ring = [(1.12 * np.cos(k * np.pi / 3), 1.12 * np.sin(k * np.pi / 3)) for k in range(6)]
            initial = _state(np.array([(0.0, 0.0)] + ring).reshape(-1))
            pair = PropagatorPair(
                fine=LennardJonesCluster(n_atoms=7, space_dim=2),
                coarse=LennardJonesCluster(n_atoms=7, space_dim=2, epsilon=0.8),
            )
            schedule = TemperatureSchedule.robust(3)
            plan = NoisePlan.for_windows(17, n)
        else:
            n = 12
            initial, pair, params, schedule, plan = _dw_setup(n)
        config = PararealConfig(n_windows=n, delta_conv=1e-12)
        result = parareal_classic(initial, pair, params, schedule, plan, config)
        # the transcription with a threshold no sweep reaches is classic
        hand_config = PararealConfig(n_windows=n, delta_conv=1e-12, delta_expl=1e300)
        fine, coarse = _window_callables(pair, params, schedule, plan)
        states, slabs, history = _hand_adaptive(initial, fine, coarse, hand_config)
        _assert_same_run(result, states, slabs, history[n - 1 :: n])
        assert result.converged and result.slabs[0].k_conv > 1


class TestWorkPerIteration:
    def test_jump_stages_never_call_coarse(self):
        # the scripted adaptive trace of TestAdaptiveEngineScripted: slab 1
        # explodes at node 2 of its first sweep and converges on [0, 1];
        # slab 2 takes four sweeps over [1, 4]
        events = []

        def fine(state, m):
            events.append(("F", m))
            return _identity_fine(state, m)

        def coarse(state, m):
            events.append(("C", m))
            return _halving_coarse(state, m)

        config = PararealConfig(n_windows=4, delta_conv=1e-3, delta_expl=1.0)
        result = parareal_adaptive_engine(_state([1.0]), fine, coarse, config)
        assert result.total_iterations == 6

        def stage(kind, windows):
            return [(kind, m) for m in windows]

        expected = (
            stage("C", range(4))  # slab 1 bootstrap
            + stage("F", range(4)) + stage("C", range(2))  # sweep explodes at node 2
            + stage("F", range(1)) + stage("C", range(1))  # [0, 1] converges
            + stage("C", range(1, 4))  # slab 2 bootstrap
            + 4 * (stage("F", range(1, 4)) + stage("C", range(1, 4)))
        )
        assert events == expected

    def test_one_batched_fine_call_per_iteration(self, monkeypatch):
        n = 40
        initial, pair, params, schedule, plan = _dw_setup(n, coarse=Harmonic(k=0.3))
        rows_calls, one_calls = [], Counter()
        real_rows, real_one = PlanWindows.rows, PlanWindows.one

        def rows(self, qs, ps, m0):
            rows_calls.append((self, m0, len(qs)))
            return real_rows(self, qs, ps, m0)

        def one(self, q, p, m):
            one_calls[self] += 1
            return real_one(self, q, p, m)

        monkeypatch.setattr(PlanWindows, "rows", rows)
        monkeypatch.setattr(PlanWindows, "one", one)
        config = PararealConfig(n_windows=n, delta_conv=1e-10, delta_expl=0.1)
        result = parareal_adaptive(initial, pair, params, schedule, plan, config)
        assert result.converged and result.n_slab >= 2

        fine = {w for w, _, _ in rows_calls}
        assert len(fine) == 1 and set(one_calls).isdisjoint(fine)
        expected = [
            (slab.n_init, attempt.n_final - slab.n_init)
            for slab in result.slabs
            for attempt in slab.attempts
            for _ in range(attempt.iterations)
        ]
        assert [(m0, width) for _, m0, width in rows_calls] == expected
        # coarse: one window per bootstrap node, then one per sweep node
        bootstrap = sum(n - slab.n_init for slab in result.slabs)
        assert sum(one_calls.values()) == bootstrap + len(result.error_history)

    def test_fine_blow_up_in_window_two_reports_its_context(self):
        # the stiff fine well is at rest at its minimum q = 1, so window 1
        # stays put; the coarse bootstrap moves node 1 off the minimum, and
        # the fine window from there diverges (omega * dt is about 280)
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1, substeps=20)
        schedule = TemperatureSchedule.identity(20)
        plan = NoisePlan.for_windows(3, 3)
        pair = PropagatorPair(
            fine=DoubleWell(a=1e6, b=1.0), coarse=DoubleWell(a=0.8, b=1.2),
            cost_fine=2.0, cost_coarse=1.0,
        )
        config = PararealConfig(n_windows=3, delta_conv=1e-8)
        node1 = sequential_propagate(_state([1.0]), 1, pair.coarse, params, schedule, plan)[1]
        with pytest.raises(BlowUpError) as serial:
            propagate_window(node1, pair.fine, params, schedule, plan.seed_for(2))
        with pytest.raises(BlowUpError) as exc:
            parareal_classic(_state([1.0]), pair, params, schedule, plan, config)
        assert exc.value.window == 2
        assert exc.value.iteration == 1
        assert exc.value.substep == serial.value.substep is not None


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
