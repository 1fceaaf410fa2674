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
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paralangevin.integrator as integrator_module
import paralangevin.rng as rng_module
from paralangevin.integrator import PlanWindows
from paralangevin.parareal import _Scripted as Scripted
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
    adaptive_cost,
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


def _traj(qs, ps=None):
    q = np.array([[q] if np.isscalar(q) else q for q in qs], dtype=float)
    return NodeTrajectory(q=q, p=np.zeros_like(q) if ps is None else ps)


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
            if k_attempt >= config.iteration_cap:
                # abort: close the attempt and its slab, keep every node as is
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
        a = _traj([[0.0, 0.0], [1.0, 0.0]])
        b = _traj([[0.0, 0.0], [4.0, 4.0]])
        assert relative_error(a, b, 0, 1) == 5.0

    def test_momenta_never_enter(self):
        a = _traj([1.0, 2.0], ps=[[0.0], [0.0]])
        b = _traj([1.0, 2.0], ps=[[0.0], [999.0]])
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
        assert traj[0] == initial

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

    def test_overflowing_norms_do_not_count_as_convergence(self):
        # positions near 1e160 overflow both norm sums, so the running error
        # is inf / inf = NaN: neither converged nor cut, the sweeps go on
        def doubling_fine(state, m):
            return PhaseState(q=2.0 * state.q, p=state.p)

        config = PararealConfig(n_windows=2, delta_conv=1e-3, k_max=3)
        with np.errstate(over="ignore"):
            result = parareal_classic_engine(
                _state([1e160]), doubling_fine, _identity_fine, config
            )
        assert result.converged
        assert [math.isnan(e) for _, _, e in result.error_history] == [True, True, False]
        assert result.slabs[0].attempts == (SlabAttempt(2, 3),)

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
        with pytest.warns(RuntimeWarning, match="width") as caught:
            result = parareal_classic_engine(_state([1.0]), drifting_fine, _identity_fine, config)
        # the warning names the engine's caller
        assert [w.filename for w in caught] == [__file__]
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
        with pytest.warns(RuntimeWarning, match="width") as caught:
            result = parareal_adaptive_engine(
                _state([1.0]), drifting_fine, _identity_fine, config
            )
        assert [w.filename for w in caught] == [__file__]
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

        def rows(self, qs, ps, ms):
            rows_calls.append((self, ms[0], len(qs)))
            return real_rows(self, qs, ps, ms)

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

    @pytest.mark.parametrize(
        "slabs, message",
        [
            ((), "slab list is empty; it must tile the window range"),
            ((SlabRecord(1, 1, ((4, 1),), 4, 1),), "first slab starts at 1, expected 0"),
        ],
        ids=["empty", "late-start"],
    )
    def test_result_and_cost_model_give_one_tiling_message(self, slabs, message):
        with pytest.raises(ValueError) as from_result:
            PararealResult(
                trajectory=_traj([1.0] * 5), slabs=slabs, error_history=(), converged=False
            )
        with pytest.raises(ValueError) as from_cost:
            adaptive_cost(slabs, 4, 1.0, 1.0)
        assert str(from_result.value) == str(from_cost.value) == message

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


# -- pipelined sweeps: every depth is the depth-1 run, byte for byte ---------

PIPELINE_DEPTHS = [2, 3, 5, 64]
PIPELINE_GAPS = [1, 4]
POTENTIAL_KINDS = ["double-well", "harmonic-coarse", "lj3", "stiff-fine", "stiff-coarse"]


def _result_bytes(result):
    def nodes(trajectory):
        return tuple(s.q.tobytes() + s.p.tobytes() for s in trajectory)

    return (
        nodes(result.trajectory),
        result.slabs,
        tuple((s, k, e.hex()) for s, k, e in result.error_history),
        result.converged,
        None if result.iterates is None else tuple(nodes(t) for t in result.iterates),
    )


def _outcome(run, depth, gap=1):
    """Everything ``run(depth, gap)`` shows: its result bytes or the raised
    exception's type, message and fields, plus every warning in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            shown = ("result", _result_bytes(run(depth, gap)))
        except (BlowUpError, ValueError, SlabCollapseError) as err:
            fields = ("window", "iteration", "substep", "slab_index", "n_init")
            values = tuple(getattr(err, f, None) for f in fields)
            # plain ints, as a manifest writes them to JSON
            assert all(v is None or type(v) is int for v in values), values
            shown = ("raised", type(err), str(err)) + values
    return shown, [(w.category, str(w.message)) for w in caught]


def _scripted_pair(gain_f, gain_c, tilt, limit_f, limit_c):
    """Pure nonlinear scripted propagators on ``(d,)`` arrays that fail once
    a position leaves ``[-limit, limit]``: a BlowUpError in odd windows, a
    plain ValueError in even ones."""

    def make(gain, shift, limit):
        def prop(state, m):
            q = gain * state.q + 0.3 * np.sin(tilt * state.q + 0.1 * m + shift) + 0.05 * state.p
            p = 0.9 * state.p - 0.2 * state.q
            if np.abs(q).max() > limit:
                if m % 2 == 0:
                    raise ValueError(f"scripted window {m} left the range")
                raise BlowUpError("scripted window left the range", substep=1 + m % 3)
            return PhaseState(q=q, p=p)

        return prop

    return make(gain_f, 0.0, limit_f), make(gain_c, 0.4, limit_c)


_scripted_cases = st.fixed_dictionaries(
    {
        "n": st.integers(1, 14),
        "q0": st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3),
        "gain_f": st.floats(0.8, 1.3),
        "gain_c": st.floats(0.8, 1.3),
        "tilt": st.floats(0.5, 3.0),
        "limit_f": st.sampled_from([np.inf, 8.0, 3.0]),
        "limit_c": st.sampled_from([np.inf, 8.0, 3.0]),
        "conv": st.sampled_from([0.3, 1e-3, 1e-9]),
        "expl": st.sampled_from([None, 0.02, 0.1, 0.5, 2.0]),
        "k_max": st.sampled_from([None, 1, 2, 4]),
    }
)


def _scripted_run(case, fine, coarse):
    """``run(depth, gap)`` for scripted propagators, classic when ``expl`` is None."""
    initial = _state(case["q0"])

    def windows(depth, gap):
        return Scripted(fine, depth, gap), Scripted(coarse, depth, gap)

    if case["expl"] is None:
        config = PararealConfig(n_windows=case["n"], delta_conv=case["conv"], k_max=case["k_max"])
        return lambda depth, gap=1: parareal_classic_engine(
            initial, *windows(depth, gap), config, record_iterates=True
        )
    conv = min(case["conv"], 0.1 * case["expl"])
    config = PararealConfig(
        n_windows=case["n"], delta_conv=conv, delta_expl=case["expl"], k_max=case["k_max"]
    )
    return lambda depth, gap=1: parareal_adaptive_engine(initial, *windows(depth, gap), config)


def _potential_run(kind, n, master, conv, expl, k_max):
    """``run(depth, gap)`` for a potential pair of ``POTENTIAL_KINDS`` on the
    array path, classic when ``expl`` is None."""
    params = LangevinParams(gamma=0.5, inv_beta=0.4, dt=0.05, substeps=2)
    schedule = TemperatureSchedule.robust(2)
    if kind == "double-well":
        pair = PropagatorPair(
            fine=DoubleWell(a=[1.0, 1.2], b=[1.0, 0.8]),
            coarse=DoubleWell(a=[0.7, 1.0], b=[1.0, 0.8]),
        )
        initial = _state([-1.0, 0.7])
    elif kind == "harmonic-coarse":
        pair = PropagatorPair(fine=DoubleWell(a=[1.0], b=[1.0]), coarse=Harmonic(k=[0.3]))
        initial = _state([-1.2])
    elif kind == "lj3":
        pair = PropagatorPair(
            fine=LennardJonesCluster(n_atoms=3, space_dim=2),
            coarse=LennardJonesCluster(n_atoms=3, space_dim=2, sigma=0.97),
        )
        initial = _state([0.0, 0.0, 1.12, 0.0, 0.56, 0.97])
    else:  # "stiff-fine", "stiff-coarse": deterministic blow-ups (omega * dt up to ~280)
        params = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1, substeps=20)
        schedule = TemperatureSchedule.identity(20)
        stiff, soft = DoubleWell(a=[1e6], b=[1.0]), DoubleWell(a=[0.8], b=[1.2])
        pair = PropagatorPair(
            fine=stiff if kind == "stiff-fine" else soft,
            coarse=soft if kind == "stiff-fine" else stiff,
        )
        initial = _state([1.0])
    plan = NoisePlan.for_windows(master, n)

    def windows(depth, gap):
        pots = [pair.fine, pair.coarse]
        fine, coarse = PlanWindows.for_potentials(pots, params, schedule, plan, initial)
        assert not coarse.scalar
        fine.depth = coarse.depth = depth
        fine.gap = coarse.gap = gap
        return fine, coarse

    if expl is None:
        config = PararealConfig(n_windows=n, delta_conv=conv, k_max=k_max)
        return lambda depth, gap=1: parareal_classic_engine(
            initial, *windows(depth, gap), config, record_iterates=True
        )
    config = PararealConfig(n_windows=n, delta_conv=conv, delta_expl=expl, k_max=k_max)
    return lambda depth, gap=1: parareal_adaptive_engine(initial, *windows(depth, gap), config)


class TestPipelineDepth:
    """Sweeps of several iterations in flight give the depth-1 run exactly:
    trajectory, slabs, error history, iterates, warnings and exceptions."""

    def test_depth_belongs_to_the_windows(self):
        params = LangevinParams(gamma=0.5, inv_beta=0.4, dt=0.05, substeps=2)
        schedule = TemperatureSchedule.robust(2)
        plan = NoisePlan.for_windows(3, 4)
        start = _state([0.3])
        (scalar,) = PlanWindows.for_potentials([DoubleWell()], params, schedule, plan, start)
        (array,) = PlanWindows.for_potentials([DoubleWell(a=[1.0])], params, schedule, plan, start)
        assert scalar.depth == 1 and Scripted(_identity_fine).depth == 1
        assert array.depth == integrator_module._WAVE_DEPTH > 1
        assert array.gap == integrator_module._WAVE_GAP > 1 and Scripted(_identity_fine).gap == 1

    @settings(max_examples=120, deadline=None)
    @given(
        case=_scripted_cases,
        depth=st.sampled_from(PIPELINE_DEPTHS),
        gap=st.sampled_from(PIPELINE_GAPS),
    )
    def test_scripted_runs(self, case, depth, gap):
        fine, coarse = _scripted_pair(
            case["gain_f"], case["gain_c"], case["tilt"], case["limit_f"], case["limit_c"]
        )
        run = _scripted_run(case, fine, coarse)
        assert _outcome(run, depth, gap) == _outcome(run, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(POTENTIAL_KINDS),
        n=st.integers(2, 30),
        master=st.integers(0, 2**64 - 1),
        conv=st.sampled_from([1e-4, 1e-10]),
        expl=st.sampled_from([None, 0.02, 0.1, 0.35]),
        k_max=st.sampled_from([None, 2, 5]),
        depth=st.sampled_from(PIPELINE_DEPTHS),
        gap=st.sampled_from(PIPELINE_GAPS),
    )
    def test_potential_pairs_on_the_array_path(
        self, kind, n, master, conv, expl, k_max, depth, gap
    ):
        run = _potential_run(kind, n, master, conv, expl, k_max)
        assert _outcome(run, depth, gap) == _outcome(run, 1)

    @pytest.mark.parametrize("depth", PIPELINE_DEPTHS)
    @pytest.mark.parametrize("gap", PIPELINE_GAPS)
    def test_adaptive_with_truncations(self, depth, gap):
        # the shipped-style double well on arrays truncates in several slabs,
        # some while the slab's bootstrap is still in flight
        run = _potential_run("harmonic-coarse", 40, 11, 1e-10, 0.1, None)
        shown, _ = _outcome(run, depth, gap)
        assert shown == _outcome(run, 1)[0]
        result = run(depth, gap)
        assert result.converged and any(len(slab.attempts) > 1 for slab in result.slabs)

    @pytest.mark.parametrize("depth", [1] + PIPELINE_DEPTHS)
    @pytest.mark.parametrize("gap", PIPELINE_GAPS)
    def test_iteration_cap_keeps_stale_nodes(self, depth, gap):
        # one truncation, then the cap: the trajectory keeps the nodes past
        # n_final as the last sweep to reach them left them, the exploded
        # node included, as the from-scratch transcription does
        run = _potential_run("harmonic-coarse", 25, 11, 1e-12, 0.1, 2)
        shown, caught = _outcome(run, depth, gap)
        assert (shown, caught) == _outcome(run, 1)
        result = run(depth, gap)
        assert not result.converged and result.slabs[-1].n_final < 25
        params = LangevinParams(gamma=0.5, inv_beta=0.4, dt=0.05, substeps=2)
        schedule = TemperatureSchedule.robust(2)
        pair = PropagatorPair(fine=DoubleWell(a=[1.0], b=[1.0]), coarse=Harmonic(k=[0.3]))
        fine, coarse = _window_callables(pair, params, schedule, NoisePlan.for_windows(11, 25))
        config = PararealConfig(n_windows=25, delta_conv=1e-12, delta_expl=0.1, k_max=2)
        _assert_same_run(result, *_hand_adaptive(_state([-1.2]), fine, coarse, config))

    @pytest.mark.parametrize("depth", PIPELINE_DEPTHS)
    @pytest.mark.parametrize("gap", PIPELINE_GAPS)
    def test_slab_collapse_and_degenerate_normalization(self, depth, gap):
        fine, coarse = _scripted_pair(1.2, 0.9, 1.0, np.inf, np.inf)
        run = _scripted_run(
            {"n": 6, "q0": [1.0], "conv": 1e-10, "expl": 1e-3, "k_max": None}, fine, coarse
        )
        shown, _ = _outcome(run, depth, gap)
        assert shown[:2] == ("raised", SlabCollapseError) and shown == _outcome(run, 1)[0]

        def zero(state, m):
            return PhaseState(q=0.0 * state.q, p=state.p + 1.0)

        run = _scripted_run(
            {"n": 5, "q0": [0.0, 0.0], "conv": 1e-6, "expl": None, "k_max": None}, zero, zero
        )
        shown, _ = _outcome(run, depth, gap)
        assert shown[:2] == ("raised", DegenerateNormalizationError)
        assert shown == _outcome(run, 1)[0]

    @pytest.mark.parametrize("depth", PIPELINE_DEPTHS)
    @pytest.mark.parametrize("gap", PIPELINE_GAPS)
    def test_fine_blow_up_reports_the_lowest_window(self, depth, gap):
        # the stiff fine window diverges from every node the coarse bootstrap
        # moves off its minimum, so windows 2 onwards all blow up
        run = _potential_run("stiff-fine", 12, 3, 1e-8, None, None)
        shown, _ = _outcome(run, depth, gap)
        assert shown[:2] == ("raised", BlowUpError)
        assert shown == _outcome(run, 1)[0]
        assert shown[3:5] == (2, 1)  # window 2, iteration 1

    @pytest.mark.parametrize("depth", PIPELINE_DEPTHS)
    @pytest.mark.parametrize("gap", PIPELINE_GAPS)
    @pytest.mark.parametrize("case", ["cut", "sweep error"])
    def test_a_fine_blow_up_past_the_sweep_still_comes_first(self, depth, gap, case):
        # serially the jump stage covers the whole slab before the sweep; a
        # pipelined sweep that cuts the slab at window 2 (the trace of
        # TestAdaptiveEngineScripted), or fails in its own window 2, before
        # its lazy fine stage reaches window 4 must still raise window 4.
        # Only slab 1's bootstrap node 3 (1/8) fails, so no later slab can.
        def fine(state, m):
            if m == 3 and state.q[0] == 0.125:
                raise BlowUpError("fine left the range", substep=7)
            return _identity_fine(state, m)

        def coarse(state, m):
            if case == "sweep error" and m == 1 and state.q[0] == 1.0:
                raise BlowUpError("coarse left the range", substep=3)
            return _halving_coarse(state, m)

        expl = 1.0 if case == "cut" else None
        run = _scripted_run(
            {"n": 4, "q0": [1.0], "conv": 1e-3, "expl": expl, "k_max": None}, fine, coarse
        )
        shown, _ = _outcome(run, depth, gap)
        assert shown == _outcome(run, 1)[0]
        assert shown[1:6] == (BlowUpError, "fine left the range", 4, 1, 7)

    @pytest.mark.parametrize("expl", [None, 0.5])
    @pytest.mark.parametrize("side", ["fine", "coarse"])
    def test_speculative_blow_ups_never_raise(self, expl, side):
        # record every input depth 1 gives each propagator, then make one
        # blow up on any other input: only iterations that depth 1 never
        # starts see one, and their errors must not surface.  Few iterations
        # look needed near convergence, so only some depths and gaps start
        # such iterations here; together they must start some.
        unseen = 0
        for conv, depth, gap in itertools.product(
            (1e-3, 1e-6), PIPELINE_DEPTHS, PIPELINE_GAPS
        ):
            fine, coarse = _scripted_pair(1.05, 0.9, 2.0, np.inf, np.inf)
            seen = set()
            watched = fine if side == "fine" else coarse

            def recording(state, m):
                seen.add((m, state.q.tobytes(), state.p.tobytes()))
                return watched(state, m)

            def strict(state, m):
                nonlocal unseen
                if (m, state.q.tobytes(), state.p.tobytes()) not in seen:
                    unseen += 1
                    raise BlowUpError("input never seen at depth 1", substep=1)
                return watched(state, m)

            def pair(prop):
                return (prop, coarse) if side == "fine" else (fine, prop)

            case = {"n": 14, "q0": [0.6, -0.4], "conv": conv, "expl": expl, "k_max": None}
            reference = _outcome(_scripted_run(case, *pair(recording)), 1)
            assert reference[0][0] == "result"
            assert _outcome(_scripted_run(case, *pair(strict)), depth, gap) == reference
        assert unseen > 0

    def test_depth_one_keeps_the_serial_call_sequence_on_arrays(self, monkeypatch):
        # at depth 1 the array path makes today's calls: one fine rows call
        # per iteration over its whole slab, and one coarse window at a time
        rows_calls, one_calls = [], Counter()
        real_rows, real_one = PlanWindows.rows, PlanWindows.one

        def rows(self, qs, ps, ms):
            rows_calls.append((self, list(ms)))
            return real_rows(self, qs, ps, ms)

        def one(self, q, p, m):
            one_calls[self] += 1
            return real_one(self, q, p, m)

        monkeypatch.setattr(PlanWindows, "rows", rows)
        monkeypatch.setattr(PlanWindows, "one", one)
        result = _potential_run("harmonic-coarse", 30, 11, 1e-10, 0.1, None)(1)
        assert result.converged and result.n_slab >= 2
        assert len({w for w, _ in rows_calls}) == 1
        assert [ms for _, ms in rows_calls] == [
            list(range(slab.n_init, attempt.n_final))
            for slab in result.slabs
            for attempt in slab.attempts
            for _ in range(attempt.iterations)
        ]
        bootstrap = sum(30 - slab.n_init for slab in result.slabs)
        assert sum(one_calls.values()) == bootstrap + len(result.error_history)


# scripted pairs that never fail, from starts away from 0 (so no denominator
# vanishes), under thresholds that cut slabs
_transcribed_cases = st.fixed_dictionaries(
    {
        "n": st.integers(1, 14),
        "q0": st.lists(st.floats(0.3, 1.5) | st.floats(-1.5, -0.3), min_size=1, max_size=3),
        "gain_f": st.floats(0.8, 1.3),
        "gain_c": st.floats(0.8, 1.3),
        "tilt": st.floats(0.5, 3.0),
        "conv": st.sampled_from([0.3, 1e-3, 1e-9]),
        "expl": st.sampled_from([0.02, 0.1, 0.5, 2.0]),
        "k_max": st.sampled_from([None, 1, 2, 3]),
    }
)


class TestSlabLoopMatchesTranscription:
    """The engines' slab loop against ``_hand_adaptive``, the published
    pseudocode: trajectory bytes, slabs and error history."""

    @staticmethod
    def _setup(case, delta_expl=None):
        fine, coarse = _scripted_pair(case["gain_f"], case["gain_c"], case["tilt"], np.inf, np.inf)
        conv = min(case["conv"], 0.1 * case["expl"])
        config = PararealConfig(
            n_windows=case["n"], delta_conv=conv, delta_expl=delta_expl, k_max=case["k_max"]
        )
        return _state(case["q0"]), fine, coarse, config

    @settings(max_examples=100, deadline=None)
    @given(case=_transcribed_cases)
    def test_adaptive(self, case):
        initial, fine, coarse, config = self._setup(case, delta_expl=case["expl"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                result = parareal_adaptive_engine(initial, fine, coarse, config)
            except SlabCollapseError:
                return  # the transcription cannot take a collapsing slab
        _assert_same_run(result, *_hand_adaptive(initial, fine, coarse, config))

    @settings(max_examples=50, deadline=None)
    @given(case=_transcribed_cases)
    def test_classic(self, case):
        # the transcription starts each attempt from the midpoint of the
        # thresholds, so it takes a threshold no sweep reaches, not inf
        initial, fine, coarse, config = self._setup(case)
        hand = self._setup(case, delta_expl=1e300)[3]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = parareal_classic_engine(initial, fine, coarse, config)
        states, slabs, history = _hand_adaptive(initial, fine, coarse, hand)
        _assert_same_run(result, states, slabs, history[case["n"] - 1 :: case["n"]])


# -- the float path is the 1-D array path, byte for byte --------------------

# (q0, p0, inv_beta, dt) of the d = 1 runs: the shipped-style well, a start
# at rest on the barrier top without noise (every position stays zero), and
# a start from which the fine window diverges and the coarse one does not
_PATH_STARTS = {
    "thermal": (-1.0, 0.0, 0.4, 0.05),
    "at-rest": (0.0, 0.0, 0.0, 0.05),
    "stiff": (3.2, 0.0, 0.4, 0.22),
}


def _poison(fine, window):
    """Make the fine output of ``window`` (0-based) infinite: its position
    for an even window, its momentum for an odd one.

    A window's own output never leaves the trusted range, so a corrected
    node (coarse plus jump, each within it) is always finite; this reaches
    the sweep's non-finite node check through the jump instead."""
    rows = fine.rows

    def poisoned(qs, ps, ms):
        out = list(rows(qs, ps, ms))
        hit = [i for i, m in enumerate(ms) if m == window]
        if hit:
            side = window % 2
            out[side] = list(out[side]) if fine.scalar else out[side].copy()
            for i in hit:
                out[side][i] = math.inf
        return tuple(out)

    fine.rows = poisoned


def _path_run(scalar, start, n, master, conv, expl, k_max, poison):
    """``run()`` of DoubleWell(a=1.0) against DoubleWell(a=0.8) at d = 1, on
    the float path or as length-1 coefficient vectors on the array path at
    its own depth; classic when ``expl`` is None.  ``run`` ignores any
    arguments, as :func:`_outcome` passes a depth."""
    q0, p0, inv_beta, dt = _PATH_STARTS[start]
    params = LangevinParams(gamma=0.5, inv_beta=inv_beta, dt=dt, substeps=2)
    schedule = TemperatureSchedule.robust(2)
    if scalar:
        pots = [DoubleWell(a=1.0), DoubleWell(a=0.8)]
    else:
        pots = [DoubleWell(a=[1.0], b=[1.0]), DoubleWell(a=[0.8], b=[1.0])]
    initial = _state([q0], [p0])
    plan = NoisePlan.for_windows(master, n)
    fine, coarse = PlanWindows.for_potentials(pots, params, schedule, plan, initial)
    assert coarse.scalar is scalar
    assert coarse.depth == (1 if scalar else integrator_module._WAVE_DEPTH)
    if poison is not None:
        _poison(fine, poison)
    if expl is None:
        config = PararealConfig(n_windows=n, delta_conv=conv, k_max=k_max)
        return lambda *_: parareal_classic_engine(
            initial, fine, coarse, config, record_iterates=True
        )
    config = PararealConfig(
        n_windows=n, delta_conv=min(conv, 0.1 * expl), delta_expl=expl, k_max=k_max
    )
    return lambda *_: parareal_adaptive_engine(initial, fine, coarse, config)


def _float_and_array(**case):
    return tuple(_outcome(_path_run(scalar, **case), None) for scalar in (True, False))


class TestFloatPathIsTheArrayPath:
    """The float path's fused windows and inline node accounting against the
    batched array path: trajectories, slabs, error histories, iterates,
    warnings and every raised exception with its fields."""

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.sampled_from(sorted(_PATH_STARTS)),
        n=st.integers(1, 30),
        master=st.integers(0, 2**64 - 1),
        conv=st.sampled_from([1e-4, 1e-10]),
        expl=st.sampled_from([None, 1e-6, 0.02, 0.1, 0.35]),
        k_max=st.sampled_from([None, 2, 5]),
        poison=st.one_of(st.none(), st.integers(0, 29)),
    )
    def test_same_run(self, start, n, master, conv, expl, k_max, poison):
        on_floats, on_arrays = _float_and_array(
            start=start, n=n, master=master, conv=conv, expl=expl, k_max=k_max, poison=poison
        )
        assert on_floats == on_arrays

    @pytest.mark.parametrize(
        "case, expected, prefix",
        [
            (dict(start="thermal", n=25, master=4, expl=0.02), "cuts", ""),
            (dict(start="thermal", n=25, master=11, expl=None), "one slab", ""),
            (dict(start="thermal", n=10, master=3, expl=1e-6), SlabCollapseError, "slab 1 exploded"),
            (
                dict(start="thermal", n=10, master=3, expl=0.35, poison=4),
                BlowUpError,
                "corrected state is not finite at window 5 (iteration 1)",
            ),
            (
                dict(start="at-rest", n=6, master=1, expl=None),
                DegenerateNormalizationError,
                "all reference positions",
            ),
            (
                dict(start="stiff", n=20, master=0, expl=None),
                BlowUpError,
                "state left the trusted range",
            ),
        ],
        ids=["cuts", "classic", "collapse", "non-finite-node", "zero-denominator", "fine-blow-up"],
    )
    def test_every_outcome(self, case, expected, prefix):
        case = dict(dict(conv=1e-10, k_max=None, poison=None), **case)
        on_floats, on_arrays = _float_and_array(**case)
        assert on_floats == on_arrays
        shown, _ = on_floats
        if shown[0] == "result":
            result = _path_run(True, **case)()
            cut = any(len(slab.attempts) > 1 for slab in result.slabs)
            assert result.converged and expected == ("cuts" if cut else "one slab")
        else:
            assert shown[1] is expected and shown[2].startswith(prefix)
            if expected is BlowUpError:
                assert shown[4] >= 1  # an iteration of the sweeps, not the bootstrap
