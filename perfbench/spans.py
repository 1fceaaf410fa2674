"""Span tracing of the paralangevin layers, installed from outside the package.

:class:`Tracer` replaces each traced function at the module or class
attribute its callers look it up through (``cli.parareal_adaptive``,
``parareal.propagate_window``, ``DoubleWell.gradient``, ...) with a wrapper
that records a span: name, layer, start, end, parent span and thread.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts every
original back.  Spans stay in memory until :meth:`Tracer.save`.

Calls a module makes to its own globals are not wrapped, so a span
marks a call across a layer boundary.  The exceptions carry a metric:
``cli.validate_config`` and the CLI's file writers (the ``report`` layer),
``rng.derive_seeds`` as looked up by ``NoisePlan`` (which derives every
plan's seeds a second time to validate them) and the ``gradient`` methods
called from ``local_minima``.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("cli", "rng", "potentials", "integrator", "parareal", "accounting", "analysis", "model", "report")


class _ThreadState(threading.local):
    """Per-thread span stack and counts; each thread's counts join ``registry``."""

    def __init__(self, registry: list) -> None:
        self.stack: list[tuple[int, str]] = []  # (span id, layer)
        self.counts: Counter = Counter()
        self.in_engine = 0
        registry.append(self.counts)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, layer, t0, t1, thread)
        self._ids = itertools.count(1)
        self._all_counts: list[Counter] = []
        self._local = _ThreadState(self._all_counts)
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.coarse_ids: set[int] = set()
        self.engine_windows = 0
        self.engine_results: list = []

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, hook=None):
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._local
            stack = st.stack
            parent = stack[-1][0] if stack else 0
            sid = next(ids)
            if hook is not None:
                hook(tracer, st, args, kwargs)
            stack.append((sid, layer))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, layer, t0, t1, threading.get_ident()))
            if layer == "rng" and (not stack or stack[-1][1] != "rng"):
                st.counts["rng.calls"] += 1
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, layer: str, hook=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            new = classmethod(self.wrap(original.__func__, name, layer, hook))
        else:
            new = self.wrap(original, name, layer, hook)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, new)

    # -- installation -------------------------------------------------------

    def install(self, cli) -> None:
        """Wrap every traced attribute; ``cli`` is the imported CLI module."""
        from paralangevin import analysis, integrator, parareal, potentials, rng

        p = self._patch
        p(cli, "validate_config", "cli.validate_config", "cli")
        p(cli, "measure_kinetic_temperature", "integrator.measure_kinetic_temperature", "integrator")
        p(cli, "sequential_propagate", "parareal.sequential_propagate", "parareal")
        for engine in ("parareal_adaptive", "parareal_classic"):
            cli_attr = getattr(cli, engine)
            self._restore.append((cli, engine, cli_attr))
            setattr(cli, engine, self._engine(cli_attr, f"parareal.{engine}"))
        for attr in ("adaptive_gain", "classic_gain", "gain_csv_row"):
            p(cli, attr, f"accounting.{attr}", "accounting")
        for attr in ("label_trajectory", "residence_times", "residence_stats", "compare_ensembles"):
            p(cli, attr, f"analysis.{attr}", "analysis")
        for attr in ("write_gain_csv", "write_residence_histogram_csv", "write_trajectory_csv",
                     "_write_json", "_write_history_csv"):
            p(cli, attr, f"report.{attr}", "report")
        p(cli, "local_minima", "potentials.local_minima", "potentials")
        p(cli, "derive_seed", "rng.derive_seed", "rng", _count_seed)
        p(cli, "PhaseState", "model.PhaseState", "model", _count_state)
        self._restore.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = _pool_class(self)

        p(analysis.BasinCatalog, "from_potential", "analysis.BasinCatalog.from_potential", "analysis")
        p(analysis, "local_minima", "potentials.local_minima", "potentials")
        p(rng.NoisePlan, "for_windows", "rng.NoisePlan.for_windows", "rng")
        p(rng, "derive_seeds", "rng.derive_seeds", "rng", _count_seeds)

        p(parareal, "propagate_window", "integrator.propagate_window", "integrator", _count_window)
        p(parareal, "PhaseState", "model.PhaseState", "model", _count_state)
        p(parareal, "NodeTrajectory", "model.NodeTrajectory", "model")

        p(integrator, "gaussian_stream", "rng.gaussian_stream", "rng", _count_stream)
        p(integrator, "gaussian_streams", "rng.gaussian_streams", "rng", _count_streams)
        p(integrator, "derive_seeds", "rng.derive_seeds", "rng", _count_seeds)
        p(integrator, "PhaseState", "model.PhaseState", "model", _count_state)

        for cls in (potentials.Free, potentials.Harmonic, potentials.DoubleWell,
                    potentials.LennardJonesCluster):
            p(cls, "gradient", f"potentials.{cls.__name__}.gradient", "potentials", _count_gradient)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _engine(self, fn, name: str):
        """Engine wrapper: registers the coarse potential and keeps the result."""
        tracer = self

        def engine(initial, pair, params, schedule, plan, config, **kwargs):
            with tracer._lock:
                tracer.coarse_ids.add(id(pair.coarse))
            st = tracer._local
            st.in_engine += 1
            try:
                result = fn(initial, pair, params, schedule, plan, config, **kwargs)
            finally:
                st.in_engine -= 1
            with tracer._lock:
                tracer.engine_windows += config.n_windows
                tracer.engine_results.append(result)
            return result

        return self.wrap(engine, name, "parareal")

    # -- summary ------------------------------------------------------------

    def counts(self) -> Counter:
        total: Counter = Counter()
        for c in self._all_counts:
            total.update(c)
        return total

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span duration minus the time of its children."""
        child = Counter()
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent:
                child[parent] += t1 - t0
        out = {layer: 0.0 for layer in LAYERS}
        for sid, _, _, layer, t0, t1, _ in self.spans:
            out[layer] += (t1 - t0) - child[sid]
        return out

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for _, _, n, _, t0, t1, _ in self.spans if n == name]

    def summary(self) -> dict[str, float]:
        counts = self.counts()
        selfs = self.self_times()
        windows = self.durations("integrator.propagate_window")
        engine_props = counts["engine.fine"] + counts["engine.coarse"]
        return {
            "cli.pool_busy_s": sum(self.durations("cli.pool_task"), 0.0),
            "rng.self_s": selfs["rng"],
            "rng.calls": counts["rng.calls"],
            "rng.variates": counts["rng.variates"],
            "rng.seeds_derived": counts["rng.seeds_derived"],
            "potentials.self_s": selfs["potentials"],
            "potentials.gradient_calls": counts["potentials.gradient_calls"],
            "integrator.self_s": selfs["integrator"],
            "integrator.fine_windows": counts["integrator.fine_windows"],
            "integrator.coarse_windows": counts["integrator.coarse_windows"],
            "integrator.window_us": 1e6 * statistics.median(windows) if windows else 0.0,
            "parareal.self_s": selfs["parareal"],
            "parareal.iterations": sum(r.total_iterations for r in self.engine_results),
            "parareal.slabs": sum(r.n_slab for r in self.engine_results),
            "parareal.windows_per_node": (
                engine_props / self.engine_windows if self.engine_windows else 0.0
            ),
            "analysis.self_s": selfs["analysis"],
            "accounting.self_s": selfs["accounting"],
            "model.self_s": selfs["model"],
            "model.states_built": counts["model.states_built"],
            "report.write_s": selfs["report"],
            "trace.spans": len(self.spans),
        }

    def save(self, path) -> None:
        """Write the spans as arrays.

        ``names[name_index]`` and ``layers[layer_index]`` decode a span; a
        ``parent`` of 0 marks a span with no traced caller on its thread.
        """
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = sorted({s[6] for s in self.spans})
        tindex = {t: i for i, t in enumerate(threads)}
        rows = self.spans
        np.savez(
            path,
            names=np.array(names),
            layers=np.array(LAYERS),
            id=np.fromiter((s[0] for s in rows), dtype=np.int64, count=len(rows)),
            parent=np.fromiter((s[1] for s in rows), dtype=np.int64, count=len(rows)),
            name_index=np.fromiter((index[s[2]] for s in rows), dtype=np.int32, count=len(rows)),
            start=np.fromiter((s[4] for s in rows), dtype=np.float64, count=len(rows)),
            end=np.fromiter((s[5] for s in rows), dtype=np.float64, count=len(rows)),
            layer_index=np.fromiter((LAYERS.index(s[3]) for s in rows), dtype=np.int8, count=len(rows)),
            thread=np.fromiter((tindex[s[6]] for s in rows), dtype=np.int32, count=len(rows)),
        )


# -- count hooks: (tracer, thread state, args, kwargs) ------------------------


def _count_seed(tracer, st, args, kwargs) -> None:
    st.counts["rng.seeds_derived"] += 1


def _count_seeds(tracer, st, args, kwargs) -> None:
    st.counts["rng.seeds_derived"] += int(args[1])


def _count_stream(tracer, st, args, kwargs) -> None:
    st.counts["rng.variates"] += int(args[1])


def _count_streams(tracer, st, args, kwargs) -> None:
    st.counts["rng.variates"] += len(args[0]) * int(args[1])


def _count_gradient(tracer, st, args, kwargs) -> None:
    st.counts["potentials.gradient_calls"] += 1


def _count_state(tracer, st, args, kwargs) -> None:
    st.counts["model.states_built"] += 1


def _count_window(tracer, st, args, kwargs) -> None:
    kind = "coarse" if id(args[1]) in tracer.coarse_ids else "fine"
    st.counts[f"integrator.{kind}_windows"] += 1
    if st.in_engine:
        st.counts[f"engine.{kind}"] += 1


def _pool_class(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        """Thread pool whose tasks are recorded as ``cli.pool_task`` spans."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.wrap(fn, "cli.pool_task", "cli"), *args, **kwargs)

    return TracedPool
