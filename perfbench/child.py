"""One CLI run in a fresh interpreter, timed from the inside.

Usage: python3 perfbench/child.py REPORT MODE -- <paralangevin CLI arguments>

Runs ``paralangevin.cli.main`` from ``src`` and writes a JSON report to
REPORT: the monotonic clock when ``validate_config`` returned and when
``main`` returned (the parent took its own reading just before starting
this interpreter), the exit code and the peak resident memory.

MODE is ``plain`` (nothing else), ``gain`` (also time each parareal call
and, after ``main``, the sequential fine run on the same noise plan) or
``trace`` (also record the layer spans of :mod:`spans`).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _record_parareal(cli, calls: list) -> None:
    """Wrap the CLI's parareal entry points to time them and keep their inputs."""

    def timed(fn):
        def call(initial, pair, params, schedule, plan, config, **kwargs):
            t0 = time.perf_counter()
            result = fn(initial, pair, params, schedule, plan, config, **kwargs)
            calls.append((time.perf_counter() - t0, initial, pair, params, schedule, plan, config))
            return result

        return call

    for name in ("parareal_adaptive", "parareal_classic"):
        setattr(cli, name, timed(getattr(cli, name)))


def _sequential_replay(calls: list, repeats: int = 5) -> tuple[float, float]:
    """(parareal wall time, sequential fine wall time) summed over the calls.

    Each sequential run is timed ``repeats`` times and its median kept: one
    run takes well under a second, so a single reading is noisy.
    """
    from paralangevin.parareal import sequential_propagate

    parareal_s = sequential_s = 0.0
    for wall, initial, pair, params, schedule, plan, config in calls:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            sequential_propagate(initial, config.n_windows, pair.fine, params, schedule, plan)
            times.append(time.perf_counter() - t0)
        sequential_s += statistics.median(times)
        parareal_s += wall
    return parareal_s, sequential_s


def main(argv: list[str]) -> int:
    report_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "gain", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    from paralangevin import cli

    report: dict = {"import_s": time.perf_counter() - t0}

    validate = cli.validate_config

    def timed_validate(path):
        v0 = time.perf_counter()
        cfg = validate(path)
        report["validate_s"] = time.perf_counter() - v0
        report["validated"] = time.monotonic()
        return cfg

    cli.validate_config = timed_validate
    calls: list = []
    tracer = None
    if mode == "gain":
        _record_parareal(cli, calls)
    elif mode == "trace":
        sys.path.insert(0, str(HERE))
        from spans import Tracer

        tracer = Tracer()
        tracer.install(cli)

    report["exit"] = cli.main(cli_args)
    report["ended"] = time.monotonic()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.summary()
        tracer.save(Path(report_path).with_suffix(".spans.npz"))
    if calls:
        report["parareal_s"], report["sequential_s"] = _sequential_replay(calls)
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
