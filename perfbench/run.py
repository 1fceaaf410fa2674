"""Benchmark of the paralangevin command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run launches ``paralangevin.cli.main`` from ``src`` in fresh
interpreters (``child.py``), checks every output (``checks.py``) and prints
one JSON object as its last line: ``correct``, ``attempted`` (CLI launches),
``failed`` (non-zero exits and failed checks) and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off.  It makes
SETUP_PROBES short launches (``validate``, or for a parareal workload the
``sequential`` fine run its output is checked against), then repeats the
workload for about S seconds (see :func:`repeat`).  ``setup_s`` is the
median over every launch, ``run_s`` and ``peak_rss_mb`` over the workload
launches.

``--trace 1`` makes one short launch, then repeats rounds of one untraced
and one traced launch for about S seconds.  It prints the per-layer
metrics (medians over rounds; counts must agree between rounds) and
``trace.overhead_s``, traced minus untraced ``run_s``.

The workloads' program inputs are pinned (see ``workloads.py``); ``--seed``
is accepted and echoed, and every seed runs the same inputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 2
LAUNCH_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

from checks import CHECKERS, check_parareal, file_hashes, read_trajectory  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def launch(report: Path, mode: str, cli_args: list[str]) -> dict | None:
    """Run one CLI invocation in a fresh interpreter; None when it fails."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(report), mode, "--", *cli_args],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=LAUNCH_TIMEOUT_S,
    )
    data = json.loads(report.read_text()) if proc.returncode == 0 and report.exists() else None
    if data is None or data["exit"] != 0:
        code = proc.returncode if data is None else data["exit"]
        print(f"launch failed (exit {code}): {' '.join(cli_args)}\n{proc.stderr[-2000:]}")
        return None
    data["setup_s"] = data["validated"] - t0
    data["run_s"] = data["ended"] - data["validated"]
    return data


class Bench:
    """One workload's run directory, reference and tally of launches."""

    def __init__(self, name: str, workers: int | None = None) -> None:
        self.workload = WORKLOADS[name]
        self.workers = self.workload.workers if workers is None else workers
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg = self.workload.config()
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2) + "\n")
        self.checker = CHECKERS[self.cfg["experiment"]]
        # The setup probes of a parareal workload run the sequential fine
        # command on the same config: its trajectory is the reference the
        # parareal output must reproduce.
        self.reference = None
        self.reference_dir = self.dir / "reference"
        if self.checker is check_parareal:
            seq_path = self.dir / "sequential.json"
            seq_path.write_text(json.dumps(dict(self.cfg, experiment="sequential"), indent=2) + "\n")
            self.probe_args = ["sequential", "--config", str(seq_path), "--out", str(self.reference_dir)]
        else:
            self.probe_args = ["validate", "--config", str(self.cfg_path)]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.hashes: dict[str, str] | None = None
        self.first_out: Path | None = None
        self.n = 0

    def probe(self) -> dict | None:
        """A launch that stops after set-up, or after the short sequential reference run."""
        self.attempted += 1
        self.n += 1
        data = launch(self.dir / f"launch{self.n}.json", "plain", self.probe_args)
        self.failed += data is None
        if data is not None and self.checker is check_parareal and self.reference is None:
            self.reference = read_trajectory(self.reference_dir / "trajectory.csv")
        return data

    def rep(self, mode: str) -> dict | None:
        """One checked workload launch; keeps the first output directory."""
        self.attempted += 1
        self.n += 1
        out = self.dir / f"out{self.n}"
        w = self.workload
        data = launch(
            self.dir / f"launch{self.n}.json",
            mode,
            [w.command, "--config", str(self.cfg_path), "--out", str(out), "--workers", str(self.workers)],
        )
        if data is None:
            self.failed += 1
            return None
        problems = self.checker(out, self.cfg, self.reference)
        hashes = file_hashes(out)
        if self.hashes is None:
            self.hashes = hashes
            self.first_out = out
        elif hashes != self.hashes:
            moved = sorted(k for k in hashes.keys() | self.hashes.keys() if hashes.get(k) != self.hashes.get(k))
            problems.append(f"result files differ from the first launch: {', '.join(moved)}")
        if problems:
            print(f"launch {self.n} ({mode}) failed its checks:\n  " + "\n  ".join(problems))
            self.failed += 1
            self.correct = False
            return None
        if out != self.first_out:
            shutil.rmtree(out)
        return data


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def repeat(seconds: float, once) -> list:
    """Call ``once`` at least once, and again while the next call should end within ``seconds``."""
    start = time.monotonic()
    results = [once()]
    while (time.monotonic() - start) * (len(results) + 1) / len(results) <= seconds:
        results.append(once())
    return results


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    probes = [bench.probe() for _ in range(SETUP_PROBES)]
    reps = repeat(seconds, lambda: bench.rep("plain"))
    for i, r in enumerate(reps):
        if r is not None:
            print(f"launch {i}: setup_s={r['setup_s']:.4f} run_s={r['run_s']:.4f} "
                  f"peak_rss_mb={r['maxrss_kb'] / 1024:.1f}")
    ok = [r for r in reps if r is not None]
    return {
        "setup_s": _median([r["setup_s"] for r in probes + reps if r is not None]),
        "run_s": _median([r["run_s"] for r in ok]),
        "peak_rss_mb": _median([r["maxrss_kb"] / 1024 for r in ok]),
    }


def _modelled_gain(out: Path) -> float:
    result = json.loads((out / "result.json").read_text())
    if result.get("gain"):
        return result["gain"]["gain"]
    return result.get("mean_gain", 0.0)


def per_layer(bench: Bench, seconds: float) -> dict[str, float]:
    bench.probe()  # also keeps byte-compiling src out of cli.import_s
    rounds = repeat(seconds, lambda: (bench.rep("gain"), bench.rep("trace")))
    rounds = [(plain, traced) for plain, traced in rounds if plain and traced]
    if not rounds:
        return {}
    layers = [traced["layers"] for _, traced in rounds]
    counts = {k for k, v in layers[0].items() if isinstance(v, int)}
    for other in layers[1:]:
        moved = sorted(k for k in counts if other[k] != layers[0][k])
        if moved:
            print(f"per-layer counts differ between rounds: {', '.join(moved)}")
            bench.correct = False
    metrics = {k: _median([lay[k] for lay in layers]) for k in layers[0]}
    plain = [p for p, _ in rounds]
    parareal_s = _median([p.get("parareal_s", 0.0) for p in plain])
    sequential_s = _median([p.get("sequential_s", 0.0) for p in plain])
    out = bench.first_out
    metrics.update(
        {
            "cli.import_s": _median([p["import_s"] for p in plain]),
            "cli.validate_s": _median([p["validate_s"] for p in plain]),
            "parareal.sequential_s": sequential_s,
            "parareal.measured_gain": sequential_s / parareal_s if parareal_s else 0.0,
            "parareal.modelled_gain": _modelled_gain(out),
            "report.bytes": sum(p.stat().st_size for p in out.iterdir() if p.name != "manifest.json"),
            "trace.overhead_s": _median([t["run_s"] for _, t in rounds]) - _median([p["run_s"] for p in plain]),
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="override the workload's --workers, for the README's worker comparison",
    )
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "paralangevin" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a checkout that holds src/paralangevin and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"workload {args.workload}, seed {args.seed} (inputs are pinned), {args.seconds:g} s")
    if args.workers is not None:
        print(f"--workers {args.workers} in place of the workload's {WORKLOADS[args.workload].workers}")
    bench = Bench(args.workload, args.workers)
    values = (per_layer if args.trace else end_to_end)(bench, args.seconds)
    for name, digest in sorted((bench.hashes or {}).items()):
        print(f"sha256 {digest}  {name}")
    if args.trace:
        for m in wanted:
            print(f"  {m['name']:<28} {values.get(m['name'], 0.0):>14.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
