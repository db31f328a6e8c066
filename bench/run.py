"""pibounds benchmark: one workload per call, in fresh processes.

    python3 bench/run.py --workload verify_full --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  The orchestrator here never imports
pibounds.  It

1. times ``import pibounds`` in SETUP_SAMPLES fresh interpreters (after one
   untimed import that leaves the bytecode cache as an installed package
   would have it), each between two readings of the Python loop of
   ``speed.py``, and takes the median: ``setup_s``;
2. runs the workload's cold pass alone in fresh interpreters, then the
   whole workload in one more (``measure.py``), which reports pass and
   operation timings, its outputs and its own peak RSS;
3. checks every output against the references in ``check.py``;
4. prints one line per metric, a line describing the machine and its
   speed, and as the
   last line one JSON object: ``correct``, ``attempted``, ``failed`` and
   ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
   metrics of a separate traced run).

Every time it reports is scaled to reference speed (``speed.py``): it reads
as seconds on a machine where the benchmark's reference loops take
``speed.REFERENCE_S``.  The comment lines give the readings and the warm
pass time on the clock.

Exit status 0 means the run completed, whether or not every output was
correct (``correct`` says which); anything else means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
import measure
import speed as speeds
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
#: the measured process's time limit, inside the benchmark's own 180 s
CHILD_TIMEOUT_S = 150

#: the tail percentile of each workload: the highest with at least ten
#: operations beyond it in a run of the minimum length
TAIL = {"verify_full": 90, "point_queries": 75, "interactive_mix": 90}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list[str], timeout: float) -> str:
    """Run a child to completion and return its stdout; raise if it failed."""
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_times() -> list[float]:
    """SETUP_SAMPLES import times, each scaled by readings just before and after it."""
    probe = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import speed; "
             "w = {'python': 1.0}; before = speed.reading(w); t = speed.CLOCK(); "
             "import pibounds; t = speed.CLOCK() - t; "
             "print(speed.scale(t, before, speed.reading(w)))")
    cmd = [sys.executable, "-c", probe]
    _run(cmd, 60)
    return [float(_run(cmd, 60)) for _ in range(SETUP_SAMPLES)]


def quantile(values: list[float], pct: int) -> float:
    """The pct-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def machine(args) -> dict:
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    enabled = [name for name, on in features.items() if on]
    return dict(
        nproc=os.cpu_count(), python=platform.python_version(), numpy=numpy.__version__,
        simd=enabled[-1] if enabled else "none", machine=platform.machine(),
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        cap=inputs.CAP, scan_threads=1, setup_samples=SETUP_SAMPLES,
        cold_samples=measure.WORKLOADS[args.workload].cold_samples,
    )


def end_to_end(workload: str, setup: list[float], passes: list[dict], rss_mb: float,
               failed: int, attempted: int) -> dict[str, float]:
    cold = [p["seconds"] for p in passes if p["kind"] == "cold"]
    warm = [p for p in passes if p["kind"] == "warm"]
    ops = [lat for p in warm for lat in p["latencies"]]
    return {
        "setup_s": statistics.median(setup),
        "cold_s": statistics.median(cold),
        "warm_s": statistics.median(p["seconds"] for p in warm),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": quantile(ops, TAIL[workload]) * 1e3,
        "ops_per_s": len(ops) / sum(p["seconds"] for p in warm),
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pibounds" / "__init__.py").is_file():
        print(f"error: no pibounds sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    import check  # numpy and mpmath: only once the checkout is known good

    def measured(mode: str, arg: object = args.seconds) -> dict:
        cmd = [sys.executable, str(BENCH / "measure.py"), mode, args.workload,
               str(args.seed), str(arg)]
        return json.loads(_run(cmd, CHILD_TIMEOUT_S).splitlines()[-1])

    if args.trace:
        data = measured("trace")
        passes = data["passes"]
    else:
        setup = setup_times()
        # the measured process's own pass 0 is one of the cold samples
        cold_samples = measure.WORKLOADS[args.workload].cold_samples
        colds = [measured("cold", -k) for k in range(1, cold_samples)]
        data = measured("run")
        passes = [p for c in colds for p in c["passes"]] + data["passes"]
    attempted, failures = check.check(args.workload, args.seed, passes)
    for message in failures[:20]:
        print(f"FAILED {message}")
    # a pass whose inputs differ from the seeded ones adds a message of its own
    failed = min(len(failures), attempted)

    if args.trace:
        metrics = {name: (value, tracing.unit(name)) for name, value in data["layers"].items()
                   if name not in tracing.PRINT_ONLY}
    else:
        values = end_to_end(args.workload, setup, passes, data["peak_rss_mb"],
                            failed, attempted)
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    if args.trace:
        print("# not in the result: " + ", ".join(
            f"{name} {data['layers'][name]:g}" for name in tracing.PRINT_ONLY))
    else:
        warm = [p for p in passes if p["kind"] == "warm"]
        ops = sum(len(p["latencies"]) for p in warm)
        print(f"# failed_frac {failed / attempted:g} ({failed} of {attempted} "
              f"operations); op_tail_ms is p{TAIL[args.workload]} of {ops} operations over "
              f"{len(warm)} warm passes")
        raw = statistics.median(p["raw_seconds"] for p in warm)
        print(f"# times at reference speed; warm_s on the clock, readings left out, {raw:.6g} s")
    print("# readings " + json.dumps(data["speed"]))
    print("# machine " + json.dumps(machine(args)))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
