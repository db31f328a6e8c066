"""The measured process: imports pibounds, runs one workload, reports raw data.

``run.py`` starts this module in a fresh interpreter and reads one JSON
object from its standard output.  It holds the pass timings, every
operation's latency, every output (checked afterwards by ``check.py``, in
the orchestrating process) and the process's own peak RSS.  With tracing
on it also holds the per-layer metrics of ``tracer.py``.  Pass and
operation times are scaled to reference speed (``speed.py``); a pass's
clock time, readings left out, is kept beside as ``raw_seconds``.

A pass is the unit a workload repeats: one ``claims.run_all`` for
verify_full, ``inputs.POINT_PASS`` queries for point_queries and one
``inputs.MIX_PASS`` sequence of CLI calls for interactive_mix.  Pass 0 runs
cold, in the fresh process; the later ("warm") passes 1, 2, ... run after
it.  Cold passes in processes of their own take the indices -1, -2, ..., so
that every cold sample has inputs of its own.  Every pass runs the scans at
one thread.

``run_pass(index, speed)`` returns the pass's start and end on the clock,
the (start, end) of each operation, and the outputs.  Between operations
it calls ``speed.maybe_sample()``; the caller takes a reading before and
after the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
import speed as speeds
import tracer as tracing

CLOCK = time.perf_counter


class VerifyFull:
    """Pass: the full claim registry through claims.run_all at one thread."""

    #: numpy kernels over arrays of megabytes: both loops of speed.py
    reading = {"python": 0.5, "numpy": 0.5}

    min_warm = 6
    cold_samples = 3
    traced_pairs = 2

    def __init__(self, seed: int):
        from pibounds import claims

        self.claims = claims

    def run_pass(self, index: int, speed: speeds.SpeedLog):
        claims = self.claims
        spans: list[tuple[float, float]] = []
        run_claim = claims.run_claim

        def timed(*args, **kwargs):
            speed.maybe_sample()
            start = CLOCK()
            try:
                return run_claim(*args, **kwargs)
            finally:
                spans.append((start, CLOCK()))

        claims.run_claim = timed
        try:
            start = CLOCK()
            report = claims.run_all(cap=inputs.CAP, threads=1)
            end = CLOCK()
        finally:
            claims.run_claim = run_claim
        return start, end, spans, [report.to_json()]


class PointQueries:
    """Pass: seeded pi_at queries above the cap, sharing the phi memo.

    Phi's memo is a large dict, so a reading weighs both loops.

    The phi memo is cleared once it passes 4M entries, about every 25
    queries here, and a query right after a clear costs up to twice as much
    as one before it.  A run that let the memo carry over from pass to pass
    would sample that sawtooth at a phase set by the seed, so each warm pass
    starts from empty caches, like the cold one, and its queries share the
    memo among themselves.
    """

    reading = {"python": 0.5, "numpy": 0.5}
    min_warm = 4
    cold_samples = 3
    traced_pairs = 2

    def __init__(self, seed: int):
        from pibounds import primes

        self.primes = primes
        self.seed = seed

    def run_pass(self, index: int, speed: speeds.SpeedLog):
        spans, outputs = [], []
        clear = getattr(self.primes, "clear_caches", None)
        if index > 0 and clear is not None:
            clear()
        start = CLOCK()
        for x in inputs.point_pass(self.seed, index):
            speed.maybe_sample()
            t = CLOCK()
            try:
                value = self.primes.pi_at(x, cap=inputs.CAP)
            except Exception as exc:  # recorded as a failed operation
                value = repr(exc)
            spans.append((t, CLOCK()))
            outputs.append([x, value])
        return start, CLOCK(), spans, outputs


class InteractiveMix:
    """Pass: a seeded sequence of short cli.main calls, stdout captured."""

    #: argument parsing and Python loops: the Python loop of speed.py
    reading = {"python": 1.0}

    min_warm = 4
    #: a cold pass takes under a second here, so take more of them
    cold_samples = 7
    traced_pairs = 3

    def __init__(self, seed: int):
        from pibounds import cli

        self.cli = cli
        self.seed = seed

    def run_pass(self, index: int, speed: speeds.SpeedLog):
        spans, outputs = [], []
        start = CLOCK()
        for argv in inputs.mix_pass(self.seed, index):
            speed.maybe_sample()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t = CLOCK()
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # recorded as a failed operation
                    code = repr(exc)
                spans.append((t, CLOCK()))
            outputs.append([argv, code, out.getvalue(), err.getvalue()])
        return start, CLOCK(), spans, outputs


WORKLOADS = {
    "verify_full": VerifyFull,
    "point_queries": PointQueries,
    "interactive_mix": InteractiveMix,
}


def _run(passes, runner, speed, kind, index):
    """Run one pass between two readings and record it at reference speed."""
    if not speed.values:
        speed.sample()
    start, end, spans, outputs = runner.run_pass(index, speed)
    speed.sample()
    passes.append(dict(kind=kind, index=index, seconds=speed.scaled(start, end),
                       raw_seconds=speed.scaled(start, end, at_reference=False),
                       latencies=[speed.scaled(a, b) for a, b in spans], outputs=outputs))


def measure_cold(workload: str, seed: int, index: int) -> dict:
    """One cold pass, in this fresh process."""
    runner = WORKLOADS[workload](seed)
    speed = speeds.SpeedLog(runner.reading)
    passes: list[dict] = []
    _run(passes, runner, speed, "cold", index)
    return dict(passes=passes, speed=speed.summary())


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Cold pass, then warm passes until `seconds` are spent and minima met."""
    start = CLOCK()
    runner = WORKLOADS[workload](seed)
    speed = speeds.SpeedLog(runner.reading)
    passes: list[dict] = []
    _run(passes, runner, speed, "cold", 0)
    index = 1
    while True:
        elapsed = CLOCK() - start
        # past 4x the budget, stop even short of the minimum: a slow build
        # still finishes within the process's time limit
        if (elapsed >= seconds and index > runner.min_warm) or elapsed >= 4 * seconds:
            break
        _run(passes, runner, speed, "warm", index)
        index += 1
    return dict(passes=passes, speed=speed.summary())


def measure_traced(workload: str, seed: int) -> dict:
    """Traced cold pass, then alternating untraced and traced warm passes."""
    runner = WORKLOADS[workload](seed)
    tracer = tracing.Tracer()
    # readings only between passes, so that none falls inside a span
    speed = speeds.SpeedLog(runner.reading, every=float("inf"))
    passes: list[dict] = []
    tracing.install(tracer)
    try:
        _run(passes, runner, speed, "traced_cold", 0)
    finally:
        tracer.uninstall()
    warm_from = len(tracer.spans)
    for pair in range(runner.traced_pairs):
        index = 1 + 2 * pair
        _run(passes, runner, speed, "untraced", index)
        tracing.install(tracer)
        try:
            _run(passes, runner, speed, "traced", index + 1)
        finally:
            tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, warm_from=warm_from)
    untraced = statistics.median(p["seconds"] for p in passes if p["kind"] == "untraced")
    traced = statistics.median(p["seconds"] for p in passes if p["kind"] == "traced")
    layers["trace.untraced_pass_s"] = untraced
    layers["trace.traced_pass_s"] = traced
    layers["trace.overhead_ratio"] = traced / untraced
    layers["trace.spans"] = len(tracer.spans)
    return dict(passes=passes, layers=layers, speed=speed.summary())


def main(argv: list[str]) -> int:
    """argv: mode, workload, seed, then the pass index (cold) or seconds (run, trace)."""
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if mode == "cold":
        data = measure_cold(workload, seed, int(argv[3]))
    elif mode == "run":
        data = measure(workload, seed, float(argv[3]))
    else:
        data = measure_traced(workload, seed)
    data["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(data) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
