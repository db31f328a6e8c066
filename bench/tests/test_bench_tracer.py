"""Tracer correctness: self time, transparency, the traced run's report.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import speed as speeds  # noqa: E402
import tracer as tracing  # noqa: E402


def fake_clock(step: float = 1.0):
    ticks = itertools.count()
    return lambda: next(ticks) * step


def test_self_time_is_span_minus_children_on_a_synthetic_nest():
    t = tracing.Tracer(clock=fake_clock())
    a = t.begin("claims.run_claim")   # 0
    b = t.begin("scan.verify_pi")     # 1
    c = t.begin("bounds.kernel")      # 2
    t.end(c)                          # 3
    d = t.begin("bounds.kernel")      # 4
    t.end(d)                          # 5
    t.end(b)                          # 6
    e = t.begin("bounds.evaluate")    # 7
    t.end(e)                          # 8
    t.end(a)                          # 9
    spans = t.spans
    assert [s.duration for s in spans] == [9, 5, 1, 1, 1]
    assert [spans[i].parent for i in range(5)] == [None, 0, 1, 1, 0]
    assert tracing.self_times(spans) == [9 - 5 - 1, 5 - 1 - 1, 1, 1, 1]
    m = tracing.layer_metrics(spans)
    assert m["claims.self_s"] == 3
    assert m["scan.self_s"] == 3
    assert m["bounds.self_s"] == 3
    assert m["scan.s"] == 5


def test_eval_per_checked_counts_only_the_kernel_calls_of_scans():
    t = tracing.Tracer(clock=fake_clock())
    scan = t.begin("scan.verify_pi")
    for points in (60, 40):
        k = t.begin("bounds.kernel")
        t.spans[k].info["points"] = points
        t.end(k)
    e = t.begin("bounds.evaluate")           # a guard inside the scan
    k = t.begin("bounds.kernel")
    t.spans[k].info["points"] = 1
    t.end(k)
    t.end(e)
    t.spans[scan].info["points"] = 100
    t.end(scan)
    cross = t.begin("scan.analytic_crossover")
    for _ in range(2):                       # both bounds at each point
        k = t.begin("bounds.kernel")
        t.spans[k].info["points"] = 50
        t.end(k)
    t.spans[cross].info["points"] = 50
    t.end(cross)
    k = t.begin("bounds.kernel")             # outside any scan
    t.spans[k].info["points"] = 7
    t.end(k)
    m = tracing.layer_metrics(t.spans)
    assert m["bounds.kernel.points"] == 60 + 40 + 1 + 100 + 7
    assert m["scan.points_checked"] == 150
    assert m["scan.eval_per_checked"] == 1.0


def test_wrapping_counts_calls_and_restores_originals():
    from pibounds import bounds, cli, primes, scan

    originals = (primes.pi_at, scan.evaluate, bounds.ScaledLog.__dict__["values_with_error"],
                 cli.main)
    t = tracing.Tracer()
    tracing.install(t)
    try:
        assert primes.pi_at(100) == 25
        assert cli.main(["bound", "eval", "cheb_upper", "100"]) == 0
    finally:
        t.uninstall()
    assert (primes.pi_at, scan.evaluate, bounds.ScaledLog.__dict__["values_with_error"],
            cli.main) == originals
    names = [s.name for s in t.spans]
    assert names.count("primes.pi_at") == 1
    assert names.count("cli.main") == 1
    assert names.count("bounds.evaluate") == 1
    assert names.count("bounds.kernel") == 1
    kernel = next(s for s in t.spans if s.name == "bounds.kernel")
    assert t.spans[kernel.parent].name == "bounds.evaluate"


def test_table_calls_split_into_builds_and_hits():
    from pibounds import primes

    primes.clear_caches()
    t = tracing.Tracer()
    tracing.install(t)
    try:
        primes.cumulative_pi(1000)   # build
        primes.cumulative_pi(500)    # hit: same array
        primes.cumulative_pi(2000)   # build: grown
        primes.psi_array(1000)       # build, with a nested psi_steps build
        primes.psi_steps(500)        # hit: a view of the cached arrays
    finally:
        t.uninstall()
        primes.clear_caches()
    m = tracing.layer_metrics(t.spans)
    assert m["primes.table.builds"] == 4
    assert m["primes.table.hits"] == 2
    outer = [s for s in t.spans if s.name in ("primes.table.cumulative_pi", "primes.table.psi_array")
             and s.info["build"]]
    assert m["primes.table.build_s"] == sum(s.duration for s in outer)


def test_traced_report_is_byte_identical_to_untraced():
    runner = measure.VerifyFull(seed=0)
    speed = speeds.SpeedLog(runner.reading, every=float("inf"))
    speed.sample()
    *_, (plain,) = runner.run_pass(0, speed)
    t = tracing.Tracer()
    tracing.install(t)
    try:
        _, _, spans, (traced,) = runner.run_pass(1, speed)
    finally:
        t.uninstall()
    assert check.scrub(traced) == check.scrub(plain) == check.PINNED.read_text()
    assert len(spans) == 18
    assert len(speed.values) == 1  # no reading inside a traced pass
    m = tracing.layer_metrics(t.spans)
    assert all(m[f"claims.{cid}.ms"] > 0 for cid in tracing.CLAIM_IDS)
    assert m["primes.legendre.calls"] == 0
    assert 0 < m["scan.eval_per_checked"] <= 1.0


def test_traced_run_reports_every_declared_layer_metric_and_its_overhead():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    data = measure.measure_traced("interactive_mix", seed=1)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(data["layers"]) - set(tracing.PRINT_ONLY) == set(declared)
    assert all(tracing.unit(name) == unit for name, unit in declared.items())
    layers = data["layers"]
    assert layers["trace.traced_pass_s"] > 0 and layers["trace.untraced_pass_s"] > 0
    assert layers["trace.overhead_ratio"] == (
        layers["trace.traced_pass_s"] / layers["trace.untraced_pass_s"])
    per_pass = len(inputs.mix_pass(1, 0))
    assert layers["cli.main.calls"] == per_pass * (1 + measure.InteractiveMix.traced_pairs)
    attempted, failures = check.check("interactive_mix", 1, data["passes"])
    assert attempted == layers["cli.main.calls"] + per_pass * measure.InteractiveMix.traced_pairs
    assert failures == []
