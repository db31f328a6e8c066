"""Span recorder that wraps pibounds' public functions from outside.

The benchmark observes the package without editing it: ``install`` swaps
module attributes and class methods for thin wrappers that record a span
per call, and ``uninstall`` puts the originals back.  Spans are kept in
memory as (name, start, end, parent) and reduced to per-layer metrics when
the run ends.

A span's *self* time is its duration minus the durations of its direct
child spans.  Children nest strictly inside their parent on the same
thread, so they never overlap and the subtraction is exact.  A call made on
a worker thread starts a new root span there; the benchmark's passes run
their scans on the calling thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

#: bytes one kernel point touches: x and log x in, value and error out
KERNEL_BYTES_PER_POINT = 32

CLAIM_IDS = (
    "C1", "C2", "C3", "C4", "C5", "C6a", "C6b", "C7a", "C7b", "C8a", "C8b",
    "C9", "C10", "C11", "C12", "C13", "C14", "C15",
)

LAYERS = ("primes", "bounds", "scan", "claims", "cli")

TABLE_FUNCS = ("cumulative_pi", "psi_steps", "psi_array")
SCAN_FUNCS = (
    "verify_pi", "verify_psi", "verify_sandwich", "last_violation",
    "count_violations", "analytic_crossover",
)
SHAPES = ("ScaledLog", "ShiftedLog", "DusartSeries", "PsiAffine")
#: modules that bind bounds.evaluate under their own name
EVALUATE_HOLDERS = ("bounds", "scan", "claims", "cli")

#: metrics that read 0 on verify_full and interactive_mix alike: run.py
#: prints them but leaves them out of its result
PRINT_ONLY = ("scan.ambiguous", "primes.legendre.calls", "primes.legendre.s")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    #: what the wrapper learned from the call's arguments and result
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


class Tracer:
    """Collects spans; wraps callables so that each call records one."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, self.clock(), parent=stack[-1] if stack else None)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack().pop()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             observe: Callable[[Span, tuple, dict, Any], None] | None = None) -> Callable:
        """fn with a span per call; observe(span, args, kwargs, result) adds info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(self.spans[index], args, kwargs, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, observe=None,
              *, wrapper: Callable | None = None) -> None:
        """Replace owner.attr by a wrapper (made here unless one is given)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper or self.wrap(original, name, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _root(array: Any) -> Any:
    """The array that owns the memory behind a view (a cached table)."""
    while getattr(array, "base", None) is not None:
        array = array.base
    return array


def _table_observer() -> Callable:
    """Flags a table call as a build when it returns a new underlying array."""
    last: dict[str, weakref.ref] = {}

    def observe(span: Span, args, kwargs, result) -> None:
        arrays = result if isinstance(result, tuple) else (result,)
        root = _root(arrays[0])
        previous = last.get(span.name)
        span.info["build"] = previous is None or previous() is not root
        if span.info["build"]:
            span.info["bytes"] = sum(_root(a).nbytes for a in arrays)
        last[span.name] = weakref.ref(root)

    return observe


def _scan_observer(fn: Callable) -> Callable:
    signature = inspect.signature(fn)

    def observe(span: Span, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        lo, hi = bound.arguments["lo"], bound.arguments["hi"]
        span.info["points"] = getattr(result, "points_checked", hi - lo + 1)
        span.info["ambiguous"] = len(getattr(result, "ambiguous_points", ()))

    return observe


def _kernel_observe(span: Span, args, kwargs, result) -> None:
    span.info["points"] = int(args[1].size)


def _claim_observe(span: Span, args, kwargs, result) -> None:
    span.info["claim"] = args[0].id


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of the five layers of pibounds."""
    modules = {name: importlib.import_module(f"pibounds.{name}") for name in LAYERS}
    primes, bounds, scan = modules["primes"], modules["bounds"], modules["scan"]
    claims, cli = modules["claims"], modules["cli"]
    table = _table_observer()
    for attr in TABLE_FUNCS:
        tracer.patch(primes, attr, f"primes.table.{attr}", table)
    tracer.patch(primes, "sieve_segment", "primes.sieve_segment")
    tracer.patch(primes, "pi_point_legendre", "primes.legendre")
    tracer.patch(primes, "pi_at", "primes.pi_at")
    tracer.patch(primes, "psi_at", "primes.psi_at")
    for shape in SHAPES:
        tracer.patch(getattr(bounds, shape), "values_with_error", "bounds.kernel",
                     _kernel_observe)
    evaluate = tracer.wrap(bounds.evaluate, "bounds.evaluate")
    for holder in EVALUATE_HOLDERS:
        tracer.patch(modules[holder], "evaluate", "bounds.evaluate", wrapper=evaluate)
    for attr in SCAN_FUNCS:
        fn = getattr(scan, attr)
        tracer.patch(scan, attr, f"scan.{attr}", _scan_observer(fn))
    tracer.patch(claims, "run_all", "claims.run_all")
    tracer.patch(claims, "run_claim", "claims.run_claim", _claim_observe)
    tracer.patch(cli, "main", "cli.main")


def unit(name: str) -> str:
    """The unit of a metric that layer_metrics reports."""
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "build_s", "untraced_pass_s", "traced_pass_s"):
        return "s"
    if last == "ms":
        return "ms"
    if last == "ns_per_point":
        return "ns"
    if last == "bytes":
        # kernel bytes are computed from the point count, table bytes measured
        return "B_computed" if name.startswith("bounds.kernel") else "B"
    if last in ("eval_per_checked", "overhead_ratio"):
        return "ratio"
    return "count"


def layer_metrics(spans: list[Span], warm_from: int = 0) -> dict[str, float]:
    """Reduce spans to the benchmark's per-layer metrics.

    Each ``claims.<id>.ms`` is the median over the claim's runs among
    spans[warm_from:], so that a cold first pass can be left out of it.
    """
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def total(prefix: str, what: str = "duration") -> tuple[int, float]:
        calls, seconds = 0, 0.0
        for s, own in zip(spans, selfs):
            if s.name == prefix or s.name.startswith(prefix + "."):
                calls += 1
                seconds += s.duration if what == "duration" else own
        return calls, seconds

    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(layer, "self")[1]

    scans = [s for s in spans if s.name.startswith("scan.")]
    m["scan.calls"], m["scan.s"] = total("scan")
    m["scan.points_checked"] = sum(s.info.get("points", 0) for s in scans)
    m["scan.ambiguous"] = sum(s.info.get("ambiguous", 0) for s in scans)

    kernels = [s for s in spans if s.name == "bounds.kernel"]
    m["bounds.kernel.calls"], m["bounds.kernel.s"] = total("bounds.kernel")
    points = sum(s.info.get("points", 0) for s in kernels)
    m["bounds.kernel.points"] = points
    m["bounds.kernel.ns_per_point"] = m["bounds.kernel.s"] / points * 1e9 if points else 0.0
    m["bounds.kernel.bytes"] = KERNEL_BYTES_PER_POINT * points
    # kernel points a scan evaluates itself, per point it checks; a crossover
    # evaluates two bounds at each of its points
    scanned = 0.0
    for s in kernels:
        parent = spans[s.parent].name if s.parent is not None else ""
        if parent.startswith("scan."):
            share = 0.5 if parent == "scan.analytic_crossover" else 1.0
            scanned += share * s.info.get("points", 0)
    checked = m["scan.points_checked"]
    m["scan.eval_per_checked"] = scanned / checked if checked else 0.0
    m["bounds.evaluate.calls"], m["bounds.evaluate.s"] = total("bounds.evaluate")

    tables = [s for s in spans if s.name.startswith("primes.table.")]
    builds = [s for s in tables if s.info.get("build")]
    # a build nested in another table's build is already inside its time
    outer = [s for s in builds
             if s.parent is None or not spans[s.parent].name.startswith("primes.table.")]
    m["primes.table.builds"] = len(builds)
    m["primes.table.hits"] = len(tables) - len(builds)
    m["primes.table.build_s"] = sum(s.duration for s in outer)
    m["primes.table.bytes"] = sum(s.info.get("bytes", 0) for s in builds)
    for name in ("sieve_segment", "legendre", "pi_at", "psi_at"):
        m[f"primes.{name}.calls"], m[f"primes.{name}.s"] = total(f"primes.{name}")

    m["claims.run_claim.s"] = total("claims.run_claim")[1]
    per_claim: dict[str, list[float]] = {cid: [] for cid in CLAIM_IDS}
    for s in spans[warm_from:]:
        if s.name == "claims.run_claim":
            per_claim.setdefault(s.info.get("claim", "?"), []).append(s.duration * 1e3)
    for cid in CLAIM_IDS:
        runs = per_claim[cid]
        m[f"claims.{cid}.ms"] = statistics.median(runs) if runs else 0.0
    m["cli.main.calls"], m["cli.main.s"] = total("cli.main")
    return m
