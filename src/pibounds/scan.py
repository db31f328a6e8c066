"""Verification engine for inequalities between step functions and bounds.

pi and psi are right-continuous step functions, constant on [n, n+1) and
jumping only at integers, so checking an inequality against a continuous
bound for *all real x* in a range reduces to integer comparisons against the
bound's extreme over each unit slab.  Every supported bound shape is either
increasing or falls-then-rises through a single turning point, so the slab
extreme sits at a slab endpoint or at that one turning point:

* upper checks (f < B) compare f(n) against the slab infimum of B,
* lower checks (B < f) compare f(n) against the slab supremum B(n+1)/B(n).

Comparisons are guarded: a difference within the combined evaluation error
bound (bound rounding + psi summation error; pi is exact) is reported
AMBIGUOUS rather than silently decided either way.

Run reduction.  pi is constant between consecutive primes and psi between
consecutive prime powers, so the integers of a range fall into runs on which
f is constant.  From floor(turn) + 2 onward every slab lies where the bound
increases, so within a run the slab margin only grows away from one *worst*
integer: the run's first integer for an upper check (B(n) is smallest there)
and its last for a lower check (B(n+1) is largest there).  If the worst slab
clears f by more than its guard, the bound's true value clears f on every
slab of the run, because the true bound only moves away from f inside the
run and f does not move at all.  Below floor(turn) + 2, where the bound may
still fall (and the slab extreme may be the turning point itself), every
integer is a run of its own.  A block whose runs all clear their guards at
their worst integers is decided from those comparisons alone; any other block
is compared integer by integer, so violation counts, the last violation,
ambiguous points and sign changes stay exact.  Verdicts still report
points_checked as the number of integers covered.

Stretch reduction.  A crossover search compares two smooth expressions, so
it has no runs; instead each block is cut every STRETCH integers, and a
stretch [a, b] is decided from its two ends when a chord bound allows it.
With d = g - f, a linear interpolant's error bound gives
d(x) >= min(d(a), d(b)) - M (b-a)^2 / 8 on [a, b], where M = f.curvature(a) +
g.curvature(a) bounds |d''| there; each end's true d lies within its guard
G = fe + ge of the float one.  Where both guard formulas are nondecreasing
on [a, b], max(G(a), G(b)) bounds the guard of every integer inside.  If the
lowest true d so bounded exceeds twice that guard (with a small slack for
rounding), every integer of the stretch would be classified PASS; the mirror
case gives FAIL.  A stretch that is not so decided is compared integer by
integer.  A decided stretch is one state from end to end and holds no
ambiguous point, so the last failure, sign changes and ambiguous points stay
exact (the closest margin does not, and a crossover reports none).

Segments and blocks.  A range is cut into segments of SCAN_SEGMENT integers,
the unit of threading: each worker thread takes whole segments.  A segment is
evaluated and classified in blocks of SCAN_BLOCK integers, the unit of
evaluation, so that a block's arrays stay in a core's L2 cache.  Neither cut
changes a verdict.  Every integer's comparison depends on that integer alone
(a run cut by a block edge is checked at the worst integer of each piece,
which the argument above covers), and the summaries of consecutive blocks and
segments merge exactly: counts add, the last failure and the closest margin
are taken in order with ties to the earlier point, ambiguous points are
concatenated in order, and a sign change across an edge is counted from the
last definite state before it and the first after it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import primes
from .bounds import BoundExpr, evaluate
from .errors import (
    CrossoverNotFoundError,
    DomainError,
    MonotonicityError,
    ResourceLimitError,
)
from .primes import DEFAULT_CAP, PSI_ERR_FACTOR

SCAN_SEGMENT = 1 << 20  # integers per thread task
SCAN_BLOCK = 1 << 16  # integers per evaluation; its arrays fit in L2
STRETCH = 1 << 10  # integer steps per crossover stretch, decided from its two ends

_EPS = np.finfo(np.float64).eps
# relative slack of the stretch certificate: it covers the rounding of g - f and
# of the certificate's own arithmetic, and the ulp wobble of the float guards
# between a stretch's ends, each a few eps
_STRETCH_SLACK = 4096 * _EPS


class Direction(Enum):
    UPPER_STRICT = "upper"  # f(x) < B(x) must hold
    LOWER_STRICT = "lower"  # B(x) < f(x) must hold


class Status(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    AMBIGUOUS = "AMBIGUOUS"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a range check.

    witness is the last violating point for FAIL and the closest-margin point
    otherwise; min_margin is the direction-adjusted difference there (positive
    means the inequality held with room, negative means violated), and
    guard_at_witness is the evaluation-error guard that comparison used.
    """

    status: Status
    witness: int | None
    min_margin: float
    points_checked: int
    ambiguous_points: list[int] = field(default_factory=list)
    guard_at_witness: float | None = None


@dataclass(frozen=True)
class CrossoverResult:
    """Smallest scanned n from which a relation holds onward.

    threshold may be hi+1 when the last scanned point still violates.
    """

    threshold: int
    last_failure: int | None
    sign_changes: int
    ambiguous_points: list[int] = field(default_factory=list)


@dataclass
class _SegmentSummary:
    points: int
    fail_count: int
    last_fail: int | None
    margin_at_last_fail: float
    guard_at_last_fail: float
    min_diff: float
    min_diff_n: int
    guard_at_min: float
    ambiguous: list[int]
    first_state: int  # +1 pass, -1 fail, 0 no definite point
    last_state: int
    state_changes: int


def _classify(diff: np.ndarray, guard: np.ndarray, ns: np.ndarray,
              points: int) -> _SegmentSummary:
    """Shared guarded classification of per-point margins.

    Each entry stands for the integer ns[i]; points is the number of integers
    the entries cover.  A diff of +inf marks a provable tie that passes.
    """
    fail = diff < -guard
    passing = diff > guard
    fail_count = int(np.count_nonzero(fail))
    amb_count = diff.size - fail_count - int(np.count_nonzero(passing))
    min_idx = int(np.argmin(diff))

    ambiguous: list[int] = []
    definite = fail  # True marks a failing point, False a passing one
    if amb_count:
        amb = ~(fail | passing)
        ambiguous = ns[amb].tolist()
        definite = fail[~amb]
    last_fail = None
    margin_at_last_fail = guard_at_last_fail = math.inf
    changes = 0
    if fail_count:
        i = int(np.flatnonzero(fail)[-1])
        last_fail = int(ns[i])
        margin_at_last_fail = float(diff[i])
        guard_at_last_fail = float(guard[i])
        changes = int(np.count_nonzero(definite[1:] != definite[:-1]))
    if definite.size:
        first_state = -1 if definite[0] else 1
        last_state = -1 if definite[-1] else 1
    else:
        first_state = last_state = 0

    return _SegmentSummary(
        points=points,
        fail_count=fail_count,
        last_fail=last_fail,
        margin_at_last_fail=margin_at_last_fail,
        guard_at_last_fail=guard_at_last_fail,
        min_diff=float(diff[min_idx]),
        min_diff_n=int(ns[min_idx]),
        guard_at_min=float(guard[min_idx]),
        ambiguous=ambiguous,
        first_state=first_state,
        last_state=last_state,
        state_changes=changes,
    )


def _merge(summaries: list[_SegmentSummary]) -> _SegmentSummary:
    """Summary of consecutive ranges, given their summaries in order."""
    latest = closest = summaries[0]
    points = fail_count = changes = first_state = last_state = 0
    for seg in summaries:
        points += seg.points
        fail_count += seg.fail_count
        if seg.last_fail is not None:
            latest = seg
        if seg.min_diff < closest.min_diff:
            closest = seg
        changes += seg.state_changes
        if last_state != 0 and seg.first_state != 0 and last_state != seg.first_state:
            changes += 1
        first_state = first_state or seg.first_state
        last_state = seg.last_state or last_state
    return _SegmentSummary(
        points=points,
        fail_count=fail_count,
        last_fail=latest.last_fail,
        margin_at_last_fail=latest.margin_at_last_fail,
        guard_at_last_fail=latest.guard_at_last_fail,
        min_diff=closest.min_diff,
        min_diff_n=closest.min_diff_n,
        guard_at_min=closest.guard_at_min,
        ambiguous=[n for seg in summaries for n in seg.ambiguous],
        first_state=first_state,
        last_state=last_state,
        state_changes=changes,
    )


def _scan(margins, lo: int, hi: int, threads: int, coarse=None) -> _SegmentSummary:
    """Summary of [lo, hi]; threads <= 0 means one worker per core.

    margins(ns) gives the (diff, guard) arrays of the ascending integers ns.
    coarse(s, e), when given, gives the (diff, guard, ns) of the integers that
    decide the block [s, e] (see Run reduction and Stretch reduction), or
    None when the block must be compared integer by integer.  Each segment is
    evaluated in blocks of SCAN_BLOCK integers, so that its arrays stay in
    cache, and the block summaries are merged.
    """
    def block(s: int, e: int) -> _SegmentSummary:
        picked = None if coarse is None else coarse(s, e)
        if picked is None:
            ns = np.arange(s, e + 1, dtype=np.int64)
            picked = (*margins(ns), ns)
        return _classify(*picked, e - s + 1)

    def segment(s: int) -> _SegmentSummary:
        e = min(s + SCAN_SEGMENT - 1, hi)
        return _merge([block(b, min(b + SCAN_BLOCK - 1, e))
                       for b in range(s, e + 1, SCAN_BLOCK)])

    starts = range(lo, hi + 1, SCAN_SEGMENT)
    workers = min(len(starts), threads if threads > 0 else os.cpu_count() or 1)
    if workers <= 1:
        return _merge([segment(s) for s in starts])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _merge(list(pool.map(segment, starts)))


def _stretch_guard(f: BoundExpr, g: BoundExpr, ends: np.ndarray,
                   guard: np.ndarray) -> np.ndarray:
    """A bound on the guard at every integer of each stretch [ends[i], ends[i+1]]:
    its larger end guard where both guard formulas are nondecreasing, else inf."""
    rising = ends[:-1] >= max(f.guard_increase_start(), g.guard_increase_start())
    return np.where(rising, np.maximum(guard[:-1], guard[1:]), np.inf)


def _decided_stretches(f: BoundExpr, g: BoundExpr, ends: np.ndarray,
                       diff: np.ndarray, guard: np.ndarray) -> np.ndarray:
    """Mask of the stretches [ends[i], ends[i+1]] whose every integer classifies
    as both its ends do, given the (diff, guard) of g - f at the ends."""
    d = np.where(np.isinf(diff), 0.0, diff)  # an exact tie is d = 0, which decides nothing
    xs = ends[:-1].astype(np.float64)
    logs = np.log(xs)
    width = np.diff(ends).astype(np.float64)
    # on [a, b], d sags at most M h^2 / 8 below its chord, M bounding |f''| + |g''|
    sag = (f.curvature(xs, logs) + g.curvature(xs, logs)) * (width * width / 8.0)
    sag *= 1.0 + _STRETCH_SLACK
    bar = 2.0 * (1.0 + _STRETCH_SLACK) * _stretch_guard(f, g, ends, guard)
    decided = np.zeros(width.size, dtype=bool)
    for sd in (d, -d):  # every integer PASS, then the mirror case, every one FAIL
        low = np.minimum(sd[:-1] - guard[:-1], sd[1:] - guard[1:])
        decided |= low * (1.0 - _STRETCH_SLACK) - sag > bar
    return decided


def _check_range(lo: int, hi: int, cap: int) -> None:
    primes.check_cap(cap)
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    if hi > cap:
        raise ResourceLimitError(
            f"scan end {hi} exceeds the scan cap {cap}; raise the cap to allow it"
        )


def _scan_inequality(b: BoundExpr, direction: Direction, lo: int, hi: int,
                     *, use_psi: bool, cap: int, threads: int) -> _SegmentSummary:
    _check_range(lo, hi, cap)
    b.check_domain(lo)
    try:
        turn = b.increase_start()
    except NotImplementedError as exc:
        raise MonotonicityError(
            f"bound {b.name!r} does not expose a monotone/single-minimum shape"
        ) from exc

    if use_psi:
        f_table = primes.psi_array(hi)
    else:
        f_table = primes.cumulative_pi(hi)

    upper = direction is Direction.UPPER_STRICT
    turn_patch = None
    if upper:
        n0 = math.floor(turn)
        if lo <= n0 <= hi and turn > b.domain_start():
            res = evaluate(b, turn)
            turn_patch = (n0, res.value, res.abs_error_bound)
    run_from = math.floor(turn) + 2  # every slab from here on is increasing

    def margins(ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slab margin and guard of each integer in ns (ascending)."""
        xs = np.empty(2 * ns.size, dtype=np.float64)
        xs[0::2] = ns
        xs[1::2] = ns + 1
        vals, errs = b.values_with_error(xs, np.log(xs))
        err_b = np.maximum(errs[0::2], errs[1::2])
        f_vals = f_table[ns]
        if upper:
            slab = np.minimum(vals[0::2], vals[1::2])
            if turn_patch is not None:
                i = int(np.searchsorted(ns, turn_patch[0]))
                if i < ns.size and ns[i] == turn_patch[0]:
                    slab[i] = min(slab[i], turn_patch[1])
                    err_b[i] = max(err_b[i], turn_patch[2])
            diff = slab - f_vals
        else:
            slab = np.maximum(vals[0::2], vals[1::2])
            diff = f_vals - slab
        guard = (err_b + PSI_ERR_FACTOR * f_vals) if use_psi else err_b
        return diff, guard

    def coarse(s: int, e: int):
        """The worst integer of each run of constant f in [s, e], when every
        one clears its guard; every integer below run_from is a run of its own."""
        f_seg = f_table[s : e + 1]
        cut = f_seg[1:] != f_seg[:-1]  # cut[i]: s + i + 1 starts a run
        cut[: max(run_from - s, 0)] = True
        starts = s + 1 + np.flatnonzero(cut)
        ns = np.concatenate(([s], starts)) if upper else np.append(starts - 1, e)
        diff, guard = margins(ns)
        return (diff, guard, ns) if np.all(diff > guard) else None

    return _scan(margins, lo, hi, threads, coarse)


def _to_verdict(out: _SegmentSummary) -> Verdict:
    if out.fail_count:
        return Verdict(Status.FAIL, out.last_fail, out.margin_at_last_fail, out.points,
                       out.ambiguous, out.guard_at_last_fail)
    if out.ambiguous:
        return Verdict(Status.AMBIGUOUS, out.min_diff_n, out.min_diff, out.points,
                       out.ambiguous, out.guard_at_min)
    return Verdict(Status.PASS, out.min_diff_n, out.min_diff, out.points, [], out.guard_at_min)


def verify_pi(b: BoundExpr, direction: Direction, lo: int, hi: int,
              *, cap: int = DEFAULT_CAP, threads: int = 1) -> Verdict:
    """Check the pi inequality over real x in [lo, hi+1) by integer reduction."""
    out = _scan_inequality(b, direction, lo, hi, use_psi=False, cap=cap, threads=threads)
    return _to_verdict(out)


def verify_psi(b: BoundExpr, direction: Direction, lo: int, hi: int,
               *, cap: int = DEFAULT_CAP, threads: int = 1) -> Verdict:
    """Check the psi inequality over real x in [lo, hi+1); guards include psi's
    accumulated summation error."""
    out = _scan_inequality(b, direction, lo, hi, use_psi=True, cap=cap, threads=threads)
    return _to_verdict(out)


def last_violation(b: BoundExpr, direction: Direction, lo: int, hi: int,
                   *, cap: int = DEFAULT_CAP, threads: int = 1) -> CrossoverResult:
    """Largest violating integer in range and the threshold right after it."""
    out = _scan_inequality(b, direction, lo, hi, use_psi=False, cap=cap, threads=threads)
    threshold = out.last_fail + 1 if out.last_fail is not None else lo
    return CrossoverResult(threshold, out.last_fail, out.state_changes, out.ambiguous)


def count_violations(b: BoundExpr, direction: Direction, lo: int, hi: int,
                     *, cap: int = DEFAULT_CAP, threads: int = 1) -> int:
    """Number of definitely violating integers in range."""
    out = _scan_inequality(b, direction, lo, hi, use_psi=False, cap=cap, threads=threads)
    return out.fail_count


def analytic_crossover(f: BoundExpr, g: BoundExpr, lo: int, hi: int,
                       *, cap: int = DEFAULT_CAP, threads: int = 1) -> CrossoverResult:
    """Smallest n in [lo, hi] with f(n) <= g(n) for every scanned point onward.

    Pure expression comparison; no prime data involved.  Every integer is
    decided, most of them a stretch at a time (see Stretch reduction), and
    sign alternations are recorded as evidence of a single crossing.  An exact
    floating-point tie counts as satisfied (the relation is non-strict), which
    also covers comparing an expression against itself.
    """
    _check_range(lo, hi, cap)
    f.check_domain(lo)
    g.check_domain(lo)

    def margins(ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xs = ns.astype(np.float64)
        logs = np.log(xs)
        fv, fe = f.values_with_error(xs, logs)
        gv, ge = g.values_with_error(xs, logs)
        diff = gv - fv
        diff[diff == 0.0] = np.inf  # an exact tie satisfies the relation
        return diff, fe + ge

    def coarse(s: int, e: int):
        """Each stretch's ends, and every integer of a stretch they leave undecided."""
        ends = np.append(np.arange(s, e, STRETCH, dtype=np.int64), e)
        diff, guard = margins(ends)
        undecided = ~_decided_stretches(f, g, ends, diff, guard)
        if not undecided.any():
            return diff, guard, ends
        keep = np.zeros(e - s + 1, dtype=bool)
        keep[ends - s] = True
        for a in ends[:-1][undecided].tolist():
            keep[a - s : a - s + STRETCH + 1] = True
        ns = s + np.flatnonzero(keep)
        return (*margins(ns), ns)

    out = _scan(margins, lo, hi, threads, coarse)
    if out.last_fail is None:
        return CrossoverResult(lo, None, out.state_changes, out.ambiguous)
    if out.last_fail >= hi:
        raise CrossoverNotFoundError(
            f"no n in [{lo}, {hi}] from which {f.name!r} <= {g.name!r} holds onward"
        )
    return CrossoverResult(out.last_fail + 1, out.last_fail, out.state_changes, out.ambiguous)


def verify_sandwich(lo: int, hi: int, *, cap: int = DEFAULT_CAP, threads: int = 1) -> Verdict:
    """Check psi(n) <= pi(n)*log(n) <= 2*psi(n) at every integer in [lo, hi].

    Comparisons are non-strict.  At n=2 both sides of the lower comparison are
    the same quantity (log 2), an exact tie by construction; that provable tie
    is admitted as a pass and excluded from margin bookkeeping, so min_margin
    reports the tightest genuinely decided point.
    """
    _check_range(lo, hi, cap)
    counts = primes.cumulative_pi(hi)
    psis = primes.psi_array(hi)

    def margins(ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        logs = np.log(ns.astype(np.float64))
        pi_log = counts[ns] * logs
        psi_vals = psis[ns]
        diff = np.minimum(pi_log - psi_vals, 2.0 * psi_vals - pi_log)
        guard = _EPS * (2.0 * np.abs(pi_log) + 8.0 * np.abs(psi_vals))
        diff[(diff == 0.0) & (ns == 2)] = np.inf  # the provable tie at n=2
        return diff, guard

    return _to_verdict(_scan(margins, lo, hi, threads))


def exp_threshold(m: float, C: float) -> float:
    """exp(m*C/(C-1)): the real solution of x/(log x - m) <= C*x/log x."""
    if not C > 1.0:
        raise DomainError(f"exp_threshold requires C > 1, got C={C}")
    return math.exp(m * C / (C - 1.0))
