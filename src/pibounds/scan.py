"""Verification engine for inequalities between step functions and bounds.

pi and psi are right-continuous step functions, constant on [n, n+1) and
jumping only at integers, so checking an inequality against a continuous
bound for *all real x* in a range reduces to integer comparisons against the
bound's extreme over each unit slab.  Every supported bound shape is either
increasing or falls-then-rises through a single turning point, so the slab
extreme sits at a slab endpoint or at that one turning point: upper checks
(f < B) compare f(n) against the slab infimum of B, the lesser of B(n) and
B(n+1), or of B(n) and B(turn) on the slab that holds the turn; lower checks
(B < f) against the slab supremum, the greater of B(n) and B(n+1).  Each
comparison has one guard, which bounds the combined evaluation error of its
two sides (bound rounding + psi summation error; pi is exact): a difference
within it is reported AMBIGUOUS rather than silently decided either way.

Brackets.  The range starts as pieces of STRETCH integer steps that share
their ends, and a piece [a, b] is decided from the comparisons at its ends:
every integer of it then classifies as its ends do, PASS or FAIL.  A level
splits each undecided piece in 2 to BASE_CASE equal parts, as many as
SPLIT_BUDGET new points allow; one of at most BASE_CASE steps, or all left
once they hold at most STRETCH integers, are compared integer by integer.  A
decided piece holds no ambiguous point or sign change, and its ends are compared.

* An inequality or sandwich margin is hi - lo with hi and lo nondecreasing:
  the slab bound and f for an upper check, f and the slab bound for a lower
  one, pi(n) log n over psi(n) and 2 psi(n) over pi(n) log n for the
  sandwich.  So hi(a) - lo(b) bounds every margin of [a, b] from below, and
  hi(b) - lo(a) from above (Rosser and Schoenfeld's check at the primes,
  applied to whole ranges of primes).  The guard at the far end bounds
  every guard inside, which for psi holds PSI_ERR_FACTOR * f(b), so the
  float hi and lo at the ends and hi - lo inside may each be off by it.  A
  piece is PASS when hi(a) - lo(b), less a small rounding slack, clears four
  such guards, and FAIL when hi(b) - lo(a), plus the slack, stays below
  minus four guards.  This holds where the bound
  increases and its guard formula no longer falls, so a piece below
  floor(turn) + 2 or guard_increase_start is split.  A piece FAIL throughout
  has failing ends, so FAIL is tried only once the scan has compared a
  negative margin.
* A crossover bounds d = g - f by its chord: d >= min(d(a), d(b)) -
  M (b-a)^2 / 8 on [a, b], M = f.curvature(a) + g.curvature(a) bounding |d''|.
  With each end's true d within its guard G = fe + ge, and max(G(a), G(b))
  bounding the guard inside where both guard formulas rise, a piece whose
  lowest true d clears twice that guard is PASS throughout; mirrored, FAIL.

Closest margin.  The scan keeps the smallest margin it has compared over the
whole range, and a piece decided PASS is split anyway until its lower bound on
the margins inside exceeds it (branch and bound over enclosures).  A piece
so dropped holds no integer at or below the true minimum, so a PASS scan's
closest integer was compared, ties going to the earlier one.  A piece decided
FAIL, and a crossover, keep none: a FAIL verdict reports its last failure,
and a crossover its margin at the flip, whose two integers are compared.

Segments.  One frontier of pieces is split over the whole range: each level
makes one margins call and one bracket call for the whole frontier.
SCAN_SEGMENT caps the integers one level compares whole, its first whole
piece always included; the whole pieces past the cap wait for the next level,
so a call holds at most that many integers plus the cuts of the pieces split,
at most SPLIT_BUDGET or one per piece.  The range is classified once from the
integers compared, in order, with their diffs and guards.  Between two
neighbouring compared integers lies the inside of one decided piece, so the
integers there fail when both neighbours fail and pass otherwise: counts add
the gaps between failing neighbours, and the last failure, sign changes and
ambiguous points are those of the compared integers.  So no verdict depends
on how the range is split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import primes
# scan calls no evaluate; it keeps the name for bench/tracer.py, which patches scan.evaluate
from .bounds import BoundExpr, evaluate  # noqa: F401
from .errors import CrossoverNotFoundError, DomainError, MonotonicityError
from .primes import DEFAULT_CAP, PSI_ERR_FACTOR

SCAN_SEGMENT = 1 << 20  # integers compared whole per level, at most
STRETCH = 1 << 10  # integer steps per starting piece of the range
BASE_CASE = 1 << 5  # integer steps of the widest piece compared integer by integer
SPLIT_BUDGET = 1 << 11  # new points a level adds, at most, when it splits finer than halves

_EPS = np.finfo(np.float64).eps
# relative slack of the piece certificates: it covers the rounding of the
# margins and of the certificate's own arithmetic, and the ulp wobble of the
# float guards between a piece's ends, each a few eps
_CERT_SLACK = 4096 * _EPS


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
    min_margin (0 at an exact tie) and guard_at_witness are the smaller |diff|
    and the larger guard of the last failure and the integer after it, or of lo.
    """

    threshold: int
    last_failure: int | None
    sign_changes: int
    ambiguous_points: list[int]
    min_margin: float
    guard_at_witness: float


@dataclass
class _Summary:
    points: int
    fail_count: int
    witness: int  # the last failure, else the first closest margin
    margin: float
    guard: float
    flank: tuple[float, float]  # a crossover's min_margin and guard_at_witness
    ambiguous: list[int]
    state_changes: int

    @property
    def last_fail(self) -> int | None:
        return self.witness if self.fail_count else None


def _classify(diff: np.ndarray, guard: np.ndarray, ns: np.ndarray) -> _Summary:
    """Guarded classification of a range from its compared integers.

    Entry i stands for the integer ns[i]; ns ascends from the range's first
    integer to its last, and the integers between two entries classify as
    both do when both fail, else pass (see Segments).  A diff of +inf marks a
    provable tie that passes.  The witness is the last failure if any, else
    the first integer of least diff; a crossover's flank is read at the last
    failure and the integer after it, or at lo.
    """
    fail = diff < -guard
    passing = diff > guard
    fail_count = int(np.count_nonzero(fail))
    amb_count = diff.size - fail_count - int(np.count_nonzero(passing))

    ambiguous: list[int] = []
    definite = fail  # True marks a failing point, False a passing one
    if amb_count:
        amb = ~(fail | passing)
        ambiguous = ns[amb].tolist()
        definite = fail[~amb]
    changes = 0
    i = int(np.argmin(diff))
    flank = slice(0, 1)  # the last failure and the next integer, or lo
    if fail_count:
        i = int(np.flatnonzero(fail)[-1])
        flank = slice(i, i + 2)
        changes = int(np.count_nonzero(definite[1:] != definite[:-1]))
        fail_count += int((np.diff(ns) - 1)[fail[1:] & fail[:-1]].sum())

    return _Summary(
        points=int(ns[-1] - ns[0]) + 1,
        fail_count=fail_count,
        witness=int(ns[i]),
        margin=float(diff[i]),
        guard=float(guard[i]),
        flank=(min(0.0 if d == math.inf else abs(d) for d in diff[flank].tolist()),
               max(guard[flank].tolist())),
        ambiguous=ambiguous,
        state_changes=changes,
    )


def _scan(margins, bracket, lo: int, hi: int) -> _Summary:
    """Summary of [lo, hi].

    margins(ns) gives one column per integer of ns: the diff and the guard of
    its comparison, then the rows that bracket reads.  bracket(a, b, at_a,
    at_b, best) gives, for the pieces [a[i], b[i]] and their ends' columns,
    whether every integer of each classifies as its ends do, and a lower bound
    on their diffs, inf where none is needed; best is the smallest diff the
    scan has compared (see Brackets and Closest margin).  One frontier of
    pieces is split over the whole range, each undecided piece of a level in
    the same number of equal parts, and at most SCAN_SEGMENT integers are
    compared whole a level (see Segments).
    """
    new = np.append(np.arange(lo, hi, STRETCH, dtype=np.int64), hi)
    rows = margins(new)
    a, b, at_a, at_b = new[:-1], new[1:], rows[:, :-1], rows[:, 1:]
    ns, cols, best = [new], [rows[:2]], rows[0].min()  # best: smallest margin compared
    while a.size:
        decided, low = bracket(a, b, at_a, at_b, best)
        keep = np.flatnonzero(~(decided & (low > best)))
        a, b, at_a, at_b = a[keep], b[keep], at_a[:, keep], at_b[:, keep]
        width = b - a
        # narrow pieces, or all of them once they hold few integers, are compared whole
        whole = (width <= BASE_CASE) | (width.sum() <= STRETCH)
        inner = wait = a[:0]
        if whole.any():
            take = np.flatnonzero(whole)
            counts = width[take] - 1  # the integers inside each whole piece
            ends = np.cumsum(counts)
            if ends[-1] > SCAN_SEGMENT:  # the pieces past the cap, the first aside, wait
                fits = max(1, int(np.searchsorted(ends, SCAN_SEGMENT, "right")))
                wait, take, counts, ends = take[fits:], take[:fits], counts[:fits], ends[:fits]
            inner = np.repeat(a[take] + 1 - ends + counts, counts)
            inner += np.arange(inner.size)
            keep = np.concatenate((wait, np.flatnonzero(~whole)))  # then those to split
            a, b, at_a, at_b = a[keep], b[keep], at_a[:, keep], at_b[:, keep]
        w = wait.size
        # each piece left to split gets parts - 1 cuts: all first cuts, then all second, ...
        parts = max(2, min(BASE_CASE, SPLIT_BUDGET // max(1, a.size - w)))
        cut = (a[w:] + (b[w:] - a[w:]) * np.arange(1, parts)[:, None] // parts).ravel()
        new = np.concatenate((inner, cut))
        if not new.size:
            break
        rows = margins(new)
        ns.append(new)
        cols.append(rows[:2])
        best = min(best, rows[0].min())
        # a split piece now ends at its first cut; new pieces run cut to cut, then to its end
        at_cut = rows[:, inner.size :]
        a, b = np.concatenate((a, cut)), np.concatenate((b[:w], cut, b[w:]))
        at_a = np.concatenate((at_a, at_cut), 1)
        at_b = np.concatenate((at_b[:, :w], at_cut, at_b[:, w:]), 1)
    ns = np.concatenate(ns)
    order = np.argsort(ns, kind="stable")  # a merge sort, fast on the ascending runs of ns
    diff, guard = np.concatenate(cols, axis=1)[:, order]
    return _classify(diff, guard, ns[order])


def _stretch_guard(a, start: float, at_a, at_b) -> np.ndarray:
    """A bound on a quantity inside each piece from its values at the ends: the
    larger where the piece starts at or past start (the quantity never falls
    from there), else inf."""
    return np.where(a >= start, np.maximum(at_a, at_b), np.inf)


def _monotone(start: float):
    """The bracket of margins hi - lo, hi and lo nondecreasing from start (see
    Brackets).  Below the diff and the guard, which also bounds the error of
    the float hi and lo together, the margin rows are k rows of hi and k of lo."""
    def bracket(a, b, at_a, at_b, best):
        k = (at_a.shape[0] - 2) // 2
        # the far end's guard bounds the guard inside and the errors of hi and
        # lo at the ends and of hi - lo inside: four guards in all
        guard = (1.0 + _CERT_SLACK) * _stretch_guard(a, start, at_a[1], at_b[1])
        d = (at_a[2 : 2 + k] - at_b[2 + k :]).min(axis=0)
        low = d - _CERT_SLACK * np.abs(d) - 3.0 * guard
        decided = low > guard
        if best < 0.0:  # a piece FAIL throughout has failing ends, compared already
            d = (at_b[2 : 2 + k] - at_a[2 + k :]).min(axis=0)
            failing = d + _CERT_SLACK * np.abs(d) + 3.0 * guard < -guard
            decided |= failing
            low[failing] = np.inf
        return decided, low

    return bracket


def _chord(f: BoundExpr, g: BoundExpr):
    """The bracket of the crossover g - f (see Brackets)."""
    start = max(f.guard_increase_start(), g.guard_increase_start())

    def bracket(a, b, at_a, at_b, best):
        # an exact tie is d = 0, which decides nothing
        d_a, d_b = (np.where(np.isinf(at[0]), 0.0, at[0]) for at in (at_a, at_b))
        xs = a.astype(np.float64)
        logs = np.log(xs)
        # on [a, b], d sags at most M h^2 / 8 below its chord, M bounding |f''| + |g''|
        sag = (f.curvature(xs, logs) + g.curvature(xs, logs)) * ((b - a) ** 2 / 8.0)
        sag *= 1.0 + _CERT_SLACK
        bar = 2.0 * (1.0 + _CERT_SLACK) * _stretch_guard(a, start, at_a[1], at_b[1])
        decided = np.zeros(a.size, dtype=bool)
        for sign in (1.0, -1.0):  # every integer PASS, then the mirror case, every one FAIL
            low = np.minimum(sign * d_a - at_a[1], sign * d_b - at_b[1])
            decided |= low * (1.0 - _CERT_SLACK) - sag > bar
        return decided, np.full(a.size, np.inf)  # a crossover keeps no closest margin

    return bracket


def _check_range(lo: int, hi: int, cap: int) -> None:
    primes.check_cap(cap, hi, "scan end")
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")


def _scan_inequality(b: BoundExpr, direction: Direction, lo: int, hi: int,
                     *, use_psi: bool, cap: int) -> _Summary:
    _check_range(lo, hi, cap)
    b.check_domain(lo)
    try:
        turn = b.increase_start()
    except NotImplementedError as exc:
        raise MonotonicityError(
            f"bound {b.name!r} does not expose a monotone/single-minimum shape"
        ) from exc

    f_of = primes.psi_lookup(hi) if use_psi else primes.pi_lookup(hi)

    upper = direction is Direction.UPPER_STRICT
    n0 = math.floor(turn)
    # the slab [n0, n0 + 1) holds the turn, where an upper check's bound is least
    turning = upper and lo <= n0 <= hi
    # pieces from here on may be decided: the bound increases on every slab,
    # and its guard formula no longer falls
    start = max(n0 + 2, math.ceil(b.guard_increase_start()))

    def margins(ns: np.ndarray) -> np.ndarray:
        """Diff, guard (the error bound of the slab bound, plus psi's), hi and lo
        of each integer in ns."""
        xs = np.repeat(ns.astype(np.float64), 2)
        xs[1::2] += 1.0  # the slab ends n and n + 1, or n0 and the turn
        if turning:
            xs[1::2][ns == n0] = turn
        vals, errs = b.values_with_error(xs, np.log(xs))
        diff, guard, hi_, lo_ = rows = np.empty((4, ns.size))
        np.maximum(errs[0::2], errs[1::2], out=guard)
        f_vals, slab = (lo_, hi_) if upper else (hi_, lo_)
        f_vals[:] = f_of(ns)
        (np.minimum if upper else np.maximum)(vals[0::2], vals[1::2], out=slab)
        np.subtract(hi_, lo_, out=diff)
        if use_psi:
            guard += PSI_ERR_FACTOR * f_vals
        return rows

    return _scan(margins, _monotone(start), lo, hi)


def _to_verdict(out: _Summary) -> Verdict:
    status = Status.FAIL if out.fail_count else Status.AMBIGUOUS if out.ambiguous else Status.PASS
    return Verdict(status, out.witness, out.margin, out.points, out.ambiguous, out.guard)


def _to_crossover(out: _Summary, lo: int) -> CrossoverResult:
    threshold = lo if out.last_fail is None else out.last_fail + 1
    return CrossoverResult(threshold, out.last_fail, out.state_changes, out.ambiguous, *out.flank)


def verify_pi(b: BoundExpr, direction: Direction, lo: int, hi: int,
              *, cap: int = DEFAULT_CAP) -> Verdict:
    """Check the pi inequality over real x in [lo, hi+1) by integer reduction."""
    return _to_verdict(_scan_inequality(b, direction, lo, hi, use_psi=False, cap=cap))


def verify_psi(b: BoundExpr, direction: Direction, lo: int, hi: int,
               *, cap: int = DEFAULT_CAP) -> Verdict:
    """Check the psi inequality over real x in [lo, hi+1); guards include psi's
    accumulated summation error."""
    return _to_verdict(_scan_inequality(b, direction, lo, hi, use_psi=True, cap=cap))


def last_violation(b: BoundExpr, direction: Direction, lo: int, hi: int,
                   *, cap: int = DEFAULT_CAP) -> CrossoverResult:
    """Largest violating integer in range and the threshold right after it."""
    return _to_crossover(_scan_inequality(b, direction, lo, hi, use_psi=False, cap=cap), lo)


def count_violations(b: BoundExpr, direction: Direction, lo: int, hi: int,
                     *, cap: int = DEFAULT_CAP) -> int:
    """Number of definitely violating integers in range."""
    return _scan_inequality(b, direction, lo, hi, use_psi=False, cap=cap).fail_count


def analytic_crossover(f: BoundExpr, g: BoundExpr, lo: int, hi: int,
                       *, cap: int = DEFAULT_CAP) -> CrossoverResult:
    """Smallest n in [lo, hi] with f(n) <= g(n) for every scanned point onward.

    Pure expression comparison; no prime data involved.  Every integer is
    decided, most of them a piece at a time (see Brackets), and sign
    alternations are recorded as evidence of a single crossing.  An exact
    floating-point tie counts as satisfied (the relation is non-strict), which
    also covers comparing an expression against itself.
    """
    _check_range(lo, hi, cap)
    f.check_domain(lo)
    g.check_domain(lo)

    def margins(ns: np.ndarray) -> np.ndarray:
        xs = ns.astype(np.float64)
        logs = np.log(xs)
        fv, fe = f.values_with_error(xs, logs)
        gv, ge = g.values_with_error(xs, logs)
        diff = gv - fv
        diff[diff == 0.0] = np.inf  # an exact tie satisfies the relation
        return np.stack((diff, fe + ge))

    out = _scan(margins, _chord(f, g), lo, hi)
    if out.last_fail is not None and out.last_fail >= hi:
        raise CrossoverNotFoundError(
            f"no n in [{lo}, {hi}] from which {f.name!r} <= {g.name!r} holds onward"
        )
    return _to_crossover(out, lo)


def verify_sandwich(lo: int, hi: int, *, cap: int = DEFAULT_CAP) -> Verdict:
    """Check psi(n) <= pi(n)*log(n) <= 2*psi(n) at every integer in [lo, hi].

    Comparisons are non-strict.  At n=2 both sides of the lower comparison are
    the same quantity (log 2), an exact tie by construction; that provable tie
    is admitted as a pass and excluded from margin bookkeeping, so min_margin
    reports the tightest genuinely decided point.
    """
    _check_range(lo, hi, cap)
    pi_of = primes.pi_lookup(hi)
    psi_of = primes.psi_lookup(hi)

    def margins(ns: np.ndarray) -> np.ndarray:
        """Diff, guard (the error bound of both hi and lo), hi rows, lo rows."""
        pi_log = pi_of(ns) * np.log(ns.astype(np.float64))
        psi_vals = psi_of(ns)
        diff = np.minimum(pi_log - psi_vals, 2.0 * psi_vals - pi_log)
        guard = 2.0 * (_EPS * np.abs(pi_log) + PSI_ERR_FACTOR * np.abs(psi_vals))
        diff[(diff == 0.0) & (ns == 2)] = np.inf  # the provable tie at n=2
        return np.stack((diff, guard, pi_log, 2.0 * psi_vals, psi_vals, pi_log))

    return _to_verdict(_scan(margins, _monotone(2), lo, hi))


def exp_threshold(m: float, C: float) -> float:
    """exp(m*C/(C-1)): the real solution of x/(log x - m) <= C*x/log x."""
    if not C > 1.0:
        raise DomainError(f"exp_threshold requires C > 1, got C={C}")
    return math.exp(m * C / (C - 1.0))
