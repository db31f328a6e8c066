"""Verification engine for inequalities between step functions and bounds.

pi and psi are right-continuous step functions, constant on [n, n+1) and
jumping only at integers, so checking an inequality against a continuous
bound for *all real x* in a range reduces to integer comparisons against the
bound's extreme over each unit slab.  Every supported bound shape is either
increasing or falls-then-rises through a single turning point, so the slab
extreme sits at a slab endpoint or at that one turning point: upper checks
(f < B) compare f(n) against the slab infimum of B, the lesser of B(n) and
B(n+1), or of B(n) and B(turn) on the slab that holds the turn; lower checks
(B < f) against the slab supremum, the greater of B(n) and B(n+1).  From
max(floor(turn) + 2, guard_increase_start) on, the bound increases on every
slab, so the infimum is B(n) and the supremum B(n+1): each integer there is
evaluated at that one end (Rosser and Schoenfeld's check at the primes,
applied one integer at a time), and only those below it at both.  Each
comparison has one guard, which bounds the combined evaluation error of its
two sides (the error bounds of the bound's points + psi summation error; pi
is exact): a difference within it is reported AMBIGUOUS rather than silently
decided either way.

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
  minus four guards.  This holds where the bound increases and its guard
  formula no longer falls, so a piece below floor(turn) + 2 or
  guard_increase_start is split.  A piece FAIL throughout has failing ends,
  so FAIL is tried only once the scan has compared a negative margin.
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
makes one bracket call for the whole frontier, compares the integers of all
its whole pieces in margins calls of at most SCAN_SEGMENT integers each, and
splits every other piece, the cuts joining the last call, at most
SPLIT_BUDGET or one per piece.  A level reads the pieces it compares whole
from their ends alone and gathers the end columns only of the pieces it
splits; the scan ends at the first level that splits none.  The range is
classified once from the integers compared, with their diffs and guards, in
the order the levels compared them.  Between two neighbouring compared
integers lies the inside of one decided piece, so the integers there fail
when both neighbours fail and pass otherwise: counts add the gaps between
failing neighbours, and the last failure, sign changes and ambiguous points
are those of the compared integers.  Only those need the integers in order,
so they are sorted only when something fails; otherwise the witness is the
least integer of least diff.  So no verdict depends on how the range is
split.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import primes
from .bounds import BoundExpr, evaluate
from .errors import CrossoverNotFoundError, DomainError
from .primes import DEFAULT_CAP, PSI_ERR_FACTOR

SCAN_SEGMENT = 1 << 20  # integers compared whole per margins call, at most
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
    min_margin and guard_at_witness are the smaller |diff| and the larger
    guard of the last failure and the integer after it, or of lo.
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

    Entry i stands for the integer ns[i]; ns holds the range's integers in the
    order they were compared, its first entry the range's first integer, and
    the integers between two neighbours in ascending order classify as both
    do when both fail, else pass (see Segments).  Only a range with a failure
    needs that order, so only it is sorted.  The witness is the last failure
    if any, else the least integer of least diff; a crossover's flank is read
    at the last failure and the integer after it, or at lo.
    """
    fail = diff < -guard
    fail_count = int(np.count_nonzero(fail))
    if fail_count:
        order = np.argsort(ns, kind="stable")  # a merge sort, fast on the ascending runs of ns
        diff, guard, ns, fail = diff.take(order), guard.take(order), ns.take(order), fail.take(order)
    passing = diff > guard
    amb_count = diff.size - fail_count - int(np.count_nonzero(passing))

    ambiguous: list[int] = []
    definite = fail  # True marks a failing point, False a passing one
    if amb_count:
        amb = ~(fail | passing)
        ambiguous = np.sort(ns[amb]).tolist()
        definite = fail[~amb]
    changes = 0
    flank = slice(0, 1)  # the last failure and the next integer, or lo
    if fail_count:
        i = int(fail.nonzero()[0][-1])
        flank = slice(i, i + 2)
        changes = int(np.count_nonzero(definite[1:] != definite[:-1]))
        fail_count += int((np.diff(ns) - 1)[fail[1:] & fail[:-1]].sum())
    else:
        i = int(np.argmin(diff))
        ties = (diff == diff[i]).nonzero()[0]
        if ties.size > 1:  # the least integer among them
            i = int(ties[ns.take(ties).argmin()])

    return _Summary(
        points=int(ns.max() - ns[0]) + 1,
        fail_count=fail_count,
        witness=int(ns[i]),
        margin=float(diff[i]),
        guard=float(guard[i]),
        flank=(float(np.abs(diff[flank]).min()), float(guard[flank].max())),
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
    scan has compared (see Brackets and Closest margin).  Each level of the
    one frontier compares its whole pieces' integers, SCAN_SEGMENT a margins
    call at most, and splits every other undecided piece in the same number
    of equal parts, gathering the end columns only of those; the scan ends
    at the first level that splits none (see Segments).
    """
    new = np.append(np.arange(lo, hi, STRETCH, dtype=np.int64), hi)
    rows = margins(new)
    a, b, at_a, at_b = new[:-1], new[1:], rows[:, :-1], rows[:, 1:]
    ns, cols, best = [new], [rows[:2]], rows[0].min()  # best: smallest margin compared
    while a.size:
        decided, low = bracket(a, b, at_a, at_b, best)
        keep = (~(decided & (low > best))).nonzero()[0]
        a, b = a.take(keep), b.take(keep)
        width = b - a
        # narrow pieces, or all of them once they hold few integers, are compared whole
        whole = (width <= BASE_CASE) | (width.sum() <= STRETCH)
        new = a[:0]
        if whole.any():
            compared = whole.nonzero()[0]
            counts = width.take(compared) - 1  # the integers inside each whole piece
            ends = np.cumsum(counts)
            new = np.repeat(a.take(compared) + 1 - ends + counts, counts)
            new += np.arange(new.size)
            left = (~whole).nonzero()[0]  # the pieces to split
            keep, a, b = keep.take(left), a.take(left), b.take(left)
        breaks = range(SCAN_SEGMENT, new.size, SCAN_SEGMENT)  # SCAN_SEGMENT whole integers a call
        if a.size:
            at_a, at_b = at_a.take(keep, 1), at_b.take(keep, 1)
            # each piece left gets parts - 1 cuts: all first cuts, then all second, ...
            parts = max(2, min(BASE_CASE, SPLIT_BUDGET // a.size))
            cut = (a + (b - a) * np.arange(1, parts)[:, None] // parts).ravel()
            new = np.concatenate((new, cut)) if new.size else cut
        if new.size:
            ns.append(new)
            for part in np.split(new, breaks) if breaks else (new,):  # the cuts join the last call
                rows = margins(part)
                cols.append(rows[:2])
                best = min(best, rows[0].min())
        if a.size:
            # a split piece now ends at its first cut; new pieces run cut to cut, then to its end
            at_cut = rows[:, -cut.size :]
            a, b = np.concatenate((a, cut)), np.concatenate((cut, b))
            at_a, at_b = np.concatenate((at_a, at_cut), 1), np.concatenate((at_cut, at_b), 1)
    diff, guard = cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1)
    return _classify(diff, guard, ns[0] if len(ns) == 1 else np.concatenate(ns))


def _stretch_guard(a, start: float, at_a, at_b) -> np.ndarray:
    """A bound on a quantity inside each piece from its values at the ends: the
    larger where the piece starts at or past start (the quantity never falls
    from there), else inf."""
    guard = np.maximum(at_a, at_b)
    if a.min() < start:
        guard[a < start] = np.inf
    return guard


def _monotone(start: float):
    """The bracket of margins hi - lo, hi and lo nondecreasing from start (see
    Brackets).  Below the diff and the guard, which also bounds the error of
    the float hi and lo together, the margin rows are k rows of hi and k of lo."""
    def least(hi, lo):
        """The least of the k rows hi - lo; one row, for every pi or psi check."""
        return hi[0] - lo[0] if hi.shape[0] == 1 else (hi - lo).min(axis=0)

    def bracket(a, b, at_a, at_b, best):
        k = (at_a.shape[0] - 2) // 2
        # the far end's guard bounds the guard inside and the errors of hi and
        # lo at the ends and of hi - lo inside: four guards in all
        guard = (1.0 + _CERT_SLACK) * _stretch_guard(a, start, at_a[1], at_b[1])
        d = least(at_a[2 : 2 + k], at_b[2 + k :])
        low = d - _CERT_SLACK * np.abs(d) - 3.0 * guard
        decided = low > guard
        if best < 0.0:  # a piece FAIL throughout has failing ends, compared already
            d = least(at_b[2 : 2 + k], at_a[2 + k :])
            failing = d + _CERT_SLACK * np.abs(d) + 3.0 * guard < -guard
            decided |= failing
            low[failing] = np.inf
        return decided, low

    return bracket


def _chord(f: BoundExpr, g: BoundExpr):
    """The bracket of the crossover g - f (see Brackets)."""
    start = max(f.guard_increase_start(), g.guard_increase_start())

    def bracket(a, b, at_a, at_b, best):
        xs = a.astype(np.float64)
        logs = np.log(xs)
        # on [a, b], d sags at most M h^2 / 8 below its chord, M bounding |f''| + |g''|
        sag = (f.curvature(xs, logs) + g.curvature(xs, logs)) * ((b - a) ** 2 / 8.0)
        sag *= 1.0 + _CERT_SLACK
        bar = 2.0 * (1.0 + _CERT_SLACK) * _stretch_guard(a, start, at_a[1], at_b[1])
        low = np.fmax(np.minimum(at_a[0] - at_a[1], at_b[0] - at_b[1]),  # every integer PASS,
                      np.minimum(-at_a[0] - at_a[1], -at_b[0] - at_b[1]))  # or every one FAIL
        # x (1 - slack) - sag never falls as x rises, in floats too: the larger low decides
        return low * (1.0 - _CERT_SLACK) - sag > bar, np.full(a.size, np.inf)  # no closest margin

    return bracket


def _check_range(lo: int, hi: int, cap: int) -> None:
    try:
        lo, hi = operator.index(lo), operator.index(hi)
    except TypeError:
        raise ValueError(f"lo and hi must be integers, got [{lo!r}, {hi!r}]") from None
    primes.check_cap(cap, hi, "scan end")
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")


def _one_end_start(b: BoundExpr) -> int:
    """The integer from which b increases on every slab and its guard formula
    no longer falls: from there a slab is compared at one end, and pieces may
    be decided."""
    return max(math.floor(b.increase_start()) + 2, math.ceil(b.guard_increase_start()))


def _scan_inequality(b: BoundExpr, direction: Direction | str, lo: int, hi: int,
                     *, use_psi: bool, cap: int) -> _Summary:
    direction = Direction(direction)  # a member or its value; anything else is refused
    _check_range(lo, hi, cap)
    b.check_domain(lo)
    turn = b.increase_start()

    f_of = primes.psi_lookup(hi) if use_psi else primes.pi_lookup(hi)

    upper = direction is Direction.UPPER_STRICT
    n0 = math.floor(turn)
    # the slab [n0, n0 + 1) holds the turn, where an upper check's bound is least
    turning = upper and lo <= n0 <= hi
    start = _one_end_start(b)
    end = 0.0 if upper else 1.0  # the slab end evaluated from start on

    def margins(ns: np.ndarray) -> np.ndarray:
        """Diff, guard (the error bound of the slab bound, plus psi's), hi and lo
        of each integer in ns.  From start on the slab bound is B(n) for an upper
        check and B(n + 1) for a lower one; before it, the lesser or greater of
        B(n) and B(n + 1), or of B(n0) and B(turn), whose second points follow
        the first in the one kernel call."""
        m = ns.size
        xs = ns + end  # B(n) or B(n + 1)
        below = (ns < start).nonzero()[0] if lo < start and ns.min() < start else ns[:0]
        if below.size:  # and B(n + 1) or B(n), or B(turn)
            near = ns.take(below)
            far = near + (1.0 - end)
            if turning:
                far[near == n0] = turn
            xs = np.concatenate((xs, far))
        vals, errs = b.values_with_error(xs, np.log(xs))
        diff, guard, hi_, lo_ = rows = np.empty((4, m))
        f_vals, slab = (lo_, hi_) if upper else (hi_, lo_)
        slab[:], guard[:] = vals[:m], errs[:m]
        if below.size:
            slab[below] = (np.minimum if upper else np.maximum)(slab.take(below), vals[m:])
            guard[below] = np.maximum(guard.take(below), errs[m:])
        f_vals[:] = f_of(ns)
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


def verify_pi(b: BoundExpr, direction: Direction | str, lo: int, hi: int,
              *, cap: int = DEFAULT_CAP) -> Verdict:
    """Check the pi inequality over real x in [lo, hi+1) by integer reduction."""
    return _to_verdict(_scan_inequality(b, direction, lo, hi, use_psi=False, cap=cap))


def verify_psi(b: BoundExpr, direction: Direction | str, lo: int, hi: int,
               *, cap: int = DEFAULT_CAP) -> Verdict:
    """Check the psi inequality over real x in [lo, hi+1); guards include psi's
    accumulated summation error."""
    return _to_verdict(_scan_inequality(b, direction, lo, hi, use_psi=True, cap=cap))


def last_violation(b: BoundExpr, direction: Direction | str, lo: int, hi: int,
                   *, cap: int = DEFAULT_CAP) -> CrossoverResult:
    """Largest violating integer in range and the threshold right after it."""
    return _to_crossover(_scan_inequality(b, direction, lo, hi, use_psi=False, cap=cap), lo)


def count_violations(b: BoundExpr, direction: Direction | str, lo: int, hi: int,
                     *, cap: int = DEFAULT_CAP) -> int:
    """Number of definitely violating integers in range."""
    return _scan_inequality(b, direction, lo, hi, use_psi=False, cap=cap).fail_count


def analytic_crossover(f: BoundExpr, g: BoundExpr, lo: int, hi: int,
                       *, cap: int = DEFAULT_CAP) -> CrossoverResult:
    """Smallest n in [lo, hi] with f(n) <= g(n) for every scanned point onward.

    Pure expression comparison; no prime data involved.  Every integer is
    decided, most of them a piece at a time (see Brackets), and sign
    alternations are recorded as evidence of a single crossing.  The one
    provable tie, an expression compared with itself (the same shape and
    parameters, whatever its name and valid_from), holds from lo with a
    margin of 0; any other float tie falls inside its guard, AMBIGUOUS.
    """
    _check_range(lo, hi, cap)
    f.check_domain(lo)
    g.check_domain(lo)
    if replace(f, name=g.name, valid_from=g.valid_from) == g:
        return CrossoverResult(lo, None, 0, [], 0.0, 2.0 * evaluate(f, lo).abs_error_bound)

    def margins(ns: np.ndarray) -> np.ndarray:
        xs = ns.astype(np.float64)
        logs = np.log(xs)
        fv, fe = f.values_with_error(xs, logs)
        gv, ge = g.values_with_error(xs, logs)
        return np.stack((gv - fv, fe + ge))

    out = _scan(margins, _chord(f, g), lo, hi)
    if out.last_fail is not None and out.last_fail >= hi:
        raise CrossoverNotFoundError(
            f"no n in [{lo}, {hi}] from which {f.name!r} <= {g.name!r} holds onward"
        )
    return _to_crossover(out, lo)


def verify_sandwich(lo: int, hi: int, *, cap: int = DEFAULT_CAP) -> Verdict:
    """Check psi(n) <= pi(n)*log(n) <= 2*psi(n) at every integer in [lo, hi].

    Comparisons are non-strict.  At n=2 both sides of the lower comparison are
    the same quantity (psi(2) = pi(2) log 2), an identity, so there the upper
    comparison alone decides, and its margin is log 2.
    """
    _check_range(lo, hi, cap)
    pi_of = primes.pi_lookup(hi)
    psi_of = primes.psi_lookup(hi)

    def margins(ns: np.ndarray) -> np.ndarray:
        """Diff, guard (the error bound of both hi and lo), hi rows, lo rows."""
        pi_log = pi_of(ns) * np.log(ns.astype(np.float64))
        psi_vals = psi_of(ns)
        diff = 2.0 * psi_vals - pi_log
        np.minimum(pi_log - psi_vals, diff, out=diff, where=ns != 2)  # the identity at n=2
        guard = 2.0 * (_EPS * np.abs(pi_log) + PSI_ERR_FACTOR * np.abs(psi_vals))
        return np.stack((diff, guard, pi_log, 2.0 * psi_vals, psi_vals, pi_log))

    return _to_verdict(_scan(margins, _monotone(2), lo, hi))


def exp_threshold(m: float, C: float) -> float:
    """exp(m*C/(C-1)): the real solution of x/(log x - m) <= C*x/log x."""
    if not (math.isfinite(m) and math.isfinite(C)):
        raise DomainError(f"exp_threshold requires a finite m and C, got m={m}, C={C}")
    if not C > 1.0:
        raise DomainError(f"exp_threshold requires C > 1, got C={C}")
    try:
        t = math.exp(m * C / (C - 1.0))
    except OverflowError:
        t = math.inf
    if t == math.inf:  # the exponent itself may overflow to inf, and exp(inf) raises nothing
        raise DomainError(f"exp_threshold(m={m}, C={C}) overflows the float range")
    return t
