"""Scans that decide pieces from their ends agree with a brute-force
per-integer scan, and they evaluate the bounds only where they say they do.

The references below evaluate every slab (or, for a crossover or the
sandwich, every integer) of the range, exactly as a scan without the
pieces does, and classify each integer on its own.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pibounds import claims, primes, scan
from pibounds.bounds import BoundExpr, PsiAffine, builtin_bounds, evaluate
from pibounds.errors import CrossoverNotFoundError
from pibounds.primes import PSI_ERR_FACTOR
from pibounds.scan import (
    CrossoverResult,
    Direction,
    Status,
    Verdict,
    analytic_crossover,
    count_violations,
    last_violation,
    verify_pi,
    verify_psi,
    verify_sandwich,
)

TOP = 200_000
REGISTRY = builtin_bounds()


def one_end_start(b):
    """The integer from which the bound increases on every slab and its guard
    formula no longer falls: from there a slab is compared at one end."""
    return max(math.floor(b.increase_start()) + 2, math.ceil(b.guard_increase_start()))


def per_integer(b, direction, lo, hi, *, use_psi):
    """Verdict, violation count and last-violation result, one integer at a time."""
    f = (primes.psi_array(hi) if use_psi else primes.cumulative_pi(hi))[lo : hi + 1]
    xs = np.arange(lo, hi + 2, dtype=np.float64)
    vals, errs = b.values_with_error(xs, np.log(xs))
    err = np.maximum(errs[:-1], errs[1:])
    upper = direction is Direction.UPPER_STRICT
    if upper:
        slab = np.minimum(vals[:-1], vals[1:])
        turn = b.increase_start()
        n0 = math.floor(turn)
        if lo <= n0 <= hi and turn > b.domain_start():  # [n0, n0 + 1) is least at the turn
            at_turn = evaluate(b, turn)
            slab[n0 - lo] = min(vals[n0 - lo], at_turn.value)
            err[n0 - lo] = max(errs[n0 - lo], at_turn.abs_error_bound)
    else:
        slab = np.maximum(vals[:-1], vals[1:])
    # from one_end_start on, a slab's infimum is B(n) and its supremum B(n + 1)
    past = slice(max(0, one_end_start(b) - lo), None)
    end = slice(None, -1) if upper else slice(1, None)
    slab[past], err[past] = vals[end][past], errs[end][past]
    diff = slab - f if upper else f - slab
    guard = err + PSI_ERR_FACTOR * f if use_psi else err

    fails, ambiguous, states = [], [], []
    closest = None
    for i, (d, g) in enumerate(zip(diff.tolist(), guard.tolist())):
        n = lo + i
        if d < -g:
            fails.append((n, d, g))
            states.append(-1)
        elif d > g:
            states.append(1)
        else:
            ambiguous.append(n)
        if closest is None or d < closest[1]:
            closest = (n, d, g)
    points = hi - lo + 1
    if fails:
        n, d, g = fails[-1]
        verdict = Verdict(Status.FAIL, n, d, points, ambiguous, g)
    else:
        n, d, g = closest
        status = Status.AMBIGUOUS if ambiguous else Status.PASS
        verdict = Verdict(status, n, d, points, ambiguous, g)
    changes = sum(1 for before, after in zip(states, states[1:]) if before != after)
    threshold = fails[-1][0] + 1 if fails else lo
    last = CrossoverResult(threshold, fails[-1][0] if fails else None, changes, ambiguous,
                           *flank([n for n, _, _ in fails], lo, hi, diff, guard))
    return verdict, len(fails), last


def flank(fails, lo, hi, diff, guard):
    """min |diff| and max guard over the last failure and the integer after
    it, or over lo alone when nothing fails; diff[i] and guard[i] belong to
    the integer lo + i."""
    at = [i - lo for i in (fails[-1], fails[-1] + 1) if i <= hi] if fails else [0]
    return min(abs(float(diff[i])) for i in at), max(float(guard[i]) for i in at)


@st.composite
def scans(draw):
    name = draw(st.sampled_from(sorted(REGISTRY)))
    b = REGISTRY[name]
    lo = draw(st.integers(2, TOP))
    assume(lo > b.domain_start())
    hi = draw(st.integers(lo, min(TOP, lo + draw(st.sampled_from([0, 10, 1000, TOP])))))
    direction = draw(st.sampled_from(list(Direction)))
    return b, direction, lo, hi, *draw(cuts(hi - lo + 1))


@st.composite
def cuts(draw, size):
    """Segment cap, starting piece and base case widths, and split budget."""
    # a cap of at least 1/500 of the range keeps the levels, and the run time, bounded
    segment = max(-(-size // 500), draw(st.sampled_from([1, 2, 3, 7, 64, 1000, 1 << 20])))
    stretch = draw(st.sampled_from([1, 2, 5, 97, 1 << 10]))
    base = draw(st.sampled_from([1, 2, 5, 32, 97]))
    # from halves throughout to every piece in base parts
    budget = draw(st.sampled_from([0, 7, 100, 1 << 11, 1 << 20]))
    return segment, stretch, base, budget


def cut(mp, segment, stretch, base, budget):
    mp.setattr(scan, "SCAN_SEGMENT", segment)
    mp.setattr(scan, "STRETCH", stretch)
    mp.setattr(scan, "BASE_CASE", base)
    mp.setattr(scan, "SPLIT_BUDGET", budget)


@settings(max_examples=60, deadline=None)
@given(scans())
def test_pi_scans_match_per_integer_reference(case):
    b, direction, lo, hi, *sizes = case
    verdict, count, last = per_integer(b, direction, lo, hi, use_psi=False)
    with pytest.MonkeyPatch.context() as mp:
        cut(mp, *sizes)
        assert verify_pi(b, direction, lo, hi) == verdict
        assert count_violations(b, direction, lo, hi) == count
        assert last_violation(b, direction, lo, hi) == last


@settings(max_examples=40, deadline=None)
@given(scans())
def test_psi_scans_match_per_integer_reference(case):
    b, direction, lo, hi, *sizes = case
    verdict, _, _ = per_integer(b, direction, lo, hi, use_psi=True)
    with pytest.MonkeyPatch.context() as mp:
        cut(mp, *sizes)
        assert verify_psi(b, direction, lo, hi) == verdict


def sandwich_per_integer(lo, hi):
    """verify_sandwich's verdict, one integer at a time."""
    ns = np.arange(lo, hi + 1)
    pi_log = primes.cumulative_pi(hi)[lo : hi + 1] * np.log(ns.astype(np.float64))
    psi = primes.psi_array(hi)[lo : hi + 1]
    # psi(2) = pi(2) log 2 is an identity: there the upper comparison alone decides
    diff = np.where(ns == 2, 2.0 * psi - pi_log, np.minimum(pi_log - psi, 2.0 * psi - pi_log))
    guard = np.finfo(np.float64).eps * (2.0 * np.abs(pi_log) + 8.0 * np.abs(psi))
    fails, ambiguous = [], []
    closest = None
    for n, d, g in zip(ns.tolist(), diff.tolist(), guard.tolist()):
        if d < -g:
            fails.append((n, d, g))
        elif not d > g:
            ambiguous.append(n)
        if closest is None or d < closest[1]:
            closest = (n, d, g)
    points = hi - lo + 1
    if fails:
        return Verdict(Status.FAIL, *fails[-1][:2], points, ambiguous, fails[-1][2])
    n, d, g = closest
    status = Status.AMBIGUOUS if ambiguous else Status.PASS
    return Verdict(status, n, d, points, ambiguous, g)


@st.composite
def sandwiches(draw):
    lo = draw(st.integers(2, TOP))
    hi = draw(st.integers(lo, min(TOP, lo + draw(st.sampled_from([0, 10, 1000, TOP])))))
    return lo, hi, *draw(cuts(hi - lo + 1))


@settings(max_examples=40, deadline=None)
@given(sandwiches())
def test_sandwich_matches_per_integer_reference(case):
    lo, hi, *sizes = case
    expected = sandwich_per_integer(lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        cut(mp, *sizes)
        assert verify_sandwich(lo, hi) == expected


@pytest.mark.parametrize("name, direction, lo, hi", [
    ("pan_upper", Direction.UPPER_STRICT, 4, 30_000),      # 19 violators past the turn
    ("cheb_upper", Direction.UPPER_STRICT, 30, 100_000),   # fails on most runs
    ("unit_lower", Direction.LOWER_STRICT, 2, 1_000),      # fails below 17
    ("psi_lower", Direction.LOWER_STRICT, 2, 50_000),
    ("d125506", Direction.LOWER_STRICT, 17, 200_000),     # fails throughout
])
def test_known_failing_ranges_match_per_integer_reference(name, direction, lo, hi):
    b = REGISTRY[name]
    verdict, count, last = per_integer(b, direction, lo, hi, use_psi=False)
    assert verify_pi(b, direction, lo, hi) == verdict
    assert count_violations(b, direction, lo, hi) == count
    assert last_violation(b, direction, lo, hi) == last


def crossover_per_integer(f, g, lo, hi):
    """analytic_crossover's result one integer at a time; None when no n in
    [lo, hi] starts a run of f <= g to the end."""
    xs = np.arange(lo, hi + 1, dtype=np.float64)
    logs = np.log(xs)
    fv, fe = f.values_with_error(xs, logs)
    gv, ge = g.values_with_error(xs, logs)
    # the one provable tie: an expression compared with itself, whatever its name and start
    same = dataclasses.replace(f, name=g.name, valid_from=g.valid_from) == g
    fails, ambiguous, states = [], [], []
    for n, d, guard in zip(range(lo, hi + 1), (gv - fv).tolist(), (fe + ge).tolist()):
        if same or d > guard:
            states.append(1)
        elif d < -guard:
            fails.append(n)
            states.append(-1)
        else:
            ambiguous.append(n)
    changes = sum(1 for before, after in zip(states, states[1:]) if before != after)
    margins = flank(fails, lo, hi, gv - fv, fe + ge)
    if not fails:
        return CrossoverResult(lo, None, changes, ambiguous, *margins)
    if fails[-1] >= hi:
        return None
    return CrossoverResult(fails[-1] + 1, fails[-1], changes, ambiguous, *margins)


def crossover_or_none(f, g, lo, hi):
    try:
        return analytic_crossover(f, g, lo, hi)
    except CrossoverNotFoundError:
        return None


@st.composite
def crossovers(draw):
    names = sorted(REGISTRY)
    f = REGISTRY[draw(st.sampled_from(names))]
    g = REGISTRY[draw(st.sampled_from(names))]
    lo = draw(st.integers(30, TOP))
    assume(lo > max(f.domain_start(), g.domain_start()))
    hi = draw(st.integers(lo, min(TOP, lo + draw(st.sampled_from([0, 10, 1000, TOP])))))
    return f, g, lo, hi, *draw(cuts(hi - lo + 1))


@settings(max_examples=60, deadline=None)
@given(crossovers())
def test_crossovers_match_per_integer_reference(case):
    f, g, lo, hi, *sizes = case
    expected = crossover_per_integer(f, g, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        cut(mp, *sizes)
        assert crossover_or_none(f, g, lo, hi) == expected


# d = g - f = 0.001 x - log x + c is convex with its minimum -1e-6 at x = 1000,
# so f <= g fails at 999, 1000 and 1001 only: a dip that both ends of any
# stretch around it miss, and that only the chord term keeps undecided
FLAT = PsiAffine("flat", 2.0, 1.0, 0.0, 0.0, 0.0)
DIP = PsiAffine("dip", 2.0, 1.001, 0.0, -1.0, math.log(1000.0) - 1.0 - 1e-6)


@pytest.mark.parametrize("stretch", [97, 1 << 10])
@pytest.mark.parametrize("lo", [30, 500, 950, 990])
def test_a_dip_between_stretch_ends_is_found(lo, stretch):
    expected = crossover_per_integer(FLAT, DIP, lo, 5000)
    assert dataclasses.astuple(expected)[:4] == (1002, 1001, 2, [])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "STRETCH", stretch)
        assert analytic_crossover(FLAT, DIP, lo, 5000) == expected


def test_the_integer_after_the_last_failure_is_compared(monkeypatch):
    # a crossover's margin and guard are read at the last failure and the
    # compared integer after it, which is last_fail + 1 (or none at the range's
    # end): a decided piece has ends of one class, so none starts at a failure
    # and ends at a pass
    flips = []
    classify = scan._classify

    def recording(diff, guard, ns):
        out = classify(diff, guard, ns)
        if out.last_fail is not None:
            ns = np.sort(ns)  # the integers come in the order they were compared
            i = int(np.searchsorted(ns, out.last_fail))
            flips.append((out.last_fail, ns[i + 1 : i + 2].tolist(), int(ns[-1])))
        return out

    monkeypatch.setattr(scan, "_classify", recording)
    claims.run_all()
    for name, direction, lo, hi in [("pan_upper", Direction.UPPER_STRICT, 4, 10**6),
                                    ("cheb_upper", Direction.UPPER_STRICT, 30, 200_000),
                                    ("d125506", Direction.LOWER_STRICT, 17, 10**6)]:
        last_violation(REGISTRY[name], direction, lo, hi)
    analytic_crossover(FLAT, DIP, 30, 5000)
    assert len(flips) >= 8
    assert all(after == ([] if n == hi else [n + 1]) for n, after, hi in flips)


@pytest.fixture
def kernel_calls(monkeypatch):
    """watch(b) records the xs array of every kernel call of b's shape."""
    calls = []

    def watch(b):
        shape = type(b)
        original = shape.values_with_error

        def recorded(self, xs, logs):
            calls.append(xs.copy())
            return original(self, xs, logs)

        monkeypatch.setattr(shape, "values_with_error", recorded)
        return calls

    return watch


def test_a_clean_range_takes_few_kernel_points(kernel_calls):
    # unit_lower holds on all of [17, 10**5]: most pieces are decided from
    # their ends, where one comparison per run of constant pi would take a
    # kernel point for each of 9,586 runs
    b = REGISTRY["unit_lower"]
    calls = kernel_calls(b)
    assert verify_pi(b, Direction.LOWER_STRICT, 17, 10**5).status is Status.PASS
    assert sum(xs.size for xs in calls) <= 1000


def test_each_violation_is_compared_on_its_own(monkeypatch):
    # pan_upper fails at 19 integers of [24121, 24254], with passes between
    # them, so no piece around a violation is decided and each is compared
    # as an integer of its own
    b = REGISTRY["pan_upper"]
    calls = []
    scan_ = scan._scan

    def recorded(margins, *args):
        def recording(ns):  # the integers compared, not the kernel's second slab ends
            calls.append(ns.copy())
            return margins(ns)

        return scan_(recording, *args)

    monkeypatch.setattr(scan, "_scan", recorded)
    assert count_violations(b, Direction.UPPER_STRICT, 4, 10**5) == 19
    compared = np.concatenate(calls)
    fails = [n for n in range(24121, 24255)
             if verify_pi(b, Direction.UPPER_STRICT, n, n).status is Status.FAIL]
    assert len(fails) == 19
    assert np.isin(fails, compared).all()


FAILING = REGISTRY["d125506"], Direction.LOWER_STRICT, 17, 5 * 10**6  # fails throughout


def test_a_range_failing_throughout_takes_few_kernel_points(kernel_calls):
    # every integer fails, so pieces are decided FAIL from their ends, as a
    # clean range is decided PASS: comparing all of them would take 5 * 10**6 points
    b = FAILING[0]
    calls = kernel_calls(b)
    assert count_violations(*FAILING) == 4_999_984
    assert sum(xs.size for xs in calls) <= 10_000


def test_a_range_failing_throughout_stays_small_in_memory(traced_peak):
    primes.pi_lookup(FAILING[3])  # the rank directory is built before tracing
    count, peak = traced_peak(lambda: count_violations(*FAILING))
    assert count == 4_999_984
    assert peak < 8 * 10**6


def test_c14_decides_its_stretches_from_their_ends(kernel_calls):
    # C14's 4.0M integers need the series kernel only at the stretch ends and
    # inside the few stretches around the crossing
    b = REGISTRY["dusart_upper"]
    calls = kernel_calls(b)
    res = analytic_crossover(b, REGISTRY["legendre_a"], 10**6 + 1, 5 * 10**6)
    assert res == CrossoverResult(2846396, 2846395, 1, [], 8.478440577164292e-06,
                                  1.016410873739261e-09)
    assert sum(xs.size for xs in calls) <= 2 * 10**4


def test_c6b_splits_one_frontier_over_its_segments(kernel_calls):
    # C6b's 4.6M integers span five segments; one frontier makes one kernel
    # call a level for all of them, where one per segment made 34
    b = REGISTRY["dusart_upper"]
    calls = kernel_calls(b)
    assert verify_pi(b, Direction.UPPER_STRICT, 355991, 5 * 10**6).status is Status.PASS
    assert len(calls) <= 8


def test_a_warm_verify_takes_few_kernel_calls(kernel_calls):
    claims.run_all()  # tables built, turning points bisected
    shapes = {type(b): b for b in REGISTRY.values()}
    for b in shapes.values():
        calls = kernel_calls(b)
    claims.run_all()
    assert len(calls) <= 61  # halving every piece made 97, one frontier per segment 166
    # one point per compared integer past each bound's turn, where both slab ends took 100,594
    assert sum(xs.size for xs in calls) <= 55_672


def test_a_warm_verify_takes_few_scan_levels(monkeypatch):
    # each level makes one margins call; counting them shows a level added
    # even where the kernel points stay the same
    claims.run_all()
    levels = []
    frontier = scan._scan

    def counted(margins, bracket, lo, hi):
        def level(ns):
            levels.append(ns.size)
            return margins(ns)

        return frontier(level, bracket, lo, hi)

    monkeypatch.setattr(scan, "_scan", counted)
    claims.run_all()
    assert 20 <= len(levels) <= 56  # its 20 scans make one level at least
    assert sum(levels) <= 51_770  # the integers compared


def test_a_short_flat_scan_takes_few_kernel_calls(kernel_calls):
    # unit_lower's margin barely trends on [500000, 510000], so its ten
    # starting pieces stay undecided down to the base case: split in many
    # parts a level, they reach it in two levels, where halves took five
    b = REGISTRY["unit_lower"]
    calls = kernel_calls(b)
    assert verify_pi(b, Direction.LOWER_STRICT, 500_000, 510_000).status is Status.PASS
    assert len(calls) <= 4  # halving every piece made 6


def test_a_level_compares_at_most_a_segment_whole(kernel_calls, monkeypatch):
    # with the starting pieces compared whole, pan_upper's check over
    # [4, 50003] (C8b's) compares almost every integer at its first level,
    # in margins calls of at most SCAN_SEGMENT whole integers each, and no
    # piece waits for a later level
    b, lo, hi = REGISTRY["pan_upper"], 4, 50_003
    expected = verify_pi(b, Direction.UPPER_STRICT, lo, hi)
    monkeypatch.setattr(scan, "BASE_CASE", scan.STRETCH)
    monkeypatch.setattr(scan, "SCAN_SEGMENT", 1000)
    levels = []
    frontier = scan._scan

    def counted(margins, bracket, lo, hi):
        def level(*args):
            levels.append(1)
            return bracket(*args)

        return frontier(margins, level, lo, hi)

    monkeypatch.setattr(scan, "_scan", counted)
    calls = kernel_calls(b)
    assert verify_pi(b, Direction.UPPER_STRICT, lo, hi) == expected
    assert len(levels) <= 2  # one bracket call a level
    pieces = -(-(hi - lo) // scan.STRETCH)  # the starting pieces
    below = one_end_start(b) - lo  # integers compared at both slab ends
    assert sum(xs.size for xs in calls) > 40_000  # most integers compared whole
    assert max(xs.size for xs in calls) <= 1000 + pieces + below


def touching_line(use_psi, direction, lo, hi, shift):
    """A line that meets f (pi or psi) at two integers inside [lo, hi] and
    clears it at every other, moved by shift toward a larger margin.

    For an upper check the margin at n is B(n) - f(n), so the line runs
    through two neighbouring vertices of the upper hull of the points
    (n, f(n)); for a lower check it is f(n) - B(n + 1), and the line runs
    through the lower hull of (n + 1, f(n)).  Returns the line as a bound and
    the two integers where it meets f.
    """
    upper = direction is Direction.UPPER_STRICT
    f = (primes.psi_array(hi) if use_psi else primes.cumulative_pi(hi)).astype(np.float64)
    ns = range(lo, hi + 1)
    points = [(n if upper else n + 1, f[n]) for n in ns]
    hull = []  # the monotone chain over the points, kept on one side
    for x, y in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            turn = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if (turn >= 0) if upper else (turn <= 0):
                hull.pop()
            else:
                break
        hull.append((x, y))
    middle = (lo + hi) / 2
    i = min(range(len(hull) - 1), key=lambda i: abs(hull[i][0] - middle))
    (x1, y1), (x2, y2) = hull[i], hull[i + 1]
    slope = (y2 - y1) / (x2 - x1)
    offset = y1 - slope * x1 + (shift if upper else -shift)
    line = PsiAffine("line", 2.0, slope, 0.0, 0.0, offset)
    touches = [int(x1), int(x2)] if upper else [int(x1) - 1, int(x2) - 1]
    return line, touches


@pytest.mark.parametrize("shift, status", [
    (0.0, Status.AMBIGUOUS),   # the line meets f within its guard
    (-1e-3, Status.FAIL),      # it dips below f
    (1e-6, Status.PASS),       # it clears f by far less than any piece's spread
])
@pytest.mark.parametrize("use_psi, direction", [
    (False, Direction.UPPER_STRICT),
    (False, Direction.LOWER_STRICT),
    (True, Direction.UPPER_STRICT),
    (True, Direction.LOWER_STRICT),
])
def test_a_touch_between_piece_ends_is_found(use_psi, direction, shift, status):
    lo, hi = 100_003, 110_000
    line, touches = touching_line(use_psi, direction, lo, hi, shift)
    assert all((n - lo) % scan.STRETCH and lo < n < hi for n in touches)
    expected, _, _ = per_integer(line, direction, lo, hi, use_psi=use_psi)
    assert expected.status is status
    if status is Status.AMBIGUOUS:
        assert set(touches) <= set(expected.ambiguous_points)
    else:
        assert expected.witness in touches
    check = verify_psi if use_psi else verify_pi
    assert check(line, direction, lo, hi) == expected


@dataclass(frozen=True)
class Drawn(BoundExpr):
    """A bound given by its float values and guards as functions of x, with
    its turning points declared."""

    values: Callable = None
    errors: Callable = None
    turn: float = 1.0
    guard_turn: float = 1.0

    def values_with_error(self, xs, logs):
        return self.values(xs), self.errors(xs)

    def increase_start(self):
        return self.turn

    def guard_increase_start(self):
        return self.guard_turn


def test_no_piece_is_decided_where_the_bound_falls():
    # the bound falls to 100 at 1000, below pi there; the piece [2, 1026]
    # clears from its ends, which only holds where the bound increases
    b = Drawn("v", 1.0, lambda x: np.abs(x - 1000.0) + 100.0,
              lambda x: np.full_like(x, 1e-9), turn=1000.0)
    verdict, count, _ = per_integer(b, Direction.UPPER_STRICT, 2, 3000, use_psi=False)
    assert verdict.status is Status.FAIL
    assert verify_pi(b, Direction.UPPER_STRICT, 2, 3000) == verdict
    assert count_violations(b, Direction.UPPER_STRICT, 2, 3000) == count


def test_no_piece_is_decided_fail_where_the_bound_falls():
    # a lower check against a narrow valley whose floor at 1000 lies below
    # pi: the piece [2, 1026] fails at both ends and passes inside, so a
    # piece is decided FAIL from its ends only where the bound increases
    b = Drawn("valley", 1.0, lambda x: 10.0 * np.abs(x - 1000.0) + 100.0,
              lambda x: np.full_like(x, 1e-9), turn=1000.0)
    verdict, count, last = per_integer(b, Direction.LOWER_STRICT, 2, 3000, use_psi=False)
    assert verdict.status is Status.FAIL and last.sign_changes == 2
    assert verify_pi(b, Direction.LOWER_STRICT, 2, 3000) == verdict
    assert count_violations(b, Direction.LOWER_STRICT, 2, 3000) == count
    assert last_violation(b, Direction.LOWER_STRICT, 2, 3000) == last


def test_no_piece_is_decided_where_the_guard_falls(monkeypatch):
    # the guard spikes around 500 and falls after it: the end guards of a
    # piece bound the guards inside only from guard_increase_start on.  Short
    # starting pieces keep the spike's piece from being compared whole only
    # because the pieces left to split hold few integers.
    b = Drawn("spike", 1.0, lambda x: x + 1000.0,
              lambda x: np.where(np.abs(x - 500.0) < 3.0, 1e4, 0.0), guard_turn=600.0)
    verdict, _, _ = per_integer(b, Direction.UPPER_STRICT, 2, 3000, use_psi=False)
    assert verdict.status is Status.AMBIGUOUS
    monkeypatch.setattr(scan, "STRETCH", 64)
    assert verify_pi(b, Direction.UPPER_STRICT, 2, 3000) == verdict


def test_no_piece_is_decided_fail_where_the_guard_falls(monkeypatch):
    # the bound lies above pi throughout, so a lower check fails everywhere
    # except at the guard's spike around 500, where it is ambiguous; short
    # starting pieces, as above, keep the spike's piece from being compared whole
    b = Drawn("spike", 1.0, lambda x: x + 1000.0,
              lambda x: np.where(np.abs(x - 500.0) < 3.0, 1e4, 0.0), guard_turn=600.0)
    verdict, count, _ = per_integer(b, Direction.LOWER_STRICT, 2, 3000, use_psi=False)
    assert verdict.status is Status.FAIL and verdict.ambiguous_points
    monkeypatch.setattr(scan, "STRETCH", 64)
    assert verify_pi(b, Direction.LOWER_STRICT, 2, 3000) == verdict
    assert count_violations(b, Direction.LOWER_STRICT, 2, 3000) == count


# pi and psi are constant on [9551, 9586] (no prime power lies between the
# primes 9551 and 9587).  Scanned over [9551, 9587] in two starting pieces of
# 18 steps, wider than the base case, the right piece ends at 9587, where a
# bound level with the plateau fails: its margin is the smallest compared, so
# the left piece [9551, 9569] is decided or split on its certificate alone.
PLATEAU = 9551, 9587


def two_pieces(monkeypatch):
    monkeypatch.setattr(scan, "STRETCH", 18)
    monkeypatch.setattr(scan, "BASE_CASE", 8)


def test_the_psi_guard_inside_a_piece_is_kept(monkeypatch):
    # an exact constant bound sits half of psi's own guard above the plateau:
    # every integer of it is ambiguous, though the bound's own guard is 0
    lo, hi = PLATEAU
    psi = primes.psi_array(hi)
    assert len(set(psi[lo:hi].tolist())) == 1
    level = psi[lo] * (1.0 + 0.5 * PSI_ERR_FACTOR)
    b = Drawn("flat", 1.0, lambda x: np.full_like(x, level), np.zeros_like)
    verdict, _, _ = per_integer(b, Direction.UPPER_STRICT, lo, hi, use_psi=True)
    assert verdict.status is Status.FAIL and verdict.ambiguous_points == list(range(lo, hi))
    two_pieces(monkeypatch)
    assert verify_psi(b, Direction.UPPER_STRICT, lo, hi) == verdict


def test_float_values_inside_a_piece_may_sit_below_its_ends(monkeypatch):
    # the true bound is a constant level just above the plateau, and its float
    # values stay within the guard E of it: 0.9 E above at the left piece's
    # ends, where an upper check evaluates its slabs, 0.9 E below elsewhere,
    # where the integers are ambiguous
    lo, hi = PLATEAU
    pi = primes.cumulative_pi(hi)
    assert len(set(pi[lo:hi].tolist())) == 1
    E = 1e-3
    level = pi[lo] + 1.5 * E
    ends = np.array([lo, lo + 18], dtype=np.float64)
    b = Drawn("wobble", 1.0, lambda x: level + np.where(np.isin(x, ends), 0.9, -0.9) * E,
              lambda x: np.full_like(x, E))
    verdict, _, _ = per_integer(b, Direction.UPPER_STRICT, lo, hi, use_psi=False)
    assert set(range(lo + 1, lo + 18)) <= set(verdict.ambiguous_points)
    two_pieces(monkeypatch)
    assert verify_pi(b, Direction.UPPER_STRICT, lo, hi) == verdict


def test_float_values_inside_a_piece_may_sit_above_its_ends(monkeypatch):
    # the mirror case: the true bound is a constant level just below the
    # plateau, and its float values sit 0.9 E below it at the left piece's ends,
    # where the integers fail, and 0.9 E above elsewhere, where they are
    # ambiguous
    lo, hi = PLATEAU
    pi = primes.cumulative_pi(hi)
    E = 1e-3
    level = pi[lo] - 1.5 * E
    ends = np.array([lo, lo + 18], dtype=np.float64)
    b = Drawn("wobble", 1.0, lambda x: level + np.where(np.isin(x, ends), -0.9, 0.9) * E,
              lambda x: np.full_like(x, E))
    verdict, count, _ = per_integer(b, Direction.UPPER_STRICT, lo, hi, use_psi=False)
    assert verdict.status is Status.FAIL
    assert set(range(lo + 1, lo + 18)) <= set(verdict.ambiguous_points)
    two_pieces(monkeypatch)
    assert verify_pi(b, Direction.UPPER_STRICT, lo, hi) == verdict
    assert count_violations(b, Direction.UPPER_STRICT, lo, hi) == count
