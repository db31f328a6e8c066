"""The run and stretch reductions agree with a brute-force per-integer scan,
and they evaluate the bounds only where they say they do.

The references below evaluate every slab (or, for a crossover, every
integer) of the range, exactly as a scan without the reductions does, and
classify each integer on its own.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pibounds import primes, scan
from pibounds.bounds import PsiAffine, builtin_bounds, evaluate
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
)

TOP = 200_000
REGISTRY = builtin_bounds()


def per_integer(b, direction, lo, hi, *, use_psi):
    """Verdict, violation count and last-violation result, one integer at a time."""
    f = (primes.psi_array(hi) if use_psi else primes.cumulative_pi(hi))[lo : hi + 1]
    xs = np.arange(lo, hi + 2, dtype=np.float64)
    vals, errs = b.values_with_error(xs, np.log(xs))
    err = np.maximum(errs[:-1], errs[1:])
    if direction is Direction.UPPER_STRICT:
        slab = np.minimum(vals[:-1], vals[1:])
        turn = b.increase_start()
        n0 = math.floor(turn)
        if lo <= n0 <= hi and turn > b.domain_start():
            at_turn = evaluate(b, turn)
            slab[n0 - lo] = min(slab[n0 - lo], at_turn.value)
            err[n0 - lo] = max(err[n0 - lo], at_turn.abs_error_bound)
        diff = slab - f
    else:
        diff = f - np.maximum(vals[:-1], vals[1:])
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
    last = CrossoverResult(threshold, fails[-1][0] if fails else None, changes, ambiguous)
    return verdict, len(fails), last


@st.composite
def scans(draw):
    name = draw(st.sampled_from(sorted(REGISTRY)))
    b = REGISTRY[name]
    lo = draw(st.integers(2, TOP))
    assume(lo > b.domain_start())
    hi = draw(st.integers(lo, min(TOP, lo + draw(st.sampled_from([0, 10, 1000, TOP])))))
    direction = draw(st.sampled_from(list(Direction)))
    # at most ~500 segments and ~500 blocks per scan keep the run time bounded
    least = -(-(hi - lo + 1) // 500)
    segment = max(least, draw(st.sampled_from([1, 2, 3, 7, 64, 1000, 1 << 20])))
    block = max(least, draw(st.sampled_from([1, 2, 5, 97, 1 << 16])))
    threads = draw(st.sampled_from([1, 2]))
    return b, direction, lo, hi, segment, block, threads


@settings(max_examples=60, deadline=None)
@given(scans())
def test_pi_scans_match_per_integer_reference(case):
    b, direction, lo, hi, segment, block, threads = case
    verdict, count, last = per_integer(b, direction, lo, hi, use_psi=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "SCAN_SEGMENT", segment)
        mp.setattr(scan, "SCAN_BLOCK", block)
        assert verify_pi(b, direction, lo, hi, threads=threads) == verdict
        assert count_violations(b, direction, lo, hi, threads=threads) == count
        assert last_violation(b, direction, lo, hi, threads=threads) == last


@settings(max_examples=40, deadline=None)
@given(scans())
def test_psi_scans_match_per_integer_reference(case):
    b, direction, lo, hi, segment, block, threads = case
    verdict, _, _ = per_integer(b, direction, lo, hi, use_psi=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "SCAN_SEGMENT", segment)
        mp.setattr(scan, "SCAN_BLOCK", block)
        assert verify_psi(b, direction, lo, hi, threads=threads) == verdict


@pytest.mark.parametrize("name, direction, lo, hi", [
    ("pan_upper", Direction.UPPER_STRICT, 4, 30_000),      # 19 violators past the turn
    ("cheb_upper", Direction.UPPER_STRICT, 30, 100_000),   # fails on most runs
    ("unit_lower", Direction.LOWER_STRICT, 2, 1_000),      # fails below 17
    ("psi_lower", Direction.LOWER_STRICT, 2, 50_000),
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
    fails, ambiguous, states = [], [], []
    for n, d, guard in zip(range(lo, hi + 1), (gv - fv).tolist(), (fe + ge).tolist()):
        if d == 0.0 or d > guard:  # an exact tie satisfies the relation
            states.append(1)
        elif d < -guard:
            fails.append(n)
            states.append(-1)
        else:
            ambiguous.append(n)
    changes = sum(1 for before, after in zip(states, states[1:]) if before != after)
    if not fails:
        return CrossoverResult(lo, None, changes, ambiguous)
    if fails[-1] >= hi:
        return None
    return CrossoverResult(fails[-1] + 1, fails[-1], changes, ambiguous)


def crossover_or_none(f, g, lo, hi, threads=1):
    try:
        return analytic_crossover(f, g, lo, hi, threads=threads)
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
    least = -(-(hi - lo + 1) // 500)
    segment = max(least, draw(st.sampled_from([1, 2, 3, 7, 64, 1000, 1 << 20])))
    block = max(least, draw(st.sampled_from([1, 2, 5, 97, 1 << 16])))
    stretch = draw(st.sampled_from([1, 2, 5, 97, 1 << 10]))
    threads = draw(st.sampled_from([1, 2]))
    return f, g, lo, hi, segment, block, stretch, threads


@settings(max_examples=60, deadline=None)
@given(crossovers())
def test_crossovers_match_per_integer_reference(case):
    f, g, lo, hi, segment, block, stretch, threads = case
    expected = crossover_per_integer(f, g, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "SCAN_SEGMENT", segment)
        mp.setattr(scan, "SCAN_BLOCK", block)
        mp.setattr(scan, "STRETCH", stretch)
        assert crossover_or_none(f, g, lo, hi, threads) == expected


# d = g - f = 0.001 x - log x + c is convex with its minimum -1e-6 at x = 1000,
# so f <= g fails at 999, 1000 and 1001 only: a dip that both ends of any
# stretch around it miss, and that only the chord term keeps undecided
FLAT = PsiAffine("flat", 2.0, 1.0, 0.0, 0.0, 0.0)
DIP = PsiAffine("dip", 2.0, 1.001, 0.0, -1.0, math.log(1000.0) - 1.0 - 1e-6)


@pytest.mark.parametrize("stretch", [97, 1 << 10])
@pytest.mark.parametrize("lo", [30, 500, 950, 990])
def test_a_dip_between_stretch_ends_is_found(lo, stretch):
    expected = crossover_per_integer(FLAT, DIP, lo, 5000)
    assert expected == CrossoverResult(1002, 1001, 2, [])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "STRETCH", stretch)
        assert analytic_crossover(FLAT, DIP, lo, 5000) == expected


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


def test_clean_blocks_evaluate_each_run_once(kernel_calls):
    # unit_lower holds on all of [17, 10**5]: each run costs the two slab
    # ends of its worst integer, and each block start begins a run
    b = REGISTRY["unit_lower"]
    lo, hi = 17, 10**5
    calls = kernel_calls(b)
    assert verify_pi(b, Direction.LOWER_STRICT, lo, hi).status is Status.PASS
    f = primes.cumulative_pi(hi)
    starts = set(range(lo, hi + 1, scan.SCAN_BLOCK))
    starts.update((lo + 1 + np.flatnonzero(f[lo + 1 : hi + 1] != f[lo:hi])).tolist())
    assert sum(xs.size for xs in calls) == 2 * len(starts)


def test_only_the_failing_runs_of_a_block_are_compared_per_integer(kernel_calls):
    # the 19 violations of pan_upper past its turn lie in 6 runs of [24121, 24254],
    # inside the first block; the block's other runs keep their one comparison
    b = REGISTRY["pan_upper"]
    calls = kernel_calls(b)
    assert count_violations(b, Direction.UPPER_STRICT, 4, 10**5) == 19
    reps, expanded, later = [xs[0::2].astype(np.int64) for xs in calls if xs.size > 2]
    assert reps[0] == 4 and reps[-1] < 4 + scan.SCAN_BLOCK <= later[0]
    fails = [n for n in range(24121, 24255)
             if verify_pi(b, Direction.UPPER_STRICT, n, n).status is Status.FAIL]
    assert len(fails) == 19
    f = primes.cumulative_pi(10**5)
    runs = np.flatnonzero(np.isin(f, f[fails]))
    assert len(set(f[fails].tolist())) == 6
    assert np.setdiff1d(runs, reps).size == 104
    assert np.array_equal(expanded, np.union1d(reps, runs))


def test_c14_decides_its_stretches_from_their_ends(kernel_calls):
    # C14's 4.0M integers need the series kernel only at the stretch ends and
    # inside the few stretches around the crossing
    b = REGISTRY["dusart_upper"]
    calls = kernel_calls(b)
    res = analytic_crossover(b, REGISTRY["legendre_a"], 10**6 + 1, 5 * 10**6)
    assert res == CrossoverResult(2846396, 2846395, 1, [])
    assert sum(xs.size for xs in calls) <= 2 * 10**4
