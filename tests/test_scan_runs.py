"""The run reduction agrees with a brute-force per-integer scan.

The reference below evaluates every slab of the range, exactly as a scan
without the run reduction does, and classifies each integer on its own.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pibounds import primes, scan
from pibounds.bounds import builtin_bounds, evaluate
from pibounds.primes import PSI_ERR_FACTOR
from pibounds.scan import (
    CrossoverResult,
    Direction,
    Status,
    Verdict,
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
