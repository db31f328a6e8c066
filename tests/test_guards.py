"""The error guards against rigorous arithmetic.

Every verdict trusts that a float value lies within its guard of the true
value.  Here the true value is computed in mpmath at 120 bits, from the same
float inputs and float constants, so the only difference left is the
rounding of the float computation.  The stretch reduction of crossover
searches also trusts each shape's curvature bound and the growth of its
guard, which are checked here the same way.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pibounds import primes, scan
from pibounds.bounds import (
    DusartSeries,
    PsiAffine,
    ScaledLog,
    ShiftedLog,
    builtin_bounds,
    evaluate,
)

PREC = 120
TOP = 1e12
WIDTH = 1 << 12  # wider than any stretch a crossover search cuts


def exact(b, x):
    """b(x) at PREC bits, with b's float constants taken as exact."""
    X = mpmath.mpf(x)
    L = mpmath.log(X)
    if isinstance(b, ScaledLog):
        return b.scale * X / L
    if isinstance(b, ShiftedLog):
        return X / (L - b.shift)
    if isinstance(b, DusartSeries):
        return (X / L) * (1 + 1 / L + b.k / L**2)
    if isinstance(b, PsiAffine):
        return b.slope * X + b.log2_coeff * L**2 + b.log_coeff * L + b.offset
    raise TypeError(type(b).__name__)


def above_start(b, u):
    """x log-uniform in its distance above b's domain start, from 1e-9 of it to TOP."""
    start = b.domain_start()
    return min(start + start * 10.0 ** (-9 + u * (math.log10(TOP / start) + 9)), TOP)


@pytest.mark.parametrize("name", list(builtin_bounds()))
@given(u=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_shape_values_lie_within_their_guard(name, u):
    b = builtin_bounds()[name]
    x = above_start(b, u)
    res = evaluate(b, x)
    with mpmath.workprec(PREC):
        assert abs(mpmath.mpf(res.value) - exact(b, x)) <= res.abs_error_bound


def test_psi_prefixes_lie_within_their_guard():
    limit = 200_000
    pos, val = primes.psi_steps(limit)
    powers = []  # (p^k, p) for every prime power up to limit
    for p in primes.prime_array(limit).tolist():
        q = p
        while q <= limit:
            powers.append((q, p))
            q *= p
    powers.sort()
    assert pos.tolist() == [q for q, _ in powers]
    with mpmath.workprec(PREC):
        total = mpmath.mpf(0)
        for (q, p), v in zip(powers, val.tolist()):
            total += mpmath.log(p)  # psi(q), the sum of log p over prime powers <= q
            assert abs(mpmath.mpf(v) - total) <= primes.PSI_ERR_FACTOR * v, q


@pytest.mark.parametrize("name", list(builtin_bounds()))
@given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_curvature_bounds_the_second_derivative_onward(name, u, v):
    b = builtin_bounds()[name]
    x = above_start(b, u)
    t = x + v * WIDTH
    xs = np.array([x])
    bound = float(b.curvature(xs, np.log(xs))[0])
    with mpmath.workprec(PREC):
        # the second difference cancels most of B's digits: work with PREC more
        second = mpmath.diff(lambda X: exact(b, X), mpmath.mpf(t), 2, addprec=PREC)
        assert bound >= abs(second)


@pytest.mark.parametrize("name", list(builtin_bounds()))
@given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_end_guards_bound_the_guard_inside_a_stretch(name, u, v):
    # the certificate compares a stretch against the guard bound that
    # scan._stretch_guard gives it; where that is finite, it must hold for
    # every integer inside (with f = g = b, the guard is twice b's)
    b = builtin_bounds()[name]
    a = math.ceil(above_start(b, u))
    n = a + math.floor(v * WIDTH)
    xs = np.array([a, a + WIDTH, n], dtype=np.float64)
    _, errs = b.values_with_error(xs, np.log(xs))
    ends = np.array([a, a + WIDTH], dtype=np.int64)
    bound = scan._stretch_guard(b, b, ends, 2.0 * errs[:2])[0]
    if math.isfinite(bound):
        assert 2.0 * errs[2] <= bound * (1.0 + scan._STRETCH_SLACK)
