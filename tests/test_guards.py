"""The error guards against rigorous arithmetic.

Every verdict trusts that a float value lies within its guard of the true
value.  Here the true value is computed in mpmath at 120 bits, from the same
float inputs and float constants, so the only difference left is the
rounding of the float computation.  The piece certificates of range scans
also trust each shape's curvature bound and the growth of its guard, which
are checked here the same way, and the pieces they decide are re-checked
here at 120 bits, as are the pinned crossover flips and C8b's violators.
Past each bound's turn a scan evaluates a slab at one end only, which rests
on the bound rising there; that is checked at 120 bits too.  Every guard
assumes numpy's float64 log within a relative eps, and that is checked last,
at each x whose log the pinned report reads.
"""

import json
import math
import platform
import random
from pathlib import Path

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
from pibounds.claims import ClaimKind

from numerics import (
    PREC,
    glibc_with_cited_log,
    integers_where_log_differs,
    log_points,
    logs_outside_eps,
)

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


def prime_powers(limit):
    """(p^k, p) for every prime power up to limit, in ascending order."""
    powers = []
    for p in primes.prime_array(limit).tolist():
        q = p
        while q <= limit:
            powers.append((q, p))
            q *= p
    return sorted(powers)


def test_psi_prefixes_lie_within_their_guard():
    limit = 200_000
    pos, val = primes.psi_steps(limit)
    powers = prime_powers(limit)
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
    # the piece certificates bound the guard inside a piece by what
    # scan._stretch_guard gives from its ends; where that is finite, it must
    # hold for every integer inside (with f = g = b, the guard is twice b's)
    b = builtin_bounds()[name]
    a = math.ceil(above_start(b, u))
    n = a + math.floor(v * WIDTH)
    xs = np.array([a, a + WIDTH, n], dtype=np.float64)
    _, errs = b.values_with_error(xs, np.log(xs))
    bound = scan._stretch_guard(np.array([a]), b.guard_increase_start(),
                                2.0 * errs[:1], 2.0 * errs[1:2])[0]
    if math.isfinite(bound):
        assert 2.0 * errs[2] <= bound * (1.0 + scan._CERT_SLACK)


def exact_psi(points):
    """psi(n) at PREC bits for each n of points, as a dict."""
    wanted = sorted(set(points))
    out = {}
    total = mpmath.mpf(0)
    for q, p in prime_powers(wanted[-1]) + [(math.inf, None)]:
        while wanted and wanted[0] < q:
            out[wanted.pop(0)] = +total
        if p is not None:
            total += mpmath.log(p)
    return out


def settled_pieces(monkeypatch, check, status):
    """(a, b, G) of a seeded sample of the pieces that check() decides
    status (PASS or FAIL) by their certificate, G bounding the guard of every
    integer inside."""
    settled = []
    monotone = scan._monotone

    def recording(start):
        bracket = monotone(start)

        def record(a, b, at_a, at_b, best):
            decided, low = bracket(a, b, at_a, at_b, best)
            decided &= (at_a[0] > 0) if status is scan.Status.PASS else (at_a[0] < 0)
            guard = np.maximum(at_a[1], at_b[1])
            settled.extend(zip(a[decided].tolist(), b[decided].tolist(),
                               guard[decided].tolist()))
            return decided, low

        return record

    with monkeypatch.context() as mp:
        mp.setattr(scan, "_monotone", recording)
        assert check().status is status
    assert len(settled) > 100
    return random.Random(2029).sample(settled, 40)


@pytest.mark.parametrize("claim", ["C6b", "C9", "C11", "cheb_upper", "d125506"])
def test_decided_pieces_hold_at_120_bits(monkeypatch, claim):
    # a piece is decided PASS from hi(a) - lo(b), which bounds the margin of
    # every integer inside it from below; computed at 120 bits, that bound
    # must clear twice the guard, so that each float margin inside still
    # clears its own.  Mirrored, a piece is decided FAIL from hi(b) - lo(a),
    # which must stay below minus twice the guard (checked negated below):
    # cheb_upper fails on most of [30, 96097], and d125506 as a lower bound
    # fails throughout.
    U = scan.Direction.UPPER_STRICT
    PASS, FAIL = scan.Status.PASS, scan.Status.FAIL
    registry = builtin_bounds()
    if claim == "C6b":
        b = registry["dusart_upper"]
        pieces = settled_pieces(monkeypatch, lambda: scan.verify_pi(b, U, 355_991, 5 * 10**6),
                                PASS)
        pi = primes.cumulative_pi(5 * 10**6)
        with mpmath.workprec(PREC):
            lows = [(exact(b, a) - int(pi[e]), g) for a, e, g in pieces]
    elif claim == "C9":
        b = registry["psi_upper"]
        pieces = settled_pieces(monkeypatch, lambda: scan.verify_psi(b, U, 30, 10**6), PASS)
        with mpmath.workprec(PREC):
            psi = exact_psi([e for _, e, _ in pieces])
            lows = [(exact(b, a) - psi[e], g) for a, e, g in pieces]
    elif claim == "C11":
        pieces = settled_pieces(monkeypatch, lambda: scan.verify_sandwich(2, 10**6), PASS)
        pi = primes.cumulative_pi(10**6)
        with mpmath.workprec(PREC):
            psi = exact_psi([n for a, e, _ in pieces for n in (a, e)])

            def pi_log(n):
                return int(pi[n]) * mpmath.log(n)

            lows = [(min(pi_log(a) - psi[e], 2 * psi[a] - pi_log(e)), g) for a, e, g in pieces]
    elif claim == "cheb_upper":
        b = registry[claim]
        pieces = settled_pieces(monkeypatch, lambda: scan.verify_pi(b, U, 30, 96097), FAIL)
        pi = primes.cumulative_pi(96097)
        with mpmath.workprec(PREC):  # minus hi(e) - lo(a): pi at a less the slab bound at e
            lows = [(int(pi[a]) - exact(b, e), g) for a, e, g in pieces]
    else:
        b = registry[claim]
        L = scan.Direction.LOWER_STRICT
        pieces = settled_pieces(monkeypatch, lambda: scan.verify_pi(b, L, 17, 10**6), FAIL)
        pi = primes.cumulative_pi(10**6)
        with mpmath.workprec(PREC):  # minus hi(e) - lo(a): the slab bound at a less pi at e
            lows = [(exact(b, a + 1) - int(pi[e]), g) for a, e, g in pieces]
    with mpmath.workprec(PREC):
        for low, guard in lows:
            assert low > 2 * guard


@pytest.mark.parametrize("f, g, flip", [
    ("dusart_upper", "pan_upper", 28516),  # C13's threshold
    ("dusart_upper", "legendre_a", 2_846_396),  # C14's threshold
    ("pan_upper", "cheb_upper", 112_006),  # C2's tail flip
])
def test_pinned_flips_hold_at_120_bits(f, g, flip):
    # f lies above g at flip - 1 and no longer at flip
    registry = builtin_bounds()
    f, g = registry[f], registry[g]
    with mpmath.workprec(PREC):
        assert exact(f, flip - 1) > exact(g, flip - 1)
        assert not exact(f, flip) > exact(g, flip)


def test_c8b_violators_hold_at_120_bits():
    # pi(n) > n/(log n - 1.11) at exactly 19 integers, all in [24121, 24254]
    b = builtin_bounds()["pan_upper"]
    pi = primes.cumulative_pi(24_400)
    with mpmath.workprec(PREC):
        violators = [n for n in range(24_000, 24_401) if int(pi[n]) > exact(b, n)]
    assert len(violators) == 19
    assert (violators[0], violators[-1]) == (24121, 24254)


PINNED = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verify_full.json"


def exact_margins(claim, w):
    """The margins at w, at PREC bits, that claim's verdict rests on: for a
    range check, the least margin over its bounds (the report's witness is
    its tightest part's); for a crossover, g - f at the threshold w and at
    the last failure w - 1."""
    p = claim.payload
    registry = builtin_bounds()
    if claim.kind is ClaimKind.CROSSOVER:
        f, g = registry[p["left"]], registry[p["right"]]
        return [exact(g, w) - exact(f, w), exact(g, w - 1) - exact(f, w - 1)]
    use_psi = claim.kind is ClaimKind.PSI_CHECK
    f = exact_psi([w])[w] if use_psi else mpmath.mpf(primes.pi_at(w))
    if p.get("method") == "sandwich":
        pi_log = primes.pi_at(w) * mpmath.log(w)
        return [min(pi_log - f, 2 * f - pi_log)]
    margins = []
    for name, direction in p.get("parts") or [(p["bound"], p["direction"])]:
        b = registry[name]
        assert w >= b.increase_start(), name  # so the slab's ends give its inf and sup
        ends = (exact(b, w), exact(b, w + 1))
        margins.append(min(ends) - f if direction == "upper" else f - max(ends))
    return [min(margins)]


def test_pinned_witnesses_hold_at_120_bits(full_report):
    # each witness of the pinned report re-decided at 120 bits: its margin
    # has the verdict's sign, clears 1e3 times the guard the run used, and
    # lies within that guard of the float margin reported
    pinned = {c["id"]: c for c in json.loads(PINNED.read_text())["claims"]}
    checked = 0
    for o in full_report.outcomes:
        want = pinned[o.claim.id]
        if want["witness"] is None:
            continue
        assert (o.witness, o.min_margin) == (want["witness"], want["min_margin"])
        with mpmath.workprec(PREC):
            margins = exact_margins(o.claim, o.witness)
            signs = [1, -1] if o.claim.kind is ClaimKind.CROSSOVER else [
                1 if want["verdict"] == "PASS" else -1]
            assert [mpmath.sign(m) for m in margins] == signs, o.claim.id
            least = min(abs(m) for m in margins)
            assert least > 1e3 * o.guard_at_witness, o.claim.id
            assert abs(least - abs(o.min_margin)) <= o.guard_at_witness, o.claim.id
        checked += 1
    assert checked == 16


def test_the_turning_slab_infimum_lies_within_its_guard():
    # x / (log x - shift) is least at its turn e^(shift + 1), where it equals
    # that turn; pan_upper's lies inside the slab [8, 9)
    b = builtin_bounds()["pan_upper"]
    v = scan.verify_pi(b, scan.Direction.UPPER_STRICT, 8, 8)
    with mpmath.workprec(PREC):
        least = mpmath.exp(mpmath.mpf(b.shift) + 1)
        assert 8 < least < 9 and least < min(exact(b, 8), exact(b, 9))
        assert abs(mpmath.mpf(v.min_margin) - (least - 4)) <= v.guard_at_witness


def one_end_samples(b):
    """The integer from which b's slabs are compared at one end, the two after
    it, and 200 integers log-spaced from it to DEFAULT_CAP."""
    start = scan._one_end_start(b)
    spaced = np.geomspace(start, primes.DEFAULT_CAP, 200).round().astype(np.int64)
    return sorted({start, start + 1, start + 2, *spaced.tolist()})


@pytest.mark.parametrize("name", list(builtin_bounds()))
def test_a_slab_past_the_turn_is_compared_at_one_end(name):
    # from scan._one_end_start on, an upper check compares pi(n) with B(n)
    # alone and a lower one with B(n + 1): b rises at n, past its one turn, so
    # it increases over [n, n + 1], and those are the slab's infimum and
    # supremum.  Each margin then lies within its guard of the true one.
    b = builtin_bounds()[name]
    U, L = scan.Direction.UPPER_STRICT, scan.Direction.LOWER_STRICT
    with mpmath.workprec(PREC):
        for n in one_end_samples(b):
            assert mpmath.diff(lambda X: exact(b, X), n) > 0, n
            f = primes.pi_at(n)
            for direction, margin in ((U, exact(b, n) - f), (L, f - exact(b, n + 1))):
                v = scan.verify_pi(b, direction, n, n)
                assert abs(mpmath.mpf(v.min_margin) - margin) <= v.guard_at_witness, (n, direction)


def test_an_ambiguous_point_is_marked_and_its_margin_lies_inside_its_guard():
    # scale * n / log n meets pi(n) at the 10000th prime n to within rounding,
    # so the scan can decide neither way there, and nowhere else around it
    n = 104_729
    b = ScaledLog("touch", 2.0, primes.pi_at(n) * math.log(n) / n)
    v = scan.verify_pi(b, scan.Direction.UPPER_STRICT, n - 10, n + 10)
    assert v.status is scan.Status.AMBIGUOUS
    assert v.ambiguous_points == [n] and v.witness == n
    with mpmath.workprec(PREC):  # b increases, so its slab over [n, n + 1) starts at b(n)
        assert abs(exact(b, n) - primes.pi_at(n)) <= v.guard_at_witness


@pytest.mark.skipif(not glibc_with_cited_log(), reason=(
    f"libc {platform.libc_ver()} is not glibc 2.28 or later, whose cited log bound "
    "this test assumes; test_numpy_log_is_within_eps_at_turns_and_eval_points "
    "settles a seeded sample of these integers with mpmath instead"))
def test_numpy_log_is_within_eps_at_every_integer_up_to_the_cap():
    # this test's one assumption: glibc's log is within about 0.52 ulp, so
    # within eps relative, wherever numpy's SIMD log agrees with it; each
    # integer where the two differ is settled at PREC bits
    assert logs_outside_eps(list(integers_where_log_differs())) == []


def test_numpy_log_is_within_eps_at_turns_and_eval_points():
    # each bound's turning point and the x from which its guard grows, and
    # each claim's eval_points, are read off the log too; without glibc's
    # cited bound, a seeded sample stands in for the integers
    assert logs_outside_eps(log_points(sample=not glibc_with_cited_log())) == []
