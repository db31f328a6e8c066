import dataclasses
import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pibounds import primes, scan
from pibounds.bounds import BoundExpr, ScaledLog, chebyshev_constants, evaluate
from pibounds.errors import (
    CrossoverNotFoundError,
    DomainError,
    MonotonicityError,
    ResourceLimitError,
)
from pibounds.scan import (
    Direction,
    Status,
    analytic_crossover,
    count_violations,
    exp_threshold,
    last_violation,
    verify_pi,
    verify_psi,
    verify_sandwich,
)

U = Direction.UPPER_STRICT
L = Direction.LOWER_STRICT


class TestVerifyPi:
    def test_cheb_upper_scan_window(self, registry):
        v = verify_pi(registry["cheb_upper"], U, 96098, 112006)
        assert v.status is Status.PASS
        assert v.ambiguous_points == []
        assert v.points_checked == 112006 - 96098 + 1

    def test_cheb_upper_counterexample_point(self, registry):
        v = verify_pi(registry["cheb_upper"], U, 96097, 96097)
        assert v.status is Status.FAIL
        assert v.witness == 96097
        assert 0.07 <= -v.min_margin <= 0.09

    def test_unit_lower_holds_from_17(self, registry):
        v = verify_pi(registry["unit_lower"], L, 17, 10**5)
        assert v.status is Status.PASS

    def test_unit_lower_fails_at_16(self, registry):
        # B(17) ~ 6.00025 exceeds pi(16) = 6, so real arguments just under 17 violate
        v = verify_pi(registry["unit_lower"], L, 16, 16)
        assert v.status is Status.FAIL
        assert v.witness == 16

    def test_single_point_fail_is_recheckable(self, registry):
        v = verify_pi(registry["cheb_upper"], U, 30, 200)
        assert v.status is Status.FAIL
        again = verify_pi(registry["cheb_upper"], U, v.witness, v.witness)
        assert again.status is Status.FAIL
        assert again.witness == v.witness

    def test_decreasing_head_is_sound(self, registry):
        # pan_upper decreases until e^2.11 ~ 8.25; the slab reduction must use
        # per-slab extremes there. Oracle: dense sampling of each slab.
        b = registry["pan_upper"]
        v = verify_pi(b, U, 4, 30)
        counts = primes.cumulative_pi(31)
        for n in range(4, 31):
            slab_inf = min(
                evaluate(b, n + i / 4096.0).value for i in range(4096)
            )
            assert int(counts[n]) < slab_inf  # matches the PASS verdict
        assert v.status is Status.PASS

    def test_the_turning_slab_is_least_at_the_turn(self, registry):
        # pan_upper turns at e^2.11 ~ 8.25, inside the slab [8, 9): an upper
        # check compares pi(8) = 4 with B(turn), guarded by the errors of B(8)
        # and B(turn); a lower check compares it with the larger end, B(9)
        b = registry["pan_upper"]
        turn = b.increase_start()
        at_8, at_9, at_turn = (evaluate(b, x) for x in (8, 9, turn))
        v = verify_pi(b, U, 8, 8)
        assert (v.status, v.witness, v.min_margin) == (Status.PASS, 8, at_turn.value - 4)
        assert v.guard_at_witness == max(at_8.abs_error_bound, at_turn.abs_error_bound)
        v = verify_pi(b, L, 8, 8)
        assert (v.status, v.min_margin) == (Status.FAIL, 4 - max(at_8.value, at_9.value))
        assert v.guard_at_witness == max(at_8.abs_error_bound, at_9.abs_error_bound)

    def test_range_validation(self, registry):
        with pytest.raises(ValueError):
            verify_pi(registry["unit_lower"], U, 1, 10)
        with pytest.raises(ValueError):
            verify_pi(registry["unit_lower"], U, 20, 10)
        with pytest.raises(ResourceLimitError):
            verify_pi(registry["unit_lower"], U, 2, 100, cap=50)

    @pytest.mark.parametrize("check", [
        lambda b, lo, hi: verify_pi(b, U, lo, hi),
        lambda b, lo, hi: verify_psi(b, U, lo, hi),
        lambda b, lo, hi: last_violation(b, U, lo, hi),
        lambda b, lo, hi: count_violations(b, U, lo, hi),
        lambda b, lo, hi: analytic_crossover(b, b, lo, hi),
        lambda b, lo, hi: verify_sandwich(lo, hi),
    ], ids=["verify_pi", "verify_psi", "last_violation", "count_violations",
            "analytic_crossover", "verify_sandwich"])
    def test_a_range_end_that_is_no_integer_is_refused(self, registry, check):
        b = registry["psi_upper"]  # a bound each of the six scans takes
        for lo, hi in [(17, 17.5), (2.0, 10), ("2", 10), (17, None)]:
            with pytest.raises(ValueError, match=r"lo and hi must be integers, got \["):
                check(b, lo, hi)
        assert check(b, np.int64(30), np.int64(40)) == check(b, 30, 40)

    def test_domain_validation(self, registry):
        with pytest.raises(DomainError):
            verify_pi(registry["pan_upper"], U, 3, 10)

    @pytest.mark.parametrize("check", [verify_pi, verify_psi, last_violation, count_violations])
    def test_a_direction_is_a_member_or_its_value(self, registry, check):
        # cheb_upper fails as an upper bound on [90, 110] and holds as a lower one
        b = registry["cheb_upper"]
        for direction in Direction:
            assert check(b, direction.value, 90, 110) == check(b, direction, 90, 110)
        assert check(b, "upper", 90, 110) != check(b, "lower", 90, 110)
        with pytest.raises(ValueError, match="sideways"):
            check(b, "sideways", 90, 110)

    def test_real_semantics_spot_oracle_upper(self, registry):
        b = registry["cheb_upper"]
        v = verify_pi(b, U, 96098, 112006)
        assert v.status is Status.PASS
        rng = random.Random(2026)
        for _ in range(1000):
            x = rng.uniform(96098, 112007)
            assert primes.pi_at(x) < evaluate(b, x).value

    def test_real_semantics_spot_oracle_lower(self, registry):
        b = registry["unit_lower"]
        v = verify_pi(b, L, 17, 10**4)
        assert v.status is Status.PASS
        rng = random.Random(2027)
        for _ in range(1000):
            x = rng.uniform(17, 10**4 + 1)
            assert evaluate(b, x).value < primes.pi_at(x)

    def test_pass_witness_is_closest_margin(self, registry):
        v = verify_pi(registry["d125506"], U, 17, 10**4)
        assert v.status is Status.PASS
        # witness 113 is where the 1.25506 constant was calibrated
        assert v.witness == 113
        assert 0 < v.min_margin < 1e-4


class TestVerifyPsi:
    def test_upper_from_30(self, registry):
        v = verify_psi(registry["psi_upper"], U, 30, 10**5)
        assert v.status is Status.PASS

    def test_lower_from_30(self, registry):
        v = verify_psi(registry["psi_lower"], L, 30, 10**5)
        assert v.status is Status.PASS

    def test_single_point_at_2_matches_direct_evaluation(self, registry):
        # sup of the (locally decreasing) lower bound on [2, 3) is at x=2:
        # c1*2 - 2.5*log 2 - 1 < 0 < psi(2) = log 2, so the check passes
        b = registry["psi_lower"]
        v = verify_psi(b, L, 2, 2)
        c1, _ = chebyshev_constants()
        direct = max(evaluate(b, 2).value, evaluate(b, 3).value)
        assert direct == pytest.approx(2 * c1 - 2.5 * math.log(2) - 1, abs=1e-12)
        assert v.status is Status.PASS
        assert v.min_margin == pytest.approx(math.log(2) - direct, abs=1e-9)

    def test_guard_includes_psi_summation_error(self, registry):
        v = verify_psi(registry["psi_upper"], U, 30, 1000)
        assert v.status is Status.PASS
        assert v.min_margin > 0


class TestSandwich:
    def test_small_range(self):
        v = verify_sandwich(2, 10**4)
        assert v.status is Status.PASS
        assert v.ambiguous_points == []

    def test_tightest_decided_point(self):
        # at n=4: pi*log(4) - psi(4) = 2log2 - (2log2 + log3) + 2log2 = ...
        v = verify_sandwich(2, 100)
        expect = 2 * math.log(4) - (2 * math.log(2) + math.log(3))
        assert v.min_margin == pytest.approx(expect, rel=1e-12)
        assert v.witness == 4

    def test_exact_tie_at_two_is_admitted(self):
        # psi(2) = pi(2) log 2 is an identity, so the upper comparison alone decides
        v = verify_sandwich(2, 2)
        assert v.status is Status.PASS
        assert v.min_margin == math.log(2)

    def test_range_validation(self):
        with pytest.raises(ResourceLimitError):
            verify_sandwich(2, 100, cap=50)

    def test_a_piece_passes_only_when_both_comparisons_clear(self):
        # the sandwich's bracket reads two comparisons, pi(n) log n over psi(n)
        # and 2 psi(n) over pi(n) log n; a piece passes when the least clears
        bracket = scan._monotone(2)
        a, b = np.array([100]), np.array([200])

        def ends(hi1, hi2, lo1, lo2):  # diff, guard, hi rows, lo rows
            return np.array([[1.0], [1e-9], [hi1], [hi2], [lo1], [lo2]])

        assert bracket(a, b, ends(10, 20, 0, 0), ends(30, 40, 1, 10), 0.5)[0].tolist() == [True]
        for at_a, at_b in [(ends(10, 1, 0, 0), ends(30, 40, 1, 10)),
                           (ends(1, 20, 0, 0), ends(30, 40, 10, 10))]:
            assert bracket(a, b, at_a, at_b, 0.5)[0].tolist() == [False]


class TestLastViolation:
    def test_cheb_upper_threshold(self, registry):
        res = last_violation(registry["cheb_upper"], U, 30, 200000)
        assert res.last_failure == 96097
        assert res.threshold == 96098

    def test_d125506_clean_from_17(self, registry):
        res = last_violation(registry["d125506"], U, 17, 10**6)
        assert res.last_failure is None
        assert res.threshold == 17

    def test_dusart_upper_sharpness(self, registry):
        # the stated threshold is exactly one past the last violation
        res = last_violation(registry["dusart_upper"], U, 2, 10**6)
        assert res.last_failure == 355990
        assert res.threshold == 355991

    def test_agrees_with_verify(self, registry):
        res = last_violation(registry["cheb_upper"], U, 90000, 112006)
        tail = verify_pi(registry["cheb_upper"], U, res.threshold, 112006)
        assert tail.status is Status.PASS
        at = verify_pi(registry["cheb_upper"], U, res.last_failure, res.last_failure)
        assert at.status is Status.FAIL


class TestCountViolations:
    def test_cheb_upper_window_is_clean(self, registry):
        assert count_violations(registry["cheb_upper"], U, 96098, 112006) == 0

    def test_single_point(self, registry):
        assert count_violations(registry["cheb_upper"], U, 96097, 96097) == 1

    def test_below_threshold_regression_constant(self, registry):
        # frozen from the first full scan of [30, 96097]
        assert count_violations(registry["cheb_upper"], U, 30, 96097) == 83411

    def test_pan_upper_refutation_constants(self, registry):
        # the 1.11 shifted-log upper bound is violated at exactly 19 integers,
        # all in [24121, 24254]; its true threshold is 24255, not the commonly
        # cited 4 (pi(24254) = 2699 vs bound 2698.9863...)
        assert count_violations(registry["pan_upper"], U, 4, 10**6) == 19
        assert count_violations(registry["pan_upper"], U, 4, 24120) == 0
        res = last_violation(registry["pan_upper"], U, 4, 10**6)
        assert res.last_failure == 24254
        assert res.threshold == 24255
        first = verify_pi(registry["pan_upper"], U, 24121, 24121)
        assert first.status is Status.FAIL


class TestAnalyticCrossover:
    def test_dusart_vs_pan_upper(self, registry):
        res = analytic_crossover(registry["dusart_upper"], registry["pan_upper"], 30, 50000)
        assert res.threshold == 28516
        assert res.last_failure == 28515
        assert res.sign_changes == 1
        assert res.ambiguous_points == []

    def test_identical_expressions(self, registry):
        b = registry["pan_upper"]
        res = analytic_crossover(b, b, 10, 1000)
        assert res.threshold == 10
        assert res.last_failure is None
        assert res.sign_changes == 0
        assert res.ambiguous_points == []
        # answered before the scan: the margin at lo is 0
        assert res.min_margin == 0.0
        assert res.guard_at_witness == 2.0 * evaluate(b, 10).abs_error_bound

    def test_a_copy_under_another_name_and_start_is_the_same_expression(self, registry):
        b = registry["pan_upper"]
        copy = dataclasses.replace(b, name="copy", valid_from=1e6)
        assert analytic_crossover(b, copy, 10, 1000) == analytic_crossover(b, b, 10, 1000)

    def test_a_float_tie_of_two_expressions_is_ambiguous(self):
        # f > g at every x > 1, yet their floats tie on [41305, 41308]: a tie
        # there falls inside the guard, and no integer is decided
        f = ScaledLog("f", 2.0, math.nextafter(1.1, 2.0))
        g = ScaledLog("g", 2.0, 1.1)
        xs = np.arange(41305, 41309, dtype=np.float64)
        f_vals, g_vals = (b.values_with_error(xs, np.log(xs))[0] for b in (f, g))
        assert (f_vals == g_vals).all()
        res = analytic_crossover(f, g, 41305, 41308)
        assert res.ambiguous_points == [41305, 41306, 41307, 41308]
        assert (res.last_failure, res.sign_changes, res.min_margin) == (None, 0, 0.0)

    def test_not_found(self, registry):
        # below 28516 the series bound exceeds the shifted bound throughout
        with pytest.raises(CrossoverNotFoundError):
            analytic_crossover(registry["dusart_upper"], registry["pan_upper"], 30, 20000)

    def test_forward_equals_backward_scan(self, registry):
        f, g = registry["dusart_upper"], registry["pan_upper"]
        res = analytic_crossover(f, g, 28400, 28700)
        last_neg = None
        for n in range(28700, 28399, -1):  # reversed-order oracle
            if evaluate(g, n).value - evaluate(f, n).value < 0:
                last_neg = n
                break
        assert res.last_failure == last_neg
        assert res.threshold == last_neg + 1

    def test_cap_is_enforced(self, registry):
        f, g = registry["dusart_upper"], registry["pan_upper"]
        with pytest.raises(CrossoverNotFoundError):  # the scan runs up to the cap
            analytic_crossover(f, g, 900, 1000, cap=1000)
        with pytest.raises(ResourceLimitError):
            analytic_crossover(f, g, 900, 1001, cap=1000)

    def test_cap_above_the_ceiling(self, registry, no_tables):
        f, g = registry["dusart_upper"], registry["pan_upper"]
        with pytest.raises(ResourceLimitError, match="MAX_CAP"):
            analytic_crossover(f, g, 30, 100, cap=primes.MAX_CAP + 1)
        with pytest.raises(ResourceLimitError, match="MAX_CAP"):
            verify_pi(registry["cheb_upper"], U, 96098, 96200, cap=primes.MAX_CAP + 1)
        with pytest.raises(ResourceLimitError, match="MAX_CAP"):
            verify_sandwich(2, 100, cap=primes.MAX_CAP + 1)

    def test_domain_checked(self, registry):
        with pytest.raises(DomainError):
            analytic_crossover(registry["pan_upper"], registry["unit_lower"], 3, 10)


class Turnless(BoundExpr):
    """A kernel and a curvature, and no turn for a scan to start from."""

    def values_with_error(self, xs, logs):
        return xs / logs, 8.0 * np.finfo(float).eps * xs / logs

    def curvature(self, xs, logs):
        return np.zeros_like(xs)


@pytest.mark.parametrize("scan_of", [
    lambda f, g: verify_pi(f, "upper", 30, 100),
    lambda f, g: analytic_crossover(f, g, 30, 100),
    lambda f, g: analytic_crossover(g, f, 30, 100),
], ids=["verify_pi", "crossover-left", "crossover-right"])
def test_a_shape_without_a_turn_is_refused(registry, scan_of):
    with pytest.raises(MonotonicityError, match="^bound 'turnless' does not expose"):
        scan_of(Turnless("turnless", 2.0), registry["cheb_upper"])


class TestExpThreshold:
    def test_tail_threshold_value(self):
        _, c2 = chebyshev_constants()
        assert abs(exp_threshold(1.11, c2) - 112005.18) <= 0.01

    def test_zero_shift(self):
        assert exp_threshold(0.0, 2.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_threshold(1.11, 1.0)
        with pytest.raises(DomainError):
            exp_threshold(1.11, 0.5)

    @pytest.mark.parametrize("m, C, message", [
        (1.11, math.inf, "requires a finite m and C"),
        (math.nan, 2.0, "requires a finite m and C"),
        (1e3, 1.0000001, "overflows the float range"),
    ], ids=["C-inf", "m-nan", "overflow"])
    def test_a_non_finite_input_or_result_is_refused(self, m, C, message):
        # each once gave nan, or a bare OverflowError, in place of a DomainError
        with pytest.raises(DomainError, match=message):
            exp_threshold(m, C)

    def test_threshold_separates_the_bounds(self, registry):
        # direct evaluation on either side of the real crossover point
        _, c2 = chebyshev_constants()
        t = exp_threshold(1.11, c2)
        shifted, scaled = registry["pan_upper"], registry["cheb_upper"]
        hi = math.ceil(t)
        lo = math.floor(t) - 1
        assert evaluate(shifted, hi).value <= evaluate(scaled, hi).value
        assert evaluate(shifted, lo).value > evaluate(scaled, lo).value


class TestDeterminism:
    def test_rerun_is_identical(self, registry):
        a = verify_pi(registry["cheb_upper"], U, 96000, 112006)
        b = verify_pi(registry["cheb_upper"], U, 96000, 112006)
        assert a == b

    def test_segmentation_independence(self, registry, monkeypatch):
        a = verify_pi(registry["cheb_upper"], U, 90000, 112006)
        monkeypatch.setattr(scan, "SCAN_SEGMENT", 1111)
        b = verify_pi(registry["cheb_upper"], U, 90000, 112006)
        assert a == b


def with_small_blocks(monkeypatch, scan_call):
    """scan_call() with the default segment cap and pieces, and its result with
    a small cap, starting pieces and base case."""
    default = scan_call()
    monkeypatch.setattr(scan, "SCAN_SEGMENT", 1111)
    monkeypatch.setattr(scan, "STRETCH", 97)
    monkeypatch.setattr(scan, "BASE_CASE", 5)
    return default, scan_call()


class TestBlockIndependence:
    """Neither the segment cap nor the piece widths change a result."""

    def test_crossover_c13(self, registry, monkeypatch):
        f, g = registry["dusart_upper"], registry["pan_upper"]
        default, small = with_small_blocks(
            monkeypatch, lambda: analytic_crossover(f, g, 30, 50000))
        assert default.threshold == 28516 and default.sign_changes == 1
        assert small == default

    def test_sandwich(self, monkeypatch):
        default, small = with_small_blocks(
            monkeypatch, lambda: verify_sandwich(2, 200_000))
        assert default.status is Status.PASS
        assert small == default

    @pytest.mark.parametrize("name, direction", [("psi_upper", U), ("psi_lower", L)])
    def test_psi(self, registry, monkeypatch, name, direction):
        b = registry[name]
        default, small = with_small_blocks(
            monkeypatch, lambda: verify_psi(b, direction, 30, 200_000))
        assert default.status is Status.PASS
        assert small == default

    def test_c8b_violations(self, registry, monkeypatch):
        b = registry["pan_upper"]

        def both():
            return last_violation(b, U, 4, 100_000), count_violations(b, U, 4, 100_000)

        default, small = with_small_blocks(monkeypatch, both)
        assert default[0].last_failure == 24254 and default[1] == 19
        assert small == default

    def test_segment_edges_through_failures_change_no_result(self, registry, monkeypatch):
        # cheb_upper fails on most runs below 96098, so a cap of 97 integers
        # compared whole a level leaves failures and sign changes for later levels
        b = registry["cheb_upper"]

        def results():
            return (verify_pi(b, U, 30, 120_000), last_violation(b, U, 30, 120_000),
                    count_violations(b, U, 30, 120_000))

        whole = results()  # the default cap
        assert whole[1].sign_changes > 100
        monkeypatch.setattr(scan, "SCAN_SEGMENT", 97)
        assert results() == whole

    def test_a_cap_of_two_integers_a_call_changes_no_result(self, registry, monkeypatch):
        # with a cap of 2 whole integers a margins call, a level compares its
        # whole pieces in many calls, and the cuts join the last one
        b = registry["legendre_a"]

        def results():
            return (verify_pi(b, U, 43557, 44557), count_violations(b, U, 43557, 44557),
                    last_violation(b, U, 43557, 44557))

        default, small = with_small_blocks(monkeypatch, results)
        assert default[1] == 594 and default[2].sign_changes == 25
        assert small == default
        monkeypatch.setattr(scan, "SCAN_SEGMENT", 2)
        assert results() == default

    def test_ambiguous_points_between_a_pass_and_a_fail_keep_their_order(self):
        # 10 passes, 13-15 are ambiguous, and the fails 16 and 20 enclose the
        # inside of a piece decided FAIL
        ns = np.array([10, 13, 14, 15, 16, 20])
        diff = np.array([5.0, 0.5, -0.5, 0.0, -3.0, -4.0])
        out = scan._classify(diff, np.ones(ns.size), ns)
        assert out.ambiguous == [13, 14, 15]
        assert out.state_changes == 1  # pass to fail across the ambiguous points
        assert (out.points, out.fail_count, out.last_fail) == (11, 5, 20)
        assert (out.witness, out.margin) == (20, -4.0)

    def test_only_gaps_between_failing_neighbours_count_as_failures(self):
        # fail, fail, pass, pass, fail: of the gaps 3, 3, 4 and 5 between
        # neighbours, only the first lies between two failures
        ns = np.array([1, 5, 9, 14, 20])
        diff = np.array([-2.0, -2.0, 2.0, 2.0, -2.0])
        out = scan._classify(diff, np.ones(ns.size), ns)
        assert (out.points, out.fail_count, out.state_changes) == (20, 6, 2)


@st.composite
def compared(draw):
    """A range's compared integers in ascending order, their diffs and guards,
    drawn from few values so that ties are common, and an order to compare
    them in that keeps the range's first integer first."""
    ns = sorted(draw(st.sets(st.integers(2, 10**6), min_size=1, max_size=30)))
    k = len(ns)
    diff = draw(st.lists(st.sampled_from([-3.0, -1.0, 0.5, 2.0, 5.0]),
                         min_size=k, max_size=k))
    guard = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=k, max_size=k))
    order = [0, *draw(st.permutations(range(1, k)))]
    return np.array(ns), np.array(diff), np.array(guard), np.array(order)


class TestClassifyOrder:
    """_classify takes the compared integers in the order a scan compared
    them, and sorts them only when something fails."""

    @settings(max_examples=200, deadline=None)
    @given(compared())
    def test_any_order_classifies_as_the_ascending_one(self, case):
        ns, diff, guard, order = case
        ascending = scan._classify(diff, guard, ns)
        assert scan._classify(diff[order], guard[order], ns[order]) == ascending

    @pytest.mark.parametrize("diff, witness, ambiguous, fail_count", [
        ([3.0, 0.5, 2.0, 0.5, 4.0], 5, [], 0),  # a tie at the least diff: the earliest wins
        ([3.0, 0.1, 2.0, -0.2, 0.0], 14, [5, 14, 20], 0),  # ambiguous points, ascending
        ([2.0] * 5, 2, [], 0),  # equal diffs throughout: lo
        ([1.0, -1.0, 2.0, -1.0, -1.0], 20, [], 8),  # 14 to 20 fail, and 5
    ])
    @settings(max_examples=30, deadline=None)
    @given(rest=st.permutations(range(1, 5)))
    def test_named_cases_in_any_order(self, diff, witness, ambiguous, fail_count, rest):
        ns, diff, guard = np.array([2, 5, 9, 14, 20]), np.array(diff), np.full(5, 0.25)
        order = np.array([0, *rest])
        out = scan._classify(diff[order], guard[order], ns[order])
        assert out == scan._classify(diff, guard, ns)
        assert (out.witness, out.ambiguous, out.fail_count) == (witness, ambiguous, fail_count)


def per_sign_chord(f, g, a, b, at_a, at_b):
    """The chord bracket's decisions as two tests, every integer PASS or every
    one FAIL, one per sign of d."""
    slack = scan._CERT_SLACK
    start = max(f.guard_increase_start(), g.guard_increase_start())
    xs = a.astype(np.float64)
    logs = np.log(xs)
    sag = (f.curvature(xs, logs) + g.curvature(xs, logs)) * ((b - a) ** 2 / 8.0)
    sag *= 1.0 + slack
    bar = 2.0 * (1.0 + slack) * np.where(a >= start, np.maximum(at_a[1], at_b[1]), np.inf)
    decided = np.zeros(a.size, dtype=bool)
    for sign in (1.0, -1.0):
        low = np.minimum(sign * at_a[0] - at_a[1], sign * at_b[0] - at_b[1])
        decided |= low * (1.0 - slack) - sag > bar
    return decided


class TestBracketFolds:
    """The brackets fold their tests into fewer numpy calls, and decide as the
    formulas they fold."""

    @pytest.mark.parametrize("start", [1000, 1000.5])
    @pytest.mark.parametrize("lo, hi, below", [(-500, 500, "some"), (0, 1000, "none"),
                                               (-1000, 0, "all")])
    def test_stretch_guard_is_the_larger_end_or_inf(self, start, lo, hi, below):
        # pieces start from lo to hi - 1 integers past start, rounded up, in no
        # order, as a frontier holds them: the first starts at the last
        rng = np.random.default_rng(2031)
        a = math.ceil(start) + rng.integers(lo, hi, 500)
        a[:2] = math.ceil(start) + np.array([hi - 1, lo])
        at_a, at_b = rng.uniform(0.0, 1.0, (2, 500))
        at_b[::7] = at_a[::7]  # ties between the ends
        expected = np.where(a >= start, np.maximum(at_a, at_b), np.inf)
        got = scan._stretch_guard(a, start, at_a, at_b)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        inf = np.isinf(got)
        assert {"none": not inf.any(), "some": 0 < inf.sum() < inf.size,
                "all": inf.all()}[below]

    @pytest.mark.parametrize("f, g", [("dusart_upper", "pan_upper"),
                                      ("dusart_upper", "legendre_a"),
                                      ("cheb_upper", "pan_lower")])
    def test_chord_decides_as_its_two_sign_tests(self, registry, f, g):
        f, g = registry[f], registry[g]
        rng = np.random.default_rng(2032)
        n = 4000
        start = max(f.guard_increase_start(), g.guard_increase_start())
        a = rng.integers(math.floor(start) - 20, 10**6, n)
        b = a + rng.integers(1, 4097, n)
        guards = rng.uniform(1e-12, 1e-8, (2, n))
        xs = a.astype(np.float64)
        sag = (f.curvature(xs, np.log(xs)) + g.curvature(xs, np.log(xs))) * ((b - a) ** 2 / 8.0)
        # ends around the threshold of a decision, of one sign mostly, some exact ties
        need = (sag + 2.0 * guards.max(axis=0)) + guards
        jitter = 1.0 + scan._CERT_SLACK * rng.uniform(-4.0, 4.0, (2, n))
        sign = np.where(rng.random((2, n)) < 0.9, 1.0, -1.0) * rng.choice([1.0, -1.0], n)
        diffs = sign * need * jitter
        diffs[rng.random((2, n)) < 0.05] = 0.0
        at_a, at_b = np.stack((diffs[0], guards[0])), np.stack((diffs[1], guards[1]))

        decided, low = scan._chord(f, g)(a, b, at_a, at_b, 0.0)
        expected = per_sign_chord(f, g, a, b, at_a, at_b)
        assert decided.tolist() == expected.tolist()
        assert np.isinf(low).all()
        # both signs are decided, and neither always
        for side in (diffs[0] > 0, diffs[0] < 0):
            assert 0 < np.count_nonzero(expected & side) < np.count_nonzero(side)
        assert not expected[(diffs == 0.0).any(axis=0) | (a < start)].any()


class TestConcurrency:
    def test_concurrent_table_builds_agree(self):
        primes.clear_caches()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda _: int(primes.cumulative_pi(200_000)[200_000]), range(16))
            )
        assert set(results) == {17984}

    def test_concurrent_scans_agree(self, registry):
        def job(_):
            return verify_pi(registry["unit_lower"], L, 17, 50_000)

        with ThreadPoolExecutor(max_workers=6) as pool:
            verdicts = list(pool.map(job, range(12)))
        assert all(v == verdicts[0] for v in verdicts)


class TestDegenerateRanges:
    def test_single_point_verify(self, registry):
        v = verify_pi(registry["unit_lower"], L, 100, 100)
        assert v.points_checked == 1
        assert v.status is Status.PASS

    def test_single_point_crossover(self, registry):
        res = analytic_crossover(registry["dusart_upper"], registry["pan_upper"], 30000, 30000)
        assert res.threshold == 30000
        with pytest.raises(CrossoverNotFoundError):
            analytic_crossover(registry["dusart_upper"], registry["pan_upper"], 20000, 20000)


class TestGuardBand:
    def test_margins_dwarf_guards_at_registry_points(self, registry):
        # closest decision in the registry window: |margin| ~ 0.08 at 96097
        b = registry["cheb_upper"]
        v = verify_pi(b, U, 96097, 96097)
        guard = max(
            evaluate(b, 96097).abs_error_bound, evaluate(b, 96098).abs_error_bound
        )
        assert abs(v.min_margin) > 1e3 * guard

    def test_no_ambiguity_in_core_scans(self, registry):
        for name, d, lo, hi in [
            ("cheb_upper", U, 96098, 112006),
            ("unit_lower", L, 17, 10**5),
            ("d125506", U, 17, 10**5),
        ]:
            v = verify_pi(registry[name], d, lo, hi)
            assert v.ambiguous_points == []
