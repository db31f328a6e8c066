import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pibounds import primes, scan
from pibounds.bounds import chebyshev_constants, evaluate
from pibounds.errors import CrossoverNotFoundError, DomainError, ResourceLimitError
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

    def test_domain_validation(self, registry):
        with pytest.raises(DomainError):
            verify_pi(registry["pan_upper"], U, 3, 10)

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
        v = verify_sandwich(2, 2)
        assert v.status is Status.PASS

    def test_range_validation(self):
        with pytest.raises(ResourceLimitError):
            verify_sandwich(2, 100, cap=50)


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
        # a tie passes as a diff of inf, yet its margin, taken at lo, is 0
        assert res.min_margin == 0.0
        assert res.guard_at_witness == 2.0 * evaluate(b, 10).abs_error_bound

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
