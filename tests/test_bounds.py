import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pibounds import scan
from pibounds.bounds import (
    DusartSeries,
    PsiAffine,
    ScaledLog,
    ShiftedLog,
    builtin_bounds,
    chebyshev_constants,
    evaluate,
)
from pibounds.errors import DomainError
from pibounds.primes import DEFAULT_CAP, SEGMENT_LENGTH

from numerics import integers_where_log_differs, point_sample, points_off_the_kernel


class TestConstants:
    def test_c1_decimal(self):
        c1, _ = chebyshev_constants()
        assert abs(c1 - 0.921292022934) <= 1e-11

    def test_c2_decimal(self):
        _, c2 = chebyshev_constants()
        assert abs(c2 - 1.10555042752) <= 1e-10

    def test_definitional_ratio(self):
        c1, c2 = chebyshev_constants()
        assert abs(c2 / c1 - 1.2) <= 2 * math.ulp(1.2)

    def test_built_from_logs_not_decimals(self):
        c1, _ = chebyshev_constants()
        expect = (
            0.5 * math.log(2) + math.log(3) / 3 + math.log(5) / 5 - math.log(30) / 30
        )
        assert c1 == expect


class TestRegistry:
    def test_names(self, registry):
        assert list(registry) == [
            "cheb_lower", "cheb_upper", "cheb_upper_2x", "unit_lower",
            "d1095", "d125506", "dusart_lower", "dusart_upper",
            "pan_lower", "pan_upper", "legendre_a", "psi_upper", "psi_lower",
        ]

    def test_pan_upper(self, registry):
        b = registry["pan_upper"]
        assert isinstance(b, ShiftedLog)
        assert b.shift == 1.11
        assert b.valid_from == 4

    def test_dusart_upper(self, registry):
        b = registry["dusart_upper"]
        assert isinstance(b, DusartSeries)
        assert b.k == 2.51
        assert b.valid_from == 355991

    def test_unit_lower(self, registry):
        b = registry["unit_lower"]
        assert isinstance(b, ScaledLog)
        assert b.scale == 1.0
        assert b.valid_from == 17

    def test_remaining_valid_from(self, registry):
        expect = {
            "cheb_lower": 30, "cheb_upper": 96098, "cheb_upper_2x": 30,
            "d1095": 284860, "d125506": 17, "dusart_lower": 32299,
            "pan_lower": 3299, "legendre_a": 10**6, "psi_upper": 30, "psi_lower": 30,
        }
        for name, vf in expect.items():
            assert registry[name].valid_from == vf

    def test_psi_coefficients(self, registry):
        c1, c2 = chebyshev_constants()
        up = registry["psi_upper"]
        assert isinstance(up, PsiAffine)
        assert up.slope == c2
        assert up.log2_coeff == 5.0 / (4.0 * math.log(6.0))
        assert up.log_coeff == 1.25 and up.offset == 1.0
        lo = registry["psi_lower"]
        assert (lo.slope, lo.log2_coeff, lo.log_coeff, lo.offset) == (c1, 0.0, -2.5, -1.0)

    def test_pan_lower_shift_is_a_quotient(self, registry):
        assert registry["pan_lower"].shift == 28.0 / 29.0

    def test_every_bound_evaluates_at_valid_from(self, registry):
        for b in registry.values():
            res = evaluate(b, b.valid_from)
            assert math.isfinite(res.value)
            assert res.abs_error_bound >= 0

    def test_shifted_log_valid_from_above_domain(self, registry):
        for b in registry.values():
            if isinstance(b, ShiftedLog):
                assert b.valid_from > math.exp(b.shift)

    def test_instances_are_built_once_and_each_call_gets_its_own_dict(self):
        # so each instance bisects its turning point once per process, and a
        # caller may still change the dict it gets without touching the next
        first, second = builtin_bounds(), builtin_bounds()
        assert first is not second
        assert all(first[name] is second[name] for name in second)
        del first["cheb_upper"]
        first["dusart_upper"] = first["pan_upper"]
        again = builtin_bounds()
        assert list(again) == list(second)
        assert all(again[name] is second[name] for name in second)


class TestEvaluate:
    def test_cheb_upper_at_100(self, registry):
        res = evaluate(registry["cheb_upper"], 100)
        assert abs(res.value - 24.0067225069) <= 1e-9

    def test_cheb_upper_at_96097(self, registry):
        res = evaluate(registry["cheb_upper"], 96097)
        assert abs(res.value - 9259.92) <= 0.005

    def test_unit_lower_just_under_17(self, registry):
        res = evaluate(registry["unit_lower"], 16.999)
        assert abs(res.value - 6.0000257) <= 5e-7

    def test_domain_error_names_bound_and_point(self, registry):
        with pytest.raises(DomainError) as err:
            evaluate(registry["pan_upper"], 3)
        assert "pan_upper" in str(err.value)
        assert "3" in str(err.value)

    def test_domain_edges(self, registry):
        with pytest.raises(DomainError):
            evaluate(registry["unit_lower"], 1.0)
        with pytest.raises(DomainError):
            evaluate(registry["dusart_upper"], 0.5)
        assert evaluate(registry["pan_upper"], 4).value > 0

    @pytest.mark.parametrize("x", [10**400, -(10**400), Fraction(10**401 + 1, 10)],
                             ids=["1e400", "-1e400", "fraction"])
    def test_a_number_beyond_every_float_is_refused_and_quoted_short(self, registry, x):
        # math.isfinite raises OverflowError on such an int or Fraction
        with pytest.raises(DomainError, match=r"float range, got x=-?1\.000000e\+400$") as err:
            evaluate(registry["unit_lower"], x)
        assert len(str(err.value)) < 200

    def test_a_point_value_is_the_scans_kernel_value_bit_for_bit(self):
        # evaluate runs the kernel on a float64 scalar; the scans run it on
        # arrays.  The integers where numpy's log differs from libm's are where
        # a scalar path through libm would show
        xs = list(integers_where_log_differs()) + point_sample(2000, seed=32)
        assert points_off_the_kernel(xs) == []

    def test_scaled_log_two_evaluation_orders_agree(self):
        # c*(x/log x) vs (c*x)/log x within 4 ulp
        rng = random.Random(97)
        c = 1.105550427520909
        for _ in range(10_000):
            x = rng.uniform(2.0, 1e7)
            L = math.log(x)
            a = c * (x / L)
            b = (c * x) / L
            assert abs(a - b) <= 4 * math.ulp(max(abs(a), abs(b)))

    def test_dusart_direct_vs_horner(self, registry):
        b = registry["dusart_upper"]
        rng = random.Random(31)
        for _ in range(2000):
            x = rng.uniform(2.0, 1e7)
            direct = evaluate(b, x).value
            t = 1.0 / math.log(x)
            horner = x * t * (1.0 + t * (1.0 + 2.51 * t))
            assert abs(direct - horner) <= 1e-12 * abs(direct)

    def test_upper_is_six_fifths_of_lower(self, registry):
        up, low = registry["cheb_upper"], registry["cheb_lower"]
        rng = random.Random(5)
        for _ in range(2000):
            x = rng.uniform(2.0, 1e7)
            a = evaluate(up, x).value
            b = 1.2 * evaluate(low, x).value
            assert abs(a - b) <= 1e-13 * abs(a)

    def test_error_bound_stays_tiny(self, registry):
        rng = random.Random(11)
        for b in registry.values():
            start = max(2.0, b.domain_start() * 1.2, b.valid_from / 100.0)
            for _ in range(500):
                x = rng.uniform(start, 1e7)
                res = evaluate(b, x)
                assert res.abs_error_bound <= 1e-9 * max(1.0, abs(res.value))

    @given(x=st.floats(min_value=2.0, max_value=1e12))
    @settings(max_examples=200, deadline=None)
    def test_scaled_log_matches_formula(self, x):
        res = evaluate(ScaledLog("t", 2.0, 1.095), x)
        expect = 1.095 * x / math.log(x)
        assert abs(res.value - expect) <= 4 * math.ulp(expect) + res.abs_error_bound


class TestMonotonicity:
    def test_unit_lower_examples(self, registry):
        # x / log x turns at e: decreasing on [2, 2.5], increasing from 3
        assert 2.5 < registry["unit_lower"].increase_start() < 3

    def test_pan_upper_increasing_from_30(self, registry):
        # log 30 > 1.11 + 1, so the derivative is positive there; log 4 < 2.11
        assert 4 < registry["pan_upper"].increase_start() < 30

    def test_psi_lower_turn(self, registry):
        b = registry["psi_lower"]
        c1, _ = chebyshev_constants()
        assert abs(b.increase_start() - 2.5 / c1) < 1e-9
        assert b.increase_start() < 3

    def test_psi_upper_always_increasing(self, registry):
        assert registry["psi_upper"].increase_start() == 1.0

    def test_dusart_turn_bracketing(self, registry):
        # derivative numerator changes sign across the turning point
        for name in ("dusart_lower", "dusart_upper"):
            b = registry[name]
            x = b.increase_start()
            k = b.k
            for mult, sign in ((0.99, -1), (1.01, 1)):
                L = math.log(x * mult)
                num = L**3 + (k - 2) * L - 3 * k
                assert math.copysign(1, num) == sign

    def test_shifted_turn(self, registry):
        b = registry["pan_upper"]
        assert abs(b.increase_start() - math.exp(2.11)) < 1e-12

    @pytest.mark.parametrize("name", list(builtin_bounds()))
    def test_float_values_and_guards_never_fall_past_the_one_end_start(self, name):
        # a scan compares each integer n from scan._one_end_start on at one slab
        # end, B(n) for an upper check and B(n + 1) for a lower one.  Where the
        # float values and guards never fall, that end is also the lesser or the
        # greater of the two float ends, so every diff and every lower check's
        # guard equals its two-end comparison bit for bit, up to the default cap
        b = builtin_bounds()[name]
        for lo in range(scan._one_end_start(b), DEFAULT_CAP + 1, SEGMENT_LENGTH):
            hi = min(lo + SEGMENT_LENGTH, DEFAULT_CAP + 1)  # windows share their ends
            xs = np.arange(lo, hi + 1, dtype=np.float64)
            vals, errs = b.values_with_error(xs, np.log(xs))
            for row in (vals, errs):
                falls = np.flatnonzero(np.diff(row) < 0)
                assert not falls.size, xs[falls[:5]]


class TestVariantValidation:
    def test_scaled_log_needs_positive_scale(self):
        with pytest.raises(ValueError):
            ScaledLog("bad", 2.0, -1.0)

    def test_dusart_needs_positive_k(self):
        with pytest.raises(ValueError):
            DusartSeries("bad", 2.0, 0.0)

    def test_psi_affine_shape_guard(self):
        with pytest.raises(ValueError):
            PsiAffine("bad", 2.0, -1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PsiAffine("bad", 2.0, 1.0, -1.0, 0.0, 0.0)

    def test_psi_affine_log2_coeff_stays_within_its_guard(self):
        # the 4 eps guard covers the log^2 term's rounding while log2_coeff <= 7 slope
        PsiAffine("edge", 2.0, 1.0, 7.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="log2_coeff <= 7"):
            PsiAffine("bad", 2.0, 1.0, 7.001, 0.0, 0.0)
