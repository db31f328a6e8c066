import math
import random
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pibounds import cli, primes, scan
from pibounds.bounds import builtin_bounds
from pibounds.errors import ConfigurationError, ResourceLimitError
from pibounds.primes import (
    cumulative_pi,
    pi_at,
    pi_oracle_trial_division,
    pi_point_legendre,
    psi_at,
    sieve_segment,
)
from pibounds.scan import Direction


def refused(query):
    with pytest.raises(ResourceLimitError) as info:
        query()
    return str(info.value)


def cli_refused(capsys, *argv):
    assert cli.main(list(argv)) == 2
    return capsys.readouterr().err


def flagged(lo, hi, base):
    bits = sieve_segment(lo, hi, base)
    return [lo + i for i, b in enumerate(bits) if b]


class TestSieveSegment:
    def test_first_decade(self):
        assert flagged(2, 12, [2, 3]) == [2, 3, 5, 7, 11]

    def test_ninety_to_hundred(self):
        # trial division over the decade gives 97 as the only prime
        assert flagged(90, 100, [2, 3, 5, 7]) == [97]

    def test_singleton_prime(self):
        assert flagged(7, 7, [2]) == [7]
        assert flagged(97, 97, [2, 3, 5, 7]) == [97]

    def test_singleton_composite(self):
        assert flagged(91, 91, [2, 3, 5, 7]) == []

    def test_extra_and_unsorted_base_entries_are_harmless(self):
        assert flagged(2, 12, [9, 3, 2, 4]) == [2, 3, 5, 7, 11]

    def test_missing_base_primes(self):
        with pytest.raises(ConfigurationError):
            sieve_segment(2, 200, [2, 3, 5])

    def test_bad_range(self):
        with pytest.raises(ValueError):
            sieve_segment(1, 10, [2, 3])
        with pytest.raises(ValueError):
            sieve_segment(10, 9, [2, 3])

    @pytest.mark.parametrize("r", [2, 3, 4, 48, 2237])
    def test_every_integer_up_to_the_root_as_base(self, r):
        # how the table build finds its base primes
        expect = [n for n in range(2, r + 1) if primes.is_prime_trial(n)]
        assert flagged(2, r, range(2, isqrt(r) + 1)) == expect


def eratosthenes(limit):
    """Unsegmented uint8 primality indicator for 0..limit."""
    flags = np.ones(limit + 1, dtype=np.uint8)
    flags[:2] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = 0
    return flags


def psi_steps_per_power(limit):
    """psi_steps built with one loop step per prime power, in the same sum order."""
    ps = np.flatnonzero(eratosthenes(limit)).astype(np.int64)
    logs = np.log(ps.astype(np.float64))
    positions, values = [ps], [logs]
    for p, lp in zip(ps.tolist(), logs.tolist()):
        power = p * p
        while power <= limit:
            positions.append(np.array([power], dtype=np.int64))
            values.append(np.array([lp], dtype=np.float64))
            power *= p
    pos = np.concatenate(positions)
    order = np.argsort(pos, kind="stable")
    out = np.empty(pos.size, dtype=np.float64)
    total = carry = 0.0
    for i, t in enumerate(np.concatenate(values)[order].tolist()):
        y = t - carry
        s = total + y
        carry = (s - total) - y
        total = s
        out[i] = total
    return pos[order], out


class TestTableEdges:
    """Table builds at the edges of a sieve segment and of a prime power."""

    SEG = primes.SEGMENT_LENGTH

    @pytest.mark.parametrize("limit", [SEG - 1, SEG, SEG + 1, 2 * SEG + 5])
    def test_bitmap_matches_one_unsegmented_pass(self, limit):
        primes.clear_caches()
        bitmap = primes._prime_bitmap(limit)
        expect = eratosthenes(limit)
        assert bitmap.dtype == expect.dtype
        assert np.array_equal(bitmap, expect)

    @pytest.mark.parametrize("limit", [
        2**20 - 1, 2**20, 2**20 + 1, 3**12 - 1, 3**12, 3**12 + 1,
    ])
    def test_psi_steps_match_the_per_power_loop(self, limit):
        primes.clear_caches()
        pos, val = primes.psi_steps(limit)
        expect_pos, expect_val = psi_steps_per_power(limit)
        assert pos.dtype == expect_pos.dtype and val.dtype == expect_val.dtype
        assert np.array_equal(pos, expect_pos)
        assert val.tobytes() == expect_val.tobytes()


class TestPiTable:
    """cumulative_pi, the shared table of pi(n) from n = 0."""

    def test_first_ten(self):
        assert cumulative_pi(10)[1:11].tolist() == [0, 1, 2, 2, 3, 3, 4, 4, 4, 4]

    def test_documented_counterexample_points(self):
        assert cumulative_pi(96097)[96097] == 9260
        assert cumulative_pi(100)[100] == 25

    def test_from_zero(self):
        assert cumulative_pi(4)[:5].tolist() == [0, 0, 1, 2, 2]

    def test_monotone_unit_steps(self):
        counts = cumulative_pi(5000)[1000:5001]
        steps = np.diff(counts)
        assert set(steps.tolist()) <= {0, 1}
        assert counts[-1] - counts[0] == steps.sum()

    @given(lo=st.integers(0, 2000), width=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_steps_mark_exactly_the_primes(self, lo, width):
        counts = cumulative_pi(lo + width)[lo : lo + width + 1]
        for i in range(1, width + 1):
            is_step = counts[i] - counts[i - 1] == 1
            assert is_step == primes.is_prime_trial(lo + i)


class TestPiAt:
    def test_documented_values(self):
        assert pi_at(16.999) == 6
        assert pi_at(100) == 25

    def test_small(self):
        assert pi_at(0) == 0
        assert pi_at(1.5) == 0
        assert pi_at(2) == 1

    def test_floor_semantics(self):
        assert pi_at(28.9) == pi_at(28)
        assert pi_at(29.0) == pi_at(28) + 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pi_at(-1)

    def test_matches_trial_division_oracle(self):
        count = 0
        for x in range(0, 2001):
            if primes.is_prime_trial(x):
                count += 1
            assert pi_at(x) == count

    def test_dispatches_past_cap(self):
        # force the Legendre route by shrinking the cap
        assert pi_at(10**6, cap=10**4) == 78498


class TestLegendre:
    def test_trivial(self):
        assert pi_point_legendre(4) == 2
        assert pi_point_legendre(2) == 1

    def test_documented_counterexample_points(self):
        assert pi_point_legendre(96097) == 9260
        assert pi_point_legendre(10**6) == 78498

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            pi_point_legendre(1)

    def test_ceiling_is_the_cap_squared(self):
        assert pi_point_legendre(10**6, cap=1000) == 78498
        top = 1001**2 - 1
        assert pi_point_legendre(top, cap=1000) == int(primes.cumulative_pi(top)[top])
        with pytest.raises(ResourceLimitError):
            pi_point_legendre(1001**2, cap=1000)
        with pytest.raises(ResourceLimitError):
            pi_point_legendre(10**30)
        with pytest.raises(ResourceLimitError):
            pi_at(10**30)

    @pytest.mark.parametrize("query", [
        lambda cap: pi_at(1000, cap=cap),
        lambda cap: pi_point_legendre(10**6, cap=cap),
        lambda cap: primes.psi_at(1000, cap=cap),
    ], ids=["pi_at", "pi_point_legendre", "psi_at"])
    def test_cap_above_the_ceiling_is_refused_first(self, no_tables, query):
        with pytest.raises(ResourceLimitError, match="MAX_CAP"):
            query(primes.MAX_CAP + 1)

    def test_agrees_with_sieve_on_samples(self):
        counts = primes.cumulative_pi(2237**2)
        rng = random.Random(1234)
        samples = [rng.randint(2, 10**6) for _ in range(60)]
        # the update for p starts at p*p, so off-by-one faults show there
        for p in primes.prime_array(2236).tolist():
            samples += [p * p - 1, p * p, p * p + 1]
        for x in samples:
            assert pi_point_legendre(x) == int(counts[x]), x


class TestEntryChecks:
    """Every entry point refuses bad input by name, before any table."""

    @pytest.mark.parametrize("x", [math.inf, math.nan, -1])
    @pytest.mark.parametrize("query", [pi_at, pi_point_legendre, psi_at],
                             ids=["pi_at", "pi_point_legendre", "psi_at"])
    def test_non_finite_and_low_inputs_are_named(self, no_tables, query, x):
        with pytest.raises(ValueError, match=f"got {x}$"):
            query(x)

    @pytest.mark.parametrize("refusal", [
        lambda capsys: refused(lambda: psi_at(1001, cap=1000)),
        lambda capsys: refused(lambda: pi_point_legendre(1001**2, cap=1000)),
        lambda capsys: refused(lambda: scan.verify_pi(
            builtin_bounds()["cheb_upper"], Direction.UPPER_STRICT, 30, 1001, cap=1000)),
        lambda capsys: cli_refused(capsys, "--cap", "1000", "pi", "1001", "--method", "sieve"),
    ], ids=["psi_at", "pi_point_legendre", "scan", "pi --method sieve"])
    def test_every_cap_site_gives_the_shared_text(self, no_tables, capsys, refusal):
        assert "exceeds the scan cap 1000; raise the cap to allow it" in refusal(capsys)


def log_lcm(n):
    v = 1
    for k in range(2, n + 1):
        v = math.lcm(v, k)
    return math.log(v)


class TestPsi:
    def test_empty(self):
        for x in (0, 1):
            res = psi_at(x)
            assert res.value == 0.0 and res.term_count == 0

    def test_against_lcm_oracle(self):
        # psi(x) = log lcm(1..x); lcm computed with exact big integers
        for x in (2, 10, 30, 100, 300):
            res = psi_at(x)
            expect = log_lcm(x)
            assert abs(res.value - expect) <= 1e-12 * max(1.0, expect)

    def test_exhaustive_lcm_small(self):
        for x in range(2, 301):
            res = psi_at(x)
            expect = log_lcm(x)
            assert abs(res.value - expect) <= 1e-12 * max(1.0, expect)

    def test_term_count_is_prime_power_count(self):
        count = 0
        for n in range(2, 101):
            least = min(f for f in range(2, n + 1) if n % f == 0)
            m = n
            while m % least == 0:
                m //= least
            if m == 1:  # n is a power of its least prime factor
                count += 1
        assert psi_at(100).term_count == count

    def test_jumps_equal_von_mangoldt(self):
        # psi(n) - psi(n-1) is log p at prime powers p^k and 0 elsewhere;
        # differencing f64 prefixes adds up to one ulp of the prefix magnitude
        table = primes.psi_array(10**4)
        for n in range(2, 10**4 + 1):
            jump = table[n] - table[n - 1]
            f = 2
            m = n
            while f * f <= m and m % f:
                f += 1
            least = f if f * f <= m else m
            q = n
            while q % least == 0:
                q //= least
            expect = math.log(least) if q == 1 else 0.0
            assert abs(jump - expect) <= 1e-12 + math.ulp(table[n])

    def test_jumps_exact_between_prime_powers(self):
        # between prime powers the prefix value is copied, so jumps are 0.0 exactly
        table = primes.psi_array(100)
        for n in (6, 10, 12, 15, 18, 20, 21, 22, 24, 90, 91, 95, 96, 100):
            assert table[n] - table[n - 1] == 0.0

    def test_error_bound_recorded(self):
        res = psi_at(1000)
        assert 0 < res.error_bound <= 1e-9 * max(1.0, res.value)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            psi_at(100, cap=50)

    def test_table_matches_point_queries(self):
        table = primes.psi_array(500)
        for x in range(501):
            assert psi_at(x).value == table[x], x

    @pytest.mark.parametrize("limit, grown_from", [
        (0, None), (1, None), (2, None), (3, None), (4, None), (100, None),
        (10**5, None), (10**5, 100),
    ])
    def test_table_matches_searchsorted_construction(self, limit, grown_from):
        def by_search(limit):
            pos, val = primes.psi_steps(max(limit, 2))
            idx = np.searchsorted(pos, np.arange(limit + 1, dtype=np.int64), side="right")
            return np.concatenate([[0.0], val])[idx]

        primes.clear_caches()
        if grown_from is not None:
            primes.psi_array(grown_from)
        assert np.array_equal(primes.psi_array(limit), by_search(limit))

    def test_table_growth_keeps_point_values(self):
        primes.clear_caches()
        reused = [psi_at(5000), psi_at(10), psi_at(5000)]
        fresh = []
        for x in (5000, 10, 5000):
            primes.clear_caches()
            fresh.append(psi_at(x))
        assert reused == fresh


class TestSandwichInvariant:
    def test_integers_up_to_1e4(self):
        counts = primes.cumulative_pi(10**4)
        table = primes.psi_array(10**4)
        for n in range(2, 10**4 + 1):
            pil = int(counts[n]) * math.log(n)
            assert table[n] <= pil <= 2 * table[n]


class TestTrialDivisionOracle:
    def test_examples(self):
        assert pi_oracle_trial_division(30) == 10
        assert pi_oracle_trial_division(2) == 1
        assert pi_oracle_trial_division(0) == 0

    def test_refuses_beyond_cap(self):
        with pytest.raises(ResourceLimitError):
            pi_oracle_trial_division(100_001)
