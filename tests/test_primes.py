import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pibounds import cli, primes, scan
from pibounds.bounds import builtin_bounds, evaluate
from pibounds.errors import ResourceLimitError
from pibounds.primes import (
    cumulative_pi,
    pi_at,
    pi_point_legendre,
    psi_at,
    sieve_segment,
)
from pibounds.scan import Direction

from oracle import is_prime_trial, pi_oracle_trial_division, pi_rows_counts


def refused(query):
    with pytest.raises(ResourceLimitError) as info:
        query()
    return str(info.value)


def cli_refused(capsys, *argv):
    assert cli.main(list(argv)) == 2
    return capsys.readouterr().err


def flagged(lo, hi):
    bits = sieve_segment(lo, hi)
    return [lo + i for i, b in enumerate(bits) if b]


class TestSieveSegment:
    def test_first_decade(self):
        assert flagged(2, 12) == [2, 3, 5, 7, 11]

    def test_ninety_to_hundred(self):
        # trial division over the decade gives 97 as the only prime
        assert flagged(90, 100) == [97]

    def test_singleton_prime(self):
        assert flagged(7, 7) == [7]
        assert flagged(97, 97) == [97]

    def test_singleton_composite(self):
        assert flagged(91, 91) == []

    def test_bad_range(self):
        with pytest.raises(ValueError):
            sieve_segment(1, 10)
        with pytest.raises(ValueError):
            sieve_segment(10, 9)

    def test_an_end_above_max_cap_is_refused_at_once(self, monkeypatch):
        # the windows would sieve every base prime up to isqrt(10^14) for 11 integers
        def refuse(lo, hi):
            raise AssertionError(f"[{lo}, {hi}] was sieved")

        monkeypatch.setattr(primes, "_windows", refuse)
        assert refused(lambda: sieve_segment(10**14 - 10, 10**14)) == (
            "sieve end 100000000000000 is above MAX_CAP = 1000000000")

    def test_an_end_at_max_cap_is_sieved(self):
        lo = primes.MAX_CAP - 10
        assert flagged(lo, primes.MAX_CAP) == [
            n for n in range(lo, primes.MAX_CAP + 1) if is_prime_trial(n)]

    @pytest.mark.parametrize("r", [2, 3, 4, 48, 2237])
    def test_every_integer_up_to_the_root_as_base(self, r):
        # _windows takes the base primes from _prime_flags(isqrt(r)), as the table build does
        expect = [n for n in range(2, r + 1) if is_prime_trial(n)]
        assert flagged(2, r) == expect


class TestSieveSegmentContract:
    """sieve_segment, public, copies the windows the table build sieves into a
    fresh array of all the integers, while the build packs each window's flags
    from one buffer that the next window reuses."""

    def test_returns_fresh_arrays_and_a_build_reuses_one_buffer(self, monkeypatch):
        buffers = []
        core = primes._sieve

        def recording(buffer, lo, hi, odd):
            buffers.append(buffer)
            return core(buffer, lo, hi, odd)

        primes.clear_caches()
        monkeypatch.setattr(primes, "_sieve", recording)
        primes._rank(3 * primes.SEGMENT_LENGTH - 1)
        assert len(buffers) == 3 and all(b is buffers[0] for b in buffers)
        a = sieve_segment(2, 5000)
        b = sieve_segment(2, 5000)
        assert np.array_equal(a, b) and not np.shares_memory(a, b)
        assert not any(np.shares_memory(flags, buffers[0]) for flags in (a, b))

    @pytest.mark.parametrize("lo, hi", [
        (2, 2), (2, 100_000), (3, 3), (3, 4097),
        (primes.SEGMENT_LENGTH - 100, primes.SEGMENT_LENGTH + 100),
        (primes.SEGMENT_LENGTH, 2 * primes.SEGMENT_LENGTH - 1),
    ])
    def test_flags_equal_the_rank_words(self, lo, hi):
        found = primes.prime_array(hi)
        flags = sieve_segment(lo, hi)
        assert (np.flatnonzero(flags) + lo).tolist() == found[found >= lo].tolist()


def eratosthenes(limit):
    """Unsegmented uint8 primality indicator for 0..limit."""
    flags = np.ones(limit + 1, dtype=np.uint8)
    flags[:2] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = 0
    return flags


class TestOddWheelSieve:
    """sieve_segment sieves the odd integers from a wheel of 3, 5, 7, 11 and 13
    and strides only the odd base primes from 17 on; every range it returns
    equals one unsegmented pass over all the integers."""

    SEG = primes.SEGMENT_LENGTH
    TOP = 2 * SEG + 4096
    REFERENCE = eratosthenes(TOP)

    def check(self, lo, hi):
        flags = sieve_segment(lo, hi)
        assert flags.dtype == np.uint8 and flags.size == hi - lo + 1
        assert np.array_equal(flags, self.REFERENCE[lo : hi + 1]), (lo, hi)

    def test_every_range_from_2_to_17(self):
        for lo in range(2, 18):
            for hi in range(lo, 40):
                self.check(lo, hi)

    @pytest.mark.parametrize("parity", [0, 1], ids=["lo-even", "lo-odd"])
    def test_random_ranges(self, parity):
        rng = random.Random(18 + parity)
        for _ in range(150):
            lo = rng.randrange(2, self.TOP - 70_000) | parity
            self.check(lo, lo + rng.randrange(0, 70_000))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
    def test_singletons_at_the_wheel_primes(self, p):
        self.check(p, p)
        assert flagged(p, p) == [p]
        assert flagged(p * p, p * p) == []

    @pytest.mark.parametrize("hi", [
        64 * 1000 - 1, 64 * 1000, 64 * 1001 - 1, SEG - 1, SEG, 2 * SEG - 1, 2 * SEG,
        128 * 1000 + 1, 128 * 1000 + 127,
    ])
    def test_ranges_ending_on_a_word_or_segment_edge(self, hi):
        for lo in (2, 3, hi - 128, hi - 127, hi - 64, hi - 63, hi - self.SEG // 2, hi):
            self.check(max(lo, 2), hi)

    def test_even_composite_base_entries_are_not_strided(self):
        # the base holds no even entry, and each stride of 2p starts at an odd
        # multiple: one from an even multiple would clear the odd integers beside it
        assert flagged(2, 528) == np.flatnonzero(self.REFERENCE[:529]).tolist()
        lo = 10**6 + 1
        expect = (np.flatnonzero(self.REFERENCE[lo : lo + 5001]) + lo).tolist()
        assert flagged(lo, lo + 5000) == expect


def psi_steps_per_power(limit):
    """psi_steps built with one loop step per prime power: int32 positions, and
    each prefix the exact sum of the same float terms, rounded once."""
    ps = np.flatnonzero(eratosthenes(limit)).astype(np.int32)
    logs = np.log(ps.astype(np.float64))
    positions, values = [ps], [logs]
    for p, lp in zip(ps.tolist(), logs.tolist()):
        power = p * p
        while power <= limit:
            positions.append(np.array([power], dtype=np.int32))
            values.append(np.array([lp], dtype=np.float64))
            power *= p
    pos = np.concatenate(positions)
    order = np.argsort(pos, kind="stable")
    out = np.empty(pos.size, dtype=np.float64)
    total = 0
    for i, t in enumerate(np.concatenate(values)[order].tolist()):
        total += Fraction(t)
        out[i] = float(total)
    return pos[order], out


class TestTableEdges:
    """Table builds at the edges of a sieve segment and of a prime power."""

    SEG = primes.SEGMENT_LENGTH

    @pytest.mark.parametrize("limit", [SEG - 1, SEG, SEG + 1, 2 * SEG + 5])
    def test_bitmap_matches_one_unsegmented_pass(self, limit):
        # the primes read from the words, up to the limit and up to the end of
        # its word, which one build covers
        primes.clear_caches()
        for hi in (limit, limit | 127):
            assert np.array_equal(primes.prime_array(hi), np.flatnonzero(eratosthenes(hi)))
        assert primes.table_stats()["rank"]["builds"] == 1
        assert primes.table_stats()["rank"]["growths"] == 0

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


class TestExactPrefixSums:
    """_prefix_sums: each prefix the correctly rounded sum of its float terms."""

    def test_prefixes_past_2_to_the_26_equal_the_exact_sums_rounded_once(self):
        # psi passes 2**26 here, where the units' high part no longer fits a
        # float's 53 bits at a 26-bit split; two calls carry the total between
        rng = np.random.default_rng(16)
        terms = rng.uniform(31.8, 32.0, 2_200_000)
        terms[::97] = rng.uniform(0.5, 1.0, terms[::97].size)
        cut = 1_234_567
        first, total = primes._prefix_sums(terms[:cut], 0)
        second, total = primes._prefix_sums(terms[cut:], total)
        prefixes = np.concatenate((first, second))
        wanted = set(rng.integers(0, terms.size, 2000).tolist()) | {0, cut - 1, cut, terms.size - 1}
        exact, expect = 0, {}
        for i, t in enumerate(terms.tolist()):
            num, den = t.as_integer_ratio()
            exact += num * (2**53 // den)
            if i in wanted:
                expect[i] = float(Fraction(exact, 2**53))
        assert prefixes[-1] > 2**26 and total == exact
        assert {i: prefixes[i] for i in expect} == expect

    def test_the_int64_sums_and_the_float_halves_hold_up_to_max_cap(self):
        # numpy's int64 cumsum wraps without a warning, so nothing else would
        # catch an overflow.  Chebyshev's psi_upper bounds psi(MAX_CAP); every
        # prime power adds at least log 2 to psi, and every term is below 32
        psi = evaluate(builtin_bounds()["psi_upper"], float(primes.MAX_CAP)).value
        assert math.log(primes.MAX_CAP) < 32  # units below 2**58
        assert primes.MAX_CAP < 2**31  # psi_steps' int32 positions
        assert psi / math.log(2) < 2**31  # the low sums stay below 2**63
        assert psi * 2**21 < 2**53  # the high sums are exact floats


class TestGrownTables:
    """Tables grown through a chain of limits equal fresh builds at each limit."""

    @pytest.mark.parametrize("chain", [
        (100, 112_006, 10**6),
        (2**20 - 1, 2**20, 2**20 + 1),
        (3**12 - 1, 3**12, 3**12 + 1),
        (128 * 1000, 128 * 1000 + 127, 128 * 3000 + 127, 128 * 3001),
        (0, 1, 2, 3, 4, 8, 9, 24, 25, 63, 64, 127, 128),
        (100, 130, 255, 256, 2**20 + 3, 2**20 + 128),
        (100, 3 * 2**20 + 5),
    ], ids=["verify", "segment", "prime-power", "word", "small", "off-word", "three-segments"])
    def test_grown_bitmap_and_psi_steps_equal_fresh_builds(self, chain):
        def read(limit):
            # the higher powers, and psi read through them at the top of the range
            ns = np.arange(max(0, limit - 130), limit + 1, dtype=np.int64)
            return (primes._psi_table(limit)[2].tolist(), primes.psi_lookup(limit)(ns).tobytes(),
                    psi_at(limit))

        fresh = []
        for limit in chain:
            primes.clear_caches()
            fresh.append((*primes._rank(limit), *primes.psi_steps(limit), read(limit)))
        primes.clear_caches()
        for limit, (words, before, pos, val, reads) in zip(chain, fresh):
            grown_pos, grown_val = primes.psi_steps(limit)
            grown_words, grown_before = primes._rank(limit)
            assert np.array_equal(grown_words, words) and np.array_equal(grown_before, before)
            assert np.array_equal(grown_pos, pos) and grown_val.tobytes() == val.tobytes()
            assert read(limit) == reads
        stats = primes.table_stats()
        assert stats["rank"]["builds"] == stats["psi_steps"]["builds"] == 1
        assert stats["psi_steps"]["growths"] == len(chain) - 1

    def test_a_grown_bitmap_sieves_each_integer_once(self, monkeypatch):
        sieved = []
        core = primes._sieve

        def recording(buffer, lo, hi, odd):
            sieved.append((lo, hi))
            return core(buffer, lo, hi, odd)

        primes.clear_caches()
        monkeypatch.setattr(primes, "_sieve", recording)
        for limit in (100, 112_006, 10**6, 3 * 2**20):
            primes._rank(limit)
        assert sieved[0][0] == 0 and sieved[-1][1] == 3 * 2**20 | 127
        assert all(b[0] == a[1] + 1 for a, b in zip(sieved, sieved[1:]))
        top = 3 * 2**20
        assert np.array_equal(primes.prime_array(top), np.flatnonzero(eratosthenes(top)))


class TestBuildPeak:
    """The prime words are sieved in one reused buffer and the psi sums are
    filled a block at a time, into an array of their final size, so a cold
    build peaks near the tables it keeps: 0.094 B per integer in the prime
    words of the odd integers and their uint32 counts, and 8 B per prime power
    in the psi table's float64 prefixes, which keeps no positions."""

    def test_a_cold_psi_at_peaks_within_16_mb_of_the_tables_it_keeps(self, traced_peak):
        n = 2 * 10**7
        primes.clear_caches()
        res, peak = traced_peak(lambda: psi_at(n, cap=n))
        # the arrays the store keeps, the psi table's higher powers among them
        kept = {id(a): a.nbytes for _, table in primes._tables.values()
                for a in table if isinstance(a, np.ndarray)}
        higher = primes._psi_table(n)[2]
        assert id(higher) in kept
        powers = []
        for p in primes.prime_array(isqrt(n)).tolist():
            power = p * p
            while power <= n:
                powers.append(power)
                power *= p
        assert higher.tolist() == sorted(powers)
        assert res.term_count == pi_at(n, cap=n) + len(higher)
        assert peak < sum(kept.values()) + 16 * 10**6
        assert sum(kept.values()) < 0.10 * n + 8.1 * res.term_count

    def test_a_cold_rank_directory_peaks_within_one_segment_of_what_it_keeps(self, traced_peak):
        primes.clear_caches()
        (words, before), peak = traced_peak(lambda: primes._rank(5 * 10**6))
        # one uint8 buffer of the SEGMENT_LENGTH // 2 odd integers of a segment,
        # and that segment packed
        segment = primes.SEGMENT_LENGTH
        assert peak <= words.nbytes + before.nbytes + segment // 2 + segment // 16


class TestRankPi:
    """pi read from the rank directory over the prime words."""

    def test_equals_the_count_table_everywhere_up_to_2e5(self):
        ns = np.arange(2 * 10**5 + 1, dtype=np.int64)
        assert np.array_equal(primes.pi_lookup(ns[-1])(ns), cumulative_pi(ns[-1]))

    def test_equals_the_count_table_at_word_and_segment_edges(self):
        top = 5 * 10**6
        rng = np.random.default_rng(20260)
        edges = [k * m + d for m in (128, primes.SEGMENT_LENGTH)
                 for k in rng.integers(1, top // m, 20).tolist() for d in (-1, 0, 1, 127)]
        ns = np.array(sorted({n for n in edges + rng.integers(0, top, 2000).tolist() + [top]
                              if n <= top}), dtype=np.int64)
        counts = cumulative_pi(top)
        assert np.array_equal(primes.pi_lookup(top)(ns), counts[ns])
        assert [pi_at(n) for n in ns.tolist()] == counts[ns].tolist()


class TestWordEdges:
    """Each reader of the prime words, at the edges of their 128-integer words
    and of the sieve segments, equals an unsegmented sieve of all the integers,
    on fresh tables and on tables grown along the limits a cold verify asks for."""

    CHAIN = (100, 112_006, 10**6, 5 * 10**6)
    FLAGS = eratosthenes(CHAIN[-1])

    def edges(self, limit):
        rng = np.random.default_rng(limit)
        seg = primes.SEGMENT_LENGTH
        ks = rng.integers(0, limit // 128 + 1, 25).tolist() + [1, 2, seg // 128, 2 * seg // 128]
        ns = {128 * k + d for k in ks for d in (-1, 0, 1, 127)} | {0, 1, 2, 3, limit}
        return np.array(sorted(n for n in ns if 0 <= n <= limit), dtype=np.int64)

    def check(self, limit):
        flags = self.FLAGS[: limit + 1]
        counts = np.cumsum(flags, dtype=np.int64)
        ns = self.edges(limit)
        assert primes.pi_lookup(limit)(ns).tolist() == counts[ns].tolist()
        assert [pi_at(n) for n in ns.tolist()] == counts[ns].tolist()
        assert np.array_equal(cumulative_pi(limit), counts)
        found = primes.prime_array(limit)
        assert np.array_equal(found, np.flatnonzero(flags))
        # psi at each edge: its term count is pi(n) plus the higher powers up to
        # n, and its value the sum of log p over those prime powers
        logs = np.log(found.astype(np.float64))
        powers, power_logs = [], []
        for p, lp in zip(found[found <= isqrt(limit)].tolist(), logs.tolist()):
            power = p * p
            while power <= limit:
                powers.append(power)
                power_logs.append(lp)
                power *= p
        order = np.argsort(powers)
        powers = np.array(powers, dtype=np.int64)[order]
        terms = np.concatenate(([0.0], logs))
        dense = np.cumsum(terms)[counts[ns]]
        dense += np.concatenate(([0.0], np.cumsum(np.array(power_logs)[order])))[
            np.searchsorted(powers, ns, side="right")]
        values = primes.psi_lookup(limit)(ns)
        for n, value, expect in zip(ns.tolist(), values.tolist(), dense.tolist()):
            res = psi_at(n)
            assert res.value == value
            assert res.term_count == (counts[n] + np.searchsorted(powers, n, side="right")
                                      if n >= 2 else 0)
            assert value == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_fresh_tables(self):
        for limit in self.CHAIN:
            primes.clear_caches()
            self.check(limit)

    def test_grown_tables(self):
        primes.clear_caches()
        for limit in self.CHAIN:
            self.check(limit)
        assert primes.table_stats()["rank"]["builds"] == 1


class TestStore:
    """table_stats: builds, growths, hits and bytes held, per table name."""

    def test_counts_each_kind_of_request(self):
        primes.clear_caches()
        pi_at(100)
        pi_at(50)
        pi_at(1000)
        stats = primes.table_stats()
        # 0..1023: 8 words of 128 integers, each with a uint32 count
        assert stats["rank"] == {"builds": 1, "growths": 1, "hits": 1, "bytes": 8 * (8 + 4)}
        assert "bitmap" not in stats
        primes.clear_caches()
        assert primes.table_stats() == {}

    @staticmethod
    def from_threads(query, ns):
        """[query(n) for n in ns] from more threads than cores, switching often."""
        out = [None] * len(ns)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda chunk: [query(n) for n in chunk], ns[k::8])
                           for k in range(8)]
                for k, f in enumerate(futures):
                    out[k::8] = f.result(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        return out

    def test_concurrent_growth_loses_no_count_and_no_value(self):
        # every pi_at reads the rank directory once, so its counts must add up
        # to the calls made
        ns = [int(n) for n in np.random.default_rng(7).integers(2, 3 * 10**5, 400)]
        expect = cumulative_pi(3 * 10**5)[ns].tolist()
        primes.clear_caches()
        assert self.from_threads(pi_at, ns) == expect
        rank = primes.table_stats()["rank"]
        assert rank["builds"] == 1 and rank["builds"] + rank["growths"] + rank["hits"] == len(ns)

    def test_concurrent_psi_growth_loses_no_count_and_no_value(self):
        # the same for psi_at and the psi table, whose build nests the prime
        # rank directory's
        ns = [int(n) for n in np.random.default_rng(8).integers(2, 3 * 10**5, 400)]
        expect = primes.psi_array(3 * 10**5)[ns].tolist()
        primes.clear_caches()
        assert [v.value for v in self.from_threads(psi_at, ns)] == expect
        psi = primes.table_stats()["psi_steps"]
        assert psi["builds"] == 1 and psi["builds"] + psi["growths"] + psi["hits"] == len(ns)

    def test_a_table_asked_for_during_its_build_is_built_once(self, monkeypatch):
        # one thread is held inside the rank build while a second asks for the
        # same table; the store's lock keeps the second out until the build is
        # done, so it reads that table instead of building one beside it
        windows, inside, seen = primes._windows, [], []
        first_in, second_in = threading.Event(), threading.Event()

        def held(lo, hi):
            inside.append(lo)
            seen.append(len(inside))
            if not first_in.is_set():
                first_in.set()
                second_in.wait(0.5)  # times out while the lock keeps the second out
            else:
                second_in.set()
            yield from windows(lo, hi)
            inside.pop()

        monkeypatch.setattr(primes, "_windows", held)
        primes.clear_caches()
        counts = []
        first = threading.Thread(target=lambda: counts.append(pi_at(1000)))
        first.start()
        assert first_in.wait(10)
        second = threading.Thread(target=lambda: counts.append(pi_at(1000)))
        second.start()
        first.join(10)
        second.join(10)
        assert counts == [168, 168]
        assert seen == [1]  # one build, and no other beside it
        rank = primes.table_stats()["rank"]
        assert (rank["builds"], rank["growths"], rank["hits"]) == (1, 0, 1)


class TestPiTable:
    """cumulative_pi, the shared table of pi(n) from n = 0."""

    def test_first_ten(self):
        assert cumulative_pi(10)[1:11].tolist() == [0, 1, 2, 2, 3, 3, 4, 4, 4, 4]

    def test_the_count_table_is_sized_to_its_limit(self):
        primes.clear_caches()
        pi_at(10**5)
        assert cumulative_pi(100).size == 101
        assert cumulative_pi(50) is cumulative_pi(100)  # the cached entry covers 50

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
            assert is_step == is_prime_trial(lo + i)


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
            if is_prime_trial(x):
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

    @pytest.mark.parametrize("query", [
        lambda cap: pi_at(10, cap=cap),
        lambda cap: pi_point_legendre(10**6, cap=cap),
        lambda cap: primes.psi_at(1, cap=cap),
        lambda cap: primes.pi_rows(range(6), cap=cap),
    ], ids=["pi_at", "pi_point_legendre", "psi_at", "pi_rows"])
    def test_a_negative_cap_is_refused_first(self, no_tables, query):
        # a ResourceLimitError, as past MAX_CAP, so a claim run reports SKIPPED
        with pytest.raises(ResourceLimitError, match="^cap -1 must be >= 0$"):
            query(-1)

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
        lambda capsys: cli_refused(capsys, "--cap", "1000", "table", "--from", "0", "--to", "1002001"),
    ], ids=["psi_at", "pi_point_legendre", "scan", "table"])
    def test_every_cap_site_gives_the_shared_text(self, no_tables, capsys, refusal):
        assert "exceeds the scan cap 1000; raise the cap to allow it" in refusal(capsys)


class TestLegendreCeiling:
    """A root above LEGENDRE_MAX_ROOT is refused before any array is sized."""

    @pytest.fixture(autouse=True)
    def no_arange(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.arange was called")

        monkeypatch.setattr(primes.np, "arange", refuse)

    @pytest.mark.parametrize("x", ["1e18"], ids=["auto"])
    def test_the_largest_cap_does_not_lift_it(self, capsys, x):
        err = cli_refused(capsys, "--cap", str(primes.MAX_CAP), "pi", x)
        assert "isqrt(1000000000000000000) = 1000000000" in err
        assert f"LEGENDRE_MAX_ROOT = {primes.LEGENDRE_MAX_ROOT}" in err

    @pytest.mark.parametrize("query", [pi_point_legendre, pi_at])
    def test_the_default_caps_largest_x_is_not_refused(self, query):
        # the ceiling sits at or above the default cap: the largest x that cap
        # allows reaches the arrays (the fixture's sentinel), one more is refused by the cap
        top = (primes.DEFAULT_CAP + 1) ** 2 - 1
        with pytest.raises(AssertionError, match="np.arange was called"):
            query(top)
        assert "exceeds the scan cap" in refused(lambda: query(top + 1))

    def test_one_past_the_ceiling(self):
        x = (primes.LEGENDRE_MAX_ROOT + 1) ** 2
        assert "LEGENDRE_MAX_ROOT" in refused(lambda: pi_point_legendre(x, cap=primes.MAX_CAP))
        assert "LEGENDRE_MAX_ROOT" in refused(lambda: pi_at(x, cap=primes.MAX_CAP))


SEGMENT = primes.SEGMENT_LENGTH
ROWS_CAP = 3 * SEGMENT  # room above the cap for windows of a whole segment


class TestPiRows:
    """pi_rows: rows up to the cap read the words; past it one Legendre query,
    or pi(cap), and a running count over sieved windows of SEGMENT_LENGTH, or
    a Legendre query a row where wide rows lie more than a window apart."""

    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        # the words start unbuilt, so each table builds only what it reads
        primes.clear_caches()

    @pytest.mark.parametrize("start, stop, step", [
        (ROWS_CAP - 5, ROWS_CAP + 6, 1),  # straddles the cap
        (ROWS_CAP - 2, ROWS_CAP + 2 * SEGMENT + 2, SEGMENT - 1),  # the window edges, from the cap
        (ROWS_CAP - 2, ROWS_CAP + 2 * SEGMENT + 2, SEGMENT),
        (ROWS_CAP - 2, ROWS_CAP + 2 * SEGMENT + 2, SEGMENT + 1),
        (ROWS_CAP + 999, ROWS_CAP + 999 + 2 * SEGMENT + 2, SEGMENT - 1),  # from a Legendre row
        (ROWS_CAP + 999, ROWS_CAP + 999 + 2 * SEGMENT + 2, SEGMENT),
        (ROWS_CAP + 999, ROWS_CAP + 999 + 2 * SEGMENT + 2, SEGMENT + 1),
        (5 * ROWS_CAP + 1, 6 * ROWS_CAP + 2, 104_729),  # far above, one row per window or fewer
    ])
    def test_rows_equal_point_queries(self, start, stop, step):
        pi_rows_counts(range(start, stop, step), cap=ROWS_CAP)

    @pytest.mark.parametrize("start, stop, step", [
        (2, 1201, 500),  # the last row at or below the cap lies 498 below it
        (2, 1201, 129),
        (0, 10**6, 3),  # wider than the cap, a sieved running count
    ])
    def test_rows_past_the_cap_count_on_from_the_cap(self, start, stop, step):
        pi_rows_counts(range(start, stop, step), cap=1000)

    @pytest.mark.parametrize("cap, stop, want", [
        (0, 2, [0, 0]),
        (1, 3, [0, 0, 1]),  # 2 lies in the first window above the cap
        (2, 5, [0, 0, 1, 2, 2]),
    ])
    def test_tiny_caps(self, cap, stop, want):
        assert pi_rows_counts(range(0, stop), cap=cap) == want

    @pytest.mark.parametrize("cap", [0, 1])
    def test_pi_at_reads_the_words_up_to_2_as_pi_rows_does(self, cap):
        # both count 0..2 off the words whatever the cap; psi still refuses 2
        # at these caps, as its table is sized from n
        assert [pi_at(x, cap=cap) for x in range(3)] == pi_rows_counts(range(3), cap=cap) == [0, 0, 1]

    def test_one_legendre_query_for_every_row_above_the_cap(self, monkeypatch):
        queries = []
        legendre = primes.pi_point_legendre

        def counted(x, *, cap):
            queries.append(x)
            return legendre(x, cap=cap)

        monkeypatch.setattr(primes, "pi_point_legendre", counted)
        rows = range(10**7 + 1, 10**7 + 10**6, 997)
        pi_rows_counts(rows, cap=10**6)  # its oracle reads the words, with no query
        assert queries == [rows[0] - 1]  # the count before the first row sieved
        queries.clear()
        pi_rows_counts(range(10**6 - 10, 2 * 10**6, 997), cap=10**6)
        assert queries == []  # pi(cap) from the words stands in
        # wider than the cap and more than a window apart: a query a row
        rows = range(0, 10**8, 10**7 + 1)
        pi_rows_counts(rows, cap=10**4)
        assert queries == list(rows[1:])

    def test_rows_that_do_not_ascend_are_refused(self, no_tables):
        with pytest.raises(ValueError, match="ascending"):
            primes.pi_rows(range(5, 0, -1))

    @pytest.mark.parametrize("start, stop, step, refused", [
        # (1000, 999998] is wider than the cap, and its 499,499 rows would
        # take more than one query at LEGENDRE_MAX_ROOT: 499,499**2 * 999**3 > (5 * 10**6)**3
        (0, 10**6, 2, True),
        (0, 10**6, 3, False),  # 333,000 rows
        (5000, 6002, 1, False),  # (5000, 6001] wider than the cap, its rows sieved
        (1001**2, 1001**2 + 1, 1, True),  # the base primes need isqrt(last row) <= cap
        (1001**2 - 1, 1001**2, 1, False),
    ])
    def test_refusals_come_before_any_row(self, start, stop, step, refused):
        # pi_rows raises when called, so a table refuses before its header
        rows = range(start, stop, step)
        if refused:
            with pytest.raises(ResourceLimitError, match="cap 1000"):
                primes.pi_rows(rows, cap=1000)
        else:
            pi_rows_counts(rows, cap=1000)


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

    def test_values_never_fall_in_floats(self):
        # a range scan bounds psi inside a piece by its float value at the far end
        _, val = primes.psi_steps(5 * 10**6)
        assert np.all(np.diff(val) >= 0.0)
        assert np.all(np.diff(primes.psi_array(5 * 10**6)) >= 0.0)

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

    def test_lookup_equals_the_spread_table_everywhere_up_to_1e6(self):
        ns = np.arange(10**6 + 1, dtype=np.int64)
        assert np.array_equal(primes.psi_lookup(ns[-1])(ns), primes.psi_array(ns[-1]))

    @pytest.mark.parametrize("limit", [0, 1, 2])
    def test_lookup_below_the_first_prime_power(self, limit):
        primes.clear_caches()
        ns = np.arange(limit + 1, dtype=np.int64)
        assert primes.psi_lookup(limit)(ns).tolist() == [0.0, 0.0, math.log(2)][: limit + 1]

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
