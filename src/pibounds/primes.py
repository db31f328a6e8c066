"""Exact prime counting and Chebyshev's second function.

pi values come from a segmented Eratosthenes sieve, whose uint8 segments are
packed straight into uint64 words, the one table of primality, with a count of
the primes below each word beside them (a rank directory), so pi(n) is that
count plus the set bits of n's word up to n.  Point queries past the sieve cap
run Legendre's sieve bottom-up over the O(sqrt x) distinct values of x // k
(Lucy_Hedgehog's method), with the primes up to sqrt(x) taken from the sieve.
psi is one table: log(p) at every prime power p^k (vector powers of the primes
up to sqrt(limit)) in ascending order, each prefix their sum correctly rounded
from an exact integer sum, read through a rank directory of the prime powers;
every psi value carries a conservative bound on its rounding error.  All of
these tables live in one store, by name, which counts their builds, growths
and hits.  When a larger limit is asked for, the words continue their segment
chain from their old end, a word boundary, and the psi table its exact sum, so
every prefix equals a fresh build bit for bit; the psi rank directory is built
again from the grown tables.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import ConfigurationError, ResourceLimitError

DEFAULT_CAP = 5_000_000
# The largest cap accepted.  Tables sized from the cap hold about 0.5 bytes per
# integer up to it (0.25 in the prime words and their counts, 0.25 in the psi
# rank directory) and 12 bytes per prime power in psi_steps (an int32 position,
# as MAX_CAP < 2**31, and a float64 prefix; 0.6 GB for the 50.8 million up to
# 10**9), so at 10**9 they take about 1.1 GB.
# A Legendre query holds three int64 arrays of isqrt(x) entries, 2.4 GB at
# LEGENDRE_MAX_ROOT, whatever the cap.
MAX_CAP = 10**9
LEGENDRE_MAX_ROOT = 10**8
SEGMENT_LENGTH = 1 << 20

_EPS = sys.float_info.epsilon

# A psi prefix rounds the sum of its positive float terms once, each term within
# numpy's log error (about an ulp) of log p: 1.5 eps of psi in all, kept at 4 eps.
PSI_ERR_FACTOR = 4.0 * _EPS

_lock = threading.RLock()


def check_cap(cap: int, n: int = 0, what: str = "") -> None:
    """Refuse work past the cap before any array is sized from it.

    A cap above MAX_CAP is refused first.  Then n, the largest integer the
    work called what needs a table for, is refused when it is above the cap.
    """
    if cap > MAX_CAP:
        raise ResourceLimitError(
            f"cap {cap} is above the ceiling MAX_CAP = {MAX_CAP}, at which the "
            f"tables take about 1.1 GB"
        )
    if n > cap:
        raise ResourceLimitError(
            f"{what} {n} exceeds the scan cap {cap}; raise the cap to allow it"
        )


# ---------------------------------------------------------------------------
# sieving
# ---------------------------------------------------------------------------

def _prime_flags(n: int) -> np.ndarray:
    """uint8 flags for 0..n, 1 at the primes, sieved with every integer up to
    the root of n."""
    flags = np.ones(n + 1, dtype=np.uint8)
    flags[:2] = 0
    for d in range(2, isqrt(n) + 1):
        flags[d * d :: d] = 0
    return flags


def sieve_segment(lo: int, hi: int, base_primes: list[int] | range | np.ndarray) -> np.ndarray:
    """Primality flags for [lo, hi] as a uint8 array: entry i is 1 iff lo+i is prime.

    base_primes must contain every prime <= isqrt(hi); extra, composite or
    unsorted entries are harmless.
    """
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    root = isqrt(hi)
    missing = _prime_flags(root)
    given = np.asarray(base_primes, dtype=np.int64)
    missing[given[(given >= 0) & (given <= root)]] = 0
    if missing.any():
        raise ConfigurationError(
            f"base_primes must hold every prime up to {root} to sieve [{lo}, {hi}]; "
            f"missing {np.flatnonzero(missing)[:5].tolist()}"
        )
    flags = np.ones(hi - lo + 1, dtype=np.uint8)
    for p in base_primes:
        if 2 <= p and p * p <= hi:
            flags[max(p * p, (lo + p - 1) // p * p) - lo :: p] = 0
    return flags


# ---------------------------------------------------------------------------
# cached tables: one store; a table asked for past its end is grown or rebuilt
# ---------------------------------------------------------------------------

_tables: dict[str, tuple[int, object]] = {}  # name -> (largest n covered, table)
_stats: dict[str, dict[str, int]] = {}  # name -> builds, growths, hits, bytes held


def _nbytes(table) -> int:
    return sum(a.nbytes for a in (table if isinstance(table, tuple) else (table,))
               if isinstance(a, np.ndarray))


def _cached(name: str, limit: int, build):
    """The table called name, covering 0..limit.

    On a miss build(limit, old) returns (largest n covered, table), which
    replaces old, the cached (largest n covered, table) or None; a builder
    grows old where it can.  Builds may nest: _lock is reentrant.
    """
    with _lock:
        entry = _tables.get(name)
        if entry is not None and entry[0] >= limit:
            _stats[name]["hits"] += 1
            return entry[1]
        stats = _stats.setdefault(name, dict.fromkeys(("builds", "growths", "hits", "bytes"), 0))
        stats["builds" if entry is None else "growths"] += 1
        entry = _tables[name] = build(limit, entry)
        stats["bytes"] = _nbytes(entry[1])
        return entry[1]


def table_stats() -> dict[str, dict[str, int]]:
    """Per table name: how often it was built from nothing, grown and found
    covering the limit asked for, and the bytes its arrays hold now (the psi
    prefix sums, which the psi rank directory shares, count under both)."""
    with _lock:
        return {name: dict(stats) for name, stats in _stats.items()}


# _LOW_MASKS[b] keeps bits 0..b of a word
_LOW_MASKS = np.array([(2 << b) - 1 for b in range(64)], dtype=np.uint64)


def _rank(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(words, before) for 0..limit | 63: bit n & 63 of uint64 word n >> 6 set
    at the prime n, and the count of primes below each word."""
    def build(limit: int, old) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
        # a fresh chain starts at 0 and a grown one at the old end + 1, a word
        # boundary; each segment is whole words long and packed as it comes
        top = limit | 63
        start, parts = (old[0] + 1, [old[1][0]]) if old else (0, [])
        base = np.flatnonzero(_prime_flags(isqrt(top)))
        for lo in range(start, top + 1, SEGMENT_LENGTH):
            flags = sieve_segment(max(lo, 2), min(lo + SEGMENT_LENGTH - 1, top), base)
            if lo == 0:  # the clear bits of 0 and 1
                flags = np.concatenate((np.zeros(2, dtype=np.uint8), flags))
            parts.append(np.packbits(flags, bitorder="little").view("<u8"))
        words = np.concatenate(parts)
        counts = np.bitwise_count(words)
        return top, (words, np.cumsum(counts, dtype=np.int64) - counts)

    return _cached("rank", limit, build)


def _flags(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bool flags for lo..hi, True at the primes, unpacked from the words."""
    bits = np.unpackbits(words[lo >> 6 : (hi >> 6) + 1].view(np.uint8), bitorder="little")
    return bits[lo & 63 : (lo & 63) + hi - lo + 1].view(bool)


def _counter(words: np.ndarray, before: np.ndarray):
    """count(ns): a rank directory's set bits up to each n of an int64 array."""
    def count(ns: np.ndarray) -> np.ndarray:
        i = ns >> 6
        return before[i] + np.bitwise_count(words[i] & _LOW_MASKS[ns & 63])

    return count


def pi_lookup(limit: int):
    """pi over int64 arrays of n <= limit, read from the rank directory."""
    return _counter(*_rank(limit))


def _psi_rank(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(words, before, sums) for 0..limit: the prime words with the bits of the
    higher prime powers set too, the count of prime powers below each word,
    and the psi table's prefix sums, which sums[count] reads."""
    def build(limit: int, old) -> tuple[int, tuple]:
        pos, _ = psi_steps(limit)
        prime_words = _rank(limit)[0]
        # p^k for k >= 2: the prime powers whose bit is clear in the prime words
        higher = pos[(prime_words[pos >> 6] >> (pos & 63).astype(np.uint64)) & 1 == 0]
        words = prime_words[: (limit >> 6) + 1].copy()
        np.bitwise_or.at(words, higher >> 6, np.uint64(1) << (higher & 63).astype(np.uint64))
        counts = np.bitwise_count(words)
        return limit, (words, np.cumsum(counts, dtype=np.int64) - counts, _psi_table(limit)[1])

    return _cached("psi_rank", limit, build)


def psi_lookup(limit: int):
    """psi over int64 arrays of n <= limit, read from the psi rank directory."""
    words, before, sums = _psi_rank(limit)
    count = _counter(words, before)
    return lambda ns: sums[count(ns)]


def cumulative_pi(limit: int) -> np.ndarray:
    """Array c with c[n] = pi(n) for 0 <= n <= limit (cached, shared)."""
    def build(limit: int, old) -> tuple[int, np.ndarray]:
        return limit, np.cumsum(_flags(_rank(limit)[0], 0, limit), dtype=np.int64)

    return _cached("counts", limit, build)


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array."""
    return np.flatnonzero(_flags(_rank(limit)[0], 0, limit))


def clear_caches() -> None:
    """Drop all cached tables and their counts (mainly for tests)."""
    with _lock:
        _tables.clear()
        _stats.clear()


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

def pi_at(x: float, *, cap: int = DEFAULT_CAP) -> int:
    """pi(floor(x)); sieve lookup below the cap, Legendre query above it.

    Raises ResourceLimitError when isqrt(x) exceeds the cap or
    LEGENDRE_MAX_ROOT (see pi_point_legendre).
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"pi_at requires a finite x >= 0, got {x}")
    check_cap(cap)
    n = math.floor(x)
    if n < 2:
        return 0
    if n <= cap:  # _counter at one n, in Python ints
        words, before = _rank(n)
        i = n >> 6
        return before.item(i) + (words.item(i) & _LOW_MASKS.item(n & 63)).bit_count()
    return pi_point_legendre(n, cap=cap)


# ---------------------------------------------------------------------------
# Legendre point queries
# ---------------------------------------------------------------------------

def pi_point_legendre(x: int, *, cap: int = DEFAULT_CAP) -> int:
    """pi(x) by Legendre's sieve, evaluated bottom-up (Lucy_Hedgehog's method).

    S(v) starts as the count of 2..v for each of the O(sqrt x) distinct values
    v = x // k.  Sieving out each prime p <= isqrt(x) in turn, every v >= p*p
    loses the survivors with least prime factor p:
    S(v) -= S(v // p) - S(p - 1).  At the end S(x) = pi(x).  Time grows as
    x^(3/4) and memory as sqrt(x): about 0.13 s at 1e10 and 5 s at 1e12.

    The primes up to isqrt(x) come from the sieve, so the sieve's cap bounds
    the query: isqrt(x) above the cap, or above LEGENDRE_MAX_ROOT whatever
    the cap, raises ResourceLimitError.
    """
    if not 2 <= x < math.inf:
        raise ValueError(f"pi_point_legendre requires a finite x >= 2, got {x}")
    n = int(x)
    root = isqrt(n)
    check_cap(cap, root, f"Legendre root isqrt({n}) =")
    if root > LEGENDRE_MAX_ROOT:
        raise ResourceLimitError(f"Legendre root isqrt({n}) = {root} is above the ceiling "
                                 f"LEGENDRE_MAX_ROOT = {LEGENDRE_MAX_ROOT} (2.4 GB of arrays)")
    quotients = n // np.arange(1, root + 1, dtype=np.int64)  # x // k for k <= root
    small = np.arange(-1, root, dtype=np.int64)  # small[v] = S(v) for v <= root
    large = quotients - 1  # large[k - 1] = S(x // k)
    for p in prime_array(root).tolist():
        below = int(small[p - 1])  # S(p - 1) = pi(p - 1)
        square = p * p
        reach = n // square  # large[k - 1] changes for k <= reach
        split = min(reach, root // p)  # x // (k*p) is in large for k <= split
        # every right-hand side is read before its row is written
        large[:split] -= large[p - 1 : split * p : p] - below
        large[split:reach] -= small[quotients[split:reach] // p] - below
        if square <= root:
            small[square:] -= small[np.arange(square, root + 1) // p] - below
    return int(large[0])


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiValue:
    """psi(x) with its term count and accumulated rounding-error bound."""

    x: int
    value: float
    term_count: int
    error_bound: float


def psi_at(x: int, *, cap: int = DEFAULT_CAP) -> PsiValue:
    """psi(x): the psi_steps prefix at the rank of x among the prime powers."""
    if not 0 <= x < math.inf:
        raise ValueError(f"psi_at requires a finite x >= 0, got {x}")
    n = int(x)
    check_cap(cap)
    if n < 2:
        return PsiValue(n, 0.0, 0, 0.0)
    check_cap(cap, n, "psi_at argument")
    words, before, sums = _psi_rank(n)
    i = n >> 6  # _counter at one n, in Python ints
    count = before.item(i) + (words.item(i) & _LOW_MASKS.item(n & 63)).bit_count()
    total = sums.item(count)
    return PsiValue(n, total, count, PSI_ERR_FACTOR * total)


def _prefix_sums(terms: np.ndarray, total: int) -> tuple[np.ndarray, int]:
    """Correctly rounded prefix sums of float64 terms in [0.5, 32) after an exact
    total, and the new total; totals are ints in units of 2**-53.

    In those units a term is an integer below 2**58.  Its high and low 32 bits
    are summed apart in int64 (exact for fewer than 2**31 terms) and the low
    carries moved up, so hi * 2**-21 (while psi * 2**21 < 2**53) and lo * 2**-53
    are exact floats, and their one addition rounds each prefix once.
    """
    units = (terms * 2.0**53).astype(np.int64)
    hi, lo = units >> 32, units & 0xFFFFFFFF
    hi[:1] += total >> 32  # the total before joins the first term
    lo[:1] += total & 0xFFFFFFFF
    np.cumsum(hi, out=hi)
    np.cumsum(lo, out=lo)
    hi += lo >> 32
    lo &= 0xFFFFFFFF
    total = int(hi[-1]) << 32 | int(lo[-1]) if units.size else total
    return hi * 2.0**-21 + lo * 2.0**-53, total


def _psi_table(limit: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(pos, sums, total): the prime powers up to limit or beyond, ascending;
    sums[r] the correctly rounded sum of the float terms log p of the first r
    of them (sums[0] = 0); and their exact total, in units of 2**-53."""
    def build(limit: int, old) -> tuple[int, tuple]:
        # a grown table appends the prime powers past the old end and carries
        # on from the exact total of the terms before them
        done, (pos, sums, total) = old or (1, (np.zeros(0, np.int32), np.zeros(1), 0))
        added = np.flatnonzero(_flags(_rank(limit)[0], done + 1, limit)) + (done + 1)
        positions = [added]
        values = [np.log(added.astype(np.float64))]
        # p^k for k >= 2: powers of the primes up to the root, while any is <= limit
        bases = prime_array(isqrt(limit))
        lp = np.log(bases.astype(np.float64))
        power = bases
        while power.size:
            power = power * bases
            keep = power <= limit
            bases, lp, power = bases[keep], lp[keep], power[keep]
            past = power > done
            positions.append(power[past])
            values.append(lp[past])
        added = np.concatenate(positions).astype(np.int32)
        order = np.argsort(added, kind="stable")
        prefix, total = _prefix_sums(np.concatenate(values)[order], total)
        return limit, (np.concatenate((pos, added[order])), np.concatenate((sums, prefix)), total)

    return _cached("psi_steps", limit, build)


def psi_steps(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, values): psi at every prime power <= limit, each value the
    correctly rounded sum of the float terms log p up to its position."""
    pos, sums, _ = _psi_table(limit)
    keep = int(np.searchsorted(pos, limit, side="right"))
    return pos[:keep], sums[1 : keep + 1]


def psi_array(limit: int) -> np.ndarray:
    """psi(n) for 0 <= n <= limit as a float64 array (cached)."""
    def build(limit: int, old) -> tuple[int, np.ndarray]:
        pos, val = psi_steps(limit)
        # psi is 0 below the first prime power, then val[i] from pos[i] on
        steps = np.diff(pos, prepend=0, append=limit + 1)
        return limit, np.repeat(np.concatenate(([0.0], val)), steps)

    return _cached("psi_array", limit, build)

