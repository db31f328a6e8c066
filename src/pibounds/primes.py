"""Exact prime counting and Chebyshev's second function.

pi values come from a segmented sieve of Eratosthenes over the odd integers,
each segment started from a wheel with the multiples of 3, 5, 7, 11 and 13
cleared.  Its uint8 segments are packed straight into uint64 words, the one
table of primality, with a count of the primes below each word beside them (a
rank directory), so pi(n) is that count plus the set bits of n's word up to n.
Point queries past the sieve cap run Legendre's sieve bottom-up over the
O(sqrt x) distinct values of x // k (Lucy_Hedgehog's method), with the primes
up to sqrt(x) taken from the sieve.  psi is one table: log(p) at every prime
power p^k in ascending order, each prefix their sum correctly rounded from an
exact integer sum, read through a rank directory of the prime powers; every
psi value carries a conservative bound on its rounding error.  The table is
filled a segment at a time, into arrays of its final size: the segment's
primes from the odd bits of the words, with its few higher powers p^k (vector
powers of the primes up to sqrt(limit)) inserted in order, and the exact sum
carried from segment to segment, so its build peaks a few MB above the table.
All of these tables live in one store, by name, which counts their builds,
growths and hits.  When a larger limit is asked for, the words continue their
segment chain from their old end, a word boundary, and the psi table its exact
sum, so every prefix equals a fresh build bit for bit; the psi rank directory
is built again from the grown tables.
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
# 10**9), so at 10**9 they take about 1.1 GB.  Their builds fill them a
# segment at a time and sum the directories' counts in place, so a build peaks
# a few MB (one segment's arrays) above what it keeps; a growth also holds the
# old table until the new one replaces it.
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


# The wheel every segment starts from: entry j holds the flags of 2j and 2j + 1
# as the low and high byte of a little-endian uint16, for j mod 15015 =
# 3*5*7*11*13; the even byte is 0, the odd one 1 where 3, 5, 7, 11 and 13 do
# not divide 2j + 1.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = ((np.gcd(2 * np.arange(15015) + 1, 15015) == 1) << 8).astype("<u2")


def sieve_segment(lo: int, hi: int, base_primes: list[int] | range | np.ndarray) -> np.ndarray:
    """Primality flags for [lo, hi] as a uint8 array: entry i is 1 iff lo+i is prime.

    base_primes must contain every prime <= isqrt(hi); extra, composite or
    unsorted entries are harmless.  Only the odd integers are sieved: they
    start from the wheel, with the multiples of 3, 5, 7, 11 and 13 cleared,
    and the odd base entries from 17 up to the root strike out the rest.
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
    even = lo & ~1  # pairs[i] holds the flags of even + 2i and even + 2i + 1
    count = (hi - even) // 2 + 1
    start = (even >> 1) % _WHEEL.size
    pairs = np.tile(_WHEEL, (start + count) // _WHEEL.size + 1)[start : start + count]
    if lo <= _WHEEL_PRIMES[-1]:  # the wheel cleared its own primes too
        for p in _WHEEL_PRIMES:
            if lo <= p <= hi:
                pairs[(p - even) >> 1] = 1 << 8
    strikers = given[(given >= 17) & (given <= root) & (given & 1 == 1)]
    for p in strikers.tolist():
        m = max(p * p, (lo + p - 1) // p * p)
        if not m & 1:  # odd multiples only, 2p apart
            m += p
        pairs[(m - even) >> 1 :: p] = 0
    flags = pairs.view(np.uint8)[lo - even : hi - even + 1]
    if lo == 2:
        flags[0] = 1
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


def _before(words: np.ndarray) -> np.ndarray:
    """The count of set bits below each word, as int64, summed in place."""
    before = np.empty(words.size, dtype=np.int64)
    before[:1] = 0
    before[1:] = np.bitwise_count(words[:-1])
    return np.cumsum(before, out=before)


# _LOW_MASKS[b] keeps bits 0..b of a word
_LOW_MASKS = np.array([(2 << b) - 1 for b in range(64)], dtype=np.uint64)


def _rank(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(words, before) for 0..limit | 63: bit n & 63 of uint64 word n >> 6 set
    at the prime n, and the count of primes below each word."""
    def build(limit: int, old) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
        # a fresh chain starts at 0 and a grown one at the old end + 1, a word
        # boundary; each segment is whole words long and packed into place
        top = limit | 63
        start = old[0] + 1 if old else 0
        words = np.empty((top >> 6) + 1, dtype="<u8")
        if old:
            words[: start >> 6] = old[1][0]
        base = np.flatnonzero(_prime_flags(isqrt(top)))
        for lo in range(start, top + 1, SEGMENT_LENGTH):
            hi = min(lo + SEGMENT_LENGTH - 1, top)
            flags = sieve_segment(max(lo, 2), hi, base)
            if lo == 0:  # the clear bits of 0 and 1
                flags = np.concatenate((np.zeros(2, dtype=np.uint8), flags))
            words[lo >> 6 : (hi >> 6) + 1] = np.packbits(flags, bitorder="little").view("<u8")
        return top, (words, _before(words))

    return _cached("rank", limit, build)


def _flags(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bool flags for lo..hi, True at the primes, unpacked from the words."""
    bits = np.unpackbits(words[lo >> 6 : (hi >> 6) + 1].view(np.uint8), bitorder="little")
    return bits[lo & 63 : (lo & 63) + hi - lo + 1].view(bool)


def _primes_in(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The primes in [lo, hi] as an ascending int64 array: 2 where it lies in
    range, and the set odd bits of the words."""
    first = lo | 1
    found = np.flatnonzero(_flags(words, first, hi)[::2])
    found *= 2
    found += first
    return np.concatenate(([2], found)) if lo <= 2 <= hi else found


def _higher_powers(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, logs): the prime powers p^k (k >= 2) in [lo, hi], ascending
    as int64, and log p for each; vector powers of the primes up to isqrt(hi)."""
    bases = prime_array(isqrt(hi))
    lp = np.log(bases.astype(np.float64))
    power, positions, logs = bases, [bases[:0]], [lp[:0]]
    while power.size:
        power = power * bases
        keep = power <= hi
        bases, lp, power = bases[keep], lp[keep], power[keep]
        past = power >= lo
        positions.append(power[past])
        logs.append(lp[past])
    positions = np.concatenate(positions)
    order = np.argsort(positions)
    return positions[order], np.concatenate(logs)[order]


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
        psi_steps(limit)  # the psi table, built through its public name
        higher, _ = _higher_powers(2, limit)
        words = _rank(limit)[0][: (limit >> 6) + 1].copy()
        np.bitwise_or.at(words, higher >> 6, np.uint64(1) << (higher & 63).astype(np.uint64))
        return limit, (words, _before(words), _psi_table(limit)[1])

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
    return _primes_in(_rank(limit)[0], 0, limit)


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
    hi = (terms * 2.0**53).astype(np.int64)
    lo = hi & 0xFFFFFFFF
    hi >>= 32
    hi[:1] += total >> 32  # the total before joins the first term
    lo[:1] += total & 0xFFFFFFFF
    np.cumsum(hi, out=hi)
    np.cumsum(lo, out=lo)
    hi += lo >> 32
    lo &= 0xFFFFFFFF
    total = int(hi[-1]) << 32 | int(lo[-1]) if hi.size else total
    sums = hi * 2.0**-21
    sums += lo * 2.0**-53
    return sums, total


def _psi_table(limit: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(pos, sums, total): the prime powers up to limit or beyond, ascending;
    sums[r] the correctly rounded sum of the float terms log p of the first r
    of them (sums[0] = 0); and their exact total, in units of 2**-53."""
    def build(limit: int, old) -> tuple[int, tuple]:
        # a grown table appends the prime powers past the old end and carries
        # on from the exact total of the terms before them.  The new range is
        # walked a segment at a time, into arrays of the exact final size: the
        # segment's primes, with its few higher powers inserted in order
        done, (pos, sums, total) = old or (1, (np.zeros(0, np.int32), np.zeros(1), 0))
        words, before = _rank(limit)
        higher, higher_logs = _higher_powers(done + 1, limit)
        primes_to_done, primes_to_limit = _counter(words, before)(np.array([done, limit])).tolist()
        at = pos.size
        size = at + primes_to_limit - primes_to_done + higher.size
        old_pos, old_sums = pos, sums
        pos, sums = np.empty(size, np.int32), np.empty(size + 1)
        pos[:at], sums[: at + 1] = old_pos, old_sums
        taken = 0  # higher powers placed so far
        for lo in range(done + 1, limit + 1, SEGMENT_LENGTH):
            hi = min(lo + SEGMENT_LENGTH - 1, limit)
            found = _primes_in(words, lo, hi)
            upto = int(np.searchsorted(higher, hi, side="right"))
            where = np.searchsorted(found, higher[taken:upto])
            logs = found.astype(np.float64)
            terms = np.insert(np.log(logs, out=logs), where, higher_logs[taken:upto])
            end = at + terms.size
            pos[at:end] = np.insert(found, where, higher[taken:upto])
            sums[at + 1 : end + 1], total = _prefix_sums(terms, total)
            at, taken = end, upto
        return limit, (pos, sums, total)

    return _cached("psi_steps", limit, build)


def psi_steps(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, values): psi at every prime power <= limit, each value the
    correctly rounded sum of the float terms log p up to its position."""
    pos, sums, _ = _psi_table(limit)
    # an int32 key: a Python int would have numpy cast all of pos to int64
    keep = int(np.searchsorted(pos, np.int32(limit), side="right"))
    return pos[:keep], sums[1 : keep + 1]


def psi_array(limit: int) -> np.ndarray:
    """psi(n) for 0 <= n <= limit as a float64 array (cached)."""
    def build(limit: int, old) -> tuple[int, np.ndarray]:
        pos, val = psi_steps(limit)
        # psi is 0 below the first prime power, then val[i] from pos[i] on
        steps = np.diff(pos, prepend=0, append=limit + 1)
        return limit, np.repeat(np.concatenate(([0.0], val)), steps)

    return _cached("psi_array", limit, build)

