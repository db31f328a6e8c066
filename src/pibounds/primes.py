"""Exact prime counting and Chebyshev's second function.

pi values come from a segmented sieve of Eratosthenes over the odd integers:
a build sieves the odd integers of each segment in one byte buffer, filled
from a wheel with the multiples of 3, 5, 7, 11 and 13 cleared, and packs it
straight into uint64 words of 64 odd integers each, 128 integers a word, the
one table of primality.  Beside them a uint32 count of the primes below each
word, the prime 2 included, makes a rank directory: pi(n) for n >= 2 is that
count plus the set bits of n's word up to n.  Point queries past the sieve
cap run Legendre's sieve bottom-up over the O(sqrt x) distinct values of
x // k (Lucy_Hedgehog's method), with the primes up to sqrt(x) taken from the
sieve.  psi is one table of prefix sums of log(p) over the prime powers p^k
in ascending order, each correctly rounded from an exact integer sum and
carrying a conservative bound on its rounding error.  psi(n) is the prefix at
the rank of n among the prime powers: pi(n) plus the count of the few higher
powers p^k (k >= 2) up to n, which the table keeps as one ascending array, in
place of positions.  The sums are filled a block at a time: the block's primes
from the bits of the words, its higher powers inserted in order, the exact sum
carried on.  So a build peaks at most one segment's buffer above its table.
All of these tables live in one store, by name, which counts their builds,
growths and hits.  When a larger limit is asked for, the words continue their
segment chain from their old end, a word boundary, and the psi table its exact
sum and its array of higher powers, so every prefix equals a fresh build bit
for bit.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from decimal import Decimal
from math import isqrt
from typing import Iterator

import numpy as np

from .errors import ResourceLimitError

DEFAULT_CAP = 5_000_000
# The largest cap accepted.  Tables sized from the cap hold about 0.094 bytes
# per integer up to it (the prime words of the odd integers and their uint32
# counts, 12 bytes per 128 integers) and 8 bytes per prime power in the psi
# table (a float64 prefix; 0.41 GB for the 50.8 million up to 10**9), so at
# 10**9 they take about 0.50 GB; psi_steps' int32 positions, built only when
# asked, add 4 bytes per prime power.  A build peaks at most one segment's
# 0.5 MB buffer and its packed words above what it keeps; a growth also holds
# the old table.  pi(10**9) = 50,847,534 fits the uint32 counts.
# A Legendre query holds three int64 arrays of isqrt(x) entries and peaks near
# 0.22 GB at LEGENDRE_MAX_ROOT, whatever the cap; one there took 28-34 s on a 2-core Xeon.
MAX_CAP = 10**9
LEGENDRE_MAX_ROOT = 5 * 10**6
SEGMENT_LENGTH = 1 << 20

_EPS = sys.float_info.epsilon

# 1.5 eps of psi, kept at 4 eps: derived in the module docstring of bounds
PSI_ERR_FACTOR = 4.0 * _EPS

_lock = threading.RLock()


def check_cap(cap: int, n: int = 0, what: str = "") -> None:
    """Refuse work past the cap before any array is sized from it.

    A negative cap, or one above MAX_CAP, is refused first.  Then n, the
    largest integer the work called what needs a table for, is refused when
    it is above the cap.
    """
    if cap < 0:
        raise ResourceLimitError(f"cap {cap} must be >= 0")
    if cap > MAX_CAP:
        raise ResourceLimitError(
            f"cap {_quote(cap)} is above the ceiling MAX_CAP = {MAX_CAP}, at which the "
            f"tables take about 0.50 GB (0.094 B per integer and 8 B per prime power)"
        )
    if n > cap:
        raise ResourceLimitError(
            f"{what} {_quote(n)} exceeds the scan cap {cap}; raise the cap to allow it"
        )


def _quote(n: int) -> str:
    """n for a message: in full up to 20 digits, past that in scientific notation."""
    return str(n) if n < 10**20 else f"{Decimal(n):.6e}"


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


# The wheel every segment starts from, two periods of 15015 = 3*5*7*11*13 long,
# so that one period from any phase is one slice: entry j is the flag of the odd
# integer 2j + 1, 1 where 3, 5, 7, 11 and 13 do not divide it.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = (np.gcd(2 * np.arange(2 * 15015) + 1, 15015) == 1).astype(np.uint8)


def _sieve(buffer: np.ndarray, lo: int, hi: int, odd: np.ndarray) -> np.ndarray:
    """Sieve the odd integers of [lo, hi] (0 <= lo <= hi) in the uint8 buffer
    from the wheel and return a view of their flags: entry i for (lo | 1) + 2i.
    odd holds odd base entries from 17 on, every prime up to isqrt(hi) among them."""
    first = lo | 1
    flags = buffer[: (hi - first) // 2 + 1]
    period = _WHEEL.size // 2
    start, whole = (first >> 1) % period, flags.size // period * period
    flags[:whole].reshape(-1, period)[:] = _WHEEL[start : start + period]
    flags[whole:] = _WHEEL[start : start + flags.size - whole]
    if first <= _WHEEL_PRIMES[-1]:  # the wheel kept 1 and cleared its own primes
        if first == 1:
            flags[:1] = 0
        for p in _WHEEL_PRIMES:
            if first <= p <= hi:
                flags[(p - first) >> 1] = 1
    for p in odd[odd <= isqrt(hi)].tolist():
        m = max(p * p, (first + p - 1) // p * p)
        if not m & 1:  # odd multiples only, 2p apart
            m += p
        flags[(m - first) >> 1 :: p] = 0
    return flags


def sieve_segment(lo: int, hi: int) -> np.ndarray:
    """Primality flags for [lo, hi] as a fresh uint8 array: 1 iff lo+i is prime.

    The table build's sieve: the flags of the odd integers of each window of
    _windows are copied into place, and of the even integers only 2 is set.
    An end above MAX_CAP, the limit of the build, is refused before any array
    is sized.
    """
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    if hi > MAX_CAP:
        raise ResourceLimitError(f"sieve end {_quote(hi)} is above MAX_CAP = {MAX_CAP}")
    flags = np.zeros(hi - lo + 1, dtype=np.uint8)
    for start, end, odd in _windows(lo, hi):
        flags[(start | 1) - lo : end - lo + 1 : 2] = odd
    if lo == 2:  # the one even prime
        flags[0] = 1
    return flags


def _windows(lo: int, hi: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(start, end, flags) for each window [start, end] of SEGMENT_LENGTH
    integers of [lo, hi] in turn, flags the _sieve view of its odd integers in
    one buffer that the next window reuses.  One buffer size for every range
    lets malloc reuse it."""
    odd = _prime_flags(isqrt(hi))[17:].nonzero()[0] + 17  # the base primes from 17
    buffer = np.empty(SEGMENT_LENGTH // 2, dtype=np.uint8)
    for start in range(lo, hi + 1, SEGMENT_LENGTH):
        end = min(start + SEGMENT_LENGTH - 1, hi)
        yield start, end, _sieve(buffer, start, end, odd)


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
    grows old where it can.  Builds may nest: _lock is reentrant.  A thread
    that asks for a table another is building waits for it under _lock, and
    reads it rather than build a second one and replace the first.
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
    covering the limit asked for, and the bytes its arrays hold now."""
    with _lock:
        return {name: dict(stats) for name, stats in _stats.items()}


# _ODD_MASKS[r] keeps the bits of a word's odd integers up to its integer r
_ODD_MASKS = np.array([(1 << ((r + 1) >> 1)) - 1 for r in range(128)], dtype=np.uint64)


def _rank(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(words, before) for 0..limit | 127: bit j of uint64 word i set when the
    odd integer 128i + 2j + 1 is prime, and before[i] the uint32 count of the
    odd primes below 128i plus 1, for the prime 2, so that pi(n) for n >= 2 is
    before[n >> 7] plus the set bits of word n >> 7 up to n (a rank directory)."""
    def build(limit: int, old) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
        # a fresh chain starts at 0 and a grown one at the old end + 1, a word
        # boundary; each window is whole words long, its flags packed into place
        top = limit | 127
        start = old[0] + 1 if old else 0
        words = np.empty((top >> 7) + 1, dtype="<u8")
        if old:
            words[: start >> 7] = old[1][0]
        for lo, hi, flags in _windows(start, top):
            words[lo >> 7 : (hi >> 7) + 1] = np.packbits(flags, bitorder="little").view("<u8")
        del flags  # the buffer is freed before the counts are allocated
        before = np.empty(words.size, dtype=np.uint32)  # summed in place
        before[:1] = 1  # the prime 2
        np.bitwise_count(words[:-1], out=before[1:])
        return top, (words, np.cumsum(before, out=before))

    return _cached("rank", limit, build)


def _flags(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bool flags of the odd integers in [lo, hi], entry i for (lo | 1) + 2i,
    True at the primes, unpacked from the words."""
    first = lo | 1
    bits = np.unpackbits(words[first >> 7 : (hi >> 7) + 1].view(np.uint8), bitorder="little")
    skip = (first & 127) >> 1
    return bits[skip : skip + (hi - first) // 2 + 1].view(bool)


def _primes_in(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The primes in [lo, hi] as an ascending int64 array: 2 where it lies in
    range, and the set bits of the words."""
    found = _flags(words, lo, hi).nonzero()[0]
    found *= 2
    found += lo | 1
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


def _pi_le(words: np.ndarray, before: np.ndarray, n: int) -> int:
    """pi_lookup's count at one n, in Python ints."""
    i = n >> 7
    return before.item(i) + (words.item(i) & _ODD_MASKS.item(n & 127)).bit_count() if n >= 2 else 0


def pi_lookup(limit: int):
    """pi over int64 arrays of n <= limit, as uint32, read from the rank directory."""
    words, before = _rank(limit)

    def count(ns: np.ndarray) -> np.ndarray:
        i = ns >> 7
        counts = before.take(i) + np.bitwise_count(words.take(i) & _ODD_MASKS.take(ns & 127))
        if ns.min(initial=2) < 2:  # scans ask for n >= 2 only, and skip this pass
            counts[ns < 2] = 0
        return counts

    return count


def psi_lookup(limit: int):
    """psi over int64 arrays of n <= limit: the psi table's prefix sum at the
    rank of n among the prime powers, pi(n) from the rank directory plus the
    higher powers up to n."""
    sums, _, higher = _psi_table(limit)
    pi_of = pi_lookup(limit)
    return lambda ns: sums.take(pi_of(ns) + higher.searchsorted(ns, "right"))


def cumulative_pi(limit: int) -> np.ndarray:
    """Array c with c[n] = pi(n) for 0 <= n <= limit (cached, shared)."""
    def build(limit: int, old) -> tuple[int, np.ndarray]:
        flags = np.zeros(limit + 1, dtype=np.uint8)
        flags[1::2] = _flags(_rank(limit)[0], 0, limit)
        flags[2:3] = 1  # the prime 2, when limit >= 2
        return limit, np.cumsum(flags, dtype=np.int64)

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
    return _pi_le(*_rank(n), n) if n <= cap else pi_point_legendre(n, cap=cap)


# ---------------------------------------------------------------------------
# Legendre point queries
# ---------------------------------------------------------------------------

def pi_point_legendre(x: int, *, cap: int = DEFAULT_CAP) -> int:
    """pi(x) by Legendre's sieve, evaluated bottom-up (Lucy_Hedgehog's method).

    S(v) starts as the count of 2..v for each of the O(sqrt x) distinct values
    v = x // k.  Sieving out each prime p <= isqrt(x) in turn, every v >= p*p
    loses the survivors with least prime factor p:
    S(v) -= S(v // p) - S(p - 1).  At the end S(x) = pi(x).  Time grows as
    x^(3/4) and memory as sqrt(x): about 0.2 s at 1e10, 3.3 s at 1e12 and 30 s
    at 2.5e13, on a 2-core Xeon.

    The primes up to isqrt(x) come from the sieve, so the sieve's cap bounds
    the query: isqrt(x) above the cap, or above LEGENDRE_MAX_ROOT whatever
    the cap, raises ResourceLimitError.
    """
    if not 2 <= x < math.inf:
        raise ValueError(f"pi_point_legendre requires a finite x >= 2, got {x}")
    n = int(x)
    root = _legendre_root(n, cap)
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


def _legendre_root(n: int, cap: int) -> int:
    """isqrt(n), refused above the cap or LEGENDRE_MAX_ROOT: the primes up to it
    come from the sieve."""
    root = isqrt(n)
    check_cap(cap, root, f"Legendre root isqrt({_quote(n)}) =")
    if root > LEGENDRE_MAX_ROOT:
        raise ResourceLimitError(f"Legendre root isqrt({n}) = {root} is above the ceiling "
                                 f"LEGENDRE_MAX_ROOT = {LEGENDRE_MAX_ROOT} (about 30 s a query)")
    return root


def pi_rows(rows: range, *, cap: int = DEFAULT_CAP) -> Iterator[int]:
    """pi at each x of rows, an ascending range of integers >= 0, in order.

    Rows up to the cap, or up to 2, read the rank directory.  Past it a
    running count over windows of SEGMENT_LENGTH integers sieved in one buffer
    (the segmented sieve of an interval, Bays and Hudson, BIT 17, 1977) starts
    from pi(cap) off the words, or from one Legendre query at the first row
    when the rows start above the cap.  Where the stretch above the cap is
    wider than the cap and its rows lie more than a window apart, each row is
    a Legendre query instead, so no window without a row is sieved.  Such a
    wide stretch is refused when its rows, each taken as a Legendre query,
    would cost more in that query's x^(3/4) time than one query at
    LEGENDRE_MAX_ROOT; dense rows sieve in less.  The base primes, as a
    Legendre query's, need isqrt of the last row within the cap and
    LEGENDRE_MAX_ROOT.  Every refusal comes here, before the first count.
    """
    if rows.step < 0:
        raise ValueError(f"pi_rows needs ascending rows, got {rows}")
    check_cap(cap)
    split = max(cap, 2)  # rows up to here read the words, which always cover 0..127
    below = rows[: max(0, (split - rows.start) // rows.step + 1)]
    above = rows[len(below) :]
    sieve = False
    if above:
        last = above[-1]
        root = _legendre_root(last, cap)
        base = split if below else above[0]  # a sieved stretch runs from base + 1 to last
        wide = last - base > cap
        if wide and len(above) ** 2 * root**3 > LEGENDRE_MAX_ROOT**3:
            raise ResourceLimitError(
                f"table rows from {_quote(base)} to {_quote(last)} span more than the scan cap "
                f"{cap} above it, and their {len(above)} Legendre queries would take longer "
                f"than one at LEGENDRE_MAX_ROOT; raise the cap to allow it"
            )
        sieve = not wide or rows.step <= SEGMENT_LENGTH
    words, before = _rank(split if sieve and below else below[-1]) if below else (None, None)

    def counts() -> Iterator[int]:
        yield from (_pi_le(words, before, x) for x in below)
        if not sieve:
            yield from (pi_point_legendre(x, cap=cap) for x in above)
            return
        count = _pi_le(words, before, split) if below else pi_point_legendre(base, cap=cap)
        if not below:
            yield count
        upto = np.zeros(SEGMENT_LENGTH // 2 + 1, dtype=np.uint32)  # upto[k]: primes among k odd
        step = rows.step
        for lo, hi, flags in _windows(base + 1, last):
            np.cumsum(flags, out=upto[1 : flags.size + 1])
            first = last - (last - lo) // step * step  # the first row in [lo, hi]
            xs = np.arange(first, hi + 1, step, dtype=np.int64)
            found = upto.take((xs - (lo | 1)) // 2 + 1).astype(np.int64)
            found += count
            yield from found.tolist()
            count += int(upto[flags.size])

    return counts()


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
    """psi(x): the psi table's prefix sum at the rank of x among the prime
    powers, pi(x) from the rank directory plus the higher powers up to x."""
    if not 0 <= x < math.inf:
        raise ValueError(f"psi_at requires a finite x >= 0, got {x}")
    n = int(x)
    check_cap(cap)
    if n < 2:
        return PsiValue(n, 0.0, 0, 0.0)
    check_cap(cap, n, "psi_at argument")
    sums, _, higher = _psi_table(n)
    count = _pi_le(*_rank(n), n) + int(higher.searchsorted(n, "right"))
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


def _psi_table(limit: int) -> tuple[np.ndarray, int, np.ndarray]:
    """(sums, total, higher): sums[r] the correctly rounded sum of the float
    terms log p of the first r prime powers (sums[0] = 0), up to limit or
    beyond; their exact total, in units of 2**-53; and the higher powers p^k
    (k >= 2) among them, an ascending int64 array, so that the rank of n among
    the prime powers is pi(n) plus the count of higher powers up to n."""
    def build(limit: int, old) -> tuple[int, tuple]:
        # a grown table appends the sums past the old end, carrying on from the
        # exact total before them.  Blocks of 2**16 integers keep each block's
        # temporaries near 50 KB, so malloc hands them back from block to block
        done, (sums, total, earlier) = old or (1, (np.zeros(1), 0, np.zeros(0, np.int64)))
        words, before = _rank(limit)
        higher, higher_logs = _higher_powers(done + 1, limit)
        at = sums.size - 1
        size = at + _pi_le(words, before, limit) - _pi_le(words, before, done) + higher.size
        sums, old_sums = np.empty(size + 1), sums
        sums[: at + 1] = old_sums
        taken = 0  # higher powers placed so far
        for lo in range(done + 1, limit + 1, SEGMENT_LENGTH >> 4):
            hi = min(lo + (SEGMENT_LENGTH >> 4) - 1, limit)
            found = _primes_in(words, lo, hi)
            upto = int(np.searchsorted(higher, hi, side="right"))
            where = np.searchsorted(found, higher[taken:upto])
            logs = np.log(found, dtype=np.float64)
            terms = np.insert(logs, where, higher_logs[taken:upto])
            end = at + terms.size
            sums[at + 1 : end + 1], total = _prefix_sums(terms, total)
            at, taken = end, upto
        return limit, (sums, total, np.concatenate((earlier, higher)))

    return _cached("psi_steps", limit, build)


def psi_steps(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, values): psi at every prime power <= limit, each value the
    correctly rounded sum of the float terms log p up to its position.  The
    int32 positions, which the psi table does not keep, are cached apart."""
    sums, _, higher = _psi_table(limit)

    def build(limit: int, old) -> tuple[int, np.ndarray]:
        found = prime_array(limit)
        powers = higher[: np.searchsorted(higher, limit, side="right")]
        return limit, np.insert(found, np.searchsorted(found, powers), powers).astype(np.int32)

    pos = _cached("psi_positions", limit, build)
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

