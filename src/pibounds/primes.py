"""Exact prime counting and Chebyshev's second function.

pi values come from a segmented Eratosthenes sieve chained into cumulative
count tables.  Point queries past the sieve cap run Legendre's sieve
bottom-up over the O(sqrt x) distinct values of x // k (Lucy_Hedgehog's
method), with the primes up to sqrt(x) taken from the sieve.  psi is one
table: log(p) at every prime power p^k, summed in ascending order with
compensated (Kahan) accumulation.  Point values of psi are lookups into it,
and every psi value carries a conservative bound on its accumulated rounding
error so that downstream comparisons can reason about it.
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
SEGMENT_LENGTH = 1 << 20
ORACLE_CAP = 100_000

_EPS = sys.float_info.epsilon

# Kahan accumulation of positive terms leaves a relative error of a couple of
# ulps; the factor also absorbs the <=1 ulp error of each log() term.
PSI_ERR_FACTOR = 4.0 * _EPS

_lock = threading.RLock()


# ---------------------------------------------------------------------------
# sieving
# ---------------------------------------------------------------------------

def _is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _largest_prime_le(n: int) -> int | None:
    for q in range(n, 1, -1):
        if _is_prime_trial(q):
            return q
    return None


def _simple_sieve(limit: int) -> list[int]:
    """All primes <= limit by a plain sieve (used only for base primes)."""
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i in range(2, limit + 1) if flags[i]]


def sieve_segment(lo: int, hi: int, base_primes: list[int]) -> bytearray:
    """Primality bitmap for [lo, hi]: byte i is 1 iff lo+i is prime.

    base_primes must contain every prime <= isqrt(hi); extra or unsorted
    entries are harmless.
    """
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    need = isqrt(hi)
    if need >= 2:
        top = _largest_prime_le(need)
        if top is not None and (not base_primes or max(base_primes) < top):
            raise ConfigurationError(
                f"base_primes must cover primes up to {top} to sieve [{lo}, {hi}]"
            )
    flags = bytearray(b"\x01") * (hi - lo + 1)
    for p in base_primes:
        if p < 2 or p * p > hi:
            continue
        start = max(p * p, (lo + p - 1) // p * p)
        if start > hi:
            continue
        flags[start - lo :: p] = b"\x00" * ((hi - start) // p + 1)
    return flags


# ---------------------------------------------------------------------------
# cached tables (grow monotonically; rebuilt from scratch on growth)
# ---------------------------------------------------------------------------

_bitmap: np.ndarray | None = None  # uint8, index n -> 1 iff n prime
_counts: np.ndarray | None = None  # int64, index n -> pi(n)
_psi_pos: np.ndarray | None = None  # int64, prime powers in ascending order
_psi_val: np.ndarray | None = None  # float64, compensated psi at each power
_psi_built_to: int = -1
_psi_full: np.ndarray | None = None  # float64, psi(n) for every n


def _prime_bitmap(limit: int) -> np.ndarray:
    """Primality indicator for 0..limit, chained from sieve segments."""
    global _bitmap
    with _lock:
        if _bitmap is not None and _bitmap.size > limit:
            return _bitmap
        base = _simple_sieve(isqrt(limit)) if limit >= 4 else [2, 3]
        parts = [np.zeros(2, dtype=np.uint8)]
        lo = 2
        while lo <= limit:
            hi = min(lo + SEGMENT_LENGTH - 1, limit)
            seg = sieve_segment(lo, hi, base)
            parts.append(np.frombuffer(bytes(seg), dtype=np.uint8))
            lo = hi + 1
        _bitmap = np.concatenate(parts)
        return _bitmap


def cumulative_pi(limit: int) -> np.ndarray:
    """Array c with c[n] = pi(n) for 0 <= n <= limit (cached, shared)."""
    global _counts
    with _lock:
        if _counts is not None and _counts.size > limit:
            return _counts
        bm = _prime_bitmap(limit)
        _counts = np.cumsum(bm, dtype=np.int64)
        return _counts


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array."""
    bm = _prime_bitmap(limit)
    return np.nonzero(bm[: limit + 1])[0].astype(np.int64)


def clear_caches() -> None:
    """Drop all cached tables (mainly for tests)."""
    global _bitmap, _counts, _psi_pos, _psi_val, _psi_full, _psi_built_to
    with _lock:
        _bitmap = _counts = _psi_pos = _psi_val = _psi_full = None
        _psi_built_to = -1


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiTable:
    """Cumulative prime counts over a contiguous range.

    counts[i] = pi(lo + i); the array is nondecreasing with steps of 0 or 1,
    stepping exactly at primes.  Immutable after construction.
    """

    lo: int
    hi: int
    counts: np.ndarray

    def pi(self, x: int) -> int:
        if not self.lo <= x <= self.hi:
            raise ValueError(f"x={x} outside table range [{self.lo}, {self.hi}]")
        return int(self.counts[x - self.lo])


def _check_table(table: PiTable) -> None:
    steps = np.diff(table.counts)
    if steps.size and not np.all((steps == 0) | (steps == 1)):
        raise AssertionError("pi table steps must be 0 or 1")
    bm = _prime_bitmap(table.hi)
    expect = bm[table.lo + 1 : table.hi + 1].astype(np.int64)
    if steps.size and not np.array_equal(steps, expect):
        raise AssertionError("pi table steps must align with primality")


def pi_table(lo: int, hi: int, *, cap: int = DEFAULT_CAP) -> PiTable:
    """PiTable for [lo, hi], seeded internally by pi(lo-1)."""
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
    if hi > cap:
        raise ResourceLimitError(
            f"pi_table end {hi} exceeds the scan cap {cap}; raise the cap to allow it"
        )
    counts = cumulative_pi(hi)[lo : hi + 1].copy()
    table = PiTable(lo, hi, counts)
    if __debug__:
        _check_table(table)
    return table


def pi_at(x: float, *, cap: int = DEFAULT_CAP) -> int:
    """pi(floor(x)); sieve lookup below the cap, Legendre query above it.

    Raises ResourceLimitError when isqrt(x) exceeds the cap (see
    pi_point_legendre).
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"pi_at requires a finite x >= 0, got {x}")
    n = math.floor(x)
    if n < 2:
        return 0
    if n <= cap:
        return int(cumulative_pi(n)[n])
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
    the query: isqrt(x) above the cap raises ResourceLimitError.
    """
    if x < 2:
        raise ValueError("pi_point_legendre requires x >= 2")
    n = int(x)
    root = isqrt(n)
    if root > cap:
        raise ResourceLimitError(
            f"pi({n}) needs the primes up to isqrt(x) = {root}, above the scan cap "
            f"{cap}; raise the cap to allow it"
        )
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
    """psi(x), read from the psi_steps table: its last prefix at or below x."""
    if x < 0:
        raise ValueError("psi_at requires x >= 0")
    n = int(x)
    if n > cap:
        raise ResourceLimitError(
            f"psi_at argument {n} exceeds the scan cap {cap}; raise the cap to allow it"
        )
    if n < 2:
        return PsiValue(n, 0.0, 0, 0.0)
    pos, val = psi_steps(n)
    total = float(val[-1])
    return PsiValue(n, total, int(pos.size), PSI_ERR_FACTOR * total)


def psi_steps(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, values): compensated psi prefix at every prime power <= limit."""
    global _psi_pos, _psi_val, _psi_built_to
    with _lock:
        if _psi_pos is not None and _psi_built_to >= limit:
            keep = int(np.searchsorted(_psi_pos, limit, side="right"))
            return _psi_pos[:keep], _psi_val[:keep]
        primes = prime_array(limit)
        logs = np.log(primes.astype(np.float64))
        positions = [primes]
        values = [logs]
        for p, lp in zip(primes.tolist(), logs.tolist()):
            if p * p > limit:
                break
            power = p * p
            while power <= limit:
                positions.append(np.array([power], dtype=np.int64))
                values.append(np.array([lp], dtype=np.float64))
                power *= p
        pos = np.concatenate(positions)
        val = np.concatenate(values)
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        term = val[order]
        out = np.empty_like(term)
        total = 0.0
        carry = 0.0
        for i, t in enumerate(term.tolist()):
            y = t - carry
            s = total + y
            carry = (s - total) - y
            total = s
            out[i] = total
        _psi_pos, _psi_val = pos, out
        _psi_built_to = limit
        return pos, out


def psi_array(limit: int) -> np.ndarray:
    """psi(n) for 0 <= n <= limit as a float64 array (cached)."""
    global _psi_full
    with _lock:
        if _psi_full is not None and _psi_full.size > limit:
            return _psi_full
        pos, val = psi_steps(max(limit, 2))
        idx = np.searchsorted(pos, np.arange(limit + 1, dtype=np.int64), side="right")
        stepped = np.concatenate([[0.0], val])
        _psi_full = stepped[idx]
        return _psi_full


# ---------------------------------------------------------------------------
# test oracle
# ---------------------------------------------------------------------------

def pi_oracle_trial_division(x: int) -> int:
    """pi(x) by per-integer trial division; slow by design, tests only."""
    if x < 0:
        raise ValueError("pi_oracle_trial_division requires x >= 0")
    if x > ORACLE_CAP:
        raise ResourceLimitError(
            f"trial-division oracle refuses x={x} beyond its cap {ORACLE_CAP}"
        )
    return sum(1 for n in range(2, x + 1) if _is_prime_trial(n))


def is_prime_trial(n: int) -> bool:
    """Trial-division primality check (the oracle's own primitive)."""
    return _is_prime_trial(n)
