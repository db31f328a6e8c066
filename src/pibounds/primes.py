"""Exact prime counting and Chebyshev's second function.

pi values come from a segmented Eratosthenes sieve, whose uint8 segments are
appended into a primality bitmap, and its cumulative count table.  Point
queries past the sieve cap run Legendre's sieve bottom-up over the O(sqrt x)
distinct values of x // k (Lucy_Hedgehog's method), with the primes up to
sqrt(x) taken from the sieve.  psi is one table: log(p) at every prime power
p^k (vector powers of the primes up to sqrt(limit)), summed in ascending
order with compensated (Kahan) accumulation.  Point values of psi are lookups
into it, and every psi value carries a conservative bound on its accumulated
rounding error.  All of these tables live in one store, by name, and each is
rebuilt from scratch when a larger limit is asked for.
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
# The largest cap accepted.  Tables sized from the cap hold 17 bytes per integer
# up to it (1 in the uint8 bitmap, 8 in the int64 counts, 8 in the float64 psi
# array), so at 10**9 they take 17 GB; a Legendre query holds three int64
# arrays of isqrt(x) <= cap entries, 24 GB at most.
MAX_CAP = 10**9
SEGMENT_LENGTH = 1 << 20
ORACLE_CAP = 100_000

_EPS = sys.float_info.epsilon

# Kahan accumulation of positive terms leaves a relative error of a couple of
# ulps; the factor also absorbs the <=1 ulp error of each log() term.
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
            f"tables take 17 GB"
        )
    if n > cap:
        raise ResourceLimitError(
            f"{what} {n} exceeds the scan cap {cap}; raise the cap to allow it"
        )


# ---------------------------------------------------------------------------
# sieving
# ---------------------------------------------------------------------------

def is_prime_trial(n: int) -> bool:
    """Trial-division primality check (the oracle's own primitive)."""
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
        if is_prime_trial(q):
            return q
    return None


def sieve_segment(lo: int, hi: int, base_primes: list[int] | range | np.ndarray) -> np.ndarray:
    """Primality bitmap for [lo, hi] as a uint8 array: entry i is 1 iff lo+i is prime.

    base_primes must contain every prime <= isqrt(hi); extra, composite or
    unsorted entries are harmless.
    """
    if not 2 <= lo <= hi:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    need = isqrt(hi)
    if need >= 2:
        top = _largest_prime_le(need)
        if top is not None and (len(base_primes) == 0 or max(base_primes) < top):
            raise ConfigurationError(
                f"base_primes must cover primes up to {top} to sieve [{lo}, {hi}]"
            )
    flags = np.ones(hi - lo + 1, dtype=np.uint8)
    for p in base_primes:
        if 2 <= p and p * p <= hi:
            flags[max(p * p, (lo + p - 1) // p * p) - lo :: p] = 0
    return flags


# ---------------------------------------------------------------------------
# cached tables: one store, each table rebuilt from scratch when it must grow
# ---------------------------------------------------------------------------

_tables: dict[str, tuple[int, object]] = {}  # name -> (largest n covered, table)


def _cached(name: str, limit: int, build):
    """The table called name, covering 0..limit.

    On a miss build(limit) returns (largest n covered, table), which replaces
    the cached entry.  Builds may nest: _lock is reentrant.
    """
    with _lock:
        entry = _tables.get(name)
        if entry is None or entry[0] < limit:
            entry = _tables[name] = build(limit)
        return entry[1]


def _prime_bitmap(limit: int) -> np.ndarray:
    """uint8 primality indicator for 0..limit, chained from sieve segments."""
    def build(limit: int) -> tuple[int, np.ndarray]:
        root = isqrt(limit)
        base = []
        if root >= 2:  # the primes up to the root, sieved with every integer up to its root
            base = np.flatnonzero(sieve_segment(2, root, range(2, isqrt(root) + 1))) + 2
        parts = [np.zeros(2, dtype=np.uint8)]
        for lo in range(2, limit + 1, SEGMENT_LENGTH):
            parts.append(sieve_segment(lo, min(lo + SEGMENT_LENGTH - 1, limit), base))
        bitmap = np.concatenate(parts)
        return bitmap.size - 1, bitmap

    return _cached("bitmap", limit, build)


def cumulative_pi(limit: int) -> np.ndarray:
    """Array c with c[n] = pi(n) for 0 <= n <= limit (cached, shared)."""
    def build(limit: int) -> tuple[int, np.ndarray]:
        # the cached bitmap may reach past limit; counting all of it saves a rebuild
        counts = np.cumsum(_prime_bitmap(limit), dtype=np.int64)
        return counts.size - 1, counts

    return _cached("counts", limit, build)


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array."""
    bm = _prime_bitmap(limit)
    return np.nonzero(bm[: limit + 1])[0].astype(np.int64)


def clear_caches() -> None:
    """Drop all cached tables (mainly for tests)."""
    with _lock:
        _tables.clear()


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

def pi_at(x: float, *, cap: int = DEFAULT_CAP) -> int:
    """pi(floor(x)); sieve lookup below the cap, Legendre query above it.

    Raises ResourceLimitError when isqrt(x) exceeds the cap (see
    pi_point_legendre).
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"pi_at requires a finite x >= 0, got {x}")
    check_cap(cap)
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
    if not 2 <= x < math.inf:
        raise ValueError(f"pi_point_legendre requires a finite x >= 2, got {x}")
    n = int(x)
    root = isqrt(n)
    check_cap(cap, root, f"Legendre root isqrt({n}) =")
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
    if not 0 <= x < math.inf:
        raise ValueError(f"psi_at requires a finite x >= 0, got {x}")
    n = int(x)
    check_cap(cap, n, "psi_at argument")
    if n < 2:
        return PsiValue(n, 0.0, 0, 0.0)
    pos, val = psi_steps(n)
    total = float(val[-1])
    return PsiValue(n, total, int(pos.size), PSI_ERR_FACTOR * total)


def psi_steps(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, values): compensated psi prefix at every prime power <= limit."""
    def build(limit: int) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
        primes = prime_array(limit)
        logs = np.log(primes.astype(np.float64))
        positions = [primes]
        values = [logs]
        # p^k for k >= 2: powers of the primes up to the root, while any is <= limit
        small = primes <= isqrt(limit)
        bases, lp = primes[small], logs[small]
        power = bases
        while power.size:
            power = power * bases
            keep = power <= limit
            bases, lp, power = bases[keep], lp[keep], power[keep]
            positions.append(power)
            values.append(lp)
        pos = np.concatenate(positions)
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        prefix = np.concatenate(values)[order].tolist()  # the terms, overwritten by their sums
        total = 0.0
        carry = 0.0
        for i, t in enumerate(prefix):
            y = t - carry
            s = total + y
            carry = (s - total) - y
            total = s
            prefix[i] = total
        return limit, (pos, np.array(prefix, dtype=np.float64))

    pos, val = _cached("psi_steps", limit, build)
    keep = int(np.searchsorted(pos, limit, side="right"))
    return pos[:keep], val[:keep]


def psi_array(limit: int) -> np.ndarray:
    """psi(n) for 0 <= n <= limit as a float64 array (cached)."""
    def build(limit: int) -> tuple[int, np.ndarray]:
        pos, val = psi_steps(limit)
        # psi is 0 below the first prime power, then val[i] from pos[i] on
        steps = np.diff(pos, prepend=0, append=limit + 1)
        return limit, np.repeat(np.concatenate(([0.0], val)), steps)

    return _cached("psi_array", limit, build)


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
    return sum(1 for n in range(2, x + 1) if is_prime_trial(n))
