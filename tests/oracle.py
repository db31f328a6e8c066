"""Slow references for the tests: primality and pi(x) by trial division, and
pi_rows' blocks checked row by row against pi_at."""

from pibounds import primes
from pibounds.errors import ResourceLimitError

ORACLE_CAP = 100_000


def is_prime_trial(n: int) -> bool:
    """Trial-division primality check."""
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


def pi_oracle_trial_division(x: int) -> int:
    """pi(x) by per-integer trial division; slow by design."""
    if x < 0:
        raise ValueError("pi_oracle_trial_division requires x >= 0")
    if x > ORACLE_CAP:
        raise ResourceLimitError(
            f"trial-division oracle refuses x={x} beyond its cap {ORACLE_CAP}"
        )
    return sum(1 for n in range(2, x + 1) if is_prime_trial(n))


def pi_rows_counts(rows: range, *, cap: int) -> list[int]:
    """pi_rows(rows, cap=cap) flattened to its counts, once its blocks are
    checked: each holds 1 to ROW_BLOCK rows as an int64 array and as many
    counts, the rows of all of them are exactly rows, and each count is pi_at's
    with the cap raised to the last row, a rank lookup whatever pi_rows did."""
    blocks = list(primes.pi_rows(rows, cap=cap))
    for xs, counts in blocks:
        assert xs.dtype == "int64" and 1 <= xs.size <= primes.ROW_BLOCK and xs.size == counts.size
    flat = [(x, pi) for xs, counts in blocks for x, pi in zip(xs.tolist(), counts.tolist())]
    assert [x for x, _ in flat] == list(rows)
    top = max(rows[-1], 2) if rows else 2
    primes.pi_at(top, cap=top)  # the rank directory, built once up to the last row
    assert [pi for _, pi in flat] == [primes.pi_at(x, cap=top) for x in rows]
    return [pi for _, pi in flat]
