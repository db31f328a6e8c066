"""Slow references for the tests: primality and pi(x) by trial division."""

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
