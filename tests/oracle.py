"""A slow reference for the tests: pi(x) by trial division of every integer."""

from pibounds.errors import ResourceLimitError
from pibounds.primes import is_prime_trial

ORACLE_CAP = 100_000


def pi_oracle_trial_division(x: int) -> int:
    """pi(x) by per-integer trial division; slow by design."""
    if x < 0:
        raise ValueError("pi_oracle_trial_division requires x >= 0")
    if x > ORACLE_CAP:
        raise ResourceLimitError(
            f"trial-division oracle refuses x={x} beyond its cap {ORACLE_CAP}"
        )
    return sum(1 for n in range(2, x + 1) if is_prime_trial(n))
