import tracemalloc

import pytest

from pibounds import claims, primes


@pytest.fixture(scope="session")
def full_report():
    """One full claim-suite run shared by claims/acceptance tests."""
    return claims.run_all()


@pytest.fixture(scope="session")
def registry():
    from pibounds.bounds import builtin_bounds

    return builtin_bounds()


@pytest.fixture
def no_tables(monkeypatch):
    """Fail any attempt to build or read a cached table, so that a check
    meant to come first cannot be bypassed into a large allocation."""
    def refuse(name, limit, build):
        raise AssertionError(f"table {name!r} up to {limit} was requested")

    monkeypatch.setattr(primes, "_cached", refuse)


@pytest.fixture
def traced_peak():
    """traced_peak(call) runs call() under tracemalloc, which also sees numpy's
    buffers, and returns its result and the peak of the bytes traced."""
    def run(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
