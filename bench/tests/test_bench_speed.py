"""Scaling times by the machine's readings (speed.py).

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import measure  # noqa: E402
import speed as speeds  # noqa: E402


def log_of(readings):
    """A SpeedLog with readings (start, end, value) set by hand."""
    log = speeds.SpeedLog({"python": 1.0})
    for start, end, value in readings:
        log.starts.append(start)
        log.ends.append(end)
        log.values.append(value)
    return log


def test_a_stretch_counts_divided_by_the_mean_of_its_two_readings():
    log = log_of([(0.0, 1.0, 1.0), (3.0, 4.0, 2.0), (6.0, 7.0, 2.0)])
    assert log.scaled(1.5, 2.5) == pytest.approx(1.0 / 1.5)
    assert log.scaled(4.0, 5.0) == pytest.approx(0.5)
    # a pass across a reading: the reading's own second counts nowhere
    assert log.scaled(2.0, 5.0) == pytest.approx(1.0 / 1.5 + 1.0 / 2.0)
    assert log.scaled(2.0, 5.0, at_reference=False) == pytest.approx(2.0)


def test_an_interval_must_lie_between_two_readings():
    log = log_of([(0.0, 1.0, 1.0), (3.0, 4.0, 1.0)])
    with pytest.raises(ValueError):
        log.scaled(-1.0, 2.0)  # starts before the first reading ends
    with pytest.raises(ValueError):
        log.scaled(2.0, 3.5)  # ends after the last reading starts


def test_a_reading_is_near_one_at_reference_speed_and_takes_the_named_loops():
    for weights in ({"python": 1.0}, measure.VerifyFull.reading, measure.InteractiveMix.reading):
        assert sum(weights.values()) == pytest.approx(1.0)
        assert set(weights) <= set(speeds.LOOPS)
    value = speeds.reading({"python": 1.0})
    # a factor of three either way leaves room for any machine the benchmark runs on
    assert 1 / 3 < value < 3
