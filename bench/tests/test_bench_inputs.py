"""Seeded generators, the references and BENCHMARK.json agree with each other.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("make", [inputs.point_pass, inputs.mix_pass])
def test_same_seed_same_inputs_other_seed_or_pass_other_inputs(make):
    assert make(7, 3) == make(7, 3)
    assert make(7, 3) != make(8, 3)
    assert make(7, 3) != make(7, 4)


def _slices(xs, n):
    lo, hi = math.log(inputs.CAP + 1), math.log(inputs.POINT_HI)
    return sorted(int((math.log(x + 0.5) - lo) / (hi - lo) * n) for x in xs)


def test_point_queries_cover_each_log_stratum_above_the_cap():
    for seed in range(5):
        for index in range(-2, 4):
            xs = inputs.point_pass(seed, index)
            assert all(inputs.CAP < x <= inputs.POINT_HI for x in xs)
            assert _slices(xs, inputs.POINT_PASS) == list(range(inputs.POINT_PASS))


def test_mix_pass_has_its_composition_and_stays_in_range():
    for seed in range(5):
        opener, *calls = inputs.mix_pass(seed, 1)
        kinds = [c[0] if c[:2] != ["bound", "eval"] else "bound_eval" for c in calls]
        assert {k: kinds.count(k) for k in set(kinds)} == dict(inputs.MIX_PASS)
        # the opener: TOP_ROWS rows ending at the cap, above every other call
        assert opener[0] == "table" and int(opener[4]) == inputs.CAP
        rows = range(int(opener[2]), int(opener[4]) + 1, int(opener[6]))
        assert len(rows) == inputs.TOP_ROWS and rows[0] > inputs.CEILING
        for argv in calls:
            if argv[0] == "scan":
                start, end = int(argv[6]), int(argv[8])
                assert any(argv[2] == b and argv[4] == d and lo <= start <= end <= hi
                           for b, d, lo, hi in inputs.PASS_RANGES)
                assert 100 <= end - start + 1 <= 1_000_000
                assert end <= inputs.CEILING
            if argv[0] == "table":
                start, end, step = int(argv[2]), int(argv[4]), int(argv[6])
                assert 100 <= start <= end <= inputs.CEILING
                assert 10 <= len(range(start, end + 1, step)) <= 200
            if argv[0] in ("pi", "psi"):
                assert 2 <= float(argv[1]) <= inputs.CEILING


def test_references_reproduce_known_values():
    assert check.pi_values([1, 2, 100, 24254, 10**6, 10**7]) == {
        1: 0, 2: 1, 100: 25, 24254: 2699, 10**6: 78498, 10**7: 664579}
    assert check.PsiReference(100)(10) == pytest.approx(math.log(2520), rel=1e-15)
    assert check.bound_value("cheb_upper", "100") == pytest.approx(24.0067225069, abs=1e-9)
    assert check.bound_value("unit_lower", "16.999") == pytest.approx(6.0000257, abs=5e-7)


def test_checker_flags_a_wrong_output():
    calls = inputs.mix_pass(3, 0)
    argv = next(c for c in calls if c[0] == "pi")
    n = math.floor(float(argv[1]))
    pis = check.pi_values([n])
    assert check._check_call(argv, 0, f"{pis[n]}\n", pis, None) is None
    assert check._check_call(argv, 0, f"{pis[n] + 1}\n", pis, None)
    assert check._check_call(argv, 2, f"{pis[n]}\n", pis, None)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.TAIL)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
