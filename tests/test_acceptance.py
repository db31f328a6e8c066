"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when it holds; a failing assertion is the
FAIL line.  Criterion 4 includes the shifted-log upper bound with its stated
start of 4; the scans show that statement is false at 19 integers around
24200 (last one 24254), so its MATCH assertion fails by design honesty:
the verifier reports the refutation rather than confirming a false claim.
"""

import json
import math
import random
import time

import pytest

from pibounds import claims, primes
from pibounds.bounds import builtin_bounds, chebyshev_constants, evaluate
from pibounds.cli import main
from pibounds.scan import exp_threshold

from oracle import is_prime_trial, pi_oracle_trial_division


def _outcome(report, cid):
    return next(o for o in report.outcomes if o.claim.id == cid)


def test_criterion_1_upper_threshold_reproduction(capsys):
    start = time.perf_counter()
    code = main(["verify", "--claims", "C2,C4", "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    obj = json.loads(out)
    entries = {e["id"]: e for e in obj["claims"]}

    assert code == 0
    assert entries["C2"]["status"] == "MATCH"
    assert entries["C2"]["verdict"] == "PASS"
    assert entries["C4"]["status"] == "MATCH"
    assert entries["C4"]["verdict"] == "FAIL"
    assert entries["C4"]["witness"] == 96097
    assert 0.07 <= abs(entries["C4"]["min_margin"]) <= 0.09
    _, c2 = chebyshev_constants()
    assert abs(exp_threshold(1.11, c2) - 112005.18) <= 0.01
    assert elapsed < 2.0
    print(f"ACCEPTANCE 1 PASS: C2/C4 match, tail 112005.18+-0.01, {elapsed:.2f}s < 2s")


def test_criterion_2_counterexample_at_100():
    registry = builtin_bounds()
    value = evaluate(registry["cheb_upper"], 100).value
    assert abs(value - 24.0067225069) <= 1e-9
    assert primes.pi_at(100) == 25
    out = claims.run_claim(next(c for c in claims.builtin_claims() if c.id == "C1"))
    assert out.status == "MATCH"
    print(f"ACCEPTANCE 2 PASS: bound(100)={value!r}, pi(100)=25, C1 MATCH")


def test_criterion_3_constants():
    c1, c2 = chebyshev_constants()
    assert abs(c1 - 0.921292022934) <= 1e-11
    assert abs(c2 - 1.10555042752) <= 1e-10
    out = claims.run_claim(next(c for c in claims.builtin_claims() if c.id == "C15"))
    assert out.status == "MATCH"
    print(f"ACCEPTANCE 3 PASS: c1={c1!r}, c2={c2!r} within stated tolerances")


SECTION2_CLAIMS = ["C5", "C6a", "C6b", "C7a", "C7b", "C8a", "C8b"]


@pytest.mark.parametrize("cid", SECTION2_CLAIMS)
def test_criterion_4_section2_bounds_match(full_report, cid):
    out = _outcome(full_report, cid)
    assert out.status == "MATCH", (
        f"{cid} reported {out.status}: verdict={out.verdict} witness={out.witness} "
        f"margin={out.min_margin} ({out.note})"
    )
    print(f"ACCEPTANCE 4 PASS: {cid} MATCH at its stated threshold")


def test_criterion_4_section2_runtime(full_report):
    total_ms = sum(_outcome(full_report, cid).elapsed_ms for cid in SECTION2_CLAIMS)
    assert total_ms < 20_000
    print(f"ACCEPTANCE 4 PASS: C5-C8b single-threaded runtime {total_ms}ms < 20s")


def test_criterion_5_psi_suite(full_report):
    for cid in ("C9", "C10", "C11"):
        out = _outcome(full_report, cid)
        assert out.status == "MATCH", f"{cid}: {out.status} ({out.note})"
    lcm = 1
    for x in range(2, 301):
        lcm = math.lcm(lcm, x)
        expect = math.log(lcm)
        got = primes.psi_at(x).value
        assert abs(got - expect) <= 1e-12 * max(1.0, expect)
    print("ACCEPTANCE 5 PASS: C9-C11 MATCH; psi equals log lcm(1..x) to 1e-12 rel for x<=300")


def test_criterion_6_crossovers(full_report):
    c13 = _outcome(full_report, "C13")
    c14 = _outcome(full_report, "C14")
    assert c13.status == "MATCH" and c13.witness == 28516
    assert c14.status == "MATCH" and c14.witness == 2846396
    print("ACCEPTANCE 6 PASS: crossovers at exactly 28516 and 2846396, single sign change")


def test_criterion_7_oracle_equivalences():
    count = 0
    for x in range(0, 10_001):
        if is_prime_trial(x):
            count += 1
        assert primes.pi_at(x) == count, f"pi_at({x}) != running trial-division count"
    for x in (0, 1, 2, 100, 4999, 10_000):
        assert pi_oracle_trial_division(x) == primes.pi_at(x)

    counts = primes.cumulative_pi(5_000_000)
    rng = random.Random(778899)
    for _ in range(1000):
        x = rng.randint(2, 5_000_000)
        assert primes.pi_point_legendre(x) == int(counts[x])

    assert primes.pi_point_legendre(10**6) == 78498
    assert int(counts[10**6]) == 78498
    print("ACCEPTANCE 7 PASS: oracle equality on [0,1e4]; Legendre=sieve on 1000 samples; pi(1e6)=78498 twice")


def test_criterion_8_guard_band_audit(full_report):
    audited = 0
    for o in full_report.outcomes:
        assert o.verdict != "AMBIGUOUS", f"{o.claim.id} is AMBIGUOUS"
        if o.guard_at_witness is not None and o.min_margin is not None:
            assert abs(o.min_margin) > 1e3 * o.guard_at_witness, (
                f"{o.claim.id}: margin {o.min_margin} within 1e3x guard {o.guard_at_witness}"
            )
            audited += 1
    assert audited >= 14
    print(f"ACCEPTANCE 8 PASS: no AMBIGUOUS verdicts; {audited} witnesses exceed 1e3x guard")


def test_criterion_9_determinism(full_report):
    def scrubbed(report):
        obj = report.to_json_obj()
        for e in obj["claims"]:
            e["elapsed_ms"] = 0
        return json.dumps(obj)

    small = ["C1", "C2", "C3", "C4", "C5", "C13", "C15"]
    assert scrubbed(claims.run_all(small)) == scrubbed(claims.run_all(small))

    threaded = claims.run_all(small, threads=8)
    single = claims.run_all(small, threads=1)
    assert scrubbed(threaded) == scrubbed(single)

    assert full_report.total_seconds < 60.0
    print(
        "ACCEPTANCE 9 PASS: reruns byte-identical modulo timing; threads 1 vs 8 identical; "
        f"full suite {full_report.total_seconds:.2f}s < 60s"
    )
