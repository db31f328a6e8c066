import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from pibounds import claims, primes, scan
from pibounds.bounds import builtin_bounds, chebyshev_constants, evaluate
from pibounds.claims import (
    Claim,
    ClaimKind,
    _check_tail,
    builtin_claims,
    run_all,
    run_claim,
)
from pibounds.errors import UnknownNameError
from pibounds.primes import PSI_ERR_FACTOR
from pibounds.scan import Direction

PINNED = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verify_full.json"

ALL_IDS = [
    "C1", "C2", "C3", "C4", "C5", "C6a", "C6b", "C7a", "C7b",
    "C8a", "C8b", "C9", "C10", "C11", "C12", "C13", "C14", "C15",
]


class TestRegistry:
    def test_ids_and_order(self):
        got = [c.id for c in builtin_claims()]
        assert got == ALL_IDS

    def test_ids_unique(self):
        got = [c.id for c in builtin_claims()]
        assert len(set(got)) == len(got)

    def test_c13_expectation(self):
        c13 = next(c for c in builtin_claims() if c.id == "C13")
        assert c13.payload["expected_threshold"] == 28516
        assert c13.kind is ClaimKind.CROSSOVER

    def test_c14_expectation(self):
        c14 = next(c for c in builtin_claims() if c.id == "C14")
        assert c14.payload["expected_threshold"] == 2846396
        assert (c14.payload["lo"], c14.payload["hi"]) == (10**6 + 1, 5 * 10**6)

    def test_c3_expectation(self):
        c3 = next(c for c in builtin_claims() if c.id == "C3")
        assert c3.payload["expected"] == 112005.18
        assert c3.payload["tol"] == 0.01


def by_id(cid):
    return next(c for c in builtin_claims() if c.id == cid)


class TestRunClaim:
    def test_c1_expected_fail_matches(self):
        out = run_claim(by_id("C1"))
        assert out.status == "MATCH"
        assert out.verdict == "FAIL"
        assert out.witness == 100

    def test_c4_margin_window(self):
        out = run_claim(by_id("C4"))
        assert out.status == "MATCH"
        assert 0.07 <= abs(out.min_margin) <= 0.09

    def test_c3_and_c15_constants(self):
        assert run_claim(by_id("C3")).status == "MATCH"
        assert run_claim(by_id("C15")).status == "MATCH"

    def test_c13_crossover(self):
        out = run_claim(by_id("C13"))
        assert out.status == "MATCH"
        assert out.witness == 28516

    def test_c8b_refutes_the_stated_threshold(self):
        # The 1.11 shifted-log upper bound is genuinely violated at 19
        # integers in [24121, 24254] (pi(24254)=2699 > 2698.986...), so the
        # claim's stated PASS-from-4 expectation cannot match; the runner
        # must report the verified refutation rather than a false MATCH.
        out = run_claim(by_id("C8b"))
        assert out.status == "MISMATCH"
        assert out.verdict == "FAIL"
        assert out.witness == 24254
        assert out.min_margin == pytest.approx(-0.0137, abs=0.001)

    def test_expected_fail_is_not_a_free_pass(self):
        # a FAIL expectation must not match when the scan passes
        fake = Claim(
            "X1", "synthetic", ClaimKind.PI_CHECK,
            dict(bound="cheb_upper", direction="upper", lo=96098, hi=96098,
                 expect="FAIL", expect_witness=96098),
        )
        out = run_claim(fake)
        assert out.status == "MISMATCH"

    def test_c2_tail_flips_at_the_ceiling_of_its_threshold(self):
        assert _check_tail(builtin_bounds(), 1.11, 112006, cap=primes.DEFAULT_CAP) == []

    @pytest.mark.parametrize("shift", [1.10, 1.12])
    def test_c2_tail_refuses_a_threshold_off_the_real_flip(self, shift):
        # t moves by about 1e4 either way; the scan end covers it and the shifted
        # bound holds past it, so only the flip check can fail
        hi_pt = math.ceil(scan.exp_threshold(shift, chebyshev_constants()[1]))
        problems = _check_tail(builtin_bounds(), shift, 200_000, cap=primes.DEFAULT_CAP)
        assert problems == [
            f"shifted bound does not flip below the scaled bound exactly at {hi_pt}"
        ]

    def test_cap_yields_skipped_not_mismatch(self):
        for cid in ("C14", "C6b"):
            claim = by_id(cid)
            out = run_claim(claim, cap=10**6)
            assert out.status == "SKIPPED"
            assert out.verdict is None
            assert out.scan_range == (claim.payload["lo"], claim.payload["hi"])
            assert out.note == (
                "scan end 5000000 exceeds the scan cap 1000000; raise the cap to allow it"
            )
            with pytest.raises(dataclasses.FrozenInstanceError):
                out.status = "MATCH"

    def test_crossover_that_never_settles_is_a_mismatch(self, monkeypatch):
        # dusart_upper drops below pan_upper from 28516 (C13), so pan_upper <=
        # dusart_upper fails at every n from there to the end of the range
        refuted = Claim(
            "X2", "synthetic", ClaimKind.CROSSOVER,
            dict(left="pan_upper", right="dusart_upper", lo=30, hi=50000,
                 expected_threshold=28516, expected_sign_changes=1),
        )
        out = run_claim(refuted)
        assert (out.status, out.verdict, out.witness, out.min_margin) == (
            "MISMATCH", "FAIL", None, None)
        assert out.note == (
            "no n in [30, 50000] from which 'pan_upper' <= 'dusart_upper' holds onward"
        )
        # the report goes on to the next claim
        monkeypatch.setattr(claims, "builtin_claims", lambda: [refuted, by_id("C3")])
        rep = run_all()
        assert [(o.claim.id, o.status) for o in rep.outcomes] == [
            ("X2", "MISMATCH"), ("C3", "MATCH")]


class TestRunAll:
    def test_full_report_contains_every_claim_once(self, full_report):
        ids = [o.claim.id for o in full_report.outcomes]
        assert ids == ALL_IDS

    def test_full_report_statuses(self, full_report):
        status = {o.claim.id: o.status for o in full_report.outcomes}
        expect_match = [cid for cid in ALL_IDS if cid != "C8b"]
        for cid in expect_match:
            assert status[cid] == "MATCH", f"{cid}: {status[cid]}"
        assert status["C8b"] == "MISMATCH"
        assert full_report.all_match is False

    def test_filter_single(self):
        rep = run_all(["C3"])
        assert [o.claim.id for o in rep.outcomes] == ["C3"]
        assert rep.all_match is True

    def test_filter_preserves_registry_order(self):
        rep = run_all(["C15", "C1", "C3"])
        assert [o.claim.id for o in rep.outcomes] == ["C1", "C3", "C15"]

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(UnknownNameError) as err:
            run_all(["C99"])
        assert "C99" in str(err.value)
        assert "C13" in str(err.value)

    def test_empty_selection_is_an_error(self):
        with pytest.raises(UnknownNameError) as err:
            run_all([])
        assert "no claim ids" in str(err.value)
        assert "C13" in str(err.value)

    def test_only_one_thread_is_accepted(self):
        # scans run on the calling thread, so no other count may seem to buy parallelism
        for threads in (0, 2):
            with pytest.raises(ValueError, match="threads must be 1"):
                run_all(["C3"], threads=threads)
        assert run_all(["C3"], threads=1).all_match


class TestReportSerialization:
    def test_json_schema_keys_and_order(self):
        rep = run_all(["C1", "C3"])
        obj = rep.to_json_obj()
        assert list(obj) == ["config", "claims", "all_match"]
        assert list(obj["config"]) == ["cap", "guard_policy"]
        for entry in obj["claims"]:
            assert list(entry) == [
                "id", "status", "verdict", "witness", "min_margin", "range", "elapsed_ms",
            ]

    def test_json_round_trips(self):
        rep = run_all(["C1", "C3", "C13"])
        obj = json.loads(rep.to_json())
        assert obj["all_match"] is True
        got = {e["id"]: e for e in obj["claims"]}
        assert got["C1"]["verdict"] == "FAIL"
        assert got["C1"]["witness"] == 100
        assert got["C13"]["witness"] == 28516
        assert got["C13"]["range"] == [30, 50000]

    def test_reruns_identical_modulo_timing(self):
        def scrub(report):
            obj = report.to_json_obj()
            for entry in obj["claims"]:
                entry["elapsed_ms"] = 0
            return json.dumps(obj)

        ids = ["C1", "C3", "C4", "C13", "C15"]
        assert scrub(run_all(ids)) == scrub(run_all(ids))

    def test_full_report_matches_the_pinned_reference(self, full_report):
        obj = full_report.to_json_obj()
        for entry in obj["claims"]:
            entry["elapsed_ms"] = 0
        assert json.dumps(obj, indent=2) + "\n" == PINNED.read_text()

    def test_skipped_entries_serialize(self):
        rep = run_all(["C14"], cap=10**6)
        entry = rep.to_json_obj()["claims"][0]
        assert entry["status"] == "SKIPPED"
        assert entry["verdict"] is None
        assert entry["min_margin"] is None

    def test_text_rendering_mentions_every_claim(self, full_report):
        text = full_report.to_text()
        for cid in ALL_IDS:
            assert cid in text
        assert "all_match: false" in text


def _expected_guard(outcome):
    """The guard at an outcome's witness, recomputed from its formula."""
    p = outcome.claim.payload
    kind = outcome.claim.kind
    w = outcome.witness
    if w is None:
        return None
    if kind is ClaimKind.CROSSOVER:
        registry = builtin_bounds()
        f, g = registry[p["left"]], registry[p["right"]]
        guards = []
        for n in (w, w - 1):
            if n >= p["lo"]:
                guards.append(evaluate(f, n).abs_error_bound + evaluate(g, n).abs_error_bound)
        return max(guards)
    if p.get("method") == "sandwich":
        pi_log = float(primes.cumulative_pi(w)[w]) * math.log(w)
        psi_w = float(primes.psi_array(w)[w])
        return sys.float_info.epsilon * (2.0 * abs(pi_log) + 8.0 * abs(psi_w))
    registry = builtin_bounds()
    use_psi = kind is ClaimKind.PSI_CHECK
    verify = scan.verify_psi if use_psi else scan.verify_pi
    parts = p.get("parts") or [(p["bound"], p["direction"])]
    # the bound whose verdict the outcome reports
    for name, dirname in parts:
        direction = Direction.UPPER_STRICT if dirname == "upper" else Direction.LOWER_STRICT
        v = verify(registry[name], direction, p["lo"], p["hi"])
        if (v.witness, v.min_margin) == (w, outcome.min_margin):
            bound = registry[name]
            break
    guard = max(evaluate(bound, float(w)).abs_error_bound,
                evaluate(bound, float(w + 1)).abs_error_bound)
    if use_psi:
        guard += PSI_ERR_FACTOR * float(primes.psi_array(w)[w])
    return guard


class TestGuardAtWitness:
    def test_every_claim_reports_the_guard_of_its_formula(self, full_report):
        assert len(full_report.outcomes) == 18
        for o in full_report.outcomes:
            assert o.guard_at_witness == _expected_guard(o), o.claim.id


class TestColdRun:
    """A cold run_all() grows the prime words, psi_steps and the psi rank
    directory and builds no dense table."""

    def test_tables_grow_and_none_is_rebuilt_from_zero(self):
        primes.clear_caches()
        assert run_all().outcomes[-1].claim.id == "C15"
        stats = primes.table_stats()
        assert stats["rank"]["builds"] == 1 and stats["rank"]["growths"] >= 1
        assert stats["psi_steps"]["builds"] == 1
        assert stats["psi_rank"]["builds"] == 1 and stats["psi_rank"]["hits"] >= 1
        assert not {"counts", "psi_array"} & stats.keys()

    def test_peak_memory_stays_small(self, traced_peak):
        primes.clear_caches()
        report, peak = traced_peak(run_all)
        assert len(report.outcomes) == 18
        assert peak < 10 * 10**6
