import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from pibounds import bounds, claims, primes, scan
from pibounds.bounds import ScaledLog, ShiftedLog, builtin_bounds, chebyshev_constants, evaluate
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

    @pytest.mark.parametrize("cid, threshold, margin, guard", [
        ("C13", 28516, 3.1928379939927254e-05, 1.5394979695212124e-11),
        ("C14", 2846396, 8.478440577164292e-06, 1.016410873739261e-09),
    ])
    def test_a_crossover_takes_its_margin_and_guard_from_the_scan(
            self, monkeypatch, cid, threshold, margin, guard):
        # the margin and guard at the flip are the scan's own comparisons;
        # the claim evaluates neither bound again
        def refuse(*args):
            raise AssertionError("claims.evaluate was called")

        monkeypatch.setattr(claims, "evaluate", refuse)
        out = run_claim(by_id(cid))
        assert (out.status, out.verdict, out.witness) == ("MATCH", "PASS", threshold)
        assert (out.min_margin, out.guard_at_witness) == (margin, guard)

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
            "X1", ClaimKind.PI_CHECK,
            dict(bound="cheb_upper", direction="upper", fail_at=96098),
        )
        out = run_claim(fake)
        assert out.status == "MISMATCH"

    @pytest.mark.parametrize("cid, change, note", [
        pytest.param("C4", dict(margin_abs=(0.01, 0.02)),
                     "witness margin |{m:.6f}| outside [0.01, 0.02]",
                     id="C4-change1-witness margin |{m:.6f}| outside [0.01, 0.02]"),
        pytest.param("C5", dict(sub_fail=17), "expected FAIL on [17, 17], got PASS",
                     id="C5-change3-expected FAIL on [17, 17], got PASS"),
        pytest.param("C5", dict(eval_points=[(16.999, 6.0001, 5e-7)]),
                     "unit_lower(16.999) = {unit!r}, expected 6.0001 +/- 5e-07",
                     id="C5-change4-unit_lower(16.999) = {unit!r}, expected 6.0001 +/- 5e-07"),
        pytest.param("C3", dict(tol=1e-4), "exp_threshold = {t!r}, expected 112005.18 +/- 0.0001",
                     id="C3-change5-exp_threshold = {t!r}, expected 112005.18 +/- 0.0001"),
        pytest.param("C15", dict(expected=[(0.92, 1e-11), (1.10555042752, 1e-10)]),
                     "c1 = {c1!r}, expected 0.92 +/- 1e-11",
                     id="C15-change6-c1 = {c1!r}, expected 0.92 +/- 1e-11"),
        pytest.param("C13", dict(expected_threshold=28515), "threshold 28516, expected 28515",
                     id="C13-change7-threshold 28516, expected 28515"),
        pytest.param("C1", dict(pi=26), "pi(100) = 25, expected 26 +/- 0",
                     id="C1-change9-pi(100) = 25, expected 26 +/- 0"),
    ])
    def test_a_missed_expectation_says_what_was_expected_and_got(self, cid, change, note):
        # a FAIL is checked by one helper, its status first and then its
        # margin, a value within a tolerance by another, and a crossover by a
        # third
        claim = by_id(cid)
        out = run_claim(dataclasses.replace(claim, payload={**claim.payload, **change}))
        c1, c2 = chebyshev_constants()
        unit = evaluate(builtin_bounds()["unit_lower"], 16.999).value
        assert out.status == "MISMATCH"
        assert out.note == note.format(unit=unit, t=scan.exp_threshold(1.11, c2), c1=c1,
                                       m=out.min_margin)

    def test_an_unknown_bound_in_a_payload_lists_the_valid_names(self):
        fake = Claim("X2", ClaimKind.PI_CHECK,
                     dict(bound="nope", direction="upper", hi=100))
        with pytest.raises(UnknownNameError) as err:
            run_claim(fake)
        assert str(err.value) == f"unknown bound 'nope'; valid names: {', '.join(builtin_bounds())}"

    @pytest.mark.parametrize("change, notes", [
        pytest.param(dict(pan_upper=dict(shift=1.12)), {
            "C2": "analytic tail threshold 124373.18 beyond scanned range end 112006",
            "C3": "exp_threshold = 124373.17672466126, expected 112005.18 +/- 0.01"}, id="shift"),
        pytest.param(dict(cheb_upper=dict(scale=1.001 * chebyshev_constants()[1])), {
            "C2": "",
            "C3": "exp_threshold = 100437.6966913679, expected 112005.18 +/- 0.01",
            "C15": f"c2 = {1.001 * chebyshev_constants()[1]!r}, expected 1.10555042752 +/- 1e-10"},
            id="scale"),
    ])
    def test_c2_and_c3_read_their_constants_from_the_bounds_they_name(
            self, monkeypatch, change, notes):
        # the scans and the tail checks take 1.11 and c2 from the registry, so
        # a registry bound that drifts is what C2's tail, C3 and C15 see
        drifted = tuple(dataclasses.replace(b, **change.get(b.name, {}))
                        for b in bounds._builtin_entries())
        monkeypatch.setattr(bounds, "_builtin_entries", lambda: drifted)
        got = {cid: run_claim(by_id(cid)) for cid in notes}
        assert {cid: out.note for cid, out in got.items()} == notes
        assert {cid: out.status for cid, out in got.items()} == {
            cid: "MISMATCH" if note else "MATCH" for cid, note in notes.items()}

    def test_a_range_claim_starts_at_the_valid_from_of_its_bounds(self, monkeypatch):
        # C2 states no start of its own: with cheb_upper stated to hold from
        # 96097, C2 scans from there and finds C4's counterexample
        drifted = tuple(dataclasses.replace(b, valid_from=96097.0) if b.name == "cheb_upper" else b
                        for b in bounds._builtin_entries())
        monkeypatch.setattr(bounds, "_builtin_entries", lambda: drifted)
        out = run_claim(by_id("C2"))
        assert (out.status, out.verdict, out.witness, out.scan_range, out.note) == (
            "MISMATCH", "FAIL", 96097, (96097, 112006), "expected PASS, got cheb_upper:FAIL")

    def test_every_crossover_expects_one_flip(self, monkeypatch):
        # C13's search and C2's flip at ceil(t) alike
        found = scan.analytic_crossover
        monkeypatch.setattr(scan, "analytic_crossover", lambda *args, **kwargs: dataclasses.replace(
            found(*args, **kwargs), sign_changes=2))
        got = {cid: run_claim(by_id(cid)) for cid in ("C2", "C13")}
        assert {cid: (out.status, out.verdict, out.note) for cid, out in got.items()} == {
            cid: ("MISMATCH", "PASS", "sign_changes 2, expected 1") for cid in got}

    def test_c2_tail_flips_at_the_ceiling_of_its_threshold(self):
        assert _check_tail(builtin_bounds()["pan_upper"], builtin_bounds()["cheb_upper"], 112006,
                           cap=primes.DEFAULT_CAP) == []

    def test_c2_tail_crosses_the_scaled_bound_it_is_given(self):
        # x/(log x - 1.11) drops below 1.12*x/log x from ceil(t) = 31572, and
        # below cheb_upper only from 112006
        scaled = ScaledLog("scaled", 30.0, 1.12)
        assert math.ceil(scan.exp_threshold(1.11, scaled.scale)) == 31572
        assert _check_tail(builtin_bounds()["pan_upper"], scaled, 50_000,
                           cap=primes.DEFAULT_CAP) == []

    @pytest.mark.parametrize("shift, hi_pt, notes", [
        pytest.param(1.10, 100868, [], id="1.1"),
        pytest.param(1.12, 124374, [], id="1.12"),
        pytest.param(0.9, 12416, ["expected PASS on [12416, 1000000], got tail:FAIL"], id="0.9"),
    ])
    def test_c2_tail_checks_the_flip_and_window_of_its_own_bound(self, shift, hi_pt, notes):
        # t, the flip below c2*x/log x and the window [ceil(t), 10^6] all come
        # from the tail bound's shift, so a bound of another shift flips at its
        # own ceil(t).  For 1.10 and 1.12 the scan end covers t and the bound
        # holds past it; for 0.9 the window also holds C8b's violators, the
        # last at 24254, and fails
        assert math.ceil(scan.exp_threshold(shift, chebyshev_constants()[1])) == hi_pt
        tail = ShiftedLog("tail", 4.0, shift)
        assert _check_tail(tail, builtin_bounds()["cheb_upper"], 200_000,
                           cap=primes.DEFAULT_CAP) == notes

    def test_c2_tail_refuses_a_threshold_beyond_the_scan(self):
        assert _check_tail(builtin_bounds()["pan_upper"], builtin_bounds()["cheb_upper"], 100_000,
                           cap=primes.DEFAULT_CAP) == [
            f"analytic tail threshold {scan.exp_threshold(1.11, chebyshev_constants()[1]):.2f} "
            "beyond scanned range end 100000"]

    def test_cap_yields_skipped_not_mismatch(self):
        for cid, scan_range in (("C14", (10**6 + 1, 5 * 10**6)), ("C6b", (355991, 5 * 10**6))):
            out = run_claim(by_id(cid), cap=10**6)
            assert out.status == "SKIPPED"
            assert out.verdict is None
            assert out.scan_range == scan_range
            assert out.note == (
                "scan end 5000000 exceeds the scan cap 1000000; raise the cap to allow it"
            )
            with pytest.raises(dataclasses.FrozenInstanceError):
                out.status = "MATCH"

    def test_crossover_that_never_settles_is_a_mismatch(self, monkeypatch):
        # dusart_upper drops below pan_upper from 28516 (C13), so pan_upper <=
        # dusart_upper fails at every n from there to the end of the range
        refuted = Claim(
            "X2", ClaimKind.CROSSOVER,
            dict(left="pan_upper", right="dusart_upper", lo=30, hi=50000,
                 expected_threshold=28516),
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


def test_c2_tail_rests_on_dusart_2010():
    # Dusart (arXiv:1002.0442, 2010): pi(x) <= x/(log x - 1.1) for x >= 60184.
    # A larger shift gives a larger bound, so C2's tail bound holds from there,
    # and its flip at ceil(t) lies past that start
    p = by_id("C2").payload
    tail, bound = builtin_bounds()[p["tail"]], builtin_bounds()[p["bound"]]
    assert tail.shift >= 1.1
    assert math.ceil(scan.exp_threshold(tail.shift, bound.scale)) >= 60184
    dusart = ShiftedLog("dusart_2010", 60184.0, 1.1)
    assert scan.last_violation(dusart, "upper", 4, 5 * 10**6).last_failure == 60183


# the last failure of each bound a range claim names, from the first integer
# of its domain (2 for psi) to the claim's hi; None where it never fails
LAST_FAILURES = {
    "cheb_upper": 96097, "unit_lower": 16, "dusart_lower": 32298, "dusart_upper": 355990,
    "d1095": 284859, "pan_lower": 3298, "cheb_lower": 10, "pan_upper": 24254,
    "d125506": None, "cheb_upper_2x": None, "psi_upper": None, "psi_lower": None,
}
RANGE_CHECKS = [
    pytest.param(c.kind, name, direction, c.payload["hi"], id=f"{c.id}-{name}")
    for c in builtin_claims() if "hi" in c.payload and {"bound", "parts"} & c.payload.keys()
    for name, direction in claims._parts(c.payload)
]


def test_every_bound_of_a_range_claim_has_its_last_failure_pinned():
    assert sorted(p.values[1] for p in RANGE_CHECKS) == sorted(LAST_FAILURES)


@pytest.mark.parametrize("kind, name, direction, hi", RANGE_CHECKS)
def test_each_stated_start_lies_past_the_last_failure_but_c8b(kind, name, direction, hi):
    b = builtin_bounds()[name]
    if kind is ClaimKind.PSI_CHECK:  # psi has no last_violation: it passes or not
        assert LAST_FAILURES[name] is None
        assert scan.verify_psi(b, direction, 2, hi).status is scan.Status.PASS
        return
    res = scan.last_violation(b, direction, math.floor(b.domain_start()) + 1, hi)
    assert (res.last_failure, res.ambiguous_points) == (LAST_FAILURES[name], [])
    # the paper's point: x/(log x - 1.11) is stated from 4, yet fails up to 24254
    assert (res.last_failure is None or res.last_failure < b.valid_from) == (name != "pan_upper")


class TestRunAll:
    def test_range_claims_take_their_start_from_their_bounds(self, full_report):
        # a range check that names bounds carries no lo: it scans the one
        # integer of its fail_at, or from the floor of its bounds' latest
        # valid_from, the start `bound list` prints
        registry = builtin_bounds()
        starts = {}
        for o in full_report.outcomes:
            p = o.claim.payload
            names = [p["bound"]] if "bound" in p else [n for n, _ in p.get("parts", [])]
            if o.claim.kind is ClaimKind.CONSTANT_VALUE or not names:
                continue
            assert "lo" not in p, o.claim.id
            if "fail_at" in p:
                assert o.scan_range == (p["fail_at"], p["fail_at"]), o.claim.id
                starts[o.claim.id] = "fail_at"
            else:
                start = math.floor(max(registry[n].valid_from for n in names))
                assert o.scan_range == (start, p["hi"]), o.claim.id
                starts[o.claim.id] = start
        assert starts == {
            "C1": "fail_at", "C2": 96098, "C4": "fail_at", "C5": 17, "C6a": 32299,
            "C6b": 355991, "C7a": 284860, "C7b": 17, "C8a": 3299, "C8b": 4, "C9": 30,
            "C10": 30, "C12": 30}

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
        c8b = next(line for line in text.splitlines() if line.startswith("C8b "))
        assert c8b.endswith("ms  (expected PASS, got pan_upper:FAIL)")


def _expected_guard(outcome):
    """The guard at an outcome's witness, recomputed from its formula."""
    p = outcome.claim.payload
    kind = outcome.claim.kind
    w = outcome.witness
    lo, hi = outcome.scan_range
    if w is None:
        return None
    if kind is ClaimKind.CROSSOVER:
        registry = builtin_bounds()
        f, g = registry[p["left"]], registry[p["right"]]
        guards = []
        for n in (w, w - 1):
            if n >= lo:
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
        v = verify(registry[name], direction, lo, hi)
        if (v.witness, v.min_margin) == (w, outcome.min_margin):
            bound = registry[name]
            break
    # from where the bound increases on every slab, a slab is evaluated at one
    # end: n for an upper check and n + 1 for a lower one
    ends = [w, w + 1] if w < scan._one_end_start(bound) else [w] if direction is Direction.UPPER_STRICT else [w + 1]
    guard = max(evaluate(bound, float(n)).abs_error_bound for n in ends)
    if use_psi:
        guard += PSI_ERR_FACTOR * float(primes.psi_array(w)[w])
    return guard


class TestGuardAtWitness:
    def test_every_claim_reports_the_guard_of_its_formula(self, full_report):
        assert len(full_report.outcomes) == 18
        for o in full_report.outcomes:
            assert o.guard_at_witness == _expected_guard(o), o.claim.id


class TestColdRun:
    """A cold run_all() grows the prime words, builds psi_steps once and reads
    it again, and builds no other table."""

    def test_tables_grow_and_none_is_rebuilt_from_zero(self):
        primes.clear_caches()
        assert run_all().outcomes[-1].claim.id == "C15"
        stats = primes.table_stats()
        assert stats["rank"]["builds"] == 1 and stats["rank"]["growths"] >= 1
        assert stats.keys() == {"rank", "psi_steps"}
        assert stats["psi_steps"]["builds"] == 1 and stats["psi_steps"]["hits"] >= 1

    def test_peak_memory_stays_small(self, traced_peak):
        primes.clear_caches()
        report, peak = traced_peak(run_all)
        assert len(report.outcomes) == 18
        assert peak < 4 * 10**6
