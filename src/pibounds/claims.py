"""Built-in claim registry: every numerical statement the toolkit verifies.

Each claim packages a runnable check (range scan, crossover search, or
constant comparison) together with its expected outcome, including the
expected *failures* (C1, C4 encode counterexamples: fail_at names the one
integer where the claim matches only when the verifier reports a violation).
A range check of named bounds starts where they are stated to hold, at the
floor of their latest valid_from.  run_all produces an ordered Report
serializable to text and to a fixed JSON schema.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from . import primes, scan
from .bounds import BoundExpr, ScaledLog, ShiftedLog, evaluate, lookup_bound
from .errors import CrossoverNotFoundError, ResourceLimitError, UnknownNameError
from .primes import DEFAULT_CAP
from .scan import Direction, Status, Verdict

GUARD_POLICY = "abs_error_bound_plus_psi_summation"

MILLION = 1_000_000
FIVE_MILLION = 5_000_000


class ClaimKind(Enum):
    PI_CHECK = "PiCheck"
    PSI_CHECK = "PsiCheck"
    CROSSOVER = "Crossover"
    CONSTANT_VALUE = "ConstantValue"


@dataclass(frozen=True)
class Claim:
    id: str
    kind: ClaimKind
    payload: dict[str, Any]


@dataclass(frozen=True)
class ClaimOutcome:
    claim: Claim
    status: str  # MATCH | MISMATCH | SKIPPED
    verdict: str | None  # PASS | FAIL | AMBIGUOUS (None when skipped)
    witness: int | None
    min_margin: float | None
    guard_at_witness: float | None
    scan_range: tuple[int, int]
    elapsed_ms: int
    note: str


@dataclass
class Report:
    config: dict[str, Any]
    outcomes: list[ClaimOutcome]
    total_seconds: float

    @property
    def all_match(self) -> bool:
        return all(o.status == "MATCH" for o in self.outcomes)

    def to_json_obj(self) -> dict[str, Any]:
        claims = [{"id": o.claim.id, "status": o.status, "verdict": o.verdict,
                   "witness": o.witness, "min_margin": o.min_margin,
                   "range": list(o.scan_range), "elapsed_ms": o.elapsed_ms}
                  for o in self.outcomes]
        return {
            "config": {"cap": self.config["cap"], "guard_policy": self.config["guard_policy"]},
            "claims": claims,
            "all_match": self.all_match,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    def to_text(self) -> str:
        lines = [f"cap={self.config['cap']}  guard_policy={self.config['guard_policy']}"]
        for o in self.outcomes:
            margin = "-" if o.min_margin is None else f"{o.min_margin:.6g}"
            witness = "-" if o.witness is None else str(o.witness)
            line = (
                f"{o.claim.id:<4} {o.status:<8} {o.verdict or '-':<9} "
                f"witness={witness:<8} margin={margin:<12} "
                f"range=[{o.scan_range[0]},{o.scan_range[1]}] {o.elapsed_ms}ms"
            )
            if o.note:
                line += f"  ({o.note})"
            lines.append(line)
        lines.append(f"all_match: {str(self.all_match).lower()}  total: {self.total_seconds:.2f}s")
        return "\n".join(lines)


def builtin_claims() -> list[Claim]:
    """The full claim registry, in report order."""
    return [
        Claim(
            "C1",
            ClaimKind.PI_CHECK,
            dict(
                bound="cheb_upper", direction="upper", fail_at=100, pi=25,
                eval_points=[(100.0, 24.0067225069, 1e-9)],
            ),
        ),
        Claim(
            "C2",
            ClaimKind.PI_CHECK,
            dict(bound="cheb_upper", direction="upper", hi=112006, tail="pan_upper"),
        ),
        Claim(
            "C3",
            ClaimKind.CONSTANT_VALUE,
            dict(kind="exp_threshold", tail="pan_upper", bound="cheb_upper",
                 expected=112005.18, tol=0.01),
        ),
        Claim(
            "C4",
            ClaimKind.PI_CHECK,
            dict(
                bound="cheb_upper", direction="upper", fail_at=96097, pi=9260,
                margin_abs=(0.07, 0.09),
            ),
        ),
        Claim(
            "C5",
            ClaimKind.PI_CHECK,
            dict(
                bound="unit_lower", direction="lower", hi=MILLION, sub_fail=16,
                eval_points=[(16.999, 6.0000257, 5e-7)],
            ),
        ),
        Claim(
            "C6a",
            ClaimKind.PI_CHECK,
            dict(bound="dusart_lower", direction="lower", hi=MILLION),
        ),
        Claim(
            "C6b",
            ClaimKind.PI_CHECK,
            dict(bound="dusart_upper", direction="upper", hi=FIVE_MILLION),
        ),
        Claim(
            "C7a",
            ClaimKind.PI_CHECK,
            dict(bound="d1095", direction="upper", hi=FIVE_MILLION),
        ),
        Claim(
            "C7b",
            ClaimKind.PI_CHECK,
            dict(bound="d125506", direction="upper", hi=MILLION),
        ),
        Claim(
            "C8a",
            ClaimKind.PI_CHECK,
            dict(bound="pan_lower", direction="lower", hi=MILLION),
        ),
        Claim(
            "C8b",
            ClaimKind.PI_CHECK,
            dict(bound="pan_upper", direction="upper", hi=MILLION),
        ),
        Claim(
            "C9",
            ClaimKind.PSI_CHECK,
            dict(bound="psi_upper", direction="upper", hi=MILLION),
        ),
        Claim(
            "C10",
            ClaimKind.PSI_CHECK,
            dict(bound="psi_lower", direction="lower", hi=MILLION),
        ),
        Claim(
            "C11",
            ClaimKind.PSI_CHECK,
            dict(method="sandwich", lo=2, hi=MILLION),
        ),
        Claim(
            "C12",
            ClaimKind.PI_CHECK,
            dict(parts=[("cheb_lower", "lower"), ("cheb_upper_2x", "upper")], hi=MILLION),
        ),
        Claim(
            "C13",
            ClaimKind.CROSSOVER,
            dict(left="dusart_upper", right="pan_upper", lo=30, hi=50000,
                 expected_threshold=28516),
        ),
        Claim(
            "C14",
            ClaimKind.CROSSOVER,
            dict(left="dusart_upper", right="legendre_a", lo=MILLION + 1, hi=FIVE_MILLION,
                 expected_threshold=2846396),
        ),
        Claim(
            "C15",
            ClaimKind.CONSTANT_VALUE,
            dict(kind="chebyshev", expected=[(0.921292022934, 1e-11), (1.10555042752, 1e-10)]),
        ),
    ]


def _parts(p: dict[str, Any]) -> list[tuple[str, str]]:
    """The (bound name, direction) pairs a range check scans."""
    return p.get("parts") or [(p["bound"], p["direction"])]


def _claim_range(claim: Claim) -> tuple[int, int]:
    """The integers a claim checks: its fail_at alone, or from its lo (else the
    floor of the latest valid_from of its bounds) to its hi; (0, 0) for a constant."""
    p = claim.payload
    if "fail_at" in p:
        return p["fail_at"], p["fail_at"]
    if "hi" not in p:
        return 0, 0
    lo = p["lo"] if "lo" in p else math.floor(max(lookup_bound(n).valid_from for n, _ in _parts(p)))
    return lo, p["hi"]


def _expect_fail(v: Verdict, where: str = "",
                 margin_abs: tuple[float, float] | None = None) -> list[str]:
    """What is amiss with v as a FAIL with |margin| in margin_abs."""
    if v.status is not Status.FAIL:
        return [f"expected FAIL{where}, got {v.status.value}"]
    lo_m, hi_m = margin_abs or (0.0, math.inf)
    if not lo_m <= abs(v.min_margin) <= hi_m:
        return [f"witness margin |{v.min_margin:.6f}| outside [{lo_m}, {hi_m}]"]
    return []


def _expect_pass(verdicts: list[tuple[str | None, Verdict]], where: str = "") -> list[str]:
    """What is amiss with the (bound name, verdict) pairs as PASSes."""
    bad = [f"{n or 'check'}:{v.status.value}" for n, v in verdicts if v.status is not Status.PASS]
    return [f"expected PASS{where}, got " + ", ".join(bad)] if bad else []


def _expect_crossover(left: BoundExpr, right: BoundExpr, lo: int, hi: int, threshold: int, *,
                      cap: int) -> tuple[tuple, list[str]]:
    """The crossover of left below right on [lo, hi], and what is amiss with
    it as one flip at threshold with no ambiguous point."""
    try:
        res = scan.analytic_crossover(left, right, lo, hi, cap=cap)
    except CrossoverNotFoundError as exc:
        return ("FAIL", None, None, None), [str(exc)]
    problems = []
    if res.threshold != threshold:
        problems.append(f"threshold {res.threshold}, expected {threshold}")
    if res.sign_changes != 1:
        problems.append(f"sign_changes {res.sign_changes}, expected 1")
    if res.ambiguous_points:
        problems.append(f"{len(res.ambiguous_points)} ambiguous comparison points")
    verdict = "PASS" if not res.ambiguous_points else "AMBIGUOUS"
    return (verdict, res.threshold, res.min_margin, res.guard_at_witness), problems


def _within(label: str, got: float, expected: float, tol: float, problems: list[str]) -> float:
    """The slack tol - |got - expected|; a problem is noted when it is negative."""
    diff = abs(got - expected)
    if diff > tol:
        problems.append(f"{label} = {got!r}, expected {expected} +/- {tol}")
    return tol - diff


def _run_range_check(claim: Claim, lo: int, hi: int, *, cap: int) -> tuple[tuple, list[str]]:
    p = claim.payload
    verify = scan.verify_psi if claim.kind is ClaimKind.PSI_CHECK else scan.verify_pi

    if p.get("method") == "sandwich":
        verdicts = [(None, scan.verify_sandwich(lo, hi, cap=cap))]
    else:
        verdicts = [(bname, verify(lookup_bound(bname), dirname, lo, hi, cap=cap))
                    for bname, dirname in _parts(p)]

    # primary verdict: a FAIL or AMBIGUOUS part if any, else the tightest margin
    def rank(item):
        _, v = item
        order = {Status.FAIL: 0, Status.AMBIGUOUS: 1, Status.PASS: 2}
        return (order[v.status], v.min_margin)

    _, primary = min(verdicts, key=rank)

    # a FAIL is expected only on fail_at's one integer, which is then its witness
    if "fail_at" in p:
        problems = _expect_fail(primary, margin_abs=p.get("margin_abs"))
    else:
        problems = _expect_pass(verdicts)

    if "sub_fail" in p:
        x = p["sub_fail"]
        v2 = verify(lookup_bound(p["bound"]), p["direction"], x, x, cap=cap)
        problems.extend(_expect_fail(v2, f" on [{x}, {x}]"))

    if "pi" in p:
        _within(f"pi({lo})", primes.pi_at(lo, cap=cap), p["pi"], 0, problems)

    for x, expected, tol in p.get("eval_points", []):
        _within(f"{p['bound']}({x})", evaluate(lookup_bound(p["bound"]), x).value, expected, tol,
                problems)

    if "tail" in p:
        problems.extend(_check_tail(lookup_bound(p["tail"]), lookup_bound(p["bound"]), hi, cap=cap))

    return (primary.status.value, primary.witness, primary.min_margin,
            primary.guard_at_witness), problems


def _check_tail(tail: ShiftedLog, bound: ScaledLog, scan_hi: int, *, cap: int) -> list[str]:
    """The analytic tail of C2.

    Above t = exp(shift*c/(c-1)) -- the exact real solution of
    x/(log x - shift) <= c*x/log x, for the tail's shift and the bound's scale
    c -- the shifted-log upper bound implies the scaled-log one, so the finite
    scan plus the shifted bound covers all real x >= the scan start.  The
    shifted bound rests on Dusart (arXiv:1002.0442, 2010): pi(x) <=
    x/(log x - 1.1) for x >= 60184, and a shift >= 1.1 only raises the bound,
    so it holds from ceil(t) once ceil(t) >= 60184.  Checked numerically: t
    lands inside the scanned window, a guarded crossover search
    finds the tail bound flipping below the scaled one exactly at ceil(t), and
    the tail bound itself is scan-verified from ceil(t) to the largest horizon
    the cap allows.
    """
    problems = []
    t = scan.exp_threshold(tail.shift, bound.scale)
    if not t <= scan_hi + 1:
        problems.append(f"analytic tail threshold {t:.2f} beyond scanned range end {scan_hi}")
    hi_pt = math.ceil(t)
    problems.extend(_expect_crossover(tail, bound, hi_pt - 1, hi_pt, hi_pt, cap=cap)[1])
    tail_hi = max(scan_hi, min(cap, MILLION))
    window = scan.verify_pi(tail, Direction.UPPER_STRICT, hi_pt, tail_hi, cap=cap)
    problems.extend(_expect_pass([(tail.name, window)], f" on [{hi_pt}, {tail_hi}]"))
    return problems


def _run_constant(claim: Claim) -> tuple[tuple, list[str]]:
    p = claim.payload
    if p["kind"] == "exp_threshold":
        t = scan.exp_threshold(lookup_bound(p["tail"]).shift, lookup_bound(p["bound"]).scale)
        checks = [("exp_threshold", t, p["expected"], p["tol"])]
    else:  # "chebyshev": c1 and c2 as the scans take them, the scales of two bounds
        checks = [(name, lookup_bound(bname).scale, expected, tol) for name, bname, (expected, tol)
                  in zip(("c1", "c2"), ("cheb_lower", "cheb_upper"), p["expected"])]
    problems: list[str] = []
    slack = min(_within(*check, problems) for check in checks)
    verdict = "PASS" if not problems else "FAIL"
    return (verdict, None, slack, None), problems


def run_claim(claim: Claim, *, cap: int = DEFAULT_CAP) -> ClaimOutcome:
    """Run one claim; SKIPPED (never a false MATCH) when the cap is too low."""
    start = time.perf_counter()
    lo, hi = _claim_range(claim)
    # a runner returns the four fields it decided, verdict through
    # guard_at_witness, and its problems; the outcome is built here alone
    try:
        if claim.kind is ClaimKind.CROSSOVER:
            p = claim.payload
            decided, problems = _expect_crossover(lookup_bound(p["left"]), lookup_bound(p["right"]),
                                                  lo, hi, p["expected_threshold"], cap=cap)
        elif claim.kind is ClaimKind.CONSTANT_VALUE:
            decided, problems = _run_constant(claim)
        else:
            decided, problems = _run_range_check(claim, lo, hi, cap=cap)
        status = "MISMATCH" if problems else "MATCH"
    except ResourceLimitError as exc:
        decided, problems, status = (None, None, None, None), [str(exc)], "SKIPPED"
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))
    return ClaimOutcome(claim, status, *decided, (lo, hi), elapsed_ms, "; ".join(problems))


def run_all(ids: Iterable[str] | None = None, *, cap: int = DEFAULT_CAP,
            threads: int = 1) -> Report:
    """Run selected claims (all by default) in registry order; an empty
    selection is an error, not a vacuous match.

    Every scan runs on the calling thread.  threads is kept only for callers
    that still pass threads=1, and any other value is refused; the next change
    to the benchmark removes it (ROADMAP item 1).
    """
    if threads != 1:
        raise ValueError(f"scans run on one thread; threads must be 1, got {threads}")
    start = time.perf_counter()
    registry = builtin_claims()
    valid = [c.id for c in registry]
    if ids is not None:
        wanted = set(ids)
        unknown = sorted(wanted - set(valid))
        if unknown or not wanted:
            what = f"unknown claim id(s) {', '.join(unknown)}" if unknown else "no claim ids given"
            raise UnknownNameError(f"{what}; valid ids: {', '.join(valid)}")
        selected = [c for c in registry if c.id in wanted]
    else:
        selected = registry
    outcomes = [run_claim(c, cap=cap) for c in selected]
    total = time.perf_counter() - start
    return Report(
        config={"cap": cap, "guard_policy": GUARD_POLICY},
        outcomes=outcomes,
        total_seconds=total,
    )
