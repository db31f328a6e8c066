"""Built-in claim registry: every numerical statement the toolkit verifies.

Each claim packages a runnable check (range scan, crossover search, or
constant comparison) together with its expected outcome, including the
expected *failures* (C1, C4 encode counterexamples: the claim matches only
when the verifier reports the violation at the documented witness).  run_all
produces an ordered Report serializable to text and to a fixed JSON schema.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from . import primes, scan
from .bounds import builtin_bounds, chebyshev_constants, evaluate
from .errors import CrossoverNotFoundError, ResourceLimitError, UnknownNameError
from .primes import DEFAULT_CAP
from .scan import Direction, Status

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
    description: str
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
        claims = []
        for o in self.outcomes:
            claims.append(
                {
                    "id": o.claim.id,
                    "status": o.status,
                    "verdict": o.verdict,
                    "witness": o.witness,
                    "min_margin": o.min_margin,
                    "range": [o.scan_range[0], o.scan_range[1]],
                    "elapsed_ms": o.elapsed_ms,
                }
            )
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
            "pi(100)=25 exceeds the Chebyshev-constant upper bound (~24.0067) at x=100",
            ClaimKind.PI_CHECK,
            dict(
                bound="cheb_upper", direction="upper", lo=100, hi=100,
                expect="FAIL", expect_witness=100,
                pi_points=[(100, 25)],
                eval_points=[("cheb_upper", 100.0, 24.0067225069, 1e-9)],
            ),
        ),
        Claim(
            "C2",
            "Chebyshev-constant upper bound holds on [96098, 112006]; the analytic "
            "tail argument covers every larger x",
            ClaimKind.PI_CHECK,
            dict(
                bound="cheb_upper", direction="upper", lo=96098, hi=112006,
                expect="PASS", tail_shift=1.11,
            ),
        ),
        Claim(
            "C3",
            "tail threshold exp(1.11*c2/(c2-1)) equals 112005.18 within 0.01",
            ClaimKind.CONSTANT_VALUE,
            dict(kind="exp_threshold", shift=1.11, expected=112005.18, tol=0.01),
        ),
        Claim(
            "C4",
            "the Chebyshev-constant upper bound fails at 96097: pi=9260 vs ~9259.92",
            ClaimKind.PI_CHECK,
            dict(
                bound="cheb_upper", direction="upper", lo=96097, hi=96097,
                expect="FAIL", expect_witness=96097, margin_abs=(0.07, 0.09),
                pi_points=[(96097, 9260)],
            ),
        ),
        Claim(
            "C5",
            "x/log x < pi(x) for all real x >= 17, failing for arguments just "
            "under 17 (x/log x at 16.999 is ~6.0000257 > pi=6)",
            ClaimKind.PI_CHECK,
            dict(
                bound="unit_lower", direction="lower", lo=17, hi=MILLION,
                expect="PASS",
                sub_fail=dict(lo=16, hi=16, expect_witness=16),
                eval_points=[("unit_lower", 16.999, 6.0000257, 5e-7)],
            ),
        ),
        Claim(
            "C6a",
            "three-term series lower bound (k=1.8) holds from 32299",
            ClaimKind.PI_CHECK,
            dict(bound="dusart_lower", direction="lower", lo=32299, hi=MILLION, expect="PASS"),
        ),
        Claim(
            "C6b",
            "three-term series upper bound (k=2.51) holds from 355991",
            ClaimKind.PI_CHECK,
            dict(bound="dusart_upper", direction="upper", lo=355991, hi=FIVE_MILLION, expect="PASS"),
        ),
        Claim(
            "C7a",
            "1.095*x/log x exceeds pi(x) from 284860",
            ClaimKind.PI_CHECK,
            dict(bound="d1095", direction="upper", lo=284860, hi=FIVE_MILLION, expect="PASS"),
        ),
        Claim(
            "C7b",
            "1.25506*x/log x exceeds pi(x) from 17",
            ClaimKind.PI_CHECK,
            dict(bound="d125506", direction="upper", lo=17, hi=MILLION, expect="PASS"),
        ),
        Claim(
            "C8a",
            "x/(log x - 28/29) stays below pi(x) from 3299",
            ClaimKind.PI_CHECK,
            dict(bound="pan_lower", direction="lower", lo=3299, hi=MILLION, expect="PASS"),
        ),
        Claim(
            "C8b",
            "x/(log x - 1.11) exceeds pi(x) from 4",
            ClaimKind.PI_CHECK,
            dict(bound="pan_upper", direction="upper", lo=4, hi=MILLION, expect="PASS"),
        ),
        Claim(
            "C9",
            "psi(x) stays below its affine-log upper bound from 30",
            ClaimKind.PSI_CHECK,
            dict(bound="psi_upper", direction="upper", lo=30, hi=MILLION, expect="PASS"),
        ),
        Claim(
            "C10",
            "psi(x) stays above its affine-log lower bound from 30",
            ClaimKind.PSI_CHECK,
            dict(bound="psi_lower", direction="lower", lo=30, hi=MILLION, expect="PASS"),
        ),
        Claim(
            "C11",
            "sandwich psi(x) <= pi(x)*log x <= 2*psi(x) at every integer in [2, 10^6]",
            ClaimKind.PSI_CHECK,
            dict(method="sandwich", lo=2, hi=MILLION, expect="PASS"),
        ),
        Claim(
            "C12",
            "c1*x/log x < pi(x) < 2*c2*x/log x on [30, 10^6]",
            ClaimKind.PI_CHECK,
            dict(
                parts=[("cheb_lower", "lower"), ("cheb_upper_2x", "upper")],
                lo=30, hi=MILLION, expect="PASS",
            ),
        ),
        Claim(
            "C13",
            "the k=2.51 series bound drops below x/(log x - 1.11) exactly from 28516",
            ClaimKind.CROSSOVER,
            dict(
                left="dusart_upper", right="pan_upper", lo=30, hi=50000,
                expected_threshold=28516, expected_sign_changes=1,
            ),
        ),
        Claim(
            "C14",
            "the k=2.51 series bound drops below x/(log x - 1.08366) exactly from 2846396",
            ClaimKind.CROSSOVER,
            dict(
                left="dusart_upper", right="legendre_a", lo=MILLION + 1, hi=FIVE_MILLION,
                expected_threshold=2846396, expected_sign_changes=1,
            ),
        ),
        Claim(
            "C15",
            "c1 = 0.921292022934 within 1e-11 and c2 = 1.10555042752 within 1e-10, "
            "both built from their defining logarithms",
            ClaimKind.CONSTANT_VALUE,
            dict(kind="chebyshev", expected=[(0.921292022934, 1e-11), (1.10555042752, 1e-10)]),
        ),
    ]


def _claim_range(claim: Claim) -> tuple[int, int]:
    p = claim.payload
    if "lo" in p and "hi" in p:
        return int(p["lo"]), int(p["hi"])
    return 0, 0


def _run_range_check(claim: Claim, *, cap: int) -> tuple[tuple, list[str]]:
    p = claim.payload
    registry = builtin_bounds()
    lo, hi = int(p["lo"]), int(p["hi"])
    use_psi = claim.kind is ClaimKind.PSI_CHECK
    verify = scan.verify_psi if use_psi else scan.verify_pi
    problems: list[str] = []

    if p.get("method") == "sandwich":
        verdicts = [(None, scan.verify_sandwich(lo, hi, cap=cap))]
    else:
        parts = p.get("parts") or [(p["bound"], p["direction"])]
        verdicts = []
        for bname, dirname in parts:
            b = registry[bname]
            direction = Direction(dirname)
            verdicts.append((bname, verify(b, direction, lo, hi, cap=cap)))

    # primary verdict: a FAIL or AMBIGUOUS part if any, else the tightest margin
    def rank(item):
        _, v = item
        order = {Status.FAIL: 0, Status.AMBIGUOUS: 1, Status.PASS: 2}
        return (order[v.status], v.min_margin)

    _, primary = min(verdicts, key=rank)

    expect = p.get("expect", "PASS")
    if expect == "PASS":
        if not all(v.status is Status.PASS for _, v in verdicts):
            bad = [f"{n or 'check'}:{v.status.value}" for n, v in verdicts if v.status is not Status.PASS]
            problems.append("expected PASS, got " + ", ".join(bad))
    else:
        if primary.status is not Status.FAIL:
            problems.append(f"expected FAIL, got {primary.status.value}")
        elif "expect_witness" in p and primary.witness != p["expect_witness"]:
            problems.append(f"expected witness {p['expect_witness']}, got {primary.witness}")
        if "margin_abs" in p and primary.status is Status.FAIL:
            lo_m, hi_m = p["margin_abs"]
            if not lo_m <= abs(primary.min_margin) <= hi_m:
                problems.append(
                    f"witness margin |{primary.min_margin:.6f}| outside [{lo_m}, {hi_m}]"
                )

    if "sub_fail" in p:
        sf = p["sub_fail"]
        b = registry[p["bound"]]
        direction = Direction(p["direction"])
        v2 = verify(b, direction, int(sf["lo"]), int(sf["hi"]), cap=cap)
        if v2.status is not Status.FAIL or v2.witness != sf["expect_witness"]:
            problems.append(
                f"expected FAIL at {sf['expect_witness']} on [{sf['lo']}, {sf['hi']}], "
                f"got {v2.status.value} at {v2.witness}"
            )

    for x, expected in p.get("pi_points", []):
        got = primes.pi_at(x, cap=cap)
        if got != expected:
            problems.append(f"pi({x}) = {got}, expected {expected}")

    for bname, x, expected, tol in p.get("eval_points", []):
        got = evaluate(registry[bname], x).value
        if abs(got - expected) > tol:
            problems.append(f"{bname}({x}) = {got!r}, expected {expected} +/- {tol}")

    if "tail_shift" in p:
        problems.extend(_check_tail(registry, float(p["tail_shift"]), hi, cap=cap))

    return (primary.status.value, primary.witness, primary.min_margin,
            primary.guard_at_witness), problems


def _check_tail(registry, shift: float, scan_hi: int, *, cap: int) -> list[str]:
    """The analytic tail of C2.

    Above t = exp(shift*c2/(c2-1)) -- the exact real solution of
    x/(log x - shift) <= c2*x/log x -- the shifted-log upper bound implies the
    scaled-log one, so the finite scan plus the shifted bound covers all real
    x >= the scan start.  Checked numerically: t lands inside the scanned
    window, a guarded crossover search finds the implication flipping exactly
    at ceil(t), and the shifted bound itself is scan-verified from ceil(t) to
    the largest horizon the cap allows.
    """
    problems = []
    _, c2 = chebyshev_constants()
    t = scan.exp_threshold(shift, c2)
    if not t <= scan_hi + 1:
        problems.append(f"analytic tail threshold {t:.2f} beyond scanned range end {scan_hi}")
    shifted = registry["pan_upper"]
    hi_pt = math.ceil(t)
    try:
        flip = scan.analytic_crossover(shifted, registry["cheb_upper"], hi_pt - 1, hi_pt, cap=cap)
    except CrossoverNotFoundError:
        flip = None
    if flip is None or flip.threshold != hi_pt or flip.ambiguous_points:
        problems.append(f"shifted bound does not flip below the scaled bound exactly at {hi_pt}")
    tail_hi = max(scan_hi, min(cap, MILLION))
    tail = scan.verify_pi(shifted, Direction.UPPER_STRICT, hi_pt, tail_hi, cap=cap)
    if tail.status is not Status.PASS:
        problems.append(
            f"shifted bound not verified on the tail window [{hi_pt}, {tail_hi}]: "
            f"{tail.status.value} at {tail.witness}"
        )
    return problems


def _run_crossover(claim: Claim, *, cap: int) -> tuple[tuple, list[str]]:
    p = claim.payload
    registry = builtin_bounds()
    f = registry[p["left"]]
    g = registry[p["right"]]
    try:
        res = scan.analytic_crossover(f, g, int(p["lo"]), int(p["hi"]), cap=cap)
    except CrossoverNotFoundError as exc:
        return ("FAIL", None, None, None), [str(exc)]
    problems = []
    if res.threshold != p["expected_threshold"]:
        problems.append(f"threshold {res.threshold}, expected {p['expected_threshold']}")
    if res.sign_changes != p["expected_sign_changes"]:
        problems.append(f"sign_changes {res.sign_changes}, expected {p['expected_sign_changes']}")
    if res.ambiguous_points:
        problems.append(f"{len(res.ambiguous_points)} ambiguous comparison points")

    pairs = [(evaluate(f, float(n)), evaluate(g, float(n)))
             for n in (res.threshold, res.last_failure) if n is not None]
    min_margin = min(abs(gr.value - fr.value) for fr, gr in pairs)
    guard = max(fr.abs_error_bound + gr.abs_error_bound for fr, gr in pairs)
    verdict = "PASS" if not res.ambiguous_points else "AMBIGUOUS"
    return (verdict, res.threshold, min_margin, guard), problems


def _run_constant(claim: Claim) -> tuple[tuple, list[str]]:
    p = claim.payload
    problems = []
    slacks = []
    if p["kind"] == "exp_threshold":
        _, c2 = chebyshev_constants()
        got = scan.exp_threshold(float(p["shift"]), c2)
        diff = abs(got - p["expected"])
        slacks.append(p["tol"] - diff)
        if diff > p["tol"]:
            problems.append(f"exp_threshold = {got!r}, expected {p['expected']} +/- {p['tol']}")
    elif p["kind"] == "chebyshev":
        values = chebyshev_constants()
        for got, (expected, tol) in zip(values, p["expected"]):
            diff = abs(got - expected)
            slacks.append(tol - diff)
            if diff > tol:
                problems.append(f"constant {got!r} differs from {expected} by {diff:.3e} > {tol}")
    else:
        problems.append(f"unknown constant check {p['kind']!r}")

    verdict = "PASS" if not problems else "FAIL"
    return (verdict, None, min(slacks) if slacks else None, None), problems


def run_claim(claim: Claim, *, cap: int = DEFAULT_CAP) -> ClaimOutcome:
    """Run one claim; SKIPPED (never a false MATCH) when the cap is too low."""
    start = time.perf_counter()
    # a runner returns the four fields it decided, verdict through
    # guard_at_witness, and its problems; the outcome is built here alone
    try:
        if claim.kind is ClaimKind.CROSSOVER:
            decided, problems = _run_crossover(claim, cap=cap)
        elif claim.kind is ClaimKind.CONSTANT_VALUE:
            decided, problems = _run_constant(claim)
        else:
            decided, problems = _run_range_check(claim, cap=cap)
        status = "MISMATCH" if problems else "MATCH"
    except ResourceLimitError as exc:
        decided, problems, status = (None, None, None, None), [str(exc)], "SKIPPED"
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))
    return ClaimOutcome(claim, status, *decided, _claim_range(claim), elapsed_ms,
                        "; ".join(problems))


def run_all(ids: Iterable[str] | None = None, *, cap: int = DEFAULT_CAP,
            threads: int = 1) -> Report:
    """Run selected claims (all by default) in registry order; an empty
    selection is an error, not a vacuous match.

    Every scan runs on the calling thread.  threads is kept only for callers
    that still pass threads=1, and any other value is refused; the next change
    to the benchmark removes it (ROADMAP item 2).
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
