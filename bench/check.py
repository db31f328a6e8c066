"""Independent references for every output the workloads produce.

Runs in the orchestrating process, never in the measured one, and imports
nothing from pibounds:

* pi: a segmented numpy sieve of this module's own;
* psi: ``math.fsum`` of log p over the prime powers p^k <= x (rel 1e-12);
* bound values: each registry formula in mpmath at 50 digits (rel 1e-12);
* scans: subranges of ranges the pinned report records as PASS must PASS;
  the C13 crossover must land on 28516 with one sign change;
* verify_full: the pinned report ``reference/verify_full.json`` byte for
  byte once ``elapsed_ms`` is scrubbed (C8b's MISMATCH at 24254 is part of
  it: the registry states a false claim on purpose).

Each ``check_*`` returns (attempted, failures) with one failure message per
operation that raised, exited with the wrong code or disagreed.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from functools import lru_cache
from math import isqrt
from pathlib import Path

import mpmath
import numpy as np

import inputs

PINNED = Path(__file__).resolve().parent / "reference" / "verify_full.json"
REL_TOL = 1e-12
CHUNK = 1 << 22


# ---------------------------------------------------------------------------
# pi and psi
# ---------------------------------------------------------------------------

def _small_primes(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


def pi_values(xs: list[int]) -> dict[int, int]:
    """pi(x) for every x, by one segmented sieve pass up to max(xs)."""
    wanted = sorted(set(int(x) for x in xs))
    if not wanted:
        return {}
    top = wanted[-1]
    base = _small_primes(max(isqrt(top), 2))
    out: dict[int, int] = {}
    count = 0
    i = 0
    for lo in range(0, top + 1, CHUNK):
        hi = min(lo + CHUNK, top + 1)  # sieve [lo, hi)
        flags = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            flags[: min(2, hi)] = False
        for p in base.tolist():
            if p * p >= hi:
                break
            first = max(p * p, (lo + p - 1) // p * p)
            flags[first - lo :: p] = False
        while i < len(wanted) and wanted[i] < hi:
            out[wanted[i]] = count + int(np.count_nonzero(flags[: wanted[i] - lo + 1]))
            i += 1
        count += int(np.count_nonzero(flags))
    return out


class PsiReference:
    """psi(n) as math.fsum of log p over the prime powers p^k <= n."""

    def __init__(self, limit: int):
        terms = []
        for p in _small_primes(max(limit, 2)).tolist():
            lp = math.log(p)
            power = p
            while power <= limit:
                terms.append((power, lp))
                power *= p
        terms.sort()
        self.positions = [t[0] for t in terms]
        self.logs = [t[1] for t in terms]

    def __call__(self, n: int) -> float:
        return math.fsum(self.logs[: bisect.bisect_right(self.positions, n)])


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

mpmath.mp.dps = 50
_mpf, _log = mpmath.mpf, mpmath.log
_C1 = _log(2) / 2 + _log(3) / 3 + _log(5) / 5 - _log(30) / 30
_C2 = 6 * _C1 / 5


def _scaled(c):
    return lambda x, L: c * x / L


def _shifted(shift):
    return lambda x, L: x / (L - shift)


def _series(k):
    return lambda x, L: (x / L) * (1 + 1 / L + k / L**2)


def _affine(slope, a2, a1, a0):
    return lambda x, L: slope * x + a2 * L**2 + a1 * L + a0


#: the registry's formulas, restated from their definitions, as f(x, log x)
BOUNDS = {
    "cheb_lower": _scaled(_C1),
    "cheb_upper": _scaled(_C2),
    "cheb_upper_2x": _scaled(2 * _C2),
    "unit_lower": _scaled(_mpf(1)),
    "d1095": _scaled(_mpf("1.095")),
    "d125506": _scaled(_mpf("1.25506")),
    "dusart_lower": _series(_mpf("1.8")),
    "dusart_upper": _series(_mpf("2.51")),
    "pan_lower": _shifted(_mpf(28) / 29),
    "pan_upper": _shifted(_mpf("1.11")),
    "legendre_a": _shifted(_mpf("1.08366")),
    "psi_upper": _affine(_C2, 5 / (4 * _log(6)), _mpf(5) / 4, _mpf(1)),
    "psi_lower": _affine(_C1, _mpf(0), _mpf(-5) / 2, _mpf(-1)),
}


@lru_cache(maxsize=None)
def _x_and_log(x: str):
    value = _mpf(x)
    return value, _log(value)


def bound_value(name: str, x: str) -> float:
    return float(BOUNDS[name](*_x_and_log(x)))


def _close(got: str, want: float) -> bool:
    try:
        value = float(got)
    except ValueError:
        return False
    return math.isfinite(value) and abs(value - want) <= REL_TOL * abs(want)


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------

def scrub(report_json: str) -> str:
    """A verify JSON report with every elapsed_ms set to 0."""
    obj = json.loads(report_json)
    for claim in obj["claims"]:
        claim["elapsed_ms"] = 0
    return json.dumps(obj, indent=2) + "\n"


def check_verify(passes: list[dict]) -> tuple[int, list[str]]:
    """One operation per claim per pass; a claim fails if its entry differs."""
    pinned_text = PINNED.read_text()
    pinned = json.loads(pinned_text)
    attempted, failures = 0, []
    for p in passes:
        (report,) = p["outputs"]
        attempted += len(pinned["claims"])
        text = scrub(report)
        if text == pinned_text:
            continue
        got = json.loads(text)
        entries = {c["id"]: c for c in got["claims"]}
        same_frame = got["config"] == pinned["config"] and got["all_match"] == pinned["all_match"]
        differ = [want["id"] for want in pinned["claims"]
                  if not same_frame or entries.get(want["id"]) != want]
        # bytes can differ with every entry equal (order, extra keys): one failure
        failures.extend(f"pass {p['index']}: claim {cid} differs from the pinned report"
                        for cid in differ or ["(layout)"])
    return attempted, failures


def check_points(passes: list[dict], seed: int) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    outputs = [(p["index"], x, v) for p in passes for x, v in p["outputs"]]
    want = pi_values([x for _, x, _ in outputs])
    for p in passes:
        if [x for x, _ in p["outputs"]] != inputs.point_pass(seed, p["index"]):
            failures.append(f"pass {p['index']}: queries differ from the seeded inputs")
    for index, x, value in outputs:
        attempted += 1
        if value != want[x]:
            failures.append(f"pass {index}: pi({x}) = {value!r}, expected {want[x]}")
    return attempted, failures


_SCAN = re.compile(r"^PASS witness=(\d+) min_margin=\S+ points=(\d+) ambiguous=0\n$")


def check_mix(passes: list[dict], seed: int) -> tuple[int, list[str]]:
    ops = [(p["index"], *op) for p in passes for op in p["outputs"]]
    for p in passes:
        if [op[0] for op in p["outputs"]] != inputs.mix_pass(seed, p["index"]):
            return len(ops), [f"pass {p['index']}: calls differ from the seeded inputs"]
    pi_args, psi_args = [], []
    for _, argv, _, _, _ in ops:
        if argv[0] == "pi":
            pi_args.append(math.floor(float(argv[1])))
        elif argv[0] == "psi":
            psi_args.append(int(argv[1]))
        elif argv[0] == "table":
            pi_args.extend(range(int(argv[2]), int(argv[4]) + 1, int(argv[6])))
    pis = pi_values(pi_args)
    psi = PsiReference(max(psi_args, default=2))
    failures = []
    for index, argv, code, out, err in ops:
        problem = _check_call(argv, code, out, pis, psi)
        if problem:
            failures.append(f"pass {index}: {' '.join(argv)}: {problem}")
    return len(ops), failures


def _check_call(argv, code, out: str, pis, psi) -> str | None:
    if code != 0:
        return f"exit code {code!r}"
    kind = argv[0]
    if kind == "pi":
        want = str(pis[math.floor(float(argv[1]))]) + "\n"
        return None if out == want else f"printed {out!r}, expected {want!r}"
    if kind == "psi":
        want = psi(int(argv[1]))
        return None if _close(out, want) else f"printed {out!r}, expected {want!r}"
    if kind == "bound":
        want = bound_value(argv[2], argv[3])
        return None if _close(out, want) else f"printed {out!r}, expected {want!r}"
    if kind == "table":
        start, end, step, names = int(argv[2]), int(argv[4]), int(argv[6]), argv[8].split(",")
        lines = out.split("\n")
        xs = list(range(start, end + 1, step))
        if lines[0] != "x,pi," + ",".join(names) or len(lines) != len(xs) + 2 or lines[-1]:
            return "table header or row count wrong"
        for x, line in zip(xs, lines[1:]):
            cells = line.split(",")
            if cells[0] != str(x) or cells[1] != str(pis[x]):
                return f"row {line!r}: expected x={x}, pi={pis[x]}"
            for name, cell in zip(names, cells[2:]):
                if not _close(cell, bound_value(name, str(x))):
                    return f"row {line!r}: {name} off the 50-digit value"
        return None
    if kind == "scan":
        start, end = int(argv[6]), int(argv[8])
        m = _SCAN.match(out)
        if not m or int(m.group(2)) != end - start + 1 or not start <= int(m.group(1)) <= end:
            return f"printed {out!r}, expected a PASS over {end - start + 1} points"
        return None
    if kind == "crossover":
        want = f"threshold={inputs.CROSSOVER[2]} last_failure={inputs.CROSSOVER[2] - 1} " \
               "sign_changes=1 ambiguous=0\n"
        return None if out == want else f"printed {out!r}, expected {want!r}"
    return f"unknown operation {kind!r}"


def check(workload: str, seed: int, passes: list[dict]) -> tuple[int, list[str]]:
    if workload == "verify_full":
        return check_verify(passes)
    if workload == "point_queries":
        return check_points(passes, seed)
    return check_mix(passes, seed)
