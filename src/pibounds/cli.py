"""Command-line frontend.

Subcommands: pi, psi, bound list/eval, scan, crossover, verify, table.
Exit codes: 0 when the invoked check fully passed or matched, 1 on a
FAIL/MISMATCH outcome, 2 on usage, unknown-name, or domain errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from decimal import Decimal, InvalidOperation

import numpy as np

from . import claims, primes, scan
from .bounds import builtin_bounds, evaluate, lookup_bound
from .errors import CrossoverNotFoundError, DomainError, PiBoundsError
from .primes import DEFAULT_CAP
from .scan import Status


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pibounds",
        description="Exact prime counting and verification of explicit pi/psi bounds.",
    )
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="scan cap (default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pi = sub.add_parser("pi", help="prime count pi(floor(x))")
    p_pi.set_defaults(handler=_cmd_pi)
    p_pi.add_argument("x", help="integer or decimal; pi(floor(x)) is reported")

    p_psi = sub.add_parser("psi", help="Chebyshev psi(floor(x))")
    p_psi.set_defaults(handler=_cmd_psi)
    p_psi.add_argument("x", help="integer or decimal; psi(floor(x)) is reported")

    p_bound = sub.add_parser("bound", help="bound registry operations")
    bound_sub = p_bound.add_subparsers(dest="bound_command", required=True)
    p_list = bound_sub.add_parser("list", help="list registered bounds")
    p_list.set_defaults(handler=_cmd_bound_list)
    p_eval = bound_sub.add_parser("eval", help="evaluate a bound at x")
    p_eval.set_defaults(handler=_cmd_bound_eval)
    p_eval.add_argument("name")
    p_eval.add_argument("x", type=float)

    p_scan = sub.add_parser("scan", help="verify a pi inequality over a range")
    p_scan.set_defaults(handler=_cmd_scan)
    p_scan.add_argument("--bound", required=True)
    p_scan.add_argument("--dir", required=True, choices=("upper", "lower"))
    p_scan.add_argument("--from", dest="start", type=int, required=True)
    p_scan.add_argument("--to", dest="end", type=int, required=True)

    p_cross = sub.add_parser("crossover", help="locate where one bound drops below another")
    p_cross.set_defaults(handler=_cmd_crossover)
    p_cross.add_argument("--left", required=True)
    p_cross.add_argument("--right", required=True)
    p_cross.add_argument("--from", dest="start", type=int, required=True)
    p_cross.add_argument("--to", dest="end", type=int, required=True)

    p_verify = sub.add_parser("verify", help="run the builtin claim suite")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("--claims", dest="claim_ids", default=None,
                          help="comma-separated claim ids (default: all)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_table = sub.add_parser("table", help="CSV table of pi and bound values")
    p_table.set_defaults(handler=_cmd_table)
    p_table.add_argument("--from", dest="start", type=int, required=True)
    p_table.add_argument("--to", dest="end", type=int, required=True)
    p_table.add_argument("--step", type=int, default=1)
    p_table.add_argument("--bounds", default=None, help="comma-separated bound names")

    return parser


_MAX_DIGITS = 4300  # the default digit limit of Python's int(str)


def floor_exact(text: str) -> int:
    """floor(x) of a decimal numeral, exact at any size (no float rounding)."""
    try:
        x = Decimal(text)
    except InvalidOperation:
        raise DomainError(f"x must be a decimal number, got {text!r}") from None
    if not (x.is_finite() and x >= 0):
        raise DomainError(f"x must be finite and >= 0, got {text}")
    if x.adjusted() >= _MAX_DIGITS:  # floor(1e999999999) alone would take GBs
        raise DomainError(f"x must be below 10**{_MAX_DIGITS}, got {text}")
    return math.floor(x)


def _cmd_pi(args) -> int:
    print(primes.pi_at(floor_exact(args.x), cap=args.cap))
    return 0


def _cmd_psi(args) -> int:
    res = primes.psi_at(floor_exact(args.x), cap=args.cap)
    print(res.value)
    return 0


def _cmd_bound_list(args) -> int:
    for name, b in builtin_bounds().items():
        print(f"{name}\tvalid_from={b.valid_from:g}\t{b.formula()}")
    return 0


def _cmd_bound_eval(args) -> int:
    b = lookup_bound(args.name)
    with np.errstate(over="ignore", invalid="ignore"):  # evaluate refuses what overflows
        res = evaluate(b, args.x)
    print(res.value)
    return 0


def _cmd_scan(args) -> int:
    b = lookup_bound(args.bound)
    verdict = scan.verify_pi(b, args.dir, args.start, args.end, cap=args.cap)
    print(
        f"{verdict.status.value} witness={verdict.witness} "
        f"min_margin={verdict.min_margin!r} points={verdict.points_checked} "
        f"ambiguous={len(verdict.ambiguous_points)}"
    )
    return 0 if verdict.status is Status.PASS else 1


def _cmd_crossover(args) -> int:
    f = lookup_bound(args.left)
    g = lookup_bound(args.right)
    res = scan.analytic_crossover(f, g, args.start, args.end, cap=args.cap)
    print(
        f"threshold={res.threshold} last_failure={res.last_failure} "
        f"sign_changes={res.sign_changes} ambiguous={len(res.ambiguous_points)}"
    )
    return 0


def _cmd_verify(args) -> int:
    ids = None
    if args.claim_ids is not None:
        ids = [t.strip() for t in args.claim_ids.split(",") if t.strip()]
    report = claims.run_all(ids, cap=args.cap)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.all_match else 1


def _cmd_table(args) -> int:
    names = [t.strip() for t in (args.bounds or "").split(",") if t.strip()]
    bounds = [lookup_bound(name) for name in names]
    if args.step < 1:
        raise DomainError("table step must be >= 1")
    if not 0 <= args.start <= args.end:
        raise DomainError(f"table needs 0 <= --from <= --to, got [{args.start}, {args.end}]")
    rows = range(args.start, args.end + 1, args.step)
    # raise every error before the header: pi_rows refuses rows it cannot
    # count, and each bound's domain is a half-line, so the first row decides it
    counts = primes.pi_rows(rows, cap=args.cap)
    for b in bounds:
        b.check_domain(float(rows[0]))
    print(",".join(["x", "pi", *names]))
    for x, pi in zip(rows, counts):
        values = [repr(evaluate(b, float(x)).value) for b in bounds]
        print(",".join([str(x), str(pi), *values]))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        primes.check_cap(args.cap)
        return args.handler(args)
    except CrossoverNotFoundError as exc:
        print(f"no crossover: {exc}", file=sys.stderr)
        return 1
    except (PiBoundsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
