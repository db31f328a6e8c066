"""The closed algebra of bound expressions under verification.

Four shapes cover everything the toolkit checks against pi(x) or psi(x):

* ScaledLog      B(x) = c * x / log(x)
* ShiftedLog     B(x) = x / (log(x) - shift)
* DusartSeries   B(x) = (x/log x) * (1 + 1/log x + k/log^2 x)
* PsiAffine      B(x) = slope*x + log2_coeff*log^2 x + log_coeff*log x + offset

All logs are natural.  Constants are constructed from their defining
formulas, never hardcoded as decimals, except where a decimal literal *is*
the definition (1.11, 2.51, ...).

Error bounds.  Every factor follows from one assumption, that numpy's float64
log is within 1 ulp (relative error eps), and the operation count: each +,
-, * and / rounds within eps/2, and n such roundings, the log's counting as
two, stay within gamma_n ~ n eps/2 (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 3), x and the constants taken as exact.  ScaledLog:
scale * x / L carries gamma_4 ~ 2 eps, kept at 8 eps.  DusartSeries: t = 1/L
gamma_3, x t gamma_4, k t t gamma_8, 1 + t + k t t gamma_9, the product
gamma_14 ~ 7 eps, kept at 16 eps.  PsiAffine: log2_coeff L L carries 3 eps,
and the sum adds 1.5 eps of all |terms|, so 4 eps of them holds while that
term is at most 4 slope x, at every x > 1 once log2_coeff <= 7 slope
(log^2 x / x <= 4/e^2), which PsiAffine requires.  ShiftedLog: u = L - shift
inherits the log's eps |L|, eps |L| / |u| of u; 2 |L| / |u| doubles it, for
a true u down to half the float one (where the guard is below the value),
and 4 covers two roundings.  PSI_ERR_FACTOR: a psi prefix rounds once the
exact sum of float log p, each within eps: 1.5 eps, kept at 4 eps.

Each shape is either increasing on its whole domain or falls then rises
through a single minimum; `increase_start` exposes that turning point in
closed form (or by bisection of the closed-form derivative), which is what
makes the integer reduction in the scan module sound; the error bound of
`values_with_error` no longer falls from `guard_increase_start` on.

`curvature(xs, logs)` bounds |B''| over [x, inf) in closed form.  B'' is a
sum of terms c * L^-j / x, with L = log x (log x - shift for ShiftedLog), or
(c + c' L) / x^2 for PsiAffine; the bound adds the absolute values of the
terms, each of which falls as x grows, so its value at a stretch's left end
bounds the whole stretch.  It is inflated by a few ulps (and by the
cancellation in log(x) - shift for ShiftedLog) to cover its own rounding.
The stretch reduction of crossover searches reads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from decimal import Decimal
from functools import cache, cached_property

import numpy as np

from .errors import DomainError, MonotonicityError, UnknownNameError

_EPS = sys.float_info.epsilon
# covers the roundings in evaluating a curvature bound, log(x)'s ulp raised to
# the fifth power among them
_CURVE_ROUNDING = 1.0 + 64.0 * _EPS


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_error_bound: float


@dataclass(frozen=True)
class BoundExpr:
    """Base class; concrete shapes implement the vector kernel."""

    name: str
    valid_from: float

    #: open lower end of the mathematical domain (x must be strictly above)
    def domain_start(self) -> float:
        return 1.0

    def formula(self) -> str:
        raise NotImplementedError

    def values_with_error(self, xs: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vector kernel: (values, conservative absolute error bounds)."""
        raise NotImplementedError

    def increase_start(self) -> float:
        """x* such that the expression decreases before x* and increases after.

        Returns domain_start() when the expression increases on its whole
        domain.  A shape without such a turn is refused here, for every scan
        and crossover.
        """
        raise MonotonicityError(
            f"bound {self.name!r} does not expose a monotone/single-minimum shape"
        )

    def guard_increase_start(self) -> float:
        """x from which the error bound of values_with_error never falls."""
        return self.increase_start()

    def curvature(self, xs: np.ndarray, logs: np.ndarray) -> np.ndarray:
        """Upper bound on |B''(t)| over t >= x, for each x in xs (logs = log(xs))."""
        raise NotImplementedError

    # -- conveniences ------------------------------------------------------

    def check_domain(self, x: float) -> None:
        try:
            finite = math.isfinite(x)
        except OverflowError:  # a number beyond every float, an int or a Fraction, quoted short
            raise DomainError(f"bound {self.name!r} needs x within the float range, "
                              f"got x={Decimal(int(x)):.6e}") from None
        if not finite:
            raise DomainError(f"bound {self.name!r} needs a finite x, got x={x}")
        if not x > self.domain_start():
            raise DomainError(
                f"bound {self.name!r} is undefined at x={x}: requires x > {self.domain_start():g}"
            )


def _require_finite(shape: BoundExpr) -> None:
    """Refuse a shape whose valid_from or constant is not finite: the kernel
    would carry it into every value as an inf or nan margin."""
    for f in fields(shape)[1:]:  # every field after the name is a number
        value = getattr(shape, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{type(shape).__name__} needs a finite {f.name}, got {value}")


@dataclass(frozen=True)
class ScaledLog(BoundExpr):
    """B(x) = scale * x / log(x) for x > 1."""

    scale: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.scale > 0:
            raise ValueError("ScaledLog needs a positive scale")

    def formula(self) -> str:
        return f"{self.scale!r}*x/log(x)"

    def values_with_error(self, xs, logs):
        vals = self.scale * xs / logs
        return vals, (8.0 * _EPS) * np.abs(vals)

    def increase_start(self) -> float:
        return math.e

    def curvature(self, xs, logs):
        # B'' = scale * (2/L^3 - 1/L^2) / x
        t = 1.0 / logs
        return _CURVE_ROUNDING * self.scale * (t * t * (1.0 + 2.0 * t)) / xs


@dataclass(frozen=True)
class ShiftedLog(BoundExpr):
    """B(x) = x / (log(x) - shift) for log(x) > shift."""

    shift: float

    def __post_init__(self) -> None:
        _require_finite(self)

    def domain_start(self) -> float:
        return math.exp(self.shift)

    def formula(self) -> str:
        return f"x/(log(x)-{self.shift!r})"

    def values_with_error(self, xs, logs):
        denom = logs - self.shift
        vals = xs / denom
        rel = _EPS * (4.0 + 2.0 * np.abs(logs) / np.abs(denom))
        return vals, rel * np.abs(vals)

    def increase_start(self) -> float:
        return math.exp(self.shift + 1.0)

    def guard_increase_start(self) -> float:
        # the guard is eps*(4x/u + 2Lx/u^2) with u = L - shift; the derivative
        # of Lx/u^2 is (u(1+L) - 2L)/u^3, positive once u >= 2
        return math.exp(self.shift + 2.0)

    def curvature(self, xs, logs):
        # B'' = (2/u^3 - 1/u^2) / x; u inherits log(x)'s rounding, amplified by L/u
        u = logs - self.shift
        t = 1.0 / u
        rounding = _CURVE_ROUNDING + 8.0 * _EPS * np.abs(logs) * t
        return rounding * (t * t * (1.0 + 2.0 * t)) / xs


@dataclass(frozen=True)
class DusartSeries(BoundExpr):
    """B(x) = (x/log x)(1 + 1/log x + k/log^2 x) for x > 1."""

    k: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.k > 0:
            raise ValueError("DusartSeries needs a positive k")

    def formula(self) -> str:
        return f"(x/log(x))*(1+1/log(x)+{self.k!r}/log(x)^2)"

    def values_with_error(self, xs, logs):
        t = 1.0 / logs
        vals = (xs * t) * (1.0 + t + self.k * t * t)
        return vals, (16.0 * _EPS) * np.abs(vals)

    def increase_start(self) -> float:
        return self._turn

    def curvature(self, xs, logs):
        # B'' = (-1/L^2 - 3(k-2)/L^4 + 12k/L^5) / x
        t = 1.0 / logs
        tail = t * t * (3.0 * abs(self.k - 2.0) + 12.0 * self.k * t)
        return _CURVE_ROUNDING * (t * t * (1.0 + tail)) / xs

    @cached_property
    def _turn(self) -> float:
        # derivative numerator in L = log x: N(L) = L^3 + (k-2)L - 3k,
        # strictly increasing where it matters; bisect for its root
        def num(L: float) -> float:
            return L * L * L + (self.k - 2.0) * L - 3.0 * self.k

        return math.exp(_bisect(num, 1e-9, 10.0))


@dataclass(frozen=True)
class PsiAffine(BoundExpr):
    """B(x) = slope*x + log2_coeff*log^2 x + log_coeff*log x + offset for x > 1."""

    slope: float
    log2_coeff: float
    log_coeff: float
    offset: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.slope > 0 and 0 <= self.log2_coeff <= 7.0 * self.slope):
            raise ValueError("PsiAffine needs slope > 0 and 0 <= log2_coeff <= 7 * slope")

    def formula(self) -> str:
        return (
            f"{self.slope!r}*x+{self.log2_coeff!r}*log(x)^2"
            f"+{self.log_coeff!r}*log(x)+{self.offset!r}"
        )

    def values_with_error(self, xs, logs):
        t1 = self.slope * xs
        t2 = self.log2_coeff * logs * logs
        t3 = self.log_coeff * logs
        vals = t1 + t2 + t3 + self.offset
        errs = (4.0 * _EPS) * (np.abs(t1) + np.abs(t2) + np.abs(t3) + abs(self.offset))
        return vals, errs

    def increase_start(self) -> float:
        return self._turn

    def guard_increase_start(self) -> float:
        return self.domain_start()  # every term of the guard grows with x

    def curvature(self, xs, logs):
        # B'' = (2*log2_coeff*(1 - L) - log_coeff) / x^2
        top = 2.0 * self.log2_coeff * (logs + 1.0) + abs(self.log_coeff)
        return _CURVE_ROUNDING * top / (xs * xs)

    @cached_property
    def _turn(self) -> float:
        # derivative sign is the sign of h(x) = slope*x + 2*log2_coeff*log x + log_coeff,
        # which is strictly increasing for slope > 0, log2_coeff >= 0
        def h(x: float) -> float:
            return self.slope * x + 2.0 * self.log2_coeff * math.log(x) + self.log_coeff

        if h(1.0) >= 0.0:
            return 1.0
        hi = 2.0
        while h(hi) < 0.0:
            hi *= 2.0
        return _bisect(h, 1.0, hi)


def _bisect(fn, lo: float, hi: float) -> float:
    """Right end of [lo, hi] after 200 halvings that keep fn(lo) < 0 <= fn(hi)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# constants and registry
# ---------------------------------------------------------------------------

def chebyshev_constants() -> tuple[float, float]:
    """(c1, c2) with c1 = log(2^(1/2) 3^(1/3) 5^(1/5) 30^(-1/30)), c2 = (6/5)c1."""
    c1 = (
        0.5 * math.log(2.0)
        + math.log(3.0) / 3.0
        + math.log(5.0) / 5.0
        - math.log(30.0) / 30.0
    )
    return c1, 6.0 * c1 / 5.0


def builtin_bounds() -> dict[str, BoundExpr]:
    """The named bound registry used by scans, claims and the CLI: a new dict
    on each call, over instances built once per process."""
    return {b.name: b for b in _builtin_entries()}


def lookup_bound(name: str) -> BoundExpr:
    """The builtin bound called name; an unknown name's error lists the valid ones."""
    registry = builtin_bounds()
    if name not in registry:
        raise UnknownNameError(
            f"unknown bound {name!r}; valid names: {', '.join(registry)}"
        )
    return registry[name]


@cache
def _builtin_entries() -> tuple[BoundExpr, ...]:
    # built once, so each instance bisects its turning point once
    c1, c2 = chebyshev_constants()
    return (
        ScaledLog("cheb_lower", 30.0, c1),
        ScaledLog("cheb_upper", 96098.0, c2),
        ScaledLog("cheb_upper_2x", 30.0, 2.0 * c2),
        ScaledLog("unit_lower", 17.0, 1.0),
        ScaledLog("d1095", 284860.0, 1.095),
        ScaledLog("d125506", 17.0, 1.25506),
        DusartSeries("dusart_lower", 32299.0, 1.8),
        DusartSeries("dusart_upper", 355991.0, 2.51),
        ShiftedLog("pan_lower", 3299.0, 28.0 / 29.0),
        ShiftedLog("pan_upper", 4.0, 1.11),
        ShiftedLog("legendre_a", 1_000_000.0, 1.08366),
        PsiAffine("psi_upper", 30.0, c2, 5.0 / (4.0 * math.log(6.0)), 5.0 / 4.0, 1.0),
        PsiAffine("psi_lower", 30.0, c1, 0.0, -5.0 / 2.0, -1.0),
    )


def evaluate(b: BoundExpr, x: float) -> EvalResult:
    """Evaluate b at a real x > its domain start; refuse a non-finite result.

    The kernel runs on a float64 scalar, with numpy's log as the scans take
    it, so the value and guard equal a scan's at x bit for bit, without the
    per-array cost of a one-element array.  Its overflow is silenced here, as
    the finite check below refuses what overflows.
    """
    b.check_domain(x)
    x64 = np.float64(x)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, errs = b.values_with_error(x64, np.log(x64))
    value, error = float(vals), float(errs)
    if not (math.isfinite(value) and math.isfinite(error)):
        raise DomainError(f"bound {b.name!r} has no finite value or error bound at x={x}")
    return EvalResult(value, error)
