"""The float64 numerics every verdict rests on: numpy's log against rigorous
arithmetic, and a bound's point value against the kernel the scans run.

Plain functions, so that a subprocess on another SIMD path can run them too.
"""

import functools
import math
import platform
import random
import sys

import mpmath
import numpy as np

from pibounds import primes
from pibounds.bounds import builtin_bounds, evaluate
from pibounds.claims import builtin_claims
from pibounds.errors import DomainError

PREC = 120
LOG_CHUNK = 1 << 20


def glibc_with_cited_log():
    """Whether this process runs on glibc 2.28 or later, whose log states a
    worst case of about 0.52 ulp in its source."""
    lib, version = platform.libc_ver()
    return lib == "glibc" and tuple(map(int, version.split(".")[:2])) >= (2, 28)


def log_within_eps(x, got):
    """got, a float64 log of x, lies within eps |log x| of it at PREC bits."""
    with mpmath.workprec(PREC):
        exact_log = mpmath.log(mpmath.mpf(x))
        return abs(mpmath.mpf(got) - exact_log) <= sys.float_info.epsilon * abs(exact_log)


@functools.cache
def integers_where_log_differs():
    """The integers up to DEFAULT_CAP + 1 where numpy's float64 log differs
    from libm's (math.log), found a chunk at a time."""
    differ = []
    for lo in range(2, primes.DEFAULT_CAP + 2, LOG_CHUNK):
        ns = np.arange(lo, min(lo + LOG_CHUNK, primes.DEFAULT_CAP + 2), dtype=np.float64)
        libc = np.fromiter(map(math.log, ns.tolist()), np.float64, ns.size)
        differ.extend(ns[np.log(ns) != libc].tolist())
    return tuple(differ)


def log_points(sample):
    """Each bound's turning point and the x from which its guard grows, and
    each claim's eval_points; with sample, also a seeded sample of 10,000
    integers up to DEFAULT_CAP + 1, which stands in for all of them where
    glibc's cited bound is not assumed."""
    xs = [x for b in builtin_bounds().values()
          for x in (b.increase_start(), b.guard_increase_start())]
    xs += [x for c in builtin_claims() for x, _, _ in c.payload.get("eval_points", [])]
    if sample:
        xs += random.Random(2030).sample(range(2, primes.DEFAULT_CAP + 2), 10_000)
    return xs


def logs_outside_eps(xs):
    """The x of xs whose numpy float64 log is not within eps of log x."""
    logs = np.log(np.array(xs, dtype=np.float64))
    return [x for x, got in zip(xs, logs.tolist()) if not log_within_eps(x, got)]


def point_sample(n, seed):
    """n seeded reals of each kind: integers up to DEFAULT_CAP + 1, uniform
    reals in [2, DEFAULT_CAP], and log-uniform reals up to 1e300; then x just
    above each builtin bound's domain start and x near the float ceiling."""
    rng = random.Random(seed)
    xs = [float(x) for x in rng.sample(range(2, primes.DEFAULT_CAP + 2), n)]
    xs += [rng.uniform(2.0, primes.DEFAULT_CAP) for _ in range(n)]
    xs += [10.0 ** rng.uniform(0.0, 300.0) for _ in range(n)]
    for b in builtin_bounds().values():
        x = b.domain_start()
        for _ in range(4):
            x = math.nextafter(x, math.inf)
            xs.append(x)
        xs += [b.domain_start() * (1.0 + 2.0 ** -k) for k in (10, 20, 30, 40)]
    xs += [sys.float_info.max / d for d in (1.0, 1.5, 2.0, 3.0, 4.0, 16.0, 1e3)]
    return xs


def points_off_the_kernel(xs):
    """(bound name, x) for each builtin bound and each x of xs above its domain
    start where evaluate(b, x) is not, bit for bit, the value and error bound
    of b.values_with_error on an array holding x, or refuses x while both are
    finite there."""
    off = []
    for b in builtin_bounds().values():
        inside = [x for x in xs if x > b.domain_start()]
        arr = np.array(inside, dtype=np.float64)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals, errs = b.values_with_error(arr, np.log(arr))
            for x, value, error in zip(inside, vals.tolist(), errs.tolist()):
                try:
                    res = evaluate(b, x)
                except DomainError:
                    if math.isfinite(value) and math.isfinite(error):
                        off.append((b.name, x))
                    continue
                if (res.value.hex(), res.abs_error_bound.hex()) != (value.hex(), error.hex()):
                    off.append((b.name, x))
    return off
