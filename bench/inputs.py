"""Seeded input generators for the benchmark workloads.

Pure standard library: the orchestrator, the measured process and the
reference checker all import this module, and only the measured process
imports pibounds.  Pass ``i`` of a workload is a function of (workload,
seed, i) alone, so the same seed always yields the same inputs whatever the
speed of the machine, and a run that fits more passes in its time budget
only measures more of the same sequence.
"""

from __future__ import annotations

import math
import random

CAP = 5_000_000

#: queries per point_queries pass, one per log-stratum of (CAP, 10*CAP]
POINT_PASS = 10
POINT_HI = 10 * CAP

#: the table that opens every interactive_mix pass: TOP_ROWS rows ending at
#: the cap, with a step of at most TOP_MAX_STEP
TOP_ROWS = 10
TOP_MAX_STEP = 50
#: every other call of a pass reads only n below the opening table's rows
CEILING = CAP - TOP_ROWS * TOP_MAX_STEP

#: composition of one interactive_mix pass after its opener (shuffled)
MIX_PASS = (
    ("pi", 28),
    ("psi", 20),
    ("bound_eval", 24),
    ("table", 8),
    ("scan", 16),
    ("crossover", 4),
)

#: bounds known to be defined at every x >= 100 (all of the registry)
BOUND_NAMES = (
    "cheb_lower", "cheb_upper", "cheb_upper_2x", "unit_lower", "d1095",
    "d125506", "dusart_lower", "dusart_upper", "pan_lower", "pan_upper",
    "legendre_a", "psi_upper", "psi_lower",
)

#: (bound, direction, lo, hi) of every range the pinned claim report
#: records as a PASS scan: each subrange of one must PASS as well
PASS_RANGES = (
    ("cheb_upper", "upper", 96098, 112006),       # C2
    ("unit_lower", "lower", 17, 1_000_000),       # C5
    ("dusart_lower", "lower", 32299, 1_000_000),  # C6a
    ("dusart_upper", "upper", 355991, CAP),       # C6b
    ("d1095", "upper", 284860, CAP),              # C7a
    ("d125506", "upper", 17, 1_000_000),          # C7b
    ("pan_lower", "lower", 3299, 1_000_000),      # C8a
    ("cheb_lower", "lower", 30, 1_000_000),       # C12
    ("cheb_upper_2x", "upper", 30, 1_000_000),    # C12
)

#: C13: dusart_upper drops below pan_upper exactly from 28516 in [30, 50000]
CROSSOVER = ("dusart_upper", "pan_upper", 28516)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms in [0, 1), one from each of n equal slices, shuffled.

    Stratified draws make every pass span its whole range, so seeds differ
    in the exact points and their order, not in how much of the range a
    pass happens to cover.
    """
    us = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(us)
    return us


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def point_pass(seed: int, index: int) -> list[int]:
    """POINT_PASS x in (CAP, POINT_HI], log-uniform, one per log-stratum."""
    us = _strata(_rng("point_queries", seed, index), POINT_PASS)
    return [min(max(int(_log_uniform(u, CAP + 1, POINT_HI)), CAP + 1), POINT_HI) for u in us]


def _mix_op(rng: random.Random, kind: str, u: float) -> list[str]:
    """One CLI call; u places its size (x, start or length) in its range."""
    if kind == "pi":
        x = _log_uniform(u, 2, CEILING)
        # every third query takes a real argument, which pi floors
        text = f"{x:.3f}" if rng.random() < 1 / 3 else str(int(x))
        return ["pi", text]
    if kind == "psi":
        return ["psi", str(int(_log_uniform(u, 2, CEILING)))]
    if kind == "bound_eval":
        return ["bound", "eval", rng.choice(BOUND_NAMES), f"{_log_uniform(u, 100, CAP):.3f}"]
    if kind == "table":
        rows = rng.randint(10, 200)
        step = rng.randint(1, 50)
        start = int(_log_uniform(u, 100, CEILING - rows * step))
        names = rng.sample(BOUND_NAMES, rng.randint(1, 3))
        return ["table", "--from", str(start), "--to", str(start + (rows - 1) * step),
                "--step", str(step), "--bounds", ",".join(names)]
    if kind == "scan":
        bound, direction, lo, hi = rng.choice(PASS_RANGES)
        hi = min(hi, CEILING)
        length = int(_log_uniform(u, 100, min(1_000_000, hi - lo + 1)))
        start = rng.randint(lo, hi - length + 1)
        return ["scan", "--bound", bound, "--dir", direction,
                "--from", str(start), "--to", str(start + length - 1)]
    if kind == "crossover":
        left, right, threshold = CROSSOVER
        start = int(_log_uniform(u, 30, threshold - 100))
        end = int(_log_uniform(rng.random(), threshold + 100, 50000))
        return ["crossover", "--left", left, "--right", right,
                "--from", str(start), "--to", str(end)]
    raise ValueError(f"unknown mix op {kind!r}")


def _top_table(rng: random.Random) -> list[str]:
    """TOP_ROWS rows of pi and one to three bounds, the last row at the cap."""
    step = rng.randint(1, TOP_MAX_STEP)
    names = rng.sample(BOUND_NAMES, rng.randint(1, 3))
    return ["table", "--from", str(CAP - (TOP_ROWS - 1) * step), "--to", str(CAP),
            "--step", str(step), "--bounds", ",".join(names)]


def mix_pass(seed: int, index: int) -> list[list[str]]:
    """One interactive_mix pass: argv lists for cli.main, in call order.

    The pass opens with a table of TOP_ROWS rows that end at the cap, above
    every n that the pass's other calls read.  The pi table is cached per
    process and rebuilt from scratch whenever a larger n is asked for, and
    ``table`` reads its rows in ascending order, so in a fresh process each
    of the opener's rows rebuilds the pi table at nearly the cap: every seed
    pays the same TOP_ROWS rebuilds in its cold pass, and a change to that
    rebuild cost moves ``cold_s``.  Later passes find the table built.
    """
    rng = _rng("interactive_mix", seed, index)
    opener = _top_table(rng)
    calls = [(kind, u) for kind, count in MIX_PASS for u in _strata(rng, count)]
    rng.shuffle(calls)
    return [opener] + [_mix_op(rng, kind, u) for kind, u in calls]
