"""pibounds: exact prime counting and verification of explicit pi/psi bounds."""

from .bounds import (
    BoundExpr,
    DusartSeries,
    EvalResult,
    PsiAffine,
    ScaledLog,
    ShiftedLog,
    builtin_bounds,
    chebyshev_constants,
    evaluate,
)
from .claims import Claim, ClaimKind, Report, builtin_claims, run_all, run_claim
from .primes import (
    DEFAULT_CAP,
    PsiValue,
    pi_at,
    pi_point_legendre,
    psi_at,
)
from .scan import (
    CrossoverResult,
    Direction,
    Status,
    Verdict,
    analytic_crossover,
    exp_threshold,
    verify_pi,
    verify_psi,
    verify_sandwich,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExpr", "ScaledLog", "ShiftedLog", "DusartSeries", "PsiAffine",
    "EvalResult", "builtin_bounds", "chebyshev_constants", "evaluate",
    "Claim", "ClaimKind", "Report", "builtin_claims", "run_all", "run_claim",
    "DEFAULT_CAP", "PsiValue", "pi_at", "pi_point_legendre", "psi_at",
    "CrossoverResult", "Direction", "Status", "Verdict", "analytic_crossover",
    "exp_threshold", "verify_pi", "verify_psi", "verify_sandwich",
]
