"""threshold-lab: exact F-pure threshold and plus-pure threshold computations.

The package computes base-p digit data, Frobenius-power oracles, closed-form
F-pure thresholds of diagonal hypersurfaces, and certified bounds for the
mixed-characteristic plus-pure threshold, all in exact rational arithmetic.
"""

from .certify import (
    BoundCertificate,
    InternalInconsistencyError,
    LimitProfile,
    RuleResult,
    certify,
    limit_profile,
    pth_root_modulo,
)
from .digits import (
    binomial_valuation_prime_power,
    digit_sum,
    digits_of,
    kummer_valuation,
    lucas_residue,
    magic_expansions,
    padic_valuation,
)
from .exact import (
    BasePExpansion,
    Rat,
    expand_base_p,
    format_rat,
    is_prime,
    require_prime,
)
from .fpt import (
    INFINITE,
    FptBracket,
    ResourceGuardError,
    compute_L,
    fpt_diagonal,
    frobenius_nu,
    lct_diagonal,
    oracle_bracket,
)
from .poly import (
    MembershipResult,
    MixedPoly,
    RingContext,
    SparsePolyFp,
    pow_mixed,
    pth_root_mod_fp,
    reduce_mod_pi,
    weighted_membership,
)
from .verify import diagonal_poly

__version__ = "0.1.0"

__all__ = [
    "BasePExpansion",
    "BoundCertificate",
    "FptBracket",
    "INFINITE",
    "InternalInconsistencyError",
    "LimitProfile",
    "MembershipResult",
    "MixedPoly",
    "Rat",
    "ResourceGuardError",
    "RingContext",
    "RuleResult",
    "SparsePolyFp",
    "binomial_valuation_prime_power",
    "certify",
    "compute_L",
    "diagonal_poly",
    "digit_sum",
    "digits_of",
    "expand_base_p",
    "format_rat",
    "fpt_diagonal",
    "frobenius_nu",
    "is_prime",
    "kummer_valuation",
    "lct_diagonal",
    "limit_profile",
    "lucas_residue",
    "magic_expansions",
    "oracle_bracket",
    "padic_valuation",
    "pow_mixed",
    "pth_root_mod_fp",
    "pth_root_modulo",
    "reduce_mod_pi",
    "require_prime",
    "weighted_membership",
]
