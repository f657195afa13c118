"""Exact-arithmetic certification of q-congruences.

The library certifies congruences between truncated q-hypergeometric sums
modulo products of cyclotomic polynomial powers, checks the matching
closed-form identities exactly, and verifies the classical prime-power
congruences obtained in the q -> 1 limit.  Everything is computed over
arbitrary-precision integers and exact rationals; no result depends on
floating point or on any probabilistic shortcut.
"""

__version__ = "0.1.0"

from .congruence import (
    CongruenceReport,
    ModulusSpec,
    build_modulus_theorem,
    check_congruence,
    check_identity_equal,
    modulus_q_integer,
    verify_case,
)
from .cyclotomic import (
    cyclotomic,
    divisors,
    q_integer_cyclotomic_factors,
    valuation_at,
)
from .padic import (
    ResidueReport,
    dwork_quotient_check,
    verify_lucas,
    verify_m2,
    verify_swisher,
    verify_van_hamme,
)
from .polycore import INFINITE, Poly
from .qseries import (
    FactoredProduct,
    FamilySpec,
    SeriesSum,
    eta_product_coefficients,
    sum_truncated,
)

__all__ = [name for name in dir() if not name.startswith("_")]
