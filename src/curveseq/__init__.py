"""curveseq: exact verification of integrality and mod-p congruence properties
of a polynomial-coefficient linear recurrence attached to a genus-1 curve."""

__version__ = "0.1.0"

from .exactnum import (
    QuadExt,
    generalized_binomial,
    is_prime,
    legendre_symbol,
    padic_valuation,
)
from .recurrence import (
    MAIN_RECURRENCE,
    MAIN_INITIAL_DATA,
    InitialData,
    Recurrence,
    extend_integral,
    extend_modp,
    extend_rational,
    main_sequence,
)
from .series import LaurentSeries, TruncatedSeries, congruence_scan, dieudonne_exponents

__all__ = [
    "QuadExt",
    "generalized_binomial",
    "is_prime",
    "legendre_symbol",
    "padic_valuation",
    "MAIN_RECURRENCE",
    "MAIN_INITIAL_DATA",
    "InitialData",
    "Recurrence",
    "extend_integral",
    "extend_modp",
    "extend_rational",
    "main_sequence",
    "LaurentSeries",
    "TruncatedSeries",
    "congruence_scan",
    "dieudonne_exponents",
    "__version__",
]
