"""Truncated zeta sums, truncated Euler products over integer-valued
polynomial outputs, and the nested alternating residual series."""

from .errors import (
    BoundViolationError,
    ExactRationalUnsupportedError,
    LimitsTooLargeError,
    NonIntegerValuedError,
    NonsieveError,
    NotMonotoneError,
    OutOfRangeError,
)
from .mseries import (
    ComparisonReport,
    MSeriesExpansion,
    MSeriesTerm,
    compare_to_residual,
    enumerate_oracle,
    expansion_oracle,
    mseries_literal,
    sigma_chain,
)
from .numerics import EXACT, FLOAT, KahanSum, CompensatedProduct, PrecisionValue
from .polynomial import (
    IntegerPolynomial,
    integers,
    make_polynomial,
    parse_poly_spec,
    prime_shell,
    validate_monotone,
)
from .primes import (
    PrimeCensus,
    census,
    census_scan,
    is_prime,
    is_prime_trial_division,
    log_density_sum,
)
from .residual import (
    ResidualResult,
    euler_product_partial,
    residual,
    residual_scan,
    start_index,
    zeta_partial,
)

__version__ = "0.1.0"
