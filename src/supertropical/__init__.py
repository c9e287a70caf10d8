"""Exact max-plus linear algebra with ghost elements.

The carrier augments max-plus numbers with a ghost copy recording ties.
This package provides exact scalars, polynomials (evaluation, essential
reduction, root classification), matrices (permanent-style determinant
with dominant-track reporting, characteristic polynomial), eigenvalue
extraction, law checkers for the matrix-power relations, and symbolic
brute-force oracles that validate the production code paths.
"""

from .errors import (
    BoundExceededError,
    DomainError,
    ParseError,
    ShapeError,
    SupertropicalError,
)
from .scalar import Kind, ONE, Scalar, ZERO, ghost, parse_scalar, tangible
from .polynomial import (
    Interval,
    Polynomial,
    RootReport,
    breakpoints,
    coeff_strings,
    essential,
    is_root,
    parse_polynomial,
    polynomial_from_strings,
    primary_root,
    roots,
)
from .matrix import (
    DetClass,
    DetReport,
    Matrix,
    PermutationTrack,
    char_poly,
    det,
    format_matrix,
    mat_mul,
    mat_pow,
    mat_surpasses,
    mat_vec,
    matrix_from_json_dict,
    parse_matrix,
    principal_minor,
    trace,
)
from .spectral import (
    EigenReport,
    Verdict,
    check_charpoly_power,
    check_corner_root_power,
    check_det_rule,
    check_eigen_power,
    check_eigenpair,
    check_frobenius,
    check_tangible_equality,
    check_trace_power,
    eigenvalues,
)
from .oracle import (
    SymMonomial,
    SymPoly,
    census_power_tracks,
    enum_det,
    minor_sum_charpoly,
    sampled_equiv,
    sym_charpoly_coeff,
    sym_direct_charpoly,
)
from .fuzz import (
    CampaignResult,
    Config,
    random_matrix,
    random_polynomial,
    random_scalar,
    run_campaign,
    search_eigenpairs,
    trial_seed,
)

__version__ = "0.1.0"
