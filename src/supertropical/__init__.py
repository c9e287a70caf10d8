"""Exact max-plus linear algebra with ghost elements.

The carrier augments max-plus numbers with a ghost copy recording ties.
This package provides exact scalars, polynomials (evaluation, essential
reduction, root classification), matrices (permanent-style determinant
with dominant-track reporting, characteristic polynomial), eigenvalue
extraction, law checkers for the matrix-power relations, and symbolic
brute-force oracles that validate the production code paths.

Importing the package runs none of its modules. Each submodule below is
registered in ``sys.modules`` and in this namespace as a lazy module
(``importlib.util.LazyLoader``): it runs on the first attribute read or
``import`` statement that reaches it, so code that looks modules up in
``sys.modules`` finds every one of them. Each public name is read from its
home module on every access (PEP 562); the package stores none of them.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Every public name, by the module that defines it.
_EXPORTS = {
    "errors": (
        "BoundExceededError", "DomainError", "ParseError", "ShapeError", "SupertropicalError",
    ),
    "scalar": ("Kind", "ONE", "Scalar", "ZERO", "ghost", "parse_scalar", "tangible"),
    "polynomial": (
        "Interval", "Polynomial", "RootReport", "breakpoints", "coeff_strings", "essential",
        "is_root", "parse_polynomial", "polynomial_from_strings", "primary_root", "roots",
    ),
    "matrix": (
        "DetClass", "DetReport", "Matrix", "PermutationTrack", "char_poly", "det",
        "format_matrix", "mat_mul", "mat_pow", "mat_surpasses", "mat_vec",
        "matrix_from_json_dict", "parse_matrix", "principal_minor", "trace",
    ),
    "spectral": (
        "EigenReport", "Verdict", "check_charpoly_power", "check_corner_root_power",
        "check_det_rule", "check_eigen_power", "check_eigenpair", "check_frobenius",
        "check_tangible_equality", "check_trace_power", "eigenpairs", "eigenvalues",
    ),
    "oracle": (
        "SymMonomial", "SymPoly", "census_power_tracks", "enum_det", "minor_sum_charpoly",
        "sampled_equiv", "search_eigenpairs", "sym_charpoly_coeff", "sym_direct_charpoly",
    ),
    "fuzz": (
        "CampaignResult", "Config", "random_matrix", "random_polynomial", "random_scalar",
        "run_campaign", "trial_seed",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def _lazy_submodule(name: str):
    """Register submodule ``name`` in ``sys.modules``, to run on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy_submodule(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
