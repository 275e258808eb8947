"""Exact construction and verification of breadth-one derivative-closed
polynomial bases, with coalescing point schemes realizing their
differential functionals as limits of point evaluations."""

from .discretize import (
    ExpansionReport,
    Stencil,
    SweepRow,
    SymbolicPointSet,
    combination_poly,
    expansion_check,
    points_scheme_a,
    points_scheme_b,
    stencil,
    sweep,
    sweep_to_csv,
)
from .identities import (
    falling_factorial,
    falling_factorial_sum,
    signed_power_sum,
    vandermonde_oracle,
)
from .poly import DiffOperator, Exponent, Polynomial, Rational
from .subspace import (
    BasisSequence,
    ClosureReport,
    GeneralSpec,
    ParamTable,
    breadth,
    build_explicit,
    build_general,
    build_generating,
    build_recursive,
    check_closure,
    degrees,
    specialize,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSequence",
    "ClosureReport",
    "DiffOperator",
    "ExpansionReport",
    "Exponent",
    "GeneralSpec",
    "ParamTable",
    "Polynomial",
    "Rational",
    "Stencil",
    "SweepRow",
    "SymbolicPointSet",
    "breadth",
    "build_explicit",
    "build_general",
    "build_generating",
    "build_recursive",
    "check_closure",
    "combination_poly",
    "degrees",
    "expansion_check",
    "falling_factorial",
    "falling_factorial_sum",
    "points_scheme_a",
    "points_scheme_b",
    "signed_power_sum",
    "specialize",
    "stencil",
    "sweep",
    "sweep_to_csv",
    "vandermonde_oracle",
]
