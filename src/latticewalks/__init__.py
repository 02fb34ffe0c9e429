"""Closed-walk series of tight-binding partition functions, three ways.

The package computes Taylor coefficients of single-electron partition
functions on seven lattice configurations via exact combinatorial
formulas, validates them against an independent walk-enumeration oracle,
and reproduces them a third time from dispersion moments over the
reciprocal primitive cell.
"""

from .lattices import BUILTIN_NAMES, LatticeSpec, StepVector, builtin
from .oracle import ORACLE_BOUNDS, WalkTally, enumerate_walks, finite_chain_trace
from .quadrature import (
    appendix_b_report,
    auto_grid_size,
    bessel_i,
    complex_chain_z,
    complex_fourier_a,
    finite_chain_momenta,
    moments,
)
from .series import Series, expand
from .verify import (
    CoefficientRecord,
    RecurrenceReport,
    SquareTestRecord,
    Tolerances,
    VerificationReport,
    check_square_conjecture,
    verify_identity,
    verify_recurrence,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "CoefficientRecord",
    "LatticeSpec",
    "ORACLE_BOUNDS",
    "RecurrenceReport",
    "Series",
    "SquareTestRecord",
    "StepVector",
    "Tolerances",
    "VerificationReport",
    "WalkTally",
    "appendix_b_report",
    "auto_grid_size",
    "bessel_i",
    "builtin",
    "check_square_conjecture",
    "complex_chain_z",
    "complex_fourier_a",
    "enumerate_walks",
    "expand",
    "finite_chain_momenta",
    "finite_chain_trace",
    "moments",
    "verify_identity",
    "verify_recurrence",
]
