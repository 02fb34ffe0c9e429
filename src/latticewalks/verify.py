"""Cross-route verification of the coefficient identities.

For every multi-index up to a requested order this module compares

* the exact closed-form coefficient (:mod:`latticewalks.series`),
* the walk-enumeration count (:mod:`latticewalks.oracle`), compared as
  exact integers against n! times the coefficient, and
* the quadrature moment (:mod:`latticewalks.quadrature`), compared as a
  float against the coefficient at a fixed tolerance,

and assembles a machine-readable report.  Also here: the exact
recurrence check for the two-label chain, the perfect-square scan of the
bcc coefficients, and the complex-hopping appendix checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import oracle, quadrature, series
from .lattices import LatticeSpec, builtin
from .series import MultiIndex


@dataclass(frozen=True)
class Tolerances:
    relative: float = 1e-9
    zero_abs: float = 1e-12

    def __post_init__(self):
        if self.relative <= 0 or self.zero_abs <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class CoefficientRecord:
    index: MultiIndex
    exact: Fraction
    oracle_count: Optional[int]
    grid_points: int
    numeric: float
    abs_error: float
    rel_error: Optional[float]
    passed: bool

    def to_row(self, lattice: str) -> dict:
        return {
            "lattice": lattice,
            "index": " ".join(str(m) for m in self.index),
            "order": sum(self.index),
            "exact_num": str(self.exact.numerator),
            "exact_den": str(self.exact.denominator),
            "oracle": "" if self.oracle_count is None else str(self.oracle_count),
            "grid_points": self.grid_points,
            "numeric": self.numeric,
            "abs_error": self.abs_error,
            "rel_error": "" if self.rel_error is None else self.rel_error,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    lattice: str
    pbc_size: Optional[int]
    max_order: int
    grid_policy: str
    tolerances: Tolerances
    records: tuple[CoefficientRecord, ...]

    @property
    def checked(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    @property
    def passed(self) -> int:
        return self.checked - self.failed

    def rows(self) -> list[dict]:
        return [r.to_row(self.lattice) for r in self.records]

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice,
            "pbc_size": self.pbc_size,
            "max_order": self.max_order,
            "grid_policy": self.grid_policy,
            "tolerances": {
                "relative": self.tolerances.relative,
                "zero_abs": self.tolerances.zero_abs,
            },
            "summary": {"checked": self.checked, "passed": self.passed, "failed": self.failed},
            "records": self.rows(),
        }


def _indices_to_order(label_count: int, max_order: int) -> list[MultiIndex]:
    out = []
    for n in range(max_order + 1):
        out.extend(series._compositions(n, label_count))
    return sorted(out)


def _numeric_coefficient(spec: LatticeSpec, index: MultiIndex, grid_points: int) -> float:
    """Coefficient via the moment route: moment / index factorials."""
    result = quadrature.moment(spec, index, grid_points)
    scale = 1
    for m in index:
        scale *= math.factorial(m)
    return result.value / scale


def verify_identity(
    name: str,
    max_order: int,
    pbc_size: Optional[int] = None,
    grid: int | str = "auto",
    tolerances: Tolerances = Tolerances(),
    oracle_limit: Optional[int] = None,
) -> VerificationReport:
    """Compare all three coefficient routes up to ``max_order``."""
    spec = builtin(name, pbc_size)
    exact = series.expand(name, max_order, pbc_size)
    limit = oracle.oracle_bound(spec.dimension) if oracle_limit is None else oracle_limit

    tallies = {
        n: oracle.enumerate_walks(spec, n, bound=limit)
        for n in range(min(max_order, limit) + 1)
    }

    records = []
    for index in _indices_to_order(spec.hopping_count, max_order):
        n = sum(index)
        coeff = exact.coefficient(index)
        count = tallies[n].count(index) if n in tallies else None

        grid_points = quadrature.auto_grid_size(spec, index) if grid == "auto" else int(grid)
        numeric = _numeric_coefficient(spec, index, grid_points)

        approx = float(coeff)
        abs_error = abs(numeric - approx)
        rel_error = abs_error / abs(approx) if coeff != 0 else None
        numeric_ok = (
            abs_error <= tolerances.zero_abs if coeff == 0 else rel_error <= tolerances.relative
        )
        oracle_ok = count is None or coeff * math.factorial(n) == count
        records.append(
            CoefficientRecord(
                index=index,
                exact=coeff,
                oracle_count=count,
                grid_points=grid_points,
                numeric=numeric,
                abs_error=abs_error,
                rel_error=rel_error,
                passed=bool(numeric_ok and oracle_ok),
            )
        )
    return VerificationReport(
        lattice=name,
        pbc_size=spec.pbc_size,
        max_order=max_order,
        grid_policy="auto" if grid == "auto" else str(int(grid)),
        tolerances=tolerances,
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# recurrence of the two-label chain coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    max_total_order: int
    checked: int
    violations: tuple[tuple[int, int, str], ...]

    @property
    def failed(self) -> int:
        return len(self.violations)

    def to_json_dict(self) -> dict:
        return {
            "max_total_order": self.max_total_order,
            "checked": self.checked,
            "failed": self.failed,
            "violations": [
                {"n1": n1, "n2": n2, "residual": res} for n1, n2, res in self.violations
            ],
        }


def verify_recurrence(max_total_order: int) -> RecurrenceReport:
    """Exact check of the two-label chain coefficient recurrence.

    (n1+2)(n1+1) L[n1+2, n2] - (n2+1) L[n1, n2+1] - 2 L[n1, n2] = 0
    for every n1 + n2 <= max_total_order, in rational arithmetic.
    """
    if max_total_order < 2:
        raise ValueError("max_total_order must be >= 2")
    table = series.chain_nnn(max_total_order + 2)
    checked = 0
    violations = []
    for n1 in range(max_total_order + 1):
        for n2 in range(max_total_order - n1 + 1):
            residual = (
                (n1 + 2) * (n1 + 1) * table.coefficient((n1 + 2, n2))
                - (n2 + 1) * table.coefficient((n1, n2 + 1))
                - 2 * table.coefficient((n1, n2))
            )
            checked += 1
            if residual != 0:
                violations.append((n1, n2, str(residual)))
    return RecurrenceReport(max_total_order, checked, tuple(violations))


# ---------------------------------------------------------------------------
# perfect-square scan of the bcc coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquareTestRecord:
    order: int
    value: Fraction
    is_square: bool
    root: Optional[Fraction]

    def to_row(self) -> dict:
        return {
            "order": self.order,
            "num": str(self.value.numerator),
            "den": str(self.value.denominator),
            "is_square": self.is_square,
            "root_num": "" if self.root is None else str(self.root.numerator),
            "root_den": "" if self.root is None else str(self.root.denominator),
        }


def _rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None."""
    if value < 0:
        return None
    num_root = math.isqrt(value.numerator)
    den_root = math.isqrt(value.denominator)
    if num_root * num_root != value.numerator or den_root * den_root != value.denominator:
        return None
    return Fraction(num_root, den_root)


def check_square_conjecture(n_max: int) -> list[SquareTestRecord]:
    """Square-test every even-order bcc coefficient up to ``n_max``."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    table = series.bcc(n_max)
    records = []
    for n in range(0, n_max + 1, 2):
        value = table.coefficient((n,))
        root = _rational_sqrt(value)
        records.append(SquareTestRecord(n, value, root is not None, root))
    return records


# ---------------------------------------------------------------------------
# complex-hopping checks (Fourier selection rule and phase identities)
# ---------------------------------------------------------------------------


def appendix_b_report(
    pbc_size: int,
    rho: float,
    d_values: Optional[Sequence[int]] = None,
    phi_points: int = 256,
    series_n_max: int = 30,
    nu_max: int = 25,
) -> dict:
    """Numeric checks of the complex-hopping ring identities.

    Per ``d``: the Fourier integral a_d either matches its series form
    (when the ring size divides d) or vanishes (selection rule).  For
    even rings, the phase pi/2 identity residual; always, the phase pi
    reduction back to the real-hopping series.
    """
    if pbc_size < 3:
        raise ValueError(f"pbc_size must be >= 3, got {pbc_size}")
    if series_n_max < 0:
        raise ValueError(f"series_n_max must be >= 0, got {series_n_max}")
    if nu_max < 0:
        raise ValueError(f"nu_max must be >= 0, got {nu_max}")
    if d_values is None:
        d_values = range(2 * pbc_size + 1)
    records = []
    for d in d_values:
        value = quadrature.complex_fourier_a(pbc_size, rho, d, phi_points)
        if d % pbc_size == 0:
            reference = quadrature.fourier_a_series(rho, d, series_n_max)
            kind = "fourier_a"
        else:
            reference = 0.0
            kind = "fourier_a_selection"
        records.append(
            {
                "kind": kind,
                "d": int(d),
                "value": value,
                "reference": reference,
                "residual": abs(value - reference),
            }
        )
    if pbc_size % 2 == 0:
        records.append(
            {
                "kind": "phi_half",
                "d": None,
                "value": None,
                "reference": None,
                "residual": quadrature.phi_half_identity_check(pbc_size, rho, nu_max),
            }
        )
    z_pi = quadrature.complex_chain_z(pbc_size, rho, math.pi)
    real_series = float(series.chain_finite(pbc_size, series_n_max).evaluate(rho))
    records.append(
        {
            "kind": "phi_pi",
            "d": None,
            "value": z_pi,
            "reference": real_series,
            "residual": abs(z_pi - real_series),
        }
    )
    return {
        "pbc_size": pbc_size,
        "rho": rho,
        "phi_points": phi_points,
        "series_n_max": series_n_max,
        "nu_max": nu_max,
        "records": records,
    }
