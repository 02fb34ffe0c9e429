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
from .lattices import builtin
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

    @property
    def oracle_max_order(self) -> Optional[int]:
        orders = [sum(r.index) for r in self.records if r.oracle_count is not None]
        return max(orders, default=None)

    @property
    def worst_rel_error(self) -> Optional[float]:
        return max((r.rel_error for r in self.records if r.rel_error is not None), default=None)

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
            "summary": {
                "checked": self.checked,
                "passed": self.passed,
                "failed": self.failed,
                "oracle_max_order": self.oracle_max_order,
                "worst_rel_error": self.worst_rel_error,
            },
            "records": [r.to_row(self.lattice) for r in self.records],
        }


def verify_identity(
    name: str,
    max_order: int,
    pbc_size: Optional[int] = None,
    grid: int | str = "auto",
    tolerances: Tolerances = Tolerances(),
) -> VerificationReport:
    """Compare all three coefficient routes up to ``max_order``."""
    spec = builtin(name, pbc_size)
    exact = series.expand(name, max_order, pbc_size)
    # n! bounds every index's factorial divisor: past order 170 it is no
    # float, so the run fails here, before any grid is built
    float(math.factorial(max_order))
    tallies = oracle.closed_walks(spec, min(max_order, oracle.ORACLE_BOUNDS[spec.dimension]))
    grid_points = quadrature.auto_grid_size(spec, max_order) if grid == "auto" else int(grid)
    table = quadrature.moments(spec, max_order, grid_points)

    records = []
    for index in sorted(table):
        n = sum(index)
        coeff = exact.coefficient(index)
        count = tallies[n].count(index) if n < len(tallies) else None
        numeric = table[index] / math.prod(map(math.factorial, index))

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
    table = series.expand("chain-nnn", max_total_order + 2)
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
    table = series.expand("bcc", n_max)
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
    phi_half: bool = False,
    tol_match: float = 1e-9,
    tol_selection: float = 1e-10,
) -> dict:
    """Numeric checks of the complex-hopping ring identities.

    Every reference comes from one table of the ring sum's winding
    harmonics, :func:`quadrature.ring_harmonics`.  Per ``d``: the Fourier
    integral a_d either matches its table entry (when the ring size
    divides d) or vanishes (selection rule), on one phase grid of
    ``max(d) + H + 1`` points, alias-free for every d since no harmonic
    past the table's bandwidth H reaches one ulp.  Always, the ring sum at
    phase pi against the table's cosine series there; when ``phi_half``
    is set and the ring is even, the same at phase pi/2.  Residuals are
    taken on the ring sum's own scale: divided by e^{2|rho|}, which
    bounds |Z(rho, phi)| and so every value and reference.  Each record
    passes when its residual is within ``tol_selection``
    (selection-rule records) or ``tol_match`` (all others).  A run whose
    ``max(d) + 1`` phases times ``pbc_size`` pass ``MAX_PHASE_CELLS`` is
    a ``ValueError`` before any harmonic or ring sum is computed.
    """
    if pbc_size < 3:
        raise ValueError(f"pbc_size must be >= 3, got {pbc_size}")
    if tol_match <= 0:
        raise ValueError(f"tol_match must be positive, got {tol_match}")
    if tol_selection <= 0:
        raise ValueError(f"tol_selection must be positive, got {tol_selection}")
    try:
        scale = math.exp(2.0 * abs(rho))
    except OverflowError:
        raise OverflowError("ring sum is not finite") from None
    top = 2 * pbc_size if d_values is None else max(d_values, default=0)
    if (top + 1) * pbc_size > quadrature.MAX_PHASE_CELLS:
        raise ValueError(
            f"a phase grid of over {top} points on a ring of {pbc_size} sites is past "
            f"the bound of {quadrature.MAX_PHASE_CELLS:.0e} phases times sites"
        )
    if d_values is None:
        d_values = range(top + 1)
    harmonics = quadrature.ring_harmonics(pbc_size, rho)
    phi_points = top + max(harmonics) + 1
    values = quadrature.complex_fourier_a(pbc_size, rho, d_values, phi_points)
    records = []
    for d, value in zip(d_values, values):
        reference = harmonics.get(d, 0.0)
        kind = "fourier_a" if d % pbc_size == 0 else "fourier_a_selection"
        records.append({"kind": kind, "d": int(d), "value": value, "reference": reference})
    phases = [("phi_half", math.pi / 2)] if phi_half and pbc_size % 2 == 0 else []
    for kind, phi in phases + [("phi_pi", math.pi)]:
        value = quadrature.complex_chain_z(pbc_size, rho, phi)
        reference = sum(a * math.cos(m * phi) for m, a in harmonics.items())
        records.append({"kind": kind, "d": None, "value": value, "reference": reference})
    for record in records:
        record["residual"] = abs(record["value"] - record["reference"]) / scale
        limit = tol_selection if record["kind"] == "fourier_a_selection" else tol_match
        record["pass"] = record["residual"] <= limit
    return {
        "pbc_size": pbc_size,
        "rho": rho,
        "phi_points": phi_points,
        "records": records,
    }
