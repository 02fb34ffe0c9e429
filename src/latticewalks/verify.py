"""Cross-route verification of the coefficient identities.

For every multi-index up to a requested order this module compares

* the exact series coefficient (:mod:`latticewalks.series`),
* the walk-enumeration count (:mod:`latticewalks.oracle`), compared as
  exact integers against n! times the coefficient, and
* the quadrature moment (:mod:`latticewalks.quadrature`), compared as a
  float against the coefficient within a bound on its rounding error,
  worked out from the run's order, grid and lattice,

and assembles a machine-readable report.  Also here: the exact
recurrence check for the two-label chain and the perfect-square scan of
the bcc coefficients.  The complex-hopping ring checks are numerics of
the ring sum alone and live with it, in
:func:`latticewalks.quadrature.appendix_b_report`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional

from . import oracle, quadrature, series
from .lattices import MultiIndex, builtin


class CoefficientRecord(NamedTuple):
    """One multi-index's three routes and whether they agree.

    A NamedTuple, so it equals the plain tuple of its fields and
    ``_replace`` makes a changed copy; its ``index`` field shadows
    ``tuple.index``.
    """

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


class VerificationReport(NamedTuple):
    """Every record of one lattice's verification, with the run's parameters.

    A NamedTuple, so it equals the plain tuple of its fields and
    ``_replace`` makes a changed copy.
    """

    lattice: str
    pbc_size: Optional[int]
    max_order: int
    grid_policy: str
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
    name: str, max_order: int, pbc_size: Optional[int] = None, grid: int | str = "auto"
) -> VerificationReport:
    """Compare all three coefficient routes up to ``max_order``.

    ``grid`` is ``"auto"`` or an int of at least 1 (not a bool), the
    grid points per axis.

    A record passes when its oracle count, where it has one, is ``n!``
    times the exact coefficient, and its quadrature value is within

        ``C * (n + D*log2(N)) * u * w * prod_l z_l**m_l / m_l!``,  ``C = 4``,

    of the coefficient's float, with ``n = sum(m)``, ``N`` the grid points
    per axis, ``D`` the dimension and ``u = 2**-53`` the unit roundoff.
    ``z_l`` is label ``l``'s steps per site, the A->B steps on two
    sublattices, where ``w = 2`` (else 1), so ``|eps_l| <= z_l`` and
    ``w * prod_l z_l**m_l / m_l!`` is the largest the coefficient can be.

    The bound follows Higham, *Accuracy and Stability of Numerical
    Algorithms* (2nd ed., SIAM 2002).  Each grid value of the monomial
    ``prod_l eps_l**m_l`` is a product of about ``n`` rounded factors, so
    it errs by at most ``gamma_n``, about ``n*u``, of its size (§3.1),
    and its size is at most ``w * prod_l z_l**m_l``.  The ``N**D`` values
    are summed in blocks, by BLAS within a slab piece and by a compensated
    sum over the pieces; the bound gives that sum a pairwise sum's error,
    at most ``gamma_{log2 N**D}``, about ``D*log2(N)*u``, of the sum of
    the values' sizes (§4.2).  Taking the mean and dividing by
    ``prod_l m_l!`` scale both terms alike.  ``C = 4`` covers the few
    single roundings that these two terms leave out: of each cosine and
    a band's sum of them, of the mean, of the division by the factorials
    and of the exact value's float.  It is not fitted to measured
    errors.  An aliased grid errs by a harmonic's weight, orders of
    magnitude above the bound, and fails.
    """
    if grid != "auto" and (type(grid) is not int or grid < 1):
        raise ValueError(f'grid must be "auto" or an int >= 1, got {grid!r}')
    spec = builtin(name, pbc_size)
    exact = series.expand(name, max_order, pbc_size)
    # n! bounds every index's factorial divisor: past order 170 it is no
    # float, so the run fails here, before any grid is built
    float(math.factorial(max_order))
    tallies = oracle.closed_walks(spec, min(max_order, oracle.ORACLE_BOUNDS[spec.dimension]))
    grid_points = quadrature.auto_grid_size(spec, max_order) if grid == "auto" else grid
    table = quadrature.moments(spec, max_order, grid_points)

    fact = list(accumulate(range(1, max_order + 1), operator.mul, initial=1))
    # each label's z**m / m!, z its steps per site: int / int rounds once and cannot overflow
    sizes = []
    for label in range(1, spec.hopping_count + 1):
        z = sum(s.label == label and s.sublattice != "BtoA" for s in spec.steps)
        sizes.append([z**m / fact[m] for m in range(max_order + 1)])
    rounds, scale = spec.dimension * math.log2(grid_points), 4 * 2.0**-53 * spec.basis_size
    margins = [(n + rounds) * scale for n in range(max_order + 1)]
    records = []
    # the moments come in sorted index order
    for index, mean in table.items():
        n = sum(index)
        walks = exact.counts.get(index, 0)
        count = tallies[n].counts.get(index, 0) if n < len(tallies) else None
        numeric = mean / math.prod(map(fact.__getitem__, index))

        # int / int is correctly rounded, so this is float(Fraction(walks, n!))
        approx = walks / fact[n]
        abs_error = abs(numeric - approx)
        rel_error = abs_error / abs(approx) if walks != 0 else None
        within = abs_error <= margins[n] * math.prod(map(list.__getitem__, sizes, index))
        records.append(
            CoefficientRecord(
                index, Fraction(walks, fact[n]), count, grid_points, numeric, abs_error,
                rel_error, within and (count is None or walks == count),
            )
        )
    return VerificationReport(
        lattice=name,
        pbc_size=spec.pbc_size,
        max_order=max_order,
        grid_policy=str(grid),
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# recurrence of the two-label chain coefficients
# ---------------------------------------------------------------------------


class RecurrenceReport(NamedTuple):
    """The two-label chain recurrence: points checked and the violations found.

    A NamedTuple, so it equals the plain tuple of its fields and
    ``_replace`` makes a changed copy.
    """

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
    for every n1 + n2 <= max_total_order, checked in integer arithmetic on
    the walk counts (n1+n2)! L[n1, n2], multiplied through by (n1+n2+2)!.
    A violation's residual is the exact left-hand side above, on the
    coefficient scale.  The recurrence holds from n1 + n2 = 0, so order 0
    checks one point; a negative order is a ``ValueError``.
    """
    if max_total_order < 0:
        raise ValueError("max_total_order must be >= 0")
    count = series.expand("chain-nnn", max_total_order + 2).counts.get
    checked = 0
    violations = []
    for n1 in range(max_total_order + 1):
        for n2 in range(max_total_order - n1 + 1):
            n = n1 + n2
            residual = (
                (n1 + 2) * (n1 + 1) * count((n1 + 2, n2), 0)
                - (n2 + 1) * (n + 2) * count((n1, n2 + 1), 0)
                - 2 * (n + 2) * (n + 1) * count((n1, n2), 0)
            )
            checked += 1
            if residual != 0:
                violations.append((n1, n2, str(Fraction(residual, math.factorial(n + 2)))))
    return RecurrenceReport(max_total_order, checked, tuple(violations))


# ---------------------------------------------------------------------------
# perfect-square scan of the bcc coefficients
# ---------------------------------------------------------------------------


class SquareTestRecord(NamedTuple):
    """One even-order bcc coefficient, whether it is a rational square, and its root.

    A NamedTuple, so it equals the plain tuple of its fields and
    ``_replace`` makes a changed copy.
    """

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
