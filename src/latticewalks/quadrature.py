"""k-space evaluation: dispersion moments, ring sums, Fourier checks.

Moments are means of dispersion monomials over a uniform grid in
fractional coordinates of the primitive reciprocal cell.  A uniform
N-point-per-axis mean (the periodic trapezoid rule) integrates a cosine
polynomial exactly as soon as N exceeds its per-axis bandwidth, because
every non-constant harmonic averages to zero unless the grid aliases it
to a reciprocal-lattice multiple of N.  The coefficient routes live in
:mod:`latticewalks.verify`; this module only produces raw moments.

For the finite ring the physically meaningful grid is the ring's own
``pbc_size`` quasimomenta: on that grid the deliberate aliasing of the
mean reproduces exactly the winding walks.

The complex-hopping helpers treat the ring partition sum
``Z(rho, phi) = mean_k exp(-2 rho cos(k + phi))`` as a periodic function
of the hopping phase ``phi`` and extract its cosine-Fourier
coefficients with the same uniform-grid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .lattices import DispersionTerm, LatticeSpec

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class MomentResult:
    """One dispersion moment: grid mean of a dispersion monomial."""

    lattice: str
    index: MultiIndex
    grid_points: int
    value: float
    estimated_exact: bool


def _cos_table(grid_points: int) -> np.ndarray:
    """cos(2*pi*m/N) for m = 0..N-1, folded for exact symmetry.

    Arguments are reduced as exact fractions of a turn into the first
    quadrant, so the table negates exactly under half-turn shifts and
    the rational cosine values (0, +-1/2, +-1: the only ones a rational
    angle can take) come out exact.  Grid sums of symmetric integrands
    then cancel to zero instead of leaving rounding crumbs.
    """
    table = np.empty(grid_points)
    for m in range(grid_points):
        turn = Fraction(m, grid_points)
        if turn > Fraction(1, 2):
            turn = 1 - turn
        sign = 1.0
        if turn > Fraction(1, 4):
            turn = Fraction(1, 2) - turn
            sign = -1.0
        if turn == 0:
            value = 1.0
        elif turn == Fraction(1, 4):
            value = 0.0
        elif turn == Fraction(1, 6):
            value = 0.5
        else:
            value = math.cos(2.0 * math.pi * float(turn))
        table[m] = sign * value
    return table


def _term_on_grid(term: DispersionTerm, grid_points: int, dimension: int) -> np.ndarray:
    """Evaluate a cosine-harmonic term on the fractional grid."""
    axes = []
    for p in range(dimension):
        view = [1] * dimension
        view[p] = grid_points
        axes.append(np.arange(grid_points).reshape(view))
    table = _cos_table(grid_points)
    out = np.zeros([grid_points] * dimension)
    for freq, amp in term.harmonics:
        phase = sum(axes[p] * freq[p] for p in range(dimension) if freq[p])
        out += amp * table[np.mod(phase, grid_points)]
    return out


def _alias_free_bound(spec: LatticeSpec, index: MultiIndex) -> int:
    """Smallest grid whose mean has no aliasing for this monomial."""
    if spec.basis_size == 2:
        n = index[0]
        return (n // 2) * spec.dispersion_terms[0].bandwidth + 1
    width = sum(
        m * spec.dispersion_terms[label].bandwidth for label, m in enumerate(index)
    )
    return width + 1


def auto_grid_size(spec: LatticeSpec, index: MultiIndex) -> int:
    """Grid policy "auto": n*h+1 from the involved bandwidths.

    The finite ring resolves to its own site count instead, since the
    target there is the discrete quasimomentum sum itself.
    """
    if spec.pbc_size is not None:
        return spec.pbc_size
    n = sum(index)
    if spec.basis_size == 2:
        return (n // 2) * spec.dispersion_terms[0].bandwidth + 1
    involved = [spec.dispersion_terms[lab].bandwidth for lab, m in enumerate(index) if m]
    if not involved:
        return 1
    return n * max(involved) + 1


def _estimated_exact(spec: LatticeSpec, index: MultiIndex, grid_points: int) -> bool:
    if spec.pbc_size is not None:
        return grid_points == spec.pbc_size
    return grid_points >= _alias_free_bound(spec, index)


def moment(spec: LatticeSpec, index: MultiIndex, grid_points: int) -> MomentResult:
    """Grid mean of the dispersion monomial ``prod_s eps_s(k)**m_s``.

    For two-sublattice lattices the monomial is the subband-summed power
    ``sum_sigma eps_sigma**n``: even orders go through the squared-band
    kernel (``2 * mean(kernel**(n/2))``) and odd orders vanish by the
    sigma = -1/+1 cancellation, so the band square root is never taken.
    """
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    index = tuple(index)
    if len(index) != spec.hopping_count or any(m < 0 for m in index):
        raise ValueError(f"bad multi-index {index} for {spec.name}")
    if spec.basis_size == 2:
        return two_band_even_moment(spec, index[0], grid_points)

    values = np.ones([grid_points] * spec.dimension)
    for label, m in enumerate(index):
        if m:
            eps = _term_on_grid(spec.dispersion_terms[label], grid_points, spec.dimension)
            values = values * eps**m
    return MomentResult(
        lattice=spec.name,
        index=index,
        grid_points=grid_points,
        value=float(np.mean(values)),
        estimated_exact=_estimated_exact(spec, index, grid_points),
    )


def two_band_even_moment(spec: LatticeSpec, order: int, grid_points: int) -> MomentResult:
    """Subband-summed dispersion moment of a two-sublattice lattice."""
    if spec.basis_size != 2:
        raise ValueError(f"{spec.name} has a single sublattice; use moment()")
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    index = (order,)
    if order % 2:
        value = 0.0  # the two subbands cancel term by term
    else:
        kernel = _term_on_grid(spec.dispersion_terms[0], grid_points, spec.dimension)
        value = 2.0 * float(np.mean(kernel ** (order // 2)))
    return MomentResult(
        lattice=spec.name,
        index=index,
        grid_points=grid_points,
        value=value,
        estimated_exact=_estimated_exact(spec, index, grid_points),
    )


# ---------------------------------------------------------------------------
# finite ring sums and complex-hopping Fourier analysis
# ---------------------------------------------------------------------------


def finite_chain_momenta(pbc_size: int) -> np.ndarray:
    """The ring's quasimomenta 2*pi*m/size over the standard integer set."""
    if pbc_size < 3:
        raise ValueError(f"pbc_size must be >= 3, got {pbc_size}")
    if pbc_size % 2 == 0:
        ms = np.arange(-pbc_size // 2 + 1, pbc_size // 2 + 1)
    else:
        half = (pbc_size - 1) // 2
        ms = np.arange(-half, half + 1)
    return 2.0 * math.pi * ms / pbc_size


def finite_chain_ksum(pbc_size: int, xi: float) -> float:
    """Discrete partition sum of the ring: mean_k exp(2 xi cos k)."""
    if not math.isfinite(xi):
        raise ValueError("xi must be finite")
    k = finite_chain_momenta(pbc_size)
    return float(np.mean(np.exp(2.0 * xi * np.cos(k))))


def complex_chain_z(pbc_size: int, rho: float, phi) -> np.ndarray | float:
    """Ring partition sum with complex hopping: mean_k exp(-2 rho cos(k+phi)).

    ``phi`` may be a scalar or an array; the result matches its shape.
    """
    k = finite_chain_momenta(pbc_size)
    phi_arr = np.asarray(phi, dtype=float)
    vals = np.exp(-2.0 * rho * np.cos(k + phi_arr[..., None])).mean(axis=-1)
    return float(vals) if np.ndim(phi) == 0 else vals


def complex_fourier_a(pbc_size: int, rho: float, d: int, phi_points: int = 256) -> float:
    """Cosine-Fourier coefficient a_d of the ring sum in the hopping phase.

    Only harmonics at multiples of the ring size survive (each walk's
    phase is its winding displacement), so the value is ~0 unless
    ``pbc_size`` divides ``d``.  d = 0 carries the mean normalisation,
    d > 0 the doubled cosine normalisation.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if phi_points < 1:
        raise ValueError("phi_points must be >= 1")
    phis = -math.pi + 2.0 * math.pi * np.arange(phi_points) / phi_points
    z = complex_chain_z(pbc_size, rho, phis)
    weight = np.cos(d * phis)
    mean = float(np.mean(z * weight))
    return mean if d == 0 else 2.0 * mean


def fourier_a_series(rho: float, d: int, n_max: int = 30) -> float:
    """Series form of a_d: sum over walk lengths n with |net drift| = d.

    Terms are (2 or 1) * (-rho)**n / (((n+d)/2)! ((n-d)/2)!), n running
    over d, d+2, ..., n_max.  Matches the Fourier integral whenever d is
    winding-compatible (a multiple of the ring size).
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    factor = 1.0 if d == 0 else 2.0
    total = 0.0
    for n in range(d, n_max + 1, 2):
        denom = math.factorial((n + d) // 2) * math.factorial((n - d) // 2)
        total += factor * (-rho) ** n / denom
    return total


def phi_half_identity_check(pbc_size: int, rho: float, nu_max: int = 25) -> float:
    """Residual of the phase pi/2 identity on an even ring.

    Compares mean_k exp(2 rho sin k) against the double series
    sum_nu rho**(2 nu) * sum_delta (-1)**delta / ((nu+delta)! (nu-delta)!)
    with delta restricted to half-multiples of the ring size (the
    winding-compatible drifts).  Returns the absolute difference.
    """
    if pbc_size < 3:
        raise ValueError(f"pbc_size must be >= 3, got {pbc_size}")
    if pbc_size % 2:
        raise ValueError("the phase pi/2 identity requires an even ring")
    k = finite_chain_momenta(pbc_size)
    lhs = float(np.mean(np.exp(2.0 * rho * np.sin(k))))

    half = pbc_size // 2
    rhs = 0.0
    for nu in range(nu_max + 1):
        inner = Fraction(0)
        c = -(nu // half)
        while c * half <= nu:
            delta = c * half
            sign = -1 if delta % 2 else 1
            inner += Fraction(sign, math.factorial(nu + delta) * math.factorial(nu - delta))
            c += 1
        rhs += float(inner) * rho ** (2 * nu)
    return abs(lhs - rhs)
