"""k-space evaluation: dispersion moments, ring sums, Fourier checks.

Moments are means of dispersion monomials over a uniform grid in
fractional coordinates of the primitive reciprocal cell.  A uniform
N-point-per-axis mean (the periodic trapezoid rule) integrates a cosine
polynomial exactly as soon as N exceeds its per-axis bandwidth, because
every non-constant harmonic averages to zero unless the grid aliases it
to a reciprocal-lattice multiple of N.  The coefficient routes live in
:mod:`latticewalks.verify`; this module only produces raw moments.

The dispersion is derived here from the lattice's steps alone, by
:func:`_band`, as one tuple of ``(frequency, amplitude)`` cosine
harmonics per hopping label.  On a one-sublattice lattice a label's band
is ``sum_v cos(k.v)`` over its steps, so each step is a harmonic whose
*integer* frequency vector, in fractional coordinates of the reciprocal
cell, is its displacement in primitive-basis coordinates.  The bipartite
steps are fractional, so there the one term
is the squared-band kernel ``|sum_i exp(i k.e_i)|**2 = z + sum_{i != j}
cos(k.(e_i - e_j))`` over the ``z`` A->B steps ``e_i``, again a plain
cosine polynomial, with the integral step differences as frequencies.

:func:`moments` returns every moment of a run up to order ``n`` from one
grid, taking each order from the last by one more factor of the
dispersion.  One grid rule, :func:`auto_grid_size`, decides that grid
by default: ``N = n*h + 1`` points per axis, with ``h`` the bandwidth,
the largest frequency component of any harmonic (``n//2`` kernel powers
on the two-sublattice lattices).  A grid that is alias-free at the top order
is alias-free at every lower one (Trefethen & Weideman, SIAM Rev. 56
(2014) 385), so one grid serves the whole run.  The grid's cosines come
from one table per ``N``, whose angles are folded in integer arithmetic
into the first quadrant, so the table is exactly symmetric and its
rational values (0, +-1/2, +-1) are exact.

For a single-term dispersion the grid is streamed, never held whole:
the power chain runs over slabs of axis-0 rows of about
``_SLAB_POINTS`` points, small enough to stay in cache, and adds each
slab's row sums of every power to one vector of ``max_order + 1``
sums.  The dispersion is even, ``eps(k) = eps(-k)``, and ``k -> -k`` maps every uniform grid onto itself, aliased or not, so
the trapezoid rule on the inversion-reduced cell (Monkhorst & Pack,
Phys. Rev. B 13 (1976) 5188) gives the same sums from rows ``0..N//2``:
each row but 0 and (for even ``N``) ``N/2`` stands for its mirror too
and has weight 2.  Memory is then one slab, whatever the order or grid;
the work, grid points times orders, is bounded by ``MAX_GRID_WORK``.

For the finite ring the physically meaningful grid is the ring's own
``pbc_size`` quasimomenta: on that grid the deliberate aliasing of the
mean reproduces exactly the winding walks, so the rule picks that grid.

The complex-hopping helpers treat the ring partition sum
``Z(rho, phi) = mean_k exp(-2 rho cos(k + phi))`` as a periodic function
of the hopping phase ``phi``.  Regrouped by the winding number ``c`` of
its closed walks it is ``sum_c I_{|c|N}(-2 rho) cos(c N phi)`` (DLMF
10.35.1), so one table, :func:`ring_harmonics`, holds its cosine-Fourier
coefficients ``a_m`` up to the first winding past ``2|rho|`` that is below
one ulp; every modified Bessel value comes from one term-ratio recurrence of its power
series (DLMF 10.25.2), :func:`bessel_i`.  The table's largest harmonic
``H`` is the sum's bandwidth, so a uniform grid of ``M = d + H + 1``
phases gives :func:`complex_fourier_a` an alias-free ``a_d``: every
harmonic the grid folds onto ``d`` has ``|m| >= M - d > H``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .lattices import LatticeSpec, _integer_coords

MultiIndex = tuple[int, ...]
# one label's band: its (frequency, amplitude) cosine harmonics
Harmonics = tuple[tuple[tuple[int, ...], int], ...]

# points in one slab of the moment stream: a few of its float arrays fit in cache
_SLAB_POINTS = 1 << 16
# grid points times orders one moments() call may take on, 100x bcc's
# auto grid at order 170 (171**3 * 170, about 8.5e8)
MAX_GRID_WORK = 10**11
# phases times ring sites of one appendix-b phase grid (about 240 MB of ring sums)
MAX_PHASE_CELLS = 10**7


def _cos_table(grid_points: int) -> np.ndarray:
    """cos(2*pi*m/N) for m = 0..N-1, folded for exact symmetry.

    Angles are folded in integer units of 1/(2N) of a turn into the
    first quadrant, so the table negates exactly under half-turn shifts
    and the rational cosine values (0, +-1/2, +-1: the only ones a
    rational angle can take) come out exact.  Grid sums of symmetric
    integrands then cancel to zero instead of leaving rounding crumbs.
    """
    n = grid_points
    m = np.arange(n)
    q = 2 * np.minimum(m, n - m)
    flip = 2 * q > n
    q = np.where(flip, n - q, q)
    value = np.cos(2.0 * np.pi * (q / (2 * n)))
    value[2 * q == n] = 0.0
    value[3 * q == n] = 0.5
    return np.where(flip, -value, value)


def _band(spec: LatticeSpec) -> tuple[Harmonics, ...]:
    """The dispersion's cosine harmonics, one tuple per hopping label.

    One-sublattice lattices: each step of the label, amplitude 1.
    Two-sublattice lattices: the one squared-band kernel, ``((0, ..., 0), z)`` and
    then every A->B difference ``e_i - e_j`` with ``i != j``.
    """
    if spec.basis_size == 1:
        return tuple(
            tuple((_integer_coords(s.displacement), 1) for s in spec.steps if s.label == label)
            for label in range(1, spec.hopping_count + 1)
        )
    forward = [s.displacement for s in spec.steps if s.sublattice == "AtoB"]
    kernel = [((0,) * spec.dimension, len(forward))]
    kernel += [
        (_integer_coords(tuple(a - b for a, b in zip(ei, ej))), 1)
        for i, ei in enumerate(forward)
        for j, ej in enumerate(forward)
        if i != j
    ]
    return (tuple(kernel),)


def _term_on_grid(
    harmonics: Harmonics, table: np.ndarray, dimension: int, rows: np.ndarray
) -> np.ndarray:
    """Evaluate one label's harmonics on the axis-0 ``rows`` of the fractional grid.

    ``table`` is the grid's :func:`_cos_table`, so its length is the
    number of points per axis.
    """
    grid_points = len(table)
    axes = []
    for p in range(dimension):
        view = [1] * dimension
        view[p] = -1
        axes.append((rows if p == 0 else np.arange(grid_points)).reshape(view))
    out = np.zeros((len(rows),) + (grid_points,) * (dimension - 1))
    for freq, amp in harmonics:
        phase = sum(axes[p] * freq[p] for p in range(dimension) if freq[p])
        out += amp * table[np.mod(phase, grid_points)]
    return out


def auto_grid_size(spec: LatticeSpec, max_order: int) -> int:
    """The grid rule: n*h+1 points per axis for a run up to order n.

    ``h`` is the largest frequency component of any harmonic; ``n`` counts kernel
    powers (``max_order // 2``) on the two-sublattice lattices.  The
    finite ring resolves to its own site count instead, since the
    target there is the discrete quasimomentum sum itself.
    """
    if spec.pbc_size is not None:
        return spec.pbc_size
    n = max_order // 2 if spec.basis_size == 2 else max_order
    return n * max(abs(c) for band in _band(spec) for freq, _ in band for c in freq) + 1


def moments(spec: LatticeSpec, max_order: int, grid_points: int) -> dict[MultiIndex, float]:
    """Grid means of every dispersion monomial up to ``max_order``, on one grid.

    The keys are every multi-index ``m`` with ``sum(m) <= max_order``, and
    the monomial is ``prod_s eps_s(k)**m_s``.  Each order comes from the
    last by one more factor of the dispersion.  For two-sublattice
    lattices the monomial is the subband-summed power
    ``sum_sigma eps_sigma**n``: even orders are the one squared-band
    kernel factor ``kernel**(n/2)`` with weight 2, and odd orders vanish
    by the sigma = -1/+1 cancellation, so the band square root is never
    taken.

    A single-term dispersion is streamed in slabs over rows ``0..N//2``
    with inversion weights (see the module docstring); the two-label
    chain is one-dimensional and keeps its two power tables whole.  A
    run past ``MAX_GRID_WORK`` grid points times orders is a
    ``ValueError`` before anything is allocated.
    """
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    size = grid_points**spec.dimension
    if size * max(max_order, 1) > MAX_GRID_WORK:
        raise ValueError(
            f"a grid of {grid_points}**{spec.dimension} points to order {max_order} is past "
            f"the bound of {MAX_GRID_WORK:.0e} grid points times orders"
        )
    table = _cos_table(grid_points)
    band = _band(spec)

    if spec.hopping_count == 2:
        rows = np.arange(grid_points)
        eps = [_term_on_grid(harmonics, table, spec.dimension, rows) for harmonics in band]
        p1, p2 = (np.cumprod([np.ones_like(e)] + [e] * max_order, axis=0) for e in eps)
        out = {}
        for m1 in range(max_order + 1):
            means = np.mean(p1[m1] * p2[: max_order + 1 - m1], axis=1)
            out.update(((m1, m2), float(mean)) for m2, mean in enumerate(means))
        return out

    weight, step = (2.0, 2) if spec.basis_size == 2 else (1.0, 1)
    half = grid_points // 2
    row_weights = np.full(half + 1, 2.0)
    row_weights[0] = 1.0
    if grid_points % 2 == 0:
        row_weights[half] = 1.0
    rows_per_slab = max(1, _SLAB_POINTS // grid_points ** (spec.dimension - 1))
    sums = np.zeros(max_order + 1)
    for start in range(0, half + 1, rows_per_slab):
        rows = np.arange(start, min(start + rows_per_slab, half + 1))
        weights = row_weights[rows]
        eps = _term_on_grid(band[0], table, spec.dimension, rows)
        values = np.ones_like(eps)
        for n in range(step, max_order + 1, step):
            values *= eps
            sums[n] += weights @ values.reshape(len(rows), -1).sum(axis=1)
    means = weight * sums / size
    means[0] = weight
    return {(n,): float(mean) for n, mean in enumerate(means)}


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


def _ring_mean(scale: float, harmonic: np.ndarray) -> np.ndarray:
    """mean of exp(scale * harmonic) over the momenta (the last axis).

    Each term is divided by the momentum count before the sum, so the
    sum stays in the float range whenever its terms do.  A sum that
    leaves the float range is an ``OverflowError``, raised before any
    ``inf`` or ``nan`` reaches a caller or a warning is shown.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (np.exp(scale * harmonic) / harmonic.shape[-1]).sum(axis=-1)
    if not np.all(np.isfinite(vals)):
        raise OverflowError("ring sum is not finite")
    return vals


def complex_chain_z(pbc_size: int, rho: float, phi) -> np.ndarray | float:
    """Ring partition sum with complex hopping: mean_k exp(-2 rho cos(k+phi)).

    ``phi`` may be a scalar or an array; the result matches its shape.
    """
    k = finite_chain_momenta(pbc_size)
    phi_arr = np.asarray(phi, dtype=float)
    vals = _ring_mean(-2.0 * rho, np.cos(k + phi_arr[..., None]))
    return float(vals) if np.ndim(phi) == 0 else vals


def complex_fourier_a(
    pbc_size: int, rho: float, d_values: Sequence[int], phi_points: int
) -> list[float]:
    """Cosine-Fourier coefficients a_d of the ring sum, one per d, from ``phi_points`` phases.

    Only harmonics at multiples of the ring size survive (each walk's
    phase is its winding displacement), so a value is ~0 unless
    ``pbc_size`` divides ``d``.  d = 0 carries the mean normalisation,
    d > 0 the doubled cosine normalisation.  The ring sum is evaluated
    once on the phase grid and every a_d is taken from it; the 1/M of
    the mean sits in the weights, so the sum never leaves the ring sum's
    own range.
    """
    if any(d < 0 for d in d_values):
        raise ValueError("d must be >= 0")
    if phi_points < 1:
        raise ValueError("phi_points must be >= 1")
    phis = -math.pi + 2.0 * math.pi * np.arange(phi_points) / phi_points
    z = complex_chain_z(pbc_size, rho, phis)
    means = [float(np.sum(z * (np.cos(d * phis) / phi_points))) for d in d_values]
    return [mean if d == 0 else 2.0 * mean for d, mean in zip(d_values, means)]


def bessel_i(m: int, x: float) -> float:
    """Modified Bessel function I_m(x) of integer order m >= 0 (DLMF 10.25.2).

    Sums (x/2)**(m+2k) / (k! (m+k)!) from its first term prod_{j<=m} (x/2)/j
    by the term ratio (x/2)**2 / ((k+1)(m+k+1)), so no factorial becomes a
    float; a negative x needs no care, (x/2)**m carries the sign.  Once the
    ratio is below 1/2 the rest of the series is smaller than the current
    term, so the sum stops at the first such term below one ulp of the total.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    half = x / 2.0
    term = math.prod((half / j for j in range(1, m + 1)), start=1.0)
    total, k = term, 0
    while True:
        ratio = half * half / ((k + 1) * (m + k + 1))
        if ratio < 0.5 and abs(term) < math.ulp(total):
            return total
        term *= ratio
        total += term
        k += 1
        if not math.isfinite(total):
            raise OverflowError("Bessel series is not finite")


def ring_harmonics(pbc_size: int, rho: float) -> dict[int, float]:
    """{m: a_m}, the cosine-Fourier coefficients of Z(rho, .) in the hopping phase.

    A walk of winding c picks up the phase c N phi, so a_0 = I_0(-2 rho),
    a_{cN} = 2 I_{cN}(-2 rho) and every other a_m is 0 (DLMF 10.35.1).
    Once cN passes 2|rho| each term is below half the one before, so the
    table stops, like :func:`bessel_i`, at the first such term below one
    ulp of a_0; its largest key is the sum's bandwidth.
    """
    if pbc_size < 3:
        raise ValueError(f"pbc_size must be >= 3, got {pbc_size}")
    x = -2.0 * rho
    table = {0: bessel_i(0, x)}
    m = 0
    while True:
        m += pbc_size
        term = 2.0 * bessel_i(m, x)
        if m > abs(x) and abs(term) < math.ulp(table[0]):
            return table
        table[m] = term
