"""k-space evaluation: dispersion moments, ring sums, the appendix-B checks.

Moments are means of dispersion monomials over a uniform grid in
fractional coordinates of the primitive reciprocal cell.  A uniform
N-point-per-axis mean (the periodic trapezoid rule) integrates a cosine
polynomial exactly as soon as N exceeds its per-axis bandwidth, because
every non-constant harmonic averages to zero unless the grid aliases it
to a reciprocal-lattice multiple of N.  The coefficient routes live in
:mod:`latticewalks.verify`; for them this module only produces raw moments.

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
(2014) 385), so one grid serves the whole run.  Every cosine on the grid
is :func:`_cos_table`'s: its integer phase is folded in integer arithmetic
into the first quadrant, so the values are exactly symmetric and the
rational ones (0, +-1/2, +-1) are exact.  In 2-D and 3-D the ``N``
axis phases are folded into one table per run, and a harmonic reads
its values along the last axis as whole rows of a window over that
table, the table repeated once more per unit of the harmonic's last
frequency component (at most ``2N`` floats on the built-in lattices,
never an ``N x N`` array): only the phases of the other axes, ``1/N``
of a slab, are computed point by point.  In 1-D a slab is a run of single points,
so it folds its own phases and no array is as long as the grid axis.

Every dispersion is streamed, never held whole: the power chain of the
first label runs over slabs of axis-0 rows of about ``_SLAB_POINTS``
points, small enough to stay in cache, and adds each slab's row sums of
every power to one table of sums.  On the two-label chain a slab also
holds every power of the second label, so it has fewer rows.  The
dispersion is even, ``eps(k) = eps(-k)``, and ``k -> -k`` maps every
uniform grid onto itself, aliased or not, so the trapezoid rule on the
inversion-reduced cell (Monkhorst & Pack, Phys. Rev. B 13 (1976) 5188)
gives the same sums from rows ``0..N//2``: each row but 0 and (for even
``N``) ``N/2`` stands for its mirror too and has weight 2; each slab
takes those weights from its own rows.  Memory is then one slab (the
2-D and 3-D table and its windows are a few of its rows), whatever the order
or grid; the work, grid points times moments, is bounded by
``MAX_GRID_WORK``.

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
:func:`appendix_b_report` sizes that grid, bounds it by
``MAX_PHASE_CELLS`` and checks every ``a_d`` and the ring sum at fixed
phases against the table.

numpy is imported inside the functions that use it, so importing the
package costs no numpy and the exact commands (``coeffs``,
``conjecture``) start without it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .lattices import LatticeSpec, MultiIndex, _check_labels, _check_ring_size, _integer_coords

if TYPE_CHECKING:
    import numpy as np

# one label's band: its (frequency, amplitude) cosine harmonics
Harmonics = tuple[tuple[tuple[int, ...], int], ...]

# points in one slab of the moment stream: a few of its float arrays fit in cache
_SLAB_POINTS = 1 << 16
# grid points times moments one moments() call may take on, 100x bcc's
# auto grid at order 170 (171**3 * 170, about 8.5e8)
MAX_GRID_WORK = 10**11
# phases times ring sites of one appendix-b phase grid (about 240 MB of ring sums)
MAX_PHASE_CELLS = 10**7


def _cos_table(phases: np.ndarray, grid_points: int) -> np.ndarray:
    """cos(2*pi*m/N) for the integer phases m in 0..N-1, folded for exact symmetry.

    Angles are folded in integer units of 1/(2N) of a turn into the
    first quadrant, so the values negate exactly under half-turn shifts
    and the rational cosine values (0, +-1/2, +-1: the only ones a
    rational angle can take) come out exact.  Grid sums of symmetric
    integrands then cancel to zero instead of leaving rounding crumbs.
    Each value depends on its own phase alone, so folding a slab's
    phases gives the same floats as gathering them from the table of
    every ``m``.
    """
    import numpy as np

    n = grid_points
    q = 2 * np.minimum(phases, n - phases)
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


def _cache_aligned(shape: tuple[int, ...], fill: float) -> np.ndarray:
    """A float array of ``shape`` filled with ``fill``, starting on a 64-byte cache line.

    malloc aligns to 16 bytes, so where a slab array starts within a cache
    line would depend on everything allocated before it, down to the
    order of imports.  Off a line boundary, the power chain's loops ran
    3-6 % slower on bcc and diamond.
    """
    import numpy as np

    size = math.prod(shape)
    buffer = np.empty(size + 7)
    start = -buffer.ctypes.data % 64 // buffer.itemsize
    out = buffer[start : start + size].reshape(shape)
    out.fill(fill)
    return out


def _term_on_grid(
    harmonics: Harmonics, windows: dict, grid_points: int, dimension: int, rows: np.ndarray
) -> np.ndarray:
    """Evaluate one label's harmonics on the axis-0 ``rows`` of the fractional grid.

    One loop serves every dimension.  The slab is allocated once, up
    front, and each harmonic is added to it in the order of
    ``harmonics``; a harmonic with a negative last component ``c =
    f[-1]`` reads ``-f`` instead, the same values by the exact symmetry
    of :func:`_cos_table`, so ``f`` and ``-f`` share one term.  In 1-D a
    term folds the slab's own phases.  In 2-D and 3-D a harmonic ``f`` is
    ``cos(2*pi*(s + c*k)/N)`` along the last axis ``k``, with ``s`` the
    integer phase of the other axes, so each of its rows along that axis
    is row ``s mod N`` of ``windows[c]``, and a term that varies along few
    axes stays small until it is added.
    """
    import numpy as np

    out = _cache_aligned((len(rows),) + (grid_points,) * (dimension - 1), 0.0)
    axes = np.ix_(rows, *(np.arange(grid_points) for _ in range(dimension - 2)))
    terms = {}
    for freq, amp in harmonics:
        if freq[-1] < 0:
            freq = tuple(-f for f in freq)
        if (freq, amp) not in terms:
            if dimension == 1:
                values = _cos_table(np.mod(rows * freq[0], grid_points), grid_points)
            else:
                phase = sum(axes[p] * freq[p] for p in range(dimension - 1) if freq[p])
                values = windows[freq[-1]][np.mod(phase, grid_points)]
            terms[freq, amp] = amp * values
        out += terms[freq, amp]
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

    The grid is streamed in slabs over rows ``0..N//2`` with inversion
    weights (see the module docstring).  A spec with more than
    ``MAX_HOPPING_LABELS`` labels or a step labelled outside
    ``1..hopping_count``, or a run past ``MAX_GRID_WORK`` grid points
    times moments, is a ``ValueError`` before anything is allocated.
    """
    import numpy as np

    _check_labels(spec)
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    size = grid_points**spec.dimension
    monomials = math.comb(max_order + spec.hopping_count, spec.hopping_count)
    if size * max(monomials - 1, 1) > MAX_GRID_WORK:
        raise ValueError(
            f"a grid of {grid_points}**{spec.dimension} points to order {max_order} is past "
            f"the bound of {MAX_GRID_WORK:.0e} grid points times moments"
        )
    band = _band(spec)
    windows = {}
    if spec.dimension > 1:
        table = _cos_table(np.arange(grid_points), grid_points)
        for c in {abs(freq[-1]) for harmonics in band for freq, _ in harmonics}:
            # windows[c][j, k] = table[(j + c*k) % N]: the table from j on, read with stride c
            windows[c] = np.lib.stride_tricks.as_strided(
                np.tile(table, c + 1),
                (grid_points, grid_points if c else 1),
                (table.itemsize, c * table.itemsize),
                writeable=False,
            )

    weight, step = (2.0, 2) if spec.basis_size == 2 else (1.0, 1)
    half = grid_points // 2
    # a two-label slab also holds every power of the second label
    height = max_order + 1 if len(band) == 2 else 1
    rows_per_slab = max(1, _SLAB_POINTS // (height * grid_points ** (spec.dimension - 1)))
    sums = np.zeros((max_order + 1,) * len(band))
    for start in range(0, half + 1, rows_per_slab):
        rows = np.arange(start, min(start + rows_per_slab, half + 1))
        # rows 0 and N/2 are their own mirrors; every other row stands for two
        weights = np.where(2 * rows % grid_points == 0, 1.0, 2.0)
        eps, *second = (_term_on_grid(h, windows, grid_points, spec.dimension, rows) for h in band)
        inner = np.cumprod([np.ones_like(eps)] + second * max_order, axis=0) if second else None
        values = _cache_aligned(eps.shape, 1.0)
        for n in range(0, max_order + 1, step):
            if n:
                values *= eps
            if second:
                k = max_order + 1 - n
                sums[n, :k] += (inner[:k] * values).reshape(k, len(rows), -1).sum(axis=2) @ weights
            else:
                sums[n] += weights @ values.reshape(len(rows), -1).sum(axis=1)
    means = weight * sums / size
    indices = np.ndindex(means.shape)
    return {m: v for m, v in zip(indices, means.ravel().tolist()) if sum(m) <= max_order}


# ---------------------------------------------------------------------------
# finite ring sums, complex-hopping Fourier analysis and the appendix-B checks
# ---------------------------------------------------------------------------


def complex_chain_z(pbc_size: int, rho: float, phi) -> np.ndarray | float:
    """Ring partition sum with complex hopping: mean_k exp(-2 rho cos(k+phi)).

    The mean runs over the ring's quasimomenta ``k = 2*pi*m/pbc_size``
    for ``m = -((pbc_size - 1) // 2), ..., pbc_size // 2``.
    ``phi`` may be a scalar or an array; the result matches its shape.
    Each term is divided by the momentum count before the sum, so the
    sum stays in the float range whenever its terms do.  A sum that
    leaves the float range is an ``OverflowError``, raised before any
    ``inf`` or ``nan`` reaches a caller or a warning is shown.
    """
    import numpy as np

    _check_ring_size(pbc_size)
    k = 2.0 * math.pi * (np.arange(pbc_size) - (pbc_size - 1) // 2) / pbc_size
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(-2.0 * rho * np.cos(k + np.asarray(phi, dtype=float)[..., None]))
        vals = (terms / pbc_size).sum(axis=-1)
    if not np.all(np.isfinite(vals)):
        raise OverflowError("ring sum is not finite")
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
    import numpy as np

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
    _check_ring_size(pbc_size)
    x = -2.0 * rho
    table = {0: bessel_i(0, x)}
    m = 0
    while True:
        m += pbc_size
        term = 2.0 * bessel_i(m, x)
        if m > abs(x) and abs(term) < math.ulp(table[0]):
            return table
        table[m] = term


def appendix_b_report(
    pbc_size: int,
    rho: float,
    d_values: Sequence[int] | None = None,
    phi_half: bool = False,
    tol_match: float = 1e-9,
    tol_selection: float = 1e-10,
) -> dict:
    """Numeric checks of the complex-hopping ring identities.

    Every reference comes from one table of the ring sum's winding
    harmonics, :func:`ring_harmonics`.  Per ``d``: the Fourier integral
    a_d either matches its table entry (when the ring size divides d) or
    vanishes (selection rule), on one phase grid of ``max(d) + H + 1``
    points, alias-free for every d since no harmonic past the table's
    bandwidth H reaches one ulp.  Always, the ring sum at phase pi
    against the table's cosine series there; when ``phi_half`` is set
    and the ring is even, the same at phase pi/2.  Residuals are taken
    on the ring sum's own scale: divided by e^{2|rho|}, which bounds
    |Z(rho, phi)| and so every value and reference.  Each record passes
    when its residual is within ``tol_selection`` (selection-rule
    records) or ``tol_match`` (all others).  A run whose ``max(d) + 1``
    phases times ``pbc_size`` pass ``MAX_PHASE_CELLS`` is a
    ``ValueError`` before any harmonic or ring sum is computed, and so is
    a tolerance that is not finite and positive (``inf`` and ``nan``
    included).  A ``rho`` whose scale e^{2|rho|} is no finite float,
    ``inf`` and ``nan`` included, is an ``OverflowError``, raised before
    any table is built.
    """
    _check_ring_size(pbc_size)
    # a nan fails both comparisons; an inf tolerance would pass any residual
    if not 0 < tol_match < math.inf:
        raise ValueError(f"tol_match must be finite and positive, got {tol_match}")
    if not 0 < tol_selection < math.inf:
        raise ValueError(f"tol_selection must be finite and positive, got {tol_selection}")
    try:
        scale = math.exp(2.0 * abs(rho))
        # math.exp raises past the float range, but returns inf or nan at an inf or nan rho
        if not math.isfinite(scale):
            raise OverflowError
    except OverflowError:
        raise OverflowError("ring sum is not finite") from None
    top = 2 * pbc_size if d_values is None else max(d_values, default=0)
    if (top + 1) * pbc_size > MAX_PHASE_CELLS:
        raise ValueError(
            f"a phase grid of over {top} points on a ring of {pbc_size} sites is past "
            f"the bound of {MAX_PHASE_CELLS:.0e} phases times sites"
        )
    if d_values is None:
        d_values = range(top + 1)
    harmonics = ring_harmonics(pbc_size, rho)
    phi_points = top + max(harmonics) + 1
    values = complex_fourier_a(pbc_size, rho, d_values, phi_points)
    records = []
    for d, value in zip(d_values, values):
        reference = harmonics.get(d, 0.0)
        kind = "fourier_a" if d % pbc_size == 0 else "fourier_a_selection"
        records.append({"kind": kind, "d": int(d), "value": value, "reference": reference})
    phases = [("phi_half", math.pi / 2)] if phi_half and pbc_size % 2 == 0 else []
    for kind, phi in phases + [("phi_pi", math.pi)]:
        value = complex_chain_z(pbc_size, rho, phi)
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
