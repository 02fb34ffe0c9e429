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
As ``cos`` is even, a harmonic and its negative are one term of their
summed amplitude, so each ``+-`` pair of steps (or of differences) is
added to a slab once.

:func:`moments` returns every moment of a run up to order ``n`` from one
grid, as sums of products of powers of the dispersion.  One grid rule,
:func:`auto_grid_size`, decides that grid by default: ``N = n*h + 1``
points per axis, with ``h`` the bandwidth,
the largest frequency component of any harmonic (``n//2`` kernel powers
on the two-sublattice lattices).  A grid that is alias-free at the top order
is alias-free at every lower one (Trefethen & Weideman, SIAM Rev. 56
(2014) 385), so one grid serves the whole run.  Every cosine on the grid
is :func:`_cos_table`'s: its integer phase is folded in integer arithmetic
into the first quadrant, so the values are exactly symmetric and the
rational ones (0, +-1/2, +-1) are exact.  In 2-D and 3-D the ``N``
axis phases are folded into one table per run, and a harmonic reads
its values along the last axis as whole rows of a window over that
table times the harmonic's amplitude, the table repeated ``2h + 1``
times for the bandwidth ``h`` and once more per unit of the harmonic's
last frequency component (at most ``4N`` floats on the built-in
lattices, never an ``N x N`` array): only the phases of
the other axes, ``1/N`` of a slab, are computed point by point.  The
leading harmonics whose last frequency component is 0 are constant along
that axis, so they are summed one value per line and the sum is written
to the slab once, before the other harmonics are added to it: the same
floats as adding each to a zeroed slab.  In 1-D a slab is a run of single points,
so it folds its own phases and no array is as long as the grid axis.

Every dispersion is streamed, never held whole.  A slab is a run of
axis-0 rows of about ``_SLAB_POINTS`` points, on which each label's
dispersion is evaluated; it is summed in pieces whose two power tables
fill one buffer of about ``_SLAB_POINTS`` floats, small enough to stay
in cache, each table row a whole number of cache lines.  With one label
and ``P`` powers of its dispersion ``x``, the right table holds ``x**k``
for ``k < w = isqrt(P - 1) + 1`` and the left ``(x**w)**j`` for ``j <
ceil(P / w)``; with two labels, the left holds every power of the first
and the right every power of the second.  Each row comes from the last
by one multiply, and then one matrix product ``left @ right.T`` sums
every moment of the piece at once: its entry ``(j, k)`` is the power
``w*j + k`` with one label and the moment ``(j, k)`` with two.  A power
``x**n`` is so ``(x**w)**j * x**k``, within ``O(n)`` roundings of the
exact one, as a chain of single factors is.  Where the odd moments
vanish, ``x`` is a square and the tables hold its powers only, half the
rows: on two sublattices ``x`` is the kernel, and on one label whose
harmonics all have odd component sums (chain-nn, an even ring, bcc)
``x = eps**2``, which each piece writes straight into the right table's
row 1, where ``1 * x`` would put the same float.  Such a band changes sign under the shift ``k -> k +
(1/2, ..., 1/2)`` by half a cell, so its odd moments are exact zeros on
a grid that the shift maps onto itself (even ``N``) or on which no odd
power's harmonic aliases to 0 (``N > n*h``); an odd grid that aliases
them, as an odd ring's own does, keeps every power, since its odd
moments count the torus's odd closed walks.  BLAS fixes the order of
each product's sum, and the pieces' products are added by compensated
(Kahan) summation, in place on four arrays allocated once per call, so
their sum rounds about once however many pieces there are (about a
thousand on bcc at order 170).  With two labels the
tables are padded with higher powers to a multiple of 8 rows, and every
piece's length, the inner side of its product, is below 392 or a
multiple of 32: a slab of 392 points or more is padded to a multiple of
32 with zero-weight points, which add exact zeros.  OpenBLAS 0.3.31
(Haswell kernels) rounds such products alike on 1 and 2 threads, and
splits a longer inner side that is no multiple of 32 differently on the
two.  The dispersion is even, ``eps(k) = eps(-k)``, and ``k -> -k`` maps
every uniform grid onto itself, aliased or not, so the trapezoid rule on the
inversion-reduced cell (Monkhorst & Pack, Phys. Rev. B 13 (1976) 5188)
gives the same sums from rows ``0..N//2``: each row but 0 and (for even
``N``) ``N/2`` stands for its mirror too and has weight 2.

A 3-D band unchanged by every permutation of its three axes
(:func:`_permutation_symmetric`; bcc's and diamond's) is summed over the
fundamental domain of those permutations and the inversion, the
symmetry-reduced cell of the same paper: about ``N**3/12`` points.
Write ``|x|`` for the distance of ``x`` to 0 mod ``N``.  Give a grid
point the weight ``3/t`` when its last coordinate has the smallest
``|.|``, ``t`` the number of coordinates at that smallest value, and 0
otherwise.  Over the point's three rotations these weights sum to ``t *
3/t = 3``, since each coordinate comes last once, so for a band
unchanged by the 3-cycle the weighted sum is the plain grid sum.  The
weights are unchanged by the swap of the first two axes and by the
inversion, so these two halve the sum as the inversion alone halves the
rows: the domain is the rows ``a = 0..N//2``, in row ``a`` the lines
``b`` with ``|b| >= a`` (every ``b`` at ``a = 0``, else ``b = a..N-a``),
and on each line the ``min(2a + 1, N)`` points ``c = -a..a`` mod ``N``.
The point ``(a, b, c)`` weighs ``rw * s * 3/t``, with ``rw = 1`` where
``2a = 0`` mod ``N`` and else 2 (the inversion) and ``s = 1`` where
``|b| = a`` and else 2 (the swap).  Every weight is one of 1, 2, 3, 4, 6
and 12 (``3/t`` is 3/2 only where ``s = 2``), an exact float, and they
sum to ``N**3``.  Each row is one dense block, lines by points, and
whole rows are packed into flat slabs.  A harmonic ``f`` reads a row's
block as one strided slice of its window, whose rows run on past ``N``
for ``2h`` more table lengths (``h`` the bandwidth): the lines from the
row's phase ``f.(a, b, -a)`` on, ``f1`` window rows apart; the harmonics
constant along ``c`` are one value per line (:func:`_term_on_domain`).

A tetrahedral band on an odd grid is summed over a chamber four times
smaller still (:func:`_tetrahedron`): one label of four harmonics of one
amplitude whose frequencies, each signed so that ``f1 + f2 + f3 + f4 =
0``, have three that form a basis (``|det| = 1``).  bcc's band is one;
diamond's kernel, with its constant harmonic, is not.  In the cubic
coordinates ``u = (f1 + f2).j``, ``v = (f1 + f3).j`` and ``w = (f2 +
f3).j`` of a grid point ``j`` the phases are ``f1.j = (u + v - w)/2``,
``f2.j = (u - v + w)/2``, ``f3.j = (-u + v + w)/2`` and ``f4.j = -(u + v
+ w)/2``, so the band is unchanged by the 48 signed permutations of ``(u,
v, w)``.  The map ``j -> (u, v, w)`` has determinant ``+-2``, a unit mod
an odd ``N``, so it maps the grid one to one onto itself, and there only
0 is its own negative: the chamber ``0 <= v <= u <= w <= N//2`` holds one
point of each class of the 48 maps, ``C(N//2 + 3, 3)`` points in all
(23 426 at ``N = 101``, against the domain's 85 858), and a point weighs
its class's size, its distinct orderings (6, 3 or 1) times 2 for each
nonzero coordinate: one of 1, 6, 8, 12, 24 and 48.  :func:`_cubic_band`
writes each harmonic in cubic coordinates as the integer row ``f.adj(M)``
of the exact adjugate of ``j -> (u, v, w)``, and the cosine table is read
at ``det**-1 mod N`` times each phase, the same floats as the lattice
coordinates' phases read.  Every such row is ``+-1`` in each component,
so row ``u`` of the chamber, one dense block of lines ``v = 0..u`` by
points ``w = u..N//2``, reads each harmonic as a slice of unit strides,
as the domain does.  Along a line only the first point, ``w = u``, has
fewer images, so a row's weights are whole lines of one small table.  On
an even grid the cubic map is 2- or 4-to-1, and the domain serves.

The left table's first row holds each point's weight.  Memory is then
one slab array per label and one of weights, allocated once and refilled
slab by slab, and the buffer (the 2-D and 3-D table and its windows are
a few rows of a slab), whatever the order; the domain and the chamber
add a few numbers for each of their ``N/2`` rows.  The work, grid points
times moments, is bounded by ``MAX_GRID_WORK``.

For the finite ring the physically meaningful grid is the ring's own
``pbc_size`` quasimomenta: on that grid the deliberate aliasing of the
mean reproduces exactly the winding walks, so the rule picks that grid.

The complex-hopping helpers treat the ring partition sum
``Z(rho, phi) = mean_k exp(-2 rho cos(k + phi))`` as a periodic function
of the hopping phase ``phi``.  Regrouped by the winding number ``c`` of
its closed walks it is ``sum_c I_{|c|N}(-2 rho) cos(c N phi)`` (DLMF
10.35.1), so one table, :func:`_ring_harmonics`, holds its cosine-Fourier
coefficients ``a_m`` up to the first winding past ``2|rho|`` that is below
one ulp; every modified Bessel value comes from one term-ratio recurrence of its power
series (DLMF 10.25.2), :func:`_bessel_i`.  The table's largest harmonic
``H`` is the sum's bandwidth, so a uniform grid of ``M = d + H + 1``
phases gives :func:`_complex_fourier_a` an alias-free ``a_d``: every
harmonic the grid folds onto ``d`` has ``|m| >= M - d > H``.
:func:`appendix_b_report` sizes that grid, bounds it by
``MAX_PHASE_CELLS`` and checks every ``a_d`` and the ring sum at fixed
phases against the table.

numpy is imported inside the functions that use it, so importing the
package costs no numpy and the exact commands (``coeffs``,
``conjecture``) start without it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import TYPE_CHECKING, Iterator, Sequence

from .lattices import LatticeSpec, MultiIndex, _check_labels, _check_ring_size, _integer_hops

if TYPE_CHECKING:
    import numpy as np

# one label's band: its (frequency, amplitude) cosine harmonics
Harmonics = tuple[tuple[tuple[int, ...], int], ...]

# points in one slab of the moment stream, and floats in the power tables of
# one of its pieces: a few such arrays fit in cache
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
    Two-sublattice lattices: the one squared-band kernel ``|sum_i exp(i
    k.e_i)|**2``, a harmonic of amplitude 1 for each pair ``(i, j)`` of
    A->B steps at the difference ``e_i - e_j`` of their integer moves
    (:func:`_integer_hops`); the ``z`` pairs with ``i = j`` give the
    frequency 0.  As ``cos`` is even, each harmonic is then merged with its
    negative, and with its copies, into one term of their summed
    amplitude, in the order of first appearance, and written with its last
    nonzero component positive: every last component is at least 0.
    """
    hops = _integer_hops(spec)
    if spec.basis_size == 1:
        bands = [
            [hop for s, hop in zip(spec.steps, hops) if s.label == label]
            for label in range(1, spec.hopping_count + 1)
        ]
    else:
        forward = [hop for s, hop in zip(spec.steps, hops) if s.sublattice == "AtoB"]
        bands = [[tuple(a - b for a, b in zip(ei, ej)) for ei in forward for ej in forward]]
    return tuple(
        tuple(Counter(max(f, tuple(-c for c in f), key=lambda v: v[::-1]) for f in band).items())
        for band in bands
    )


def _cache_aligned(shape: tuple[int, ...], fill: float) -> np.ndarray:
    """A float array of ``shape`` filled with ``fill``, starting on a 64-byte cache line.

    malloc aligns to 16 bytes, so where a slab array starts within a cache
    line would depend on everything allocated before it, down to the
    order of imports.  The power tables' rows are whole cache lines long,
    so in an aligned buffer each starts on one; off a line boundary, by
    16 or 32 bytes, building and multiplying a piece's tables took 35
    rather than 25 ns a point at bcc's order 100, and 58-62 rather than 44
    at order 170 (Xeon, 2 cores, OpenBLAS 0.3.31).
    """
    import numpy as np

    size = math.prod(shape)
    buffer = np.empty(size + 7)
    start = -buffer.ctypes.data % 64 // buffer.itemsize
    out = buffer[start : start + size].reshape(shape)
    out.fill(fill)
    return out


def _permutation_symmetric(band: tuple[Harmonics, ...]) -> bool:
    """Whether every label's band is unchanged by every permutation of its frequency components.

    Each harmonic is taken up to sign, with its amplitude, as ``cos`` is
    even; the test passes when the multiset of these is the same after the
    exchange of the first two components and after their cyclic shift,
    which between them make every permutation.
    """

    def multiset(harmonics, i, j, k):
        permuted = [((f[i], f[j], f[k]), (-f[i], -f[j], -f[k])) for f, _ in harmonics]
        return sorted(zip(map(max, permuted), (amp for _, amp in harmonics)))

    return all(multiset(h, 0, 1, 2) == multiset(h, 1, 0, 2) == multiset(h, 1, 2, 0) for h in band)


def _term_on_grid(
    harmonics: Harmonics, windows: dict, grid_points: int, rows: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Evaluate one label's harmonics on the axis-0 ``rows`` of the fractional grid, into ``out``.

    One loop serves every dimension: the slab ``out`` is ``rows`` by the
    points of one row (none in 1-D).  The caller allocates it once and
    passes a view of its first rows for each slab, and every value of it
    is written here.  Each harmonic, a ``+-`` pair merged by :func:`_band`,
    is added once, in the order of ``harmonics``, to a sum that starts at
    0.  In 1-D a term folds the slab's own phases.  In 2-D and 3-D a
    harmonic ``(f, amp)`` is ``amp * cos(2*pi*(s + c*k)/N)`` along the
    last axis ``k``, with ``c = f[-1]`` and ``s`` the integer phase of the
    other axes, so each of its rows along that axis is row ``s mod N`` of
    ``windows[c, amp]``, which holds the amplitude already, and a term
    that varies along few axes stays small until it is added.  The
    leading harmonics with ``c = 0`` are constant along that axis, so
    their sum is one value per line, written to the slab once; the rest
    are added to the slab.
    """
    import numpy as np

    axes = np.ix_(rows, *(np.arange(grid_points) for _ in range(out.ndim - 2)))

    def term(freq, amp):
        if out.ndim == 1:
            return amp * _cos_table(np.mod(rows * freq[0], grid_points), grid_points)
        phase = sum(axes[p] * freq[p] for p in range(out.ndim - 1) if freq[p])
        return windows[freq[-1], amp][np.mod(phase, grid_points)]

    # in 2-D and 3-D the leading harmonics constant along the last axis are summed per line
    lead = next(
        (i for i, (freq, _) in enumerate(harmonics) if freq[-1] or out.ndim == 1), len(harmonics)
    )
    line = np.zeros(out.shape[:-1] + (1,))
    for freq, amp in harmonics[:lead]:
        line += term(freq, amp)
    out[...] = line
    for freq, amp in harmonics[lead:]:
        out += term(freq, amp)
    return out


def _tetrahedron(band: tuple[Harmonics, ...], grid_points: int) -> list | None:
    """The band's four harmonics, signed to sum to 0, where the 48-map chamber applies; else None.

    It applies on an odd grid to a one-label 3-D band of four harmonics of
    one amplitude whose frequencies, each taken with the sign that makes
    their sum 0, have three that form a basis (``|det| = 1``; the fourth is
    minus their sum, so any three do).  bcc's is one.
    """
    if grid_points % 2 == 0 or len(band) != 1 or len(band[0]) != 4:
        return None
    (first, amp), *rest = band[0]
    if len(first) != 3 or any(a != amp for _, a in rest):
        return None
    for signs in itertools.product((1, -1), repeat=3):
        signed = [(first, amp)] + [(tuple(s * c for c in f), a) for s, (f, a) in zip(signs, rest)]
        if not any(map(sum, zip(*(f for f, _ in signed)))):
            (f1, _), (f2, _), (f3, _), _ = signed
            return signed if abs(_dot(f1, _cross(f2, f3))) == 1 else None
    return None


def _cross(x: Sequence[int], y: Sequence[int]) -> tuple[int, int, int]:
    """The cross product of two integer 3-vectors."""
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    """The dot product of two integer vectors."""
    return sum(a * b for a, b in zip(x, y))


def _cubic_band(tetrahedron: list, grid_points: int) -> tuple[Harmonics, int]:
    """The tetrahedron's harmonics in cubic coordinates, and ``det**-1 mod N``.

    The cubic coordinates of a grid point ``j`` are ``M j`` for the rows
    ``f1 + f2``, ``f1 + f3`` and ``f2 + f3`` of ``M``.  The phase of a
    harmonic ``f`` is ``f.j = f.adj(M).(u, v, w) / det(M)``, with the exact
    integer adjugate, whose columns are the cross products of ``M``'s rows,
    so in cubic coordinates the harmonic is the integer row ``f.adj(M)``
    read from the table at ``det**-1`` times its phase, mod ``N``.  Each
    row is written with its last nonzero component positive, as
    :func:`_band` writes frequencies.
    """
    (f1, _), (f2, _), (f3, _), _ = tetrahedron
    rows = [tuple(map(sum, zip(x, y))) for x, y in ((f1, f2), (f1, f3), (f2, f3))]
    adjugate = [_cross(rows[1], rows[2]), _cross(rows[2], rows[0]), _cross(rows[0], rows[1])]
    cubic = [(tuple(_dot(f, column) for column in adjugate), amp) for f, amp in tetrahedron]
    harmonics = tuple((max(r, tuple(-c for c in r), key=lambda v: v[::-1]), a) for r, a in cubic)
    return harmonics, pow(_dot(rows[0], adjugate[0]), -1, grid_points)


def _term_on_domain(
    harmonics: Harmonics, windows: dict, grid_points: int, slabs: list, out: np.ndarray
) -> Iterator[np.ndarray]:
    """Yield one label's harmonics on each slab of a symmetry-reduced domain, written into ``out``.

    Each slab of ``slabs`` holds its rows as ``(a, b, c, count, m, pos)``
    (:func:`_domain_slabs`): the ``count`` lines from ``b`` on of row ``a``,
    each of the ``m`` points from ``c`` on, as one dense ``(count, m)`` block
    from point ``pos`` of the slab.  A harmonic ``f`` reads a row's block as
    one strided slice of ``windows[f2, amp]``: the lines from its phase
    ``f.(a, b, c)`` on, ``f1`` window rows apart, each line's points along a
    window row.  The start is moved on by ``N*h`` rows, ``h`` the largest
    ``|f1|``, so lines read with a stride below 0 stay in the window.  The
    harmonics constant along ``c`` are summed per line, in their order, from
    0, and each row's block starts as that sum (or, where there are none,
    as the first harmonic: ``0 + x`` is ``x``, as no window holds
    ``-0.0``); the others add, in their order.
    """
    import numpy as np

    n = grid_points
    reads = sorted(((f, windows[f[2], amp]) for f, amp in harmonics), key=lambda r: r[0][2] != 0)
    lead = sum(not f[2] for f, _ in harmonics)
    offset = n * max((abs(f[1]) for f, _ in harmonics), default=0)
    for slab in slabs:
        for a, b, c, count, m, pos in slab:
            block = out[pos : pos + count * m].reshape(count, m)
            terms = []
            for (f0, f1, f2), window in reads:
                start = (f0 * a + f1 * b + f2 * c) % n + offset
                terms.append(
                    window[start : start + f1 * count : f1, :m] if f1 else window[start, :m]
                )
            if lead or not terms:
                line = np.zeros((count, 1))
                for term in terms[:lead]:
                    line += term
                terms[:lead] = [line]
            block[...] = terms[0]
            for term in terms[1:]:
                block += term
        yield out[: pos + count * m]


def _domain_slabs(
    band: tuple[Harmonics, ...], windows: dict, grid_points: int, chamber: bool
) -> tuple[int, Iterator[tuple[np.ndarray, ...]]]:
    """The largest slab's points, and a stream of ``(weights, *terms)`` over a reduced domain.

    The domains and their weights are the module docstring's.  The 12
    maps' domain: row ``a = 0..N//2`` holds the lines ``b`` with ``|b| >=
    a`` (every ``b`` at ``a = 0``, else ``b = a..N-a``), each of the
    ``min(2a + 1, N)`` points ``c = -a..a`` mod ``N``.  With ``chamber``, the
    48 maps' chamber in cubic coordinates: row ``u = 0..N//2`` holds the
    lines ``v = 0..u``, each of the points ``w = u..N//2``.  Whole rows are
    packed into flat slabs of about ``_SLAB_POINTS`` points, at least one
    row each; a row is its first point, its ``count`` lines of ``m`` points
    and where its dense block starts in its slab.  Each row's weights are a
    few assignments: on the domain a value inside and then its edges, on
    the chamber whole lines of one table.
    """
    import numpy as np

    n, half = grid_points, grid_points // 2
    if chamber:
        rows = [(u, 0, u, u + 1, half - u + 1) for u in range(half + 1)]
        # the weights along a line, from its point w = u on: the one line of row 0, then in each
        # other row its line v = 0, its line v = u and each line between
        faces = np.array([(1.0, 6.0), (12.0, 24.0), (8.0, 24.0), (24.0, 48.0)])
        faces = np.repeat(faces, (1, half), axis=1)
    else:
        rows = [(0, 0, 0, n, 1)]
        rows += [(a, a, -a, n - 2 * a + 1, min(2 * a + 1, n)) for a in range(1, half + 1)]
    slabs, sizes, pos = [[]], [], 0
    for row in rows:
        if slabs[-1] and pos + row[3] * row[4] > _SLAB_POINTS:
            slabs.append([])
            sizes.append(pos)
            pos = 0
        slabs[-1].append(row + (pos,))
        pos += row[3] * row[4]
    sizes.append(pos)

    def stream():
        arrays = [_cache_aligned((max(sizes),), 0.0) for _ in band]
        weights = np.empty(max(sizes))
        terms = [_term_on_domain(h, windows, n, slabs, out) for h, out in zip(band, arrays)]
        for slab, size, *values in zip(slabs, sizes, *terms):
            for a, _, _, count, m, pos in slab:
                block = weights[pos : pos + count * m].reshape(count, m)
                if chamber:
                    block[...] = faces[3 if a else 0, :m]
                    if a:
                        block[::a] = faces[1:3, :m]
                elif a == 0:
                    # the points (0, b, 0): b = 0 is its own image, every other b stands for 3
                    block[...] = 3.0
                    block[0] = 1.0
                else:
                    # rw * s * 3/t: rw = 2 for the inversion where 2a != 0 mod N, s = 2 off the
                    # lines b = a and N - a, which the swap maps onto themselves, and t = 2 at a
                    # line's ends c = -a and a, or 3 where b is there too
                    rw = 2.0 if 2 * a % n else 1.0
                    block[...] = 6.0 * rw
                    block[:, :: 2 * a] = 3.0 * rw
                    edges = block[:: count - 1 or 1]
                    edges[...] = 3.0 * rw
                    edges[:, :: 2 * a] = rw
            yield (weights[:size], *values)

    return max(sizes), stream()


def _row_slabs(
    band: tuple[Harmonics, ...], windows: dict, grid_points: int, dimension: int
) -> tuple[int, Iterator[tuple[np.ndarray, ...]]]:
    """The largest slab's points, and a stream of ``(weights, *terms)`` over rows ``0..N//2``.

    A slab is a run of whole axis-0 rows of about ``_SLAB_POINTS`` points,
    each label's term evaluated by :func:`_term_on_grid`.
    """
    import numpy as np

    n, half = grid_points, grid_points // 2
    row_shape = (n,) * (dimension - 1)
    row_points = math.prod(row_shape)
    slab_rows = min(max(1, _SLAB_POINTS // row_points), half + 1)

    def stream():
        # one slab array per label and one of weights, the size of the first slab: every slab
        # writes into their first rows
        arrays = [_cache_aligned((slab_rows,) + row_shape, 0.0) for _ in band]
        weights = np.empty((slab_rows, row_points))
        for start in range(0, half + 1, slab_rows):
            rows = np.arange(start, min(start + slab_rows, half + 1))
            # rows 0 and N/2 are their own mirrors; every other one stands for two
            weights[: len(rows)] = np.where(2 * rows % n == 0, 1.0, 2.0)[:, None]
            yield (weights[: len(rows)].ravel(), *(
                _term_on_grid(h, windows, n, rows, out[: len(rows)]).ravel()
                for h, out in zip(band, arrays)
            ))

    return slab_rows * row_points, stream()


def _bandwidth(band: tuple[Harmonics, ...]) -> int:
    """The largest frequency component of any harmonic."""
    return max((abs(c) for harmonics in band for freq, _ in harmonics for c in freq), default=0)


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
    return n * _bandwidth(_band(spec)) + 1


def moments(spec: LatticeSpec, max_order: int, grid_points: int) -> dict[MultiIndex, float]:
    """Grid means of every dispersion monomial up to ``max_order``, on one grid.

    The keys are every multi-index ``m`` with ``sum(m) <= max_order``, in
    sorted order, and the monomial is ``prod_s eps_s(k)**m_s``.  For
    two-sublattice lattices the monomial is the subband-summed power
    ``sum_sigma eps_sigma**n``: even orders are the one squared-band
    kernel factor ``kernel**(n/2)`` with weight 2, and odd orders vanish
    by the sigma = -1/+1 cancellation, so the band square root is never
    taken.  One rule covers these and one label whose harmonics, as
    :func:`_band` gives them in the lattice's own coordinates, all have
    odd component sums: the half-cell shift flips its sign, so on an even
    grid, or one past ``max_order`` times the bandwidth, the odd moments
    are exact ``0.0`` and the tables take powers of ``eps**2``.

    The grid is streamed in slabs over rows ``0..N//2`` with inversion
    weights, or, where :func:`_permutation_symmetric` passes the 3-D band,
    over the fundamental domain of the axis permutations and the
    inversion, about a twelfth of the grid: diamond's band on every grid
    and bcc's on even ones.  A tetrahedral band (:func:`_tetrahedron`) on
    an odd grid is summed in cubic coordinates over the chamber of their
    48 signed permutations, about a 48th of the grid: bcc's on its auto
    grid at even orders (``N = n + 1``) and on every odd hand-set grid.
    The band and ``N`` choose the path, never the lattice's name, and the
    paths agree up to rounding (see the module docstring).  Every moment
    of a piece of a slab comes from one matrix product of two power tables
    (see the module docstring): with one label, the ``P`` powers ``x**p``
    of its dispersion ``x`` are ``(x**w)**j * x**k`` for ``w = isqrt(P -
    1) + 1``; with two, the
    moment ``(i, j)`` is ``e1**i * e2**j``.  A spec with more than
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
    # a one-label band whose harmonics all have odd component sums flips sign under the
    # half-cell shift; on a grid the shift maps onto itself (even N), or on which no odd power's
    # harmonic aliases to 0 (N > n*h), its odd moments vanish and x = eps**2
    squared = (
        spec.basis_size == 1
        and len(band) == 1
        and all(sum(freq) % 2 for freq, _ in band[0])
        and (grid_points % 2 == 0 or grid_points > max_order * _bandwidth(band))
    )
    # a tetrahedral band on an odd grid is summed in cubic coordinates over the chamber of their
    # 48 signed permutations; its table is read at det**-1 times each phase
    tetrahedron = _tetrahedron(band, grid_points) if spec.dimension == 3 else None
    if tetrahedron:
        cubic, inverse = _cubic_band(tetrahedron, grid_points)
        band = (cubic,)
    windows = {}
    if spec.dimension > 1:
        phases = np.arange(grid_points)
        table = _cos_table(phases * inverse % grid_points if tetrahedron else phases, grid_points)
        height = (2 * _bandwidth(band) + 1) * grid_points
        for c, amp in {(freq[-1], amp) for harmonics in band for freq, amp in harmonics}:
            # windows[c, amp][j, k] = amp * table[(j + c*k) % N] for j < height: from j on, read
            # with stride c; the rows past N let a domain row read its lines with one stride
            windows[c, amp] = np.lib.stride_tricks.as_strided(
                np.tile(amp * table, height // grid_points + c),
                (height, grid_points if c else 1),
                (table.itemsize, c * table.itemsize),
                writeable=False,
            )
    # a 3-D band unchanged by every permutation of its axes is summed over the chamber or the
    # fundamental domain of the permutations and the inversion, every other band over rows 0..N//2
    if spec.dimension == 3 and _permutation_symmetric(band):
        slab_points, slabs = _domain_slabs(band, windows, grid_points, bool(tetrahedron))
    else:
        slab_points, slabs = _row_slabs(band, windows, grid_points, spec.dimension)
    # odd moments vanish on two sublattices too, where x is the kernel and both subbands count
    weight, step = (2.0, 2) if spec.basis_size == 2 else (1.0, 2 if squared else 1)
    if len(band) == 2:
        # left[i] = weights * e1**i and right[j] = e2**j: product entry (i, j) is moment (i, j)
        shape = (max_order + 1, max_order + 1)
    else:
        # left[j] = weights * (x**w)**j and right[k] = x**k: entry (j, k) is power w*j + k
        powers = max_order // step + 1
        w = math.isqrt(powers - 1) + 1
        shape = (-(-powers // w), w)
    # both tables of a piece of a slab: about _SLAB_POINTS floats, or the whole slab if that
    # is less, each row whole cache lines
    width = min(max(1, _SLAB_POINTS // (8 * sum(shape))), -(-slab_points // 8)) * 8
    if len(band) == 2:
        # outer sides a multiple of 8, and inner ones below 392 or a multiple of 32, make
        # OpenBLAS round the product alike on 1 and 2 threads; the pieces keep the unpadded
        # tables' width, rounded up to a multiple of 32
        shape = tuple(-(-side // 8) * 8 for side in shape)
        width = -(-width // 32) * 32
    # right[0] is the ones that every piece leaves as they are; every other row is rewritten
    buffer = _cache_aligned((sum(shape), width), 1.0)
    # the compensated sum's four arrays, each rewritten in place by every piece
    products, carry, addend, total = (np.zeros(shape) for _ in range(4))
    for weights, eps, *second in slabs:
        # zero-weight points, which add exact zeros, pad a slab of 392 points or more, and so its
        # last piece, to a multiple of 32
        if second and len(weights) >= 392:
            pad = (0, -len(weights) % 32)
            weights, eps, second[0] = (np.pad(a, pad) for a in (weights, eps, second[0]))
        for piece in range(0, len(weights), buffer.shape[1]):
            cut = slice(piece, piece + buffer.shape[1])
            tables = buffer[:, : len(weights[cut])]
            left, right = tables[: shape[0]], tables[shape[0] :]
            left[0] = weights[cut]
            x = second[0][cut] if second else eps[cut]
            if squared and shape[1] > 1:
                # 1.0 * x is x, so x = eps**2 is written straight into right[1]; a one-row right
                # table leaves one left row, which reads no factor
                x = np.multiply(x, x, out=right[1])
            for k in range(1 + squared, shape[1]):
                np.multiply(right[k - 1], x, out=right[k])
            left_factor = eps[cut] if second else right[-1] * x
            for j in range(1, shape[0]):
                np.multiply(left[j - 1], left_factor, out=left[j])
            # a compensated (Kahan) sum over the pieces: bcc takes about a thousand at order 170
            np.matmul(left, right.T, out=addend)
            np.subtract(addend, carry, out=addend)
            np.add(products, addend, out=total)
            np.subtract(total, products, out=carry)
            np.subtract(carry, addend, out=carry)
            products, total = total, products
    if len(band) == 2:
        means, cut = (weight * products[: max_order + 1] / size).tolist(), max_order + 1
        return {(i, j): v for i, row in enumerate(means) for j, v in enumerate(row[: cut - i])}
    means = (weight * products.ravel()[:powers] / size).tolist()
    return {(n,): 0.0 if n % step else means[n // step] for n in range(max_order + 1)}


# ---------------------------------------------------------------------------
# finite ring sums, complex-hopping Fourier analysis and the appendix-B checks
# ---------------------------------------------------------------------------


def _complex_chain_z(pbc_size: int, rho: float, phi) -> np.ndarray | float:
    """Ring partition sum with complex hopping: mean_k exp(-2 rho cos(k+phi)).

    The mean runs over the ring's quasimomenta ``k = 2*pi*m/pbc_size``
    for ``m = -((pbc_size - 1) // 2), ..., pbc_size // 2``.
    ``phi`` may be a scalar or an array; the result matches its shape.
    The ring has at least 3 sites, as :func:`appendix_b_report` checks.
    Each term is divided by the momentum count before the sum, so the
    sum stays in the float range whenever its terms do.  A sum that
    leaves the float range is an ``OverflowError``, raised before any
    ``inf`` or ``nan`` reaches a caller or a warning is shown: numpy's
    ``exp`` may round to ``inf`` an ulp before the report's ``math.exp``
    guard does.
    """
    import numpy as np

    k = 2.0 * math.pi * (np.arange(pbc_size) - (pbc_size - 1) // 2) / pbc_size
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(-2.0 * rho * np.cos(k + np.asarray(phi, dtype=float)[..., None]))
        vals = (terms / pbc_size).sum(axis=-1)
    if not np.all(np.isfinite(vals)):
        raise OverflowError("ring sum is not finite")
    return float(vals) if np.ndim(phi) == 0 else vals


def _complex_fourier_a(
    pbc_size: int, rho: float, d_values: Sequence[int], phi_points: int
) -> list[float]:
    """Cosine-Fourier coefficients a_d of the ring sum, one per d, from ``phi_points`` phases.

    Only harmonics at multiples of the ring size survive (each walk's
    phase is its winding displacement), so a value is ~0 unless
    ``pbc_size`` divides ``d``.  d = 0 carries the mean normalisation,
    d > 0 the doubled cosine normalisation.  The ring sum is evaluated
    once on the phase grid and every a_d is taken from it; the 1/M of
    the mean sits in the weights, so the sum never leaves the ring sum's
    own range.  Every ``d`` is at least 0 and ``phi_points`` at least 1,
    as :func:`appendix_b_report` makes them.
    """
    import numpy as np

    phis = -math.pi + 2.0 * math.pi * np.arange(phi_points) / phi_points
    z = _complex_chain_z(pbc_size, rho, phis)
    means = [float(np.sum(z * (np.cos(d * phis) / phi_points))) for d in d_values]
    return [mean if d == 0 else 2.0 * mean for d, mean in zip(d_values, means)]


def _bessel_i(m: int, x: float) -> float:
    """Modified Bessel function I_m(x) of integer order m >= 0 (DLMF 10.25.2).

    Sums (x/2)**(m+2k) / (k! (m+k)!) from its first term prod_{j<=m} (x/2)/j
    by the term ratio (x/2)**2 / ((k+1)(m+k+1)), so no factorial becomes a
    float; a negative x needs no care, (x/2)**m carries the sign.  Once the
    ratio is below 1/2 the rest of the series is smaller than the current
    term, so the sum stops at the first such term below one ulp of the total.
    Its one caller, :func:`_ring_harmonics`, passes ``m = 0, N, 2N, ...``
    and ``|x| = 2|rho|``, which :func:`appendix_b_report` keeps within
    ``log(max float)``: the terms have one sign, so every partial sum is at
    most ``I_m(|x|) <= I_0(|x|)``, below 3e306 there, and stays finite.
    """
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


def _ring_harmonics(pbc_size: int, rho: float) -> dict[int, float]:
    """{m: a_m}, the cosine-Fourier coefficients of Z(rho, .) in the hopping phase.

    A walk of winding c picks up the phase c N phi, so a_0 = I_0(-2 rho),
    a_{cN} = 2 I_{cN}(-2 rho) and every other a_m is 0 (DLMF 10.35.1).
    Once cN passes 2|rho| each term is below half the one before, so the
    table stops, like :func:`_bessel_i`, at the first such term below one
    ulp of a_0; its largest key is the sum's bandwidth.  The ring has at
    least 3 sites and ``e^{2|rho|}`` is a finite float, as
    :func:`appendix_b_report` checks.
    """
    x = -2.0 * rho
    table = {0: _bessel_i(0, x)}
    m = 0
    while True:
        m += pbc_size
        term = 2.0 * _bessel_i(m, x)
        if m > abs(x) and abs(term) < math.ulp(table[0]):
            return table
        table[m] = term


def appendix_b_report(
    pbc_size: int,
    rho: float,
    d_values: Sequence[int] | None = None,
    phi_half: bool = False,
) -> dict:
    """Numeric checks of the complex-hopping ring identities.

    Every reference comes from one table of the ring sum's winding
    harmonics, :func:`_ring_harmonics`.  Per ``d``: the Fourier integral
    a_d either matches its table entry (when the ring size divides d) or
    vanishes (selection rule), on one phase grid of ``max(d) + H + 1``
    points, alias-free for every d since no harmonic past the table's
    bandwidth H reaches one ulp.  Always, the ring sum at phase pi
    against the table's cosine series there; when ``phi_half`` is set,
    the same at phase pi/2, on any ring, odd ones included, since the
    series holds at every phase.  Residuals are taken
    on the ring sum's own scale: divided by e^{2|rho|}, which bounds
    |Z(rho, phi)| and so every value and reference.  A record passes
    when its residual is within

        ``C * (2|rho| + d + log2(N*M) + 1) * u``,  ``C = 4``,

    with ``N = pbc_size``, ``M = phi_points``, ``d`` the record's Fourier
    index (0 on the two phase records) and ``u = 2**-53`` the unit
    roundoff.

    The bound follows Higham, *Accuracy and Stability of Numerical
    Algorithms* (2nd ed., SIAM 2002).  Each ring-sum term
    ``exp(-2 rho cos(k + phi))`` is at most e^{2|rho|} in size.  Its
    argument errs by about ``2|rho|*u``, ``2|rho|`` times the cosine's
    rounding, and the exponential turns that absolute error into the same
    relative error of the term (§3.1).  A Fourier integral weights each
    phase by ``cos(d*phi)``, whose argument carries ``d`` times the
    rounding of ``phi``, so the weight errs by about ``d*u``.  The ring
    sum's ``N`` terms and the phase sum's ``M`` products are summed
    pairwise, each sum erring by at most ``gamma_{log2 N}`` or
    ``gamma_{log2 M}``, about ``log2(N)*u`` and ``log2(M)*u``, of the sum
    of its terms' sizes (§4.2), which the scale bounds.  Each product of
    a ring sum and a weight rounds once, the ``+ 1``.  ``C = 4`` covers
    the few single roundings that these terms leave out: of the momenta
    and phases, of the divisions by ``N`` and ``M``, of the doubling of
    ``a_d`` and of the reference, whose series stop below one ulp.  It is
    not fitted to measured errors.  A run whose ``max(d) + 1`` phases
    times ``pbc_size`` pass ``MAX_PHASE_CELLS`` is a ``ValueError``
    before any harmonic or ring sum is computed, and a negative ``d``,
    checked next, is one too.  A ``rho`` whose scale
    e^{2|rho|} is no finite float, ``inf`` and ``nan`` included, is an
    ``OverflowError``, raised before any table is built.
    """
    _check_ring_size(pbc_size)
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
    if any(d < 0 for d in d_values):
        raise ValueError("d must be >= 0")
    harmonics = _ring_harmonics(pbc_size, rho)
    phi_points = top + max(harmonics) + 1
    values = _complex_fourier_a(pbc_size, rho, d_values, phi_points)
    records = []
    for d, value in zip(d_values, values):
        reference = harmonics.get(d, 0.0)
        kind = "fourier_a" if d % pbc_size == 0 else "fourier_a_selection"
        records.append({"kind": kind, "d": int(d), "value": value, "reference": reference})
    phases = [("phi_half", math.pi / 2)] if phi_half else []
    for kind, phi in phases + [("phi_pi", math.pi)]:
        value = _complex_chain_z(pbc_size, rho, phi)
        reference = sum(a * math.cos(m * phi) for m, a in harmonics.items())
        records.append({"kind": kind, "d": None, "value": value, "reference": reference})
    rounds = 2.0 * abs(rho) + math.log2(pbc_size * phi_points) + 1.0
    for record in records:
        record["residual"] = abs(record["value"] - record["reference"]) / scale
        record["pass"] = record["residual"] <= 4 * (rounds + (record["d"] or 0)) * 2.0**-53
    return {
        "pbc_size": pbc_size,
        "rho": rho,
        "phi_points": phi_points,
        "records": records,
    }
