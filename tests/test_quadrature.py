import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import generated_specs, series_value, two_sublattice_specs
from latticewalks import (
    BUILTIN_NAMES,
    StepVector,
    appendix_b_report,
    auto_grid_size,
    builtin,
    expand,
    moments,
    quadrature,
)
from latticewalks.cli import build_parser, cmd_appendix_b
from latticewalks.lattices import MAX_HOPPING_LABELS
from latticewalks.oracle import closed_walks
from latticewalks.quadrature import (
    _SLAB_POINTS,
    MAX_GRID_WORK,
    _band,
    _cache_aligned,
    _cos_table,
    bessel_i,
    complex_chain_z,
    complex_fourier_a,
    ring_harmonics,
)


def make(name, pbc=None):
    return builtin(name, pbc)


# ---------------------------------------------------------------------------
# dispersion moments
# ---------------------------------------------------------------------------


def test_moment_examples():
    assert moments(make("chain-nn"), 2, 3)[(2,)] == pytest.approx(2.0, rel=1e-12)
    for n in (4, 7, 9):
        assert moments(make("triangular"), 3, n)[(3,)] == pytest.approx(12.0, rel=1e-12)
    assert moments(make("bcc"), 2, 3)[(2,)] == pytest.approx(8.0, rel=1e-12)


def test_moment_zero_order():
    assert moments(make("chain-nn"), 0, 1) == {(0,): 1.0}


def test_moment_validation():
    spec = make("chain-nnn")
    with pytest.raises(ValueError):
        moments(spec, 2, 0)
    with pytest.raises(ValueError):
        moments(spec, -1, 5)


def test_two_band_examples():
    assert moments(make("honeycomb"), 2, 2)[(2,)] == pytest.approx(6.0)
    assert moments(make("diamond"), 2, 2)[(2,)] == pytest.approx(8.0)
    for name in ("honeycomb", "diamond"):
        assert moments(make(name), 0, 1)[(0,)] == 2.0  # both subbands count the empty walk
        assert moments(make(name), 5, 4)[(5,)] == 0.0


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# exact cosine at a turn of k/12, for every k where the value is rational
_RATIONAL_COS = {0: 1.0, 2: 0.5, 3: 0.0, 4: -0.5, 6: -1.0, 8: -0.5, 9: 0.0, 10: 0.5}


def test_cos_table_exact_symmetries():
    for n in range(1, 257):
        m = np.arange(n)
        table = _cos_table(m, n)
        assert np.allclose(table, np.cos(2.0 * np.pi * m / n), rtol=0.0, atol=2e-15)
        assert np.array_equal(_bits(table), _bits(table[(n - m) % n]))
        if n % 2 == 0:
            # float equality: bit-for-bit apart from the sign of the two zeros
            assert np.array_equal(table[(m + n // 2) % n], -table)
        for k, value in _RATIONAL_COS.items():
            if k * n % 12 == 0:
                assert _bits(table[k * n // 12]) == _bits(value), (n, k)


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (6, 101, 101)])
@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_slab_arrays_start_on_a_cache_line(shape, fill):
    out = _cache_aligned(shape, fill)
    assert out.ctypes.data % 64 == 0
    assert out.shape == shape and out.dtype == np.float64 and out.flags.c_contiguous
    assert (out == fill).all()


def test_refinement_stability():
    # alias-free grids: doubling the bandwidth-sized grid changes nothing
    for name in ("chain-nn", "chain-nn-finite", "chain-nnn", "triangular", "bcc"):
        spec = make(name, 6 if name == "chain-nn-finite" else None)
        h = max(abs(c) for harmonics in _band(spec) for freq, _ in harmonics for c in freq)
        for total in (2, 3, 4):
            coarse = moments(spec, total, total * h + 1)
            fine = moments(spec, total, 2 * (total * h + 1))
            for index in _indices(spec.hopping_count, total):
                assert fine[index] == pytest.approx(coarse[index], rel=1e-12, abs=1e-12)
    # and the grid of the top order is alias-free at every lower order: the
    # whole order-12 table matches each order's own grid (coefficients to 1e-12)
    top = 12
    for name in BUILTIN_NAMES:
        spec = make(name, 6 if name == "chain-nn-finite" else None)
        wide = moments(spec, top, auto_grid_size(spec, top))
        for n in range(top + 1):
            own = moments(spec, n, auto_grid_size(spec, n))
            for index in _indices(spec.hopping_count, n):
                scale = math.prod(map(math.factorial, index))
                assert wide[index] == pytest.approx(own[index], rel=1e-12, abs=1e-12 * scale)
    # the two-label stream, one product per piece of its slab, matches the alias-free grid
    nnn = make("chain-nnn")
    exact = moments(nnn, 40, auto_grid_size(nnn, 40))
    for n in (4001, 4002):
        # rows 0..N//2 stream as three pieces, each two tables of 41 powers
        assert math.ceil((n // 2 + 1) / (_SLAB_POINTS // (8 * 2 * 41) * 8)) == 3
        for index, value in moments(nnn, 40, n).items():
            assert value == pytest.approx(exact[index], rel=0.0, abs=1e-13 * 2.0 ** sum(index))


def _indices(labels, total):
    if labels == 1:
        return [(total,)]
    return [(a, total - a) for a in range(total + 1)]


def test_moments_match_exact_coefficients():
    for name in BUILTIN_NAMES:
        pbc = 5 if name == "chain-nn-finite" else None
        spec = make(name, pbc)
        table = expand(name, 8, pbc)
        values = moments(spec, 8, auto_grid_size(spec, 8))
        assert sorted(values) == sorted(i for t in range(9) for i in _indices(spec.hopping_count, t))
        for total in range(9):
            for index in _indices(spec.hopping_count, total):
                approx = values[index] / math.prod(map(math.factorial, index))
                exact = float(table.coefficient(index))
                if exact:
                    assert approx == pytest.approx(exact, rel=1e-9)
                else:
                    assert abs(approx) <= 1e-12


def test_odd_moments_vanish_where_series_says_so():
    for name in ("chain-nn", "bcc"):
        spec = make(name)
        values = moments(spec, 5, auto_grid_size(spec, 5))
        for n in (1, 3, 5):
            assert values[(n,)] == 0.0
    # but not on the triangular lattice, whose odd orders count real walks
    tri = make("triangular")
    assert moments(tri, 3, auto_grid_size(tri, 3))[(3,)] == pytest.approx(12.0)


_FLIPPED_BY_THE_HALF_CELL_SHIFT = [make("chain-nn"), make("bcc")] + [
    make("chain-nn-finite", sites) for sites in range(3, 9)
]


@settings(max_examples=150, deadline=None)
@given(
    spec=st.sampled_from(_FLIPPED_BY_THE_HALF_CELL_SHIFT) | generated_specs(odd_sums=True),
    n=st.integers(1, 12),
    order=st.integers(0, 9),
)
@example(spec=make("chain-nn"), n=3, order=3)  # aliased: the 3-site torus's odd walks
@example(spec=make("bcc"), n=12, order=9)
@example(spec=make("chain-nn-finite", 7), n=7, order=9)  # an odd ring on its own grid
def test_odd_moments_vanish_where_the_half_cell_shift_maps_the_grid(spec, n, order):
    # every harmonic of the one label has an odd component sum, so eps flips sign under the
    # shift by half a cell: on an even grid, or one alias-free at the top order, every odd
    # moment is an exact zero; on an odd grid that aliases them they are the torus's odd walks
    values = moments(spec, order, n)
    _assert_full_grid_means(values, spec, order, n)
    h = max(abs(c) for freq, _ in _band(spec)[0] for c in freq)
    if n % 2 == 0 or n > order * h:
        odd = [values[(m,)] for m in range(1, order + 1, 2)]
        assert odd == [0.0] * len(odd)
    if spec.name.startswith("chain-nn") and n % 2 and n <= order:
        # the two walks that wind once round the n-cell torus
        assert values[(n,)] == pytest.approx(2.0, rel=1e-12)


def test_auto_grid_policy():
    assert auto_grid_size(make("chain-nn"), 6) == 7
    assert auto_grid_size(make("chain-nnn"), 4) == 9  # largest bandwidth 2, any index
    assert auto_grid_size(make("chain-nnn"), 0) == 1
    assert auto_grid_size(make("chain-nn-finite", 7), 6) == 7
    assert auto_grid_size(make("honeycomb"), 8) == 5
    assert auto_grid_size(make("diamond"), 0) == 1
    assert auto_grid_size(make("bcc"), 100) == 101


def _full_grid_means(spec, order, n):
    """Every moment as np.mean over all n**D points, the band built from the steps.

    A step d has the phase 2*pi*m.d/n at grid point m; a label's band is
    the sum of its steps' cosines, and the bipartite kernel is
    |sum exp(i*phase)|**2 over the A->B steps.
    """
    k = np.meshgrid(*[2.0 * np.pi * np.arange(n) / n] * spec.dimension, indexing="ij")

    def phase(step):
        return sum(float(d) * kp for d, kp in zip(step.displacement, k))

    if spec.basis_size == 2:
        eps = [np.abs(sum(np.exp(1j * phase(s)) for s in spec.steps if s.sublattice == "AtoB")) ** 2]
    else:
        eps = [
            sum(np.cos(phase(s)) for s in spec.steps if s.label == label)
            for label in range(1, spec.hopping_count + 1)
        ]
    scales = [float(np.max(np.abs(e))) for e in eps]
    out = {}
    for total in range(order + 1):
        for index in _indices(spec.hopping_count, total):
            if spec.basis_size == 2:
                # both subbands: 2 kernel**(n/2) at even n, cancelled at odd n
                mean = 0.0 if total % 2 else 2.0 * np.mean(eps[0] ** (total // 2))
                scale = 2.0 * scales[0] ** (total // 2)
            else:
                mean = np.mean(math.prod(e**m for e, m in zip(eps, index)))
                scale = math.prod(s**m for s, m in zip(scales, index))
            out[index] = (float(mean), scale)
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 9), order=st.integers(0, 10))
@example(n=3, order=10)  # aliased, as verify --grid 3 is
@example(n=8, order=10)  # even: row N/2 is its own mirror
@example(n=9, order=10)
def test_halved_slab_sums_match_the_full_grid_mean(name, n, order):
    spec = make(name, max(n, 3) if name == "chain-nn-finite" else None)
    _assert_full_grid_means(moments(spec, order, n), spec, order, n)


@settings(max_examples=60, deadline=None)
@given(
    spec=generated_specs(closed_under_swap=True) | two_sublattice_specs(closed_under_swap=True),
    n=st.integers(1, 9),
    order=st.integers(0, 6),
)
def test_generated_halved_slab_sums_match_the_full_grid_mean(spec, n, order):
    # 3-D bands unchanged by exchanging the last two axes: the last axis is halved too
    _assert_full_grid_means(moments(spec, order, n), spec, order, n)


def _assert_full_grid_means(values, spec, order, n):
    reference = _full_grid_means(spec, order, n)
    assert sorted(values) == sorted(reference)
    for index, (mean, scale) in reference.items():
        assert values[index] == pytest.approx(mean, rel=0.0, abs=1e-13 * max(scale, 1.0)), index


def _row_shapes(spec, order, n):
    """The row shapes, past the rows axis, of the slabs ``moments`` passes ``_term_on_grid``."""
    shapes = set()
    term_on_grid = quadrature._term_on_grid

    def recording(harmonics, windows, grid_points, rows, out):
        shapes.add(out.shape[1:])
        return term_on_grid(harmonics, windows, grid_points, rows, out)

    with mock.patch.object(quadrature, "_term_on_grid", recording):
        moments(spec, order, n)
    return shapes


# steps whose band the exchange of the last two axes changes
_ASYMMETRIC_3D = ((1, -2, 3), (0, 2, -1), (2, 0, 0), (1, 1, 1))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 101])
def test_only_bands_unchanged_by_the_swap_halve_the_last_axis(n):
    # the band decides, never the name: bcc's and diamond's bands pass the swap test,
    # bcc's name with asymmetric steps does not
    for name in ("bcc", "diamond"):
        assert _row_shapes(make(name), 4, n) == {(n, n // 2 + 1)}, name
    asymmetric = make("bcc")._replace(steps=_steps(*_ASYMMETRIC_3D))
    assert _row_shapes(asymmetric, 4, n) == {(n, n)}
    for name in ("triangular", "honeycomb"):
        assert _row_shapes(make(name), 4, n) == {(n,)}, name
    for name in ("chain-nn", "chain-nnn"):
        assert _row_shapes(make(name), 4, n) == {()}, name


def test_swap_test_takes_harmonics_up_to_sign_with_their_amplitudes():
    # (1, 2, 3) exchanges to (1, 3, 2), which is -(-1, -3, -2)
    assert quadrature._swap_symmetric(((((1, 2, 3), 1), ((-1, -3, -2), 1)),))
    # the amplitudes differ, or the multiset does
    assert not quadrature._swap_symmetric(((((0, 1, 0), 1), ((0, 0, 1), 2)),))
    assert not quadrature._swap_symmetric(((((0, 1, 0), 1), ((0, 0, 1), 1), ((0, 0, -1), 1)),))
    # every label must pass: one symmetric label and one not
    symmetric, lopsided = (((0, 1, 0), 1), ((0, 0, 1), 1)), (((0, 1, 0), 1),)
    assert quadrature._swap_symmetric((symmetric, symmetric))
    assert not quadrature._swap_symmetric((symmetric, lopsided))


def test_halving_a_band_the_swap_changes_fails_the_full_grid_mean():
    # the mutant: the asymmetric spec forced onto the halved last axis
    spec = make("bcc")._replace(steps=_steps(*_ASYMMETRIC_3D))
    with mock.patch.object(quadrature, "_swap_symmetric", lambda band: True):
        for n in (5, 6, 7, 12):
            assert _row_shapes(spec, 4, n) == {(n, n // 2 + 1)}
            with pytest.raises(AssertionError):
                _assert_full_grid_means(moments(spec, 4, n), spec, 4, n)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), length=st.integers(0, 10))
@example(n=3, length=10)  # aliased: the chain-nnn label count passes the side
@example(n=4, length=10)  # the cosine table's exact 0 and -1
@example(n=6, length=10)  # the cosine table's exact 1/2
def test_grid_means_count_closed_walks_on_the_torus(name, n, length):
    # an n-point-per-axis grid is the reciprocal lattice of the torus of
    # n**D cells, so every grid mean, aliased or not, counts its closed walks
    spec = make(name, 3 if name == "chain-nn-finite" else None)._replace(pbc_size=n)
    values = moments(spec, length, n)
    sups = [sum(abs(amp) for _, amp in harmonics) for harmonics in _band(spec)]
    for tally in closed_walks(spec, length):
        order = tally.length
        for index in _indices(spec.hopping_count, order):
            orderings = math.factorial(order) // math.prod(map(math.factorial, index))
            if spec.basis_size == 2:
                scale = sups[0] ** (order / 2)  # kernel**(n/2)
            else:
                scale = math.prod(sup**m for sup, m in zip(sups, index))
            error = abs(values[index] - float(Fraction(tally.count(index), orderings)))
            assert error <= 1e-13 * scale, (index, error / scale)


def test_moments_memory_stays_in_slabs():
    # the whole 171**3 grid is 38 MiB, and one power of it as much again;
    # chain-nnn's 171 powers of each label on 20000 points would be 52 MiB;
    # a cosine table and row weights along a 4e6-point axis would be 156 MiB
    cases = (
        ("bcc", None, 170, 171),
        ("chain-nnn", None, 170, 20000),
        ("chain-nn", None, 2, 4 * 10**6),
        ("chain-nn-finite", 4 * 10**6, 3, 4 * 10**6),
        # a 5000**2 window of the cosine table would be 200 MB
        ("triangular", None, 2, 5000),
    )
    for name, pbc, order, n in cases:
        tracemalloc.start()
        try:
            moments(make(name, pbc), order, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, name


def _table_gather_moments(spec, max_order, n):
    """Moments gathered from one table of all n cosines, with whole-grid point weights.

    Each label's dispersion is gathered point by point over the whole
    reduced grid (rows ``0..n//2``, and on a 3-D band that the swap of the
    last two axes leaves alone, ``d`` in ``0..n//2`` of the last axis with
    the harmonics read as ``(f0, f1 + f2, f2)``), then cut into the slabs
    of ``moments``: whole axis-0 rows, about ``_SLAB_POINTS`` points.  The
    slabs' pieces, the two power tables of each piece, their product and
    the compensated sum over pieces are those of ``moments``, so the floats
    must agree bit for bit; here each table is one ``np.cumprod`` of its
    rows' factors.  So is the odd-moment rule: one label whose harmonics
    all have odd component sums, on an even grid or one past ``max_order``
    times the bandwidth, takes powers of ``eps**2``, and its odd moments
    are exact zeros.  It is tier-1's only bit-level guard on the power
    tables and on that compensated sum: with a plain ``+=`` over the
    pieces, or ``x**w`` taken as ``np.power(x, w)``, in ``moments`` only
    the comparison with this helper fails, so it is no duplicate of
    ``_phase_gather_moments``, which checks the band alone.
    """
    table = _cos_table(np.arange(n), n)
    band = _band(spec)
    dim = spec.dimension
    bandwidth = max(abs(c) for harmonics in band for f, _ in harmonics for c in f)
    squared = (
        spec.basis_size == 1
        and len(band) == 1
        and all(sum(f) % 2 for f, _ in band[0])
        and (n % 2 == 0 or n > max_order * bandwidth)
    )
    halved = dim == 3 and quadrature._swap_symmetric(band)
    if halved:
        band = tuple(tuple(((f0, f1 + f2, f2), amp) for (f0, f1, f2), amp in h) for h in band)
    half = n // 2

    def mirror_weights(points):
        weights = np.full(points, 2.0)
        weights[0] = 1.0
        if n % 2 == 0 and points > half:
            weights[half] = 1.0
        return weights

    sides = [half + 1] + [n] * (dim - 2) + ([half + 1 if halved else n] if dim > 1 else [])
    axes = np.ix_(*(np.arange(side) for side in sides))
    terms = []
    for harmonics in band:
        term = np.zeros(sides)
        for f, amp in harmonics:
            term += amp * table[np.mod(sum(axis * c for axis, c in zip(axes, f)), n)]
        terms.append(term.ravel())
    in_row = np.broadcast_to(mirror_weights(sides[-1]) if halved else 1.0, sides[1:]).ravel()
    point_weights = np.outer(mirror_weights(half + 1), in_row).ravel()
    weight, step = (2.0, 2) if spec.basis_size == 2 else (1.0, 2 if squared else 1)
    powers = max_order // step + 1
    if len(band) == 2:
        shape = (max_order + 1, max_order + 1)
    else:
        shape = (-(-powers // (math.isqrt(powers - 1) + 1)), math.isqrt(powers - 1) + 1)
    per_piece = max(1, _SLAB_POINTS // (8 * sum(shape))) * 8
    if len(band) == 2:
        # as in moments, the tables' sides padded to a multiple of 8, and the pieces' length and
        # every slab of 392 points or more to a multiple of 32, with zero-weight points
        shape = (-(-(max_order + 1) // 8) * 8,) * 2
        per_piece = -(-per_piece // 32) * 32
    row_points = len(point_weights) // (half + 1)
    slab_points = min(max(1, _SLAB_POINTS // row_points), half + 1) * row_points
    products, carry = np.zeros(shape), np.zeros(shape)
    for slab in range(0, len(point_weights), slab_points):
        end = min(slab + slab_points, len(point_weights))
        pad = -(end - slab) % 32 if len(band) == 2 and end - slab >= 392 else 0
        slab_weights, *slab_terms = (
            np.concatenate([a[slab:end], np.zeros(pad)]) for a in [point_weights, *terms]
        )
        if squared:
            slab_terms[0] = slab_terms[0] * slab_terms[0]
        for start in range(0, end - slab + pad, per_piece):
            cut = slice(start, start + per_piece)
            eps, *second = (term[cut] for term in slab_terms)
            ones = np.ones_like(eps)
            if second:
                left = np.cumprod([slab_weights[cut]] + [eps] * (shape[0] - 1), axis=0)
                right = np.cumprod([ones] + second * (shape[1] - 1), axis=0)
            else:
                right = np.cumprod([ones] + [eps] * (shape[1] - 1), axis=0)
                left = np.cumprod([slab_weights[cut]] + [right[-1] * eps] * (shape[0] - 1), axis=0)
            addend = left @ right.T - carry
            total = products + addend
            carry = (total - products) - addend
            products = total
    if len(band) == 2:
        means = weight * products[: max_order + 1, : max_order + 1] / n**dim
        return {m: float(means[m]) for m in np.ndindex(means.shape) if sum(m) <= max_order}
    means = weight * products.ravel() / n**dim
    return {(m,): 0.0 if m % step else float(means[m // step]) for m in range(max_order + 1)}


def _phase_gather_term(harmonics, windows, grid_points, rows, out):
    """One label's harmonics on a slab of ``out``'s shape, gathered point by point.

    Every slab point gets its own integer phase, reduced mod N, and reads
    its cosine from the table of all N phases, harmonic by harmonic into
    a fresh slab array; ``windows`` is not read and ``out`` not written.
    On a halved 3-D grid the harmonics come as ``moments`` reads them,
    ``(f0, f1 + f2, f2)``, so the phase at slab point ``(a, b, d)`` is the
    one at grid point ``(a, b, b + d)``.
    """
    table = _cos_table(np.arange(grid_points), grid_points)
    axes = np.ix_(rows, *(np.arange(points) for points in out.shape[1:]))
    slab = np.zeros(out.shape)
    for freq, amp in harmonics:
        phase = sum(axes[p] * freq[p] for p in range(len(axes)) if freq[p])
        slab += amp * table[np.mod(phase, grid_points)]
    return slab


def _phase_gather_moments(spec, max_order, n):
    """``moments`` with each slab's dispersion gathered point by point (``_phase_gather_term``)."""
    with mock.patch.object(quadrature, "_term_on_grid", _phase_gather_term):
        return moments(spec, max_order, n)


def _hex_moments(moments_of, spec, max_order, n):
    return {m: v.hex() for m, v in moments_of(spec, max_order, n).items()}


def test_row_windows_match_the_phase_gather():
    # the last axis reads rows of the table's windows, and a 1-D slab folds
    # its own phases, f and -f sharing one term: the same floats as a per-point gather
    cases = [
        (name, pbc, order, n)
        for name, pbc in (
            ("chain-nn", None), ("chain-nnn", None), ("chain-nn-finite", 6),
            ("triangular", None), ("honeycomb", None), ("bcc", None), ("diamond", None),
        )
        for n in range(1, 8)
        for order in (0, 1, 2, 5, 9)
    ]
    cases += [
        (name, None, order, auto_grid_size(make(name), order))
        for name, order in (
            ("chain-nn", 160), ("chain-nnn", 40),
            ("bcc", 100), ("bcc", 170), ("diamond", 150), ("triangular", 60), ("honeycomb", 300)
        )
    ]
    # bcc 100's rows 0..50 of 101**2 points span several slabs
    assert _SLAB_POINTS // 101**2 < 51
    for name, pbc, order, n in cases:
        spec = make(name, pbc)
        want = _hex_moments(_phase_gather_moments, spec, order, n)
        assert _hex_moments(moments, spec, order, n) == want, (name, pbc, order, n)


@settings(max_examples=80, deadline=None)
@given(spec=generated_specs() | generated_specs(closed_under_swap=True), n=st.integers(1, 9))
def test_generated_bands_match_the_phase_gather(spec, n):
    # 1-D to 3-D, zero moves and bands constant along an axis, one or two
    # labels, halved last axes: the slab sum is bit for bit the per-point
    # gather's, on a small grid and on the auto grid (a torus's own cells)
    top = {1: 10, 2: 6, 3: 4}[spec.dimension]
    for grid in (n, auto_grid_size(spec, top)):
        want = _hex_moments(_phase_gather_moments, spec, top, grid)
        assert _hex_moments(moments, spec, top, grid) == want, grid


def test_a_third_label_is_refused():
    spec = make("chain-nnn")
    third = tuple(s._replace(label=3) for s in spec.steps[:2])
    spec = spec._replace(steps=spec.steps + third, hopping_count=3)
    with pytest.raises(ValueError, match=f"at most {MAX_HOPPING_LABELS} hopping labels, got 3"):
        moments(spec, 4, 9)


def test_a_step_label_outside_the_labels_is_refused():
    # chain-nnn under a hopping_count of 1: its band would drop the label-2 steps
    spec = make("chain-nnn")._replace(hopping_count=1)
    with pytest.raises(ValueError, match="step label 2 is outside 1..1"):
        moments(spec, 2, 9)


def test_a_fractional_step_on_one_sublattice_is_refused():
    # chain-nn hopping half a cell: on one sublattice a step must be a lattice
    # translation, for the quadrature's harmonics and for the oracle's moves
    spec = make("chain-nn")._replace(steps=_steps((Fraction(1, 2),)))
    with pytest.raises(ValueError, match="expected integral lattice coordinates"):
        moments(spec, 2, 9)
    with pytest.raises(ValueError, match="expected integral lattice coordinates"):
        closed_walks(spec, 2)


@settings(max_examples=100, deadline=None)
@given(
    spec=generated_specs()
    | two_sublattice_specs()
    | generated_specs(closed_under_swap=True)
    | two_sublattice_specs(closed_under_swap=True)
)
def test_generated_lattices_match_the_oracle(spec):
    # the paper's identity beyond the built-ins: the walks that use m_l steps
    # of label l are C(n, m_1) orders of the labels times the grid mean of
    # prod_l eps_l**m_l; eps_l is at most z_l, the label's steps per site (the
    # A->B steps on two sublattices, whose moment is w = 2 kernel powers), so
    # a moment errs by at most verify's rounding bound C (n + D log2 N) u,
    # C = 4, u = 2**-53, times w prod_l z_l**m_l
    top = {1: 10, 2: 6, 3: 4}[spec.dimension]
    points = auto_grid_size(spec, top)
    grid = moments(spec, top, points)
    forward = [s for s in spec.steps if s.sublattice != "BtoA"]
    z = [sum(s.label == label for s in forward) for label in (1, 2)]
    for tally in closed_walks(spec, top):
        n = tally.length
        bound = 4 * (n + spec.dimension * math.log2(points)) * 2.0**-53 * spec.basis_size
        for m in (key for key in grid if sum(key) == n):
            orders = math.comb(n, m[0]) if len(m) == 2 else 1
            walks = orders * grid[m]
            assert round(walks) == tally.count(m), (m, walks)
            assert abs(walks - tally.count(m)) <= bound * orders * math.prod(
                zl**k for zl, k in zip(z, m)
            )


def _steps(*displacements):
    return tuple(
        StepVector(tuple(Fraction(sign * c) for c in d), 1)
        for d in displacements
        for sign in (1, -1)
    )


@pytest.mark.parametrize(
    "name, displacements",
    [
        # last-axis frequencies -3 to 3 between them, and terms on the first axis alone
        ("bcc", _ASYMMETRIC_3D),
        ("triangular", ((1, 2), (3, -3), (0, 1))),
        # no harmonic spans the last axis, so none spans the slab
        ("triangular", ((1, 0), (2, 0))),
        ("bcc", ((1, 0, 0), (1, -2, 0))),
    ],
)
def test_row_windows_of_any_stride_match_the_phase_gather(name, displacements):
    spec = make(name)._replace(steps=_steps(*displacements))
    for n in (1, 2, 5, 7, 12):
        want = _hex_moments(_phase_gather_moments, spec, 4, n)
        assert _hex_moments(moments, spec, 4, n) == want, n


def test_one_dimensional_slabs_fold_the_table_values():
    # a 1-D slab folds its own phases: the same floats as a gather from the whole-axis table
    for n in (1, 2, 5, 4001, 4002, 200000):
        cases = [("chain-nn", None, 8), ("chain-nnn", None, 6)]
        if n >= 3:
            cases.append(("chain-nn-finite", n, 4))
        for name, pbc, order in cases:
            spec = make(name, pbc)
            got = {m: v.hex() for m, v in moments(spec, order, n).items()}
            want = {m: v.hex() for m, v in _table_gather_moments(spec, order, n).items()}
            assert got == want, (name, n)


@pytest.mark.parametrize(
    "name, order, n",
    [("bcc", order, None) for order in (0, 1, 2, 12, 40)]
    + [("diamond", order, None) for order in (0, 1, 2, 12, 40)]
    + [("triangular", 20, None), ("honeycomb", 20, None)]
    # powers of eps**2 on an even hand-set grid, and bcc's rows in several slabs
    + [("bcc", 40, 42), ("bcc", 12, 3), ("bcc", 4, 120)],
)
def test_slab_power_tables_match_the_table_gather(name, order, n):
    # in 2-D and 3-D, halved last axes included, the power tables and the compensated sum over
    # the pieces give the floats of a gather from the whole-grid table, bit for bit
    spec = make(name)
    n = n or auto_grid_size(spec, order)
    got = {m: v.hex() for m, v in moments(spec, order, n).items()}
    assert got == {m: v.hex() for m, v in _table_gather_moments(spec, order, n).items()}


def test_grid_work_bound():
    bcc = make("bcc")
    assert 100 * auto_grid_size(bcc, 170) ** 3 * 170 <= MAX_GRID_WORK
    with pytest.raises(ValueError, match="bound"):
        moments(bcc, 2, 100000)
    with pytest.raises(ValueError, match="bound"):
        moments(make("chain-nn"), 0, MAX_GRID_WORK + 1)
    # the bound counts moments: chain-nnn has comb(172, 2) of them at order 170
    with pytest.raises(ValueError, match="bound"):
        moments(make("chain-nnn"), 170, 10**7)


def test_ring_grid_reproduces_winding_counts():
    # on the ring's own grid the aliased mean equals the winding tally
    for lam in (3, 4, 6):
        spec = make("chain-nn-finite", lam)
        table = expand("chain-nn-finite", 8, lam)
        for n in range(9):
            expected = float(table.coefficient((n,)) * math.factorial(n))
            assert moments(spec, 8, lam)[(n,)] == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# discrete ring sums
# ---------------------------------------------------------------------------


def _ring_mean(momenta, rho, phi):
    """The mean of exp(-2 rho cos(k + phi)) over ``momenta``, as ``complex_chain_z`` sums it."""
    return float((np.exp(-2.0 * rho * np.cos(momenta + phi)) / len(momenta)).sum())


def test_momenta_sets():
    # even ring: m in {-L/2+1, ..., L/2}; odd ring: symmetric range
    k4 = [-math.pi / 2, 0.0, math.pi / 2, math.pi]
    k5 = [2 * math.pi * m / 5 for m in (-2, -1, 0, 1, 2)]
    for momenta in (k4, k5):
        for rho, phi in ((0.3, 0.0), (-0.7, 0.4), (1.5, math.pi / 3)):
            expected = _ring_mean(np.array(momenta), rho, phi)
            assert complex_chain_z(len(momenta), rho, phi) == pytest.approx(expected, abs=1e-14)
    with pytest.raises(ValueError):
        complex_chain_z(2, 0.5, 0.0)


def test_momenta_match_the_set_built_per_parity():
    for size in range(3, 257):
        # the reference: the integer set built with one branch per parity of the ring size
        if size % 2 == 0:
            ms = np.arange(-size // 2 + 1, size // 2 + 1)
        else:
            half = (size - 1) // 2
            ms = np.arange(-half, half + 1)
        reference = 2.0 * math.pi * ms / size
        # the same momenta, in the same order, give the same floats bit for bit
        for rho, phi in ((0.7, 0.3), (-1.9, 2.0)):
            assert complex_chain_z(size, rho, phi) == _ring_mean(reference, rho, phi)


def test_ksum_examples():
    assert complex_chain_z(3, 0.0, math.pi) == pytest.approx(1.0, abs=1e-15)
    expected = (math.exp(0.2) + 2 * math.exp(-0.1)) / 3
    assert complex_chain_z(3, 0.1, math.pi) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(OverflowError):
        complex_chain_z(3, float("nan"), math.pi)
    with pytest.raises(OverflowError):
        complex_chain_z(3, 400.0, math.pi)


@settings(max_examples=30, deadline=None)
@given(xi=st.floats(-1, 1, allow_nan=False))
def test_ksum_even_in_xi_for_even_rings(xi):
    for lam in (4, 6):
        assert complex_chain_z(lam, xi, math.pi) == pytest.approx(
            complex_chain_z(lam, -xi, math.pi), abs=1e-12
        )


def test_ksum_matches_series_evaluation():
    for lam in range(3, 13):
        table = expand("chain-nn-finite", 30, lam)
        for xi in (-1.0, -0.4, 0.1, 0.6, 1.0):
            assert abs(complex_chain_z(lam, xi, math.pi) - float(series_value(table, xi))) <= 1e-10


# ---------------------------------------------------------------------------
# complex hopping
# ---------------------------------------------------------------------------


def _fourier_a(lam, rho, d):
    # the alias-free phase grid of appendix_b_report: d + bandwidth + 1
    return complex_fourier_a(lam, rho, [d], d + max(ring_harmonics(lam, rho)) + 1)[0]


def _winding_form(lam, rho, phi):
    return sum(a * math.cos(m * phi) for m, a in ring_harmonics(lam, rho).items())


def test_fourier_selection_rule():
    for lam in (3, 4, 5, 6):
        for d in range(1, 2 * lam + 1):
            if d % lam:
                assert abs(_fourier_a(lam, 0.8, d)) <= 1e-10


def test_appendix_b_report_refuses_a_large_phase_grid_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            appendix_b_report(6, 1.0, d_values=[10**9])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == (
        "a phase grid of over 1000000000 points on a ring of 6 sites is past "
        "the bound of 1e+07 phases times sites"
    )
    assert peak < 2**20


@pytest.mark.parametrize("option", ["tol_match", "tol_selection"])
@pytest.mark.parametrize("value", [0.0, -1e-9, math.nan, math.inf])
def test_appendix_b_report_refuses_non_positive_tolerances(option, value):
    with pytest.raises(ValueError, match=f"^{option} must be finite and positive, got {value}$"):
        appendix_b_report(6, 1.0, **{option: value})


@pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan, 354.95])
def test_appendix_b_report_refuses_an_unbounded_scale_before_any_table(rho, monkeypatch):
    # e^{2|rho|} is no finite float: math.exp raises past 354.89 but returns inf or nan
    def no_table(*args):
        raise AssertionError("a harmonic table was built")

    monkeypatch.setattr(quadrature, "ring_harmonics", no_table)
    with pytest.raises(OverflowError, match="^ring sum is not finite$"):
        appendix_b_report(4, rho)


def test_fourier_trivial_values():
    assert complex_fourier_a(3, 0.0, [0], 1) == pytest.approx([1.0], abs=1e-14)
    assert complex_fourier_a(4, 0.0, [4], 5) == pytest.approx([0.0], abs=1e-14)


def test_fourier_matches_series_on_winding_multiples():
    for lam, d in [(4, 0), (4, 4), (4, 8), (3, 3), (6, 6)]:
        for rho in (0.25, 0.5, 1.0):
            integral = _fourier_a(lam, rho, d)
            reference = (1 if d == 0 else 2) * bessel_i(d, -2 * rho)
            assert integral == pytest.approx(reference, abs=1e-9)
    # far past any fixed truncation: the sum runs until it has converged
    for lam, d in [(6, 0), (6, 6), (3, 12)]:
        for rho in (-50.0, 50.0, 300.0):
            integral = _fourier_a(lam, rho, d)
            reference = (1 if d == 0 else 2) * bessel_i(d, -2 * rho)
            assert integral == pytest.approx(reference, rel=1e-13)


def test_fourier_validation():
    with pytest.raises(ValueError):
        complex_fourier_a(4, 0.5, [0, -1], 256)
    with pytest.raises(ValueError):
        complex_fourier_a(4, 0.5, [0], phi_points=0)
    with pytest.raises(ValueError):
        bessel_i(-2, 0.5)
    with pytest.raises(OverflowError):
        bessel_i(0, 1500.0)


@pytest.mark.parametrize("lam", [3, 4, 7])
@pytest.mark.parametrize("rho", [0.0, 0.5, -3.0, 50.0, -300.0])
def test_ring_harmonics_regroup_the_ring_sum(lam, rho):
    table = ring_harmonics(lam, rho)
    assert table[0] == bessel_i(0, -2 * rho)
    assert all(m % lam == 0 and a == 2 * bessel_i(m, -2 * rho) for m, a in table.items() if m)
    # the first winding past the table is below one ulp of a_0 and past 2|rho|
    bandwidth = max(table)
    assert bandwidth + lam > 2 * abs(rho) and 2 * abs(bessel_i(bandwidth + lam, -2 * rho)) < math.ulp(table[0])
    for phi in (0.0, 0.3, math.pi / 2, 2.0, math.pi):
        residual = abs(complex_chain_z(lam, rho, phi) - _winding_form(lam, rho, phi))
        assert residual <= 1e-14 * math.exp(2 * abs(rho)), phi
    with pytest.raises(ValueError):
        ring_harmonics(2, rho)


def test_bessel_i_known_values():
    assert bessel_i(0, 2.0) == pytest.approx(2.2795853023360673, rel=1e-14)
    assert bessel_i(1, 2.0) == pytest.approx(1.590636854637329, rel=1e-14)
    assert bessel_i(0, 100.0) == pytest.approx(1.0737517071310736e42, rel=1e-14)
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(3, 0.0) == 0.0


@pytest.mark.parametrize("x", [1e-3, 0.7, 2.0, 25.0, 100.0, 700.0])
def test_bessel_i_parity_and_recurrence(x):
    for m in range(0, 40):
        assert bessel_i(m, -x) == (-1) ** m * bessel_i(m, x)
    for m in range(1, 40):
        lhs = bessel_i(m - 1, x) - bessel_i(m + 1, x)
        assert abs(lhs - 2 * m / x * bessel_i(m, x)) <= 1e-13 * bessel_i(m - 1, x), (m, x)


def test_complex_z_reduces_to_real_cases():
    # phase pi flips the sign back to the real-hopping sum
    for lam in (3, 4, 7):
        for rho in (0.2, 0.9):
            real = np.mean(np.exp(2 * rho * np.cos(2 * math.pi * np.arange(lam) / lam)))
            assert complex_chain_z(lam, rho, math.pi) == pytest.approx(real, abs=1e-14)
    # vectorised phase argument
    vals = complex_chain_z(4, 0.5, np.array([0.0, math.pi]))
    assert vals.shape == (2,)
    assert vals[1] == pytest.approx(complex_chain_z(4, 0.5, math.pi), abs=1e-14)


def test_phi_half_identity(capsys):
    # the ring sum at phase pi/2 against its winding form, in which a walk of
    # winding c picks up the phase cos(c N pi/2)
    def residual(lam, rho):
        return abs(complex_chain_z(lam, rho, math.pi / 2) - _winding_form(lam, rho, math.pi / 2))

    assert residual(4, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert residual(4, 0.5) <= 1e-10
    assert residual(6, 1.0) <= 1e-9
    # odd rings too: the CLI's report carries a passing pi/2 record on rings of 3, 5 and 7
    for pbc in ("3", "5", "7"):
        args = build_parser().parse_args(["appendix-b", "--pbc", pbc, "--rho", "0.5", "--phi-half"])
        assert cmd_appendix_b(args) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert [r["pass"] for r in records if r["kind"] == "phi_half"] == [True]
    with pytest.raises(ValueError):
        complex_chain_z(2, 0.5, math.pi / 2)
    with pytest.raises(ValueError):
        ring_harmonics(2, 0.5)


def test_phi_half_against_closed_form():
    # ring of four: sin k takes values {-1, 0, 1, 0}
    for rho in (0.3, 0.7):
        lhs = (2.0 + 2.0 * math.cosh(2 * rho)) / 4.0
        k = np.arange(4) * math.pi / 2
        assert float(np.mean(np.exp(2 * rho * np.sin(k)))) == pytest.approx(lhs, abs=1e-14)
        assert complex_chain_z(4, rho, math.pi / 2) == pytest.approx(lhs, abs=1e-14)
        assert abs(_winding_form(4, rho, math.pi / 2) - lhs) <= 1e-12
