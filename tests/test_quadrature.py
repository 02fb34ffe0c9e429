import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewalks import (
    BUILTIN_NAMES,
    auto_grid_size,
    builtin,
    chain_finite,
    complex_chain_z,
    complex_fourier_a,
    expand,
    finite_chain_ksum,
    finite_chain_momenta,
    fourier_a_series,
    moment,
    phi_half_identity_check,
)
from latticewalks.quadrature import _cos_table


def make(name, pbc=None):
    return builtin(name, pbc)


# ---------------------------------------------------------------------------
# dispersion moments
# ---------------------------------------------------------------------------


def test_moment_examples():
    assert moment(make("chain-nn"), (2,), 3).value == pytest.approx(2.0, rel=1e-12)
    for n in (4, 7, 9):
        assert moment(make("triangular"), (3,), n).value == pytest.approx(12.0, rel=1e-12)
    assert moment(make("bcc"), (2,), 3).value == pytest.approx(8.0, rel=1e-12)


def test_moment_zero_order():
    res = moment(make("chain-nn"), (0,), 1)
    assert res.value == 1.0
    assert res.estimated_exact


def test_moment_validation():
    spec = make("chain-nnn")
    with pytest.raises(ValueError):
        moment(spec, (2,), 5)
    with pytest.raises(ValueError):
        moment(spec, (2, -1), 5)
    with pytest.raises(ValueError):
        moment(spec, (2, 0), 0)


def test_two_band_examples():
    assert moment(make("honeycomb"), (2,), 2).value == pytest.approx(6.0)
    assert moment(make("diamond"), (2,), 2).value == pytest.approx(8.0)
    for name in ("honeycomb", "diamond"):
        assert moment(make(name), (0,), 1).value == 2.0  # both subbands count the empty walk
        assert moment(make(name), (5,), 4).value == 0.0


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# exact cosine at a turn of k/12, for every k where the value is rational
_RATIONAL_COS = {0: 1.0, 2: 0.5, 3: 0.0, 4: -0.5, 6: -1.0, 8: -0.5, 9: 0.0, 10: 0.5}


def test_cos_table_exact_symmetries():
    for n in range(1, 257):
        table = _cos_table(n)
        m = np.arange(n)
        assert np.allclose(table, np.cos(2.0 * np.pi * m / n), rtol=0.0, atol=2e-15)
        assert np.array_equal(_bits(table), _bits(table[(n - m) % n]))
        if n % 2 == 0:
            # float equality: bit-for-bit apart from the sign of the two zeros
            assert np.array_equal(table[(m + n // 2) % n], -table)
        for k, value in _RATIONAL_COS.items():
            if k * n % 12 == 0:
                assert _bits(table[k * n // 12]) == _bits(value), (n, k)


def test_refinement_stability():
    # alias-free grids: doubling the bandwidth-sized grid changes nothing
    for name in ("chain-nn", "chain-nn-finite", "chain-nnn", "triangular", "bcc"):
        spec = make(name, 6 if name == "chain-nn-finite" else None)
        for total in (2, 3, 4):
            for index in _indices(spec.hopping_count, total):
                base = sum(
                    m * spec.dispersion_terms[lab].bandwidth for lab, m in enumerate(index)
                ) + 1
                coarse = moment(spec, index, base).value
                fine = moment(spec, index, 2 * base).value
                assert fine == pytest.approx(coarse, rel=1e-12, abs=1e-12)


def _indices(labels, total):
    if labels == 1:
        return [(total,)]
    return [(a, total - a) for a in range(total + 1)]


def test_moments_match_exact_coefficients():
    for name in BUILTIN_NAMES:
        pbc = 5 if name == "chain-nn-finite" else None
        spec = make(name, pbc)
        table = expand(name, 8, pbc)
        for total in range(9):
            for index in _indices(spec.hopping_count, total):
                grid = auto_grid_size(spec, index)
                res = moment(spec, index, grid)
                assert res.estimated_exact
                if spec.basis_size == 2:
                    approx = res.value / math.factorial(total)
                else:
                    scale = 1
                    for m in index:
                        scale *= math.factorial(m)
                    approx = res.value / scale
                exact = float(table.coefficient(index))
                if exact:
                    assert approx == pytest.approx(exact, rel=1e-9)
                else:
                    assert abs(approx) <= 1e-12


def test_odd_moments_vanish_where_series_says_so():
    for name in ("chain-nn", "bcc"):
        spec = make(name)
        for n in (1, 3, 5):
            res = moment(spec, (n,), auto_grid_size(spec, (n,)))
            assert abs(res.value) <= 1e-12
    # but not on the triangular lattice, whose odd orders count real walks
    tri = make("triangular")
    assert moment(tri, (3,), auto_grid_size(tri, (3,))).value == pytest.approx(12.0)


def test_estimated_exact_flag():
    tri = make("triangular")
    assert moment(tri, (4,), 5).estimated_exact
    assert not moment(tri, (4,), 4).estimated_exact
    nnn = make("chain-nnn")
    # involved bandwidths decide the bound: (4,0) needs 5 points, (0,2) needs 5
    assert moment(nnn, (4, 0), 5).estimated_exact
    assert moment(nnn, (0, 2), 5).estimated_exact
    assert not moment(nnn, (0, 2), 4).estimated_exact
    # mixed indices follow auto_grid_size: (2,2) needs 2*2*2+1 points
    assert moment(nnn, (2, 2), 9).estimated_exact
    assert not moment(nnn, (2, 2), 8).estimated_exact
    ring = make("chain-nn-finite", 5)
    assert moment(ring, (6,), 5).estimated_exact
    assert not moment(ring, (6,), 7).estimated_exact  # only the ring's own grid counts


def test_auto_grid_policy():
    assert auto_grid_size(make("chain-nn"), (6,)) == 7
    assert auto_grid_size(make("chain-nnn"), (2, 2)) == 9  # max involved bandwidth 2
    assert auto_grid_size(make("chain-nnn"), (4, 0)) == 5
    assert auto_grid_size(make("chain-nn-finite", 7), (6,)) == 7
    assert auto_grid_size(make("honeycomb"), (8,)) == 5
    assert auto_grid_size(make("diamond"), (0,)) == 1


def test_ring_grid_reproduces_winding_counts():
    # on the ring's own grid the aliased mean equals the winding tally
    for lam in (3, 4, 6):
        spec = make("chain-nn-finite", lam)
        table = chain_finite(lam, 8)
        for n in range(9):
            res = moment(spec, (n,), lam)
            expected = float(table.coefficient((n,)) * math.factorial(n))
            assert res.value == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# discrete ring sums
# ---------------------------------------------------------------------------


def test_momenta_sets():
    # even ring: m in {-L/2+1, ..., L/2}; odd ring: symmetric range
    k4 = finite_chain_momenta(4)
    assert np.allclose(sorted(k4), [-math.pi / 2, 0.0, math.pi / 2, math.pi])
    k5 = finite_chain_momenta(5)
    assert np.allclose(sorted(k5), [2 * math.pi * m / 5 for m in (-2, -1, 0, 1, 2)])
    with pytest.raises(ValueError):
        finite_chain_momenta(2)


def test_ksum_examples():
    assert finite_chain_ksum(3, 0.0) == pytest.approx(1.0, abs=1e-15)
    expected = (math.exp(0.2) + 2 * math.exp(-0.1)) / 3
    assert finite_chain_ksum(3, 0.1) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        finite_chain_ksum(3, float("nan"))
    with pytest.raises(OverflowError):
        finite_chain_ksum(3, 400.0)


@settings(max_examples=30, deadline=None)
@given(xi=st.floats(-1, 1, allow_nan=False))
def test_ksum_even_in_xi_for_even_rings(xi):
    for lam in (4, 6):
        assert finite_chain_ksum(lam, xi) == pytest.approx(finite_chain_ksum(lam, -xi), abs=1e-12)


def test_ksum_matches_series_evaluation():
    for lam in range(3, 13):
        table = chain_finite(lam, 30)
        for xi in (-1.0, -0.4, 0.1, 0.6, 1.0):
            assert abs(finite_chain_ksum(lam, xi) - float(table.evaluate(xi))) <= 1e-10


# ---------------------------------------------------------------------------
# complex hopping
# ---------------------------------------------------------------------------


def test_fourier_selection_rule():
    for lam in (3, 4, 5, 6):
        for d in range(1, 2 * lam + 1):
            if d % lam:
                assert abs(complex_fourier_a(lam, 0.8, d)) <= 1e-10


def test_fourier_trivial_values():
    assert complex_fourier_a(3, 0.0, 0) == pytest.approx(1.0, abs=1e-14)
    assert complex_fourier_a(4, 0.0, 4) == pytest.approx(0.0, abs=1e-14)


def test_fourier_matches_series_on_winding_multiples():
    for lam, d in [(4, 0), (4, 4), (4, 8), (3, 3), (6, 6)]:
        for rho in (0.25, 0.5, 1.0):
            integral = complex_fourier_a(lam, rho, d)
            tail = fourier_a_series(rho, d, 30)
            assert integral == pytest.approx(tail, abs=1e-9)


def test_fourier_validation():
    with pytest.raises(ValueError):
        complex_fourier_a(4, 0.5, -1)
    with pytest.raises(ValueError):
        complex_fourier_a(4, 0.5, 0, phi_points=0)
    with pytest.raises(ValueError):
        fourier_a_series(0.5, -2)


def test_complex_z_reduces_to_real_cases():
    # phase pi flips the sign back to the real-hopping sum
    for lam in (3, 4, 7):
        for rho in (0.2, 0.9):
            assert complex_chain_z(lam, rho, math.pi) == pytest.approx(
                finite_chain_ksum(lam, rho), abs=1e-14
            )
    # vectorised phase argument
    vals = complex_chain_z(4, 0.5, np.array([0.0, math.pi]))
    assert vals.shape == (2,)
    assert vals[1] == pytest.approx(finite_chain_ksum(4, 0.5), abs=1e-14)


def test_phi_half_identity():
    assert phi_half_identity_check(4, 0.0, 5) == pytest.approx(0.0, abs=1e-15)
    assert phi_half_identity_check(4, 0.5, 20) <= 1e-10
    assert phi_half_identity_check(6, 1.0, 25) <= 1e-9
    with pytest.raises(ValueError):
        phi_half_identity_check(5, 0.5)
    with pytest.raises(ValueError):
        phi_half_identity_check(2, 0.5)


def test_phi_half_against_closed_form():
    # ring of four: sin k takes values {-1, 0, 1, 0}
    for rho in (0.3, 0.7):
        lhs = (2.0 + 2.0 * math.cosh(2 * rho)) / 4.0
        k = finite_chain_momenta(4)
        assert float(np.mean(np.exp(2 * rho * np.sin(k)))) == pytest.approx(lhs, abs=1e-14)
        assert phi_half_identity_check(4, rho, 25) <= 1e-12
