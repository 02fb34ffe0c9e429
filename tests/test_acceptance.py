"""Acceptance gate: every release-blocking check, one test per criterion.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s``
or in failure output) and enforces its runtime budget where one is set.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import series_value
from latticewalks import (
    BUILTIN_NAMES,
    auto_grid_size,
    builtin,
    check_square_conjecture,
    enumerate_walks,
    expand,
    finite_chain_trace,
    moments,
    verify_recurrence,
)
from latticewalks.quadrature import _complex_chain_z, _complex_fourier_a, _ring_harmonics


def _indices(labels, total):
    if labels == 1:
        return [(total,)]
    return [(a, total - a) for a in range(total + 1)]


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {number} ({label}): PASS [{elapsed:.2f}s]")


def test_criterion_1_triangular_expansion():
    with criterion(1, "triangular expansion", budget=1.0):
        table = expand("triangular", 6)
        expected = {
            (0,): Fraction(1),
            (2,): Fraction(3),
            (3,): Fraction(2),
            (4,): Fraction(15, 4),
            (5,): Fraction(3),
            (6,): Fraction(17, 6),
        }
        assert table.coefficients == expected


def test_criterion_2_bcc_expansion_and_square_conjecture():
    with criterion(2, "bcc expansion + square scan to order 30", budget=30.0):
        table = expand("bcc", 12)
        expected = {
            (0,): Fraction(1),
            (2,): Fraction(4),
            (4,): Fraction(9),
            (6,): Fraction(100, 9),
            (8,): Fraction(1225, 144),
            (10,): Fraction(441, 100),
            (12,): Fraction(5929, 3600),
        }
        assert table.coefficients == expected
        records = check_square_conjecture(30)
        assert [r.order for r in records] == list(range(0, 31, 2))
        for record in records:
            assert record.is_square, f"order {record.order} not a rational square"
            assert record.root is not None and record.root**2 == record.value


def test_criterion_3_honeycomb_and_diamond_expansions():
    with criterion(3, "honeycomb expansion", budget=1.0):
        table = expand("honeycomb", 6)
        assert table.coefficients == {
            (0,): Fraction(2),
            (2,): Fraction(3),
            (4,): Fraction(5, 4),
            (6,): Fraction(31, 120),
        }
    with criterion(3, "diamond expansion", budget=1.0):
        table = expand("diamond", 8)
        assert table.coefficients == {
            (0,): Fraction(2),
            (2,): Fraction(4),
            (4,): Fraction(7, 3),
            (6,): Fraction(32, 45),
            (8,): Fraction(97, 720),
        }


def test_criterion_4_infinite_chain_series():
    with criterion(4, "infinite chain coefficients to order 40"):
        table = expand("chain-nn", 40)
        for n in range(41):
            if n % 2:
                assert table.coefficient((n,)) == 0
            else:
                v = n // 2
                assert table.coefficient((n,)) == Fraction(1, math.factorial(v) ** 2)


def test_criterion_5_oracle_equivalence():
    cases = [("chain-nn", None, 12), ("chain-nnn", None, 12)]
    cases += [("chain-nn-finite", lam, 12) for lam in (3, 4, 5)]
    cases += [("triangular", None, 10), ("honeycomb", None, 10)]
    cases += [("bcc", None, 8), ("diamond", None, 8)]
    with criterion(5, "walk-enumeration equivalence at full bounds", budget=60.0):
        for name, pbc, top in cases:
            spec = builtin(name, pbc)
            table = expand(name, top, pbc)
            for n in range(top + 1):
                tally = enumerate_walks(spec, n)
                for index in _indices(spec.hopping_count, n):
                    exact = table.coefficient(index) * math.factorial(n)
                    assert exact.denominator == 1
                    assert exact.numerator == tally.count(index), (name, index)


def test_criterion_6_finite_chain_triple_agreement():
    with criterion(6, "finite chain: combinatorial = trace = k-sum", budget=10.0):
        for lam in range(3, 13):
            table = expand("chain-nn-finite", 30, lam)
            for n in range(13):
                combinatorial = table.coefficient((n,)) * math.factorial(n)
                assert combinatorial.denominator == 1
                assert combinatorial.numerator == finite_chain_trace(lam, n)
            for xi in (-1.0, -0.5, -0.1, 0.0, 0.25, 0.7, 1.0):
                gap = abs(_complex_chain_z(lam, xi, math.pi) - float(series_value(table, xi)))
                assert gap <= 1e-10, (lam, xi, gap)


def test_criterion_7_quadrature_route():
    with criterion(7, "dispersion moments vs exact coefficients", budget=60.0):
        for name in BUILTIN_NAMES:
            pbc = 6 if name == "chain-nn-finite" else None
            spec = builtin(name, pbc)
            table = expand(name, 10, pbc)
            grid = auto_grid_size(spec, 10)
            assert grid <= 64
            values = moments(spec, 10, grid)
            for n in range(11):
                for index in _indices(spec.hopping_count, n):
                    numeric = values[index] / math.prod(map(math.factorial, index))
                    exact = float(table.coefficient(index))
                    if exact:
                        assert abs(numeric - exact) <= 1e-9 * abs(exact), (name, index)
                    else:
                        assert abs(numeric) <= 1e-12, (name, index)


def test_criterion_8_chain_nnn_recurrence():
    with criterion(8, "double-step chain recurrence to total order 12"):
        report = verify_recurrence(12)
        assert report.failed == 0
        assert report.checked == 91


def test_criterion_9_complex_hopping_checks():
    with criterion(9, "Fourier selection rule + phase pi/2 identity"):
        for lam in (4, 6):
            for rho in (0.3, 1.0):
                ds = [d for d in range(1, 2 * lam + 1) if d % lam]
                for d, value in zip(ds, _complex_fourier_a(lam, rho, ds, 256)):
                    assert abs(value) <= 1e-10, (lam, rho, d)
            for rho in (0.25, 0.5, 1.0):
                harmonics = _ring_harmonics(lam, rho)
                winding = sum(a * math.cos(m * math.pi / 2) for m, a in harmonics.items())
                assert abs(_complex_chain_z(lam, rho, math.pi / 2) - winding) <= 1e-9, (lam, rho)
