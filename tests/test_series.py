import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CLOSED_FORMS,
    brute_tally,
    brute_total,
    nnn_reference_counts,
    ring_walk_counts,
)
from latticewalks import (
    BUILTIN_NAMES,
    builtin,
    enumerate_walks,
    expand,
    finite_chain_trace,
    series,
)
from latticewalks.oracle import closed_walks


# ---------------------------------------------------------------------------
# infinite chain
# ---------------------------------------------------------------------------


def test_chain_infinite_small_orders():
    s = expand("chain-nn", 6)
    assert s.coefficient((0,)) == 1
    assert s.coefficient((1,)) == 0
    assert s.coefficient((2,)) == 1
    # order 4: six closed walks (frozen from the brute enumeration)
    assert brute_total("chain-nn", 4) == 6
    assert s.coefficient((4,)) == Fraction(6, 24) == Fraction(1, 4)


def test_chain_infinite_is_squared_factorial_series():
    s = expand("chain-nn", 40)
    for v in range(21):
        assert s.coefficient((2 * v,)) == Fraction(1, math.factorial(v) ** 2)
        if 2 * v + 1 <= 40:
            assert s.coefficient((2 * v + 1,)) == 0


def test_chain_infinite_validates():
    with pytest.raises(ValueError, match="^max_order must be >= 0$"):
        expand("chain-nn", -1)


# ---------------------------------------------------------------------------
# finite ring
# ---------------------------------------------------------------------------


def test_chain_finite_examples():
    # ring of three: the two orientations of the 3-cycle (brute-frozen)
    assert brute_total("chain-nn", 3, ring=3) == 2
    assert expand("chain-nn-finite", 6, 3).coefficient((3,)) == Fraction(1, 3)
    # even rings have even-only series
    assert expand("chain-nn-finite", 6, 4).coefficient((3,)) == 0
    # ring of six at order six: 20 non-winding plus 2 winding walks
    assert brute_total("chain-nn", 6, ring=6) == 22
    ring = expand("chain-nn-finite", 6, 6)
    assert ring.coefficient((6,)) == Fraction(22, 720) == Fraction(11, 360)


def test_chain_finite_matches_infinite_below_ring_size():
    inf = expand("chain-nn", 12)
    for lam in range(3, 13):
        fin = expand("chain-nn-finite", 12, lam)
        for n in range(lam):
            assert fin.coefficient((n,)) == inf.coefficient((n,))
        # at order lam the single-winding walks enter and the two diverge
        assert fin.coefficient((lam,)) != inf.coefficient((lam,))


def test_chain_finite_even_ring_parity():
    for lam in (4, 6, 8):
        s = expand("chain-nn-finite", 11, lam)
        for n in range(1, 12, 2):
            assert s.coefficient((n,)) == 0


def test_ring_matches_the_pascal_row_winding_sum():
    # one binomial per winding, stepped two orders at a time, against every binomial of
    # every row: below, at and past the first winding, and past the third, in key order
    for ring in range(3, 41):
        full = list(ring_walk_counts(ring, 3 * ring + 5).items())
        for order in (0, ring - 1, ring, ring + 1, 3 * ring + 5):
            want = [(index, walks) for index, walks in full if index[0] <= order]
            got = expand("chain-nn-finite", order, ring).counts
            assert list(got.items()) == want, (ring, order)
    assert expand("chain-nn-finite", 2000, 500).counts == ring_walk_counts(500, 2000)


@settings(max_examples=40, deadline=None)
@given(ring=st.integers(3, 64))
def test_ring_matches_the_oracle_to_three_windings(ring):
    table = expand("chain-nn-finite", 3 * ring, ring)
    for tally in closed_walks(builtin("chain-nn-finite", ring), 3 * ring):
        assert table.counts.get((tally.length,), 0) == tally.total, tally.length


def test_long_ring_matches_the_trace():
    # 4000 steps on 1000 sites: windings up to four, binomials of about 4000 bits
    table = expand("chain-nn-finite", 4000, 1000)
    assert table.counts[(4000,)] == finite_chain_trace(1000, 4000)


def test_chain_finite_rejects_degenerate_rings():
    for lam in (-1, 0, 1, 2):
        with pytest.raises(ValueError):
            expand("chain-nn-finite", 4, lam)


# ---------------------------------------------------------------------------
# chain with double steps
# ---------------------------------------------------------------------------


def test_nnn_examples_against_brute_force():
    s = expand("chain-nnn", 6)
    assert s.coefficient((0, 0)) == 1
    # three-step walks mixing one double step (brute-frozen: 6 of them)
    assert brute_tally("chain-nnn", 3).get((2, 1)) == 6
    assert s.coefficient((2, 1)) == 1
    # a +2 and a -2 step in either order
    assert brute_tally("chain-nnn", 2).get((0, 2)) == 2
    assert s.coefficient((0, 2)) == 1
    assert s.coefficient((0, 3)) == 0


def test_nnn_parity_constraints():
    s = expand("chain-nnn", 9)
    for (n1, n2), coeff in s.coefficients.items():
        assert n1 % 2 == 0
        assert coeff > 0
    assert s.coefficient((1, 0)) == 0
    assert s.coefficient((3, 2)) == 0
    assert s.coefficient((0, 5)) == 0  # no unit steps means even double-step count


def _nnn_closed_form(n1, n2):
    # the full binomial sum over the double steps' net displacement d2
    if n1 % 2:
        return 0
    cap = min(n1 // 2, n2)
    inner = sum(
        math.comb(n1, (n1 - 2 * d2) // 2) * math.comb(n2, (n2 - d2) // 2)
        for d2 in range(-cap, cap + 1)
        if (n2 - d2) % 2 == 0
    )
    return math.comb(n1 + n2, n1) * inner


def test_nnn_counts_match_full_binomial_sum():
    # the series halves the even sum and reads each binomial off Pascal
    # rows built by additions; the full closed form is the reference
    s = expand("chain-nnn", 120)
    for n1 in range(121):
        for n2 in range(121 - n1):
            assert s.walk_count((n1, n2)) == _nnn_closed_form(n1, n2), (n1, n2)
    # the whole order-400 anti-diagonal, from the top rows of the held triangle
    s = expand("chain-nnn", 400)
    for n1 in range(401):
        assert s.walk_count((n1, 400 - n1)) == _nnn_closed_form(n1, 400 - n1), n1


@pytest.mark.parametrize("order", [*range(9), 60])
def test_nnn_counts_match_the_per_displacement_sum(order):
    # one strided dot product per cell, doubled with d = 0 taken off once, against one
    # generator per cell: every count and the key order; orders 0-3 meet the empty odd
    # fronts of n1 = 0
    assert list(expand("chain-nnn", order).counts.items()) == list(
        nnn_reference_counts(order).items()
    )


def test_nnn_full_table_against_brute_force():
    s = expand("chain-nnn", 6)
    for n in range(7):
        tally = brute_tally("chain-nnn", n)
        for n1 in range(n + 1):
            n2 = n - n1
            expected = tally.get((n1, n2), 0)
            assert s.coefficient((n1, n2)) * math.factorial(n) == expected


# ---------------------------------------------------------------------------
# triangular / bcc
# ---------------------------------------------------------------------------


def test_triangular_printed_expansion():
    s = expand("triangular", 6)
    expected = {0: 1, 2: 3, 3: 2, 4: Fraction(15, 4), 5: 3, 6: Fraction(17, 6)}
    for n in range(7):
        assert s.coefficient((n,)) == expected.get(n, 0)


def test_triangular_against_brute_force():
    s = expand("triangular", 5)
    for n in range(6):
        assert s.coefficient((n,)) * math.factorial(n) == brute_total("triangular", n)


def test_bcc_printed_expansion():
    s = expand("bcc", 12)
    expected = {
        0: 1,
        2: 4,
        4: 9,
        6: Fraction(100, 9),
        8: Fraction(1225, 144),
        10: Fraction(441, 100),
        12: Fraction(5929, 3600),
    }
    for n in range(13):
        assert s.coefficient((n,)) == expected.get(n, 0)


def test_bcc_against_brute_force():
    s = expand("bcc", 4)
    for n in range(5):
        assert s.coefficient((n,)) * math.factorial(n) == brute_total("bcc", n)


# ---------------------------------------------------------------------------
# honeycomb / diamond
# ---------------------------------------------------------------------------


def test_honeycomb_printed_expansion():
    s = expand("honeycomb", 6)
    expected = {0: 2, 2: 3, 4: Fraction(5, 4), 6: Fraction(31, 120)}
    for n in range(7):
        assert s.coefficient((n,)) == expected.get(n, 0)


def test_diamond_printed_expansion():
    s = expand("diamond", 8)
    expected = {0: 2, 2: 4, 4: Fraction(7, 3), 6: Fraction(32, 45), 8: Fraction(97, 720)}
    for n in range(9):
        assert s.coefficient((n,)) == expected.get(n, 0)


@pytest.mark.parametrize("name", ["honeycomb", "diamond"], ids="{0}-{0}".format)
def test_bipartite_against_brute_force(name):
    s = expand(name, 6)
    for n in range(7):
        assert s.coefficient((n,)) * math.factorial(n) == brute_total(name, n)


def test_bipartite_counts_are_even_integers():
    for name in ("honeycomb", "diamond"):
        s = expand(name, 10)
        for n in range(0, 11, 2):
            count = s.coefficient((n,)) * math.factorial(n)
            assert count.denominator == 1
            assert count.numerator % 2 == 0


# ---------------------------------------------------------------------------
# recurrences against the closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_recurrence_matches_closed_form_to_order_300(name):
    s = expand(name, 300)
    for n in range(301):
        assert s.walk_count((n,)) == CLOSED_FORMS[name](n), n


@pytest.mark.parametrize("name", ["honeycomb", "diamond"])
def test_two_site_recurrence_matches_closed_form_at_order_400(name):
    assert expand(name, 400).walk_count((400,)) == CLOSED_FORMS[name](400)


def test_wrong_recurrence_fails_loudly(monkeypatch):
    # Domb's recurrence with 63 in place of 64 leaves a remainder at p = 2
    def wrong(p):
        return p**3, 2 * (2 * p - 1) * (5 * p**2 - 5 * p + 2), -63 * (p - 1) ** 3

    monkeypatch.setitem(series._RECURRENCES, "diamond", (2, 2, (1, 4), wrong))
    assert expand("diamond", 2).walk_count((2,)) == 8
    with pytest.raises(ArithmeticError, match="diamond recurrence"):
        expand("diamond", 4)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_truncation_and_negative_order(name):
    ring = 6 if name == "chain-nn-finite" else None
    full = expand(name, 60, ring).counts
    for n in range(10):
        low = {index: c for index, c in full.items() if sum(index) <= n}
        assert expand(name, n, ring).counts == low, n
    with pytest.raises(ValueError):
        expand(name, -1, ring)


# ---------------------------------------------------------------------------
# shared properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,n",
    [
        ("bcc", 12),
        ("triangular", 14),
        ("diamond", 16),
        ("honeycomb", 20),
        ("chain-nnn", 30),
        ("diamond", 30),
        ("honeycomb", 38),
    ],
)
def test_closed_forms_match_oracle_at_higher_order(name, n):
    # the oracle's stencil shares nothing with the recurrences or the sums
    tally = enumerate_walks(builtin(name), n, bound=n)
    table = expand(name, n)
    expected = {index: table.walk_count(index) for index in table.counts if sum(index) == n}
    assert {index: tally.count(index) for index in expected} == expected
    assert tally.total == sum(expected.values())


def test_constant_terms():
    assert expand("chain-nn", 0).coefficient((0,)) == 1
    assert expand("triangular", 0).coefficient((0,)) == 1
    assert expand("bcc", 0).coefficient((0,)) == 1
    assert expand("honeycomb", 0).coefficient((0,)) == 2
    assert expand("diamond", 0).coefficient((0,)) == 2
    assert expand("chain-nnn", 0).coefficient((0, 0)) == 1


def test_all_coefficients_nonnegative():
    tables = [
        expand("chain-nn", 12),
        expand("chain-nn-finite", 12, 5),
        expand("chain-nnn", 10),
        expand("triangular", 10),
        expand("bcc", 12),
        expand("honeycomb", 10),
        expand("diamond", 10),
    ]
    for table in tables:
        for coeff in table.coefficients.values():
            assert coeff >= 0


def test_parity_vanishing():
    for name in ("chain-nn", "bcc", "honeycomb", "diamond"):
        table = expand(name, 11)
        for n in range(1, 12, 2):
            assert table.coefficient((n,)) == 0


def test_walk_count_accessor():
    s = expand("triangular", 6)
    assert s.walk_count((6,)) == 2040
    assert s.walk_count((1,)) == 0
    # chain-nnn's counts are indexed by both labels' step counts
    with pytest.raises(ValueError, match="^index arity 1 != 2$"):
        expand("chain-nnn", 4).walk_count((4,))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_coefficients_derive_from_walk_counts(name):
    s = expand(name, 60, 6 if name == "chain-nn-finite" else None)
    assert s.coefficients.keys() == s.counts.keys()
    for index in s.counts:
        assert s.walk_count(index) == s.coefficient(index) * math.factorial(sum(index))
        assert isinstance(s.walk_count(index), int)


def test_expand_dispatch():
    assert expand("chain-nn", 4).lattice == "chain-nn"
    assert expand("chain-nn-finite", 4, 5).pbc_size == 5
    assert expand("diamond", 4).coefficient((2,)) == 4
    with pytest.raises(ValueError):
        expand("chain-nn-finite", 4)
    with pytest.raises(ValueError):
        expand("fcc", 4)
    # a ring size on the infinite chain is refused, as builtin refuses it
    with pytest.raises(ValueError, match="^pbc_size is only meaningful for chain-nn-finite"):
        expand("chain-nn", 10, 4)


# ---------------------------------------------------------------------------
# Series container
# ---------------------------------------------------------------------------


def test_series_json_round_trip():
    for table in (expand("chain-nn-finite", 8, 4), expand("chain-nnn", 5), expand("diamond", 6)):
        doc = table.to_json_dict()
        assert (doc["lattice"], doc["max_order"], doc.get("pbc_size")) == (
            table.lattice,
            table.max_order,
            table.pbc_size,
        )
        for entry in doc["coefficients"]:
            assert entry["num"].isdecimal() and entry["den"].isdecimal()
        rebuilt = {
            tuple(entry["index"]): Fraction(int(entry["num"]), int(entry["den"]))
            for entry in doc["coefficients"]
        }
        assert rebuilt == dict(table.coefficients)
