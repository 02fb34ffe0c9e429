import math

import pytest

from conftest import brute_tally, brute_total
from latticewalks import (
    BUILTIN_NAMES,
    ORACLE_BOUNDS,
    builtin,
    enumerate_walks,
    expand,
    finite_chain_trace,
)
from latticewalks.oracle import closed_walks


def make(name, pbc=None):
    return builtin(name, pbc)


def series_counts(table, n):
    """n! times every nonzero order-n coefficient: the walk counts the series predicts."""
    return {
        index: coeff * math.factorial(n)
        for index, coeff in table.coefficients.items()
        if sum(index) == n and coeff
    }


def test_chain_length_two():
    tally = enumerate_walks(make("chain-nn"), 2)
    assert dict(tally.counts) == {(2,): 2}


def test_triangular_total_matches_printed_cubic_term():
    tally = enumerate_walks(make("triangular"), 3)
    assert tally.total == 12  # 2 * 3!


def test_honeycomb_total_matches_printed_quadratic_term():
    tally = enumerate_walks(make("honeycomb"), 2)
    assert tally.total == 6  # 3 * 2!


def test_zero_length_walks():
    assert enumerate_walks(make("chain-nn"), 0).counts == {(0,): 1}
    assert enumerate_walks(make("honeycomb"), 0).counts == {(0,): 2}


@pytest.mark.parametrize("name", ["chain-nn", "chain-nnn", "triangular", "bcc", "honeycomb", "diamond"])
def test_matches_brute_force(name):
    spec = make(name)
    top = {"chain-nn": 6, "chain-nnn": 6, "triangular": 5, "bcc": 4, "honeycomb": 6, "diamond": 6}
    for n in range(top[name] + 1):
        assert dict(enumerate_walks(spec, n).counts) == brute_tally(name, n)


def test_ring_matches_brute_force():
    for lam in (3, 4, 5):
        spec = make("chain-nn-finite", lam)
        for n in range(7):
            assert dict(enumerate_walks(spec, n).counts) == brute_tally("chain-nn", n, ring=lam)


def test_ring_reduces_to_infinite_chain_when_large():
    free = make("chain-nn")
    for lam in (7, 9, 12):
        ring = make("chain-nn-finite", lam)
        for n in range(lam):
            assert enumerate_walks(ring, n).counts == enumerate_walks(free, n).counts


def test_ring_tallies_straddle_the_wrapping_length():
    # a walk of L unit steps wraps a ring of N sites only if L >= N; the
    # oracle's side is L + 1 below that and N from L = N - 1 on
    for lam in range(3, 9):
        for top in range(lam - 2, lam + 2):
            tallies = closed_walks(make("chain-nn-finite", lam), top)
            assert [t.total for t in tallies] == [
                brute_total("chain-nn", n, ring=lam) for n in range(top + 1)
            ]


def test_huge_ring_costs_no_more_than_the_chain():
    free = closed_walks(make("chain-nn"), 12)
    ring = closed_walks(make("chain-nn-finite", 10**12), 12)
    assert [t.counts for t in ring] == [t.counts for t in free]


def test_bipartite_counts_even():
    for name in ("honeycomb", "diamond"):
        spec = make(name)
        for n in range(0, 7, 2):
            tally = enumerate_walks(spec, n)
            assert tally.sublattice_doubled
            assert all(v % 2 == 0 for v in tally.counts.values())
            assert all(n % 2 == 0 for (n,) in tally.counts)
    assert not enumerate_walks(make("bcc"), 2).sublattice_doubled


def test_total_equals_merged_label_count():
    spec = make("chain-nnn")
    table = expand("chain-nnn", 8)
    for n in range(9):
        tally = enumerate_walks(spec, n)
        merged = sum(c for idx, c in table.coefficients.items() if sum(idx) == n)
        assert tally.total == merged * math.factorial(n)


def test_bounds_guard():
    assert ORACLE_BOUNDS == {1: 12, 2: 10, 3: 8}
    with pytest.raises(ValueError):
        enumerate_walks(make("bcc"), 9)
    with pytest.raises(ValueError):
        enumerate_walks(make("chain-nn"), -1)
    # the cap is a guard, not a hard limit
    assert enumerate_walks(make("bcc"), 10, bound=10).total > 0
    with pytest.raises(ValueError):
        enumerate_walks(make("chain-nn"), 13)


def test_counts_exact_past_int64():
    # both counts exceed 2**63, so a fixed-width integer array would wrap
    assert enumerate_walks(make("chain-nn"), 70, bound=70).count((70,)) == math.comb(70, 35)
    assert enumerate_walks(make("bcc"), 24, bound=24).count((24,)) == math.comb(24, 12) ** 3
    assert math.comb(70, 35) > 2**63 and math.comb(24, 12) ** 3 > 2**63


# (lattice, moves per step z, length): each pair sits just under and just
# over z**n = 2**63, where the stencil switches from int64 to Python ints
@pytest.mark.parametrize(
    "name, z, n",
    [
        ("chain-nn", 2, 62), ("chain-nn", 2, 64),
        ("bcc", 8, 20), ("bcc", 8, 22),
        ("honeycomb", 3, 38), ("honeycomb", 3, 40),
        ("chain-nnn", 4, 30), ("chain-nnn", 4, 32),
    ],
)  # fmt: skip
def test_counts_exact_on_both_sides_of_int64(name, z, n):
    assert (z**n < 2**63) == (n in (62, 20, 38, 30))
    table = expand(name, n)
    for tally in closed_walks(make(name), n):
        assert tally.counts == series_counts(table, tally.length)
        assert all(type(count) is int for count in tally.counts.values())


@pytest.mark.parametrize(
    "name, pbc",
    [(name, None) for name in BUILTIN_NAMES if name != "chain-nn-finite"]
    + [("chain-nn-finite", lam) for lam in (3, 6, 7)],
)
def test_one_pass_gives_every_length(name, pbc):
    spec = make(name, pbc)
    top = ORACLE_BOUNDS[spec.dimension]
    tallies = closed_walks(spec, top)
    assert [t.length for t in tallies] == list(range(top + 1))
    table = expand(name, top, pbc)
    for n, tally in enumerate(tallies):
        assert tally.counts == series_counts(table, n)
        assert tally == enumerate_walks(spec, n)
    with pytest.raises(ValueError, match="walk length must be >= 0"):
        closed_walks(spec, -1)


def test_finite_chain_trace_examples():
    assert finite_chain_trace(4, 2) == 2
    assert finite_chain_trace(3, 3) == 2
    assert finite_chain_trace(6, 6) == 22
    assert finite_chain_trace(5, 0) == 1
    with pytest.raises(ValueError):
        finite_chain_trace(2, 4)
    with pytest.raises(ValueError):
        finite_chain_trace(5, -1)


def test_trace_agrees_with_series_and_dp():
    for lam in range(3, 13):
        table = expand("chain-nn-finite", 12, lam)
        spec = make("chain-nn-finite", lam)
        for n in range(13):
            per_site = finite_chain_trace(lam, n)
            assert per_site == table.coefficient((n,)) * math.factorial(n)
            assert per_site == enumerate_walks(spec, n).total


def test_trace_exact_on_both_sides_of_int64():
    # a cell of the ring's stencil is at most the 2**n walks of its length,
    # so the trace switches to Python ints at n = 63
    for lam in range(3, 10):
        table = expand("chain-nn-finite", 70, lam)
        for n in range(71):
            assert finite_chain_trace(lam, n) == table.coefficient((n,)) * math.factorial(n)
    # the one-site count fits int64 here, but the trace it stands for,
    # 64 * C(62, 31) over all 64 sites, does not
    assert finite_chain_trace(64, 62) == math.comb(62, 31)
    assert 64 * math.comb(62, 31) > 2**63


def test_tally_json_document():
    tally = enumerate_walks(make("chain-nnn"), 4)
    doc = tally.to_json_dict()
    assert doc["lattice"] == "chain-nnn"
    assert doc["length"] == 4
    assert int(doc["total"]) == tally.total
    indices = [tuple(e["index"]) for e in doc["counts"]]
    assert indices == sorted(indices)
