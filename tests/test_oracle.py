import math
from collections import Counter

import pytest
from hypothesis import given, settings

from conftest import brute_tally, brute_total, generated_specs, two_sublattice_specs
from latticewalks import BUILTIN_NAMES, builtin, enumerate_walks, expand, finite_chain_trace
from latticewalks.lattices import MAX_HOPPING_LABELS
from latticewalks.oracle import ORACLE_BOUNDS, closed_walks


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
    # a walk of L unit steps winds a ring of N sites only if L >= N; below
    # that the oracle stores the 2*ceil(L/2) + 1 cells that half a walk
    # reaches, and from L = N on it wraps them at N cells
    for lam in range(3, 9):
        for top in range(lam - 2, lam + 2):
            tallies = closed_walks(make("chain-nn-finite", lam), top)
            assert [t.total for t in tallies] == [
                brute_total("chain-nn", n, ring=lam) for n in range(top + 1)
            ]


def test_tori_narrower_than_the_box_wrap_without_winding():
    # each torus is wider than L steps reach, so no walk winds it, but narrower
    # than the box of ceil(L/2) steps, so the oracle wraps it: the counts of
    # the torus are those of the unwrapped lattice
    for top in (3, 5, 7, 9):
        ring = closed_walks(make("chain-nn-finite", top + 1), top)
        assert [t.counts for t in ring] == [t.counts for t in closed_walks(make("chain-nn"), top)]
    for name, cells, top in [("bcc", 6, 5), ("chain-nnn", 7, 3), ("chain-nnn", 11, 5)]:
        spec = make(name)
        torus = closed_walks(spec._replace(pbc_size=cells), top)
        assert [t.counts for t in torus] == [t.counts for t in closed_walks(spec, top)]


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
# over z**n = 2**63, where the stencil switches from int64 to Python ints;
# the ring, of 64 sites, is the longest walk the benchmark's trace asks for
@pytest.mark.parametrize(
    "name, z, n",
    [
        ("chain-nn", 2, 62), ("chain-nn", 2, 64),
        ("bcc", 8, 20), ("bcc", 8, 22),
        ("honeycomb", 3, 38), ("honeycomb", 3, 40),
        ("chain-nnn", 4, 30), ("chain-nnn", 4, 32),
        ("triangular", 6, 24), ("triangular", 6, 25),
        ("diamond", 4, 31), ("diamond", 4, 32),
        ("chain-nn-finite", 2, 170),
        ("bcc", 8, 21), ("chain-nnn", 4, 31),
    ],
)  # fmt: skip
def test_counts_exact_on_both_sides_of_int64(name, z, n):
    # 8**21 == 2**63 is the first length of Python-int cells on bcc
    assert (z**n < 2**63) == (n in (62, 20, 38, 30, 24, 31))
    pbc = 64 if name == "chain-nn-finite" else None
    table = expand(name, n, pbc)
    tallies = closed_walks(make(name, pbc), n)
    for tally in tallies:
        assert tally.counts == series_counts(table, tally.length)
        assert all(type(count) is int for count in tally.counts.values())
    # the one-length call stops the stencil at ceil(n/2) on the same cells
    assert enumerate_walks(make(name, pbc), n, bound=n) == tallies[-1]


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


@pytest.mark.parametrize(
    "name, pbc",
    [(name, None) for name in BUILTIN_NAMES if name != "chain-nn-finite"]
    + [("chain-nn-finite", 3)],
)
def test_one_length_calls_at_lengths_zero_and_one(name, pbc):
    # length 0 takes no step of the stencil and length 1 one step; on a torus
    # of one cell every walk of one sublattice closes
    for spec in (make(name, pbc), make(name, pbc)._replace(pbc_size=1)):
        for n in (0, 1):
            assert enumerate_walks(spec, n, bound=n) == closed_walks(spec, n)[n]
            assert enumerate_walks(spec, n, bound=n) == closed_walks(spec, 1)[n]
        assert enumerate_walks(spec, 0).total == spec.basis_size
        one_cell = spec.pbc_size == 1 and spec.basis_size == 1
        assert enumerate_walks(spec, 1).total == one_cell * len(spec.steps)


@settings(max_examples=60, deadline=None)
@given(spec=generated_specs())
def test_one_length_calls_match_every_length(spec):
    # tori of 1 to 7 cells and two labels: each one-length call runs its own
    # stencil to ceil(n/2) and must give the tally of the whole run
    top = {1: 16, 2: 10, 3: 6}[spec.dimension]
    tallies = closed_walks(spec, top)
    assert [enumerate_walks(spec, n, bound=n) for n in range(top + 1)] == tallies


@pytest.mark.parametrize(
    "name, ring, lengths",
    [
        ("chain-nn", 3, (3, 5, 7, 9)),
        ("chain-nn", 5, (5, 7, 9)),
        ("chain-nn", 7, (7, 9, 11)),
        ("chain-nn", 6, (1, 3, 5, 7, 9, 11)),
        ("chain-nn", None, (1, 3, 5, 7, 9)),
        ("bcc", None, (1, 3, 5)),
    ],
)
def test_odd_tallies_match_brute_force(name, ring, lengths):
    # every move flips the parity of the coordinate sum, so an odd walk
    # closes only by winding a ring of odd size; the oracle skips the
    # product where no odd walk can close
    spec = make("chain-nn-finite", ring) if ring else make(name)
    tallies = closed_walks(spec, max(lengths))
    for n in lengths:
        expected = brute_tally(name, n, ring=ring)
        assert bool(expected) == bool(ring and ring % 2)
        assert dict(tallies[n].counts) == expected
        assert dict(enumerate_walks(spec, n, bound=n).counts) == expected


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


def test_trace_matches_the_ring_series_at_long_lengths():
    for ring, lengths in ((64, (169, 170)), (3, (4000,))):
        table = expand("chain-nn-finite", max(lengths), ring)
        for n in lengths:
            assert finite_chain_trace(ring, n) == table.walk_count((n,))


def test_tally_json_document():
    tally = enumerate_walks(make("chain-nnn"), 4)
    doc = tally.to_json_dict()
    assert doc["lattice"] == "chain-nnn"
    assert doc["length"] == 4
    assert int(doc["total"]) == tally.total
    indices = [tuple(e["index"]) for e in doc["counts"]]
    assert indices == sorted(indices)


@pytest.mark.parametrize("name, kept", [("chain-nn", slice(1)), ("bcc", slice(-1))])
def test_hopping_not_closed_under_negation_is_refused(name, kept):
    # chain-nn without its -1 step, bcc without one step
    spec = make(name)
    with pytest.raises(ValueError, match="closed under negation"):
        closed_walks(spec._replace(steps=spec.steps[kept]), 4)


def test_a_third_label_is_refused():
    spec = make("chain-nnn")
    third = tuple(s._replace(label=3) for s in spec.steps[:2])
    spec = spec._replace(steps=spec.steps + third, hopping_count=3)
    with pytest.raises(ValueError, match=f"at most {MAX_HOPPING_LABELS} hopping labels"):
        closed_walks(spec, 4)


@pytest.mark.parametrize("label, count", [(2, 1), (0, 1), (3, 2)])
def test_a_step_label_outside_the_labels_is_refused(label, count):
    # chain-nnn's +-2 steps given the label, under a hopping_count of count
    spec = make("chain-nnn")
    steps = spec.steps[:2] + tuple(s._replace(label=label) for s in spec.steps[2:])
    with pytest.raises(ValueError, match=f"step label {label} is outside 1..{count}"):
        closed_walks(spec._replace(steps=steps, hopping_count=count), 2)


@pytest.mark.parametrize("cells", [1, 2])
def test_chain_nnn_on_a_torus_narrower_than_its_moves(cells):
    # on one cell every walk closes; on two, a walk closes when its +-1 steps
    # are even in number; either way each step of a given label has 2 signs
    tallies = closed_walks(make("chain-nnn")._replace(pbc_size=cells), 12)
    for n, tally in enumerate(tallies):
        assert tally.counts == {
            (m, n - m): math.comb(n, m) * 2**n for m in range(n + 1) if cells == 1 or m % 2 == 0
        }


def brute_closed_walks(spec, max_length):
    """Closed walks by label usage for every length, from every step sequence.

    On two sublattices a walk starts on A and alternates A->B and B->A
    steps; it closes only back on A, and counts twice, once for each
    sublattice it could start on.  Positions are in units of the steps'
    common denominator, so they stay integers.
    """
    scale = math.lcm(*(c.denominator for s in spec.steps for c in s.displacement))
    cycle = [
        [
            (tuple(int(c * scale) for c in s.displacement), s.label - 1)
            for s in spec.steps
            if s.sublattice == sublattice
        ]
        for sublattice in (("AtoB", "BtoA") if spec.basis_size == 2 else (None,))
    ]
    ring = spec.pbc_size * scale if spec.pbc_size else math.inf
    tallies = [Counter() for _ in range(max_length + 1)]

    def extend(position, used):
        length = sum(used)
        if length % len(cycle) == 0 and all(c % ring == 0 for c in position):
            tallies[length][tuple(used)] += len(cycle)
        if length < max_length:
            for move, label in cycle[length % len(cycle)]:
                used[label] += 1
                extend([p + c for p, c in zip(position, move)], used)
                used[label] -= 1

    extend([0] * spec.dimension, [0] * spec.hopping_count)
    return [dict(tally) for tally in tallies]


@settings(max_examples=100, deadline=None)
@given(spec=generated_specs() | two_sublattice_specs())
def test_generated_lattices_match_brute_force(spec):
    # reach-2 moves beyond 1-D, two labels beyond 1-D, repeated pairs, two
    # sublattices in 1-D to 3-D and tori of any side, down to one cell,
    # narrower than a move: cases no built-in lattice reaches
    z = len(spec.steps) // spec.basis_size
    top = max(n for n in range(20) if z**n <= 10**4)
    tallies = closed_walks(spec, top)
    assert [dict(t.counts) for t in tallies] == brute_closed_walks(spec, top)
