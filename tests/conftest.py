"""Shared test fixtures: an independent brute-force walk counter and references.

The enumerator below is deliberately naive (it iterates every step
sequence with itertools.product) and restates the step geometry inline,
in integer-scaled primitive coordinates, so it shares nothing with the
library's dynamic-programming oracle or the closed-form series.  It is
the ground truth the fast paths are checked against at small lengths.

:func:`dispersion_value` evaluates the band at Cartesian ``k`` from a
spec's ``steps`` and ``direct_basis`` alone, never from the quadrature's
harmonics, and :func:`series_value` sums a truncated series.

``CLOSED_FORMS`` holds the single-label walk counts as binomial sums,
the reference the series' recurrences are checked against (Guttmann,
J. Phys. A 43 (2010) 305205; Domb, Adv. Phys. 9 (1960) 149), and
:func:`ring_walk_counts` the ring's as a sum over winding numbers read off
rows of Pascal's triangle, the reference for the ring series' one binomial
per winding.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from latticewalks import LatticeSpec, StepVector
from latticewalks.lattices import MAX_HOPPING_LABELS

# integer-scaled step tables: (moves, label) for single-sublattice
# lattices, forward A->B moves for the bipartite ones (scale 3 and 4)
BRUTE_MOVES = {
    "chain-nn": [((1,), 1), ((-1,), 1)],
    "chain-nnn": [((1,), 1), ((-1,), 1), ((2,), 2), ((-2,), 2)],
    "triangular": [
        ((1, 0), 1),
        ((-1, 0), 1),
        ((0, 1), 1),
        ((0, -1), 1),
        ((-1, -1), 1),
        ((1, 1), 1),
    ],
    "bcc": [
        ((1, 0, 0), 1),
        ((-1, 0, 0), 1),
        ((0, 1, 0), 1),
        ((0, -1, 0), 1),
        ((0, 0, 1), 1),
        ((0, 0, -1), 1),
        ((-1, -1, -1), 1),
        ((1, 1, 1), 1),
    ],
}
BRUTE_FORWARD = {
    "honeycomb": [(-1, -2), (2, 1), (-1, 1)],
    "diamond": [(1, 1, 1), (-3, 1, 1), (1, -3, 1), (1, 1, -3)],
}


def brute_tally(name: str, n: int, ring: int | None = None) -> dict[tuple[int, ...], int]:
    """Count closed n-step walks by exhausting every step sequence."""
    if name in BRUTE_FORWARD:
        forward = BRUTE_FORWARD[name]
        backward = [tuple(-c for c in mv) for mv in forward]
        counts: dict[tuple[int, ...], int] = {}
        pools = [forward if t % 2 == 0 else backward for t in range(n)]
        for seq in itertools.product(*pools):
            pos = tuple(map(sum, zip(*seq))) if seq else (0,) * len(forward[0])
            if all(c == 0 for c in pos):
                counts[(n,)] = counts.get((n,), 0) + 2  # both terminal sublattices
        return counts if n else {(0,): 2}

    moves = BRUTE_MOVES[name]
    labels = max(lab for _, lab in moves)
    counts = {}
    for seq in itertools.product(moves, repeat=n):
        pos = [0] * len(moves[0][0])
        used = [0] * labels
        for mv, lab in seq:
            for i, c in enumerate(mv):
                pos[i] += c
            used[lab - 1] += 1
        if ring is not None:
            pos = [p % ring for p in pos]
        if all(p == 0 for p in pos):
            key = tuple(used)
            counts[key] = counts.get(key, 0) + 1
    return counts


def brute_total(name: str, n: int, ring: int | None = None) -> int:
    return sum(brute_tally(name, n, ring).values())


@functools.lru_cache(maxsize=None)
def franel(k: int) -> int:
    """The Franel number ``sum_j C(k,j)**3`` (OEIS A000172)."""
    return sum(math.comb(k, j) ** 3 for j in range(k + 1))


def _even(count):
    # a count that vanishes at odd n and is count(n // 2) at even n
    return lambda n: 0 if n % 2 else count(n // 2)


# order n -> closed-walk count; p = n/2 on the lattices with even counts only
CLOSED_FORMS = {
    "chain-nn": _even(lambda p: math.comb(2 * p, p)),
    # A002897
    "bcc": _even(lambda p: math.comb(2 * p, p) ** 3),
    # A002898
    "triangular": lambda n: sum(
        math.comb(n, k) * (-2) ** (n - k) * franel(k) for k in range(n + 1)
    ),
    # twice A002893: the factor 2 counts both sublattices as the start
    "honeycomb": _even(
        lambda p: 2 * sum(math.comb(p, k) ** 2 * math.comb(2 * k, k) for k in range(p + 1))
    ),
    # twice the Domb numbers, A002895
    "diamond": _even(
        lambda p: 2
        * sum(
            math.comb(p, k) ** 2 * math.comb(2 * k, k) * math.comb(2 * p - 2 * k, p - k)
            for k in range(p + 1)
        )
    ),
}


def ring_walk_counts(pbc_size: int, max_order: int) -> dict[tuple[int], int]:
    """Closed walks of each length ``0..max_order`` on a ring, the nonzero ones, keyed as a series.

    A closed walk's net displacement ``d`` is a multiple of the ring size,
    with ``|d| <= n`` and ``n + d`` even, and ``C(n, (n + d) / 2)`` walks of
    ``n`` steps have it: read off row ``n`` of Pascal's triangle, each row
    built from the last by additions.
    """
    counts, row = {}, [1]
    for n in range(max_order + 1):
        if n:
            row = list(map(operator.add, [0, *row], [*row, 0]))
        reach = n // pbc_size * pbc_size
        walks = sum(row[(n + d) // 2] for d in range(-reach, n + 1, pbc_size) if (n + d) % 2 == 0)
        if walks:
            counts[(n,)] = walks
    return counts


def dispersion_value(spec, label: int, k) -> float:
    """One label's band at Cartesian quasimomentum ``k``, built from the steps.

    One-sublattice lattices give ``sum_v cos(k.v)`` over the label's
    steps; two-sublattice lattices give the squared-band kernel
    ``|sum_i exp(i k.e_i)|**2`` over the A->B steps ``e_i``.
    """
    if not 1 <= label <= spec.hopping_count:
        raise ValueError(f"label {label} out of range 1..{spec.hopping_count}")
    kv = np.asarray(k, dtype=float)
    if kv.shape != (spec.dimension,):
        raise ValueError(f"k must have {spec.dimension} components")
    a = np.asarray(spec.direct_basis)

    def phase(step):
        return float(kv @ (np.array([float(c) for c in step.displacement]) @ a))

    if spec.basis_size == 2:
        return abs(sum(np.exp(1j * phase(s)) for s in spec.steps if s.sublattice == "AtoB")) ** 2
    return sum(math.cos(phase(s)) for s in spec.steps if s.label == label)


@st.composite
def generated_specs(draw, closed_under_swap=False):
    """A one-sublattice spec of 1 to 3 +-pairs per label, moves in [-2, 2]**D, maybe a torus.

    The torus, of 1 to 7 cells a side, may be narrower than a move.  The
    routes never read the bases, so they are the unit cell.  With
    ``closed_under_swap`` the spec is 3-D and each move ``(x, y, z)`` of a
    label brings ``(x, z, y)`` too, so every band is unchanged by
    exchanging the last two axes.
    """
    dimension = 3 if closed_under_swap else draw(st.integers(1, 3))
    labels = draw(st.integers(1, MAX_HOPPING_LABELS))
    move = st.tuples(*[st.integers(-2, 2)] * dimension)
    steps = []
    for label in range(1, labels + 1):
        moves = draw(st.lists(move, min_size=1, max_size=3))
        if closed_under_swap:
            moves += [(x, z, y) for x, y, z in moves]
        for coords in moves:
            steps += [
                StepVector(tuple(map(Fraction, coords)), label),
                StepVector(tuple(Fraction(-c) for c in coords), label),
            ]
    unit = tuple(tuple(float(i == j) for j in range(dimension)) for i in range(dimension))
    return LatticeSpec(
        name="generated",
        dimension=dimension,
        basis_size=1,
        steps=tuple(steps),
        hopping_count=labels,
        direct_basis=unit,
        reciprocal_basis=tuple(tuple(2 * math.pi * c for c in row) for row in unit),
        cell_volume=(2 * math.pi) ** dimension,
        pbc_size=draw(st.none() | st.integers(1, 7)),
    )


@st.composite
def two_sublattice_specs(draw, closed_under_swap=False):
    """A two-sublattice spec: A->B steps ``e0 + t`` and their reverses, maybe on a torus.

    ``e0`` is off the lattice (its first component a proper fraction of
    denominator 2 to 4) and comes first; each of up to two more A->B steps
    adds an integer translation ``t`` in [-1, 1]**D to it.  One label; the
    bases are the unit cell, as in :func:`generated_specs`.  With
    ``closed_under_swap`` the spec is 3-D, ``e0``'s last two components
    are equal and each ``t = (x, y, z)`` brings ``(x, z, y)`` too, so the
    A->B steps, and with them the band, are unchanged by exchanging the
    last two axes.
    """
    dimension = 3 if closed_under_swap else draw(st.integers(1, 3))
    q = draw(st.integers(2, 4))
    e0 = (Fraction(draw(st.integers(1, q - 1)), q),) + tuple(
        Fraction(draw(st.integers(-q, q)), q) for _ in range(dimension - 1)
    )
    shifts = [(0,) * dimension] + draw(
        st.lists(st.tuples(*[st.integers(-1, 1)] * dimension), max_size=2)
    )
    if closed_under_swap:
        e0 = e0[:2] + e0[1:2]
        shifts += [(x, z, y) for x, y, z in shifts[1:]]
    steps = []
    for shift in shifts:
        forward = tuple(e + t for e, t in zip(e0, shift))
        steps += [
            StepVector(forward, 1, "AtoB"),
            StepVector(tuple(-c for c in forward), 1, "BtoA"),
        ]
    unit = tuple(tuple(float(i == j) for j in range(dimension)) for i in range(dimension))
    return LatticeSpec(
        name="generated",
        dimension=dimension,
        basis_size=2,
        steps=tuple(steps),
        hopping_count=1,
        direct_basis=unit,
        reciprocal_basis=tuple(tuple(2 * math.pi * c for c in row) for row in unit),
        cell_volume=(2 * math.pi) ** dimension,
        pbc_size=draw(st.none() | st.integers(1, 7)),
    )


def series_value(table, x):
    """The truncated univariate series ``table`` at ``x``, summed in index order."""
    return sum(c * x**n for (n,), c in sorted(table.coefficients.items()))


def _tuple_new(good, bad):
    # runs no constructor of the record's class, as unpickling at protocols 0 and 1 does
    return tuple.__new__(type(good), (good._asdict() | bad).values())


def _pickled(protocol=pickle.DEFAULT_PROTOCOL):
    return lambda good, bad: pickle.loads(pickle.dumps(_tuple_new(good, bad), protocol))


# each way to make a record: from a valid record ``good`` and a dict ``bad`` of fields,
# a record of ``good``'s type with those fields changed
RECORD_CONSTRUCTIONS = {
    "positional": lambda good, bad: type(good)(*(good._asdict() | bad).values()),
    "keywords": lambda good, bad: type(good)(**(good._asdict() | bad)),
    "_make": lambda good, bad: type(good)._make((good._asdict() | bad).values()),
    "_replace": lambda good, bad: good._replace(**bad),
    "tuple.__new__": _tuple_new,
    "pickle": _pickled(),
    **{f"pickle-{p}": _pickled(p) for p in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.fixture
def tmp_outdir(tmp_path, monkeypatch):
    monkeypatch.delenv("LATTICEWALKS_OUTDIR", raising=False)
    return tmp_path
