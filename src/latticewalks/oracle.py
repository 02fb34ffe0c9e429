"""Ground-truth walk enumeration, independent of the exact series.

``closed_walks`` counts closed walks of every length up to ``L`` by
meeting in the middle.  A step is an integer move: a lattice translation
plus one axis, for a two-label spec, counting the label-1 steps.  On the
two-sublattice lattices hops are measured from the first A->B
displacement ``e0`` (``d - e0`` for A->B, ``d + e0`` for B->A), so every
move is a lattice translation.  A shift stencil runs for ``K = ceil(L/2)``
steps only and leaves ``w_t(x)``, the number of ``t``-step walks from the
origin to ``x``, in one of two reused buffers; each step is one slice
shift-add per move.  The walk of length ``n`` splits into a first half of
``n - k`` steps and a second half of ``k = floor(n/2)``; reversed and
negated, the second half is a ``k``-step walk from the origin to the
same ``x``.  So the tally of length ``n`` is ``sum_x w_{n-k}(x) w_k(x)``,
and on a two-label spec the label-1 counts of the halves add: the tally
is the anti-diagonal sums of the halves' pair table over label counts.
That reversal is a walk of the spec exactly when its moves are closed
under negation (Hermitian hopping, as every built-in's ``+-`` pairs are),
so any other spec is refused, and so is one with more than
``MAX_HOPPING_LABELS`` labels, as the stencil has one label axis.

The buffers cover only the box that walks of ``K`` steps can reach, built
per axis from the smallest and largest component of each step's moves,
and step ``t`` works on the box of ``t`` steps only.  On honeycomb and
diamond a step's moves, measured from ``e0``, point one way along each
axis, so that box is about half as wide as on the other lattices.  A
spec's torus narrower than the box wraps it at ``pbc_size`` cells (the
ring is the 1-D case); a walk of ``L`` steps of reach at most ``r``
winds a torus only if ``L*r >= pbc_size``, so no wider torus is ever
wrapped.  A cell never exceeds the
``z**t`` walks of its length (``z`` moves a step), and each product of
the two halves counts some of the ``z**n`` closed walks of length ``n``,
so every partial sum of a tally is at most ``z**L``: cells are int64
while ``z**L < 2**63`` and exact Python ints past it.
Every ring site is alike, so the ring's adjacency trace ``Tr A**n`` over
the site count is the count from one site: ``finite_chain_trace``.
numpy is imported by ``closed_walks`` when it runs, not with the module.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Mapping, NamedTuple, Optional

from .lattices import LatticeSpec, _check_hopping_count, _integer_coords, builtin

MultiIndex = tuple[int, ...]

# default length caps by spatial dimension (resource guard, not a hard limit)
ORACLE_BOUNDS = {1: 12, 2: 10, 3: 8}


class WalkTally(NamedTuple):
    """Closed-walk counts of one length, split by label usage.

    ``sublattice_doubled`` records that the counts of a two-sublattice
    lattice include the factor 2 for the two equivalent terminal sites
    per abstract lattice point.  A NamedTuple, so it equals the plain
    tuple of its fields and ``_replace`` makes a changed copy; its
    :meth:`count` replaces ``tuple.count``.
    """

    lattice: str
    length: int
    counts: Mapping[MultiIndex, int]
    sublattice_doubled: bool = False

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, index: MultiIndex) -> int:
        return self.counts.get(tuple(index), 0)

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice,
            "length": self.length,
            "sublattice_doubled": self.sublattice_doubled,
            "total": str(self.total),
            "counts": [
                {"index": list(index), "count": str(value)}
                for index, value in sorted(self.counts.items())
            ],
        }


def closed_walks(spec: LatticeSpec, max_length: int) -> list[WalkTally]:
    """Closed-walk tallies from the origin of every length ``0..max_length``.

    For two-sublattice lattices the walk starts on sublattice A and each
    tally is doubled, counting both equivalent terminal sublattices of
    one abstract lattice point.  The moves must be closed under negation
    (Hermitian hopping) and there may be at most ``MAX_HOPPING_LABELS``
    labels; any other spec is a ``ValueError``.
    """
    import numpy as np

    if max_length < 0:
        raise ValueError("walk length must be >= 0")
    _check_hopping_count(spec.hopping_count)
    doubled = spec.basis_size == 2
    dim = spec.dimension
    e0 = next((s.displacement for s in spec.steps if s.sublattice == "AtoB"), (0,) * dim)
    moves = {}
    for s in spec.steps:
        sign = 1 if s.sublattice == "BtoA" else -1
        hop = tuple(d + sign * e for d, e in zip(s.displacement, e0))
        # the last axis counts the label-1 steps of a two-label spec
        moves.setdefault(s.sublattice, []).append(
            _integer_coords(hop) + (int(s.label < spec.hopping_count),)
        )
    cycle = [moves["AtoB"], moves["BtoA"]] if doubled else [moves[None]]
    # a walk's second half, reversed and negated, is a walk from the origin
    reversed_first = Counter(tuple(-c for c in m[:dim]) + m[dim:] for m in cycle[0])
    if reversed_first != Counter(cycle[-1]):
        raise ValueError("closed_walks needs hopping closed under negation: a move has no reverse")

    # walks of t steps stay in a box that grows by each step's smallest and
    # largest move component along every axis; it holds the origin, so that
    # a label index is the label count
    half = (max_length + 1) // 2
    groups = [np.array(group) for group in cycle]
    steps = [np.zeros((1, dim + 1), dtype=int)] + [groups[t % len(cycle)] for t in range(half)]
    lows = np.minimum(np.cumsum([g.min(axis=0) for g in steps], axis=0), 0)
    highs = np.maximum(np.cumsum([g.max(axis=0) for g in steps], axis=0), 0)
    low = lows.min(axis=0)
    spans = (highs.max(axis=0) - low + 1).tolist()
    # no walk of length L winds a torus wider than L steps of the longest move
    reach = max(int(abs(g[:, :dim]).max()) for g in groups)
    pbc = spec.pbc_size
    torus = pbc if pbc is not None and pbc <= max_length * reach else math.inf
    wraps = [span > torus for span in spans[:dim]] + [False]
    shape = tuple(torus if wrap else span for span, wrap in zip(spans, wraps))

    # per length t, slices of the cells that walks of t steps reach: all of a wrapped axis
    boxes = [
        tuple(slice(None) if wrap else slice(lo, hi + 1) for lo, hi, wrap in zip(los, his, wraps))
        for los, his in zip((lows - low).tolist(), (highs - low).tolist())
    ]

    def shifts(move, source):
        """(destination, source) slices that add the ``source`` cells moved by ``move``."""
        pieces = []
        for m, size, wrap, cells in zip(move, shape, wraps, source):
            if wrap:
                m %= size
                pieces.append([(slice(m, size), slice(0, size - m))])
                if m:
                    pieces[-1].append((slice(0, m), slice(size - m, size)))
            else:
                pieces.append([(slice(cells.start + m, cells.stop + m), cells)])
        return [tuple(zip(*piece)) for piece in itertools.product(*pieces)]

    # no cell exceeds the z**t walks of its length t, z the largest move set,
    # and every partial sum of a tally counts some of the z**n closed walks
    dtype = np.int64 if max(map(len, cycle)) ** max_length < 2**63 else object
    factor = 2 if doubled else 1

    def tally(n, first, second, cells):
        """The length-``n`` tally: the sum over ``cells`` of the two halves' products."""
        counts = {}
        # the integer part can return to 0 while the walk sits on B
        if not (doubled and n % 2):
            a, b = first[cells], second[cells]
            width = a.shape[-1]
            # label-1 counts of the two halves add: anti-diagonal sums of the pair table
            by_label = [0] * (2 * width - 1)
            for i, row in enumerate((a.reshape(-1, width).T @ b.reshape(-1, width)).tolist()):
                for j, count in enumerate(row):
                    by_label[i + j] += count
            counts = {
                (m,) * (spec.hopping_count - 1) + (n - m,): factor * count
                for m, count in enumerate(by_label)
                if count
            }
        return WalkTally(spec.name, n, counts, sublattice_doubled=doubled)

    before, after = np.zeros(shape, dtype), np.zeros(shape, dtype)
    before[tuple(-low % shape)] = 1
    tallies = [tally(0, before, before, boxes[0])]
    for t in range(1, half + 1):
        after.fill(0)
        for move in cycle[(t - 1) % len(cycle)]:
            for dst, src in shifts(move, boxes[t - 1]):
                view = after[dst]
                np.add(view, before[src], out=view)
        tallies.append(tally(2 * t - 1, after, before, boxes[t]))
        if 2 * t <= max_length:
            tallies.append(tally(2 * t, after, after, boxes[t]))
        before, after = after, before
    return tallies


def enumerate_walks(spec: LatticeSpec, n: int, bound: Optional[int] = None) -> WalkTally:
    """The length-``n`` tally of ``closed_walks``; ``n`` may not pass ``bound``."""
    limit = ORACLE_BOUNDS[spec.dimension] if bound is None else bound
    if n > limit:
        raise ValueError(f"walk length {n} exceeds enumeration bound {limit}")
    return closed_walks(spec, n)[-1]


def finite_chain_trace(pbc_size: int, n: int) -> int:
    """Per-site closed-walk count on the ring: ``Tr A**n`` over the site count."""
    return closed_walks(builtin("chain-nn-finite", pbc_size), n)[-1].total
