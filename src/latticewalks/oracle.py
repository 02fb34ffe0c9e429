"""Ground-truth walk enumeration, independent of the exact series.

``closed_walks`` counts closed walks of every length up to ``L`` by
meeting in the middle.  A step is an integer move: a lattice translation
plus one axis, for a two-label spec, counting the label-1 steps.  On the
two-sublattice lattices hops are measured from the first A->B
displacement ``e0`` (``d - e0`` for A->B, ``d + e0`` for B->A), so every
move is a lattice translation.  A shift stencil runs for ``K = ceil(L/2)``
steps only and leaves ``w_t(x)``, the number of ``t``-step walks from the
origin to ``x``, in one of the two halves of one buffer.  The walk of
length ``n`` splits into a first half of ``n - k`` steps and a second half
of ``k = floor(n/2)``; reversed and negated, the second half is a
``k``-step walk from the origin to the same ``x``.  So the tally of length
``n`` is ``sum_x w_{n-k}(x) w_k(x)``, and on a two-label spec the label-1
counts of the halves add: the tally is the anti-diagonal sums of the
halves' pair table over label counts.  That reversal is a walk of the
spec exactly when its moves are closed under negation (Hermitian
hopping, as every built-in's ``+-`` pairs are), so any other spec is
refused, and so is one with more than ``MAX_HOPPING_LABELS`` labels, as
the stencil has one label axis, or with a step labelled outside
``1..hopping_count``.

One stencil serves every call.  The halves of lengths ``2t - 1`` and
``2t`` are live just after step ``t``, so ``closed_walks`` takes those two
products there; ``enumerate_walks(spec, n)``, which ``finite_chain_trace``
calls, runs the stencil to ``ceil(n/2)`` and takes one product, of length
``n``.
An odd-length tally is empty, and no product is taken for it, on a
two-sublattice spec and on one whose every move has an odd coordinate
sum, unless a torus of odd side wraps it.

The buffer covers only the box that walks of ``K`` steps can reach,
built per axis from the smallest and largest component of each step's
moves.  On honeycomb and diamond a step's moves, measured from ``e0``,
point one way along each axis, so that box is about half as wide as on
the other lattices.  Its cells lie flat in C order, label axis last, so
a move is one flat offset, ``move @ strides``, and step ``t`` is one
slice add per move (the first move, landing on zeros, a copy) over the
flat range from the first to the last corner of the box of ``t - 1``
steps, clipped to the buffer.  The range also holds cells outside that
box: they are zero, and a zero added anywhere changes nothing, while
each cell of the box lands on its own cell of the box of ``t`` steps.  A
tally reads the whole label rows of the range of the shorter half's box
(on a one-sublattice spec every shorter box lies in the longer one), and
of each row only the label columns ``0..t`` that ``t`` steps can reach.

An axis wraps, at the spec's ``pbc_size`` cells, exactly when the box of
``K`` steps is wider than that torus (the ring is the 1-D case).  A box
no wider holds no two cells that the torus makes one, so it counts the
same walks unwrapped.  A wrapped axis holds the torus between ghost cells
``r`` wide on each side, ``r`` the longest move component.  A step adds
into them, and then each ghost cell is added to the torus cell it stands
for, its index modulo ``pbc_size`` (a move may be longer than the torus),
and cleared, so a step on a ring costs ``O(pbc_size)`` at any length.
A cell never exceeds the ``z**t`` walks of its length (``z`` moves a
step), and each product of the two halves counts some of the ``z**n``
closed walks of length ``n``, so every partial sum of a tally is at most
``z**L``: cells are int64 while ``z**L < 2**63`` and exact Python ints
past it.
Every ring site is alike, so the ring's adjacency trace ``Tr A**n`` over
the site count is the count from one site: ``finite_chain_trace``.
numpy is imported when the stencil runs, not with the module.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Optional

from .lattices import LatticeSpec, MultiIndex, _check_labels, _integer_hops, builtin

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
    (Hermitian hopping), there may be at most ``MAX_HOPPING_LABELS``
    labels, and every step's label must be in ``1..hopping_count``; any
    other spec is a ``ValueError``.
    """
    tallies = []
    for t, tally in enumerate(_half_walks(spec, max_length)):
        tallies += [tally(n) for n in (2 * t - 1, 2 * t) if 0 <= n <= max_length]
    return tallies


def _half_walks(spec: LatticeSpec, max_length: int):
    """Run the half-walk stencil for ``t = 0..ceil(max_length/2)`` steps.

    After step ``t`` it yields the function that makes the tally of length
    ``2t - 1`` or ``2t`` from the two halves then live.  The last step's
    halves stay live once the steps are done.
    """
    import numpy as np

    if max_length < 0:
        raise ValueError("walk length must be >= 0")
    _check_labels(spec)
    doubled = spec.basis_size == 2
    dim = spec.dimension
    moves = {}
    for s, hop in zip(spec.steps, _integer_hops(spec)):
        # the last axis counts the label-1 steps of a two-label spec
        moves.setdefault(s.sublattice, []).append(hop + (int(s.label < spec.hopping_count),))
    cycle = [moves["AtoB"], moves["BtoA"]] if doubled else [moves[None]]
    # a walk's second half, reversed and negated, is a walk from the origin
    if sorted(tuple(-c for c in m[:dim]) + m[dim:] for m in cycle[0]) != sorted(cycle[-1]):
        raise ValueError("closed_walks needs hopping closed under negation: a move has no reverse")

    # walks of t steps stay in a box that grows by each step's smallest and
    # largest move component along every axis; it holds the origin, so that
    # a label index is the label count
    half = (max_length + 1) // 2
    extremes = [[list(map(min, zip(*group))), list(map(max, zip(*group)))] for group in cycle]
    # the extremes summed over steps 1..t, t = 0..K; step t takes group (t - 1) % len(cycle)
    sums = np.zeros((half + 1, 2, dim + 1), np.int64)
    np.cumsum(np.array(extremes)[np.arange(half) % len(cycle)], axis=0, out=sums[1:])
    lows, highs = np.minimum(sums[:, 0], 0), np.maximum(sums[:, 1], 0)
    low = lows.min(axis=0)
    shape = highs.max(axis=0) - low + 1
    # a box no wider than the torus holds no two cells that the torus makes one
    reach = max(abs(c) for pair in extremes for side in pair for c in side[:dim])
    torus = spec.pbc_size or math.inf
    wrapped = [axis for axis in range(dim) if shape[axis] > torus]
    # an odd walk ends on B on two sublattices, where its integer part may be
    # back at 0, and off the origin where every move flips the parity of the
    # coordinate sum and no torus of odd side wraps it: its tally is empty
    odd_empty = doubled or (
        all(sum(m[:dim]) % 2 for m in cycle[0]) and (not wrapped or torus % 2 == 0)
    )
    # the first and last cell of each box t; an axis that wraps holds the
    # torus between ghost cells one step's reach wide
    corners = np.array([lows - low, highs - low])
    for axis in wrapped:
        shape[axis] = torus + 2 * reach
        corners[:, :, axis] = [[reach], [reach + torus - 1]]
    # a box spans whole label rows: from label 0 to past its last row's end
    width = corners[1, :, dim] = shape[dim]
    columns = (highs[:, dim] + 1).tolist()

    # no cell exceeds the z**t walks of its length t, z the largest move set,
    # and every partial sum of a tally counts some of the z**n closed walks
    dtype = np.int64 if max(map(len, cycle)) ** max_length < 2**63 else object
    # w_t, the t-step walks from the origin to each cell, lies in walks[t % 2]
    walks = np.zeros((2, *shape), dtype)
    # the cells lie flat in C order: a move is one offset, a box one range
    strides = np.array(walks.strides[1:]) // walks.itemsize
    flat, rows = walks.reshape(2, -1), walks.reshape(2, -1, width)
    ranges = (corners @ strides).T.tolist()
    offsets = [(np.array(group) @ strides).tolist() for group in cycle]
    # a ghost cell goes back to the torus cell it stands for, along each wrapped axis
    slabs = [np.swapaxes(walks, 1, 1 + axis) for axis in wrapped]
    ghosts = [*range(reach), *range(reach + torus, torus + 2 * reach)] if slabs else []
    folds = [
        [(slab[p, reach + (g - reach) % torus], slab[p, g]) for slab in slabs for g in ghosts]
        for p in (0, 1)
    ]

    def tally(n):
        """The length-``n`` tally: the halves' products summed over the shorter half's box."""
        counts = {}
        if not (odd_empty and n % 2):
            # one sublattice: every box holds the shorter ones; two: here n is even
            k = n // 2
            start, stop = (end // width for end in ranges[k])
            a, b = (rows[m % 2, start:stop, : columns[m]] for m in (n - k, k))
            # label-1 counts of the two halves add: anti-diagonal sums of the pair table
            by_label = [0] * (a.shape[1] + b.shape[1] - 1)
            for i, row in enumerate((a.T @ b).tolist()):
                for j, count in enumerate(row):
                    by_label[i + j] += count
            counts = {
                (m,) * (spec.hopping_count - 1) + (n - m,): (1 + doubled) * count
                for m, count in enumerate(by_label)
                if count
            }
        return WalkTally(spec.name, n, counts, sublattice_doubled=doubled)

    flat[0, ranges[0][0]] = 1
    yield tally
    for t in range(1, half + 1):
        before, after = flat[(t - 1) % 2], flat[t % 2]
        # clear w_{t-2} only as w_t is about to take its buffer, so that the
        # last step's halves stay live once the steps are done
        if t > 1:
            after[slice(*ranges[t - 2])] = 0
        start, stop = ranges[t - 1]
        for i, offset in enumerate(offsets[(t - 1) % len(cycle)]):
            lo, hi = max(start + offset, 0), min(stop + offset, flat.shape[1])
            view, source = after[lo:hi], before[lo - offset : hi - offset]
            if i:
                np.add(view, source, out=view)
            else:  # the first move lands on zeros: a copy makes no new Python int
                view[...] = source
        for target, ghost in folds[t % 2]:
            np.add(target, ghost, out=target)
            ghost[...] = 0
        yield tally


def enumerate_walks(spec: LatticeSpec, n: int, bound: Optional[int] = None) -> WalkTally:
    """The length-``n`` tally of ``closed_walks``, and only it; ``n`` may not pass ``bound``."""
    limit = ORACLE_BOUNDS[spec.dimension] if bound is None else bound
    if n > limit:
        raise ValueError(f"walk length {n} exceeds enumeration bound {limit}")
    *_, tally = _half_walks(spec, n)
    return tally(n)


def finite_chain_trace(pbc_size: int, n: int) -> int:
    """Per-site closed-walk count on the ring: ``Tr A**n`` over the site count."""
    return enumerate_walks(builtin("chain-nn-finite", pbc_size), n, bound=n).total
