"""Ground-truth walk enumeration, independent of the exact series.

``closed_walks`` counts closed walks of every length up to ``L`` in one
pass of a shift stencil on a torus, reading the origin after each step.
A step is an integer move: a lattice translation plus one axis per
hopping label except the last, counting that label's steps.  On the
two-sublattice lattices hops are measured from the first A->B
displacement ``e0`` (``d - e0`` for A->B, ``d + e0`` for B->A), so every
move is a lattice translation.  The lattice axes are wider than any
walk of length ``L``, unless the spec carries a torus narrower than
that: then they wrap at ``pbc_size`` cells (the ring is the 1-D case).
A label axis has ``L + 1`` cells, as no label count passes the length.
A cell never exceeds the ``z**t`` walks of its length (``z`` moves a
step), so cells are int64 while ``z**L < 2**63`` and exact Python ints
past it.
Every ring site is alike, so the ring's adjacency trace ``Tr A**n`` over
the site count is the count from one site: ``finite_chain_trace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .lattices import LatticeSpec, _integer_coords, builtin

MultiIndex = tuple[int, ...]

# default length caps by spatial dimension (resource guard, not a hard limit)
ORACLE_BOUNDS = {1: 12, 2: 10, 3: 8}


@dataclass(frozen=True)
class WalkTally:
    """Closed-walk counts of one length, split by label usage.

    ``sublattice_doubled`` records that the counts of a two-sublattice
    lattice include the factor 2 for the two equivalent terminal sites
    per abstract lattice point.
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
    one abstract lattice point.
    """
    if max_length < 0:
        raise ValueError("walk length must be >= 0")
    doubled = spec.basis_size == 2
    origin = (0,) * spec.dimension
    e0 = next((s.displacement for s in spec.steps if s.sublattice == "AtoB"), origin)
    moves = {}
    for s in spec.steps:
        sign = 1 if s.sublattice == "BtoA" else -1
        hop = tuple(d + sign * e for d, e in zip(s.displacement, e0))
        label_part = tuple(int(s.label == l) for l in range(1, spec.hopping_count))
        moves.setdefault(s.sublattice, []).append(_integer_coords(hop) + label_part)
    cycle = [moves["AtoB"], moves["BtoA"]] if doubled else [moves[None]]

    # a side past any walk's displacement never closes an open walk, and no
    # label count passes the length; a torus wider than that side cannot be
    # wrapped by any walk, so the narrower side gives the same counts
    reach = max(abs(c) for group in cycle for move in group for c in move[: spec.dimension])
    side = min(spec.pbc_size or math.inf, max_length * reach + 1)
    shape = (side,) * spec.dimension + (max_length + 1,) * (spec.hopping_count - 1)
    axes = tuple(range(len(shape)))
    # no cell exceeds the z**t walks of its length t, z the largest move set
    dtype = np.int64 if max(map(len, cycle)) ** max_length < 2**63 else object
    ways = np.zeros(shape, dtype=dtype)
    ways.flat[0] = 1
    factor = 2 if doubled else 1
    tallies = []
    for n in range(max_length + 1):
        if n:
            ways = sum(np.roll(ways, move, axes) for move in cycle[(n - 1) % len(cycle)])
        closed = np.ndenumerate(ways[origin + (...,)])
        # the integer part can return to 0 while the walk sits on B
        counts = {} if doubled and n % 2 else {
            labels + (n - sum(labels),): factor * int(count) for labels, count in closed if count
        }
        tallies.append(WalkTally(spec.name, n, counts, sublattice_doubled=doubled))
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
