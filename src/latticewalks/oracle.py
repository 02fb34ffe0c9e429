"""Ground-truth walk enumeration, independent of the closed-form series.

``enumerate_walks`` counts closed walks with a shift stencil on a torus.
Each step is an integer move: a lattice translation plus one axis per
hopping label except the last, counting that label's steps.  On the
two-sublattice lattices hops are measured from the first A->B
displacement ``e0`` (``d - e0`` for A->B, ``d + e0`` for B->A), so every
move is a lattice translation.  The torus is the ring itself on the
finite ring and wider than any walk elsewhere, so the periodic and
infinite lattices share one path.  Counts are exact Python integers at
every length; walk sequences are never materialised.

The finite ring additionally has an adjacency-matrix route: the trace of
the n-th matrix power counts all closed walks, and dividing by the site
count (exact, by vertex transitivity) gives the per-site tally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .lattices import LatticeSpec, _integer_coords

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

    def rows(self) -> list[dict]:
        return [
            {
                "lattice": self.lattice,
                "index": " ".join(str(m) for m in index),
                "count": str(count),
            }
            for index, count in sorted(self.counts.items())
        ]


def enumerate_walks(spec: LatticeSpec, n: int, bound: Optional[int] = None) -> WalkTally:
    """Count length-``n`` closed walks from the origin, per multi-index.

    For two-sublattice lattices the walk starts on sublattice A and the
    tally is doubled, counting both equivalent terminal sublattices of
    one abstract lattice point.
    """
    limit = ORACLE_BOUNDS[spec.dimension] if bound is None else bound
    if n < 0:
        raise ValueError("walk length must be >= 0")
    if n > limit:
        raise ValueError(f"walk length {n} exceeds enumeration bound {limit}")
    doubled = spec.basis_size == 2
    if doubled and n % 2:
        # the integer part can return to 0 while the walk sits on B
        return WalkTally(spec.name, n, {}, sublattice_doubled=True)

    origin = (0,) * spec.dimension
    e0 = next((s.displacement for s in spec.steps if s.sublattice == "AtoB"), origin)
    moves = {}
    for s in spec.steps:
        sign = 1 if s.sublattice == "BtoA" else -1
        hop = tuple(d + sign * e for d, e in zip(s.displacement, e0))
        label_part = tuple(int(s.label == l) for l in range(1, spec.hopping_count))
        moves.setdefault(s.sublattice, []).append(_integer_coords(hop) + label_part)
    cycle = [moves["AtoB"], moves["BtoA"]] if doubled else [moves[None]]

    # off the ring a walk's displacement is smaller than the side, so
    # wrapping never closes a walk that is not closed
    reach = max(abs(c) for group in cycle for move in group for c in move)
    side = spec.pbc_size or n * reach + 1
    axes = tuple(range(len(cycle[0][0])))
    ways = np.zeros((side,) * len(axes), dtype=object)
    ways.flat[0] = 1
    for t in range(n):
        ways = sum(np.roll(ways, move, axes) for move in cycle[t % len(cycle)])

    factor = 2 if doubled else 1
    closed = ways[origin + (...,)]
    counts = {
        labels + (n - sum(labels),): factor * count
        for labels, count in np.ndenumerate(closed)
        if count
    }
    return WalkTally(spec.name, n, counts, sublattice_doubled=doubled)


def finite_chain_trace(pbc_size: int, n: int) -> int:
    """Per-site closed-walk count on the ring, via exact A**n trace."""
    if pbc_size < 3:
        raise ValueError(f"pbc_size must be >= 3, got {pbc_size}")
    if n < 0:
        raise ValueError("walk length must be >= 0")
    adjacency = np.array(
        [
            [int((i - j) % pbc_size in (1, pbc_size - 1)) for j in range(pbc_size)]
            for i in range(pbc_size)
        ],
        dtype=object,
    )
    trace = np.linalg.matrix_power(adjacency, n).trace()
    if trace % pbc_size:
        raise AssertionError("ring trace not divisible by site count")
    return trace // pbc_size
