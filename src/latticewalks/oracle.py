"""Ground-truth walk enumeration, independent of the closed-form series.

``closed_walks`` counts closed walks of every length up to ``L`` in one
pass of a shift stencil on a torus, reading the origin after each step.
A step is an integer move: a lattice translation plus one axis per
hopping label except the last, counting that label's steps.  On the
two-sublattice lattices hops are measured from the first A->B
displacement ``e0`` (``d - e0`` for A->B, ``d + e0`` for B->A), so every
move is a lattice translation.  The torus is the ring itself on the
finite ring and wider than any walk of length ``L`` elsewhere.  A cell
never exceeds the ``z**t`` walks of its length (``z`` moves a step), so
cells are int64 while ``z**L < 2**63`` and exact Python ints past it.

The ring also has an adjacency route: the trace of ``A**n``, built by
``n`` shift steps from the identity, over the site count (exact, by
vertex transitivity) is the per-site tally.
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

    # off the ring a walk's displacement is smaller than the side, so
    # wrapping never closes a walk that is not closed
    reach = max(abs(c) for group in cycle for move in group for c in move)
    side = spec.pbc_size or max_length * reach + 1
    axes = tuple(range(len(cycle[0][0])))
    # no cell exceeds the z**t walks of its length t, z the largest move set
    dtype = np.int64 if max(map(len, cycle)) ** max_length < 2**63 else object
    ways = np.zeros((side,) * len(axes), dtype=dtype)
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
    if n < 0:
        raise ValueError("walk length must be >= 0")
    if n > limit:
        raise ValueError(f"walk length {n} exceeds enumeration bound {limit}")
    return closed_walks(spec, n)[-1]


def finite_chain_trace(pbc_size: int, n: int) -> int:
    """Per-site closed-walk count on the ring, via the exact trace of A**n."""
    if pbc_size < 3:
        raise ValueError(f"pbc_size must be >= 3, got {pbc_size}")
    if n < 0:
        raise ValueError("walk length must be >= 0")
    # an entry of A**n counts some of the 2**n walks from its row's site;
    # the trace, up to pbc_size times that, is summed in Python ints
    ways = np.identity(pbc_size, dtype=np.int64 if 2**n < 2**63 else object)
    for _ in range(n):
        ways = np.roll(ways, 1, axis=1) + np.roll(ways, -1, axis=1)
    trace = sum(map(int, ways.diagonal()))
    if trace % pbc_size:
        raise AssertionError("ring trace not divisible by site count")
    return trace // pbc_size
