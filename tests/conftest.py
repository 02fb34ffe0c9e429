"""Shared test fixtures: an independent brute-force walk counter.

The enumerator below is deliberately naive (it iterates every step
sequence with itertools.product) and restates the step geometry inline,
in integer-scaled primitive coordinates, so it shares nothing with the
library's dynamic-programming oracle or the closed-form series.  It is
the ground truth the fast paths are checked against at small lengths.
"""

from __future__ import annotations

import itertools

import pytest

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


@pytest.fixture
def tmp_outdir(tmp_path, monkeypatch):
    monkeypatch.delenv("LATTICEWALKS_OUTDIR", raising=False)
    return tmp_path
