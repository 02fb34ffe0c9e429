"""Exact closed-walk counts, and the Taylor coefficients they define.

Each built-in lattice has a closed combinatorial form for the number of
closed walks of length ``n`` (split by hopping label where there is more
than one label).  A :class:`Series` holds these walk counts as plain
arbitrary-precision ints; the series coefficient at a multi-index of
total order ``n`` is derived from them as ``Fraction(count, n!)``.
Everything in this module is exact: no floating point enters at any
stage.

The four symmetric lattices use single-sum closed forms (Guttmann,
"Lattice Green's functions in all dimensions", J. Phys. A 43 (2010)
305205; Domb, Adv. Phys. 9 (1960) 149), with ``p = n/2`` and odd
orders zero where the lattice is bipartite or bcc:

* bcc (OEIS A002897): ``C(n, p)**3``;
* triangular (A002898): ``sum_k C(n,k) (-2)**(n-k) F(k)``, where
  ``F(k) = sum_j C(k,j)**3`` are the Franel numbers (A000172);
* honeycomb: ``2 sum_k C(p,k)**2 C(2k,k)`` (twice A002893);
* diamond: ``2 sum_k C(p,k)**2 C(2k,k) C(2p-2k,p-k)`` (twice the Domb
  numbers, A002895).

The factor 2 on the two-site lattices counts both sublattices as the
walk's start.  In particular the bcc coefficient at order ``2m`` is
``((2m)! / (m!)**3)**2``, an exact rational square at every order.

Multi-indices are ordinary tuples of non-negative ints, one entry per
hopping label, stored only where the walk count is non-zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class Series:
    """Truncated expansion: multi-index -> exact closed-walk count (an int).

    A count is ``n!`` times the Taylor coefficient at total order ``n``;
    the coefficients are derived from the counts.  Absent indices mean a
    zero count.  ``label_count`` is the arity of every index;
    ``max_order`` bounds the stored total degree.
    """

    lattice: str
    max_order: int
    label_count: int
    counts: Mapping[MultiIndex, int] = field(default_factory=dict)
    pbc_size: Optional[int] = None

    def __post_init__(self):
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")
        for index, value in self.counts.items():
            if len(index) != self.label_count or any(e < 0 for e in index):
                raise ValueError(f"bad multi-index {index}")
            if sum(index) > self.max_order:
                raise ValueError(f"index {index} exceeds max_order {self.max_order}")
            if not isinstance(value, int):
                raise ValueError(f"walk count at {index} is not an int")

    @property
    def coefficients(self) -> Mapping[MultiIndex, Fraction]:
        """The exact Taylor coefficients, derived from ``counts``, with its keys."""
        return {index: Fraction(c, math.factorial(sum(index))) for index, c in self.counts.items()}

    def walk_count(self, index: MultiIndex) -> int:
        """The exact closed-walk count at this index, n! times its coefficient."""
        if len(index) != self.label_count:
            raise ValueError(f"index arity {len(index)} != {self.label_count}")
        return self.counts.get(tuple(index), 0)

    def coefficient(self, index: MultiIndex) -> Fraction:
        return Fraction(self.walk_count(index), math.factorial(sum(index)))

    def items(self) -> list[tuple[MultiIndex, Fraction]]:
        """Coefficients in lexicographic index order (deterministic output)."""
        return sorted(self.coefficients.items())

    def to_json_dict(self) -> dict:
        doc = {
            "lattice": self.lattice,
            "max_order": self.max_order,
            "coefficients": [
                {"index": list(index), "num": str(c.numerator), "den": str(c.denominator)}
                for index, c in self.items()
            ],
        }
        if self.pbc_size is not None:
            doc["pbc_size"] = self.pbc_size
        return doc


# ---------------------------------------------------------------------------
# per-lattice walk counts (exact integers)
# ---------------------------------------------------------------------------


def _chain_count(n: int) -> int:
    return 0 if n % 2 else math.comb(n, n // 2)


def _finite_chain_count(n: int, pbc_size: int) -> int:
    # net displacement of a closed ring walk is a multiple of the ring size,
    # and the winding number is capped by n // pbc_size
    windings = n // pbc_size
    total = 0
    for c in range(-windings, windings + 1):
        d = c * pbc_size
        if (n + d) % 2 == 0:
            total += math.comb(n, (n + d) // 2)
    return total


def _nnn_count(n1: int, n2: int) -> int:
    # the double steps' net displacement d2 has the parity of n2 and
    # |d2| <= min(n1/2, n2), so the unit steps can cancel it; the summand
    # C(n1, n1/2 - d2) C(n2, (n2 - d2)/2) is even in d2, so sum d2 >= 0,
    # doubling d2 > 0, and take each binomial from the last d2's
    d2, cap = n2 % 2, min(n1 // 2, n2)
    if n1 % 2 or d2 > cap:
        return 0
    a, b = n1 // 2 - d2, (n2 - d2) // 2
    c1, c2, inner = math.comb(n1, a), math.comb(n2, b), 0
    while d2 <= cap:
        inner += (2 if d2 else 1) * c1 * c2
        c1 = c1 * a * (a - 1) // ((n1 - a + 1) * (n1 - a + 2))
        c2 = c2 * b // (n2 - b + 1)
        a, b, d2 = a - 2, b - 1, d2 + 2
    return math.comb(n1 + n2, n1) * inner


def _bcc_count(n: int) -> int:
    return 0 if n % 2 else math.comb(n, n // 2) ** 3


def _honeycomb_count(n: int) -> int:
    if n % 2:
        return 0
    p = n // 2
    return 2 * sum(math.comb(p, k) ** 2 * math.comb(2 * k, k) for k in range(p + 1))


def _diamond_count(n: int) -> int:
    if n % 2:
        return 0
    p = n // 2
    return 2 * sum(
        math.comb(p, k) ** 2 * math.comb(2 * k, k) * math.comb(2 * p - 2 * k, p - k)
        for k in range(p + 1)
    )


def _ring_counter(max_order: int, pbc_size: Optional[int]):
    if pbc_size is None:
        raise ValueError("chain-nn-finite requires pbc_size")
    if pbc_size < 3:
        raise ValueError(f"pbc_size must be >= 3, got {pbc_size}")
    return lambda n: _finite_chain_count(n, pbc_size)


def _triangular_counter(max_order: int, pbc_size: Optional[int]):
    franel = [sum(math.comb(k, j) ** 3 for j in range(k + 1)) for k in range(max_order + 1)]
    return lambda n: sum(math.comb(n, k) * (-2) ** (n - k) * franel[k] for k in range(n + 1))


# lattice name -> counter(max_order, pbc_size): the walk count of each order n
_COUNTERS = {
    "chain-nn": lambda max_order, pbc_size: _chain_count,
    "chain-nn-finite": _ring_counter,
    "triangular": _triangular_counter,
    "bcc": lambda max_order, pbc_size: _bcc_count,
    "honeycomb": lambda max_order, pbc_size: _honeycomb_count,
    "diamond": lambda max_order, pbc_size: _diamond_count,
}


def expand(name: str, max_order: int, pbc_size: Optional[int] = None) -> Series:
    """Series of any built-in lattice up to total order ``max_order``.

    ``pbc_size`` is the ring size of ``chain-nn-finite`` (winding walks
    included); other lattices ignore it.  ``chain-nnn`` is bivariate.
    """
    counts = {}
    # a negative max_order leaves every loop empty, and Series refuses it
    if name == "chain-nnn":
        for n1 in range(0, max_order + 1, 2):
            for n2 in range(max_order - n1 + 1):
                c = _nnn_count(n1, n2)
                if c:
                    counts[(n1, n2)] = c
        return Series(name, max_order, 2, counts)
    if name not in _COUNTERS:
        raise ValueError(f"unknown lattice {name!r}")
    count = _COUNTERS[name](max_order, pbc_size)
    for n in range(max_order + 1):
        c = count(n)
        if c:
            counts[(n,)] = c
    ring = pbc_size if name == "chain-nn-finite" else None
    return Series(name, max_order, 1, counts, pbc_size=ring)
