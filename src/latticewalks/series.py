"""Exact closed-walk counts, and the Taylor coefficients they define.

A :class:`Series` holds the number of closed walks of each length ``n``
(split by hopping label where there is more than one label) as plain
arbitrary-precision ints; the series coefficient at a multi-index of
total order ``n`` is derived from them as ``Fraction(count, n!)``.
Everything in this module is exact: no floating point enters at any
stage.

The lattice Green functions are D-finite (Guttmann, "Lattice Green's
functions in all dimensions", J. Phys. A 43 (2010) 305205), so each
single-label walk-count sequence obeys a short recurrence with
polynomial coefficients, run in one integer loop.  The count at order
``n = stride * p`` is ``factor * a(p)``, zero at the other orders:

* chain-nn, ``a(p) = C(2p, p)``: ``p a(p) = 2(2p-1) a(p-1)``;
* bcc (OEIS A002897), ``C(2p, p)**3``: ``p**3 a(p) = 8(2p-1)**3 a(p-1)``;
* honeycomb, twice A002893:
  ``p**2 a(p) = (10p**2 - 10p + 3) a(p-1) - 9(p-1)**2 a(p-2)``;
* diamond, twice the Domb numbers (A002895):
  ``p**3 a(p) = 2(2p-1)(5p**2 - 5p + 2) a(p-1) - 64(p-1)**3 a(p-2)``;
* triangular (A002898), stride 1:
  ``n**2 a(n) = n(n-1) a(n-1) + 24(n-1)**2 a(n-2) + 36(n-1)(n-2) a(n-3)``.

Every step divides exactly; a remainder raises ``ArithmeticError``, so a
wrong recurrence fails loudly and never rounds.  The factor 2 on the
two-site lattices counts both sublattices as the walk's start.  The bcc
coefficient at order ``2m`` is ``((2m)! / (m!)**3)**2``, an exact
rational square at every order.  The ring ``chain-nn-finite`` sums its
winding numbers: ``C(n, (n - cN) / 2)`` of its ``n``-step closed walks
wind ``c`` times round its ``N`` sites, and it holds one such binomial
per winding ``c >= 0``, stepped two orders at a time, so an order takes
one product and one exact division per winding of its parity.  The
bivariate ``chain-nnn`` reads every binomial off rows of Pascal's
triangle, built by additions one row per order (:func:`_pascal_rows`):
each count sums the double steps' net displacement as one dot product
of two strided reads of held rows, times a binomial of a third, so it
holds every row up to its order.  ``verify --recurrence`` thus
checks the paper's recurrence against counts not built from it.  The
binomial closed forms of the five recurrences (Domb, Adv. Phys. 9 (1960)
149) and the ring's sum over every binomial of Pascal rows are kept as
the test reference.

Which name and ring size make a lattice is the rule of
:mod:`latticewalks.lattices`: :func:`expand` refuses what ``builtin``
refuses, a ring size on any lattice but ``chain-nn-finite`` included.

Multi-indices are ordinary tuples of non-negative ints, one entry per
hopping label, stored only where the walk count is non-zero.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Mapping, NamedTuple, Optional

from .lattices import MultiIndex, _check_lattice


class Series(NamedTuple):
    """Truncated expansion: multi-index -> exact closed-walk count (an int).

    A count is ``n!`` times the Taylor coefficient at total order ``n``;
    the coefficients are derived from the counts.  Absent indices mean a
    zero count.  ``label_count`` is the arity of every index;
    ``max_order`` bounds the stored total degree.  :func:`expand` makes
    every series the package reads; the record checks none of its fields.

    A NamedTuple, so it equals the plain tuple of its fields and
    ``_replace`` makes a changed copy.
    """

    lattice: str
    max_order: int
    label_count: int
    counts: Mapping[MultiIndex, int]
    pbc_size: Optional[int] = None

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

    def to_json_dict(self) -> dict:
        # each entry straight from its count, so no table of every Fraction is held beside them
        fact = list(accumulate(range(1, self.max_order + 1), operator.mul, initial=1))
        entries = []
        for index, count in sorted(self.counts.items()):
            c = Fraction(count, fact[sum(index)])
            entries.append(
                {"index": list(index), "num": str(c.numerator), "den": str(c.denominator)}
            )
        doc = {"lattice": self.lattice, "max_order": self.max_order, "coefficients": entries}
        if self.pbc_size is not None:
            doc["pbc_size"] = self.pbc_size
        return doc


# ---------------------------------------------------------------------------
# per-lattice walk counts (exact integers)
# ---------------------------------------------------------------------------


def _pascal_rows(max_order: int) -> Iterator[list[int]]:
    """Rows ``0..max_order`` of Pascal's triangle, each built from the last by additions.

    Only ``chain-nnn`` reads them, three rows per count, so it holds them all.
    """
    row = [1]
    yield row
    for _ in range(max_order):
        row = list(map(operator.add, [0, *row], [*row, 0]))
        yield row


# lattice -> (stride, factor, first terms a(0..), steps): the walk count at
# order stride*p is factor*a(p), zero at other orders, and past the first
# terms P0(p) a(p) = sum_j Pj(p) a(p-j) with (P0, P1, ...) = steps(p)
_RECURRENCES = {
    "chain-nn": (2, 1, (1,), lambda p: (p, 2 * (2 * p - 1))),
    "bcc": (2, 1, (1,), lambda p: (p**3, 8 * (2 * p - 1) ** 3)),
    "honeycomb": (2, 2, (1, 3), lambda p: (p**2, 10 * p**2 - 10 * p + 3, -9 * (p - 1) ** 2)),
    "diamond": (
        2, 2, (1, 4),
        lambda p: (p**3, 2 * (2 * p - 1) * (5 * p**2 - 5 * p + 2), -64 * (p - 1) ** 3),
    ),
    "triangular": (
        1, 1, (1, 0, 6),
        lambda p: (p**2, p * (p - 1), 24 * (p - 1) ** 2, 36 * (p - 1) * (p - 2)),
    ),
}


def _recurrence_counts(name: str, max_order: int) -> dict[MultiIndex, int]:
    stride, factor, first, steps = _RECURRENCES[name]
    last = max_order // stride
    a = list(first[: last + 1])
    for p in range(len(a), last + 1):
        lead, *rest = steps(p)
        term, remainder = divmod(sum(c * a[p - j] for j, c in enumerate(rest, 1)), lead)
        # every step divides exactly; a remainder means a wrong recurrence
        if remainder:
            raise ArithmeticError(f"{name} recurrence leaves a remainder at p = {p}")
        a.append(term)
    return {(stride * p,): factor * t for p, t in enumerate(a) if t}


def expand(name: str, max_order: int, pbc_size: Optional[int] = None) -> Series:
    """Series of any built-in lattice up to total order ``max_order``.

    ``pbc_size`` is the ring size of ``chain-nn-finite`` (winding walks
    included), required there and refused on every other lattice, as
    :func:`latticewalks.lattices.builtin` does.  ``chain-nnn`` is bivariate.
    """
    _check_lattice(name, pbc_size)
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if name == "chain-nnn":
        # the double steps' net displacement d has the parity of n2 and
        # |d| <= min(n1/2, n2), so the unit steps can cancel it; the summand
        # C(n1, n1/2 - d) C(n2, (n2 - d)/2) is even in d, so sum d >= 0, double
        # it and take d = 0 off once.  Read off the held triangle, the d >= 0 of
        # n2's parity pair fronts[n2 % 2][i] = C(n1, n1/2 - d) with backs[n2][i]
        # = C(n2, n2//2 - i), d = 2i + n2 % 2, and map stops at the shorter read
        rows, counts = list(_pascal_rows(max_order)), {}
        backs = [row[n // 2 :: -1] for n, row in enumerate(rows)]
        for n1 in range(0, max_order + 1, 2):
            row1, half = rows[n1], n1 // 2
            fronts = (row1[half::-2], row1[half - 1 :: -2] if half else [])
            for n2 in range(max_order - n1 + 1):
                inner = 2 * sum(map(operator.mul, fronts[n2 % 2], backs[n2]))
                inner -= 0 if n2 % 2 else row1[half] * backs[n2][0]
                if inner:
                    counts[(n1, n2)] = rows[n1 + n2][n1] * inner
        return Series(name, max_order, 2, counts)
    if name == "chain-nn-finite":
        # a closed ring walk of n steps winds c times round, |c| N <= n and n - cN even, and
        # C(n, k) of them wind c times, k = (n - cN) / 2: one binomial per winding c >= 0, 1 at
        # n = cN and stepped from n - 2 to n by n (n - 1) / (k (n - k)), counted twice for c > 0;
        # the windings of n's parity are every other one on an odd ring and all on an even one,
        # which has no closed walk of odd length
        counts, held, stride = {}, [], 1 + pbc_size % 2
        for n in range(0, max_order + 1, 3 - stride):
            for c in range(n % 2, len(held), stride):
                k = (n - c * pbc_size) // 2
                held[c] = held[c] * (n * (n - 1)) // (k * (n - k))
            if n == len(held) * pbc_size:
                held.append(1)
            walks = 2 * sum(held[n % 2 :: stride]) - (0 if n % 2 else held[0])
            if walks:
                counts[(n,)] = walks
        return Series(name, max_order, 1, counts, pbc_size)
    return Series(name, max_order, 1, _recurrence_counts(name, max_order))
