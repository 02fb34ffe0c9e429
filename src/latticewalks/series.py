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
winding numbers, each a binomial read off one row of Pascal's triangle,
built by additions one row per order, and the bivariate ``chain-nnn``
sums the double steps' net displacement, so ``verify --recurrence``
checks the paper's recurrence against counts not built from it.  The
binomial closed forms of the five recurrences (Domb, Adv. Phys. 9 (1960)
149) are kept as the test reference.

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
from typing import Mapping, NamedTuple, Optional

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
    a = list(first[: max(last + 1, 0)])
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
        counts = {}
        for n1 in range(0, max_order + 1, 2):
            for n2 in range(max_order - n1 + 1):
                c = _nnn_count(n1, n2)
                if c:
                    counts[(n1, n2)] = c
        return Series(name, max_order, 2, counts)
    if name == "chain-nn-finite":
        # a closed ring walk's net displacement d is a multiple of the ring size,
        # |d| <= n and n + d even: its count is C(n, (n + d) / 2), read off row n
        # of Pascal's triangle, which is built one row per order
        counts, row = {}, [1]
        for n in range(max_order + 1):
            reach = n // pbc_size * pbc_size
            c = sum(row[(n + d) // 2] for d in range(-reach, n + 1, pbc_size) if (n + d) % 2 == 0)
            if c:
                counts[(n,)] = c
            row = list(map(operator.add, [0, *row], [*row, 0]))
        return Series(name, max_order, 1, counts, pbc_size)
    return Series(name, max_order, 1, _recurrence_counts(name, max_order))
