"""Exact Taylor coefficients of the walk generating functions.

Each built-in lattice has a closed combinatorial form for the number of
closed walks of length ``n`` (split by hopping label where there is more
than one label).  The walk counts are plain integers built from
binomials, and the series coefficient at a multi-index of total order
``n`` is ``count / n!``.  Everything in this module is exact: walk
counts are arbitrary-precision ints and coefficients are
:class:`fractions.Fraction`; no floating point enters at any stage.

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
hopping label, stored only where the coefficient is non-zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Optional

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class Series:
    """Truncated Taylor expansion: multi-index -> exact coefficient.

    Absent indices mean a zero coefficient.  ``label_count`` is the
    arity of every index; ``max_order`` bounds the stored total degree.
    """

    lattice: str
    max_order: int
    label_count: int
    coefficients: Mapping[MultiIndex, Fraction] = field(default_factory=dict)
    pbc_size: Optional[int] = None

    def __post_init__(self):
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")
        for index, value in self.coefficients.items():
            if len(index) != self.label_count or any(e < 0 for e in index):
                raise ValueError(f"bad multi-index {index}")
            if sum(index) > self.max_order:
                raise ValueError(f"index {index} exceeds max_order {self.max_order}")
            if not isinstance(value, Fraction):
                raise ValueError(f"coefficient at {index} is not a Fraction")

    def coefficient(self, index: MultiIndex) -> Fraction:
        if len(index) != self.label_count:
            raise ValueError(f"index arity {len(index)} != {self.label_count}")
        return self.coefficients.get(tuple(index), Fraction(0))

    def walk_count(self, index: MultiIndex) -> int:
        """n! * coefficient, the exact closed-walk count at this index."""
        count = self.coefficient(index) * math.factorial(sum(index))
        if count.denominator != 1:
            raise ValueError(f"coefficient at {index} is not of walk-count form")
        return count.numerator

    def items(self) -> list[tuple[MultiIndex, Fraction]]:
        """Coefficients in lexicographic index order (deterministic output)."""
        return sorted(self.coefficients.items())

    def evaluate(self, *values):
        """Evaluate the truncated series at the given per-label arguments."""
        if len(values) != self.label_count:
            raise ValueError(f"expected {self.label_count} argument(s)")
        total = 0
        for index, coeff in self.items():
            term = coeff
            for x, e in zip(values, index):
                term = term * x**e
            total = total + term
        return total

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

    @staticmethod
    def from_json_dict(doc: dict) -> "Series":
        coeffs = {
            tuple(entry["index"]): Fraction(int(entry["num"]), int(entry["den"]))
            for entry in doc["coefficients"]
        }
        if not coeffs:
            raise ValueError("series document has no coefficients")
        arity = len(next(iter(coeffs)))
        return Series(
            lattice=doc["lattice"],
            max_order=doc["max_order"],
            label_count=arity,
            coefficients=coeffs,
            pbc_size=doc.get("pbc_size"),
        )


def _d_grid(d_max: int) -> range:
    """Signed offsets -d_max, -d_max+2, ..., d_max (empty when d_max < 0)."""
    return range(-d_max, d_max + 1, 2)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


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


def _nnn_d2_max(n1: int, n2: int) -> int:
    # |d2| <= min(n1/2, n2) with d2 matching the parity of n2; may be
    # negative, in which case no closed walk exists
    cap = min(n1 // 2, n2)
    if (cap - n2) % 2:
        cap -= 1
    return cap


def _nnn_count(n1: int, n2: int) -> int:
    if n1 % 2:
        return 0
    inner = 0
    for d2 in _d_grid(_nnn_d2_max(n1, n2)):
        inner += math.comb(n1, (n1 - 2 * d2) // 2) * math.comb(n2, (n2 - d2) // 2)
    return math.comb(n1 + n2, n1) * inner


def _triangular_count(n: int, franel: list[int]) -> int:
    return sum(math.comb(n, k) * (-2) ** (n - k) * franel[k] for k in range(n + 1))


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


# ---------------------------------------------------------------------------
# series constructors
# ---------------------------------------------------------------------------


def _univariate(lattice: str, max_order: int, count, pbc_size: Optional[int] = None) -> Series:
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    coeffs = {}
    for n in range(max_order + 1):
        c = count(n)
        if c:
            coeffs[(n,)] = Fraction(c, math.factorial(n))
    return Series(lattice, max_order, 1, coeffs, pbc_size=pbc_size)


def chain_infinite(max_order: int) -> Series:
    """Infinite nearest-neighbour chain: coefficient 1/(v! v!) at order 2v."""
    return _univariate("chain-nn", max_order, _chain_count)


def chain_finite(pbc_size: int, max_order: int) -> Series:
    """Nearest-neighbour ring of ``pbc_size`` sites, winding walks included."""
    if pbc_size < 3:
        raise ValueError(f"pbc_size must be >= 3, got {pbc_size}")
    return _univariate(
        "chain-nn-finite", max_order, lambda n: _finite_chain_count(n, pbc_size), pbc_size
    )


def chain_nnn(max_total_order: int) -> Series:
    """Chain with unit and double steps; bivariate in the two labels."""
    if max_total_order < 0:
        raise ValueError("max_total_order must be >= 0")
    coeffs = {}
    for n1 in range(0, max_total_order + 1, 2):
        for n2 in range(max_total_order - n1 + 1):
            c = _nnn_count(n1, n2)
            if c:
                coeffs[(n1, n2)] = Fraction(c, math.factorial(n1 + n2))
    return Series("chain-nnn", max_total_order, 2, coeffs)


def triangular(max_order: int) -> Series:
    franel = [sum(math.comb(k, j) ** 3 for j in range(k + 1)) for k in range(max_order + 1)]
    return _univariate("triangular", max_order, lambda n: _triangular_count(n, franel))


def bcc(max_order: int) -> Series:
    return _univariate("bcc", max_order, _bcc_count)


def honeycomb(max_order: int) -> Series:
    return _univariate("honeycomb", max_order, _honeycomb_count)


def diamond(max_order: int) -> Series:
    return _univariate("diamond", max_order, _diamond_count)


def expand(name: str, max_order: int, pbc_size: Optional[int] = None) -> Series:
    """Series for any built-in lattice name."""
    if name == "chain-nn":
        return chain_infinite(max_order)
    if name == "chain-nn-finite":
        if pbc_size is None:
            raise ValueError("chain-nn-finite requires pbc_size")
        return chain_finite(pbc_size, max_order)
    if name == "chain-nnn":
        return chain_nnn(max_order)
    simple = {"triangular": triangular, "bcc": bcc, "honeycomb": honeycomb, "diamond": diamond}
    if name in simple:
        return simple[name](max_order)
    raise ValueError(f"unknown lattice {name!r}")


def merge_labels(series: Series, assignment: Mapping[int, int]) -> Series:
    """Identify hopping labels: re-accumulate coefficients under the map.

    ``assignment`` sends each source label 1..C to a target label; the
    targets must form a contiguous range 1..C'.  Total degree of every
    term is preserved.
    """
    sources = sorted(assignment)
    if sources != list(range(1, series.label_count + 1)):
        raise ValueError(f"assignment must cover labels 1..{series.label_count}")
    targets = sorted(set(assignment.values()))
    if targets != list(range(1, len(targets) + 1)):
        raise ValueError(f"target labels {targets} not contiguous from 1")
    merged: dict[MultiIndex, Fraction] = {}
    arity = len(targets)
    for index, coeff in series.coefficients.items():
        new = [0] * arity
        for source, exponent in enumerate(index, start=1):
            new[assignment[source] - 1] += exponent
        key = tuple(new)
        merged[key] = merged.get(key, Fraction(0)) + coeff
    return Series(series.lattice, series.max_order, arity, merged, pbc_size=series.pbc_size)
