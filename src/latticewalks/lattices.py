"""Geometry of the built-in lattice configurations.

Seven configurations are provided, keyed by name:

=================  ===  ===  =======================================================
name                D    M   hopping structure
=================  ===  ===  =======================================================
chain-nn            1    1   nearest neighbours (one label)
chain-nn-finite     1    1   ring of ``pbc_size`` sites, nearest neighbours
chain-nnn           1    1   unit steps (label 1) and double steps (label 2)
triangular          2    1   six nearest neighbours, symmetric hopping (one label)
bcc                 3    1   eight nearest neighbours, symmetric hopping
honeycomb           2    2   three A->B neighbours, bipartite
diamond             3    2   four A->B neighbours, bipartite
=================  ===  ===  =======================================================

``BUILTIN_NAMES`` is this order, the key order of the one geometry table,
where the ring shares the chain's entry.

Step displacements are stored as exact rationals in *primitive-basis
coordinates*: integral coordinates are translations of the underlying
point lattice, while the two bipartite lattices hop between sublattices
and pick up fractional offsets (thirds for honeycomb, quarters for
diamond).  Cartesian positions follow by applying ``direct_basis``; they
are irrational for the hexagonal family, which is why Cartesian tuples
are not the stored representation.

All k-space work happens on the primitive reciprocal cell, the
parallelepiped spanned by ``reciprocal_basis`` (rows ``b_i`` with
``b_i . a_j = 2*pi*delta_ij``).  Every integrand we need is periodic
under the reciprocal basis, so means over this cell equal means over any
other primitive cell, including the Wigner-Seitz one; the Wigner-Seitz
polytopes are never meshed.  This module holds geometry, the one rule,
shared by :func:`builtin` and the series, for which name and ring size
make a lattice, and two rules that the oracle and the quadrature share:
the label rule, at most ``MAX_HOPPING_LABELS`` labels and every step's
label in ``1..hopping_count``, and each step's integer move,
:func:`_integer_hops`.  Each route derives what it needs from ``steps``.
numpy, for the reciprocal basis and the cell volume, is imported by
:func:`builtin` when it is called, not with the module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal, NamedTuple, Optional

Sublattice = Literal["AtoB", "BtoA"]
# one entry per hopping label: a label's step count, or a walk length split by label
MultiIndex = tuple[int, ...]

_TWO_PI = 2.0 * math.pi

# a smaller ring does not have two distinct nearest-neighbour edges per site
MIN_RING_SIZE = 3
# the oracle counts the first label's steps on one extra axis, and the
# quadrature takes the moments as one product of two power tables, one per
# label: chain-nnn's two
MAX_HOPPING_LABELS = 2


class StepVector(NamedTuple):
    """One hopping displacement, in primitive-basis coordinates.

    A NamedTuple, so it equals the plain tuple of its fields and
    ``_replace`` makes a changed copy.
    """

    displacement: tuple[Fraction, ...]
    label: int
    sublattice: Optional[Sublattice] = None


class LatticeSpec(NamedTuple):
    """Immutable description of one lattice configuration.

    A NamedTuple, so it equals the plain tuple of its fields and
    ``_replace`` makes a changed copy.
    """

    name: str
    dimension: int
    basis_size: int
    steps: tuple[StepVector, ...]
    hopping_count: int
    direct_basis: tuple[tuple[float, ...], ...]
    reciprocal_basis: tuple[tuple[float, ...], ...]
    cell_volume: float
    # the torus side of the lattice axes; builtin sets it only for the ring
    pbc_size: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "basis_size": self.basis_size,
            "hopping_count": self.hopping_count,
            "pbc_size": self.pbc_size,
            "direct_basis": [list(row) for row in self.direct_basis],
            "reciprocal_basis": [list(row) for row in self.reciprocal_basis],
            "cell_volume": self.cell_volume,
            "steps": [
                {
                    "displacement": [str(c) for c in s.displacement],
                    "label": s.label,
                    "sublattice": s.sublattice,
                }
                for s in self.steps
            ],
        }


def _pm_pairs(
    *vectors: tuple[tuple[Fraction, ...], int], sublattice: Optional[Sublattice] = None
) -> tuple[StepVector, ...]:
    # each step, then its reverse: negated, and between the sublattices the other way
    back = {"AtoB": "BtoA", "BtoA": "AtoB"}.get(sublattice)
    steps = []
    for coords, label in vectors:
        reverse = StepVector(tuple(-c for c in coords), label, back)
        steps += [StepVector(coords, label, sublattice), reverse]
    return tuple(steps)


def _fr(*nums) -> tuple[Fraction, ...]:
    return tuple(Fraction(n) for n in nums)


_SQ3 = math.sqrt(3.0)

# direct primitive bases (rows are the translation vectors a_p) and step sets
_GEOMETRY = {
    "chain-nn": (_CHAIN_NN := dict(
        basis=((1.0,),),
        steps=_pm_pairs((_fr(1), 1)),
    )),
    # the ring is the chain on a torus: builtin adds only its pbc_size
    "chain-nn-finite": _CHAIN_NN,
    "chain-nnn": dict(
        basis=((1.0,),),
        steps=_pm_pairs((_fr(1), 1), (_fr(2), 2)),
    ),
    "triangular": dict(
        basis=((1.0, 0.0), (-0.5, _SQ3 / 2.0)),
        steps=_pm_pairs((_fr(1, 0), 1), (_fr(0, 1), 1), (_fr(-1, -1), 1)),
    ),
    "bcc": dict(
        basis=((0.5, 0.5, 0.5), (-0.5, -0.5, 0.5), (-0.5, 0.5, -0.5)),
        steps=_pm_pairs(
            (_fr(1, 0, 0), 1),
            (_fr(0, 1, 0), 1),
            (_fr(0, 0, 1), 1),
            (_fr(-1, -1, -1), 1),
        ),
    ),
    # honeycomb shares the triangular point lattice, so we reuse the same
    # primitive basis and hence the identical reciprocal cell
    "honeycomb": dict(
        basis=((1.0, 0.0), (-0.5, _SQ3 / 2.0)),
        steps=_pm_pairs(
            ((Fraction(-1, 3), Fraction(-2, 3)), 1),
            ((Fraction(2, 3), Fraction(1, 3)), 1),
            ((Fraction(-1, 3), Fraction(1, 3)), 1),
            sublattice="AtoB",
        ),
    ),
    "diamond": dict(
        basis=((0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)),
        steps=_pm_pairs(
            ((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)), 1),
            ((Fraction(-3, 4), Fraction(1, 4), Fraction(1, 4)), 1),
            ((Fraction(1, 4), Fraction(-3, 4), Fraction(1, 4)), 1),
            ((Fraction(1, 4), Fraction(1, 4), Fraction(-3, 4)), 1),
            sublattice="AtoB",
        ),
    ),
}
BUILTIN_NAMES = tuple(_GEOMETRY)


def _integer_coords(coords: tuple[Fraction, ...]) -> tuple[int, ...]:
    if any(c.denominator != 1 for c in coords):
        raise ValueError(f"expected integral lattice coordinates, got {coords}")
    return tuple(c.numerator for c in coords)


def _integer_hops(spec: LatticeSpec) -> list[tuple[int, ...]]:
    """Each step's move as a lattice translation, in the order of ``spec.steps``.

    On one sublattice a move is the step's displacement.  On two it is
    measured from the first A->B displacement ``e0``: ``d - e0`` for an
    A->B step and ``d + e0`` for a B->A one.
    """
    if spec.basis_size == 1:
        return [_integer_coords(s.displacement) for s in spec.steps]
    e0 = next((s.displacement for s in spec.steps if s.sublattice == "AtoB"), (0,) * spec.dimension)
    return [
        _integer_coords(
            tuple(d - e if s.sublattice == "AtoB" else d + e for d, e in zip(s.displacement, e0))
        )
        for s in spec.steps
    ]


def _check_ring_size(pbc_size: int) -> None:
    if pbc_size < MIN_RING_SIZE:
        raise ValueError(f"pbc_size must be >= {MIN_RING_SIZE}, got {pbc_size}")


def _check_labels(spec: LatticeSpec) -> None:
    """Refuse more than ``MAX_HOPPING_LABELS`` labels, or a step labelled outside them."""
    if spec.hopping_count > MAX_HOPPING_LABELS:
        raise ValueError(f"at most {MAX_HOPPING_LABELS} hopping labels, got {spec.hopping_count}")
    for step in spec.steps:
        if not 1 <= step.label <= spec.hopping_count:
            raise ValueError(f"step label {step.label} is outside 1..{spec.hopping_count}")


def _check_lattice(name: str, pbc_size: Optional[int]) -> None:
    """Refuse a lattice input unless ``name`` is built in and ``pbc_size`` is given,
    and at least ``MIN_RING_SIZE``, for ``chain-nn-finite`` and for no other lattice."""
    if name not in _GEOMETRY:
        raise ValueError(f"unknown lattice {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    if name == "chain-nn-finite":
        if pbc_size is None:
            raise ValueError("chain-nn-finite requires pbc_size")
        _check_ring_size(pbc_size)
    elif pbc_size is not None:
        raise ValueError(f"pbc_size is only meaningful for chain-nn-finite, not {name}")


def _reciprocal_basis(basis: tuple[tuple[float, ...], ...]) -> tuple[tuple[float, ...], ...]:
    import numpy as np

    a = np.asarray(basis, dtype=float)
    b = _TWO_PI * np.linalg.inv(a).T
    return tuple(tuple(float(x) for x in row) for row in b)


def builtin(name: str, pbc_size: Optional[int] = None) -> LatticeSpec:
    """Return the built-in configuration ``name``.

    ``pbc_size`` is required for ``chain-nn-finite`` (at least
    ``MIN_RING_SIZE``) and rejected for every other lattice.
    """
    import numpy as np

    _check_lattice(name, pbc_size)
    basis, steps = _GEOMETRY[name]["basis"], _GEOMETRY[name]["steps"]
    return LatticeSpec(
        name=name,
        dimension=len(basis),
        basis_size=2 if steps[0].sublattice else 1,
        steps=steps,
        hopping_count=max(s.label for s in steps),
        direct_basis=basis,
        reciprocal_basis=_reciprocal_basis(basis),
        # (2 pi)^D / |det a|, not |det b|: b is a rounded inverse, and its
        # determinant misses the closed forms (2 pi, 16 pi^3, ...) by an ulp or two
        cell_volume=_TWO_PI ** len(basis) / abs(float(np.linalg.det(np.asarray(basis)))),
        pbc_size=pbc_size,
    )

