import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dispersion_value
from latticewalks import (
    BUILTIN_NAMES,
    CoefficientRecord,
    LatticeSpec,
    RecurrenceReport,
    Series,
    SquareTestRecord,
    StepVector,
    VerificationReport,
    WalkTally,
    appendix_b_report,
    auto_grid_size,
    builtin,
    expand,
)
from latticewalks.quadrature import _band, complex_chain_z, ring_harmonics


def make(name):
    return builtin(name, 6 if name == "chain-nn-finite" else None)


def band_value(spec, label, k):
    """The quadrature's harmonics of one label, evaluated at Cartesian ``k``."""
    a = np.asarray(spec.direct_basis)
    return sum(
        amp * math.cos(float(np.asarray(k, dtype=float) @ (np.asarray(freq, dtype=float) @ a)))
        for freq, amp in _band(spec)[label - 1]
    )


def assert_band(spec, label, k, expected):
    value = band_value(spec, label, k)
    assert value == pytest.approx(expected, abs=1e-12)
    assert dispersion_value(spec, label, k) == pytest.approx(value, abs=1e-12)


ALL_SPECS = [make(name) for name in BUILTIN_NAMES]


def test_builtin_names_complete():
    assert BUILTIN_NAMES == (
        "chain-nn",
        "chain-nn-finite",
        "chain-nnn",
        "triangular",
        "bcc",
        "honeycomb",
        "diamond",
    )


@pytest.mark.parametrize(
    "name,dim,basis,labels,n_steps",
    [
        ("chain-nn", 1, 1, 1, 2),
        ("chain-nn-finite", 1, 1, 1, 2),
        ("chain-nnn", 1, 1, 2, 4),
        ("triangular", 2, 1, 1, 6),
        ("bcc", 3, 1, 1, 8),
        ("honeycomb", 2, 2, 1, 6),
        ("diamond", 3, 2, 1, 8),
    ],
)
def test_builtin_shape(name, dim, basis, labels, n_steps):
    spec = make(name)
    assert spec.dimension == dim
    assert spec.basis_size == basis
    assert spec.hopping_count == labels
    assert {s.label for s in spec.steps} == set(range(1, labels + 1))
    assert len(spec.steps) == n_steps
    assert len(_band(spec)) == labels


def test_builtin_errors():
    with pytest.raises(ValueError):
        builtin("kagome")
    with pytest.raises(ValueError):
        builtin("chain-nn-finite")
    with pytest.raises(ValueError):
        builtin("chain-nn-finite", 2)
    with pytest.raises(ValueError):
        builtin("triangular", 5)


def _refusal(call):
    """The text of the ValueError that ``call()`` raises, or None when it succeeds."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@settings(deadline=None)
@given(
    name=st.sampled_from(BUILTIN_NAMES + ("kagome",)),
    pbc=st.sampled_from([None, -1, 0, 2, 3, 4, 7]),
)
def test_one_rule_for_lattice_names_and_ring_sizes(name, pbc):
    # builtin and expand take or refuse the same inputs, with the same text
    refused = _refusal(lambda: builtin(name, pbc))
    assert _refusal(lambda: expand(name, 0, pbc)) == refused
    ring = name == "chain-nn-finite"
    sized = pbc is None or pbc >= 3
    valid = name in BUILTIN_NAMES and (pbc is not None) == ring and sized
    assert (refused is None) == valid
    if pbc is None:
        return
    # the ring functions refuse a ring size with the ring's text, exactly when it is below 3
    ring_refused = _refusal(lambda: builtin("chain-nn-finite", pbc))
    assert (ring_refused is not None) == (pbc < 3)
    for call in (
        lambda: complex_chain_z(pbc, 0.5, 0.0),
        lambda: ring_harmonics(pbc, 0.5),
        lambda: appendix_b_report(pbc, 0.5),
    ):
        assert _refusal(call) == ring_refused


def test_steps_closed_under_negation():
    # a step's reverse has the negated displacement, and a hop from A to B goes from B to A
    reverse = {None: None, "AtoB": "BtoA", "BtoA": "AtoB"}
    for spec in ALL_SPECS:
        keyed = {(s.displacement, s.label, s.sublattice) for s in spec.steps}
        for s in spec.steps:
            assert (tuple(-c for c in s.displacement), s.label, reverse[s.sublattice]) in keyed
            assert any(c != 0 for c in s.displacement)


def test_bipartite_flags():
    for spec in ALL_SPECS:
        for s in spec.steps:
            assert (s.sublattice is None) == (spec.basis_size == 1), (spec.name, s)
    hc = make("honeycomb")
    assert {s.sublattice for s in hc.steps} == {"AtoB", "BtoA"}
    assert sum(s.sublattice == "AtoB" for s in hc.steps) == 3
    dia = make("diamond")
    assert sum(s.sublattice == "AtoB" for s in dia.steps) == 4
    # diamond A->B steps sit at quarter coordinates with an even sign count
    for s in dia.steps:
        assert {c.denominator for c in s.displacement} <= {1, 2, 4}


def test_cell_volumes():
    vols = {spec.name: spec.cell_volume for spec in ALL_SPECS}
    # (2 pi)^D / |det a| lands on each closed form's float exactly
    assert vols["chain-nn"] == vols["chain-nn-finite"] == 2 * math.pi
    assert vols["chain-nnn"] == 2 * math.pi
    assert vols["bcc"] == 16 * math.pi**3
    assert vols["diamond"] == 32 * math.pi**3
    # honeycomb reuses the triangular point lattice, hence the same cell
    assert vols["triangular"] == 8 * math.pi**2 / math.sqrt(3)
    assert vols["honeycomb"] == vols["triangular"]
    for spec in ALL_SPECS:
        det = abs(np.linalg.det(np.asarray(spec.reciprocal_basis)))
        assert det == pytest.approx(spec.cell_volume)


def test_reciprocal_basis_dual():
    for spec in ALL_SPECS:
        a = np.asarray(spec.direct_basis)
        b = np.asarray(spec.reciprocal_basis)
        assert np.allclose(b @ a.T, 2 * math.pi * np.eye(spec.dimension), atol=1e-12)


def test_translations_compatible_with_reciprocal_cell():
    # single-sublattice steps are translations: v.b in 2*pi*Z
    for spec in ALL_SPECS:
        a = np.asarray(spec.direct_basis)
        b = np.asarray(spec.reciprocal_basis)
        if spec.basis_size == 1:
            vectors = [s.displacement for s in spec.steps]
        else:
            fwd = [s.displacement for s in spec.steps if s.sublattice == "AtoB"]
            vectors = [tuple(x - y for x, y in zip(u, v)) for u in fwd for v in fwd]
        for vec in vectors:
            cart = np.array([float(c) for c in vec]) @ a
            phase = b @ cart / (2 * math.pi)
            assert np.allclose(phase, np.round(phase), atol=1e-9)


def test_dispersion_examples():
    assert_band(make("chain-nn"), 1, (0.0,), 2.0)
    assert_band(make("triangular"), 1, (0.0, 0.0), 6.0)
    assert_band(make("bcc"), 1, (2 * math.pi, 0.0, 0.0), -8.0)
    # double-step label of the nnn chain oscillates twice as fast
    spec = make("chain-nnn")
    for k in (0.3, 1.2):
        assert_band(spec, 1, (k,), 2 * math.cos(k))
        assert_band(spec, 2, (k,), 2 * math.cos(2 * k))


def test_two_band_kernel_matches_step_sum():
    # the quadrature's kernel must equal |sum_i exp(i k.e_i)|^2 built from the steps
    rng = [(0.0, 0.0), (0.7, -1.3), (2.1, 0.4)]
    for name in ("honeycomb", "diamond"):
        spec = make(name)
        for k in [np.array(k + (0.9,))[: spec.dimension] for k in rng]:
            assert band_value(spec, 1, k) == pytest.approx(dispersion_value(spec, 1, k), abs=1e-12)


def _cartesian_steps(spec, forward_only=False):
    a = np.asarray(spec.direct_basis)
    steps = spec.steps
    if forward_only:
        steps = [s for s in steps if s.sublattice == "AtoB"]
    return sorted(
        tuple(np.round(np.array([float(c) for c in s.displacement]) @ a, 12)) for s in steps
    )


def test_cartesian_step_positions():
    s3 = math.sqrt(3.0)
    assert _cartesian_steps(make("chain-nn")) == [(-1.0,), (1.0,)]
    assert _cartesian_steps(make("triangular")) == sorted(
        [
            (1.0, 0.0), (-1.0, 0.0),
            (-0.5, round(s3 / 2, 12)), (0.5, -round(s3 / 2, 12)),
            (-0.5, -round(s3 / 2, 12)), (0.5, round(s3 / 2, 12)),
        ]
    )
    bcc_steps = _cartesian_steps(make("bcc"))
    assert bcc_steps == sorted(
        tuple(0.5 * x for x in signs)
        for signs in [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    )
    assert _cartesian_steps(make("honeycomb"), forward_only=True) == sorted(
        [(0.0, -round(s3 / 3, 12)), (0.5, round(s3 / 6, 12)), (-0.5, round(s3 / 6, 12))]
    )
    diamond_fwd = _cartesian_steps(make("diamond"), forward_only=True)
    assert diamond_fwd == sorted(
        [(0.25, 0.25, 0.25), (-0.25, -0.25, 0.25), (-0.25, 0.25, -0.25), (0.25, -0.25, -0.25)]
    )
    for step in diamond_fwd:
        assert np.prod(np.sign(step)) == 1.0  # even number of minus signs


def test_kernel_values_at_zone_centre():
    assert_band(make("honeycomb"), 1, (0.0, 0.0), 9.0)
    assert_band(make("diamond"), 1, (0.0, 0.0, 0.0), 16.0)


def test_dispersion_label_errors():
    spec = make("triangular")
    # one harmonic tuple per label, each frequency with one component per axis; the six
    # steps are three +- pairs, each merged into one harmonic
    assert [len(freq) for harmonics in _band(spec) for freq, _ in harmonics] == [2] * 3
    with pytest.raises(ValueError):
        dispersion_value(spec, 0, (0.0, 0.0))
    with pytest.raises(ValueError):
        dispersion_value(spec, 2, (0.0, 0.0))
    with pytest.raises(ValueError):
        dispersion_value(spec, 1, (0.0, 0.0, 0.0))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dispersion_even_and_periodic(data):
    name = data.draw(st.sampled_from(BUILTIN_NAMES))
    spec = make(name)
    k = np.array(
        data.draw(
            st.lists(
                st.floats(-10, 10, allow_nan=False),
                min_size=spec.dimension,
                max_size=spec.dimension,
            )
        )
    )
    for label in range(1, spec.hopping_count + 1):
        val = band_value(spec, label, k)
        assert dispersion_value(spec, label, k) == pytest.approx(val, abs=1e-9)
        assert band_value(spec, label, -k) == pytest.approx(val, abs=1e-9)
        for b in np.asarray(spec.reciprocal_basis):
            assert band_value(spec, label, k + b) == pytest.approx(val, abs=1e-8)


def _bandwidth(harmonics):
    return max(abs(c) for freq, _ in harmonics for c in freq)


def test_bandwidths():
    # the grid rule's h is the largest frequency component of any harmonic
    for spec in ALL_SPECS:
        if spec.pbc_size is None and spec.basis_size == 1:
            assert auto_grid_size(spec, 1) == max(map(_bandwidth, _band(spec))) + 1
    assert _bandwidth(_band(make("chain-nnn"))[1]) == 2
    assert _bandwidth(_band(make("honeycomb"))[0]) == 1
    assert _bandwidth(_band(make("bcc"))[0]) == 1


def test_spec_json_document():
    for spec in ALL_SPECS:
        doc = spec.to_json_dict()
        text = json.dumps(doc)  # must be JSON-serialisable as is
        parsed = json.loads(text)
        assert parsed["name"] == spec.name
        assert len(parsed["steps"]) == len(spec.steps)
        assert parsed["pbc_size"] == spec.pbc_size
        assert parsed["steps"][0].keys() == {"displacement", "label", "sublattice"}


def test_spec_immutable():
    spec = make("triangular")
    with pytest.raises(AttributeError):
        spec.name = "other"
    for name in BUILTIN_NAMES:
        assert make(name) == make(name) and hash(make(name)) == hash(make(name))


_STEP = StepVector((Fraction(1, 2),), 1, "AtoB")
_RECORD = CoefficientRecord((2,), Fraction(1), 2, 3, 1.0, 0.0, 0.0, True)

# one record of each type, and its repr
RECORDS = [
    (_STEP, "StepVector(displacement=(Fraction(1, 2),), label=1, sublattice='AtoB')"),
    (
        LatticeSpec("ring", 1, 2, (_STEP,), 1, ((1.0,),), ((6.5,),), 6.5, 3),
        "LatticeSpec(name='ring', dimension=1, basis_size=2, steps=(StepVector("
        "displacement=(Fraction(1, 2),), label=1, sublattice='AtoB'),), hopping_count=1, "
        "direct_basis=((1.0,),), reciprocal_basis=((6.5,),), cell_volume=6.5, pbc_size=3)",
    ),
    (
        WalkTally("bcc", 2, {(2,): 8}),
        "WalkTally(lattice='bcc', length=2, counts={(2,): 8}, sublattice_doubled=False)",
    ),
    (
        Series("chain-nn", 2, 1, {(0,): 1, (2,): 2}),
        "Series(lattice='chain-nn', max_order=2, label_count=1, counts={(0,): 1, (2,): 2}, "
        "pbc_size=None)",
    ),
    (
        _RECORD,
        "CoefficientRecord(index=(2,), exact=Fraction(1, 1), oracle_count=2, grid_points=3, "
        "numeric=1.0, abs_error=0.0, rel_error=0.0, passed=True)",
    ),
    (
        VerificationReport("chain-nn", None, 2, "auto", (_RECORD,)),
        "VerificationReport(lattice='chain-nn', pbc_size=None, max_order=2, grid_policy='auto', "
        "records=(CoefficientRecord("
        "index=(2,), exact=Fraction(1, 1), oracle_count=2, grid_points=3, numeric=1.0, "
        "abs_error=0.0, rel_error=0.0, passed=True),))",
    ),
    (
        RecurrenceReport(2, 6, ((0, 1, "1/2"),)),
        "RecurrenceReport(max_total_order=2, checked=6, violations=((0, 1, '1/2'),))",
    ),
    (
        SquareTestRecord(2, Fraction(4), True, Fraction(2)),
        "SquareTestRecord(order=2, value=Fraction(4, 1), is_square=True, root=Fraction(2, 1))",
    ),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_immutable_named_tuples(record, text):
    assert repr(record) == text
    for name in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record
    # a record is the tuple of its fields
    assert record == tuple(record) and len(record) == len(record._fields)
    assert record._replace() == record
