import functools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RECORD_CONSTRUCTIONS, reference_records
from latticewalks import (
    BUILTIN_NAMES,
    VerificationReport,
    appendix_b_report,
    builtin,
    check_square_conjecture,
    Series,
    expand,
    verify_identity,
    verify_recurrence,
)
from latticewalks import oracle, quadrature, series
from latticewalks.cli import main
from latticewalks.oracle import ORACLE_BOUNDS
from latticewalks.verify import _rational_sqrt


def _stop_before_any_route(monkeypatch):
    # verify_identity checks its own inputs before it builds a lattice, a series or a grid
    def ran(*args, **kwargs):
        raise AssertionError("verify_identity ran past its input checks")

    for target in ("verify.builtin", "series.expand", "quadrature.moments"):
        monkeypatch.setattr(f"latticewalks.{target}", ran)


@pytest.mark.parametrize("name, order", [("chain-nn", 30), ("chain-nnn", 20), ("bcc", 12)])
def test_moments_and_records_come_in_index_order(name, order):
    # verify_identity walks the moments as they come, so they must come sorted
    spec = builtin(name)
    keys = list(quadrature.moments(spec, order, quadrature.auto_grid_size(spec, order)))
    assert keys == sorted(keys)
    indices = [r.index for r in verify_identity(name, order).records]
    assert indices == sorted(indices) == keys


def _fields(record):
    # floats by their bits, None where it stands
    return tuple(v.hex() if type(v) is float else v for v in record)


_SINGLE_NAMES = [name for name in BUILTIN_NAMES if name != "chain-nn-finite"]


@pytest.mark.parametrize(
    "name, order, pbc, grid",
    [(name, order, None, "auto") for name in _SINGLE_NAMES for order in (0, 1, 2, 3, 12, 60)]
    + [("chain-nn-finite", order, ring, "auto") for ring in range(3, 9) for order in (0, 3, 12, 60)]
    + [("chain-nnn", 100, None, "auto"), ("triangular", 12, None, 3), ("chain-nn", 12, None, 2)]
    # bcc on aliased hand-set grids: the chamber on an odd one, the domain on an even one
    + [("bcc", 12, None, 5), ("bcc", 12, None, 6)],
)
def test_records_match_the_one_at_a_time_reference(name, order, pbc, grid):
    # the columns keep each record's own operands and association: every field the same,
    # floats to the bit, passes and failures alike
    report = verify_identity(name, order, pbc, grid)
    assert type(report.records) is tuple
    reference = reference_records(name, order, pbc, grid)
    assert list(map(_fields, report.records)) == list(map(_fields, reference))
    if grid != "auto":
        assert report.failed > 0


def test_tolerances_validate(monkeypatch):
    # the pass bound is worked out from the run: there is no tolerance to take or to carry
    _stop_before_any_route(monkeypatch)
    with pytest.raises(TypeError, match="unexpected keyword argument 'tolerances'"):
        verify_identity("chain-nn", 4, tolerances=(1e-9, 1e-12))
    with pytest.raises(ImportError):
        from latticewalks import Tolerances  # noqa: F401
    assert "tolerances" not in VerificationReport._fields


@functools.lru_cache(maxsize=None)
def _aliased_report():
    return verify_identity("chain-nn", 6, grid=2)


@pytest.mark.parametrize("path", RECORD_CONSTRUCTIONS)
@pytest.mark.parametrize("field", ["relative", "zero_abs"])
@pytest.mark.parametrize("value", [0.0, -1e-9, math.nan, math.inf])
def test_tolerances_validate_on_every_construction(monkeypatch, path, field, value):
    # an infinite tolerance would pass every record, aliased grids too: none gets in, by a
    # tolerance's field name or as a fifth argument, and a report however made carries none
    report = RECORD_CONSTRUCTIONS[path](_aliased_report(), {})
    assert report == _aliased_report() and report.failed > 0
    assert "tolerances" not in report.to_json_dict()
    _stop_before_any_route(monkeypatch)
    with pytest.raises(TypeError):
        verify_identity("chain-nn", 6, grid=2, **{field: value})
    with pytest.raises(TypeError):
        verify_identity("chain-nn", 6, None, 2, {field: value})


@pytest.mark.parametrize("grid", [2.5, 2.0, True, False, 0, -3, "3", "AUTO", None])
def test_verify_identity_refuses_a_bad_grid(monkeypatch, grid):
    _stop_before_any_route(monkeypatch)
    message = f'^grid must be "auto" or an int >= 1, got {re.escape(repr(grid))}$'
    with pytest.raises(ValueError, match=message):
        verify_identity("chain-nn", 4, grid=grid)


@pytest.mark.parametrize(
    "name,order,pbc",
    [
        ("triangular", 6, None),
        ("chain-nn", 10, None),
        ("diamond", 8, None),
        ("chain-nn-finite", 8, 4),
        ("chain-nnn", 8, None),
    ],
)
def test_verify_identity_passes(name, order, pbc):
    report = verify_identity(name, order, pbc)
    assert report.failed == 0
    assert report.checked == report.passed
    assert report.lattice == name


# every built-in at a high order on its auto grid; the ring is the 7-site one
HIGH_ORDERS = [
    ("chain-nn", 170),
    ("chain-nn-finite", 170),
    ("chain-nnn", 100),
    ("triangular", 170),
    ("honeycomb", 170),
    ("bcc", 100),
    ("bcc", 170),
    ("diamond", 150),
]


def _high_order_report(name, order):
    return verify_identity(name, order, 7 if name == "chain-nn-finite" else None)


def _float_route_pinned(report):
    """Every quadrature value is within 1e-13 of its coefficient: relative, or absolute at 0.

    Every built-in lands within 7e-15 of either, well inside the
    rounding bound that decides a record's pass; the pin holds the float
    route to that accuracy even where the bound, which grows with the
    order and the band, is looser than 1e-13.
    """
    return report.worst_rel_error <= 1e-13 and all(
        r.abs_error <= 1e-13 for r in report.records if r.rel_error is None
    )


@pytest.mark.parametrize("name,order", HIGH_ORDERS)
def test_verify_identity_high_order_on_one_grid(name, order):
    report = _high_order_report(name, order)
    assert report.failed == 0
    assert len({r.grid_points for r in report.records}) == 1
    assert _float_route_pinned(report)


def test_verify_identity_record_contents():
    report = verify_identity("triangular", 6)
    by_index = {r.index: r for r in report.records}
    assert by_index[(6,)].exact == Fraction(17, 6)
    assert by_index[(6,)].oracle_count == 2040
    assert by_index[(6,)].rel_error <= 1e-9
    assert by_index[(1,)].exact == 0
    assert by_index[(1,)].rel_error is None
    assert by_index[(1,)].abs_error <= 1e-12
    # indices are enumerated in lexicographic order
    indices = [r.index for r in report.records]
    assert indices == sorted(indices)


def test_verify_identity_coarse_grid_fails():
    # a fixed 3-point grid aliases the order-6 moments
    report = verify_identity("triangular", 6, grid=3)
    assert report.failed > 0 and report.grid_policy == "3"


def test_verify_summary_counts_a_failing_report():
    # a 4-point grid aliases bcc's moments past order 6: 5 of its 13 records fail
    summary = verify_identity("bcc", 12, grid=4).to_json_dict()["summary"]
    assert (summary["checked"], summary["passed"], summary["failed"]) == (13, 8, 5)


def test_verify_identity_deterministic():
    a = verify_identity("bcc", 8)
    b = verify_identity("bcc", 8)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_verify_identity_report_document():
    doc = verify_identity("honeycomb", 6).to_json_dict()
    summary = doc["summary"]
    assert summary.pop("worst_rel_error") <= 1e-9
    assert summary == {"checked": 7, "passed": 7, "failed": 0, "oracle_max_order": 6}
    # the pass bound is worked out from the run, so the document carries no tolerance
    assert "tolerances" not in doc
    assert list(doc) == ["lattice", "pbc_size", "max_order", "grid_policy", "summary", "records"]
    assert [r["index"] for r in doc["records"]] == [str(n) for n in range(7)]
    record = doc["records"][-1]
    assert record["exact_num"] == "31" and record["exact_den"] == "120"


def test_verify_summary_reports_oracle_coverage():
    # bcc is oracle-checked only up to its length bound, and the summary says so
    report = verify_identity("bcc", 12)
    summary = report.to_json_dict()["summary"]
    assert summary["oracle_max_order"] == ORACLE_BOUNDS[3] == 8
    assert [r.oracle_count is not None for r in report.records] == [
        sum(r.index) <= 8 for r in report.records
    ]
    errors = [r.rel_error for r in report.records if r.rel_error is not None]
    assert summary["worst_rel_error"] == max(errors) <= 1e-9
    assert verify_identity("chain-nn", 5).oracle_max_order == 5
    empty = report._replace(records=())
    assert empty.oracle_max_order is None and empty.worst_rel_error is None


def test_verify_recurrence_base_cases():
    # hand-checked instances of the coefficient recurrence
    table = expand("chain-nnn", 6)
    l = table.coefficient
    assert 2 * 1 * l((2, 0)) - 1 * l((0, 1)) - 2 * l((0, 0)) == 0
    assert 12 * l((4, 1)) - 2 * l((2, 2)) - 2 * l((2, 1)) == 0


def test_verify_recurrence_full():
    # order 300, past the 170 that the CLI reaches, checks the paper's recurrence
    # against Pascal-row counts
    for order in (12, 300):
        report = verify_recurrence(order)
        assert report.failed == 0
        assert report.checked == sum(n + 1 for n in range(order + 1))
    # the recurrence holds from n1 + n2 = 0: orders 0 and 1 check 1 and 3 points
    for order, points in ((0, 1), (1, 3)):
        assert verify_recurrence(order) == (order, points, ())
    with pytest.raises(ValueError):
        verify_recurrence(-1)


def test_recurrence_violations_on_the_coefficient_scale(monkeypatch):
    # one bumped walk count breaks exactly the three recurrences it enters,
    # and each residual is the rational one of the coefficient recurrence
    true = expand("chain-nnn", 18)
    bumped = Series("chain-nnn", 18, 2, {**true.counts, (4, 3): true.walk_count((4, 3)) + 1})

    def fake_expand(name, max_order, pbc_size=None):
        assert (name, max_order) == ("chain-nnn", 18)
        return bumped

    monkeypatch.setattr("latticewalks.series.expand", fake_expand)
    l = bumped.coefficient
    expected = []
    for n1 in range(17):
        for n2 in range(17 - n1):
            residual = (
                (n1 + 2) * (n1 + 1) * l((n1 + 2, n2)) - (n2 + 1) * l((n1, n2 + 1)) - 2 * l((n1, n2))
            )
            if residual:
                expected.append((n1, n2, str(residual)))
    assert [(n1, n2) for n1, n2, _ in expected] == [(2, 3), (4, 2), (4, 3)]
    report = verify_recurrence(16)
    assert report.violations == tuple(expected)
    assert report.failed == 3


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 170).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 8**n))))
def test_int_quotient_is_the_fraction_float(case):
    # verify_identity's approx is walks / n!: both sides are the correctly
    # rounded float of the same rational
    n, c = case
    assert c / math.factorial(n) == float(Fraction(c, math.factorial(n)))


def test_square_conjecture_examples():
    records = {r.order: r for r in check_square_conjecture(12)}
    assert records[4].root == 3
    assert records[6].value == Fraction(100, 9) and records[6].root == Fraction(10, 3)
    assert records[12].value == Fraction(5929, 3600) and records[12].root == Fraction(77, 60)


def test_square_conjecture_holds_to_thirty():
    records = check_square_conjecture(30)
    assert len(records) == 16
    for record in records:
        assert record.is_square
        assert record.root * record.root == record.value


def test_rational_sqrt_refuses_negatives_and_non_squares():
    assert _rational_sqrt(Fraction(-4, 9)) is None
    assert _rational_sqrt(Fraction(2, 9)) is None
    assert _rational_sqrt(Fraction(4, 3)) is None
    assert _rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)


def test_square_conjecture_validates():
    with pytest.raises(ValueError):
        check_square_conjecture(-2)


def test_appendix_b_report_contents():
    report = appendix_b_report(4, 0.5, phi_half=True)
    kinds = [r["kind"] for r in report["records"]]
    assert kinds.count("fourier_a") == 3  # d = 0, 4, 8
    assert kinds.count("fourier_a_selection") == 6
    assert "phi_half" in kinds and "phi_pi" in kinds
    # the bound of appendix_b_report's docstring, with N = 4 sites and rho = 0.5
    rounds = 2 * 0.5 + math.log2(4 * report["phi_points"]) + 1
    for record in report["records"]:
        assert record["pass"]
        assert record["residual"] <= 4 * (rounds + (record["d"] or 0)) * 2.0**-53


def test_appendix_b_odd_ring_carries_phi_half():
    # the cosine series reference holds at every phase, odd rings included
    for pbc in (3, 5, 7):
        records = appendix_b_report(pbc, 0.5, phi_half=True)["records"]
        assert [r["pass"] for r in records if r["kind"] == "phi_half"] == [True]
        assert "phi_pi" in {r["kind"] for r in records}
    with pytest.raises(ValueError):
        appendix_b_report(2, 0.5)


# ---------------------------------------------------------------------------
# route mutations: one planted defect at a time fails verify on that route only
# ---------------------------------------------------------------------------


def _verify_all(capsys, max_order):
    """Exit code and {lattice: report document} of ``verify --all`` at ``max_order``."""
    code = main(["verify", "--all", "--max-order", str(max_order)])
    reports = json.loads(capsys.readouterr().out)["reports"]
    return code, {report["lattice"]: report for report in reports}


def _oracle_agrees(record, report):
    """The record's oracle count, where it has one, is n! times its exact coefficient."""
    if record["oracle"] == "":
        return True
    exact = Fraction(int(record["exact_num"]), int(record["exact_den"]))
    return int(record["oracle"]) == exact * math.factorial(record["order"])


def _numeric_agrees(record, report):
    """The record's quadrature value is within the rounding bound of its coefficient:
    ``4 (n + D log2 N) 2**-53 w prod_l z_l**m_l / m_l!``, with ``z_l`` label ``l``'s
    steps per site, the A->B steps and ``w = 2`` on two sublattices (else ``w = 1``)."""
    spec = builtin(report["lattice"], report["pbc_size"])
    forward = [s for s in spec.steps if s.sublattice != "BtoA"]
    index = [int(m) for m in record["index"].split()]
    largest = spec.basis_size * math.prod(
        Fraction(sum(s.label == label for s in forward) ** m, math.factorial(m))
        for label, m in enumerate(index, 1)
    )
    rounds = record["order"] + spec.dimension * math.log2(record["grid_points"])
    return record["abs_error"] <= 4 * rounds * 2.0**-53 * float(largest)


def _assert_one_route_fails(reports, at_fault, sound):
    """Every lattice fails; a record passes exactly where the route ``at_fault`` agrees,
    and the ``sound`` route agrees on every record."""
    assert list(reports) == list(BUILTIN_NAMES)
    for name, report in reports.items():
        records = report["records"]
        assert report["summary"]["failed"] > 0, name
        assert all(sound(r, report) for r in records), name
        assert [r["pass"] for r in records] == [at_fault(r, report) for r in records], name


def test_a_doubled_oracle_move_pair_fails_the_oracle_only(capsys, monkeypatch):
    closed_walks = oracle.closed_walks

    def one_pair_twice(spec, max_length):
        # a +- pair keeps the moves closed under negation, which the oracle requires
        return closed_walks(spec._replace(steps=spec.steps + spec.steps[:2]), max_length)

    monkeypatch.setattr(oracle, "closed_walks", one_pair_twice)
    code, reports = _verify_all(capsys, 12)
    assert code == 1
    _assert_one_route_fails(reports, at_fault=_oracle_agrees, sound=_numeric_agrees)


def test_a_raised_band_amplitude_fails_the_quadrature_only(capsys, monkeypatch):
    band = quadrature._band

    def one_amplitude_up(spec):
        (freq, amp), *rest = band(spec)[0]
        return (((freq, amp + 1), *rest),) + band(spec)[1:]

    monkeypatch.setattr(quadrature, "_band", one_amplitude_up)
    code, reports = _verify_all(capsys, 10)
    assert code == 1
    _assert_one_route_fails(reports, at_fault=_numeric_agrees, sound=_oracle_agrees)


def _cosines_off_by_a_part_in_1e12(monkeypatch):
    cos_table = quadrature._cos_table
    monkeypatch.setattr(quadrature, "_cos_table", lambda *args: cos_table(*args) * (1 + 1e-12))


def test_a_cosine_table_off_by_a_part_in_1e12_fails_the_quadrature_only(capsys, monkeypatch):
    # a relative fault of 1e-12, about 10**4 unit roundoffs: well above the rounding bound
    _cosines_off_by_a_part_in_1e12(monkeypatch)
    code, reports = _verify_all(capsys, 12)
    assert code == 1
    _assert_one_route_fails(reports, at_fault=_numeric_agrees, sound=_oracle_agrees)


@pytest.mark.parametrize("name,order", HIGH_ORDERS)
def test_a_cosine_table_off_by_a_part_in_1e12_fails_the_accuracy_pin(monkeypatch, name, order):
    # both the rounding bound and the pin see this fault
    _cosines_off_by_a_part_in_1e12(monkeypatch)
    report = _high_order_report(name, order)
    assert report.failed > 0
    assert not _float_route_pinned(report)


# a grid one point short of the rule aliases a harmonic at these orders on every lattice; at
# order 40 chain-nn and chain-nnn still fail, but on the other four infinite lattices the
# aliased harmonic is below rounding and they pass, so stay low
@pytest.mark.parametrize("max_order", [6, 8, 12])
def test_a_grid_below_the_rule_fails_the_quadrature_only(capsys, monkeypatch, max_order):
    auto_grid_size = quadrature.auto_grid_size
    monkeypatch.setattr(quadrature, "auto_grid_size", lambda spec, n: auto_grid_size(spec, n) - 1)
    code, reports = _verify_all(capsys, max_order)
    assert code == 1
    _assert_one_route_fails(reports, at_fault=_numeric_agrees, sound=_oracle_agrees)


@pytest.mark.parametrize("name", sorted(series._RECURRENCES))
def test_a_wrong_recurrence_factor_fails_its_lattice_only(capsys, monkeypatch, name):
    # a factor still divides exactly, so only the cross-check can catch it
    stride, factor, first, steps = series._RECURRENCES[name]
    monkeypatch.setitem(series._RECURRENCES, name, (stride, factor + 1, first, steps))
    code, reports = _verify_all(capsys, 12)
    assert code == 1
    assert [n for n, report in reports.items() if report["summary"]["failed"]] == [name]
    report = reports[name]
    for record in report["records"]:
        exact = Fraction(int(record["exact_num"]), int(record["exact_den"]))
        # both other routes still count the true walks, factor/(factor + 1) of the series'
        assert record["pass"] == (exact == 0)
        assert _numeric_agrees(record, report) == (exact == 0)
        if record["oracle"] != "":
            walks = exact * math.factorial(record["order"])
            assert int(record["oracle"]) * (factor + 1) == walks * factor


def test_a_recurrence_that_stops_dividing_raises(monkeypatch):
    # bcc's 8 raised to 9: p**3 a(p) = 9 (2p - 1)**3 a(p - 1) first fails to divide at p = 2
    stride, factor, first, _ = series._RECURRENCES["bcc"]
    monkeypatch.setitem(
        series._RECURRENCES, "bcc", (stride, factor, first, lambda p: (p**3, 9 * (2 * p - 1) ** 3))
    )
    assert expand("bcc", 2).walk_count((2,)) == 9
    with pytest.raises(ArithmeticError, match="^bcc recurrence leaves a remainder at p = 2$"):
        expand("bcc", 4)
