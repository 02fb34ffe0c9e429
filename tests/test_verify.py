import dataclasses
import json
import math
from fractions import Fraction

import pytest

from latticewalks import (
    ORACLE_BOUNDS,
    Tolerances,
    appendix_b_report,
    check_square_conjecture,
    expand,
    verify_identity,
    verify_recurrence,
)


def test_tolerances_validate():
    with pytest.raises(ValueError):
        Tolerances(relative=0.0)
    with pytest.raises(ValueError):
        Tolerances(zero_abs=-1e-9)


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


@pytest.mark.parametrize("name,order", [("bcc", 100), ("diamond", 150)])
def test_verify_identity_high_order_on_one_grid(name, order):
    report = verify_identity(name, order)
    assert report.failed == 0
    assert len({r.grid_points for r in report.records}) == 1
    assert max(r.rel_error for r in report.records if r.rel_error is not None) <= 1e-13


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
    assert report.failed > 0


def test_verify_identity_deterministic():
    a = verify_identity("bcc", 8)
    b = verify_identity("bcc", 8)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_verify_identity_report_document():
    doc = verify_identity("honeycomb", 6).to_json_dict()
    summary = doc["summary"]
    assert summary.pop("worst_rel_error") <= 1e-9
    assert summary == {"checked": 7, "passed": 7, "failed": 0, "oracle_max_order": 6}
    assert doc["tolerances"] == {"relative": 1e-9, "zero_abs": 1e-12}
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
    empty = dataclasses.replace(report, records=())
    assert empty.oracle_max_order is None and empty.worst_rel_error is None


def test_verify_recurrence_base_cases():
    # hand-checked instances of the coefficient recurrence
    table = expand("chain-nnn", 6)
    l = table.coefficient
    assert 2 * 1 * l((2, 0)) - 1 * l((0, 1)) - 2 * l((0, 0)) == 0
    assert 12 * l((4, 1)) - 2 * l((2, 2)) - 2 * l((2, 1)) == 0


def test_verify_recurrence_full():
    report = verify_recurrence(12)
    assert report.failed == 0
    assert report.checked == sum(n + 1 for n in range(13))
    with pytest.raises(ValueError):
        verify_recurrence(1)


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


def test_square_conjecture_validates():
    with pytest.raises(ValueError):
        check_square_conjecture(-2)


def test_appendix_b_report_contents():
    report = appendix_b_report(4, 0.5, phi_half=True)
    kinds = [r["kind"] for r in report["records"]]
    assert kinds.count("fourier_a") == 3  # d = 0, 4, 8
    assert kinds.count("fourier_a_selection") == 6
    assert "phi_half" in kinds and "phi_pi" in kinds
    for record in report["records"]:
        limit = 1e-10 if record["kind"] == "fourier_a_selection" else 1e-9
        assert record["residual"] <= limit


def test_appendix_b_odd_ring_skips_phi_half():
    report = appendix_b_report(5, 0.5, phi_half=True)
    kinds = {r["kind"] for r in report["records"]}
    assert "phi_half" not in kinds
    assert "phi_pi" in kinds
    with pytest.raises(ValueError):
        appendix_b_report(2, 0.5)
