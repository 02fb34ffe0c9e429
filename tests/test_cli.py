import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewalks import BUILTIN_NAMES, expand, quadrature
from latticewalks.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_bcc_table(capsys):
    code, out, _ = run(capsys, "coeffs", "--lattice", "bcc", "--max-order", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["lattice"] == "bcc"
    last = doc["coefficients"][-1]
    assert last["index"] == [12] and last["num"] == "5929" and last["den"] == "3600"


def test_coeffs_constant_term(capsys):
    code, out, _ = run(capsys, "coeffs", "--lattice", "chain-nn", "--max-order", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [{"index": [0], "num": "1", "den": "1"}]


def test_coeffs_finite_ring(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--lattice", "chain-nn-finite", "--pbc", "3", "--max-order", "6"
    )
    assert code == 0
    doc = json.loads(out)
    entries = {tuple(e["index"]): (e["num"], e["den"]) for e in doc["coefficients"]}
    assert entries[(3,)] == ("1", "3")
    assert doc["pbc_size"] == 3


def test_coeffs_pretty_rationals(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--lattice", "bcc", "--max-order", "12", "--format", "pretty"
    )
    assert code == 0
    assert "5929/3600" in out
    assert "." not in out.replace("...", "")  # never decimal expansions


def test_coeffs_csv_json_round_trip(capsys):
    code, csv_out, _ = run(
        capsys, "coeffs", "--lattice", "chain-nnn", "--max-order", "6", "--format", "csv"
    )
    assert code == 0
    code, json_out, _ = run(capsys, "coeffs", "--lattice", "chain-nnn", "--max-order", "6")
    assert code == 0
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    json_rows = json.loads(json_out)["coefficients"]
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        assert [int(x) for x in c["index"].split()] == j["index"]
        assert c["num"] == j["num"] and c["den"] == j["den"]


def test_verify_single_lattice(capsys):
    code, out, err = run(capsys, "verify", "--lattice", "honeycomb", "--max-order", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert "honeycomb: checked 7, failed 0" in err


def test_verify_all_lattices(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--max-order", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"lattices": 7, "failed": 0}
    assert [r["lattice"] for r in doc["reports"]] == [
        "chain-nn", "chain-nn-finite", "chain-nnn", "triangular", "bcc", "honeycomb", "diamond",
    ]


def test_verify_failure_exit_code(capsys):
    # deliberately aliased fixed grid: failures must surface as exit 1
    code, out, _ = run(
        capsys, "verify", "--lattice", "triangular", "--max-order", "6", "--grid", "3"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["failed"] > 0
    bad = [r for r in doc["records"] if not r["pass"]]
    assert bad and all("numeric" in r and "exact_num" in r for r in bad)


def test_verify_recurrence_flag(capsys):
    code, out, _ = run(
        capsys, "verify", "--lattice", "chain-nnn", "--max-order", "12", "--recurrence"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["recurrence"]["failed"] == 0


def test_verify_recurrence_summary_on_stderr(capsys):
    # the tables do not carry the recurrence result, so it goes to stderr
    argv = ("verify", "--lattice", "chain-nnn", "--max-order", "16", "--recurrence")
    code, out, err = run(capsys, *argv, "--format", "pretty")
    assert code == 0 and "recurrence" not in out
    assert err == "recurrence: checked 153, failed 0\nchain-nnn: checked 153, failed 0\n"


def test_verify_csv_matches_json(capsys):
    args = ("verify", "--lattice", "chain-nn", "--max-order", "8")
    code, json_out, _ = run(capsys, *args)
    code2, csv_out, _ = run(capsys, *args, "--format", "csv")
    assert code == code2 == 0
    json_rows = json.loads(json_out)["records"]
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        assert c["index"] == j["index"]
        assert c["exact_num"] == j["exact_num"]
        assert float(c["numeric"]) == j["numeric"]
        assert c["pass"] == str(j["pass"])


def test_conjecture_command(capsys):
    code, out, _ = run(capsys, "conjecture", "--n-max", "30")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 16
    assert all(r["is_square"] for r in doc["records"])
    by_order = {r["order"]: r for r in doc["records"]}
    assert by_order[12]["root_num"] == "77" and by_order[12]["root_den"] == "60"


def test_conjecture_squares_beyond_order_30(capsys):
    # the bcc coefficient at order 2m is ((2m)! / (m!)**3)**2
    code, out, _ = run(capsys, "conjecture", "--n-max", "60")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 31
    for r in records:
        m = r["order"] // 2
        root = Fraction(int(r["root_num"]), int(r["root_den"]))
        assert root == Fraction(math.factorial(2 * m), math.factorial(m) ** 3)


def test_oracle_command(capsys):
    code, out, err = run(capsys, "oracle", "--lattice", "triangular", "--n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == "2040"
    assert "total 2040" in err


def test_oracle_bound_guard(capsys):
    code, _, err = run(capsys, "oracle", "--lattice", "bcc", "--n", "20")
    assert code == 2
    assert "error" in err


def test_appendix_b_command(capsys):
    code, out, _ = run(capsys, "appendix-b", "--pbc", "4", "--rho", "0.5", "--phi-half")
    assert code == 0
    doc = json.loads(out)
    kinds = [r["kind"] for r in doc["records"]]
    assert "phi_half" in kinds
    assert all(r["pass"] for r in doc["records"])


def test_appendix_b_skips_phi_half_unless_asked(capsys, monkeypatch):
    ring_sum = quadrature.complex_chain_z

    def no_phi_half(pbc_size, rho, phi):
        if isinstance(phi, float) and phi == math.pi / 2:
            pytest.fail("the phase pi/2 identity was computed without --phi-half")
        return ring_sum(pbc_size, rho, phi)

    monkeypatch.setattr(quadrature, "complex_chain_z", no_phi_half)
    code, out, _ = run(capsys, "appendix-b", "--pbc", "6", "--rho", "0.5")
    assert code == 0
    assert "phi_half" not in {r["kind"] for r in json.loads(out)["records"]}


def test_appendix_b_phi_half_needs_even_ring(capsys):
    code, _, err = run(capsys, "appendix-b", "--pbc", "5", "--rho", "0.5", "--phi-half")
    assert code == 2
    assert "even" in err


def test_appendix_b_single_d(capsys):
    code, out, _ = run(capsys, "appendix-b", "--pbc", "4", "--rho", "0.5", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    fourier = [r for r in doc["records"] if r["kind"].startswith("fourier")]
    assert len(fourier) == 1 and fourier[0]["d"] == 2


def test_lattice_command(capsys):
    code, out, _ = run(capsys, "lattice", "--lattice", "diamond")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "diamond"
    assert doc["basis_size"] == 2
    assert len(doc["steps"]) == 8
    assert doc["steps"][0]["displacement"] == ["1/4", "1/4", "1/4"]
    code, out, _ = run(capsys, "lattice", "--lattice", "chain-nn-finite", "--pbc", "5")
    assert json.loads(out)["pbc_size"] == 5


def test_usage_errors(capsys):
    assert run(capsys, "coeffs", "--lattice", "nonsense", "--max-order", "3")[0] == 2
    assert run(capsys, "verify", "--max-order", "4")[0] == 2  # neither --lattice nor --all
    assert run(capsys, "coeffs", "--lattice", "chain-nn-finite", "--pbc", "2", "--max-order", "3")[0] == 2
    assert run(capsys, "coeffs", "--lattice", "chain-nn", "--max-order", "-1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    # the message names the --max-order flag on every lattice, chain-nnn too
    for command in ("coeffs", "verify"):
        code, _, err = run(capsys, command, "--lattice", "chain-nnn", "--max-order", "-1")
        assert code == 2 and err.endswith("error: argument --max-order: '-1' is not >= 0\n")
    for grid in ("abc", "1e3", "0"):
        code, _, err = run(capsys, "verify", "--lattice", "chain-nn", "--max-order", "4", "--grid", grid)
        assert code == 2
        assert "usage:" in err and "--grid" in err
    # and each of these names the flag the user typed
    for argv, message in [
        (("verify", "--lattice", "bcc", "--max-order", "1", "--recurrence"), "error: --recurrence requires --max-order >= 2\n"),
        (("conjecture", "--n-max", "-1"), "error: argument --n-max: '-1' is not >= 0\n"),
        (("oracle", "--lattice", "bcc", "--n", "-1"), "error: argument --n: '-1' is not >= 0\n"),
        (("appendix-b", "--pbc", "5", "--rho", "1", "--d", "-1"), "error: argument --d: '-1' is not >= 0\n"),
        (("appendix-b", "--pbc", "2", "--rho", "1"), "error: argument --pbc: '2' is not >= 3\n"),
        (("coeffs", "--lattice", "chain-nn-finite", "--pbc", "2", "--max-order", "3"), "error: argument --pbc: '2' is not >= 3\n"),
        # the ring size is refused on every lattice, though only the ring reads it
        (("coeffs", "--lattice", "bcc", "--pbc", "2", "--max-order", "3"), "error: argument --pbc: '2' is not >= 3\n"),
        # a value that is not an integer reads as it does with argparse's own int
        (("coeffs", "--lattice", "bcc", "--max-order", "abc"), "error: argument --max-order: invalid int value: 'abc'\n"),
        (("verify", "--lattice", "bcc", "--max-order", "4", "--tol-abs", "0"), "error: argument --tol-abs: '0' is not positive\n"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.endswith(message) and err.count("error:") == 1


def test_output_files_idempotent(tmp_outdir, capsys):
    target = tmp_outdir / "coeffs.json"
    args = [
        "coeffs", "--lattice", "diamond", "--max-order", "8", "--output", str(target),
    ]
    assert main(args) == 0
    first = target.read_bytes()
    assert main(args) == 0
    assert target.read_bytes() == first
    capsys.readouterr()
    doc = json.loads(first)
    assert doc["lattice"] == "diamond"
    # a path under a regular file cannot be created: a usage error, not a traceback
    code, out, err = run(
        capsys, "coeffs", "--lattice", "chain-nn", "--max-order", "4",
        "--output", str(target / "out.json"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_outdir_env_redirects_relative_paths(tmp_outdir, capsys, monkeypatch):
    monkeypatch.setenv("LATTICEWALKS_OUTDIR", str(tmp_outdir))
    assert main(["conjecture", "--n-max", "8", "--output", "squares.json"]) == 0
    capsys.readouterr()
    assert (tmp_outdir / "squares.json").exists()


def _peak_to_devnull(*argv):
    """Exit code and tracemalloc peak of one run written to the null device."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, peak


def test_rendering_holds_no_output_text(capsys):
    # about 1.1 MB of json; rendered into one string first, the render peaked at 10 MiB
    code, peak = _peak_to_devnull("verify", "--lattice", "chain-nnn", "--max-order", "80")
    assert code == 0
    assert peak <= 6 * 2**20


def test_coeffs_json_holds_the_entries_once(capsys):
    # the document itself peaks near 7.6 MiB; a table of every Fraction or a row per
    # entry built beside it takes the run past 9 MiB
    code, peak = _peak_to_devnull("coeffs", "--lattice", "chain-nnn", "--max-order", "200")
    assert code == 0
    assert peak <= 8.5 * 2**20


_EMPTY_ORACLE = {
    "json": '{\n  "lattice": "honeycomb",\n  "length": 1,\n  "sublattice_doubled": true,\n'
    '  "total": "0",\n  "counts": []\n}\n',
    "csv": "",  # no header either
    "pretty": "(empty)\n",
}


@pytest.mark.parametrize("fmt", list(_EMPTY_ORACLE))
def test_empty_tables(capsys, fmt):
    code, out, err = run(capsys, "oracle", "--lattice", "honeycomb", "--n", "1", "--format", fmt)
    assert (code, out, err) == (0, _EMPTY_ORACLE[fmt], "honeycomb: length 1, total 0\n")


_has_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit on this Python"
)


@_has_digit_limit
def test_exact_output_passes_the_int_str_digit_limit(capsys):
    # the reduced denominator at order 1600 has 4425 digits, past Python's default limit of 4300
    code, out, err = run(capsys, "coeffs", "--lattice", "honeycomb", "--max-order", "1600", "--format", "csv")
    assert (code, err) == (0, "")
    num, den = out.splitlines()[-1].split(",")[2:]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert len(den) > limit
        assert Fraction(int(num), int(den)) == expand("honeycomb", 1600).coefficient((1600,))
    finally:
        sys.set_int_max_str_digits(limit)


@_has_digit_limit
def test_digit_limit_still_refuses_huge_options(capsys):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "coeffs", "--lattice", "honeycomb", "--max-order", "1600", "--format", "csv")[0] == 0
    assert sys.get_int_max_str_digits() == limit
    code, out, err = run(capsys, "coeffs", "--lattice", "bcc", "--max-order", "9" * 5000)
    assert (code, out) == (2, "") and "error: argument --max-order: invalid int value" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["appendix-b", "--pbc", "6", "--rho", "nan"],
        ["verify", "--lattice", "chain-nn", "--max-order", "4", "--tol-rel", "nan"],
        ["verify", "--lattice", "chain-nn", "--max-order", "171"],
        ["appendix-b", "--pbc", "6", "--rho", "1e308"],
        # a 100000**3 grid is past the work bound: refused before any allocation
        ["verify", "--lattice", "bcc", "--max-order", "2", "--grid", "100000"],
    ],
)
def test_non_finite_and_overflowing_inputs_are_usage_errors(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "error" in err and "Traceback" not in err


def test_orders_past_float_range_fail_before_any_grid(capsys, monkeypatch):
    def no_grid(*args):
        pytest.fail("a grid was built for an order that cannot be compared")

    monkeypatch.setattr(quadrature, "moments", no_grid)
    code, out, err = run(capsys, "verify", "--lattice", "bcc", "--max-order", "1000")
    assert code == 2 and out == ""
    assert err == "error: result out of floating-point range (int too large to convert to float)\n"


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 76.3 MiB")

    monkeypatch.setattr(quadrature, "moments", no_memory)
    code, out, err = run(capsys, "verify", "--lattice", "chain-nn", "--max-order", "3")
    assert code == 2 and out == ""
    assert err == "error: out of memory (Unable to allocate 76.3 MiB)\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rho", "400"], "not finite"),
        (["--rho", "400", "--phi-half"], "not finite"),
        (["--rho", "1e308", "--d", "1"], "not finite"),
        # the references are summed to convergence, so there is no truncation to set
        pytest.param(
            ["--rho", "1", "--nu-max", "-1", "--phi-half"], "unrecognized arguments: --nu-max", id="argv3-nu_max"
        ),
        pytest.param(["--rho", "1", "--nu-max", "-1"], "unrecognized arguments: --nu-max", id="argv4-nu_max"),
        pytest.param(
            ["--rho", "1", "--series-n-max", "30"], "unrecognized arguments: --series-n-max", id="argv5-series_n_max"
        ),
        # a tolerance that is not positive is refused by the parser, naming the flag
        pytest.param(["--rho", "0.5", "--tol-match", "0"], "argument --tol-match", id="argv6-tol_match"),
        pytest.param(["--rho", "0.5", "--tol-selection", "-1"], "argument --tol-selection", id="argv7-tol_selection"),
        pytest.param(
            ["--rho", "0.5", "--tol-match", "-0.5", "--phi-half"], "argument --tol-match", id="argv8-tol_match"
        ),
        pytest.param(
            ["--rho", "0.5", "--tol-match", "-1e-9"],
            "argument --tol-match: '-1e-9' is not positive",
            id="argv9-tol_match must be positive",
        ),
        # e^{2|rho|} bounds the ring sum: past the float range every run stops here
        (["--rho", "354.95"], "ring sum is not finite"),
        (["--rho", "-354.95", "--phi-half"], "ring sum is not finite"),
    ],
)
def test_appendix_b_overflow_and_negative_counts_are_usage_errors(capsys, argv, message, fmt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "appendix-b", "--pbc", "6", *argv, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and message in err


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize(
    "argv",
    [["--pbc", "6", "--rho", "50"], ["--pbc", "3", "--rho", "120"], ["--pbc", "6", "--rho", "-50", "--phi-half"]],
)
def test_appendix_b_large_rho_passes(capsys, argv, fmt):
    code, out, err = run(capsys, "appendix-b", *argv, "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        records = json.loads(out)["records"]
        assert all(r["pass"] for r in records)
        a0 = next(r for r in records if r["kind"] == "fourier_a" and r["d"] == 0)
        assert math.isclose(a0["value"], a0["reference"], rel_tol=1e-13)
        # the phase pi/2 sum is e^-13 of its largest harmonic at rho = -50: the
        # cancelling winding form is exact to the ring sum's scale, not the value's
        for r in records:
            if r["kind"] == "phi_half":
                assert r["residual"] <= 1e-13
                assert math.isclose(r["value"], r["reference"], rel_tol=1e-9)


@pytest.mark.parametrize("pbc", [3, 4, 6, 7])
@pytest.mark.parametrize("rho", ["0.5", "50", "-300"])
@pytest.mark.parametrize("d", ["200", "252", "256", "300", "1000"])
def test_appendix_b_large_d_is_alias_free(capsys, pbc, rho, d):
    code, out, err = run(capsys, "appendix-b", "--pbc", str(pbc), "--rho", rho, "--d", d)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["phi_points"] > int(d)


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("size", [["--pbc", "6", "--d", "1000000000"], ["--pbc", "1000000000"]], ids=["d", "pbc"])
def test_appendix_b_refuses_phase_grids_past_the_bound(capsys, size, fmt):
    began = time.perf_counter()
    code, out, err = run(capsys, "appendix-b", "--rho", "0.5", *size, "--format", fmt)
    assert time.perf_counter() - began < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bound of {quadrature.MAX_PHASE_CELLS:.0e} phases times sites" in err


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("pbc", [3, 4, 6, 7])
@pytest.mark.parametrize("rho", ["354.3", "-354.3", "354.88", "-354.88"])
def test_appendix_b_passes_up_to_the_float_edge(capsys, pbc, rho, fmt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "appendix-b", "--pbc", str(pbc), "--rho", rho, "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert all(r["pass"] for r in json.loads(out, parse_constant=_reject_constant)["records"])


@pytest.mark.parametrize("pbc", [64, 100])
def test_appendix_b_large_rings_pass_at_the_float_edge(capsys, pbc):
    # N terms near the float maximum: each is divided by N before the sum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "appendix-b", "--pbc", str(pbc), "--rho", "354.88")
    assert (code, err) == (0, "")
    assert all(r["pass"] for r in json.loads(out, parse_constant=_reject_constant)["records"])


@pytest.mark.parametrize("pbc", [3, 4, 6, 7])
@pytest.mark.parametrize("rho", ["-300", "-3", "-1e-3", "0", "0.5", "10", "50", "300"])
def test_appendix_b_passes_across_rho(capsys, pbc, rho):
    phi_half = ["--phi-half"] if pbc % 2 == 0 else []
    code, _, err = run(capsys, "appendix-b", "--pbc", str(pbc), "--rho", rho, *phi_half)
    assert (code, err) == (0, "")


def test_appendix_b_truncated_reference_fails(capsys, monkeypatch):
    # a reference cut at walk length 30, as a fixed truncation would give,
    # is off by a scaled residual of about 0.04 at rho = 50 and must fail
    def truncated(m, x):
        terms = range((30 - m) // 2 + 1)
        return sum((x / 2) ** (m + 2 * k) / (math.factorial(k) * math.factorial(m + k)) for k in terms)

    monkeypatch.setattr(quadrature, "bessel_i", truncated)
    code, out, _ = run(capsys, "appendix-b", "--pbc", "6", "--rho", "50", "--d", "0")
    assert code == 1
    a0 = json.loads(out)["records"][0]
    assert a0["kind"] == "fourier_a" and not a0["pass"] and a0["residual"] > 0.01


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_negative_numbers_in_exponent_form_are_values(capsys, fmt):
    code, out, err = run(capsys, "appendix-b", "--pbc", "6", "--rho", "-1e-3", "--format", fmt)
    assert code == 0 and "error" not in err
    assert (code, out, err) == run(capsys, "appendix-b", "--pbc", "6", "--rho=-1e-3", "--format", fmt)
    code, _, err = run(capsys, "verify", "--lattice", "chain-nn", "--max-order", "4", "--tol-rel", "-1e-9")
    assert code == 2 and err.endswith("error: argument --tol-rel: '-1e-9' is not positive\n")


# SHA-256 of stdout for the commands whose output is ints and strings only, so
# the bytes do not depend on the platform: no renderer change may move one byte
_GOLDEN_STDOUT = {
    ("coeffs --lattice bcc --max-order 24", "json"): "4ae13af4eec7bc46f6733d98b44ee4231ba6b26c5b2e4c775906e9c18fb18d2e",
    ("coeffs --lattice bcc --max-order 24", "csv"): "0aee6422df9416fd0e2ed87ffc9f83fde261a3a622bf293a53f2e2299bd6434b",
    ("coeffs --lattice bcc --max-order 24", "pretty"): "05db31c796ed8e3891d4288a65ff5563d7462b7ebf6bbf7969249ea20f8dd768",
    ("coeffs --lattice chain-nnn --max-order 12", "json"): "5918f0bbe85f4a17885ce64688a5b485fd276f715e2b4465d3143780115809fc",
    ("coeffs --lattice chain-nnn --max-order 12", "csv"): "6c7ff3490ab28332aa8fdad027a9bfb5d923059ca1bbb951f1157c4ad74d7398",
    ("coeffs --lattice chain-nnn --max-order 12", "pretty"): "bc43f59fffcc96041b722a5c0db9dd00d5396d0a3fca90386d23d3ba76e12e43",
    ("coeffs --lattice chain-nn-finite --pbc 5 --max-order 20", "json"): "4d85875fbe8c8b3e9b117c0961acb4951ce836be4f63bc99821916bfab7cebb0",
    ("coeffs --lattice chain-nn-finite --pbc 5 --max-order 20", "csv"): "dd3e0f9601a903c8a6529e92501c6e0ae5945834e612f7235ddff7b767544884",
    ("coeffs --lattice chain-nn-finite --pbc 5 --max-order 20", "pretty"): "2591e83482d0f5b1e4a5d01e534492ce43c293aff7f27c1563252e749f0e21d0",
    ("conjecture --n-max 30", "json"): "6280a448560b14c28bf02777559e687fc4b8d15df207fa2a48ac2c3706214f6a",
    ("conjecture --n-max 30", "csv"): "8db2d62615adf730ffbb086f064986760dc87c19911bb708577383f1866ae3af",
    ("conjecture --n-max 30", "pretty"): "c2e371f624ff963dc06a5c84353516b6681ae6c6e81fa60a90847e2c488233e4",
    ("oracle --lattice chain-nnn --n 8", "json"): "b5bc63dc1cd962ddea940aaa25c7795150b6cec32beb957ea0ca913604accab8",
    ("oracle --lattice chain-nnn --n 8", "csv"): "1785efa7b2514a749c4e1729b75f2d99a6147c9819f7d88839a48dc231f352ea",
    ("oracle --lattice chain-nnn --n 8", "pretty"): "5c520bb071fc2d7d320bce9ad93601932951250f522259e9709e41a834279385",
    ("oracle --lattice honeycomb --n 6", "json"): "9aa2515cf2ee53294cfbcc6beeb395c9db0fcbe2cc844f616d7ed39a8a366dc8",
    ("oracle --lattice honeycomb --n 6", "csv"): "01908f6afcf3b30e67e924fc5312882f823122bfc9a64101f251719ab8473db7",
    ("oracle --lattice honeycomb --n 6", "pretty"): "380238c1a5e06479975f0341f4a181d964edb50b0807bf47c2816929e7b4d9b1",
    # the lattice json carries floats, so only its tables are pinned
    ("lattice --lattice diamond", "csv"): "a6d62cddd94a373a701053c1b95e9c096c39bd53ff2003d75002a8fafb72d98c",
    ("lattice --lattice diamond", "pretty"): "267f8fa1988356ca0d68c3827c30516735b5c18cfa14bcf622c480384e71b455",
}


@pytest.mark.parametrize("command, fmt", list(_GOLDEN_STDOUT))
def test_exact_outputs_match_pinned_bytes(capsys, command, fmt):
    code, out, _ = run(capsys, *command.split(), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_STDOUT[command, fmt]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run_isolated(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_NUMBERS = st.sampled_from(["0", "-1", "-1e-3", "1e-9", "0.5", "2", "50", "-300", "400", "nan", "inf", "1e308", "x"])
_LATTICES = st.sampled_from(BUILTIN_NAMES)


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["coeffs", "lattice", "verify", "conjecture", "oracle", "appendix-b"]))
    argv = [command]
    if command in ("coeffs", "lattice", "oracle", "verify"):
        argv += ["--lattice", draw(_LATTICES), "--pbc", str(draw(st.integers(2, 7)))]
    if command in ("coeffs", "verify"):
        argv += ["--max-order", str(draw(st.integers(-1, 6)))]
    if command == "verify":
        argv += ["--grid", draw(st.sampled_from(["auto", "auto", "0", "3", "x"]))]
        argv += ["--tol-rel", draw(_NUMBERS), "--tol-abs", draw(_NUMBERS)]
        if draw(st.booleans()):
            argv.append("--recurrence")
    if command == "conjecture":
        argv += ["--n-max", str(draw(st.integers(-1, 40)))]
    if command == "oracle":
        argv += ["--n", str(draw(st.integers(-1, 13)))]
    if command == "appendix-b":
        argv += ["--pbc", str(draw(st.integers(2, 7))), "--rho", draw(_NUMBERS)]
        argv += ["--tol-match", draw(_NUMBERS)]
        if draw(st.booleans()):
            argv += ["--d", str(draw(st.integers(-2, 9) | st.sampled_from([256, 300])))]
        if draw(st.booleans()):
            argv.append("--phi-half")
    fmt = draw(st.sampled_from(["json", "csv", "pretty"]))
    return argv + ["--format", fmt]


@settings(max_examples=60, deadline=None)
@given(argv=_cli_argv())
def test_cli_contract(argv):
    code, out, err = _run_isolated(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code in (0, 1) and argv[-1] == "json":
        json.loads(out, parse_constant=_reject_constant)
    assert _run_isolated(argv) == (code, out, err)


@settings(max_examples=40, deadline=None)
@given(
    pbc=st.integers(3, 12),
    rho=st.floats(-354.8, 354.8, allow_nan=False),
    d=st.none() | st.integers(0, 1000),
    phi_half=st.booleans(),
    fmt=st.sampled_from(["json", "csv", "pretty"]),
)
def test_appendix_b_converges_for_every_finite_rho(pbc, rho, d, phi_half, fmt):
    argv = ["appendix-b", "--pbc", str(pbc), "--rho", repr(rho), "--format", fmt]
    if d is not None:
        argv += ["--d", str(d)]
    if phi_half and pbc % 2 == 0:
        argv.append("--phi-half")
    code, out, err = _run_isolated(argv)
    assert (code, err) == (0, ""), (argv, out)
