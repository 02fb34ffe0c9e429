import contextlib
import csv
import io
import json
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewalks import BUILTIN_NAMES
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


def test_outdir_env_redirects_relative_paths(tmp_outdir, capsys, monkeypatch):
    monkeypatch.setenv("LATTICEWALKS_OUTDIR", str(tmp_outdir))
    assert main(["conjecture", "--n-max", "8", "--output", "squares.json"]) == 0
    capsys.readouterr()
    assert (tmp_outdir / "squares.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["appendix-b", "--pbc", "6", "--rho", "nan"],
        ["verify", "--lattice", "chain-nn", "--max-order", "4", "--tol-rel", "nan"],
        ["verify", "--lattice", "chain-nn", "--max-order", "171"],
        ["appendix-b", "--pbc", "6", "--rho", "1e308"],
    ],
)
def test_non_finite_and_overflowing_inputs_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rho", "400"], "not finite"),
        (["--rho", "400", "--phi-half"], "not finite"),
        (["--rho", "1e308", "--d", "1"], "not finite"),
        (["--rho", "1", "--nu-max", "-1", "--phi-half"], "nu_max"),
        (["--rho", "1", "--nu-max", "-1"], "nu_max"),
        (["--rho", "1", "--series-n-max", "-1"], "series_n_max"),
    ],
)
def test_appendix_b_overflow_and_negative_counts_are_usage_errors(capsys, argv, message, fmt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "appendix-b", "--pbc", "6", *argv, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and message in err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run_isolated(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_NUMBERS = st.sampled_from(["0", "-1", "1e-9", "0.5", "2", "400", "nan", "inf", "1e308", "x"])
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
        argv += ["--n", str(draw(st.integers(-1, 9)))]
    if command == "appendix-b":
        argv += ["--pbc", str(draw(st.integers(2, 7))), "--rho", draw(_NUMBERS)]
        argv += ["--tol-match", draw(_NUMBERS), "--nu-max", str(draw(st.integers(-1, 8)))]
        if draw(st.booleans()):
            argv += ["--d", str(draw(st.integers(-2, 9)))]
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
