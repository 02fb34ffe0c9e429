"""Self-test of the benchmark at reduced sizes.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import probe
import tracer
import workloads

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), *args]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(HERE.parent, "--workload", workload, "--smoke", "--seconds", "0",
                "--seed", "3", "--trace", str(trace))  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in doc["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "verify-1d", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_json_digest_ignores_added_keys_but_not_changed_values():
    doc = {"lattice": "bcc", "records": [{"index": "2", "exact_num": "8", "pass": True}]}
    argv = ["verify", "--lattice", "bcc"]
    base = workloads.digest(workloads.cli_extract(argv, json.dumps(doc)))
    doc["summary"] = {"oracle_max_order": 8}
    doc["records"][0]["numeric_pass"] = True
    assert workloads.digest(workloads.cli_extract(argv, json.dumps(doc))) == base
    doc["records"][0]["exact_num"] = "9"
    assert workloads.digest(workloads.cli_extract(argv, json.dumps(doc))) != base


def test_pretty_and_csv_tables_extract_the_same_rows():
    csv_text = "lattice,index,pass,numeric\nbcc,2 0,True,1.5\nbcc,10 2,False,0.25\n"
    pretty = (
        "lattice  index  pass   numeric\n"
        "-------  -----  -----  -------\n"
        "bcc      2 0    True   1.5\n"
        "bcc      10 2   False  0.25\n"
    )
    as_csv = workloads.cli_extract(["verify", "--format", "csv"], csv_text)
    as_pretty = workloads.cli_extract(["verify", "--format", "pretty"], pretty)
    assert as_csv == as_pretty
    assert as_csv[1] == [("index", "10 2"), ("lattice", "bcc"), ("pass", "False")]


def test_self_time_excludes_children_and_coverage_merges_overlaps():
    spans = [
        [0, None, "verify.verify_identity", "verify", 0.0, 10.0],
        [1, 0, "series.expand", "series", 1.0, 4.0],
        [2, 1, "series.bcc", "series", 2.0, 3.0],
        [3, 0, "quadrature.moment", "quadrature", 5.0, 7.0],
        [4, None, "oracle.enumerate_walks", "oracle", 9.0, 12.0],
    ]
    assert tracer.self_times(spans) == {"verify": 5.0, "series": 3.0, "quadrature": 2.0,
                                        "oracle": 3.0}  # fmt: skip
    assert tracer.entry_calls(spans) == {"verify": 1, "series": 1, "quadrature": 1, "oracle": 1}
    assert tracer.covered_seconds(spans) == 12.0


def test_scaled_seconds_removes_probe_time_and_scales_by_speed():
    ref = probe.REFERENCE_S
    samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, 2 * ref), (9.0, ref)]
    # three samples inside, each at half the reference speed
    assert probe.scaled_seconds(samples, 0.5, 3.5) == pytest.approx((3.0 - 6 * ref) / 2)
    # fewer than NEAREST inside: the nearest three samples give the speed
    nearest_speed = (1 + 0.5 + 0.5) / 3
    assert probe.scaled_seconds(samples, 8.9, 9.1) == pytest.approx((0.2 - ref) * nearest_speed)
