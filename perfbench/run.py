"""Benchmark runner for latticewalks: time to a verified result, per workload.

Usage::

    python3 perfbench/run.py --workload verify-3d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload
    python3 perfbench/run.py --workload cli-batch --smoke            # reduced sizes

Load model: one controlling process runs a closed loop with one caller.  Each
pass (one run of every call of a workload, in a seed-permuted order)
runs in a fresh worker process, one at a time, with one thread and the
BLAS/OpenMP thread variables set to 1.  ``setup_s`` is the median over
several fresh processes, taken between the passes, that only import the
package and build the workload's specs.  All of them run on one CPU,
whose speed ``probe.py`` samples alongside; the gated times are scaled
to the probe's reference speed (see ``probe.py``).  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  Each operation's exact output is
checked against the digests in ``reference.json``; the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15  # set-up samples per run, at least
SETUP_BATCH = 3  # taken together before each round until SETUP_SAMPLES is in reach
WORKER_TIMEOUT_S = 170
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (as opposed to the program failing a check)."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LATTICEWALKS_")}
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group."""
    with subprocess.Popen(
        argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:  # fmt: skip
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def measure_setup(workload: str, size: str, count: int) -> list[tuple[float, float]]:
    """(start, end) of fresh processes that import the package and build the specs."""
    if workload == "cli-batch":
        code = "import latticewalks.cli"
    else:
        builds = "".join(
            f"latticewalks.builtin({name!r}, {pbc!r})\n"
            for name, pbc in workloads.setup_lattices(workload, size)
        )
        code = "import latticewalks\n" + builds
    samples = []
    for _ in range(count):
        began = time.perf_counter()
        proc = _run([sys.executable, "-s", "-c", code], WORKER_TIMEOUT_S)
        samples.append((began, time.perf_counter()))
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up process failed:\n{proc.stderr[-2000:]}")
    return samples


def run_pass(workload: str, size: str, order: list[str], trace: bool) -> dict:
    config = {"workload": workload, "size": size, "order": order, "trace": trace}
    argv = [sys.executable, "-s", str(HERE / "worker.py"), json.dumps(config)]
    proc = _run(argv, WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_orders() -> None:
    for size in ("full", "smoke"):
        for name in workloads.NAMES:
            for cid, function, args in workloads.calls(name, size):
                if workloads.max_order(function, args) > workloads.MAX_ORDER:
                    raise BenchmarkError(f"{cid!r} exceeds order {workloads.MAX_ORDER}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Passes until ``seconds`` are used, with set-up samples between rounds.

    The machine's speed drifts in spells of several seconds, so set-up
    samples are spread over the run: a batch before each of the first
    rounds, one before each later round, and a final batch to reach
    SETUP_SAMPLES.  Every pass and set-up process runs on the CPU the
    speed probe samples; each gets its raw and its scaled seconds.
    """
    rng = random.Random(f"{name}/{seed}")
    ids = [cid for cid, _, _ in workloads.calls(name, size)]
    modes = (False, True) if trace else (False,)
    min_rounds = 1 if trace else 2
    setup: list[tuple[float, float]] = []
    passes: list[tuple[bool, dict]] = []
    speed = probe.SpeedProbe()
    try:
        began = time.perf_counter()
        rounds = 0
        while True:
            batch = SETUP_BATCH if len(setup) + SETUP_BATCH < SETUP_SAMPLES else 1
            setup += measure_setup(name, size, batch)
            for traced in modes:
                order = ids[:]
                rng.shuffle(order)
                passes.append((traced, run_pass(name, size, order, traced)))
            rounds += 1
            elapsed = time.perf_counter() - began
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                break
        setup += measure_setup(name, size, max(0, SETUP_SAMPLES - len(setup)))
    finally:
        speed.stop()
    for _, p in passes:
        p["scaled_s"] = probe.scaled_seconds(speed.samples, p["start"], p["end"])
    return {
        "setup": [probe.scaled_seconds(speed.samples, *interval) for interval in setup],
        "setup_raw": [end - start for start, end in setup],
        "passes": passes,
        "ids": ids,
        "cpu": speed.cpu,
    }


def check_outputs(name: str, size: str, raw: dict, reference: dict) -> tuple[int, int, list]:
    """Count operations and failures: raised, non-zero exit, failed > 0 or wrong output."""
    expected = reference.get(size, {}).get(name, {})
    first_stdout: dict = {}
    attempted, failed, errors = 0, 0, []
    for _, result in raw["passes"]:
        for cid in raw["ids"]:
            entry = result["calls"][cid]
            attempted += 1
            problem = entry.get("error")
            if not problem and entry.get("digest") != expected.get(cid):
                problem = "exact output differs from the reference digest"
            if "stdout_sha" in entry:
                if first_stdout.setdefault(cid, entry["stdout_sha"]) != entry["stdout_sha"]:
                    problem = "stdout differs between passes"
            if problem or entry["failed"]:
                failed += 1
                errors.append(f"{cid}: {problem or 'reported failed > 0'}")
    return attempted, failed, errors


def end_to_end(raw: dict) -> dict:
    """Gated metrics (scaled times, peak memory) and the raw times, printed only."""
    untraced = [p for traced, p in raw["passes"] if not traced]
    walls = [p["wall_s"] for p in untraced]
    return {
        "wall_scaled_s": statistics.median(p["scaled_s"] for p in untraced),
        "setup_s": statistics.median(raw["setup"]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in untraced),
        "wall_s": statistics.median(walls),
        "wall_s_max": max(walls),  # too few passes for a steady tail
        "setup_raw_s": statistics.median(raw["setup_raw"]),
    }


def per_layer(raw: dict) -> dict:
    traced = [p for t, p in raw["passes"] if t]
    untraced = [p for t, p in raw["passes"] if not t]

    def med(values):
        return statistics.median(list(values))

    selfs = [tracer.self_times(p["spans"]) for p in traced]
    calls = [tracer.entry_calls(p["spans"]) for p in traced]
    counters = [p["counters"] for p in traced]
    out = {}
    for layer in ("series", "quadrature", "oracle", "lattices"):
        out[f"{layer}.busy_s"] = med(s.get(layer, 0.0) for s in selfs)
    for layer in ("series", "quadrature", "oracle"):
        out[f"{layer}.calls"] = med(c.get(layer, 0) for c in calls)
    for layer in ("verify", "cli"):
        out[f"{layer}.self_s"] = med(s.get(layer, 0.0) for s in selfs)
    out["quadrature.grid_points"] = med(c["grid_points"] for c in counters)
    out["quadrature.repeat_share"] = med(
        c["moment_repeats"] / c["moment_calls"] if c["moment_calls"] else 0.0 for c in counters
    )
    out["quadrature.worst_rel_error"] = max(c["worst_rel_error"] for c in counters)
    out["oracle.max_length"] = max(c["max_walk_length"] for c in counters)
    out["oracle.coverage"] = med(
        c["oracle_records"] / c["records"] if c["records"] else 0.0 for c in counters
    )
    out["verify.records"] = med(c["records"] for c in counters)
    out["cli.process_s"] = med(
        sum(s[5] - s[4] for s in p["spans"] if s[2] == "cli.process") for p in traced
    )
    out["cli.stdout_bytes"] = med(
        sum(e.get("stdout_bytes", 0) for e in p["calls"].values()) for p in untraced
    )
    out["trace.overhead_frac"] = (
        med(p["scaled_s"] for p in traced) / med(p["scaled_s"] for p in untraced) - 1.0
    )
    out["trace.untraced_share"] = med(
        1.0 - tracer.covered_seconds([s for s in p["spans"] if s[4] >= p["start"]]) / p["wall_s"]
        for p in traced
    )
    return out


def write_spans(name: str, seed: int, raw: dict) -> Path:
    """Write every traced span, tagged with its pass id, under .bench_build/."""
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{name}-seed{seed}.json"
    passes = [
        {"pass": i, "start": p["start"], "end": p["end"],
         "spans": [span + [i] for span in p["spans"]]}
        for i, (traced, p) in enumerate(raw["passes"]) if traced
    ]  # fmt: skip
    path.write_text(json.dumps({"workload": name, "seed": seed, "passes": passes}))
    return path


def self_time_shares(raw: dict) -> dict[str, float]:
    totals: dict[str, float] = {}
    for traced, p in raw["passes"]:
        if traced:
            for layer, value in tracer.self_times(p["spans"]).items():
                totals[layer] = totals.get(layer, 0.0) + value
    whole = sum(totals.values()) or 1.0
    return {layer: value / whole for layer, value in sorted(totals.items())}


def select(values: dict, specs: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "latticewalks" / "__init__.py").is_file():
            raise BenchmarkError(f"no latticewalks sources under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        reference = json.loads((HERE / "reference.json").read_text())
        check_orders()
        size = "smoke" if args.smoke else "full"
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        names = list(workloads.NAMES) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            raw = run_workload(name, args.seed, seconds, bool(args.trace), size)
            attempted, failed, errors = check_outputs(name, size, raw, reference)
            results[name] = (raw, attempted, failed, errors)
    except (
        BenchmarkError, probe.ProbeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError,
    ) as exc:  # fmt: skip
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for name, (raw, attempted, failed, errors) in results.items():
        e2e = end_to_end(raw)
        walls = sum(1 for traced, _ in raw["passes"] if not traced)
        print(f"{name}: seed {args.seed}, {size} size, {walls} untraced passes of "
              f"{len(raw['ids'])} calls, closed loop, 1 caller, on CPU {raw['cpu']}")  # fmt: skip
        print(f"  wall_s       median {e2e['wall_s']:.4f} s, max {e2e['wall_s_max']:.4f} s "
              f"(n={walls}); scaled median {e2e['wall_scaled_s']:.4f} s")  # fmt: skip
        print(f"  setup_s      median {e2e['setup_raw_s']:.4f} s; scaled median "
              f"{e2e['setup_s']:.4f} s (n={len(raw['setup'])})")  # fmt: skip
        print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
        print(f"  error_rate   {failed / attempted:.4f} ({failed}/{attempted} operations)")
        for line in errors[:10]:
            print(f"  FAILED {line}")
        if args.trace:
            print(f"  spans        {write_spans(name, args.seed, raw).relative_to(ROOT)}")
            shares = ", ".join(f"{k} {v:.1%}" for k, v in self_time_shares(raw).items())
            print(f"  self-time    {shares}")

    attempted = sum(r[1] for r in results.values())
    failed = sum(r[2] for r in results.values())
    if args.workload == "all":
        summary = {name: end_to_end(r[0]) for name, r in results.items()}
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "workloads": summary}))  # fmt: skip
        return 0
    raw = results[args.workload][0]
    if args.trace:
        metrics = select(per_layer(raw), bench["per_layer"])
    else:
        metrics = select(end_to_end(raw), bench["end_to_end"])
    doc = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
