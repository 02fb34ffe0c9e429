"""One benchmark pass in a fresh process.

Usage: ``python3 perfbench/worker.py '<json config>'`` with the keys
``workload``, ``size``, ``order`` (call ids in the order to run) and
``trace``.  The pass time runs from the first call to the last result;
digests, the oracle cross-check and span export happen after it.  The
result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import workloads
from traced_cli import TRACE_MARK
from tracer import Tracer

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


def _python_pass(config: dict, tracer: Tracer) -> tuple[float, float, dict]:
    if config["trace"]:
        tracer.install()
    import latticewalks

    specs = {
        key: latticewalks.builtin(*key)
        for key in workloads.setup_lattices(config["workload"], config["size"])
    }
    table = {
        cid: (fn, args) for cid, fn, args in workloads.calls(config["workload"], config["size"])
    }
    results: dict = {}
    start = time.perf_counter()
    for cid in config["order"]:
        fn, args = table[cid]
        try:
            if fn == "enumerate_walks":
                name, pbc, n = args
                results[cid] = latticewalks.enumerate_walks(specs[(name, pbc)], n, bound=n)
            else:
                results[cid] = getattr(latticewalks, fn)(*args)
        except Exception as exc:  # an operation that raises counts as failed
            results[cid] = exc
    end = time.perf_counter()
    tracer.enabled = False

    out = {}
    for cid, result in results.items():
        fn, args = table[cid]
        if isinstance(result, Exception):
            out[cid] = {"failed": 1, "error": f"{type(result).__name__}: {result}"}
            continue
        failed = getattr(result, "failed", 0) > 0  # the call's own failure count
        error = _oracle_mismatch(latticewalks, fn, args, result)
        out[cid] = {
            "failed": int(failed or error is not None),
            "error": error,
            "digest": workloads.digest(workloads.python_extract(fn, result)),
        }
    return start, end, out


def _oracle_mismatch(latticewalks, fn: str, args: list, result) -> str | None:
    """Compare an oracle tally with the exact series walk counts."""
    if fn == "finite_chain_trace":
        pbc, n = args
        expected = latticewalks.expand("chain-nn-finite", n, pbc).walk_count((n,))
        return None if expected == result else f"trace {result} != series {expected}"
    if fn != "enumerate_walks":
        return None
    name, pbc, n = args
    series = latticewalks.expand(name, n, pbc)
    expected = {i: series.walk_count(i) for i in series.coefficients if sum(i) == n}
    got = {i: c for i, c in result.counts.items() if c}
    return None if got == expected else f"tally differs from series at length {n}"


def _cli_pass(config: dict, tracer: Tracer) -> tuple[float, float, dict]:
    table = {cid: args for cid, _, args in workloads.calls("cli-batch", config["size"])}
    if config["trace"]:
        prefix = [sys.executable, "-s", str(HERE / "traced_cli.py")]
    else:
        prefix = [sys.executable, "-s", "-m", "latticewalks.cli"]
    runs = {}
    start = time.perf_counter()
    for cid in config["order"]:
        began = time.perf_counter()
        proc = subprocess.run(prefix + table[cid], capture_output=True, timeout=CLI_TIMEOUT_S)
        runs[cid] = (proc, began, time.perf_counter())
    end = time.perf_counter()

    out = {}
    for cid, (proc, began, ended) in runs.items():
        stderr = proc.stderr.decode(errors="replace")
        if config["trace"]:
            span = tracer.span("cli.process", "process", began, ended)
            kept = []
            for line in stderr.splitlines():
                if line.startswith(TRACE_MARK):
                    child = json.loads(line[len(TRACE_MARK) :])
                    tracer.adopt(child["spans"], span)
                    tracer.merge(child["counters"])
                else:
                    kept.append(line)
            stderr = "\n".join(kept)
        entry = {
            "failed": int(proc.returncode != 0),
            "error": f"exit {proc.returncode}: {stderr[-400:]}" if proc.returncode else None,
            "stdout_bytes": len(proc.stdout),
            "stdout_sha": hashlib.sha256(proc.stdout).hexdigest(),
        }
        if proc.returncode == 0:
            try:
                entry["digest"] = workloads.digest(
                    workloads.cli_extract(table[cid], proc.stdout.decode())
                )
            except ValueError as exc:  # unparseable output
                entry.update(failed=1, error=f"bad output: {exc}")
        out[cid] = entry
    return start, end, out


def main() -> int:
    config = json.loads(sys.argv[1])
    tracer = Tracer()
    run = _cli_pass if config["workload"] == "cli-batch" else _python_pass
    start, end, calls = run(config, tracer)
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    doc = {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "peak_rss_mb": usage / 1024.0,
        "calls": calls,
        "spans": tracer.spans,
        "counters": tracer.counters,
    }
    print(json.dumps(doc, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
