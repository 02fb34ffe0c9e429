"""The four benchmark workloads: their calls, exact-output extracts and checks.

A workload is a fixed set of calls.  The seed only permutes their order
inside a pass, so every seed does the same work.  Each call has an id,
and its exact output (coefficient num/den pairs, walk counts, pass
flags) is reduced to a digest that ``reference.json`` holds per call.

Every order stays at or below 170: ``verify`` converts ``n!`` to a float,
which raises ``OverflowError`` from order 171 on (a known defect).

Only public names and CLI flags the project keeps are used: no
``--threads``, ``LATTICEWALKS_THREADS``, ``QuadratureGrid``,
``merge_labels`` or ``_``-prefixed helpers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

MAX_ORDER = 170

# size -> workload -> [(call id, function, args)].  "full" is the benchmark,
# "smoke" a reduced-size copy that the benchmark's own test runs.
PYTHON_CALLS = {
    "full": {
        "verify-3d": [
            ("verify bcc 100", "verify_identity", ["bcc", 100]),
            ("verify diamond 150", "verify_identity", ["diamond", 150]),
        ],
        "verify-1d": [
            ("verify chain-nnn 40", "verify_identity", ["chain-nnn", 40]),
            ("verify chain-nn 160", "verify_identity", ["chain-nn", 160]),
            ("verify chain-nn-finite/6 160", "verify_identity", ["chain-nn-finite", 160, 6]),
            ("recurrence 40", "verify_recurrence", [40]),
        ],
        "oracle-walks": [
            ("walks bcc 20", "enumerate_walks", ["bcc", None, 20]),
            ("walks triangular 24", "enumerate_walks", ["triangular", None, 24]),
            ("walks diamond 30", "enumerate_walks", ["diamond", None, 30]),
            ("walks chain-nnn 30", "enumerate_walks", ["chain-nnn", None, 30]),
            ("walks honeycomb 38", "enumerate_walks", ["honeycomb", None, 38]),
            ("walks chain-nn 62", "enumerate_walks", ["chain-nn", None, 62]),
            ("walks chain-nn-finite/6 62", "enumerate_walks", ["chain-nn-finite", 6, 62]),
            ("ring trace 64 170", "finite_chain_trace", [64, 170]),
        ],
    },
    "smoke": {
        "verify-3d": [
            ("verify bcc 10", "verify_identity", ["bcc", 10]),
            ("verify diamond 12", "verify_identity", ["diamond", 12]),
        ],
        "verify-1d": [
            ("verify chain-nnn 8", "verify_identity", ["chain-nnn", 8]),
            ("verify chain-nn 20", "verify_identity", ["chain-nn", 20]),
            ("verify chain-nn-finite/6 20", "verify_identity", ["chain-nn-finite", 20, 6]),
            ("recurrence 8", "verify_recurrence", [8]),
        ],
        "oracle-walks": [
            ("walks bcc 6", "enumerate_walks", ["bcc", None, 6]),
            ("walks triangular 6", "enumerate_walks", ["triangular", None, 6]),
            ("walks diamond 8", "enumerate_walks", ["diamond", None, 8]),
            ("walks chain-nnn 8", "enumerate_walks", ["chain-nnn", None, 8]),
            ("walks honeycomb 8", "enumerate_walks", ["honeycomb", None, 8]),
            ("walks chain-nn 12", "enumerate_walks", ["chain-nn", None, 12]),
            ("walks chain-nn-finite/6 12", "enumerate_walks", ["chain-nn-finite", 6, 12]),
            ("ring trace 8 20", "finite_chain_trace", [8, 20]),
        ],
    },
}

# size -> [argv] for ``python -m latticewalks.cli``: every subcommand, every
# --format, and one ``verify --all``.
CLI_CALLS = {
    "full": [
        "coeffs --lattice chain-nnn --max-order 50 --format json",
        "coeffs --lattice bcc --max-order 80 --format csv",
        "coeffs --lattice chain-nn-finite --pbc 8 --max-order 60 --format pretty",
        "lattice --lattice diamond --format json",
        "lattice --lattice honeycomb --format pretty",
        "verify --lattice triangular --max-order 24 --format csv",
        "verify --lattice chain-nnn --max-order 16 --recurrence --format pretty",
        "conjecture --n-max 30 --format json",
        "oracle --lattice triangular --n 8 --format csv",
        "appendix-b --pbc 6 --rho 0.5 --phi-half --format pretty",
        "verify --all --max-order 40",
    ],
    "smoke": [
        "coeffs --lattice chain-nnn --max-order 6 --format json",
        "coeffs --lattice bcc --max-order 8 --format csv",
        "coeffs --lattice chain-nn-finite --pbc 8 --max-order 8 --format pretty",
        "lattice --lattice diamond --format json",
        "lattice --lattice honeycomb --format pretty",
        "verify --lattice triangular --max-order 4 --format csv",
        "verify --lattice chain-nnn --max-order 4 --recurrence --format pretty",
        "conjecture --n-max 8 --format json",
        "oracle --lattice triangular --n 4 --format csv",
        "appendix-b --pbc 6 --rho 0.5 --phi-half --format pretty",
        "verify --all --max-order 6",
    ],
}

NAMES = ("verify-3d", "verify-1d", "oracle-walks", "cli-batch")


def calls(workload: str, size: str) -> list:
    """[(call id, function, args)] of one workload; CLI calls have function "cli"."""
    if workload == "cli-batch":
        return [(argv, "cli", argv.split()) for argv in CLI_CALLS[size]]
    return PYTHON_CALLS[size][workload]


def max_order(function: str, args: list) -> int:
    """Highest coefficient order or walk length a call asks for."""
    if function == "cli":
        flags = ("--max-order", "--n-max", "--n")
        return max((int(args[i + 1]) for i, a in enumerate(args) if a in flags), default=0)
    if function == "verify_identity":
        return args[1]
    return args[-1]  # verify_recurrence, enumerate_walks, finite_chain_trace


def setup_lattices(workload: str, size: str) -> list[tuple]:
    """(name, pbc_size) of every built-in spec a workload's calls use."""
    out = []
    for _, function, args in calls(workload, size):
        if function == "verify_identity":
            key = (args[0], args[2] if len(args) > 2 else None)
        elif function == "enumerate_walks":
            key = (args[0], args[1])
        else:
            continue
        if key not in out:
            out.append(key)
    return out


# -- exact outputs --------------------------------------------------------------

# Row fields kept for the digest: identifiers, exact coefficients, walk
# counts and pass flags.  Floats, timings and any keys added later are not.
EXACT_KEYS = frozenset(
    {
        "lattice", "pbc_size", "max_order", "max_total_order", "n_max", "length", "index",
        "order", "num", "den", "exact_num", "exact_den", "coefficient", "oracle", "count",
        "total", "pass", "checked", "failed", "is_square", "root_num", "root_den",
        "displacement", "label", "sublattice", "kind", "d", "n1", "n2",
    }
)  # fmt: skip


def digest(extract) -> str:
    return hashlib.sha256(json.dumps(extract, separators=(",", ":")).encode()).hexdigest()


def python_extract(function: str, result):
    """Exact content of a library call's result, as JSON-ready values."""
    if function == "verify_identity":
        return [
            result.lattice,
            result.pbc_size,
            result.max_order,
            [
                [list(r.index), str(r.exact.numerator), str(r.exact.denominator),
                 None if r.oracle_count is None else str(r.oracle_count), bool(r.passed)]
                for r in result.records
            ],
        ]  # fmt: skip
    if function == "verify_recurrence":
        return [result.max_total_order, result.checked, [list(v) for v in result.violations]]
    if function == "enumerate_walks":
        counts = sorted((list(index), str(value)) for index, value in result.counts.items())
        return [result.lattice, result.length, result.sublattice_doubled, counts]
    return str(result)


def _scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(_scalar(v) for v in value)
    return str(value)


def _json_fields(node, out: list) -> None:
    if isinstance(node, dict):
        kept = sorted(
            (key, _scalar(value))
            for key, value in node.items()
            if key in EXACT_KEYS and not isinstance(value, dict)
            and not (isinstance(value, list) and value and isinstance(value[0], (dict, list)))
        )  # fmt: skip
        if kept:
            out.append(kept)
        for value in node.values():
            if isinstance(value, (dict, list)):
                _json_fields(value, out)
    elif isinstance(node, list):
        for value in node:
            _json_fields(value, out)


def _pretty_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[1].startswith("-"):
        return []
    spans, pos = [], 0
    for dashes in lines[1].split("  "):
        spans.append((pos, pos + len(dashes)))
        pos += len(dashes) + 2
    header = [lines[0][a:b].strip() for a, b in spans]
    return [{h: line[a:b].strip() for h, (a, b) in zip(header, spans)} for line in lines[2:]]


def cli_extract(argv: list[str], stdout: str):
    """Exact content of one CLI invocation's stdout, independent of added keys."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "json":
        fields: list = []
        _json_fields(json.loads(stdout), fields)
        return fields
    rows = list(csv.DictReader(io.StringIO(stdout))) if fmt == "csv" else _pretty_rows(stdout)
    return [sorted((k, v) for k, v in row.items() if k in EXACT_KEYS) for row in rows]
