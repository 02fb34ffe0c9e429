"""Command-line front end.

Subcommands wrap the library one-to-one and emit machine-readable data
on stdout (or to ``--output``): ``coeffs`` for exact series, ``verify``
for the cross-route identity reports, ``conjecture`` for the bcc
perfect-square scan, ``oracle`` for raw walk tallies, ``appendix-b`` for
the complex-hopping checks.  Exit codes: 0 all checks pass, 1 a
verification failed, 2 usage error (a request too large for memory
included).  Diagnostics go to stderr.

Each handler computes its result, builds one JSON document and takes
the table rows from it: the document's entry list (``coefficients``,
``counts`` or ``steps``) behind a leading ``lattice`` column, or its
``records``, which are rows already.  ``_render`` writes the document
(``--format json``) or the rows (``csv``, ``pretty``) as it renders them;
entry rows are made only as a table reads them, so json makes none.
The pretty table joins each ``num``/``den`` pair into one
``coefficient`` column and each ``root_num``/``root_den`` pair into one
``root`` column, printed as ``num/den`` (the numerator alone when the
denominator is 1), and prints an empty or ``None`` cell as blank.

Everything is deterministic: there is no randomness anywhere, so a
repeated invocation produces byte-identical output.  The environment
variable ``LATTICEWALKS_OUTDIR`` sets the base directory for relative
output paths.  Numeric options must be finite, tolerances positive,
counts at least 0 and ring sizes at least 3; a usage error names the
flag at fault, and JSON output never contains ``NaN`` or ``Infinity``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
from itertools import chain, islice
from pathlib import Path

from .lattices import BUILTIN_NAMES, MIN_RING_SIZE, builtin
from .oracle import enumerate_walks
from .quadrature import appendix_b_report
from .series import expand
from .verify import Tolerances, check_square_conjecture, verify_identity, verify_recurrence

FORMATS = ("json", "csv", "pretty")


# a numerator column -> (its denominator column, the joined column's name)
_RATIONALS = {"num": ("den", "coefficient"), "root_num": ("root_den", "root")}


def _pretty_cells(row: dict) -> dict:
    cells = {}
    for key, value in row.items():
        if key in _RATIONALS:
            den_key, name = _RATIONALS[key]
            den = row[den_key]
            cells[name] = value if den in ("1", "") else f"{value}/{den}"
        elif key not in ("den", "root_den"):
            cells[key] = "" if value is None else str(value)
    return cells


def _pretty_lines(rows):
    """The pretty table line by line, after one pass over the cells for the column widths."""
    cells = [_pretty_cells(row) for row in rows]
    if not cells:
        yield "(empty)\n"
        return
    headers = list(cells[0].keys())
    widths = [max(len(h), *(len(c[h]) for c in cells)) for h in headers]
    rule = ["-" * w for w in widths]
    for values in chain([headers, rule], ([c[h] for h in headers] for c in cells)):
        yield "  ".join(v.ljust(w) for v, w in zip(values, widths)).rstrip() + "\n"


def _entry_rows(doc: dict, entries: str):
    """``doc[entries]`` as rows behind a ``lattice`` column, list cells joined by spaces.

    The rows are made as they are read, so a json run, which reads none, makes none.
    """
    lattice = doc["lattice"] if "lattice" in doc else doc["name"]
    return (
        {"lattice": lattice}
        | {k: " ".join(map(str, v)) if isinstance(v, list) else v for k, v in entry.items()}
        for entry in doc[entries]
    )


def _render(args, doc, rows) -> None:
    """Write ``doc`` (json) or the iterable ``rows`` (csv, pretty) to stdout or ``--output``.

    Each is written as it renders; csv reads the rows once, row by row, and
    pretty once, for the column widths.
    """
    path = None
    if args.output is not None:  # an absolute path discards the LATTICEWALKS_OUTDIR base
        path = Path(os.environ.get("LATTICEWALKS_OUTDIR", ""), args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
    with (path.open("w") if path else contextlib.nullcontext(sys.stdout)) as out:
        if args.format == "json":
            # in blocks of encoder chunks, not json.dump's write per token: an unbuffered
            # stdout (python -u, PYTHONUNBUFFERED) makes each write a system call
            chunks = chain(json.JSONEncoder(indent=2, allow_nan=False).iterencode(doc), ["\n"])
            while block := "".join(islice(chunks, 1024)):
                out.write(block)
        elif args.format == "csv":
            rows = iter(rows)
            first = next(rows, None)
            if first is not None:  # an empty csv has no header either
                writer = csv.DictWriter(out, fieldnames=list(first), lineterminator="\n")
                writer.writeheader()
                writer.writerows(chain([first], rows))
        else:
            out.writelines(_pretty_lines(rows))
    if path:
        print(f"wrote {path}", file=sys.stderr)


def _resolve_pbc(name: str, args) -> int | None:
    return args.pbc if name == "chain-nn-finite" else None


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_coeffs(args) -> int:
    doc = expand(args.lattice, args.max_order, _resolve_pbc(args.lattice, args)).to_json_dict()
    _render(args, doc, _entry_rows(doc, "coefficients"))
    return 0


def cmd_lattice(args) -> int:
    doc = builtin(args.lattice, _resolve_pbc(args.lattice, args)).to_json_dict()
    _render(args, doc, _entry_rows(doc, "steps"))
    return 0


def cmd_verify(args) -> int:
    names = list(BUILTIN_NAMES) if args.all else [args.lattice]
    tol = Tolerances(relative=args.tol_rel, zero_abs=args.tol_abs)

    reports = [
        verify_identity(name, args.max_order, _resolve_pbc(name, args), args.grid, tol)
        for name in names
    ]

    # refused where verify_recurrence would refuse it, after the reports' own checks
    if args.recurrence and args.max_order < 2:
        raise ValueError("--recurrence requires --max-order >= 2")
    recurrence = verify_recurrence(args.max_order) if args.recurrence else None
    failed = sum(r.failed for r in reports) + (recurrence.failed if recurrence else 0)

    docs = [r.to_json_dict() for r in reports]
    if len(reports) == 1 and recurrence is None:
        doc = docs[0]
    else:
        doc = {"summary": {"lattices": len(reports), "failed": failed}, "reports": docs}
        if recurrence is not None:
            doc["recurrence"] = recurrence.to_json_dict()
    # the json document carries the recurrence result; the tables do not
    if recurrence is not None and args.format != "json":
        print(
            f"recurrence: checked {recurrence.checked}, failed {recurrence.failed}",
            file=sys.stderr,
        )
    _render(args, doc, (row for d in docs for row in d["records"]))
    for report in reports:
        print(
            f"{report.lattice}: checked {report.checked}, failed {report.failed}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def cmd_conjecture(args) -> int:
    records = check_square_conjecture(args.n_max)
    rows = [r.to_row() for r in records]
    _render(args, {"n_max": args.n_max, "records": rows}, rows)
    return 1 if any(not r.is_square for r in records) else 0


def cmd_oracle(args) -> int:
    spec = builtin(args.lattice, _resolve_pbc(args.lattice, args))
    tally = enumerate_walks(spec, args.n)
    doc = tally.to_json_dict()
    _render(args, doc, _entry_rows(doc, "counts"))
    print(f"{tally.lattice}: length {tally.length}, total {tally.total}", file=sys.stderr)
    return 0


def cmd_appendix_b(args) -> int:
    if args.phi_half and args.pbc % 2:
        raise ValueError("--phi-half requires an even --pbc")
    report = appendix_b_report(
        args.pbc,
        args.rho,
        d_values=[args.d] if args.d is not None else None,
        phi_half=args.phi_half,
        tol_match=args.tol_match,
        tol_selection=args.tol_selection,
    )
    records = report["records"]
    _render(args, report, records)
    return 0 if all(r["pass"] for r in records) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``, named ``int`` in argparse's errors."""

    def parse(text: str) -> int:
        if int(text) < low:  # a ValueError reads "invalid int value", as with type=int
            raise argparse.ArgumentTypeError(f"{text!r} is not >= {low}")
        return int(text)

    parse.__name__ = "int"
    return parse


_nonnegative_int = _int_at_least(0)
_ring_size = _int_at_least(MIN_RING_SIZE)


def _grid_size(text: str) -> int | str:
    try:
        return text if text == "auto" else _int_at_least(1)(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f'{text!r} is not "auto" or an integer') from None


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # take "-1e-3" for a value: argparse's own pattern knows only "-1" and "-0.5"
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default="json")
    sub.add_argument("--output", help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latticewalks",
        description="Closed-walk series of tight-binding partition functions, three ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="exact series coefficients")
    coeffs.add_argument("--lattice", required=True, choices=BUILTIN_NAMES)
    coeffs.add_argument("--pbc", type=_ring_size, default=6, help="ring size for chain-nn-finite")
    coeffs.add_argument("--max-order", type=_nonnegative_int, required=True)
    _add_output_options(coeffs)
    coeffs.set_defaults(handler=cmd_coeffs)

    lattice = sub.add_parser("lattice", help="emit one lattice description")
    lattice.add_argument("--lattice", required=True, choices=BUILTIN_NAMES)
    lattice.add_argument("--pbc", type=_ring_size, default=6)
    _add_output_options(lattice)
    lattice.set_defaults(handler=cmd_lattice)

    verify = sub.add_parser("verify", help="cross-route identity verification")
    which = verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--lattice", choices=BUILTIN_NAMES)
    which.add_argument("--all", action="store_true", help="verify every built-in lattice")
    verify.add_argument("--pbc", type=_ring_size, default=6)
    verify.add_argument("--max-order", type=_nonnegative_int, required=True)
    verify.add_argument(
        "--grid", type=_grid_size, default="auto", help='grid points per axis, or "auto"'
    )
    verify.add_argument("--tol-rel", type=_positive_float, default=1e-9)
    verify.add_argument("--tol-abs", type=_positive_float, default=1e-12)
    verify.add_argument("--recurrence", action="store_true", help="also check the chain-nnn recurrence")
    _add_output_options(verify)
    verify.set_defaults(handler=cmd_verify)

    conjecture = sub.add_parser("conjecture", help="bcc perfect-square scan")
    conjecture.add_argument("--n-max", type=_nonnegative_int, default=30)
    _add_output_options(conjecture)
    conjecture.set_defaults(handler=cmd_conjecture)

    oracle_cmd = sub.add_parser("oracle", help="walk-enumeration tally")
    oracle_cmd.add_argument("--lattice", required=True, choices=BUILTIN_NAMES)
    oracle_cmd.add_argument("--pbc", type=_ring_size, default=6)
    oracle_cmd.add_argument("--n", type=_nonnegative_int, required=True)
    _add_output_options(oracle_cmd)
    oracle_cmd.set_defaults(handler=cmd_oracle)

    appendix = sub.add_parser("appendix-b", help="complex-hopping ring checks")
    appendix.add_argument("--pbc", type=_ring_size, required=True)
    appendix.add_argument("--rho", type=_finite_float, required=True)
    appendix.add_argument("--d", type=_nonnegative_int, help="check a single Fourier index")
    appendix.add_argument("--phi-half", action="store_true", help="include the phase pi/2 identity")
    appendix.add_argument("--tol-match", type=_positive_float, default=1e-9)
    appendix.add_argument("--tol-selection", type=_positive_float, default=1e-10)
    _add_output_options(appendix)
    appendix.set_defaults(handler=cmd_appendix_b)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the message
        return int(exc.code or 0)
    # exact coefficients outgrow Python's int-to-str digit limit (0: none) near order 1600;
    # lift it for the handler only, so argparse still refuses a huge integer option
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        if digit_limit:
            sys.set_int_max_str_digits(0)
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: result out of floating-point range ({exc})", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
