"""What the package imports: the route-independence graph and numpy's place in it.

The three routes (series, oracle, quadrature) must not import one
another, so none can be derived from another.  numpy is imported inside
the functions that use it, so the exact modules load without it.  No
module imports ``dataclasses``, which would bring ``inspect`` into
every CLI process's start-up; the records are plain NamedTuples, with
no ``__new__`` or ``_make`` of their own.  These are read from the
source with ``ast``; the start-up tests run a fresh interpreter, since
this one has numpy loaded already.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticewalks

PACKAGE = Path(latticewalks.__file__).resolve().parent
ROUTES = ("series", "oracle", "quadrature")


def _imported(node: ast.AST, module_level: bool):
    """Every module name an import under ``node`` names, relative ones as ``latticewalks.x``.

    With ``module_level`` the bodies of functions, which run only when
    called, are skipped.
    """
    for child in ast.iter_child_nodes(node):
        if module_level and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            assert child.level <= 1, "the package is one level deep"
            base = ".".join(filter(None, ["latticewalks" if child.level else None, child.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in child.names)
        yield from _imported(child, module_level)


def _imports(module: str, module_level: bool = False) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return set(_imported(tree, module_level))


def _names(imports: set[str], target: str) -> bool:
    return any(name == target or name.startswith(target + ".") for name in imports)


def test_the_scan_sees_verify_import_every_route():
    imports = _imports("verify")
    assert all(_names(imports, f"latticewalks.{route}") for route in ROUTES)


@pytest.mark.parametrize("route", ROUTES)
def test_no_route_imports_another(route):
    imports = _imports(route)
    for other in ROUTES:
        if other != route:
            assert not _names(imports, f"latticewalks.{other}"), f"{route} imports {other}"


@pytest.mark.parametrize("module", ["series", "verify", "cli"])
def test_exact_modules_do_not_import_numpy_at_module_level(module):
    assert not _names(_imports(module, module_level=True), "numpy")


def test_no_module_imports_dataclasses():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert "verify" in modules
    for module in modules:
        assert not _names(_imports(module), "dataclasses"), module


RECORDS = (
    "StepVector", "LatticeSpec", "WalkTally", "Series",
    "CoefficientRecord", "VerificationReport", "RecurrenceReport", "SquareTestRecord",
)


@pytest.mark.parametrize("record", RECORDS)
def test_records_are_plain_named_tuples(record):
    # no record has a constructor of its own that could check, or skip checking, its fields
    assert getattr(latticewalks, record).__bases__ == (tuple,)


def test_the_benchmark_finds_the_names_it_calls():
    # the benchmark calls the package by name: a name it needs that goes fails here, not there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sizes = workloads.PYTHON_CALLS.values()
    called = {function for size in sizes for work in size.values() for _, function, _ in work}
    assert "enumerate_walks" in called
    for name in sorted(called | {"expand", "builtin"}):
        assert callable(getattr(latticewalks, name, None)), name
    # the worker passes enumerate_walks its length as bound=, and reads a series' coefficients
    assert "bound" in inspect.signature(latticewalks.enumerate_walks).parameters
    assert isinstance(latticewalks.Series.coefficients, property)


def test_no_module_defines_a_constructor():
    for path in sorted(PACKAGE.glob("*.py")):
        defined = {
            node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert not defined & {"__new__", "_make"}, path.stem


def _fresh_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    )


def test_importing_the_package_loads_every_layer_but_not_numpy():
    # the library's first call then imports no package module, only numpy
    proc = _fresh_python(
        "import sys, latticewalks, latticewalks.cli\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('latticewalks.'))))\n"
        "print('numpy' in sys.modules)\n"
    )
    loaded, numpy_loaded = proc.stdout.splitlines()
    layers = ("lattices", "series", "oracle", "quadrature", "verify", "cli")
    assert loaded.split() == sorted(f"latticewalks.{m}" for m in layers)
    assert numpy_loaded == "False"


# run as ``python -m latticewalks.cli`` runs it, and report on stderr, as the process
# exits, which of these modules it loaded
_REPORT_MODULES_AT_EXIT = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules)),"
    " file=sys.stderr))\n"
    "runpy.run_module('latticewalks.cli', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize(
    "command",
    [
        "coeffs --lattice bcc --max-order 20",
        "conjecture --n-max 30",
        "verify --lattice bcc --max-order 12",
    ],
)
def test_cli_starts_without_dataclasses_or_inspect(command):
    proc = _fresh_python(_REPORT_MODULES_AT_EXIT, *command.split())
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert "dataclasses" not in loaded
    # numpy imports inspect itself, so only a process without numpy can go without it
    assert "inspect" not in loaded or "numpy" in loaded
