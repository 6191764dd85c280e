"""Source policies of the package, read from its syntax trees.

Library code raises on bad input and never uses `assert`, which
`python -O` strips. The package imports only itself, numpy and the
standard library: numpy is its one declared runtime dependency. The
package namespace holds no name that needs eigenvectors, and every name
the benchmark imports or wraps is still there.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedspin

PACKAGE = Path(mixedspin.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = Path(__file__).resolve().parents[1] / "bench"

# the eigenvector oracle: the reference of the tests and the benchmark
ORACLE = {
    "chain": [
        "CorrelatorMatrix",
        "correlator_matrix",
        "bond_levels",
        "build_hamiltonian",
        "dense_hamiltonian",
        "reduced_pair_state",
        "negativity_bruteforce",
    ],
    "operators": ["SpinOperators", "embed", "spin_matrices"],
}


def tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "chain.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    lines = [node.lineno for node in ast.walk(tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_itself_numpy_and_the_standard_library(path):
    allowed = {"mixedspin", "numpy", *sys.stdlib_module_names}
    foreign = []
    for node in ast.walk(tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        foreign += [name for name in names if name.split(".")[0] not in allowed]
    assert foreign == [], f"{path.name} imports {foreign}"


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in ORACLE.items() for n in names]
)
def test_the_oracle_is_in_its_submodule_only(module, name):
    assert not hasattr(mixedspin, name)
    assert hasattr(importlib.import_module(f"mixedspin.{module}"), name)


def test_the_benchmark_finds_every_name_it_imports_and_wraps():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import workloads, layers, record_reference; layers.install()"
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=BENCH,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
