"""Source policies of the package, read from its syntax trees.

Library code raises on bad input and never uses `assert`, which
`python -O` strips. The package imports only itself, numpy and the
standard library: numpy is its one declared runtime dependency.
"""

import ast
import sys
from pathlib import Path

import pytest

import mixedspin

PACKAGE = Path(mixedspin.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


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
