"""No module of the package reads the process environment: every input,
the full-algebra degree cap included, arrives as an argument, so a result
depends on its arguments alone."""

import ast
from pathlib import Path

import pytest

import cycleshuffles

PACKAGE = Path(cycleshuffles.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """Each use of an os environment name, with its line number: as an
    attribute (os.environ, os.getenv), a bare name or an imported name."""
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            reads.append((node.attr, node.lineno))
        elif isinstance(node, ast.Name) and node.id in ENVIRONMENT_NAMES:
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            reads += [(alias.name, node.lineno) for alias in node.names if alias.name in ENVIRONMENT_NAMES]
    return sorted(reads, key=lambda read: read[1])


def test_the_guard_sees_each_form_of_a_read():
    source = "import os\nfrom os import environ as e\nos.environ.get('X')\nos.getenv('X')\n"
    assert _environment_reads(ast.parse(source)) == [("environ", 2), ("environ", 3), ("getenv", 4)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_reads_the_process_environment(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = _environment_reads(tree)
    assert not reads, f"{path.name} reads the process environment: {reads}"
