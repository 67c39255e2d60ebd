"""No module of the package reads or sets the interpreter's limit on the
digits of an int written as text (sys.int_max_str_digits, also set by -X
int_max_str_digits and PYTHONINTMAXSTRDIGITS): what a run writes depends on
its arguments alone, so the package holds to a fixed bound of its own."""

import ast
from pathlib import Path

import pytest

import cycleshuffles

PACKAGE = Path(cycleshuffles.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
LIMIT_NAMES = {"set_int_max_str_digits", "get_int_max_str_digits"}


def _limit_uses(tree: ast.Module) -> list[tuple[str, int]]:
    """Each use of a limit function, with its line number: as an attribute
    (sys.set_int_max_str_digits), a bare name or an imported name."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LIMIT_NAMES:
            uses.append((node.attr, node.lineno))
        elif isinstance(node, ast.Name) and node.id in LIMIT_NAMES:
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            uses += [(alias.name, node.lineno) for alias in node.names if alias.name in LIMIT_NAMES]
    return sorted(uses, key=lambda use: use[1])


def test_the_guard_sees_each_form_of_a_use():
    source = (
        "import sys\nfrom sys import set_int_max_str_digits as s\n"
        "sys.set_int_max_str_digits(0)\nn = sys.get_int_max_str_digits()\n"
    )
    assert _limit_uses(ast.parse(source)) == [
        ("set_int_max_str_digits", 2),
        ("set_int_max_str_digits", 3),
        ("get_int_max_str_digits", 4),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_reads_or_sets_the_int_str_limit(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = _limit_uses(tree)
    assert not uses, f"{path.name} uses the interpreter's int-to-str limit: {uses}"
