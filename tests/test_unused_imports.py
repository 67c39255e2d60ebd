"""Every name a module of the package imports at module level is used in
that module, so no module passes on a name that another defines.  The
package root, which maps names to submodules lazily, is exempt."""

import ast
from pathlib import Path

import pytest

import cycleshuffles

PACKAGE = Path(cycleshuffles.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names bound by the module-level imports, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_the_package_has_modules():
    assert {path.stem for path in MODULES} >= {"algebra", "inputs", "shuffles", "spectrum"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it does not use: {unused}"
