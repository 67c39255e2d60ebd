"""No module of the package names numpy's extended precision type: its width
is the platform's (80-bit x87 on x86-64 Linux, a plain 64-bit double on some
other platforms), so a precision argument resting on it would hold on some
machines only.  Float work is done in float64, whose error bounds hold on
every IEEE platform."""

import re
from pathlib import Path

import pytest

import cycleshuffles

PACKAGE = Path(cycleshuffles.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
# longdouble and clongdouble, and the sized aliases numpy gives them
EXTENDED = re.compile(r"longdouble|float96|float128|complex192|complex256")


def test_the_guard_sees_each_spelling():
    source = "np.longdouble(1)\nnp.dtype('float128')\nnp.clongdouble\nnp.float64\n"
    assert EXTENDED.findall(source) == ["longdouble", "float128", "longdouble"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_names_extended_precision(path):
    names = EXTENDED.findall(path.read_text())
    assert not names, f"{path.name} names extended precision: {names}"
