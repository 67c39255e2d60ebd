import doctest

import pytest

import cycleshuffles.algebra
import cycleshuffles.basis
import cycleshuffles.inputs
import cycleshuffles.lacunar
import cycleshuffles.perms
import cycleshuffles.polys
import cycleshuffles.shuffles
import cycleshuffles.simulate
import cycleshuffles.spectrum

MODULES = [
    cycleshuffles.inputs,
    cycleshuffles.perms,
    cycleshuffles.lacunar,
    cycleshuffles.algebra,
    cycleshuffles.polys,
    cycleshuffles.shuffles,
    cycleshuffles.basis,
    cycleshuffles.spectrum,
    cycleshuffles.simulate,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
