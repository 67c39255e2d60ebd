"""Exact spectral analysis and simulation of the one-sided cycle shuffles.

The somewhere-to-below shuffle t_ell moves the ell-th card of an n-card deck
to a uniformly random weakly lower position; nonnegative combinations of
t_1..t_n are the one-sided cycle shuffles (top-to-random and random-to-below
among them).  This package computes their complete eigenvalue spectrum with
multiplicities over exact rationals, constructs the basis that
simultaneously triangularizes all of them, verifies the underlying algebraic
identities by brute force at small deck sizes, and simulates the bookmark
strong stationary time against its exact expected value.

Importing the package loads none of its modules.  Each name below, and
each submodule (cycleshuffles.basis, ...), is imported on first access
(PEP 562), so a caller pays only for what it uses: the spectrum needs
lacunar and inputs, not the group algebra.  The simulators live in
cycleshuffles.simulate, the only module that imports numpy.

The two constants that the command-line parser reads are defined here, so
that building it loads no module of the package but cycleshuffles.cli.
"""

import importlib

__version__ = "0.1.0"

# the full-algebra degree cap unless a caller passes max_n (inputs.require_within_cap)
DEFAULT_MAX_N = 8

# the verify suites, in the order "all" runs them (checks.SUITES is built from this)
SUITE_NAMES = ("triangularity", "annihilator", "duality", "identities", "boolean-partition")

# public name -> the submodule that defines it
_EXPORTS = {
    "AlgebraElement": "algebra",
    "bilinear_form": "algebra",
    "linear_combine": "algebra",
    "BasisFamily": "basis",
    "QIndexTable": "basis",
    "a_element": "basis",
    "build_a_family": "basis",
    "dual_basis": "basis",
    "expand_in_a": "basis",
    "filtration_dimensions": "basis",
    "q_index": "basis",
    "rmul_matrix": "basis",
    "commutator_nilpotency": "identities",
    "identity_suite": "identities",
    "r2b_weights": "inputs",
    "t2r_weights": "inputs",
    "unweighted_weights": "inputs",
    "LacunarCatalog": "lacunar",
    "enumerate_lacunar": "lacunar",
    "fibonacci": "lacunar",
    "is_lacunar": "lacunar",
    "locate_interval": "lacunar",
    "m_vector": "lacunar",
    "non_shadow": "lacunar",
    "compose": "perms",
    "cycle": "perms",
    "descent_set": "perms",
    "identity": "perms",
    "inverse": "perms",
    "Polynomial": "polys",
    "build_osc": "shuffles",
    "build_t": "shuffles",
    "build_t_prime": "shuffles",
    "combine": "shuffles",
    "transition_matrix": "shuffles",
    "SpectrumReport": "spectrum",
    "annihilator_check": "spectrum",
    "char_poly_oracle": "spectrum",
    "delta": "spectrum",
    "diagonalizable_certificate": "spectrum",
    "eigenvalue_for_set": "spectrum",
    "full_spectrum": "spectrum",
    "minimal_polynomial": "spectrum",
}

_SUBMODULES = frozenset(
    {
        "algebra", "basis", "checks", "cli", "commands", "identities", "inputs",
        "lacunar", "perms", "polys", "shuffles", "simulate", "spectrum",
    }
)

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
