"""Exact spectral analysis and simulation of the one-sided cycle shuffles.

The somewhere-to-below shuffle t_ell moves the ell-th card of an n-card deck
to a uniformly random weakly lower position; nonnegative combinations of
t_1..t_n are the one-sided cycle shuffles (top-to-random and random-to-below
among them).  This package computes their complete eigenvalue spectrum with
multiplicities over exact rationals, constructs the basis that
simultaneously triangularizes all of them, verifies the underlying algebraic
identities by brute force at small deck sizes, and simulates the bookmark
strong stationary time against its exact expected value.  The simulators
live in cycleshuffles.simulate, the only module that imports numpy; the
package root does not import it.
"""

from .algebra import AlgebraElement, bilinear_form, linear_combine
from .basis import (
    BasisFamily,
    QIndexTable,
    a_element,
    build_a_family,
    dual_basis,
    expand_in_a,
    filtration_dimensions,
    q_index,
    rmul_matrix,
)
from .identities import commutator_nilpotency, identity_suite
from .lacunar import (
    LacunarCatalog,
    enumerate_lacunar,
    fibonacci,
    is_lacunar,
    locate_interval,
    m_vector,
    non_shadow,
)
from .perms import compose, cycle, descent_set, identity, inverse
from .polys import Polynomial
from .shuffles import (
    build_osc,
    build_t,
    build_t_prime,
    combine,
    r2b_weights,
    t2r_weights,
    transition_matrix,
    unweighted_weights,
)
from .spectrum import (
    SpectrumReport,
    annihilator_check,
    char_poly_oracle,
    delta,
    diagonalizable_certificate,
    eigenvalue_for_set,
    full_spectrum,
    minimal_polynomial,
)

__version__ = "0.1.0"
