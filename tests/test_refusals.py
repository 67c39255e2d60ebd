"""Inputs that the library refuses with a ValueError naming what is wrong:
mismatched degrees, empty or out-of-range arguments, and families of the
wrong kind."""

import pytest

from cycleshuffles import checks
from cycleshuffles.algebra import AlgebraElement, bilinear_form, linear_combine
from cycleshuffles.basis import build_a_family, dual_basis, expand_in_a, q_index, rmul_matrix
from cycleshuffles.lacunar import enumerate_lacunar, lacunar_masks
from cycleshuffles.perms import cycle, transposition
from cycleshuffles.shuffles import build_t, build_t_prime, transition_matrix
from cycleshuffles.simulate import expected_tau_extended, fast_bookmark_sim


def b_family(n):
    return dual_basis(build_a_family(n))


REFUSALS = {
    "key that is not a permutation": (lambda: AlgebraElement(3, {(1, 1, 3): 1}), "(1, 1, 3) is not a permutation of [3]"),
    "coefficient of another degree": (lambda: build_t(3, 1).coefficient((1, 2)), "degree mismatch: 2 vs 3"),
    "product of two degrees": (lambda: build_t(3, 1) * build_t(2, 1), "degree mismatch: 3 vs 2"),
    "bilinear form of two degrees": (lambda: bilinear_form(build_t(3, 1), build_t(2, 1)), "degree mismatch: 3 vs 2"),
    "Q-index of another degree": (lambda: q_index((2, 1), enumerate_lacunar(3)), "degree mismatch: 2 vs 3"),
    "empty linear combination": (lambda: linear_combine([]), "needs at least one pair"),
    "lacunar masks of degree 0": (lambda: lacunar_masks(0), "degree must be at least 1, got 0"),
    "cycle index out of range, not last": (lambda: cycle(3, (4, 1)), "cycle index 4 outside [1, 3]"),
    "transposition past the end": (lambda: transposition(4, 4), "transposition index 4 outside [1, 3]"),
    "primed shuffle past the end": (lambda: build_t_prime(3, 4), "position 4 outside [1, 3]"),
    "transition matrix of a signed element": (
        lambda: transition_matrix(AlgebraElement(2, {(1, 2): 2, (2, 1): -1})),
        "need nonnegative coefficients",
    ),
    "fast simulation of no trials": (lambda: fast_bookmark_sim([1, 0], 0, 1), "trials must be positive, got 0"),
    "extended expectation at n = 1": (lambda: expected_tau_extended(1), "needs n >= 2, got 1"),
    "unknown suite": (lambda: checks.run_suite("nope", 3), "unknown suite 'nope'"),
    "incidence of a b-family": (lambda: b_family(2).containing, "needs the a-family"),
    "a-expansion in a b-family": (lambda: expand_in_a(build_t(2, 1), b_family(2)), "needs the a-family"),
    "dual of a b-family": (lambda: dual_basis(b_family(2)), "expects the a-family"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused_with_a_message_naming_the_fault(case):
    call, fragment = REFUSALS[case]
    with pytest.raises(ValueError) as refused:
        call()
    assert fragment in str(refused.value)


@pytest.mark.parametrize("basis", ["std", "a", "b"])
def test_an_unknown_order_is_refused_before_any_family_is_built(basis, forbid_enumeration_above):
    x = build_t(7, 1)
    forbid_enumeration_above(0)  # building a family, or the order, enumerates S_7
    with pytest.raises(ValueError, match="unknown order 'sideways'"):
        rmul_matrix(x, basis, "sideways")
