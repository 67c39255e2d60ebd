"""Composite verification suites behind the command-line ``verify`` command.

Each check certifies one of the library's structural guarantees by exact
computation and reports a single pass/fail with a short diagnostic.

The triangularity lines, and the R(t'_ell) lines of the duality suite by
transposition, are read from the integer a-matrices A_ell of R(t_ell),
built by the recursion t_ell = 1 + s_ell t_{ell+1} from the a-matrices of
the adjacent transpositions s_ell: half of their columns are unit columns
and the others are short, so only the ascent columns are expanded, and
only two levels are held at a time.  Conjugation by the longest
permutation w0 sends s_ell to s_{n-ell} and a_w to a_{w0 w w0}, so one
ascent column of each mirror pair is expanded and its partner is read
through the mirror map; the expanded columns of R(s_ell), ell > n - ell,
wait until the sweep reaches R(s_{n-ell}).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple

from . import SUITE_NAMES
from .algebra import (
    _composer,
    integer_terms,
    linear_combine,
    mirror_ranks,
    rank_factors,
    rank_product,
    sn_index,
)
from .basis import BasisFamily, QIndexTable, build_a_family, dual_basis
from .identities import _nilpotency_reports, identity_suite
from .inputs import r2b_weights, require_within_cap
from .lacunar import locate_interval, m_vector
from .perms import inverse, transposition
from .shuffles import build_t, build_t_prime, combine
from .spectrum import annihilator_check


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.suite}: {self.name}{detail}"


def pseudo_random_weights(n: int) -> tuple[Fraction, ...]:
    """A fixed pseudo-random rational weight vector per degree (seeded, so
    golden across runs); includes negative weights since the annihilating
    product holds for arbitrary coefficients."""
    rng = random.Random(0xC0FFEE ^ n)
    return tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(n))


DUAL_TRIANGULAR = "R(t'_{}) upper-triangular in reverse Q-order"


class _Sweep:
    """The a-family of degree n and the lines read from one pass of the
    recursion over the a-matrices of R(t_ell), each made when first asked
    for.  run_suite makes one per call and hands it to check_triangularity
    and check_duality, so a run of every suite expands one ascent column
    of each mirror pair of the R(s_ell) once and keeps nothing past the
    call."""

    def __init__(self, n: int, max_n: int | None):
        self.n, self.max_n = n, max_n

    @cached_property
    def family(self) -> BasisFamily:
        return build_a_family(self.n, self.max_n)

    @cached_property
    def lines(self) -> tuple[list[CheckResult], list[CheckResult]]:
        return _sweep_lines(self.family, QIndexTable(self.n, self.max_n))


def check_triangularity(n: int, max_n: int | None = None, sweep: _Sweep | None = None) -> list[CheckResult]:
    """Right multiplication by each t_ell is upper-triangular on the a-basis
    in Q-index order, with diagonal entry m_{Q_{Qind w}, ell}."""
    return (sweep or _Sweep(n, max_n)).lines[0]


def _transposition_columns(
    family: BasisFamily, ell: int, waiting: dict[tuple[int, int], dict[int, int]]
) -> Iterator[dict[int, int]]:
    """The integer a-columns of R(s_ell), s_ell = (ell, ell+1), in lex order;
    the a-basis is unitriangular over Z, so there is no denominator.  When
    w(ell) > w(ell+1), s_ell lies in the Young subgroup of the descents of
    w, so a_w s_ell = a_w and column w is the unit column; every other
    column is the row of a_w times s_ell, expanded by the family.

    Conjugation by w0 sends a_w to a_{w0 w w0} and s_ell to s_{n-ell}, so
    the ascent column (w, ell) is the column (w0 w w0, n - ell) with every
    rank mirrored.  waiting, shared by the levels of one sweep, maps
    (ell, rank) to an expanded column: a column whose mirror waits there is
    read from it and the mirror dropped; any other is expanded and left
    there for its mirror, unless it is its own: one expansion per pair."""
    n = family.n
    mirror = mirror_ranks(n)
    _, factors = rank_factors({transposition(n, ell): 1}, n)
    for p, (w, row) in enumerate(zip(family.perms, family.rows)):
        partner = (n - ell, mirror[p])
        if w[ell - 1] > w[ell]:
            yield {p: 1}
        elif partner in waiting:
            yield {mirror[q]: c for q, c in waiting.pop(partner).items()}
        else:
            column = family.expand(rank_product(row, factors))
            if partner != (ell, p):
                waiting[ell, p] = column
            yield column


def _a_levels(family: BasisFamily) -> Iterator[tuple[int, list[dict[int, int]]]]:
    """(ell, A_ell) for ell = n, ..., 1, A_ell the integer a-columns of
    R(t_ell) in lex order with only their nonzero entries.

    Under perms.compose t_ell = 1 + s_ell t_{ell+1} and t_n = 1, so A_n = I
    and column p of A_ell is e_p plus the sum of S[q, p] times column q of
    A_{ell+1} over the entries of column p of S = R(s_ell); a unit column
    of S makes column p of A_ell that of A_{ell+1} plus e_p.  Only
    A_{ell+1} and the level being built are held, and the expanded ascent
    columns of each S_ell with ell > n - ell until S_{n-ell} reads them."""
    level = [{p: 1} for p in range(len(family.perms))]
    yield family.n, level
    waiting: dict[tuple[int, int], dict[int, int]] = {}
    for ell in range(family.n - 1, 0, -1):
        following = []
        for p, s_column in enumerate(_transposition_columns(family, ell, waiting)):
            if s_column == {p: 1}:
                column = level[p].copy()
                column[p] = column.get(p, 0) + 1
            else:
                column = {p: 1}
                get = column.get
                for q, c in s_column.items():
                    for v, a in level[q].items():
                        column[v] = get(v, 0) + c * a
            following.append(column if all(column.values()) else {v: a for v, a in column.items() if a})
        level = following
        yield ell, level


def _sweep_lines(family: BasisFamily, table: QIndexTable) -> tuple[list[CheckResult], list[CheckResult]]:
    """The R(t_ell) and R(t'_ell) lines for every ell, from the integer
    a-matrices of R(t_ell) that _a_levels builds, where only a nonzero
    entry offends.

    a-column p offends at rank v when Qind v >= Qind p, or at its diagonal
    when that is not m.  The b-matrix of R(t'_ell) is the transpose of the
    a-matrix of R(t_ell) (check_duality states the premises), so b-column q
    offends at p exactly when a-column p offends at q, with the same
    diagonals.  The R(t_ell) line names the first offending a-column in lex
    order and its largest offending rank; the R(t'_ell) line names the
    least offending b-column q, by its diagonal if that offends and
    otherwise by its least offending p, so every a-column is read before it
    reports."""
    n = family.n
    perms = family.perms
    qind = [table[w] for w in perms]
    diagonals = [m_vector(members, n) for members in table.catalog.members]
    a_lines, b_lines = [], []
    for ell, level in _a_levels(family):
        a_bad = b_bad = ""
        b_key = (len(perms),)  # (q, 0) for the diagonal of b-column q, (q, 1) for its other entries
        for p, column in enumerate(level):
            qp = qind[p]
            diag = column.get(p, 0)
            offenders = [v for v in column if qind[v] >= qp and v != p]
            if diag != diagonals[qp - 1][ell - 1]:
                detail = f"diagonal of column {perms[p]} is {diag}"
                a_bad = a_bad or detail
                if (p, 0) < b_key:
                    b_key, b_bad = (p, 0), detail
            if offenders:
                v = max(offenders)
                a_bad = a_bad or f"column {perms[p]} reaches {perms[v]} with Qind {qind[v]} >= {qp}"
                q = min(offenders)
                if (q, 1) < b_key:
                    b_key, b_bad = (q, 1), f"column {perms[q]} reaches {perms[p]} with Qind {qp} <= {qind[q]}"
        a_lines.append(CheckResult("triangularity", f"R(t_{ell}) upper-triangular in Q-order", not a_bad, a_bad))
        b_lines.append(CheckResult("duality", DUAL_TRIANGULAR.format(ell), not b_bad, b_bad))
    return a_lines[::-1], b_lines[::-1]


def check_gram(b_family: BasisFamily) -> CheckResult:
    """f(a_p, b_q) = [p = q] for all p, q: the b-expansion of each b_q, its
    pairings with the a_p, must be b_q alone."""
    bad = None
    perms = b_family.perms
    for q, row in enumerate(b_family.rows):
        pairs = {p: c for p, c in b_family.expand(dict(row)).items() if c}
        if pairs != {q: 1}:
            p = min(v for v in set(pairs) | {q} if pairs.get(v, 0) != (v == q))
            bad = f"f(a_{perms[p]}, b_{perms[q]}) != {1 if p == q else 0}"
            break
    return CheckResult("duality", "Gram(a, b) = identity", bad is None, bad or "")


def check_duality(n: int, max_n: int | None = None, sweep: _Sweep | None = None) -> list[CheckResult]:
    """Gram matrix of the a-basis against its dual is the identity, the
    antipode swaps t and t', R(t'_ell) is upper-triangular on the b-basis in
    reverse Q-index order, and conjugating left multiplication by the
    antipode gives right multiplication by the primed shuffle.

    f(u x, v) = f(u, v S(x)) for the antipode S, so with Gram(a, b) = I and
    S(t_ell) = t'_ell the coefficient of b_p in b_q t'_ell is f(a_p t_ell,
    b_q), the coefficient of a_q in a_p t_ell: the R(t'_ell) lines are read
    from the a-columns of R(t_ell), and fail, not derived, when either
    premise fails in this run."""
    sweep = sweep or _Sweep(n, max_n)
    mismatch = next(
        (ell for ell in range(1, n + 1) if build_t(n, ell).antipode() != build_t_prime(n, ell)),
        None,
    )
    results = [
        check_gram(dual_basis(sweep.family)),
        CheckResult(
            "duality",
            "antipode(t_ell) = t'_ell",
            mismatch is None,
            f"fails at ell={mismatch}" if mismatch else "",
        ),
    ]
    failed = " and ".join(r.name for r in results if not r.passed)
    if failed:
        results.extend(
            CheckResult("duality", DUAL_TRIANGULAR.format(ell), False, f"not derived: {failed} failed")
            for ell in range(1, n + 1)
        )
    else:
        results.extend(sweep.lines[1])
    results.append(check_antipode_conjugation(n, max_n))
    return results


def check_antipode_conjugation(n: int, max_n: int | None = None) -> CheckResult:
    """Matrix identity R(sum of c t') = S L(sum of c t) S^{-1} over the
    standard basis: column w of R, w x', must be column w^{-1} of L, x w^{-1},
    with each permutation inverted; integer columns, denominators cleared once."""
    require_within_cap(n, max_n)
    weights = pseudo_random_weights(n)
    x = combine(weights)
    x_prime = linear_combine((c, build_t_prime(n, ell)) for ell, c in enumerate(weights, start=1))
    perms, rank = sn_index(n)
    den, x_terms = integer_terms(x.terms)
    prime_den, prime_terms = integer_terms(x_prime.terms)
    times_prime = [(_composer(v), b) for v, b in prime_terms]
    inverted = [rank[inverse(v)] for v in perms]
    bad = None
    for w in perms:
        times_w_inverse = _composer(inverse(w))
        lhs = {rank[times_v(w)]: b for times_v, b in times_prime}
        rhs = {inverted[rank[times_w_inverse(u)]]: a for u, a in x_terms}
        if prime_den != den or lhs != rhs:
            bad = f"columns differ at w={w}"
            break
    return CheckResult("duality", "R(t') = S L(t) S^-1 as matrices", bad is None, bad or "")


def check_annihilator(n: int, max_n: int | None = None) -> list[CheckResult]:
    results = []
    for label, weights in (
        ("all-ones", tuple(Fraction(1) for _ in range(n))),
        ("random-to-below", r2b_weights(n)),
        ("pseudo-random", pseudo_random_weights(n)),
    ):
        ok, residual = annihilator_check(weights, max_n=max_n)
        results.append(
            CheckResult(
                "annihilator",
                f"product of (t - g_I) vanishes for {label} weights",
                ok,
                "" if ok else f"{len(residual)} surviving terms",
            )
        )
    return results


def check_identities(n: int, max_n: int | None = None) -> list[CheckResult]:
    results = []
    nilpotency, separate = _nilpotency_reports(n, max_n)
    for label, report in (
        ("product identity suite", identity_suite(n, max_n)),
        ("commutator nilpotency", nilpotency),
        ("separate nilpotency exponents", separate),
    ):
        failures = report.failures()
        detail = "" if not failures else "; ".join(
            f"{c.name}{c.params}: {c.residual_terms} terms survive" for c in failures[:3]
        )
        results.append(CheckResult("identities", f"{label} at n={n}", not failures, detail))
    return results


def check_boolean_partition(n: int) -> list[CheckResult]:
    """Every subset of [n-1] lies in exactly one interval [I', [n-1] - I]
    over lacunar I."""
    bad = None
    for j_mask in range(0, 1 << (n - 1)):
        j = j_mask << 1  # bits 1..n-1
        try:
            locate_interval([i for i in range(1, n) if j >> i & 1], n)
        except RuntimeError as exc:
            bad = f"subset mask {j:#x}: {exc}"
            break
    return [
        CheckResult(
            "boolean-partition",
            f"each of the 2^{n - 1} subsets matches exactly one lacunar interval",
            bad is None,
            bad or "",
        )
    ]


# named by cycleshuffles.SUITE_NAMES, in its order, so the CLI lists them without importing this module;
# each lambda looks its check up by name when it runs, so the wrappers benchmarks/tracer.py patches in are called
SUITES = dict(
    zip(
        SUITE_NAMES,
        (
            lambda n, max_n, sweep: check_triangularity(n, max_n, sweep),
            lambda n, max_n, sweep: check_annihilator(n, max_n),
            lambda n, max_n, sweep: check_duality(n, max_n, sweep),
            lambda n, max_n, sweep: check_identities(n, max_n),
            lambda n, max_n, sweep: check_boolean_partition(n),
        ),
        strict=True,
    )
)


def run_suite(name: str, n: int, max_n: int | None = None) -> list[CheckResult]:
    """Run one suite, or every suite for "all", after checking n against the
    cap once: no suite runs above it, whether it enumerates S_n or not.  The
    suites share one a-family and one draw of its R(t_ell) columns."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)} or 'all'")
    require_within_cap(n, max_n)
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    sweep = _Sweep(n, max_n)
    return [result for suite in suites for result in suite(n, max_n, sweep)]
