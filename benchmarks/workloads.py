"""The operations of each workload, made from the seed.

Each operation runs in its own process (see op.py).  Its ``check`` receives
the output text, the exit code and a dict shared by the operations of one
pass, and raises ``checkers.Incorrect`` or ``checkers.OpFailed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checkers
import oracle

FORMATS = ("json", "text", "csv")

# spectra: the catalog has fibonacci(21) = 10946 rows; one spectrum costs about
# two seconds here, so a pass of six operations takes about nine.
SPECTRA_N = 20
SPECTRA_SAMPLE = 300
# certify: verify --suite all is still seconds at n = 6 (minutes at n = 7);
# the characteristic-polynomial oracle is capped at 120 x 120, i.e. n = 5.
CERTIFY_N = 6
CHAR_POLY_N = 5
# sst: the two simulators at their ROADMAP sizes
SST_N, SST_TRIALS = 10, 200_000
FAST_N, FAST_TRIALS = 1000, 100_000


@dataclass(frozen=True)
class Op:
    name: str
    spec: dict
    check: Callable[[str, int, dict], None]


def _exited_ok(returncode: int) -> None:
    if returncode != 0:
        raise checkers.OpFailed(f"exit code {returncode}")


def _signed_weights(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def spectra(seed: int) -> list[Op]:
    n = SPECTRA_N
    rng = random.Random(seed)
    weights = _signed_weights(rng, n)
    sample = rng.sample(range(oracle.fibonacci(n + 1)), SPECTRA_SAMPLE)
    # each weight vector once and each renderer once, so three spectra cover both
    kinds = (
        ("r2b", ["--r2b"], oracle.r2b_weights(n), "json"),
        ("unweighted", ["--unweighted"], oracle.unweighted_weights(n), "text"),
        ("random", [f"--weights={_csv(weights)}"], weights, "csv"),
    )
    ops = []
    for kind, flags, lam, fmt in kinds:

        def check(text, rc, _ctx, fmt=fmt, lam=lam):
            _exited_ok(rc)
            checkers.check_spectrum(text, fmt, n, lam, sample)

        argv = ["spectrum", "--n", str(n), *flags, "--format", fmt]
        ops.append(Op(f"spectrum-{kind}-{fmt}", {"kind": "cli", "argv": argv}, check))
    for fmt in FORMATS:

        def check(text, rc, _ctx, fmt=fmt):
            _exited_ok(rc)
            checkers.check_filtration(text, fmt, n, sample)

        argv = ["filtration", "--n", str(n), "--format", fmt]
        ops.append(Op(f"filtration-{fmt}", {"kind": "cli", "argv": argv}, check))
    return ops


def certify(seed: int) -> list[Op]:
    n = CERTIFY_N
    uniform = [Fraction(1, n)] * n
    r2b = oracle.osc_weights(uniform)
    weights5 = _signed_weights(random.Random(seed), CHAR_POLY_N)
    osc = ["matrix", "--n", str(n), "--osc", _csv(uniform)]

    def check_verify(text, rc, _ctx):
        checkers.check_verify(text, rc, n)

    def check_a(text, rc, ctx):
        _exited_ok(rc)
        ctx["a_labels"] = checkers.check_a_matrix(text, n, r2b)

    def check_std(text, rc, ctx):
        _exited_ok(rc)
        if "a_labels" not in ctx:
            raise checkers.OpFailed("no a-basis export to compare the row order with")
        checkers.check_transition_matrix(text, n, ctx["a_labels"])

    def check_minpoly(text, rc, _ctx):
        _exited_ok(rc)
        checkers.check_minimal_polynomial(text, n, r2b)

    def check_charpoly(text, rc, _ctx):
        _exited_ok(rc)
        checkers.check_char_poly(text, CHAR_POLY_N, weights5)

    def cli(*argv):
        return {"kind": "cli", "argv": list(argv)}

    def library(kind, weights):
        return {"kind": kind, "weights": [str(w) for w in weights]}

    return [
        Op("verify-all", cli("verify", "--n", str(n), "--suite", "all"), check_verify),
        Op("matrix-a-qindex", cli(*osc, "--basis", "a", "--order", "qindex"), check_a),
        # Fails today: the std branch of cmd_matrix ignores --order and prints lex order.
        Op("matrix-std-qindex", cli(*osc, "--basis", "std", "--order", "qindex"), check_std),
        Op("minimal-polynomial-r2b", library("minimal_polynomial", r2b), check_minpoly),
        Op("char-poly-a-basis", library("char_poly", weights5), check_charpoly),
    ]


def sst(seed: int) -> list[Op]:
    rng = random.Random(seed)
    seeds = [rng.randrange(1 << 32) for _ in range(3)]
    uniform = [Fraction(1, SST_N)] * SST_N
    # top-heavy: P(i) proportional to n + 1 - i
    skewed = [Fraction(2 * (SST_N + 1 - i), SST_N * (SST_N + 1)) for i in range(1, SST_N + 1)]
    fast = [Fraction(1, FAST_N)] * FAST_N
    runs = (
        ("uniform", SST_N, SST_TRIALS, seeds[0], [], uniform, True),
        ("skewed", SST_N, SST_TRIALS, seeds[1], ["--dist", _csv(skewed)], skewed, True),
        ("fast", FAST_N, FAST_TRIALS, seeds[2], ["--fast"], fast, False),
    )
    ops = []
    for label, n, trials, s, flags, dist, exact in runs:

        def check(text, rc, _ctx, n=n, dist=dist, trials=trials, exact=exact):
            _exited_ok(rc)
            checkers.check_simulation(text, n, dist, trials, exact)

        argv = ["simulate", "--n", str(n), "--trials", str(trials), "--seed", str(s), *flags]
        argv += ["--format", "json"]
        ops.append(Op(f"simulate-{label}", {"kind": "cli", "argv": argv}, check))
    return ops


WORKLOADS = {"spectra": spectra, "certify": certify, "sst": sst}
