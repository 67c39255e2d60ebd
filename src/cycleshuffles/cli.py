"""Command-line front end: spectra, filtration tables, matrix exports,
verification suites and strong-stationary-time simulation.

Exit codes: 0 on success (and all checks passing), 1 on a verification
failure, 2 on a usage or I/O error (malformed rationals, degree over cap,
P(1) = 0 for simulate, an unwritable --output, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .algebra import MAX_N_ENV_VAR
from .basis import basis_order, rmul_matrix
from .checks import SUITES, run_suite
from .lacunar import enumerate_lacunar, format_subset, non_shadow
from .shuffles import (
    build_osc,
    build_t,
    r2b_weights,
    t2r_weights,
    transition_matrix,
    uniform_distribution,
    unweighted_weights,
)
from .spectrum import delta, full_spectrum
from .simulate import fast_bookmark_sim, simulate_sst


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed rational {text!r}") from None


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(part) for part in text.split(","))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleshuffles",
        description="Exact spectral analysis and simulation of one-sided cycle shuffles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
        p.add_argument("--n", type=_positive_int, required=True, help="deck size")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument(
            "--max-n",
            type=int,
            default=None,
            help=f"override the full-algebra degree cap (also {MAX_N_ENV_VAR})",
        )

    p = sub.add_parser("spectrum", help="eigenvalues and multiplicities for given weights")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weights", type=_fraction_list, help="comma-separated rationals, one per t_ell")
    group.add_argument("--t2r", action="store_true", help="top-to-random weights")
    group.add_argument("--r2b", action="store_true", help="random-to-below weights")
    group.add_argument("--unweighted", action="store_true", help="unweighted one-sided cycle weights")

    p = sub.add_parser("filtration", help="catalog order, dimensions and multiplicities")
    common(p)

    p = sub.add_parser("matrix", help="export a shuffle matrix")
    common(p, formats=("csv", "json"))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=_positive_int, metavar="L", help="somewhere-to-below shuffle t_L")
    group.add_argument("--osc", type=_fraction_list, metavar="DIST", help="position distribution")
    p.add_argument("--basis", choices=("std", "a", "b"), default="std")
    p.add_argument("--order", choices=("lex", "qindex", "qindex-desc"), default="lex")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"], required=True)

    p = sub.add_parser("simulate", help="simulate the bookmark strong stationary time")
    common(p, formats=("text", "json"))
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--uniform", action="store_true", help="uniform position choice (default)")
    group.add_argument("--dist", type=_fraction_list, help="explicit position distribution")
    p.add_argument("--fast", action="store_true", help="bookmark-only simulator (uniform P only)")

    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _resolve_weights(args) -> tuple[Fraction, ...]:
    n = args.n
    if args.t2r:
        return t2r_weights(n)
    if args.r2b:
        return r2b_weights(n)
    if args.unweighted:
        return unweighted_weights(n)
    if len(args.weights) != n:
        raise ValueError(f"expected {n} weights, got {len(args.weights)}")
    return args.weights


def _spectrum_text(report) -> str:
    lines = [f"n = {report.n}, weights = {', '.join(str(c) for c in report.weights)}"]
    lines.append(f"{'i':>4} {'Q_i':>12} {'eigenvalue':>14} {'multiplicity':>14}  m-vector")
    for i, row in enumerate(report.rows, start=1):
        lines.append(
            f"{i:>4} {format_subset(row.members):>12} {str(row.eigenvalue):>14} "
            f"{row.multiplicity:>14}  ({', '.join(map(str, row.m))})"
        )
    lines.append("aggregate:")
    for g, mult in report.aggregate:
        lines.append(f"  eigenvalue {g}: multiplicity {mult}")
    return "\n".join(lines) + "\n"


def _spectrum_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["i", "set", "m", "eigenvalue", "multiplicity"])
    for i, row in enumerate(report.rows, start=1):
        writer.writerow(
            [i, format_subset(row.members), " ".join(map(str, row.m)), row.eigenvalue, row.multiplicity]
        )
    return buf.getvalue()


def cmd_spectrum(args) -> int:
    weights = _resolve_weights(args)
    report = full_spectrum(weights, enumerate_lacunar(args.n))
    if args.format == "json":
        _emit(json.dumps(report.to_json(), indent=2) + "\n", args.output)
    elif args.format == "csv":
        _emit(_spectrum_csv(report), args.output)
    else:
        _emit(_spectrum_text(report), args.output)
    return 0


def cmd_filtration(args) -> int:
    catalog = enumerate_lacunar(args.n)
    deltas = [delta(i, catalog) for i in range(1, len(catalog) + 1)]
    dims = []
    running = 0
    for d in deltas:
        running += d
        dims.append(running)
    if args.format == "json":
        payload = {
            "n": args.n,
            "rows": [
                {
                    "i": i,
                    "set": sorted(catalog[i]),
                    "non_shadow": sorted(non_shadow(catalog[i], args.n)),
                    "dim": dims[i - 1],
                    "delta": deltas[i - 1],
                }
                for i in range(1, len(catalog) + 1)
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["i", "Q_i", "Q_i'", "dim F_i", "delta_i"])
        for i in range(1, len(catalog) + 1):
            writer.writerow(
                [
                    i,
                    format_subset(catalog[i]),
                    format_subset(non_shadow(catalog[i], args.n)),
                    dims[i - 1],
                    deltas[i - 1],
                ]
            )
        _emit(buf.getvalue(), args.output)
        return 0
    headers = ["i", "Q_i", "Q_i'", "dim F_i", "delta_i"]
    cells = [
        [
            str(i),
            format_subset(catalog[i]),
            format_subset(non_shadow(catalog[i], args.n)),
            str(dims[i - 1]),
            str(deltas[i - 1]),
        ]
        for i in range(1, len(catalog) + 1)
    ]
    widths = [
        max(len(headers[k]), max(len(row[k]) for row in cells)) for k in range(len(headers))
    ]
    lines = [" | ".join(h.rjust(widths[k]) for k, h in enumerate(headers))]
    for row in cells:
        lines.append(" | ".join(entry.rjust(widths[k]) for k, entry in enumerate(row)))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _matrix_csv(labels, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([""] + [",".join(map(str, w)) for w in labels])
    for w, row in zip(labels, rows):
        writer.writerow([",".join(map(str, w))] + [str(v) for v in row])
    return buf.getvalue()


def cmd_matrix(args) -> int:
    n = args.n
    if args.osc is not None:
        if len(args.osc) != n:
            raise ValueError(f"expected {n} probabilities, got {len(args.osc)}")
        element = build_osc(args.osc)
        if args.basis == "std":
            tm = transition_matrix(element)
            labels, rows = tm.perms, tm.rows
            if args.order != "lex":
                labels = basis_order(n, args.order)
                lex_rank = {w: k for k, w in enumerate(tm.perms)}
                picks = [lex_rank[w] for w in labels]
                # permuted one row at a time as it is rendered, never held whole
                rows = ([tm.rows[i][j] for j in picks] for i in picks)
        else:
            labels, rows = rmul_matrix(element, args.basis, args.order)
    else:
        if args.t > n:
            raise ValueError(f"--t {args.t} exceeds n={n}")
        element = build_t(n, args.t)
        labels, rows = rmul_matrix(element, args.basis, args.order)
    if args.format == "json":
        payload = {
            "n": n,
            "order": [",".join(map(str, w)) for w in labels],
            "rows": [[str(v) for v in row] for row in rows],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit(_matrix_csv(labels, rows), args.output)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, args.n)
    if args.format == "json":
        payload = [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit("".join(r.line() + "\n" for r in results), args.output)
    return 0 if all(r.passed for r in results) else 1


def cmd_simulate(args) -> int:
    n = args.n
    if args.dist is not None:
        if len(args.dist) != n:
            raise ValueError(f"expected {n} probabilities, got {len(args.dist)}")
        dist = args.dist
    else:
        dist = uniform_distribution(n)
    if args.fast:
        if dist != uniform_distribution(n):
            raise ValueError("--fast simulates the bookmark stages of the uniform shuffle only")
        result = fast_bookmark_sim(n, args.trials, args.seed)
    else:
        result = simulate_sst(dist, args.trials, args.seed)
    if args.format == "json":
        _emit(json.dumps(result.to_json(), indent=2) + "\n", args.output)
    else:
        lines = [
            f"n = {result.n}, trials = {result.trials}, seed = {result.seed}, rng = {result.rng}",
            f"mean tau = {result.mean:.6f} +/- {result.stderr:.6f} (stderr)",
        ]
        if result.exact is not None:
            lines.append(f"exact expectation = {result.exact} = {float(result.exact):.6f}")
        if result.upper_bound is not None:
            lines.append(f"proved upper bound = {result.upper_bound:.6f}")
        if result.conjectured_lower is not None:
            lines.append(f"conjectured lower bound = {result.conjectured_lower:.6f}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


@contextlib.contextmanager
def _cap_override(max_n: int | None):
    """Expose --max-n to every capped operation for this invocation only."""
    if max_n is None:
        yield
        return
    previous = os.environ.get(MAX_N_ENV_VAR)
    os.environ[MAX_N_ENV_VAR] = str(max_n)
    try:
        yield
    finally:
        if previous is None:
            del os.environ[MAX_N_ENV_VAR]
        else:
            os.environ[MAX_N_ENV_VAR] = previous


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "spectrum": cmd_spectrum,
        "filtration": cmd_filtration,
        "matrix": cmd_matrix,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
    }[args.command]
    try:
        with _cap_override(args.max_n):
            return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
