"""Command-line front end: spectra, filtration tables, matrix exports,
verification suites and strong-stationary-time simulation.

This module is the parse layer: the argument types, the parser, run and
main.  At module level it imports argparse (and os and sys, which
argparse loads) and DEFAULT_MAX_N and SUITE_NAMES from the package root,
and nothing else: building the parser compiles no other module of the
package and loads neither fractions nor json.  A rational flag loads
fractions when it is parsed.  run imports cycleshuffles.commands, which
holds the subcommands and their renderer, only once the arguments have
parsed, and each command imports the modules it runs when it runs.

Exit codes: 0 on success (and all checks passing), 1 on a verification
failure, 2 on a usage, I/O or memory error (malformed rationals, degree
over cap, P(1) = 0 for simulate, an unwritable --output, more trials than
memory holds, ...).
"""

import argparse
import os
import sys

from . import DEFAULT_MAX_N, SUITE_NAMES


def _fraction(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed rational {text!r}") from None


def _fraction_list(text: str) -> tuple:
    return tuple(_fraction(part) for part in text.split(","))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed(text: str) -> int:
    """A seed as the Philox key holds it, so that two seeds never share a stream."""
    message = f"expected an integer in [0, 2^64), got {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(message)
    return value


def _output_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got an empty string")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleshuffles",
        description="Exact spectral analysis and simulation of one-sided cycle shuffles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats=("text", "json", "csv")) -> None:
        p.add_argument("--n", type=_positive_int, required=True, help="deck size")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", type=_output_path, help="write to this path instead of stdout")

    def max_n(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-n",
            type=_positive_int,
            default=None,
            help=f"raise the full-algebra degree cap (default {DEFAULT_MAX_N})",
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
    max_n(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=_positive_int, metavar="L", help="somewhere-to-below shuffle t_L")
    group.add_argument("--osc", type=_fraction_list, metavar="DIST", help="position distribution")
    p.add_argument(
        "--basis",
        choices=("std", "a", "b"),
        default="std",
        help="std with --t: column w holds w*t_L (right multiplication); "
        "std with --osc: the transition matrix, row tau holds tau*osc(P), "
        "i.e. the transpose of the --t convention",
    )
    p.add_argument("--order", choices=("lex", "qindex", "qindex-desc"), default="lex")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, formats=("text", "json"))
    max_n(p)
    p.add_argument("--suite", choices=sorted(SUITE_NAMES) + ["all"], required=True)

    p = sub.add_parser("simulate", help="simulate the bookmark strong stationary time")
    common(p, formats=("text", "json"))
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, required=True, help="an integer in [0, 2^64)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--uniform", action="store_true", help="uniform position choice (default)")
    group.add_argument("--dist", type=_fraction_list, help="explicit position distribution")
    p.add_argument(
        "--fast", action="store_true", help="bookmark-only simulator: sum of geometric stage times"
    )

    return parser


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    import contextlib

    from .commands import COMMANDS

    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        if isinstance(exc, BrokenPipeError):  # so that flushing stdout at exit cannot fail on the closed pipe
            with contextlib.suppress(OSError, ValueError):  # a stdout without a descriptor is left alone
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        with contextlib.suppress(OSError):  # stderr can be the same closed pipe
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
