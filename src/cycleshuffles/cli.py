"""Command-line front end: spectra, filtration tables, matrix exports,
verification suites and strong-stationary-time simulation.

Exit codes: 0 on success (and all checks passing), 1 on a verification
failure, 2 on a usage, I/O or memory error (malformed rationals, degree
over cap, P(1) = 0 for simulate, an unwritable --output, more trials than
memory holds, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import re
import stat
import sys
from fractions import Fraction
from functools import lru_cache

from .algebra import MAX_N_ENV_VAR
from .basis import rmul_matrix
from .checks import SUITES, run_suite
from .lacunar import enumerate_lacunar, format_subset, gap_table, mask_members, walk_gaps
from .perms import format_permutation
from .shuffles import (
    build_osc,
    build_t,
    r2b_weights,
    t2r_weights,
    uniform_distribution,
    unweighted_weights,
)
from .spectrum import full_spectrum


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
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"], required=True)

    p = sub.add_parser("simulate", help="simulate the bookmark strong stationary time")
    common(p, formats=("text", "json"))
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--uniform", action="store_true", help="uniform position choice (default)")
    group.add_argument("--dist", type=_fraction_list, help="explicit position distribution")
    p.add_argument(
        "--fast", action="store_true", help="bookmark-only simulator: sum of geometric stage times"
    )

    return parser


def _emit(text: str, output: str | None) -> None:
    """Write text to stdout, or to the file at output.

    A new file, or an existing regular file of ours with a single link, is
    written to a temporary file beside it first and renamed over it, so it
    is either left as it was or replaced whole, with its permission bits
    kept.  A symbolic link is followed, so the file it points to is the one
    replaced.  Anything else (a FIFO, a device, a read-only, shared or
    hard-linked file) is written in place, as plain open() does.
    """
    if not output:
        sys.stdout.write(text)
        return
    try:
        st = os.stat(output)
    except FileNotFoundError:
        st = None
    if st is not None and not (
        stat.S_ISREG(st.st_mode)
        and st.st_nlink == 1
        and st.st_uid == os.geteuid()
        and os.access(output, os.W_OK)
    ):
        with open(output, "w") as handle:
            handle.write(text)
        return
    target = os.path.realpath(output)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        handle = open(tmp, "x")
        try:
            with handle:
                handle.write(text)
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename is None:
            raise
        # name the path the caller gave, not the temporary file beside it
        raise OSError(exc.errno, exc.strerror, output) from None


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset({str, int, float, bool, type(None)})


@lru_cache(maxsize=None)
def _json_level(depth: int) -> tuple[json.JSONEncoder, re.Pattern]:
    """The C encoder of the containers at this depth, and the split between them."""
    separator = ",\n" + "  " * (depth + 1)
    boundary = re.compile(separator + "(?<=[\\]}]" + separator + ")")
    return json.JSONEncoder(separators=(separator, ": ")), boundary


def _json_texts(containers: list, depth: int) -> list[str]:
    """json.dumps(c, indent=2) of each container, as it reads at this depth.

    With an indent the stdlib falls back to its pure-Python encoder, so here
    the C encoder writes all the containers of one depth in a single call,
    with the line break and indent of depth + 1 as the item separator.  A
    child container stands in as null and is written with the next depth.
    A raw line break never occurs inside an encoded key or scalar, and only
    a container's text ends in a bracket, so a bracket and the separator
    split the containers, and the separator alone splits their items.
    """
    encoder, boundary = _json_level(depth)
    separator = encoder.item_separator
    shallow, stand_ins, children = [], [], []
    for container in containers:
        values = container.values() if isinstance(container, dict) else container
        held: list[int] | tuple = ()  # the places of the child containers
        if not _SCALARS.issuperset(map(type, values)):  # plain scalars skip the search
            held = [i for i, value in enumerate(values) if isinstance(value, _CONTAINERS)]
        if held:
            values = list(values)
            children += (values[i] for i in held)
            for i in held:
                values[i] = None
            container = dict(zip(container, values)) if isinstance(container, dict) else values
        shallow.append(container)
        stand_ins.append(held)
    texts = boundary.split(encoder.encode(shallow))
    texts[0] = texts[0][1:]  # the brackets of the list of them all
    texts[-1] = texts[-1][:-1]
    del shallow  # the copies with stand-ins are done with before the next depth
    # popped from the end, so that each child's text is freed once it is copied in
    child_texts = _json_texts(children, depth + 1)[::-1] if children else []
    close = "\n" + "  " * depth
    for k, held in enumerate(stand_ins):
        text = texts[k]
        if len(text) == 2:  # an empty container stays "[]" or "{}"
            continue
        items = text[1:-1].split(separator) if held else [text[1:-1]]
        for i in held:
            items[i] = items[i][: -len("null")] + child_texts.pop()
        items[0] = text[0] + separator[1:] + items[0]
        items[-1] += close + text[-1]
        texts[k] = separator.join(items)
    return texts


def _json_text(value) -> str:
    """Exactly json.dumps(value, indent=2)."""
    if isinstance(value, _CONTAINERS):
        return _json_texts([value], 0)[0]
    return json.dumps(value)


def _emit_json(payload, output: str | None) -> None:
    _emit(_json_text(payload) + "\n", output)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _resolve_weights(args) -> tuple[Fraction, ...]:
    n = args.n
    if args.t2r:
        return t2r_weights(n)
    if args.r2b:
        return r2b_weights(n)
    if args.unweighted:
        return unweighted_weights(n)
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


def cmd_spectrum(args) -> int:
    report = full_spectrum(_resolve_weights(args), enumerate_lacunar(args.n))
    if args.format == "json":
        _emit_json(report.to_json(), args.output)
    elif args.format == "csv":
        rows = [
            [i, format_subset(row.members), " ".join(map(str, row.m)), row.eigenvalue, row.multiplicity]
            for i, row in enumerate(report.rows, start=1)
        ]
        _emit(_csv_text([["i", "set", "m", "eigenvalue", "multiplicity"], *rows]), args.output)
    else:
        _emit(_spectrum_text(report), args.output)
    return 0


def cmd_filtration(args) -> int:
    n = args.n
    catalog = enumerate_lacunar(n)
    table = gap_table(n)
    deltas = [walk_gaps(members, table)[2] for members in catalog.members]
    non_shadows = map(mask_members, catalog.non_shadow_masks)
    dims = itertools.accumulate(deltas)
    entries = zip(itertools.count(1), catalog.members, non_shadows, dims, deltas)
    if args.format == "json":
        rows = [
            {"i": i, "set": list(s), "non_shadow": list(q), "dim": dim, "delta": d}
            for i, s, q, dim, d in entries
        ]
        _emit_json({"n": n, "rows": rows}, args.output)
        return 0
    cells = [
        ["i", "Q_i", "Q_i'", "dim F_i", "delta_i"],
        *(
            [str(i), format_subset(s), format_subset(q), str(dim), str(d)]
            for i, s, q, dim, d in entries
        ),
    ]
    if args.format == "csv":
        _emit(_csv_text(cells), args.output)
        return 0
    widths = [max(map(len, column)) for column in zip(*cells)]
    _emit(
        "".join(" | ".join(e.rjust(w) for e, w in zip(row, widths)) + "\n" for row in cells),
        args.output,
    )
    return 0


def cmd_matrix(args) -> int:
    n = args.n
    if args.osc is not None:
        if len(args.osc) != n:
            raise ValueError(f"expected {n} probabilities, got {len(args.osc)}")
        element = build_osc(args.osc)
    else:
        if args.t > n:
            raise ValueError(f"--t {args.t} exceeds n={n}")
        element = build_t(n, args.t)
    labels, rows = rmul_matrix(element, args.basis, args.order, max_n=args.max_n)
    if args.osc is not None and args.basis == "std":
        rows = zip(*rows)  # the transition matrix: row tau holds tau * osc(P)
    names = [format_permutation(w) for w in labels]
    if args.format == "json":
        payload = {"n": n, "order": names, "rows": [[str(v) for v in row] for row in rows]}
        _emit_json(payload, args.output)
    else:
        body = ([name, *row] for name, row in zip(names, rows))
        _emit(_csv_text(itertools.chain([["", *names]], body)), args.output)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, args.n, args.max_n)
    if args.format == "json":
        payload = [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        _emit_json(payload, args.output)
    else:
        _emit("".join(r.line() + "\n" for r in results), args.output)
    return 0 if all(r.passed for r in results) else 1


def cmd_simulate(args) -> int:
    # Imported here so that only this subcommand pays for loading numpy.
    from .simulate import fast_bookmark_sim, simulate_sst

    n = args.n
    dist = uniform_distribution(n) if args.dist is None else args.dist
    if len(dist) != n:
        raise ValueError(f"expected {n} probabilities, got {len(dist)}")
    simulator = fast_bookmark_sim if args.fast else simulate_sst
    result = simulator(dist, args.trials, args.seed)
    if args.format == "json":
        _emit_json(result.to_json(), args.output)
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
        return handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
