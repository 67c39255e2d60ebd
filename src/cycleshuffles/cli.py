"""Command-line front end: spectra, filtration tables, matrix exports,
verification suites and strong-stationary-time simulation.

Every table is written in chunks of _CHUNK_ROWS rows; only the matrix CSV
is written whole, by csv.writer.  spectrum and filtration stream their rows
from lacunar.catalog_rows, each printed by concatenating the cached per-gap
texts of lacunar.gap_texts; they hold no catalog, report or output beyond
one chunk and the aggregate of equal eigenvalues.  matrix --format json
renders the rows of the basis.rmul_matrix result one by one.  Input is
checked before the first byte is written.  Every JSON text is what
json.dumps(..., indent=2) writes: the small payloads are written by it, and
the streamed tables splice their rows into the frame it writes around them.

Each subcommand loads only the modules it runs: at module level this
imports the standard library, lacunar and inputs, which is all that
spectrum and filtration need; matrix imports basis, perms and shuffles,
verify imports checks, and simulate imports simulate (and with it numpy)
when they run.

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
import math
import os
import stat
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from .inputs import (
    MAX_N_ENV_VAR,
    SUITE_NAMES,
    _exact_weights,
    r2b_weights,
    t2r_weights,
    uniform_distribution,
    unweighted_weights,
)
from .lacunar import catalog_rows, fibonacci, format_subset, gap_table, gap_texts


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
    p.add_argument("--suite", choices=sorted(SUITE_NAMES) + ["all"], required=True)

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


def _emit(text: str | Iterable[str], output: str | None) -> None:
    """Write text, or the texts of an iterable in turn, to stdout or to the
    file at output.

    A new file, or an existing regular file of ours with a single link, is
    written to a temporary file beside it first and renamed over it, so it
    is either left as it was or replaced whole, with its permission bits
    kept, however many texts were written before a failure.  A symbolic
    link is followed, so the file it points to is the one replaced.
    Anything else (a FIFO, a device, a read-only, shared or hard-linked
    file) is written in place, as plain open() does.
    """
    chunks = (text,) if isinstance(text, str) else text
    if not output:
        for chunk in chunks:
            sys.stdout.write(chunk)
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
            for chunk in chunks:
                handle.write(chunk)
        return
    target = os.path.realpath(output)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        handle = open(tmp, "x")
        try:
            with handle:
                for chunk in chunks:
                    handle.write(chunk)
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


_CHUNK_ROWS = 2048
# the list forms of gap_texts: subsets, m vectors and JSON lists at depth 3
_BRACES = ("{", ",", "}")
_PARENS = ("(", ", ", ")")
_SPACED = ("", " ", "")


def _chunks(items: Iterator[str], separator: str = "") -> Iterator[str]:
    """The items joined by separator, _CHUNK_ROWS of them to a text; the
    items of a text are let go before it is written."""
    batch = list(itertools.islice(items, _CHUNK_ROWS))
    while batch:
        text, batch = separator.join(batch), None
        yield text
        batch = list(itertools.islice(items, _CHUNK_ROWS))
        if batch:
            yield separator


def _csv_field(text: str) -> str:
    """The csv module's minimal quoting of a text with no quote or line break."""
    return f'"{text}"' if "," in text else text


def _json_forms() -> tuple[str, str, str, str, tuple[str, str, str]]:
    """The item separators of the depths 1 and 2, the opening and closing of
    an object at depth 2, and the gap_texts list form of depth 3, as
    json.dumps(..., indent=2) writes them: a container opens with its
    bracket and the separator of its items, less the comma, and closes with
    the separator of its own depth, less the comma."""
    sep1, sep2, sep3 = (",\n" + "  " * (depth + 1) for depth in (1, 2, 3))
    return sep1, sep2, "{" + sep2[1:], sep1[1:] + "}", ("[" + sep3[1:], sep3, sep2[1:] + "]")


def _json_frame(payload: dict) -> list[str]:
    """The json.dumps(..., indent=2) text of the payload around each of its
    null values, in order; no string in the payload may contain null."""
    return json.dumps(payload, indent=2).split("null")


def _spectrum_rows(
    n: int, numerators, den: int, totals: dict, members_form, m_form
) -> Iterator[tuple[int, str, str, str, str]]:
    """(i, Q_i, m, g_I, delta_i) of each catalog row, all but i as text, the
    lists in the forms (opening, joiner, closing) of gap_texts, while totals
    gathers den * g_I -> [g_I as text, total multiplicity]."""
    members_texts, m_texts = gap_texts(n, *members_form), gap_texts(n, *m_form)
    cells = [
        [cell and (members_texts[a][b][0], m_texts[a][b][1], *cell[1:]) for b, cell in enumerate(gaps)]
        for a, gaps in enumerate(gap_table(n, numerators))
    ]
    for i, (members, m, g, multiplicity) in enumerate(catalog_rows(n, cells), start=1):
        total = totals.get(g)
        if total is None:
            common = math.gcd(g, den)  # the text of Fraction(g, den), den > 0
            text = str(g // common) if common == den else f"{g // common}/{den // common}"
            total = totals[g] = [text, 0]
        total[1] += multiplicity
        yield i, members, m, total[0], str(multiplicity)


def _aggregate(totals: dict) -> Iterator[list]:
    """[g_I, total multiplicity], g_I descending; den > 0 keeps the order."""
    return (totals[g] for g in sorted(totals, reverse=True))


def _spectrum_text(n, weights, numerators, den) -> Iterator[str]:
    totals: dict[int, list] = {}
    yield f"n = {n}, weights = {', '.join(str(c) for c in weights)}\n"
    yield f"{'i':>4} {'Q_i':>12} {'eigenvalue':>14} {'multiplicity':>14}  m-vector\n"
    rows = _spectrum_rows(n, numerators, den, totals, _BRACES, _PARENS)
    yield from _chunks(f"{i:>4} {s:>12} {g:>14} {d:>14}  {m}\n" for i, s, m, g, d in rows)
    yield "aggregate:\n"
    yield from _chunks(f"  eigenvalue {g}: multiplicity {d}\n" for g, d in _aggregate(totals))


def _spectrum_csv(n, weights, numerators, den) -> Iterator[str]:
    totals: dict[int, list] = {}
    yield "i,set,m,eigenvalue,multiplicity\r\n"
    rows = _spectrum_rows(n, numerators, den, totals, _BRACES, _SPACED)
    yield from _chunks(f"{i},{_csv_field(s)},{m},{g},{d}\r\n" for i, s, m, g, d in rows)


def _spectrum_json(n, weights, numerators, den) -> Iterator[str]:
    sep1, sep2, opening, close, form = _json_forms()
    frame = {"n": n, "weights": [str(c) for c in weights], "rows": [None], "aggregate": [None]}
    head, middle, tail = _json_frame(frame)
    totals: dict[int, list] = {}
    yield head
    rows = _spectrum_rows(n, numerators, den, totals, form, form)
    yield from _chunks(
        (
            f'{opening}"set": {s}{sep2}"m": {m}{sep2}'
            f'"eigenvalue": "{g}"{sep2}"multiplicity": "{d}"{close}'
            for _, s, m, g, d in rows
        ),
        sep1,
    )
    yield middle
    yield from _chunks(
        (f'{opening}"eigenvalue": "{g}"{sep2}"multiplicity": "{d}"{close}' for g, d in _aggregate(totals)),
        sep1,
    )
    yield tail + "\n"


_SPECTRUM_FORMATS = {"text": _spectrum_text, "csv": _spectrum_csv, "json": _spectrum_json}


def cmd_spectrum(args) -> int:
    n = args.n
    weights, den, numerators = _exact_weights(_resolve_weights(args), n)  # refused before any byte
    _emit(_SPECTRUM_FORMATS[args.format](n, weights, numerators, den), args.output)
    return 0


def _filtration_rows(n: int, form) -> Iterator[tuple[int, str, str, int, int]]:
    """(i, Q_i, Q_i', dim F_i, delta_i) of each catalog row, the sets as
    text in the list form (opening, joiner, closing) of gap_texts."""
    texts = gap_texts(n, *form)
    cells = [
        [cell and (texts[a][b][0], texts[a][b][2], *cell[1:]) for b, cell in enumerate(gaps)]
        for a, gaps in enumerate(gap_table(n))
    ]
    opening, joiner, closing = form
    empty, skip = opening.strip() + closing.strip(), len(joiner)
    dim = 0
    for i, (members, non_shadow, _, d) in enumerate(catalog_rows(n, cells), start=1):
        dim += d
        yield i, members, opening + non_shadow[skip:] + closing if non_shadow else empty, dim, d


def _largest_delta(n: int) -> int:
    """The largest delta_i: a max-product walk over the gap factors, with
    best[b] the largest product over the gaps up to the member b."""
    table = gap_table(n)
    best = [1] + [0] * (n + 1)
    for b in (*range(1, n), n + 1):
        best[b] = max(best[a] * table[a][b][2] for a in range(max(b - 1, 1)))
    return best[n + 1]


def _filtration_text(n: int) -> Iterator[str]:
    # the widest cell of each column in closed form: the last index, the
    # most members (n - 1, n - 3, ...), the non-shadow of the empty set, n!
    header = ("i", "Q_i", "Q_i'", "dim F_i", "delta_i")
    widest = (
        str(fibonacci(n + 1)),
        format_subset(range(n - 1, 0, -2)),
        format_subset(range(1, n)),
        str(math.factorial(n)),
        str(_largest_delta(n)),
    )
    w = [max(len(h), len(c)) for h, c in zip(header, widest)]
    yield " | ".join(h.rjust(k) for h, k in zip(header, w)) + "\n"
    rows = _filtration_rows(n, _BRACES)
    yield from _chunks(
        f"{i:>{w[0]}} | {s:>{w[1]}} | {q:>{w[2]}} | {dim:>{w[3]}} | {d:>{w[4]}}\n" for i, s, q, dim, d in rows
    )


def _filtration_csv(n: int) -> Iterator[str]:
    yield "i,Q_i,Q_i',dim F_i,delta_i\r\n"
    rows = _filtration_rows(n, _BRACES)
    yield from _chunks(f"{i},{_csv_field(s)},{_csv_field(q)},{dim},{d}\r\n" for i, s, q, dim, d in rows)


def _filtration_json(n: int) -> Iterator[str]:
    sep1, sep2, opening, close, form = _json_forms()
    head, tail = _json_frame({"n": n, "rows": [None]})
    yield head
    rows = _filtration_rows(n, form)
    yield from _chunks(
        (
            f'{opening}"i": {i}{sep2}"set": {s}{sep2}"non_shadow": {q}{sep2}'
            f'"dim": {dim}{sep2}"delta": {d}{close}'
            for i, s, q, dim, d in rows
        ),
        sep1,
    )
    yield tail + "\n"


_FILTRATION_FORMATS = {"text": _filtration_text, "csv": _filtration_csv, "json": _filtration_json}


def cmd_filtration(args) -> int:
    _emit(_FILTRATION_FORMATS[args.format](args.n), args.output)
    return 0


def cmd_matrix(args) -> int:
    from .basis import rmul_matrix
    from .perms import format_permutation
    from .shuffles import build_osc, build_t

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
        sep1, sep2, *_ = _json_forms()
        head, tail = _json_frame({"n": n, "order": names, "rows": [None]})
        opening, joiner, closing = "[" + sep2[1:] + '"', '"' + sep2 + '"', '"' + sep1[1:] + "]"
        texts = (opening + joiner.join(map(str, row)) + closing for row in rows)
        _emit(itertools.chain([head], _chunks(texts, sep1), [tail + "\n"]), args.output)
    else:
        body = ([name, *row] for name, row in zip(names, rows))
        _emit(_csv_text(itertools.chain([["", *names]], body)), args.output)
    return 0


def cmd_verify(args) -> int:
    from .checks import run_suite

    results = run_suite(args.suite, args.n, args.max_n)
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
    from .simulate import fast_bookmark_sim, simulate_sst

    n = args.n
    dist = uniform_distribution(n) if args.dist is None else args.dist
    if len(dist) != n:
        raise ValueError(f"expected {n} probabilities, got {len(dist)}")
    simulator = fast_bookmark_sim if args.fast else simulate_sst
    result = simulator(dist, args.trials, args.seed)
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
