"""The subcommands behind cycleshuffles.cli: spectra, filtration tables,
matrix exports, verification suites and strong-stationary-time simulation,
and the one renderer they write through.  cli.run imports this module only
after the arguments have parsed, so a usage error or --help loads none of it.

Every table goes through one renderer, _table, _CHUNK_ROWS rows at a time:
a table declares its labels, its text row template and which JSON values
are strings; only the renderer writes headers, CSV quoting and line ends
and JSON items.  A document is a frame with a slot per table (_render): a
text, or a payload written by json.dumps(..., indent=2), which every JSON
text therefore matches byte for byte.  spectrum and filtration stream
their rows from lacunar.catalog_rows, concatenated from the cached per-gap
texts of lacunar.gap_texts, and hold no more than one chunk and the
aggregate of equal eigenvalues.  matrix renders the sparse integer rows of
basis.rmul_rows as they are drawn, one row to a chunk, each spliced from
slices of one row of zero cells and the cached text of each numerator over
the common denominator.
Input is checked before the first byte is written.

Each subcommand loads only the modules it runs: at module level this
imports the standard library and inputs; spectrum and filtration import
lacunar, matrix basis, perms and shuffles, verify checks, and simulate
simulate (and with it numpy), when they run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import stat
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from .inputs import _exact_weights, r2b_weights, t2r_weights, uniform_distribution, unweighted_weights


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
# A frame's place for a table, a JSON row pattern's for a cell: json.dumps writes
# it \u0000, and no payload (numerals, rationals, permutations, RNG name) has one.
_SLOT = "\0"
# the item separators at depths 1, 2 and 3 that json.dumps(..., indent=2) writes
_SEP1, _SEP2, _SEP3 = (",\n" + "  " * (depth + 1) for depth in (1, 2, 3))
# the list forms of gap_texts for subsets and JSON lists at depth 3
_BRACES = ("{", ",", "}")
_JSON_LIST = ("[" + _SEP3[1:], _SEP3, _SEP2[1:] + "]")


def _render(fmt: str, frame, tables: Iterable[tuple]) -> Iterator[str]:
    """The texts of frame, a JSON payload in json and a text otherwise, with
    the next table in place of each _SLOT (in JSON, each list [_SLOT]); tables
    yields each table's _table arguments when it is due, after the rows before."""
    if fmt == "json":
        frame = json.dumps(frame, indent=2).replace(json.dumps(_SLOT), _SLOT) + "\n"
    head, *pieces = frame.split(_SLOT)
    yield head
    for piece, table in zip(pieces, tables):
        yield from _table(fmt, *table)
        yield piece


def _table(
    fmt: str, rows: Iterable, labels=None, template: str = "", strings=(), width: int = 0
) -> Iterator[str]:
    """The texts of a table of texts and numbers, _CHUNK_ROWS rows to a text
    (a sparse table one row), each batch of rows let go before its text is
    written.
    - text: the header template.format(*labels), if labels, and each row by template.
    - csv: the labels and rows as csv.writer writes them (commas, a cell holding
      one quoted, \\r\\n), joined column by column.
    - json: the items of a list at depth 1, each row an object of the labels to
      its cells (without labels, a list), cells labelled None left out and those
      at the indices in strings written as strings.
    A sparse table (width > 0) has rows (*cells, entries): the cells, then width
    cells that read 0 but at the (position, text) pairs of entries, in increasing
    position; in json each row is a list of strings (see _sparse_lines)."""
    separator = ""
    if fmt == "json":
        render, separator = (lambda batch: _json_items(labels, strings, batch)), _SEP1
    elif fmt == "text":
        if labels:
            yield template.format(*labels)
        render = lambda batch: "".join(itertools.starmap(template.format, batch))
    else:
        yield ",".join(map(_csv_field, labels)) + "\r\n"
        render = _csv_lines
    step = _CHUNK_ROWS
    if width:  # a sparse row, n! cells wide, is a chunk of its own
        render, step = _sparse_lines(fmt, width), 1
    rows = iter(rows)
    batch = list(itertools.islice(rows, step))
    while batch:
        text, batch = render(batch), None
        yield text
        batch = list(itertools.islice(rows, step))
        if batch:
            yield separator


def _csv_field(text: str) -> str:
    """The csv module's minimal quoting of a text with no quote or line break."""
    return f'"{text}"' if "," in text else text


def _csv_lines(batch: list) -> str:
    columns = [c if isinstance(c[0], str) else list(map(str, c)) for c in zip(*batch)]  # one type each
    quoted = (map(_csv_field, column) if "," in "".join(column) else column for column in columns)
    return "\r\n".join(map(",".join, zip(*quoted))) + "\r\n"


def _sparse_lines(fmt: str, width: int):
    """The render of the batches of a sparse table in csv or json, each row
    spliced from its cells, cached by text, and slices of one row of zero
    cells for the runs between and after its entries.  Every cell is preceded
    by its separator, which for the first cell of a row loses its comma."""
    if fmt == "json":
        sep, quote, opening, closing, joiner, end = _SEP2, '"{}"'.format, "[", _SEP1[1:] + "]", _SEP1, ""
    else:
        sep, quote, opening, closing, joiner, end = ",", _csv_field, "", "", "\r\n", "\r\n"
    cell = functools.cache(lambda text: sep + quote(text))
    size, zeros = len(cell("0")), cell("0") * width

    def line(row) -> str:
        *head, entries = row
        pieces, at = list(map(cell, head)), 0
        for j, text in entries:
            pieces += zeros[size * at : size * j], cell(text)
            at = j + 1
        pieces.append(zeros[size * at :])
        return opening + "".join(pieces)[1:] + closing

    return lambda batch: joiner.join(map(line, batch)) + end


def _json_items(labels, strings, batch: list) -> str:
    kept = [k for k in range(len(batch[0])) if not labels or labels[k] is not None]
    pattern = _SEP2.join(
        (f'"{labels[k]}": ' if labels else "") + (f'"{_SLOT}"' if k in strings else _SLOT) for k in kept
    )
    opening, closing = "{}" if labels else "[]"
    pieces = (opening + _SEP2[1:] + pattern + _SEP1[1:] + closing).split(_SLOT)
    if not labels:  # list rows, the simulate histogram: one str.format per row
        return _SEP1.join(itertools.starmap("{}".join(pieces).format, batch))
    columns = (column for column, label in zip(zip(*batch), labels) if label is not None)
    parts = [itertools.repeat(pieces[0])]
    for column, piece in zip(columns, pieces[1:]):  # each column holds cells of one type
        parts += (column if isinstance(column[0], str) else map(str, column), itertools.repeat(piece))
    return _SEP1.join(map("".join, zip(*parts)))


def _ratio_text(num: int, den: int) -> str:
    """The text of Fraction(num, den), den > 0."""
    common = math.gcd(num, den)
    return str(num // common) if common == den else f"{num // common}/{den // common}"


def _spectrum_rows(
    n: int, numerators, den: int, totals: dict, members_form, m_form
) -> Iterator[tuple[int, str, str, str, str]]:
    """(i, Q_i, m, g_I, delta_i) of each catalog row, all but i as text, the
    lists in the forms (opening, joiner, closing) of gap_texts, while totals
    gathers den * g_I -> [g_I as text, total multiplicity]."""
    from .lacunar import catalog_rows, gap_table, gap_texts

    members_texts, m_texts = gap_texts(n, *members_form), gap_texts(n, *m_form)
    cells = [
        [cell and (members_texts[a][b][0], m_texts[a][b][1], *cell[1:]) for b, cell in enumerate(gaps)]
        for a, gaps in enumerate(gap_table(n, numerators))
    ]
    for i, (members, m, g, multiplicity) in enumerate(catalog_rows(n, cells), start=1):
        total = totals.get(g)
        if total is None:
            total = totals[g] = [_ratio_text(g, den), 0]
        total[1] += multiplicity
        yield i, members, m, total[0], str(multiplicity)


_SPECTRUM_ROW = "{0:>4} {1:>12} {3:>14} {4:>14}  {2}\n"
# per format: the gap_texts forms of the sets and m vectors, and the tables of
# the rows (i, Q_i, m, g_I, delta_i) and of the aggregate [g_I, multiplicity]
_SPECTRUM = {
    "text": (
        (_BRACES, ("(", ", ", ")")),
        (("i", "Q_i", "m-vector", "eigenvalue", "multiplicity"), _SPECTRUM_ROW),
        (None, "  eigenvalue {}: multiplicity {}\n"),
    ),
    "csv": ((_BRACES, ("", " ", "")), (("i", "set", "m", "eigenvalue", "multiplicity"), _SPECTRUM_ROW)),
    "json": (
        (_JSON_LIST, _JSON_LIST),
        ((None, "set", "m", "eigenvalue", "multiplicity"), "", (3, 4)),
        (("eigenvalue", "multiplicity"), "", (0, 1)),
    ),
}


def cmd_spectrum(args) -> int:
    n, fmt = args.n, args.format
    weights = _resolve_weights(args)
    if len(weights) != n:  # refused before any byte
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    weights, den, numerators = _exact_weights(weights)
    texts = [str(c) for c in weights]
    frame = {
        "text": f"n = {n}, weights = {', '.join(texts)}\n{_SLOT}aggregate:\n{_SLOT}",
        "csv": _SLOT,
        "json": {"n": n, "weights": texts, "rows": [_SLOT], "aggregate": [_SLOT]},
    }[fmt]
    forms, *tables = _SPECTRUM[fmt]
    totals: dict[int, list] = {}

    def spectrum() -> Iterator[tuple]:
        yield _spectrum_rows(n, numerators, den, totals, *forms), *tables[0]
        # g_I descending (den > 0 keeps the order), once the rows are written;
        # the CSV frame has no slot for it
        yield (totals[g] for g in sorted(totals, reverse=True)), *tables[1]

    _emit(_render(fmt, frame, spectrum()), args.output)
    return 0


def _filtration_rows(n: int, form) -> Iterator[tuple[int, str, str, int, int]]:
    """(i, Q_i, Q_i', dim F_i, delta_i) of each catalog row, the sets as
    text in the list form (opening, joiner, closing) of gap_texts."""
    from .lacunar import catalog_rows, gap_table, gap_texts

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
    from .lacunar import gap_table

    table = gap_table(n)
    best = [1] + [0] * (n + 1)
    for b in (*range(1, n), n + 1):
        best[b] = max(best[a] * table[a][b][2] for a in range(max(b - 1, 1)))
    return best[n + 1]


def cmd_filtration(args) -> int:
    from .lacunar import fibonacci, format_subset

    n, fmt = args.n, args.format
    if fmt == "json":
        table = [("i", "set", "non_shadow", "dim", "delta")]
        frame, form = {"n": n, "rows": [_SLOT]}, _JSON_LIST
    else:
        # the widest cell of each column in closed form: the last index, the
        # most members (n - 1, n - 3, ...), the non-shadow of the empty set, n!
        labels = ("i", "Q_i", "Q_i'", "dim F_i", "delta_i")
        widest = (fibonacci(n + 1), format_subset(range(n - 1, 0, -2)), format_subset(range(1, n)))
        widest += (math.factorial(n), _largest_delta(n))
        widths = (max(len(label), len(str(cell))) for label, cell in zip(labels, widest))
        template = " | ".join(f"{{{k}:>{w}}}" for k, w in enumerate(widths)) + "\n"
        frame, form, table = _SLOT, _BRACES, [labels, template]
    _emit(_render(fmt, frame, [(_filtration_rows(n, form), *table)]), args.output)
    return 0


def cmd_matrix(args) -> int:
    from .basis import rmul_rows
    from .perms import format_permutation
    from .shuffles import build_osc, build_t

    n = args.n
    if args.osc is not None:
        if len(args.osc) != n:
            raise ValueError(f"expected {n} probabilities, got {len(args.osc)}")
        element = build_osc(args.osc)
        if args.basis == "std":  # the transition matrix: row tau holds tau * osc(P)
            element = element.antipode()
    else:
        if args.t > n:
            raise ValueError(f"--t {args.t} exceeds n={n}")
        element = build_t(n, args.t)
    labels, den, rows = rmul_rows(element, args.basis, args.order, args.max_n)
    names = [format_permutation(w) for w in labels]
    text = functools.cache(lambda c: _ratio_text(c, den))
    entries = ([(j, text(c)) for j, c in row] for row in rows)
    if args.format == "json":
        frame, table = {"n": n, "order": names, "rows": [_SLOT]}, (zip(entries), None)
    else:
        frame, table = _SLOT, (zip(names, entries), ("", *names))
    _emit(_render(args.format, frame, [(*table, "", (), len(names))]), args.output)
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
        frame = {**result.to_json(), "histogram": [_SLOT]}
        _emit(_render("json", frame, [(result.histogram,)]), args.output)
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


# the subcommands by the names cli.build_parser gives them
COMMANDS = {
    "spectrum": cmd_spectrum,
    "filtration": cmd_filtration,
    "matrix": cmd_matrix,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
}
