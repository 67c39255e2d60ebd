import csv
import functools
import io
import itertools
import json
import os
import random
import stat
import threading
from fractions import Fraction

import pytest

from cycleshuffles import cli
from cycleshuffles.basis import (
    basis_order,
    build_a_family,
    build_std_family,
    dual_basis,
    rmul_columns,
    rmul_matrix,
)
from cycleshuffles.cli import run
from cycleshuffles.inputs import r2b_weights, t2r_weights, uniform_distribution, unweighted_weights
from cycleshuffles.lacunar import enumerate_lacunar, format_subset, gap_table, non_shadow, walk_gaps
from cycleshuffles.perms import format_permutation
from cycleshuffles.shuffles import build_osc, build_t, transition_matrix
from cycleshuffles.simulate import fast_bookmark_sim, simulate_sst
from cycleshuffles.spectrum import full_spectrum


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_filtration_table_n4(capsys):
    code, out, _ = invoke(capsys, "filtration", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("|")[0].strip() == "i"
    values = [line.split("|") for line in lines[1:]]
    assert [v[3].strip() for v in values] == ["1", "4", "12", "18", "24"]
    assert [v[4].strip() for v in values] == ["1", "3", "8", "6", "6"]


def test_filtration_json_beyond_algebra_cap(capsys):
    # the multiplicity formula scales with the catalog, not with n!
    code, out, _ = invoke(capsys, "filtration", "--n", "12", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 233
    assert data["rows"][-1]["dim"] == 479001600


@pytest.mark.parametrize("n", [1, 2, 5, 9, 13])
def test_filtration_non_shadow_sets_are_non_shadow(n, capsys):
    code, out, _ = invoke(capsys, "filtration", "--n", str(n), "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["set"] for row in rows] == [sorted(s) for s in enumerate_lacunar(n).sets]
    assert [row["non_shadow"] for row in rows] == [sorted(non_shadow(row["set"], n)) for row in rows]


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _reference_spectrum(weights, n, fmt):
    """The spectrum as the CLI printed it from the whole full_spectrum report."""
    report = full_spectrum(weights)
    if fmt == "json":
        return json.dumps(report.to_json(), indent=2) + "\n"
    if fmt == "csv":
        rows = [
            [i, format_subset(row.members), " ".join(map(str, row.m)), row.eigenvalue, row.multiplicity]
            for i, row in enumerate(report.rows, start=1)
        ]
        return _csv_text([["i", "set", "m", "eigenvalue", "multiplicity"], *rows])
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


def _reference_filtration(n, fmt):
    """The filtration as the CLI printed it from the whole catalog."""
    catalog = enumerate_lacunar(n)
    deltas = [walk_gaps(members, gap_table(n))[2] for members in catalog.members]
    non_shadows = [sorted(non_shadow(members, n)) for members in catalog.members]
    dims = itertools.accumulate(deltas)
    entries = list(zip(itertools.count(1), catalog.members, non_shadows, dims, deltas))
    if fmt == "json":
        rows = [
            {"i": i, "set": list(s), "non_shadow": q, "dim": dim, "delta": d}
            for i, s, q, dim, d in entries
        ]
        return json.dumps({"n": n, "rows": rows}, indent=2) + "\n"
    cells = [
        ["i", "Q_i", "Q_i'", "dim F_i", "delta_i"],
        *([str(i), format_subset(s), format_subset(q), str(dim), str(d)] for i, s, q, dim, d in entries),
    ]
    if fmt == "csv":
        return _csv_text(cells)
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join(" | ".join(e.rjust(w) for e, w in zip(row, widths)) + "\n" for row in cells)


def _signed_weights(n, seed):
    rng = random.Random(seed)
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(0, 9), rng.randint(1, 9)) for _ in range(n))


_NAMED_WEIGHTS = {"--r2b": r2b_weights, "--t2r": t2r_weights, "--unweighted": unweighted_weights}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("flag", ["--r2b", "--t2r", "--unweighted", "--weights"])
def test_streamed_spectrum_is_the_full_spectrum_rendering(flag, fmt, capsys):
    for n in range(1, 21):
        if flag == "--weights":
            weights = _signed_weights(n, 1000 + n)
            flags = ["--weights=" + ",".join(map(str, weights))]
        else:
            weights, flags = _NAMED_WEIGHTS[flag](n), [flag]
        code, out, err = invoke(capsys, "spectrum", "--n", str(n), *flags, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == _reference_spectrum(weights, n, fmt), (n, flags)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_streamed_filtration_is_the_catalog_rendering(fmt, capsys):
    for n in range(1, 21):
        code, out, err = invoke(capsys, "filtration", "--n", str(n), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == _reference_filtration(n, fmt), n


def test_spectrum_text_aggregate(capsys):
    code, out, _ = invoke(capsys, "spectrum", "--n", "4", "--weights", "1,1,1,1")
    assert code == 0
    assert "eigenvalue 10: multiplicity 1" in out
    assert "eigenvalue 6: multiplicity 3" in out
    assert "eigenvalue 4: multiplicity 14" in out
    assert "eigenvalue 2: multiplicity 6" in out


def test_spectrum_named_weights(capsys):
    code, out, _ = invoke(capsys, "spectrum", "--n", "3", "--r2b", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["weights"] == ["1/9", "1/6", "1/3"]
    code, out, _ = invoke(capsys, "spectrum", "--n", "3", "--t2r", "--format", "json")
    data = json.loads(out)
    assert data["weights"] == ["1/3", "0", "0"]
    code, out, _ = invoke(capsys, "spectrum", "--n", "3", "--unweighted", "--format", "json")
    data = json.loads(out)
    assert data["weights"] == ["1/6", "1/6", "1/6"]


def test_spectrum_rejects_wrong_weight_count(capsys):
    code, _, err = invoke(capsys, "spectrum", "--n", "4", "--weights", "1,1")
    assert code == 2
    assert "expected 4 weights" in err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_a_wrong_weight_count_is_refused_before_the_first_byte(fmt, tmp_path, capsys):
    code, out, err = invoke(capsys, "spectrum", "--n", "5", "--weights", "1,2", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: expected 5 weights, got 2\n"
    target = tmp_path / "spectrum.txt"
    code, out, _ = invoke(capsys, "spectrum", "--n", "5", "--weights", "1,2", "--output", str(target))
    assert (code, out) == (2, "")
    assert not any(tmp_path.iterdir())


def test_malformed_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["spectrum", "--n", "3", "--weights", "1,x,3"])
    assert excinfo.value.code == 2


def test_matrix_csv_export(capsys):
    code, out, _ = invoke(capsys, "matrix", "--n", "3", "--osc", "1,0,0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith(',"1,2,3"')
    assert lines[1].split(",", 3)[-1].startswith('1/3')
    assert len(lines) == 7


def test_matrix_labels_are_formatted_permutations(capsys):
    names = [format_permutation(w) for w in itertools.permutations(range(1, 4))]
    code, out, _ = invoke(capsys, "matrix", "--n", "3", "--t", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == names
    code, out, _ = invoke(capsys, "matrix", "--n", "3", "--t", "1")
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == ["", *names]
    assert [row[0] for row in table[1:]] == names


def test_matrix_a_basis_qindex_is_triangular(capsys):
    code, out, _ = invoke(
        capsys, "matrix", "--n", "3", "--t", "2", "--basis", "a",
        "--order", "qindex", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    rows = data["rows"]
    for i in range(len(rows)):
        for j in range(i):
            assert rows[i][j] == "0"


def test_matrix_over_cap_is_usage_error(capsys):
    code, _, err = invoke(capsys, "matrix", "--n", "9", "--osc", ",".join(["1/9"] * 9))
    assert code == 2
    assert "cap" in err


def test_max_n_flag_lifts_cap_for_basis_paths(capsys):
    import os

    code, out, _ = invoke(
        capsys, "verify", "--n", "5", "--suite", "boolean-partition", "--max-n", "5"
    )
    assert code == 0
    # the override is scoped to the invocation
    assert "CYCLESHUFFLES_MAX_N" not in os.environ


@pytest.mark.parametrize(
    "argv, code",
    [
        (("--n", "5", "--max-n", "4"), 2),
        (("--n", "9"), 2),
        (("--n", "9", "--max-n", "9"), 0),
    ],
)
def test_boolean_partition_honours_the_cap(argv, code, capsys):
    status, out, err = invoke(capsys, "verify", "--suite", "boolean-partition", *argv)
    assert status == code
    if code:
        assert out == "" and "cap" in err
    else:
        assert out.startswith("PASS boolean-partition")


def test_verify_all_passes_small_n(capsys):
    code, out, _ = invoke(capsys, "verify", "--n", "3", "--suite", "all")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


def test_verify_single_suite(capsys):
    code, out, _ = invoke(capsys, "verify", "--n", "4", "--suite", "boolean-partition")
    assert code == 0
    assert "boolean-partition" in out


def test_simulate_json_deterministic(capsys):
    args = ("simulate", "--n", "3", "--trials", "200", "--seed", "5", "--format", "json")
    code, out1, _ = invoke(capsys, *args)
    assert code == 0
    code, out2, _ = invoke(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["rng"] == "philox4x64"
    assert data["exact"] == "24/5"


def test_simulate_fast_flag(capsys):
    code, out, _ = invoke(
        capsys, "simulate", "--n", "4", "--trials", "500", "--seed", "3",
        "--fast", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["trials"] == 500


@pytest.mark.parametrize("fast", [(), ("--fast",)], ids=["full", "fast"])
def test_simulate_one_trial_writes_strict_json(fast, capsys):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    code, out, _ = invoke(
        capsys, "simulate", "--n", "3", "--trials", "1", "--seed", "1", *fast, "--format", "json"
    )
    assert code == 0
    data = json.loads(out, parse_constant=refuse)
    assert data["stderr"] is None  # undefined for one trial
    assert data["trials"] == 1


def test_simulate_fast_accepts_non_uniform_dist(capsys):
    # p = (7/12, 1/2), so E[tau] = 12/7 + 2 with or without --fast
    for fast in (("--fast",), ()):
        code, out, _ = invoke(
            capsys, "simulate", "--n", "3", "--trials", "10", "--seed", "1",
            "--dist", "1/2,1/4,1/4", *fast, "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["exact"] == "26/7"
        assert data["upper_bound"] is None and data["conjectured_lower"] is None
    code, _, err = invoke(
        capsys, "simulate", "--n", "3", "--trials", "10", "--seed", "1",
        "--dist", "0,1/2,1/2", "--fast",
    )
    assert code == 2
    assert "top card" in err


def test_simulate_fast_refuses_a_tau_beyond_exact_counting(capsys):
    tiny = "1/" + "1" + "0" * 30
    big = "9" * 30 + "/1" + "0" * 30
    code, out, err = invoke(
        capsys, "simulate", "--n", "3", "--trials", "5", "--seed", "1", "--fast",
        "--dist", f"{tiny},{big},0", "--format", "text",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "2^53" in err


def test_simulate_fast_refuses_a_stage_probability_that_rounds_to_zero(capsys):
    tiny = "1/1" + "0" * 400
    big = "9" * 400 + "/1" + "0" * 400
    code, out, err = invoke(
        capsys, "simulate", "--n", "3", "--trials", "5", "--seed", "1", "--fast",
        "--dist", f"{tiny},{big},0", "--format", "text",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "stage b = 2 rounds to 0.0 in float64" in err


@pytest.mark.parametrize(
    "message", ["Unable to allocate 7.28 TiB", ""], ids=["numpy-message", "no-message"]
)
def test_out_of_memory_is_an_input_error(message, monkeypatch, capsys):
    import numpy as np

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(np, "zeros", refuse)
    code, out, err = invoke(
        capsys, "simulate", "--n", "3", "--trials", "5", "--seed", "1", "--fast"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message or 'out of memory'}\n"


def test_simulate_p1_zero_is_usage_error(capsys):
    code, _, err = invoke(
        capsys, "simulate", "--n", "3", "--trials", "10", "--seed", "1",
        "--dist", "0,1/2,1/2",
    )
    assert code == 2
    assert "top card" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_simulate_fast_at_one_card_equals_the_full_walk(fmt, capsys):
    for trials in ("1", "5"):
        argv = ("simulate", "--n", "1", "--trials", trials, "--seed", "3", "--format", fmt)
        full = invoke(capsys, *argv)
        assert full[0] == 0
        assert invoke(capsys, *argv, "--fast") == full


def test_output_file_byte_identical(tmp_path, capsys):
    target1 = tmp_path / "a.json"
    target2 = tmp_path / "b.json"
    args = ["spectrum", "--n", "4", "--r2b", "--format", "json"]
    assert run(args + ["--output", str(target1)]) == 0
    assert run(args + ["--output", str(target2)]) == 0
    capsys.readouterr()
    assert target1.read_bytes() == target2.read_bytes()


def test_matrix_std_honours_order(capsys):
    osc = ("matrix", "--n", "4", "--osc", "1/4,1/4,1/4,1/4", "--format", "json")
    code, out, _ = invoke(capsys, *osc, "--basis", "std", "--order", "qindex")
    assert code == 0
    std = json.loads(out)
    code, out, _ = invoke(capsys, *osc, "--basis", "a", "--order", "qindex")
    assert code == 0
    assert std["order"] == json.loads(out)["order"]
    code, out, _ = invoke(capsys, *osc, "--basis", "std")
    lex = json.loads(out)
    assert std["order"] != lex["order"]
    # the same matrix with rows and columns permuted alike
    at = {label: k for k, label in enumerate(lex["order"])}
    for i, row_label in enumerate(std["order"]):
        for j, col_label in enumerate(std["order"]):
            assert std["rows"][i][j] == lex["rows"][at[row_label]][at[col_label]]


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = invoke(capsys, "spectrum", "--n", "3", "--r2b", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err and ".tmp" not in err
    assert not target.exists()


def _reference_matrix_text(labels, rows, fmt):
    """The matrix rendering with every entry passed through Fraction."""
    if fmt == "json":
        payload = {
            "n": len(labels[0]),
            "order": [",".join(map(str, w)) for w in labels],
            "rows": [[str(Fraction(v)) for v in row] for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([""] + [",".join(map(str, w)) for w in labels])
    for w, row in zip(labels, rows):
        writer.writerow([",".join(map(str, w))] + [str(Fraction(v)) for v in row])
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_matrix_rendering_is_byte_identical_to_fraction_rendering(fmt, capsys):
    dist = "1/2,1/3,1/6"
    osc = build_osc([Fraction(p) for p in dist.split(",")])
    tm = transition_matrix(osc)
    cases = [
        (("--osc", dist, "--basis", "std"), tm.perms, tm.rows),
        (("--osc", dist, "--basis", "b", "--order", "qindex-desc"), *rmul_matrix(osc, "b", "qindex-desc")),
        (("--t", "1", "--basis", "a", "--order", "qindex"), *rmul_matrix(build_t(3, 1), "a", "qindex")),
    ]
    lex_rank = {w: k for k, w in enumerate(tm.perms)}
    for order in ("qindex", "qindex-desc"):
        labels = basis_order(3, order)
        picks = [lex_rank[w] for w in labels]
        rows = [[tm.rows[i][j] for j in picks] for i in picks]
        cases.append((("--osc", dist, "--basis", "std", "--order", order), labels, rows))
    for flags, labels, rows in cases:
        code, out, _ = invoke(capsys, "matrix", "--n", "3", *flags, "--format", fmt)
        assert code == 0
        assert out == _reference_matrix_text(labels, rows, fmt)


def _columns_matrix(x, basis, order):
    """(labels, rows) of the matrix of y -> y x, each cell set from the
    columns of rmul_columns, rows and columns in the named order."""
    a_family = build_a_family(x.n)
    family = {"std": build_std_family(x.n), "a": a_family, "b": dual_basis(a_family)}[basis]
    labels = basis_order(x.n, order)
    at = {w: k for k, w in enumerate(labels)}
    rows = [[0] * len(labels) for _ in labels]
    for w, column in rmul_columns(x, family):
        for v, c in column.items():
            rows[at[v]][at[w]] = c
    return labels, rows


def _reference_matrices(n):
    """(flags, labels, rows) of every basis and order, for every --t L and
    for --osc uniform; --osc std is the transition matrix, the transpose."""
    dist = ",".join([f"1/{n}"] * n)
    osc = build_osc([Fraction(1, n)] * n)
    for order in ("lex", "qindex", "qindex-desc"):
        labels, rows = _columns_matrix(osc, "std", order)
        yield ("--osc", dist, "--order", order, "--basis", "std"), labels, list(zip(*rows))
        for basis in ("std", "a", "b"):
            for ell in range(1, n + 1):
                flags = ("--t", str(ell), "--order", order, "--basis", basis)
                yield flags, *_columns_matrix(build_t(n, ell), basis, order)
            if basis != "std":
                yield ("--osc", dist, "--order", order, "--basis", basis), *_columns_matrix(osc, basis, order)


@functools.cache
def _reference_matrix_texts(n):
    """(argv, whole rendering) of every matrix of _reference_matrices in csv
    and json, and whether some matrix has an all-zero row, a nonzero cell in
    its first column and one in its last."""
    texts, zero_row, first, last = [], False, False, False
    for flags, labels, rows in _reference_matrices(n):
        zero_row |= any(not any(row) for row in rows)
        first |= any(row[0] for row in rows)
        last |= any(row[-1] for row in rows)
        for fmt in ("csv", "json"):
            argv = ("--n", str(n), *flags, "--format", fmt)
            texts.append((argv, _reference_matrix_text(labels, rows, fmt)))
    return texts, (zero_row, first, last)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matrix_export_is_the_dense_rendering(n, capsys):
    """Every basis, order and format for every --t L and --osc uniform, byte
    for byte the csv.writer and json.dumps rendering of the dense matrix."""
    texts, (zero_row, first, last) = _reference_matrix_texts(n)
    if n >= 4:  # t_L has zero diagonal entries in the a-basis: all-zero rows
        assert zero_row and first and last
    for argv, expected in texts:
        code, out, err = invoke(capsys, "matrix", *argv)
        assert (code, err) == (0, "")
        assert out == expected, argv


def _reference_tables(command, n):
    """(argv, whole rendering) of each streamed table of the command at n:
    the r2b spectrum and the filtration in every format, every matrix of
    _reference_matrices in csv and json, and simulate json with nulls for
    stderr (one trial) and exact (n above 200)."""
    if command == "spectrum":
        for fmt in ("text", "csv", "json"):
            yield ("--n", str(n), "--r2b", "--format", fmt), _reference_spectrum(r2b_weights(n), n, fmt)
    elif command == "filtration":
        for fmt in ("text", "csv", "json"):
            yield ("--n", str(n), "--format", fmt), _reference_filtration(n, fmt)
    elif command == "matrix":
        yield from _reference_matrix_texts(n)[0]
    else:
        runs = ((1, simulate_sst, ()), (50, simulate_sst, ()), (50, fast_bookmark_sim, ("--fast",)))
        for trials, simulator, flags in runs:
            result = simulator(uniform_distribution(n), trials, 11)
            argv = ("--n", str(n), "--trials", str(trials), "--seed", "11", *flags, "--format", "json")
            yield argv, json.dumps(result.to_json(), indent=2) + "\n"


@pytest.mark.parametrize(
    "command, n",
    [("matrix", 1), ("matrix", 3), ("matrix", 4), ("matrix", 5)]
    + [("spectrum", 1), ("spectrum", 6), ("filtration", 1), ("filtration", 6)]
    + [("simulate", 5), ("simulate", 201)],
)
def test_tables_across_chunk_boundaries_are_the_whole_rendering(command, n, monkeypatch, capsys):
    # every streamed table, two rows to a chunk: the r2b aggregate and the
    # histograms span chunks too
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
    for argv, expected in _reference_tables(command, n):
        code, out, err = invoke(capsys, command, *argv)
        assert (code, err) == (0, "")
        assert out == expected, argv


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "3", "--trials", "2", "--seed", "1", "--dist", "1,1,-1"),
        ("simulate", "--n", "3", "--trials", "2", "--seed", "1", "--dist", "1,1,-1", "--fast"),
        ("matrix", "--n", "3", "--osc", "1,1,-1"),
    ],
)
def test_a_negative_probability_is_named_as_a_rational(argv, capsys):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: negative probability -1 at position 3\n"
    assert "Fraction(" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--n", "3", "--r2b"),
        ("filtration", "--n", "3"),
        ("simulate", "--n", "3", "--trials", "10", "--seed", "1"),
    ],
)
def test_max_n_is_refused_where_nothing_enumerates_sn(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run([*argv, "--max-n", "5"])
    assert excinfo.value.code == 2
    assert "--max-n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--n", "3", "--suite", "boolean-partition", "--format", "csv"), "--format"),
        (("spectrum", "--n", "3", "--r2b", "--output="), "--output"),
        (("matrix", "--n", "3", "--t", "1", "--max-n", "0"), "--max-n"),
        (("matrix", "--n", "3", "--t", "1", "--max-n", "-1"), "--max-n"),
    ],
)
def test_bad_flag_values_are_refused_at_parse_time(argv, flag, tmp_path, monkeypatch, capsys):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    with pytest.raises(SystemExit) as excinfo:
        run(list(argv))
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["cwd"]
    assert not any(workdir.iterdir())


def test_max_n_flag_lowers_the_cap(capsys):
    code, out, err = invoke(capsys, "verify", "--n", "5", "--suite", "triangularity", "--max-n", "4")
    assert code == 2
    assert out == ""
    assert "cap" in err
    code, _, err = invoke(capsys, "matrix", "--n", "5", "--t", "1", "--basis", "a", "--max-n", "4")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize(
    "flags, cap",
    [
        (("--t", "1", "--basis", "std"), 8),
        (("--t", "1", "--basis", "std", "--max-n", "4"), 4),
        (("--t", "1", "--basis", "a"), 8),
        (("--t", "2", "--basis", "b", "--order", "qindex-desc"), 8),
        (("--osc", ",".join(["1/9"] * 9), "--basis", "std", "--order", "qindex"), 8),
        (("--osc", ",".join(["1/9"] * 9), "--basis", "std", "--max-n", "4"), 4),
    ],
)
def test_matrix_refuses_the_degree_before_enumerating_it(flags, cap, capsys, forbid_enumeration_above):
    forbid_enumeration_above(cap)
    code, out, err = invoke(capsys, "matrix", "--n", "9", *flags)
    assert code == 2
    assert out == ""
    assert f"cap {cap}" in err


class _FailingWrite:
    """A file handle whose write raises after `passes` writes, as on a full disk."""

    def __init__(self, handle, passes=0):
        self.handle = handle
        self.passes = passes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        if not self.passes:
            raise OSError(28, "No space left on device")
        self.passes -= 1
        return self.handle.write(text)


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_failed_output_write_keeps_the_target(fail_at, tmp_path, monkeypatch, capsys):
    from cycleshuffles import cli

    target = tmp_path / "spectrum.json"
    target.write_text("old contents\n")
    if fail_at == "write":
        monkeypatch.setattr(cli, "open", lambda *a: _FailingWrite(open(*a)), raising=False)
    else:

        def failing_replace(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(cli.os, "replace", failing_replace)
    code, out, err = invoke(capsys, "spectrum", "--n", "3", "--r2b", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert target.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum.json"]


@pytest.mark.parametrize("command", ["spectrum", "filtration"])
def test_a_write_that_fails_partway_through_the_rows_keeps_the_target(command, tmp_path, monkeypatch, capsys):
    from cycleshuffles import cli

    target = tmp_path / "out.json"
    target.write_text("old contents\n")
    handles = []

    def failing_open(*args):
        handles.append(_FailingWrite(open(*args), passes=3))
        return handles[-1]

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    argv = [command, "--n", "20", "--format", "json", "--output", str(target)]
    if command == "spectrum":
        argv.append("--r2b")
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "No space left on device" in err
    [handle] = handles
    assert handle.passes == 0 and handle.handle.closed  # rows were written before the failure
    assert target.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_output_replaces_an_existing_file(tmp_path, capsys):
    target = tmp_path / "spectrum.json"
    target.write_text("old contents\n")
    code, out, _ = invoke(capsys, "spectrum", "--n", "3", "--r2b", "--format", "json")
    assert code == 0
    assert run(["spectrum", "--n", "3", "--r2b", "--format", "json", "--output", str(target)]) == 0
    assert target.read_text() == out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum.json"]
    # through a symbolic link, the file it points to is replaced and the link kept
    target.write_text("old contents\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run(["spectrum", "--n", "3", "--r2b", "--format", "json", "--output", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "spectrum.json"]


def test_output_keeps_the_mode_and_hard_links_of_the_target(tmp_path, capsys):
    code, out, _ = invoke(capsys, "spectrum", "--n", "3", "--r2b", "--format", "json")
    assert code == 0
    target = tmp_path / "spectrum.json"
    target.write_text("old contents\n")
    target.chmod(0o640)
    assert run(["spectrum", "--n", "3", "--r2b", "--format", "json", "--output", str(target)]) == 0
    assert target.read_text() == out
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    # a hard-linked file is written in place, so every name sees the new text
    target.write_text("old contents\n")
    other = tmp_path / "other.json"
    os.link(target, other)
    assert run(["spectrum", "--n", "3", "--r2b", "--format", "json", "--output", str(target)]) == 0
    assert other.read_text() == out
    assert os.path.samefile(target, other)


def test_output_to_a_fifo_writes_through_it(tmp_path, capsys):
    code, out, _ = invoke(capsys, "spectrum", "--n", "3", "--r2b", "--format", "json")
    assert code == 0
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(["spectrum", "--n", "3", "--r2b", "--format", "json", "--output", str(fifo)]) == 0
    reader.join(timeout=10)
    assert received == [out]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [("matrix", "--n", "3", "--t", "1"), ("verify", "--n", "3", "--suite", "triangularity")],
)
def test_bad_cap_environment_variable_is_a_usage_error(argv, value, monkeypatch, capsys):
    monkeypatch.setenv("CYCLESHUFFLES_MAX_N", value)
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "CYCLESHUFFLES_MAX_N" in err and repr(value) in err


def test_cap_environment_variable_sets_the_cap(monkeypatch, capsys):
    monkeypatch.setenv("CYCLESHUFFLES_MAX_N", "5")
    assert invoke(capsys, "matrix", "--n", "3", "--t", "1")[0] == 0
    assert invoke(capsys, "verify", "--n", "3", "--suite", "triangularity")[0] == 0
    code, out, err = invoke(capsys, "verify", "--n", "6", "--suite", "boolean-partition")
    assert code == 2 and out == "" and "cap 5" in err
    monkeypatch.setenv("CYCLESHUFFLES_MAX_N", "9")
    assert invoke(capsys, "verify", "--n", "9", "--suite", "boolean-partition")[0] == 0
