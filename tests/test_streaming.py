"""spectrum, filtration and the matrix exports stream their rows, the std
and b rows drawn one at a time, the a-family holds each row once, and
simulate --fast holds no array per stage: each guard runs in a fresh
interpreter, so that no catalog, report, matrix or array built by another
test is counted."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycleshuffles

SRC = Path(cycleshuffles.__file__).resolve().parent.parent

# the peak at n = 22 (28,657 rows) against n = 16 (1,597 rows); a path that
# held every row or every output line would grow with the row count, 18-fold
PEAK_GROWTH = 2.0


def _fresh(script: str, *args: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


CATALOG_SCRIPT = """
import json, sys
from cycleshuffles import cli, lacunar

codes = []
for command in (["spectrum", "--r2b"], ["spectrum", "--unweighted"], ["filtration"]):
    for fmt in ("text", "csv", "json"):
        codes.append(cli.run([*command, "--n", "20", "--format", fmt, "--output", sys.argv[1]]))
print(json.dumps([codes, lacunar.enumerate_lacunar.cache_info().currsize]))
"""


def test_the_streamed_commands_build_no_catalog(tmp_path):
    codes, cached = _fresh(CATALOG_SCRIPT, str(tmp_path / "out"))
    assert codes == [0] * 9
    assert cached == 0


PEAK_SCRIPT = """
import json, sys, tracemalloc
from cycleshuffles import cli

peaks = {}
for n in (16, 22):
    tracemalloc.start()
    code = cli.run(["spectrum", "--n", str(n), "--unweighted", "--format", "text", "--output", sys.argv[1]])
    peaks[n] = (code, tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(json.dumps(peaks))
"""


def test_streamed_spectrum_memory_is_flat_in_n(tmp_path):
    peaks = _fresh(PEAK_SCRIPT, str(tmp_path / "out.txt"))
    (code16, peak16), (code22, peak22) = peaks["16"], peaks["22"]
    assert code16 == code22 == 0
    assert peak22 < PEAK_GROWTH * peak16, (peak16, peak22)


MATRIX_SCRIPT = """
import json, sys, tracemalloc
from cycleshuffles import cli

argv = ["matrix", "--n", "6", "--t", "2", "--basis", "a", "--order", "qindex", "--format", sys.argv[2]]
tracemalloc.start()
code = cli.run([*argv, "--output", sys.argv[1]])
print(json.dumps([code, tracemalloc.get_traced_memory()[1]]))
"""

# the 720 x 720 matrix, 5.73 MB of JSON or 1.06 MB of CSV, peaks at about
# 1.8 MB in either format when the rows stream; joining the JSON payload into
# one text adds its 5.73 MB, and a dense matrix of Fractions (or of ints, whose
# 720 row lists alone take 4.2 MB) adds more than 4 MB to the CSV
MATRIX_PEAK_BYTES = 4_000_000


def test_streamed_matrix_json_holds_no_whole_payload(tmp_path):
    target = tmp_path / "matrix.json"
    code, peak = _fresh(MATRIX_SCRIPT, str(target), "json")
    assert code == 0
    assert peak < MATRIX_PEAK_BYTES, peak
    data = json.loads(target.read_text())
    assert len(data["order"]) == len(data["rows"]) == 720


def test_streamed_matrix_csv_holds_no_dense_matrix(tmp_path):
    target = tmp_path / "matrix.csv"
    code, peak = _fresh(MATRIX_SCRIPT, str(target), "csv")
    assert code == 0
    assert peak < MATRIX_PEAK_BYTES, peak
    lines = target.read_text().splitlines()
    assert len(lines) == 721 and all(line.count(",") == 720 + 5 for line in lines[1:])


ROWS_CSV_SCRIPT = """
import json, sys, tracemalloc
from cycleshuffles import cli

argv = ["matrix", "--n", "7", "--t", "2", "--basis", sys.argv[2], "--order", "qindex-desc", "--format", "csv"]
tracemalloc.start()
code = cli.run([*argv, "--output", sys.argv[1]])
print(json.dumps([code, tracemalloc.get_traced_memory()[1]]))
"""

# the 5,040 x 5,040 matrix, 50.8 MB of CSV: about 4.4 MB (std) and 7.7 MB (b)
# when each row is drawn as it is written, about 20.2 MB and 23.1 MB when
# every row is held, with one cached text per length of a run of zeros
ROWS_CSV_PEAK_BYTES = 10_000_000


@pytest.mark.parametrize("basis", ["std", "b"])
def test_std_and_b_csv_exports_hold_no_row_behind_the_one_written(basis, tmp_path):
    target = tmp_path / "matrix.csv"
    code, peak = _fresh(ROWS_CSV_SCRIPT, str(target), basis)
    assert code == 0
    assert peak < ROWS_CSV_PEAK_BYTES, peak
    with target.open() as lines:
        assert sum(1 for _ in lines) == 5041


FIRST_ROW_SCRIPT = """
import json, sys
from cycleshuffles import basis
from cycleshuffles.shuffles import build_t

products = []
real = basis.rank_product


def counted(*args):
    products.append(1)
    return real(*args)


basis.rank_product = counted
labels, den, rows = basis.rmul_rows(build_t(5, 2), sys.argv[1], "qindex-desc")
drawn = [len(products)]
for row in rows:
    drawn.append(len(products))
print(json.dumps([drawn, len(labels)]))
"""


@pytest.mark.parametrize("basis", ["std", "b"])
def test_each_std_or_b_row_expands_one_column_when_it_is_drawn(basis):
    drawn, labels = _fresh(FIRST_ROW_SCRIPT, basis)
    assert labels == 120
    assert drawn == list(range(121))  # none on the call, then one per row


A_FAMILY_SCRIPT = """
import json, tracemalloc
from cycleshuffles import algebra
from cycleshuffles.basis import build_a_family

algebra.sn_index(7), algebra.mirror_ranks(7)
tracemalloc.start()
family = build_a_family(7)
print(json.dumps(tracemalloc.get_traced_memory()[0]))
"""

# the 5,040 a-rows at n = 7 hold 2.07 MB as rank lists that the
# back-substitution also reads, and 3.70 MB with a second copy of each row as
# (rank, 1) pairs
A_FAMILY_HELD_BYTES = 2_800_000


def test_the_a_family_holds_each_row_once():
    held = _fresh(A_FAMILY_SCRIPT)
    assert held < A_FAMILY_HELD_BYTES, held


FAST_SCRIPT = """
import json, sys, tracemalloc
from cycleshuffles import cli, simulate

argv = ["simulate", "--n", "300", "--trials", "100000", "--seed", "7", "--fast", "--format", "json"]
tracemalloc.start()
code = cli.run([*argv, "--output", sys.argv[1]])
print(json.dumps([code, tracemalloc.get_traced_memory()[1]]))
"""

# 10^5 trials make each full-size array 0.8 MB.  The stage sampler peaks at
# about 2.97 MB.  numpy's geometric for p >= 1/3, a new array per stage,
# reads 3.53 MB, and 3.60 MB with the stage buffer also kept through the
# histogram; one lookup over a whole stage at once reads 4.30 MB
FAST_PEAK_BYTES = 3_300_000


def test_fast_simulation_holds_no_array_per_stage(tmp_path):
    target = tmp_path / "fast.json"
    code, peak = _fresh(FAST_SCRIPT, str(target))
    assert code == 0
    assert peak < FAST_PEAK_BYTES, peak
    assert json.loads(target.read_text())["trials"] == 100_000
