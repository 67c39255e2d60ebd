"""End-to-end and per-layer benchmark of cycleshuffles.

    python3 benchmarks/run.py --workload {spectra,certify,sst} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs to be installed
besides numpy.  Every operation of a workload runs in a fresh interpreter,
one at a time, as a CLI user runs it (see op.py and workloads.py).  One pass
runs every operation once; passes repeat until S seconds have gone by, and
every output of every pass is checked (checkers.py).

--trace 0 reports the end-to-end metrics:
  setup_s      median time for a fresh interpreter to import the CLI and
               build its argument parser
  wall_s       median wall time of one pass
  peak_rss_mb  median over passes of the largest resident set of any
               operation in the pass
Both times are rescaled to a reference core speed: a probe thread on the
operations' core times a fixed loop every 30 ms, and each operation's wall
time is multiplied by the loop's reference time over its typical time
during the operation (see SpeedProbe).  This takes out the
speed swings of a shared host; the raw wall times go to the run's
result.json.
--trace 1 runs the same untraced passes, then one pass with every public
function wrapped (tracer.py), and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Progress and the reason for every
failed or incorrect operation go to standard error; the outputs of a run
are kept under benchmarks/out/.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checkers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OP_SCRIPT = HERE / "op.py"

SETUP_SPAWNS = 9
RUN_BUDGET_S = 165.0  # every run ends well within 180 s
TRACE_COST = 1.5  # a traced pass takes up to this many untraced passes
PROBE_GAP_S = 0.03
PROBE_LOOP = 10_000
# the probe loop's time on an idle core of the 2-core Xeon the reference
# figures in README.md come from
PROBE_REFERENCE_S = 0.0007


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def spawn(spec: dict, stderr_path: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run op.py with SPEC; return (exit code, start, end, max RSS in MB)."""
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(OP_SCRIPT), json.dumps(spec)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024


class SpeedProbe:
    """Samples how fast the core that runs the operations is at each moment.

    The host shares its cores with other machines: a core's speed for
    Python code swings by a third within seconds and drifts over minutes.
    This thread shares the operations' core and every PROBE_GAP_S times a
    fixed pure-Python loop of about a millisecond.  A sample is slowed by
    the core's speed and, now and then, by the operation preempting it; the
    faster half of the samples taken during an interval keeps the first and
    drops most of the second.  The interval is rescaled by PROBE_REFERENCE_S
    over their mean, which gives its length on a core where the loop takes
    PROBE_REFERENCE_S.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PROBE_GAP_S):
            start = clock()
            acc = 0
            for i in range(PROBE_LOOP):
                acc += i * i % 7
            self.durations.append(clock() - start)
            self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def rescaled(self, start: float, end: float) -> float:
        """The interval's length at the reference speed."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        window = sorted(self.durations[lo:hi] or self.durations)
        faster_half = window[: (len(window) + 1) // 2]
        return (end - start) * PROBE_REFERENCE_S / statistics.fmean(faster_half)


def measure_setup(run_dir: Path) -> list[tuple[float, float]]:
    spec = {"kind": "setup"}
    intervals = []
    for k in range(SETUP_SPAWNS + 1):  # the first spawn warms the bytecode cache
        rc, start, end, _ = spawn(spec, run_dir / "setup.err", 60)
        if rc != 0:
            raise SystemExit(f"importing cycleshuffles.cli failed:\n{(run_dir / 'setup.err').read_text()}")
        if k:
            intervals.append((start, end))
    return intervals


class Pass:
    """Every operation once, one at a time and timed; then every output
    checked, the timing being over."""

    def __init__(self, ops: list, pass_dir: Path, traced: bool, deadline: float):
        self.wall = 0.0
        self.intervals: dict[str, tuple[float, float]] = {}
        self.peak_rss_mb = 0.0
        self.failed: list[str] = []
        self.incorrect: list[str] = []
        self.output_bytes = 0
        self.traces: list[dict] = []
        pass_dir.mkdir(parents=True)
        results = []
        start = time.perf_counter()
        for op in ops:
            out = pass_dir / f"{op.name}.out"
            spec = dict(op.spec)
            if spec["kind"] == "cli":
                spec["argv"] = spec["argv"] + ["--output", str(out)]
            else:
                spec["output"] = str(out)
            if traced:
                spec["trace"] = str(pass_dir / f"{op.name}.trace.json")
            timeout = max(1.0, deadline - time.perf_counter())
            rc, op_start, op_end, rss = spawn(spec, pass_dir / f"{op.name}.err", timeout)
            wall = op_end - op_start
            results.append((op, out, rc, wall))
            self.intervals[op.name] = (op_start, op_end)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
        self.wall = time.perf_counter() - start
        context: dict = {}
        for op, out, rc, wall in results:
            text = out.read_text() if out.exists() else ""
            self.output_bytes += len(text.encode())
            try:
                if not out.exists():
                    raise checkers.OpFailed(f"no output (exit code {rc})")
                op.check(text, rc, context)
                log(f"  ok        {op.name} {wall:.2f} s")
            except checkers.OpFailed as exc:
                self.failed.append(op.name)
                log(f"  FAILED    {op.name} {wall:.2f} s: {exc}")
            except (checkers.Incorrect, ValueError, KeyError, IndexError) as exc:
                self.incorrect.append(op.name)
                log(f"  INCORRECT {op.name} {wall:.2f} s: {type(exc).__name__}: {exc}")
            if traced:
                trace_path = pass_dir / f"{op.name}.trace.json"
                if trace_path.exists():
                    self.traces.append(json.loads(trace_path.read_text()))
            out.unlink(missing_ok=True)

    def rescaled_wall(self, probe: SpeedProbe) -> float:
        return sum(probe.rescaled(*interval) for interval in self.intervals.values())


def layer_metrics(traced: Pass, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counters of one traced pass."""
    span_total: dict[str, float] = {}
    span_self: dict[str, float] = {}
    span_count: dict[str, int] = {}
    calls: dict[str, list] = {}
    counts: dict[str, int] = {}
    maxima: dict[str, int] = {}
    for trace in traced.traces:
        for name, start, end, _parent, child_s in trace["spans"]:
            span_total[name] = span_total.get(name, 0.0) + end - start
            span_self[name] = span_self.get(name, 0.0) + end - start - child_s
            span_count[name] = span_count.get(name, 0) + 1
        for name, (count, total, own) in trace["calls"].items():
            entry = calls.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += own
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in trace["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), value)

    def span(name: str) -> float:
        return span_total.get(name, 0.0)

    def call(name: str, field: int = 1):
        return calls.get(name, [0, 0.0, 0.0])[field]

    def ratio(numerator: float, denominator: float, scale: float) -> float:
        return numerator / denominator * scale if denominator else 0.0

    rows = counts.get("spectrum.rows", 0)
    pairs = counts.get("algebra.term_pairs", 0)
    trials = counts.get("simulate.sst_trials", 0)
    steps = counts.get("simulate.sst_steps", 0)
    polys_self = sum(entry[2] for name, entry in calls.items() if name.startswith("polys."))
    m = {
        "cli.calls": (span_count.get("cli.run", 0), "count"),
        "cli.self_s": (span_self.get("cli.run", 0.0), "s"),
        "cli.output_bytes": (traced.output_bytes, "bytes"),
        "lacunar.catalog_s": (call("lacunar.enumerate_lacunar"), "s"),
        "lacunar.catalog_rows": (counts.get("lacunar.catalog_rows", 0), "count"),
        "spectrum.full_spectrum_s": (span("spectrum.full_spectrum"), "s"),
        "spectrum.us_per_row": (ratio(span("spectrum.full_spectrum"), rows, 1e6), "us"),
        "spectrum.delta_s": (call("spectrum.delta"), "s"),
        "spectrum.annihilator_check_s": (span("spectrum.annihilator_check"), "s"),
        "spectrum.minimal_polynomial_s": (span("spectrum.minimal_polynomial"), "s"),
        "spectrum.char_poly_oracle_s": (span("spectrum.char_poly_oracle"), "s"),
        "polys.self_s": (polys_self, "s"),
        "algebra.mul_calls": (call("algebra.mul", 0), "count"),
        "algebra.term_pairs": (pairs, "count"),
        "algebra.mul_s": (call("algebra.mul"), "s"),
        "algebra.ns_per_term_pair": (ratio(call("algebra.mul"), pairs, 1e9), "ns"),
        "algebra.bilinear_form_calls": (call("algebra.bilinear_form", 0), "count"),
        "algebra.bilinear_form_s": (call("algebra.bilinear_form"), "s"),
        "algebra.max_product_terms": (maxima.get("algebra.max_product_terms", 0), "count"),
        "basis.build_a_family_s": (span("basis.build_a_family"), "s"),
        "basis.qindex_table_s": (span("basis.qindex_table"), "s"),
        "basis.expand_in_a_calls": (call("basis.expand_in_a", 0), "count"),
        "basis.expand_in_a_s": (call("basis.expand_in_a"), "s"),
        "basis.expand_in_b_s": (call("basis.expand_in_b"), "s"),
        "basis.dual_basis_s": (span("basis.dual_basis"), "s"),
        "basis.rmul_matrix_s": (span("basis.rmul_matrix"), "s"),
        "shuffles.transition_matrix_s": (span("shuffles.transition_matrix"), "s"),
        "identities.identity_suite_s": (span("identities.identity_suite"), "s"),
        "identities.commutator_nilpotency_s": (span("identities.commutator_nilpotency"), "s"),
        "identities.separate_exponents_s": (span("identities.separate_nilpotency_exponents"), "s"),
        "checks.triangularity_s": (span("checks.triangularity"), "s"),
        "checks.annihilator_s": (span("checks.annihilator"), "s"),
        "checks.duality_s": (span("checks.duality"), "s"),
        "checks.identities_s": (span("checks.identities"), "s"),
        "checks.boolean-partition_s": (span("checks.boolean_partition"), "s"),
        "simulate.sst_s": (span("simulate.simulate_sst"), "s"),
        "simulate.sst_trials": (trials, "count"),
        "simulate.sst_steps": (steps, "count"),
        "simulate.us_per_trial": (ratio(span("simulate.simulate_sst"), trials, 1e6), "us"),
        "simulate.ns_per_step": (ratio(span("simulate.simulate_sst"), steps, 1e9), "ns"),
        "simulate.rng_streams": (call("simulate.philox", 0), "count"),
        "simulate.rng_setup_s": (call("simulate.philox"), "s"),
        "simulate.fast_s": (span("simulate.fast_bookmark_sim"), "s"),
        "simulate.climb_probability_s": (call("simulate.climb_probability"), "s"),
        "simulate.harmonic_calls": (call("simulate.harmonic", 0), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cycleshuffles" / "cli.py").is_file():
        log(f"no cycleshuffles sources under {ROOT / 'src'}; run from a source checkout")
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    ops = workloads.WORKLOADS[args.workload](args.seed)
    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # the operations, the probe and this process share one core (children
    # and threads inherit the affinity); the operations are single-threaded
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    passes: list[Pass] = []
    traced = None
    with SpeedProbe() as probe:
        setup_intervals = measure_setup(run_dir)
        measure_start = time.perf_counter()
        while True:
            passes.append(Pass(ops, run_dir / f"pass{len(passes)}", False, deadline))
            log(f"pass {len(passes)}: {passes[-1].wall:.2f} s")
            now = time.perf_counter()
            longest = max(p.wall for p in passes)
            reserve = longest * (1 + (TRACE_COST if args.trace else 0))
            if now - measure_start >= args.seconds or now + reserve > deadline:
                break
        if args.trace:
            traced = Pass(ops, run_dir / "traced", True, deadline)
            log(f"traced pass: {traced.wall:.2f} s")
    setup_s = statistics.median(probe.rescaled(*interval) for interval in setup_intervals)
    wall_s = statistics.median(p.rescaled_wall(probe) for p in passes)
    log(f"setup {setup_s:.3f} s, pass {wall_s:.2f} s at the reference speed")
    with open(run_dir / "probe.json", "w") as handle:
        json.dump({"starts": probe.starts, "durations": probe.durations}, handle)
    if traced is not None:
        with open(run_dir / "trace.json", "w") as handle:
            json.dump(traced.traces, handle)
        metrics = layer_metrics(traced, traced.rescaled_wall(probe) - wall_s)
        passes.append(traced)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
        }
    result = {
        "correct": not any(p.incorrect for p in passes),
        "attempted": len(ops) * len(passes),
        "failed": sum(len(p.failed) for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(run_dir / "result.json", "w") as handle:
        json.dump(
            dict(
                result,
                setup_intervals=setup_intervals,
                raw_pass_walls=[p.wall for p in passes],
                rescaled_pass_walls=[p.rescaled_wall(probe) for p in passes],
                op_intervals=[p.intervals for p in passes],
                failed_ops=[p.failed for p in passes],
            ),
            handle,
            indent=1,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
