#!/usr/bin/env python3
"""midoppler benchmark: latency, throughput, set-up time, memory and correctness.

    python3 perfbench/run.py --workload classical_corpus --seed 1 --seconds 20 --trace 0

Generates a seeded workload of study files (see workloads.py), then

* ``--trace 0``: times each input in a closed loop (one client, one
  process) through the public calls ``midoppler analyze`` makes, from the
  first read to its outcome; times in-process ``midoppler analyze`` passes
  over the whole workload; scores every outcome against the synthetic
  ground truth. Prints the end-to-end metrics.
* ``--trace 1``: alternates untraced passes with passes whose calls into
  each layer are wrapped in spans (tracing.py), then makes one untimed
  counting pass. Prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when the correctness gate fails, and the program under test is always the
one in ``src/`` next to this directory.
"""

import os

# One process with no hidden threads: pin BLAS/OpenMP pools before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
RESULTS = BENCH_DIR / "results"

if not (SRC / "midoppler" / "__init__.py").is_file():
    raise SystemExit(f"error: no midoppler source under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import midoppler  # noqa: E402
from midoppler import cli, ingestion, kernels, measurement, stats  # noqa: E402
from midoppler.errors import MidopplerError  # noqa: E402

from tracing import NullTracer, Tracer, instrument  # noqa: E402
from workloads import GENERATORS, MEASURED, REJECTED, SPECS  # noqa: E402

if Path(midoppler.__file__).resolve().parent != SRC / "midoppler":
    raise SystemExit(f"error: imported midoppler from {midoppler.__file__}, not from {SRC}")

E_A_TOL = 0.05   # m/s, acceptance tolerance for noisy inputs
DT_TOL = 25.0    # ms
QRS_MATCH_MS = 20.0
MIN_SAMPLES = 200        # p95 then has 10 samples beyond it
MIN_CLI_PASSES = 3
SETUP_REPS = 3
LATENCY_PASSES_PER_CLI_PASS = 2
FRESH_IMPORT = f"import sys; sys.path.insert(0, {str(SRC)!r}); import midoppler.cli"

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_inputs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# Printed and recorded with the end-to-end metrics, but not in BENCHMARK.json:
# failed_fraction is 0 on correct code, and the largest errors are set by the
# seed's draw of studies rather than by the code (see README.md).
ACCURACY = (
    ("failed_fraction", "ratio"),
    ("e_err_max_mps", "m/s"),
    ("a_err_max_mps", "m/s"),
    ("dt_err_max_ms", "ms"),
)
TIMED_SPANS = (
    "ingestion.load_image",
    "ingestion.load_manifest",
    "ingestion.route",
    "ingestion.write_csv",
    "segmentation.segment",
    "segmentation.import_mask",
    "segmentation.trace",
    "kernels.column_median",
    "kernels.vertical_opening",
    "kernels.remove_small_components",
    "ecg.extract",
    "ecg.detect_qrs",
    "measurement.measure_study",
    "measurement.measure_beats",
    "stats.compare",
    "synth.generate",
    "synth.save",
)
SELF_SPANS = (
    ("segmentation.self_ms", "segmentation.segment"),
    ("measurement.self_ms", "measurement.measure_study"),
)
COUNTS = (
    ("kernels.pixels", "count"),
    ("segmentation.foreground_fraction", "ratio"),
    ("segmentation.gap_columns", "count"),
    ("ingestion.bytes_read", "bytes"),
    ("ingestion.rejected", "count"),
    ("ingestion.errors", "count"),
    ("ecg.qrs_recall", "ratio"),
    ("measurement.beat_yield", "ratio"),
)
# CSV column, ground-truth field, largest-error metric, tolerance
FIELDS = (
    ("e_mps", "e_velocity", "e_err_max_mps", E_A_TOL),
    ("a_mps", "a_velocity", "a_err_max_mps", E_A_TOL),
    ("dt_ms", "dt_ms", "dt_err_max_ms", DT_TOL),
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for span in TIMED_SPANS:
        names += [(f"{span}_ms", "ms"), (f"{span}_calls", "count")]
    names += [(name, "ms") for name, _ in SELF_SPANS]
    names += [("trace.overhead_ms", "ms")]
    return names + list(COUNTS)


# ---------------------------------------------------------------------------
# the per-input path


def analyze_one(inp, out_dir):
    """One input through the public calls of `midoppler analyze`; its outcome."""
    try:
        image = ingestion.load_image(inp.image)
        manifest = ingestion.load_manifest(inp.manifest, image_size=(image.width, image.height))
        if not ingestion.route_image(manifest).accepted:
            return REJECTED
        result = measurement.measure_study(image, manifest, mask_path=inp.mask)
        out_dir.mkdir(parents=True, exist_ok=True)
        measurement.write_study_csv(out_dir / f"{inp.stem}.measurements.csv", result)
        return MEASURED
    except (MidopplerError, OSError) as exc:
        return type(exc).__name__


def run_pass(inputs, out_dir, tracer):
    """One closed-loop pass: [(input, outcome, seconds)]."""
    timed = []
    for inp in inputs:
        tracer.request = inp.stem
        start = time.perf_counter()
        outcome = analyze_one(inp, out_dir)
        timed.append((inp, outcome, time.perf_counter() - start))
    return timed


def set_up(workload, seed, work, tracer, size, reps=SETUP_REPS):
    """Generate the inputs and warm up, reps times; (inputs, median s).

    Each repetition imports the package in a fresh interpreter, writes
    every input file, and runs one untimed input in this process.
    """
    directory = work / "inputs"
    times = []
    for _ in range(reps):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", FRESH_IMPORT], check=True, cwd=ROOT)
        with instrument(tracer.wrap) if isinstance(tracer, Tracer) else contextlib.nullcontext():
            inputs = GENERATORS[workload](seed, directory, tracer, size)
        warm = next(inp for inp in inputs if inp.expected == MEASURED)
        analyze_one(warm, work / "warmup")
        times.append(time.perf_counter() - start)
    return inputs, statistics.median(times)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# correctness


def score(attempts, out_dir):
    """Failed attempts and the largest per-beat errors against the truth.

    An attempt fails when its outcome is not the expected one, or when it
    was measured and its CSV misses a beat or is off by more than the
    acceptance tolerance on any beat.
    """
    worst = {metric: 0.0 for _, _, metric, _ in FIELDS}
    csv_ok = {}
    for inp, _ in attempts:
        if inp.expected != MEASURED or inp.stem in csv_ok:
            continue
        try:
            rows = measurement.read_measurement_csv(out_dir / f"{inp.stem}.measurements.csv")
        except (OSError, ValueError):
            csv_ok[inp.stem] = False
            continue
        ok = len(rows) == len(inp.truth.beats)
        for beat, true in enumerate(inp.truth.beats, start=1):
            row = rows.get(beat, {})
            for column, field, metric, tol in FIELDS:
                if column not in row:
                    ok = False
                    continue
                err = abs(row[column] - getattr(true, field))
                worst[metric] = max(worst[metric], err)
                ok = ok and err <= tol
        csv_ok[inp.stem] = ok
    failed = sum(
        1
        for inp, outcome in attempts
        if outcome != inp.expected or (inp.expected == MEASURED and not csv_ok[inp.stem])
    )
    return failed, worst


def same_csvs(inputs, dir_a, dir_b):
    """Both directories hold byte-identical CSVs for the measured inputs, and none other."""
    for inp in inputs:
        name = f"{inp.stem}.measurements.csv"
        a, b = dir_a / name, dir_b / name
        if inp.expected == MEASURED:
            if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                return False
        elif a.exists() or b.exists():
            return False
    return True


# ---------------------------------------------------------------------------
# end-to-end run


def cli_pass(inputs, input_dir, out_dir):
    """In-process `midoppler analyze` over the workload: (inputs/s, exit codes)."""
    if inputs[0].mask is not None:  # --mask takes a single input
        calls = [
            ["analyze", str(inp.image), "--mask", str(inp.mask), "--out", str(out_dir)]
            for inp in inputs
        ]
    else:
        calls = [["analyze", str(input_dir), "--out", str(out_dir)]]
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [cli.main(argv) for argv in calls]
    return len(inputs) / (time.perf_counter() - start), codes


def expected_exit_codes(inputs):
    def code(group):
        if any(inp.expected not in (MEASURED, REJECTED) for inp in group):
            return 1
        return 0 if any(inp.expected == MEASURED for inp in group) else 2

    if inputs[0].mask is not None:
        return [code([inp]) for inp in inputs]
    return [code(inputs)]


def end_to_end(inputs, work, seconds, min_samples):
    loop_dir, cli_dir = work / "out_loop", work / "out_cli"
    attempts, latencies, throughputs, codes_ok = [], [], [], True
    want_codes = expected_exit_codes(inputs)
    start = time.perf_counter()
    # Latency and CLI passes alternate, so that both sample the whole window
    # and a drift in machine speed reaches both alike.
    while (
        time.perf_counter() - start < seconds
        or len(latencies) < min_samples
        or len(throughputs) < MIN_CLI_PASSES
    ):
        for _ in range(LATENCY_PASSES_PER_CLI_PASS):
            for inp, outcome, seconds_taken in run_pass(inputs, loop_dir, NullTracer()):
                attempts.append((inp, outcome))
                latencies.append(seconds_taken)
        rate, codes = cli_pass(inputs, work / "inputs", cli_dir)
        throughputs.append(rate)
        codes_ok = codes_ok and codes == want_codes

    failed, worst = score(attempts, loop_dir)
    latencies_ms = [1e3 * t for t in latencies]
    metrics = {
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "throughput_inputs_per_s": statistics.median(throughputs),
        "failed_fraction": failed / len(attempts),
        **worst,
    }
    checks = {
        "outcomes_and_tolerances": failed == 0,
        "cli_exit_codes": codes_ok,
        "cli_csvs_match_loop": same_csvs(inputs, loop_dir, cli_dir),
    }
    samples = {"latency": len(latencies), "cli_passes": len(throughputs)}
    return metrics, checks, samples, len(attempts), failed


# ---------------------------------------------------------------------------
# traced run


class LayerCounts:
    """Work counts of one untimed pass, taken at the same layer boundaries."""

    BYTES_FROM_PATH = ("ingestion.load_image", "ingestion.load_manifest", "segmentation.import_mask")

    def __init__(self, inputs):
        self.truth = {inp.stem: inp.truth for inp in inputs}
        self.request = None
        self.values = {name: 0 for name, _ in COUNTS}
        self.foreground = []
        self.qrs_true = self.beats_true = self.qrs_found = self.beats_found = 0

    def wrap(self, name, fn):
        def counted(*args, **kwargs):
            if name in self.BYTES_FROM_PATH:
                self.values["ingestion.bytes_read"] += os.path.getsize(args[0])
            try:
                result = fn(*args, **kwargs)
            except MidopplerError:
                if name.startswith("ingestion."):
                    self.values["ingestion.errors"] += 1
                raise
            self.observe(name, args, result)
            return result

        return counted

    def observe(self, name, args, result):
        if name.startswith("kernels."):
            self.values["kernels.pixels"] += args[0].size
        elif name in ("segmentation.segment", "segmentation.import_mask"):
            self.foreground.append(float(result.cells.mean()))
        elif name == "segmentation.trace":
            self.values["segmentation.gap_columns"] += int(result.gap_flags.sum())
        elif name == "ingestion.route" and not result.accepted:
            self.values["ingestion.rejected"] += 1
        elif name == "ecg.detect_qrs":
            true_times = self.truth[self.request].qrs_times
            self.qrs_true += len(true_times)
            self.qrs_found += sum(
                1 for t in true_times if np.any(np.abs(result.times - t) <= QRS_MATCH_MS)
            )
        elif name == "measurement.measure_study":
            self.beats_true += len(self.truth[self.request].beats)
            self.beats_found += result.n_beats

    def metrics(self):
        values = dict(self.values)
        values["segmentation.foreground_fraction"] = (
            statistics.fmean(self.foreground) if self.foreground else 0.0
        )
        values["ecg.qrs_recall"] = self.qrs_found / self.qrs_true if self.qrs_true else 0.0
        values["measurement.beat_yield"] = self.beats_found / self.beats_true if self.beats_true else 0.0
        return values


def agreement_pass(inputs, out_dir):
    """Bland-Altman/correlation of the CSV outputs against the truth, per field."""
    got = {column: {} for column, _, _, _ in FIELDS}
    want = {column: {} for column, _, _, _ in FIELDS}
    for inp in inputs:
        if inp.expected != MEASURED:
            continue
        rows = measurement.read_measurement_csv(out_dir / f"{inp.stem}.measurements.csv")
        for beat, true in enumerate(inp.truth.beats, start=1):
            for column, field, _, _ in FIELDS:
                if column in rows.get(beat, {}):
                    got[column][(inp.stem, beat)] = rows[beat][column]
                    want[column][(inp.stem, beat)] = getattr(true, field)
    for column, _, _, _ in FIELDS:
        stats.compare(got[column], want[column])


def traced(inputs, work, tracer, seconds):
    plain_dir, traced_dir = work / "out_plain", work / "out_traced"
    plain, spans_of = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain += run_pass(inputs, plain_dir, NullTracer())
        with instrument(tracer.wrap):
            spans_of += run_pass(inputs, traced_dir, tracer)
            tracer.request = None
            agreement_pass(inputs, traced_dir)

    counts = LayerCounts(inputs)
    with instrument(counts.wrap):
        run_pass(inputs, work / "out_counted", counts)

    metrics = {}
    for span in TIMED_SPANS:
        metrics[f"{span}_ms"], metrics[f"{span}_calls"] = tracer.median_ms(span)
    for name, span in SELF_SPANS:
        metrics[name] = tracer.median_ms(span, self_time=True)[0]
    metrics["trace.overhead_ms"] = 1e3 * (
        statistics.median(t for _, _, t in spans_of) - statistics.median(t for _, _, t in plain)
    )
    metrics.update(counts.metrics())

    attempts = [(inp, outcome) for inp, outcome, _ in plain + spans_of]
    failed, _ = score(attempts, traced_dir)
    checks = {
        "outcomes_and_tolerances": failed == 0,
        "traced_csvs_match_untraced": same_csvs(inputs, plain_dir, traced_dir),
    }
    samples = {"untraced": len(plain), "traced": len(spans_of), "spans": len(tracer.spans)}
    return metrics, checks, samples, len(attempts), failed


# ---------------------------------------------------------------------------
# environment and report


def blas_threads():
    """{library: threads} for every OpenBLAS this process has loaded."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment():
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "kernel_backend": kernels.active_backend(),
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_workload(workload, seed, seconds, trace, size=None, min_samples=MIN_SAMPLES, setup_reps=SETUP_REPS):
    """Set up, measure and check one workload; the full result record.

    size, min_samples and setup_reps default to the benchmark's values;
    the smoke check shrinks them.
    """
    work = WORK / f"{workload}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else NullTracer()
    try:
        inputs, setup_s = set_up(workload, seed, work, tracer, size, setup_reps)
        if trace:
            metrics, checks, samples, attempted, failed = traced(inputs, work, tracer, seconds)
            units = dict(per_layer_names())
        else:
            metrics, checks, samples, attempted, failed = end_to_end(inputs, work, seconds, min_samples)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = dict(END_TO_END + ACCURACY)
        if trace:
            RESULTS.mkdir(exist_ok=True)
            tracer.write_csv(RESULTS / f"{workload}-seed{seed}.spans.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "spec": SPECS[workload],
        "inputs": len(inputs),
        "expected": {kind: sum(inp.expected == kind for inp in inputs) for kind in sorted({i.expected for i in inputs})},
        "environment": environment(),
        "samples": samples,
        "checks": checks,
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def result_line(record):
    """The final JSON line: the BENCHMARK.json metrics of this mode only."""
    names = [n for n, _ in per_layer_names()] if record["trace"] else [n for n, _ in END_TO_END]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: record["metrics"][name] for name in names},
        }
    )


def print_summary(record):
    env = record["environment"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
        f"inputs {record['inputs']} {record['expected']}"
    )
    print(
        f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} numba={env['numba'] or 'absent'} backend={env['kernel_backend']} "
        f"blas_threads={env['blas_threads']}"
    )
    print(f"samples {record['samples']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"checks {record['checks']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_summary(record)
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
