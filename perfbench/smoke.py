#!/usr/bin/env python3
"""Fast self-check of the benchmark, about 20 seconds on two cores:

    python3 perfbench/smoke.py

Runs a tiny seeded run of every workload in both modes and checks that each
emits exactly the metrics BENCHMARK.json names, each with its unit, and
passes its correctness gate. Then shows the gate is not vacuous: a corrupted
output CSV must raise failed_fraction above 0 and break the byte-identity
check. Exits non-zero on the first failed check.
"""

import json
import shutil
import sys

import run  # pins BLAS/OpenMP threads before numpy loads
from tracing import NullTracer
from workloads import GENERATORS, MEASURED

SEED = 5
SIZES = {"classical_corpus": 2, "imported_mask": 2, "mixed_archive": 8}


def check(condition, message):
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def check_runs(spec):
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(e2e == list(run.END_TO_END), "end_to_end metrics differ from run.END_TO_END")
    check(layers == run.per_layer_names(), "per_layer metrics differ from run.per_layer_names()")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(GENERATORS), "workload names")
    for workload, size in SIZES.items():
        for trace, expected in ((False, e2e), (True, layers)):
            record = run.run_workload(
                workload, SEED, 0.2, trace, size=size, min_samples=5, setup_reps=1
            )
            result = json.loads(run.result_line(record))
            label = f"{workload} trace={int(trace)}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0, f"{label}: gate failed: {record['checks']}")
            check(result["attempted"] >= 1, f"{label}: nothing attempted")
            emitted = [(name, m["unit"]) for name, m in result["metrics"].items()]
            check(emitted == expected, f"{label}: emitted {emitted}")
            if not trace:
                for name, unit in run.ACCURACY:
                    check(record["metrics"][name]["unit"] == unit, f"{label}: {name} unit")
            else:
                calls = result["metrics"]["kernels.column_median_calls"]["value"]
                check((calls == 0) == (workload == "imported_mask"), f"{label}: {calls} kernel calls")
            print(f"smoke: ok {label}")


def check_gate_catches_corruption():
    work = run.WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, _ = run.set_up("classical_corpus", SEED, work, NullTracer(), 2, reps=1)
        out, copy = work / "out", work / "copy"
        attempts = [(inp, outcome) for inp, outcome, _ in run.run_pass(inputs, out, NullTracer())]
        failed, _ = run.score(attempts, out)
        check(failed == 0, "clean outputs scored as failed")
        shutil.copytree(out, copy)
        check(run.same_csvs(inputs, out, copy), "identical CSVs reported as different")

        victim = out / f"{next(i for i in inputs if i.expected == MEASURED).stem}.measurements.csv"
        lines = victim.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split(",")
        fields[1] = f"{float(fields[1]) + 0.1:.3f}"  # beat 1 E, off by twice the tolerance
        lines[1] = ",".join(fields)
        victim.write_text("\n".join(lines) + "\n", encoding="utf-8")

        failed, _ = run.score(attempts, out)
        check(failed / len(attempts) > 0, "corrupted CSV left failed_fraction at 0")
        check(not run.same_csvs(inputs, out, copy), "corrupted CSV still byte-identical")
        print(f"smoke: ok corrupted CSV gives failed_fraction {failed / len(attempts):.2f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_runs(spec)
    check_gate_catches_corruption()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
