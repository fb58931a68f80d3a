"""Quick self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that each workload's ops pass their output checks, that the metric
names and units match BENCHMARK.json, that two traced runs give identical
call counts and simulated counters, that the layer shares sum to 1, that
inputs are deterministic and finite, and that run.py refuses to run without
the package sources. Exits 1 on the first failure.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 7
EXACT = ("calls_per_op", "hops_per_call", "peak_qubits", "peak_state_bytes",
         "sim_clock_s_per_op", "logical_error_rate")


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def main() -> None:
    expect(run.use_sources(), "src/qdotsim is missing")
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for name in workloads.WORKLOADS:
        w = workloads.make(name)
        first = workloads.make_input(w, SEED, 0)
        expect(first == workloads.make_input(w, SEED, 0), f"{name}: inputs not deterministic")
        expect(first != workloads.make_input(w, SEED + 1, 0), f"{name}: seed ignored")

        result = run.measure(name, SEED, 0, probes=1, warmup=1, min_ops=3)
        expect(result["correct"] and result["failed"] == 0,
               f"{name}: untraced run not correct: {result['record']['problems']}")
        expect(units(result["metrics"]) == e2e, f"{name}: end-to-end metrics differ")
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               f"{name}: an end-to-end metric is 0")

        traced = [run.measure_traced(name, SEED, 0, warmup=1, batch=2) for _ in range(2)]
        for t in traced:
            expect(t["correct"] and t["failed"] == 0,
                   f"{name}: traced run not correct: {t['record']['problems']}")
            expect(units(t["metrics"]) == layer, f"{name}: per-layer metrics differ")
            shares = sum(m["value"] for n, m in t["metrics"].items() if n.endswith(".self_share"))
            expect(math.isclose(shares, 1.0, rel_tol=1e-9), f"{name}: shares sum to {shares}")
        for metric in layer:
            if metric.endswith(EXACT):
                a, b = (t["metrics"][metric]["value"] for t in traced)
                expect(a == b, f"{name}: {metric} differs across traced runs: {a} vs {b}")
        print(f"selftest {name}: ok")

    # Without the package sources the benchmark must fail and print no result.
    bare = run.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bell_shots", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py ran without the package sources")
    print("selftest: ok")


if __name__ == "__main__":
    main()
