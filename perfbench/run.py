#!/usr/bin/env python3
"""Host-time benchmark for qdotsim.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`. One
workload runs in one process as a closed loop with one client. With
`--trace 0` the process measures set-up time, warms up, then times ops for S
seconds (at least MIN_OPS ops) and reports the end-to-end metrics, with every
host time rescaled to a reference host speed (see calibrate.py). With
`--trace 1` it alternates untraced and traced passes over a fixed batch of
ops for S seconds and reports per-layer metrics from the spans. Each op's
output is checked; the last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs every
workload in its own process, rotating the order with the seed, and prints a
table. README.md describes the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5     # fresh processes whose median is setup_s
WARMUP_OPS = 3       # untimed ops before timing starts
MIN_OPS = 100        # timed ops per run, so >= 10 samples lie beyond p90
DIGEST_OPS = 100     # ops whose outputs form the informational digest
TRACE_BATCH = 20     # ops in one untraced and one traced pass
HARD_LIMIT_S = 120   # stop timing here even if MIN_OPS is not reached

E2E = (  # name, unit: every workload reports all of them with --trace 0
    ("units_per_s", "units/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
TRACED_FUNCTIONS = (
    "scenario.run_scenario", "scenario.validate_scenario",
    "report.stream", "report.dumps_report",
    "noise.apply_kraus", "noise.idle_channel", "noise.apply_idle_jumps",
    "qstate.apply_gate", "qstate.qubit_probabilities", "qstate.measure",
    "qstate.reduced_density", "qstate.state_fidelity", "qstate.exchange_evolution",
    "qec.encode5", "qec.decode5", "qec.qec_cycle",
    "cli.main",
    "device.DotArray", "device.init_qubit", "device.move_electron",
    "device.apply_gate_at", "device.coupling_window", "device.readout", "device.idle",
    "channels.plan_tunnel_route", "channels.run_tunnel_route",
    "channels.make_epr", "channels.teleport",
)


def per_layer_names() -> list[tuple[str, str]]:
    from tracer import LAYERS

    names = []
    for fn in TRACED_FUNCTIONS:
        names += [(f"{fn}.calls_per_op", "count"), (f"{fn}.self_ms_per_op", "ms")]
    names.append(("channels.plan_tunnel_route.hops_per_call", "count"))
    names += [(f"{layer}.self_share", "fraction") for layer in (*LAYERS, "bench")]
    names += [
        ("qstate.peak_qubits", "count"),
        ("qstate.peak_state_bytes", "B"),
        ("device.sim_clock_s_per_op", "s"),
        ("qec.logical_error_rate", "fraction"),
        ("trace.overhead_p50_ms", "ms"),
    ]
    return names


# -- one workload in this process -----------------------------------------


class Loop:
    """Runs, times and checks ops of one workload; keeps the run's tallies."""

    def __init__(self, name: str, seed: int):
        import workloads

        self.workloads = workloads
        self.w = workloads.make(name)
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.units = 0
        self.first = None  # (input, output) of op 0, for the replay checks

    def input(self, i: int):
        return self.workloads.make_input(self.w, self.seed, i)

    def op(self, i: int, inp, call=None, expect=None) -> tuple[float, str | None]:
        """Run op i once: returns its latency and output (None if it failed).

        The output is checked by the workload, or, when `expect` is given,
        must equal it byte for byte."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            text = call(self.w.run, inp) if call else self.w.run(inp)
        except Exception:  # a failed op is counted, and the loop goes on
            self.failed += 1
            self.problems.append(f"op {i} raised:\n{traceback.format_exc()}")
            return time.perf_counter() - t0, None
        latency = time.perf_counter() - t0
        if expect is not None:
            problems = [] if text == expect else ["output differs from the first pass"]
        else:
            problems = self.w.check_op(inp, text)
        if problems:
            self.failed += 1
            self.problems += [f"op {i}: {p}" for p in problems]
        else:
            self.units += self.w.units(inp, text)
        if i == 0 and self.first is None:
            self.first = (inp, text)
        return latency, text

    def warm_up(self, n: int) -> None:
        for k in range(n):
            self.w.run(self.input(-1 - k))

    def finish(self) -> bool:
        if self.first is None:
            inp = self.input(0)
            self.first = (inp, self.w.run(inp))
        self.problems += self.w.check_run(*self.first)
        return self.failed == 0 and not self.problems


def setup_times(name: str, seed: int, probes: int) -> list[tuple[float, float]]:
    """Each probe is a fresh interpreter that imports qdotsim and runs op 0,
    right after a fresh reference interpreter; returns (set-up seconds,
    reference seconds) per probe."""
    import workloads

    inp = json.dumps(workloads.make_input(workloads.make(name), seed, 0))

    def probe(arg: str) -> float:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), arg],
            input=inp, capture_output=True, text=True, cwd=ROOT, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])["seconds"]

    times = []
    for _ in range(probes):
        reference = probe("--reference")
        times.append((probe(name), reference))
    return times


def measure(name: str, seed: int, seconds: float, *, probes: int = SETUP_PROBES,
            warmup: int = WARMUP_OPS, min_ops: int = MIN_OPS) -> dict:
    """The untraced run: end-to-end metrics.

    The calibration kernel runs right after every op, and each op's latency
    is rescaled by it, so the host's speed drift cancels."""
    from calibrate import REF_KERNEL_S, REF_STARTUP_S, kernel_time, rescale

    setup = setup_times(name, seed, probes)
    loop = Loop(name, seed)
    loop.warm_up(warmup)
    kernel_time()  # the kernel's first run is cold too
    digest = hashlib.sha256()
    latencies, kernels = [], []
    start = time.perf_counter()
    stop, hard_stop = start + seconds, start + max(seconds, HARD_LIMIT_S)
    i = 0
    while (i < min_ops or time.perf_counter() < stop) and time.perf_counter() < hard_stop:
        latency, text = loop.op(i, loop.input(i))
        kernel = kernel_time()
        if text is not None:
            latencies.append(latency)
            kernels.append(kernel)
        if i < DIGEST_OPS:
            digest.update(f"{text}\0".encode())
        i += 1
    correct = loop.finish()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = [rescale(t, k, REF_KERNEL_S) for t, k in zip(latencies, kernels)]

    def times(ts: list[float], setup_s: list[float]) -> dict:
        return {
            "units_per_s": loop.units / sum(ts) if ts else 0.0,
            "op_p50_ms": 1e3 * statistics.median(ts) if ts else 0.0,
            "op_p90_ms": 1e3 * _p90(ts),
            "setup_s": statistics.median(setup_s),
        }

    values = times(scaled, [rescale(s, r, REF_STARTUP_S) for s, r in setup])
    values["peak_rss_mb"] = peak_kb / 1024.0
    return {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in E2E},
        "record": {
            **environment(),
            "workload": name, "unit": loop.w.unit, "sizes": loop.w.SIZES,
            "seed": seed, "seconds": seconds, "trace": 0,
            "warmup_ops": warmup, "timed_ops": i, "op_samples": len(latencies),
            "units": loop.units, "setup_probes_s": [s for s, _ in setup],
            "reference_startups_s": [r for _, r in setup],
            "unscaled": times(latencies, [s for s, _ in setup]),
            "kernel_median_ms": 1e3 * statistics.median(kernels) if kernels else None,
            "error_rate": loop.failed / max(loop.attempted, 1),
            "output_digest": {"ops": min(i, DIGEST_OPS), "sha256": digest.hexdigest()},
            "problems": loop.problems[:5],
        },
    }


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def measure_traced(name: str, seed: int, seconds: float, *, warmup: int = WARMUP_OPS,
                   batch: int = TRACE_BATCH, spans_out: Path | None = None) -> dict:
    """The traced run: per-layer metrics over a fixed batch of ops, repeated."""
    from tracer import LAYERS, ROOT as ROOT_SPAN, Tracer

    loop = Loop(name, seed)
    loop.warm_up(warmup)
    inputs = [loop.input(i) for i in range(batch)]
    tracer = Tracer()
    plain, traced, outputs = [], [], []
    passes = 0
    start = time.perf_counter()
    # Only whole passes count, so calls_per_op repeats exactly; start one
    # more only if it fits in the time left.
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        # Pass 0 is checked by the workload; every later output, traced or
        # not, must repeat pass 0 byte for byte.
        for i, inp in enumerate(inputs):
            latency, text = loop.op(i, inp, expect=outputs[i] if passes else None)
            plain.append(latency)
            if passes == 0:
                outputs.append(text)
        tracer.install()
        try:
            for i, inp in enumerate(inputs):
                latency, _ = loop.op(i, inp, call=tracer.run_op, expect=outputs[i])
                traced.append(latency)
        finally:
            tracer.uninstall()
        passes += 1
    correct = loop.finish()
    if spans_out is not None:
        tracer.write(spans_out)

    summary = tracer.summary()
    ops = passes * batch
    wall = summary[ROOT_SPAN]["total_s"]
    values = {}
    for fn in TRACED_FUNCTIONS:
        stats = summary.get(fn, {"calls": 0, "self_s": 0.0})
        values[f"{fn}.calls_per_op"] = stats["calls"] / ops
        values[f"{fn}.self_ms_per_op"] = 1e3 * stats["self_s"] / ops
    plans = summary.get("channels.plan_tunnel_route", {"calls": 0})["calls"]
    hops = (tracer.child_counts("channels.run_tunnel_route", "device.move_electron")
            if plans else 0)
    values["channels.plan_tunnel_route.hops_per_call"] = hops / plans if plans else 0.0
    for layer in (*LAYERS, "bench"):
        own = sum(s["self_s"] for n, s in summary.items()
                  if n.split(".")[0] == layer)
        values[f"{layer}.self_share"] = own / wall
    parsed = [json.loads(t) for t in outputs if t is not None]
    values["qstate.peak_qubits"] = tracer.peak_qubits
    values["qstate.peak_state_bytes"] = tracer.peak_state_bytes
    values["device.sim_clock_s_per_op"] = (
        sum(p.get("final_clock_s", 0.0) for p in parsed) / batch)
    values["qec.logical_error_rate"] = (
        sum(p.get("logical_error_rate", 0.0) for p in parsed) / batch)
    values["trace.overhead_p50_ms"] = 1e3 * (
        statistics.median(traced) - statistics.median(plain))
    return {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in per_layer_names()},
        "record": {
            **environment(),
            "workload": name, "unit": loop.w.unit, "sizes": loop.w.SIZES,
            "seed": seed, "seconds": seconds, "trace": 1,
            "batch_ops": batch, "passes": passes, "spans": len(tracer.start),
            "untraced_p50_ms": 1e3 * statistics.median(plain),
            "traced_p50_ms": 1e3 * statistics.median(traced),
            "spans_file": str(spans_out.relative_to(ROOT)) if spans_out else None,
            "problems": loop.problems[:5],
        },
    }


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_result(result: dict) -> None:
    rec = result["record"]
    for name, m in result["metrics"].items():
        print(f"{rec['workload']:15s} {name:45s} {m['value']:14.6g} {m['unit']}")
    if not rec["trace"]:
        print(f"{rec['workload']:15s} {'error_rate':45s} {rec['error_rate']:14.6g} fraction"
              f"   ({result['attempted']} ops attempted, {rec['op_samples']} latency samples)")
    for problem in rec["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("record: " + json.dumps(rec, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


# -- all workloads, one process each ---------------------------------------


def run_all(seed: int, seconds: float, trace: int) -> int:
    import workloads

    names = list(workloads.WORKLOADS)
    shift = seed % len(names)
    results = {}
    for name in names[shift:] + names[:shift]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def use_sources() -> bool:
    """Put the checkout's `src/` first on sys.path; False if it is missing."""
    if not (SRC / "qdotsim" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_sources():
        print(f"perfbench: no qdotsim sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        result = measure_traced(args.workload, args.seed, args.seconds,
                                spans_out=out / f"spans-{args.workload}.csv.gz")
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
