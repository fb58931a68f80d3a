"""The four benchmark workloads: seeded inputs, the timed op, output checks.

Every workload is a closed loop with one client: op i+1 starts only after op i
returns. `make_input(seed, i)` builds op i's input from the benchmark seed with
the standard library's `random`, so the program receives nothing but a
scenario dict or an argv list. `run(inp)` is the timed op and returns the text
the program produced. `units` counts the simulated work in it, `check_op`
parses it and returns the problems found, and `check_run` adds the checks
that need the whole run or extra untimed ops.

Why each workload exists, and what it bypasses, is recorded in README.md.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random

from qdotsim import cli, report, scenario


def _check_finite(obj, where: str) -> None:
    """Scenario validation accepts inf/nan and then crashes, so a generated
    input must never carry one."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"{where}: generated a non-finite number {obj!r}")
    if isinstance(obj, dict):
        for value in obj.values():
            _check_finite(value, where)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _check_finite(value, where)


def _rng(name: str, seed: int, i: int) -> random.Random:
    # str seeds are hashed with SHA-512, so the stream is stable across runs.
    return random.Random(f"{name}/{seed}/{i}")


def _within_5_sigma(hits: int, n: int, p: float) -> bool:
    return abs(hits / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)


def _neighbours(pos):
    x, y = pos
    return [(x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)]


def _manhattan(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


class ScenarioWorkload:
    """An op that runs one scenario dict and serializes its report."""

    shots = 1

    def run(self, inp: dict) -> str:
        return report.dumps_report(scenario.run_scenario(inp, shots=self.shots))

    def check_run(self, first_input, first_output: str) -> list[str]:
        """Replaying op 0 with the same seed must give the same bytes."""
        if self.run(copy.deepcopy(first_input)) != first_output:
            return [f"{self.name}: replay of op 0 is not byte-identical"]
        return []


class BellShots(ScenarioWorkload):
    name = "bell_shots"
    unit = "shot"
    shots = 100
    SIZES = {"qubits": 2, "grid": "2x2", "events": 5, "shots_per_op": shots}

    def __init__(self):
        self._bell = scenario.load_scenario("bell.scenario")
        self.shots_seen = 0
        self.zeros = 0

    def make_input(self, seed: int, i: int) -> dict:
        inp = copy.deepcopy(self._bell)
        inp["seed"] = _rng(self.name, seed, i).randrange(2**31)
        return inp

    def units(self, inp, text) -> int:
        return self.shots

    def check_op(self, inp, text) -> list[str]:
        out = json.loads(text)
        records = out["measurement_records"]
        problems = []
        if len(records) != self.shots:
            problems.append(f"{len(records)} records for {self.shots} shots")
        bad = sorted({r for r in records if r not in ("00", "11")})
        if bad:
            problems.append(f"records other than 00/11: {bad}")
        self.shots_seen += len(records)
        self.zeros += records.count("00")
        return problems

    def check_run(self, first_input, first_output) -> list[str]:
        problems = super().check_run(first_input, first_output)
        if self.shots_seen and not _within_5_sigma(self.zeros, self.shots_seen, 0.5):
            problems.append(
                f"bell_shots: 00 fraction {self.zeros / self.shots_seen:.4f} over "
                f"{self.shots_seen} shots is more than 5 sigma from 0.5"
            )
        return problems


class MatrixNoise(ScenarioWorkload):
    name = "matrix_noise"
    unit = "event"

    QUBITS = ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1))
    READOUTS = ((2, 1), (3, 1))
    ONE_QUBIT = ("X", "Y", "Z", "H", "S", "T", "Rot")
    SIZES = {"qubits": 6, "grid": "4x3", "representation": "matrix",
             "events": 6 + 16 + 2, "shots_per_op": 1}

    def make_input(self, seed: int, i: int) -> dict:
        rng = _rng(self.name, seed, i)
        occupied = set(self.QUBITS)
        pairs = [(q, nb) for q in self.QUBITS for nb in _neighbours(q)
                 if nb in occupied and q < nb]
        t2 = rng.uniform(1e-6, 4e-6)
        events = []
        for _ in range(15):
            kind = rng.choices(("1q", "cnot", "window", "idle"), (5, 3, 3, 2))[0]
            if kind == "1q":
                gate = rng.choice(self.ONE_QUBIT)
                event = {"op": "gate", "kind": gate,
                         "targets": [list(rng.choice(self.QUBITS))]}
                if gate == "Rot":
                    event["axis"] = [rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0]
                    event["angle"] = rng.uniform(0.0, 2 * math.pi)
            elif kind == "cnot":
                a, b = rng.choice(pairs)
                if rng.random() < 0.5:
                    a, b = b, a
                event = {"op": "gate", "kind": "CNOT", "targets": [list(a), list(b)]}
            elif kind == "window":
                a, b = rng.choice(pairs)
                event = {"op": "coupling_window", "a": list(a), "b": list(b),
                         "theta": rng.uniform(0.0, math.pi)}
            else:
                event = {"op": "idle", "t": rng.uniform(20e-9, 400e-9)}
            events.append(event)
        a, b = rng.choice(pairs)
        events.insert(rng.randrange(len(events) + 1),
                      {"op": "epr", "a": list(a), "b": list(b)})
        measured = rng.sample(self.QUBITS, len(self.READOUTS))
        program = (
            [{"op": "init", "pos": list(q)} for q in self.QUBITS]
            + events
            + [{"op": "readout", "qubit": list(q), "readout": list(r)}
               for q, r in zip(measured, self.READOUTS)]
        )
        return {
            "schema_version": 1,
            "seed": rng.randrange(2**31),
            "material": {"preset": "inas", "noise": {
                "enabled": True, "T2": t2, "T1": t2 * rng.uniform(0.6, 2.0)}},
            "array": {
                "width": 4, "height": 3, "representation": "matrix",
                "dots": [{"pos": list(q), "role": "qubit"} for q in self.QUBITS]
                + [{"pos": list(r), "role": "readout"} for r in self.READOUTS],
            },
            "program": program,
        }

    def units(self, inp, text) -> int:
        return len(inp["program"])

    def check_op(self, inp, text) -> list[str]:
        problems = []
        for event in json.loads(text)["events"]:
            for key, value in (event["fidelity_checks"] or {}).items():
                if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                    problems.append(f"event {event['index']}: {key} = {value!r}")
        return problems

    @staticmethod
    def _pre_readout_checks(text: str) -> list:
        checks = []
        for event in json.loads(text)["events"]:
            if event["event"] == "readout":
                break
            checks.append(event["fidelity_checks"])
        return checks

    def check_run(self, first_input, first_output) -> list[str]:
        """Matrix mode draws no randomness before the first readout, so a
        different scenario seed must leave every earlier check unchanged."""
        problems = super().check_run(first_input, first_output)
        other = copy.deepcopy(first_input)
        other["seed"] = (other["seed"] + 1) % 2**31
        text = self.run(other)
        if self._pre_readout_checks(text) != self._pre_readout_checks(first_output):
            problems.append("matrix_noise: pre-readout fidelity_checks depend on the seed")
        return problems


class QecCycles:
    name = "qec_cycles"
    unit = "cycle"
    CYCLES = 10
    P = 1e-3
    PULSES = 500  # the CLI's default --pulses-per-cycle
    SIZES = {"qubits": 5, "cycles_per_op": CYCLES, "p": P}

    def __init__(self):
        self.cycles_seen = 0
        self.logical_errors = 0

    def make_input(self, seed: int, i: int) -> list[str]:
        op_seed = _rng(self.name, seed, i).randrange(2**31)
        return ["qec", "--cycles", str(self.CYCLES), "--p", repr(self.P),
                "--seed", str(op_seed)]

    def _main(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def run(self, argv) -> str:
        code, text = self._main(argv)
        if code != 0:
            raise RuntimeError(f"qdotsim {' '.join(argv)} exited {code}")
        return text

    def units(self, argv, text) -> int:
        return self.CYCLES

    def check_op(self, argv, text) -> list[str]:
        out = json.loads(text)
        problems = []
        total = sum(out["syndrome_histogram"].values())
        if total != self.CYCLES:
            problems.append(f"histogram sums to {total}, not {self.CYCLES}")
        self.cycles_seen += out["cycles"]
        self.logical_errors += round(out["logical_error_rate"] * out["cycles"])
        return problems

    def p_two_or_more(self) -> float:
        """P(at least two injected Paulis in one cycle): the rate at which a
        distance-3 code can fail."""
        q = 1.0 - self.P
        return 1.0 - q**self.PULSES - self.PULSES * self.P * q ** (self.PULSES - 1)

    def check_run(self, first_input, first_output) -> list[str]:
        problems = []
        code, text = self._main(first_input)
        if code != 0 or text != first_output:
            problems.append("qec_cycles: replay of op 0 is not byte-identical")
        if self.cycles_seen:
            p2 = self.p_two_or_more()
            limit = p2 + 5.0 * math.sqrt(p2 * (1.0 - p2) / self.cycles_seen)
            rate = self.logical_errors / self.cycles_seen
            if rate > limit:
                problems.append(f"qec_cycles: logical error rate {rate:.4f} > {limit:.4f}")
        control = ["qec", "--cycles", str(self.CYCLES), "--p", "0", "--seed", "1"]
        code, text = self._main(control)
        out = json.loads(text) if code == 0 else {}
        if out.get("logical_error_rate") != 0 or set(out.get("syndrome_histogram", {})) != {"0000"}:
            problems.append("qec_cycles: the p = 0 control shows errors")
        return problems


class GridTransport(ScenarioWorkload):
    name = "grid_transport"
    unit = "hop"
    SIZE = 48
    QUBITS = 8
    LONG_ROUTES = 4
    MIN_LONG = 40   # Manhattan length of a long route
    SPACING = 3     # free qubits keep this Manhattan distance, so no route is walled in
    SIZES = {"qubits": QUBITS, "grid": f"{SIZE}x{SIZE}", "representation": "vector",
             "routes": LONG_ROUTES + 3, "min_long_route": MIN_LONG, "shots_per_op": 1}

    def make_input(self, seed: int, i: int) -> dict:
        rng = _rng(self.name, seed, i)
        n = self.SIZE
        # The teleport row c-a-b with a readout dot under b, kept off the border.
        x0, y0 = rng.randrange(3, n - 5), rng.randrange(3, n - 4)
        row = [(x0, y0), (x0 + 1, y0), (x0 + 2, y0)]
        readout = (x0 + 2, y0 + 1)
        blocked = row + [readout]

        def free_spot(occupied, near=None):
            while True:
                p = (rng.randrange(n), rng.randrange(n))
                if near is not None and _manhattan(p, near) < self.MIN_LONG:
                    continue
                if all(_manhattan(p, q) >= self.SPACING for q in occupied + blocked):
                    return p

        where: list = []
        for _ in range(self.QUBITS):
            where.append(free_spot(where))
        program = [{"op": "init", "pos": list(p)} for p in where]

        def route(q, dst):
            program.append({"op": "route", "src": list(where[q]), "dst": list(dst)})
            where[q] = dst

        for q in rng.sample(range(self.QUBITS), self.LONG_ROUTES):
            others = where[:q] + where[q + 1:]
            route(q, free_spot(others, near=where[q]))
        c, a, b = rng.sample(range(self.QUBITS), 3)
        for q, dst in zip((c, a, b), row):
            route(q, dst)
        program += [
            {"op": "gate", "kind": "Rot", "targets": [list(row[0])],
             "axis": [rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0],
             "angle": rng.uniform(0.0, math.pi)},
            {"op": "epr", "a": list(row[1]), "b": list(row[2])},
            {"op": "teleport", "payload": list(row[0]), "a": list(row[1]),
             "b": list(row[2])},
            {"op": "readout", "qubit": list(row[2]), "readout": list(readout)},
        ]
        return {
            "schema_version": 1,
            "seed": rng.randrange(2**31),
            "material": {"preset": "inas", "noise": {"enabled": True}},
            "array": {
                "width": n, "height": n, "representation": "vector",
                "dots": [{"pos": list(readout), "role": "readout"}],
            },
            "program": program,
        }

    def units(self, inp, text) -> int:
        return sum(len(e["path"]) - 1 for e in json.loads(text)["events"] if "path" in e)

    def check_op(self, inp, text) -> list[str]:
        problems = []
        events = json.loads(text)["events"]
        for event, spec in zip(events, inp["program"]):
            if spec["op"] != "route":
                continue
            path = [tuple(p) for p in event["path"]]
            src, dst = tuple(spec["src"]), tuple(spec["dst"])
            if path[0] != src or path[-1] != dst:
                problems.append(f"event {event['index']}: path ends {path[0]}..{path[-1]}")
            if any(_manhattan(p, q) != 1 for p, q in zip(path, path[1:])):
                problems.append(f"event {event['index']}: path is not contiguous")
            if len(path) - 1 < _manhattan(src, dst):
                problems.append(f"event {event['index']}: path shorter than the distance")
        return problems


WORKLOADS = {w.name: w for w in (BellShots, MatrixNoise, QecCycles, GridTransport)}


def make(name: str):
    """A fresh workload object; it holds the run-level check state."""
    return WORKLOADS[name]()


def make_input(workload, seed: int, i: int):
    inp = workload.make_input(seed, i)
    _check_finite(inp, f"{workload.name} op {i}")
    return inp
