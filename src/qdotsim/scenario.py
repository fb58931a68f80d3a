"""Declarative scenario files and their deterministic runner.

A scenario is JSON: material (preset name or inline overrides), the array
layout, an ordered event program, a mandatory integer seed, and optional
analytics requests. Every event is statically validated before anything
executes; a malformed file produces no output at all.

Replaying the same scenario with the same seed yields byte-identical
reports: all randomness comes from per-(shot, event) split streams and all
numbers are serialized with fixed 17-significant-digit formatting.
"""
from __future__ import annotations

import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from . import channels, pulses, qec
from .device import DotArray, MaterialParams, NoiseParams, inas_material, si_material
from .errors import QdotsimError, SchemaError
from .qstate import reduced_density, state_fidelity
from .report import digest, dumps_report, stream

SCHEMA_VERSION = 1

EVENT_OPS = (
    "init", "gate", "coupling_window", "move", "route", "epr", "teleport",
    "qec_cycle", "readout", "idle",
)

ANALYTIC_KINDS = (
    "resources", "lambda", "swap_channel", "tunnel_channel", "max_distance",
    "teleport_bandwidth", "pulse_budget", "zeeman_ratio",
)

GATE_KINDS_1Q = ("X", "Y", "Z", "H", "S", "T", "Rot")
GATE_KINDS_2Q = ("CNOT", "SWAP", "SqrtSWAP", "ExchangeEvolve")


def load_scenario(path_or_name: str) -> dict:
    """Read a scenario from disk, falling back to the bundled ones."""
    path = Path(path_or_name)
    if path.exists():
        text = path.read_text()
    else:
        bundled = resources.files("qdotsim").joinpath("scenarios", path_or_name)
        if not bundled.is_file():
            raise SchemaError(f"scenario not found: {path_or_name}")
        text = bundled.read_text()
    try:
        scenario = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(scenario, dict):
        raise SchemaError("scenario must be a JSON object")
    return scenario


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _all_finite(obj) -> bool:
    """No float anywhere in a parsed JSON value is inf or nan."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_all_finite(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


def _pos(value, label: str) -> tuple[int, int]:
    _require(
        isinstance(value, (list, tuple)) and len(value) == 2
        and all(_is_int(v) for v in value),
        f"{label} must be an [x, y] pair of integers, got {value!r}",
    )
    return int(value[0]), int(value[1])


def build_material(spec) -> MaterialParams:
    """Resolve a material field: preset name, or dict of overrides on one."""
    if isinstance(spec, str):
        spec = {"preset": spec}
    _require(isinstance(spec, dict), f"material must be a name or object, got {spec!r}")
    spec = dict(spec)
    preset = spec.pop("preset", "inas")
    noise_spec = spec.pop("noise", None)
    if preset == "inas":
        base = inas_material()
    elif preset == "si":
        t2 = (noise_spec or {}).get("T2")
        _require(t2 is not None, "the si preset requires an explicit noise.T2")
        base = si_material(float(t2))
    else:
        raise SchemaError(f"unknown material preset {preset!r}")
    if noise_spec is not None:
        _require(isinstance(noise_spec, dict), "noise must be an object")
        noise = NoiseParams(
            T1=float(noise_spec.get("T1", 2.0 * float(noise_spec.get("T2", base.noise.T2)))),
            T2=float(noise_spec.get("T2", base.noise.T2)),
            enabled=bool(noise_spec.get("enabled", False)),
        )
        base = base.with_noise(noise)
    valid = {f.name for f in dataclasses.fields(MaterialParams)} - {"noise"}
    unknown = set(spec) - valid
    _require(not unknown, f"unknown material fields: {sorted(unknown)}")
    try:
        return dataclasses.replace(base, **{k: float(v) for k, v in spec.items()})
    except (QdotsimError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad material parameters: {exc}") from exc


def validate_scenario(scenario: dict) -> None:
    """Full static validation; raises SchemaError before any execution."""
    _require(scenario.get("schema_version") == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}")
    _require(_is_int(scenario.get("seed")),
             "seed is mandatory and must be an integer (no wall-clock entropy)")
    _require(_all_finite(scenario), "scenario holds a non-finite number (inf or nan)")
    build_material(scenario.get("material", "inas"))
    array = scenario.get("array")
    _require(isinstance(array, dict), "array section is mandatory")
    width, height = array.get("width"), array.get("height")
    _require(_is_int(width) and _is_int(height)
             and width >= 1 and height >= 1,
             "array.width and array.height must be positive integers")
    roles: dict[tuple[int, int], str] = {}
    for dot in array.get("dots", []):
        _require(isinstance(dot, dict), "array.dots entries must be objects")
        pos = _pos(dot.get("pos"), "dot.pos")
        _require(0 <= pos[0] < width and 0 <= pos[1] < height,
                 f"dot {pos} outside the {width}x{height} array")
        role = dot.get("role", "empty")
        _require(role in ("qubit", "empty", "readout", "intermediary"),
                 f"unknown dot role {role!r}")
        t2 = dot.get("t2_override")
        _require(t2 is None or (_is_number(t2) and t2 > 0),
                 f"dot {pos}: t2_override must be a positive number")
        roles[pos] = role
    rep = array.get("representation", "vector")
    _require(rep in ("vector", "matrix"), f"unknown representation {rep!r}")

    def pos_in_grid(value, label):
        p = _pos(value, label)
        _require(0 <= p[0] < width and 0 <= p[1] < height,
                 f"{label} {p} outside the array")
        return p

    program = scenario.get("program", [])
    _require(isinstance(program, list), "program must be a list of events")
    for i, event in enumerate(program):
        _require(isinstance(event, dict), f"event {i} must be an object")
        op = event.get("op")
        _require(op in EVENT_OPS, f"event {i}: unknown op {op!r}")
        label = f"event {i} ({op})"
        if op == "init":
            pos_in_grid(event.get("pos"), f"{label} pos")
        elif op == "gate":
            kind = event.get("kind")
            _require(kind in GATE_KINDS_1Q + GATE_KINDS_2Q,
                     f"{label}: unknown gate kind {kind!r}")
            targets = event.get("targets")
            want = 1 if kind in GATE_KINDS_1Q else 2
            _require(isinstance(targets, list) and len(targets) == want,
                     f"{label}: {kind} takes {want} target(s)")
            for t in targets:
                pos_in_grid(t, f"{label} target")
            if kind == "Rot":
                axis = event.get("axis")
                _require(
                    isinstance(axis, list) and len(axis) == 3
                    and all(_is_number(v) for v in axis)
                    and any(v != 0 for v in axis),
                    f"{label}: Rot needs a nonzero [x, y, z] axis",
                )
                _require(_is_number(event.get("angle")),
                         f"{label}: Rot needs a numeric angle")
            if kind == "ExchangeEvolve":
                _require(_is_number(event.get("theta")),
                         f"{label}: ExchangeEvolve needs numeric theta")
        elif op == "coupling_window":
            pos_in_grid(event.get("a"), f"{label} a")
            pos_in_grid(event.get("b"), f"{label} b")
            theta = event.get("theta")
            _require(_is_number(theta) and theta >= 0,
                     f"{label}: theta must be a nonnegative number")
        elif op in ("move", "route"):
            pos_in_grid(event.get("src"), f"{label} src")
            pos_in_grid(event.get("dst"), f"{label} dst")
        elif op == "epr":
            pos_in_grid(event.get("a"), f"{label} a")
            pos_in_grid(event.get("b"), f"{label} b")
        elif op == "teleport":
            for key in ("payload", "a", "b"):
                pos_in_grid(event.get(key), f"{label} {key}")
        elif op == "qec_cycle":
            pos_in_grid(event.get("principal"), f"{label} principal")
            syndromes = event.get("syndromes")
            _require(isinstance(syndromes, list) and len(syndromes) == 4,
                     f"{label}: syndromes must list 4 positions")
            for s in syndromes:
                pos_in_grid(s, f"{label} syndrome")
            for err in event.get("inject", []):
                _require(
                    isinstance(err, list) and len(err) == 2
                    and err[0] in ("X", "Y", "Z")
                    and _is_int(err[1]) and 0 <= err[1] < 5,
                    f"{label}: inject entries are [pauli, block_position 0..4]",
                )
        elif op == "readout":
            pos_in_grid(event.get("qubit"), f"{label} qubit")
            pos_in_grid(event.get("readout"), f"{label} readout")
        elif op == "idle":
            t = event.get("t")
            _require(_is_number(t) and t >= 0,
                     f"{label}: t must be a nonnegative number")

    for i, request in enumerate(scenario.get("analytics", [])):
        _require(isinstance(request, dict), f"analytics entry {i} must be an object")
        kind = request.get("kind")
        _require(kind in ANALYTIC_KINDS, f"analytics entry {i}: unknown kind {kind!r}")


def _build_array(scenario: dict, material: MaterialParams, seed, strict: bool) -> DotArray:
    section = scenario["array"]
    roles = {
        _pos(d["pos"], "dot.pos"): d.get("role", "empty")
        for d in section.get("dots", [])
    }
    array = DotArray(
        section["width"],
        section["height"],
        material,
        roles=roles,
        representation=section.get("representation", "vector"),
        strict=strict,
        seed=seed,
    )
    for dot in section.get("dots", []):
        if dot.get("t2_override") is not None:
            array.dots[_pos(dot["pos"], "dot.pos")].t2_override = float(
                dot["t2_override"]
            )
    return array


def _execute_event(array: DotArray, event: dict, rng) -> dict:
    """Run one program event; returns {measurements, fidelity_checks}."""
    op = event["op"]
    result: dict = {"op": op, "measurements": None, "fidelity_checks": None}
    if op == "init":
        array.init_qubit(_pos(event["pos"], "pos"))
    elif op == "gate":
        array.apply_gate_at(
            event["kind"],
            [_pos(t, "target") for t in event["targets"]],
            axis=tuple(event["axis"]) if "axis" in event else None,
            angle=event.get("angle"),
            theta=event.get("theta"),
        )
    elif op == "coupling_window":
        array.coupling_window(
            _pos(event["a"], "a"), _pos(event["b"], "b"), float(event["theta"])
        )
    elif op == "move":
        array.move_electron(_pos(event["src"], "src"), _pos(event["dst"], "dst"))
    elif op == "route":
        path = channels.plan_tunnel_route(
            array, _pos(event["src"], "src"), _pos(event["dst"], "dst")
        )
        channels.run_tunnel_route(array, path)
        result["path"] = [list(p) for p in path]
    elif op == "epr":
        a, b = _pos(event["a"], "a"), _pos(event["b"], "b")
        channels.make_epr(array, a, b)
        rho = reduced_density(
            array.state, [array.qubit_index(a), array.qubit_index(b)]
        )
        bell = channels.BELL_PHI_PLUS
        result["fidelity_checks"] = {
            "bell_fidelity": float(np.real(bell.conj() @ rho @ bell))
        }
    elif op == "teleport":
        rep, _ = channels.teleport(
            array,
            _pos(event["payload"], "payload"),
            _pos(event["a"], "a"),
            _pos(event["b"], "b"),
            rng,
        )
        result["measurements"] = [rep["phase_bit"], rep["amplitude_bit"]]
        result["fidelity_checks"] = {"payload_fidelity": rep["payload_fidelity"]}
    elif op == "qec_cycle":
        principal = array.qubit_index(_pos(event["principal"], "principal"))
        syndromes = tuple(
            array.qubit_index(_pos(s, "syndrome")) for s in event["syndromes"]
        )
        lq = qec.LogicalQubit(principal, syndromes)
        before = array.state
        state = qec.encode5(array.state, lq)
        inject = [tuple(e) for e in event.get("inject", [])] or None
        state, rep = qec.qec_cycle(state, lq, inject, rng)
        state = qec.decode5(state, lq)
        array.state = state
        duration = rep["pulse_count"] * array.material.t_pulse
        array._advance(duration, "qec_cycle", **{"syndrome": rep["syndrome"]})
        result["measurements"] = rep["syndrome"]
        result["fidelity_checks"] = {
            "post_cycle_fidelity": state_fidelity(before, array.state),
            "possible_logical_error": rep["possible_logical_error"],
        }
        result["qec_report"] = rep
    elif op == "readout":
        bit, _ = array.readout(
            _pos(event["qubit"], "qubit"), _pos(event["readout"], "readout"), rng
        )
        result["measurements"] = [bit]
    elif op == "idle":
        array.idle(float(event["t"]))
    return result


def _run_analytics(requests: list[dict], material: MaterialParams) -> list[dict]:
    out = []
    for request in requests:
        kind = request["kind"]
        entry: dict = {"kind": kind}
        if kind == "resources":
            entry["drive"] = pulses.drive_report(
                material.g_factor,
                float(request.get("rabi_period", material.rabi_period)),
                material.gate_distance,
                float(request.get("load_ohms", 50.0)),
            ).to_dict()
            entry["exchange"] = pulses.exchange_estimate(
                material.J_on, material.U_charging,
                float(request.get("dE_in", 0.1e-3)),
            ).to_dict()
            entry["min_rabi_field_tesla"] = pulses.min_rabi_field(
                material.g_factor, material.noise.T2
            )
        elif kind == "lambda":
            entry["t_op_s"] = float(request.get("t_op", material.t_swap))
            entry["T2_s"] = float(request.get("T2", material.noise.T2))
            entry["lambda"] = channels.channel_lambda(entry["t_op_s"], entry["T2_s"])
        elif kind in ("swap_channel", "tunnel_channel"):
            is_swap = kind == "swap_channel"
            default_hop = material.t_swap if is_swap else material.t_hop
            t_hop = float(request.get("t_hop", default_hop))
            lam = channels.channel_lambda(t_hop, material.noise.T2)
            spec = channels.ChannelSpec(
                kind="swap" if is_swap else "tunnel",
                length_qubits=int(request.get("length_qubits", 10)),
                lam=float(request.get("lambda", lam)),
                t_hop=t_hop,
            )
            metric = (
                channels.swap_channel_metrics
                if is_swap
                else channels.tunnel_channel_metrics
            )
            entry["report"] = metric(spec, material).to_dict()
        elif kind == "max_distance":
            lam = float(request.get("lambda", 1e-6))
            entry["lambda"] = lam
            entry["distances"] = {
                str(thr): channels.max_channel_distance(lam, float(thr))
                for thr in request.get("thresholds", [1e-4, 1e-5])
            }
            entry["note"] = channels.MAX_DISTANCE_NOTE
        elif kind == "teleport_bandwidth":
            entry["report"] = channels.teleport_bandwidth(
                float(request.get("distance_m", 0.01)),
                material,
                int(request.get("rounds", 0)),
                float(request.get("fidelity_threshold", 1e-4)),
            )
        elif kind == "pulse_budget":
            entry["report"] = qec.pulse_budget(
                material, int(request.get("pulses_per_cycle", 500))
            ).to_dict()
        elif kind == "zeeman_ratio":
            g_small = float(request.get("g_small", 0.44))
            g_large = float(request.get("g_large", 15.0))
            entry["field_ratio"] = pulses.equal_splitting_field_ratio(g_small, g_large)
            entry["note"] = (
                "exact equal-splitting field ratio; commonly rounded to '30x'"
            )
        out.append(entry)
    return out


def run_scenario(
    scenario: dict,
    shots: int = 1,
    seed_override: int | None = None,
    strict: bool | None = None,
) -> dict:
    """Validate and execute a scenario; returns the full run report."""
    validate_scenario(scenario)
    if shots < 1:
        raise SchemaError(f"shots must be >= 1, got {shots}")
    seed = int(seed_override if seed_override is not None else scenario["seed"])
    strict_flag = bool(scenario.get("strict", False) if strict is None else strict)
    material = build_material(scenario.get("material", "inas"))
    program = scenario.get("program", [])

    event_log: list[dict] = []
    shot_records: list[str] = []
    counts: dict[str, int] = {}
    final_clock = 0.0
    total_energy = 0.0
    for shot in range(shots):
        array = _build_array(scenario, material, stream(seed, shot, 0xFFFF), strict_flag)
        bits: list[int] = []
        for index, event in enumerate(program):
            rng = stream(seed, shot, index)
            clock_before = array.clock
            result = _execute_event(array, event, rng)
            if result["measurements"]:
                bits.extend(result["measurements"])
            if shot == 0:
                entry = {
                    "index": index,
                    "event": event["op"],
                    "clock_before": clock_before,
                    "clock_after": array.clock,
                    "fidelity_checks": result["fidelity_checks"],
                    "measurements": result["measurements"],
                }
                for extra in ("path", "qec_report"):
                    if extra in result:
                        entry[extra] = result[extra]
                event_log.append(_jsonable(entry))
        record = "".join(str(b) for b in bits)
        shot_records.append(record)
        counts[record] = counts.get(record, 0) + 1
        if shot == 0:
            final_clock = array.clock
            total_energy = sum(e.get("energy", 0.0) for e in array.events)
    scenario_text = json.dumps(scenario, sort_keys=True)
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario_digest": digest(scenario_text),
        "seed": seed,
        "shots": shots,
        "strict": strict_flag,
        "material": _jsonable(dataclasses.asdict(material)),
        "events": event_log,
        "measurement_records": shot_records,
        "measurement_counts": dict(sorted(counts.items())),
        "final_clock_s": final_clock,
        "budgets": {
            "total_time_s": final_clock,
            "total_energy_j": total_energy,
            "event_count": len(program),
        },
        "analytics": _run_analytics(scenario.get("analytics", []), material),
    }
    return report


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def write_report(report: dict, out_dir: str | Path) -> tuple[Path, Path]:
    """Write report.json plus the standalone per-event log; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    events_path = out / "events.json"
    report_path.write_text(dumps_report(report))
    events_path.write_text(dumps_report(report["events"]))
    return report_path, events_path
