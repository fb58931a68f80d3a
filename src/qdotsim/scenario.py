"""Declarative scenario files and their deterministic runner.

A scenario is JSON: material (preset name or inline overrides), the array
layout, an ordered event program, a mandatory integer seed, and optional
analytics requests. Every event is statically validated before anything
executes; a malformed file produces no output at all.

Replaying the same scenario with the same seed yields byte-identical
reports: all randomness comes from per-(shot, event) split streams and all
numbers are serialized with fixed 17-significant-digit formatting.

outcome_tree walks every branch of a run instead of sampling one: a stand-in
stream forces each Born draw an op reports (a misread is one more) below and
then above its threshold p, weighting the branches by p and 1 - p. A run whose
noise draws (vector noise; matrix noise is exact and draws nothing) is
refused, as is one of more than TREE_LEAF_CAP leaves.
"""
from __future__ import annotations

import dataclasses
import heapq
import json
import sys
from collections import Counter
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import channels, pulses, qec
from .device import (REPRESENTATIONS, ROLES, DotArray, MaterialParams, NoiseParams,
                     inas_material, si_material)
from .errors import ProtocolError, QdotsimError, SchemaError, StateError
from .qstate import Gate, _is_number, draw_readout, state_fidelity
from .report import _Stream, digest, dumps_report, first_uniforms, stream

SCHEMA_VERSION = 1
_MATERIAL_FIELDS = frozenset(f.name for f in dataclasses.fields(MaterialParams)) - {"noise"}


def load_scenario(path_or_name: str) -> dict:
    """Read a UTF-8 scenario from disk, falling back to the bundled ones."""
    path = Path(path_or_name)
    if not path.exists():
        path = resources.files("qdotsim").joinpath("scenarios", path_or_name)
        if not path.is_file():
            raise SchemaError(f"scenario not found: {path_or_name}")
    try:
        scenario = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or bytes that are not UTF-8
        raise SchemaError(f"cannot read scenario {path_or_name}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int beyond Python's digit limit
        raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(scenario, dict):
        raise SchemaError("scenario must be a JSON object")
    return scenario


def _require(cond: bool, msg: str, *args) -> None:
    """Raise SchemaError(msg.format(*args)) unless cond: texts are built only on failure."""
    if not cond:
        raise SchemaError(msg.format(*args))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def build_material(spec) -> MaterialParams:
    """Resolve a material field: preset name, or dict of overrides on one.
    The CLI's --preset/--t2 resolve through here too."""
    if isinstance(spec, str):
        spec = {"preset": spec}
    _require(isinstance(spec, dict), "material must be a name or object, got {!r}", spec)
    spec = dict(spec)
    preset = spec.pop("preset", "inas")
    noise = spec.pop("noise", None)
    noise = {} if noise is None else noise
    _require(preset in ("inas", "si"), "unknown material preset {!r}", preset)
    _require(isinstance(noise, dict), "noise must be an object")
    _require(preset == "inas" or "T2" in noise,
             "the si preset requires an explicit T2 (noise.T2 or --t2)")
    _require(isinstance(noise.get("enabled", False), bool), "noise.enabled must be a boolean")
    unknown = set(spec) - _MATERIAL_FIELDS
    _require(not unknown, "unknown material fields: {}", sorted(unknown))
    try:
        base = inas_material() if preset == "inas" else si_material(float(noise["T2"]))
        t2 = float(noise.get("T2", base.noise.T2))
        noise_params = NoiseParams(T1=float(noise.get("T1", 2.0 * t2)), T2=t2,
                                   enabled=noise.get("enabled", False))
        if not spec and noise_params == base.noise:  # the shared preset itself
            return base
        return dataclasses.replace(base, noise=noise_params,
                                   **{k: float(v) for k, v in spec.items()})
    except (QdotsimError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad material parameters: {exc}") from exc


# -- the event ops ------------------------------------------------------------
#
# One _Op entry per op. Validation runs its check on the event and its index
# (which must make sure each `lists` field is a list of the right length),
# requires each `numbers` field to be a finite nonnegative number, and parses
# the position fields once per run; no op takes one dot twice, so an event's
# positions must be distinct.
# Each shot calls run(array, event, at, rng), `at` mapping a field to its
# position or list of positions. `rng` is a report._Stream: the event's lazy
# stream, or the shot walk's and outcome_tree's _Forced stand-in, so
# `rng.random(k)` is the only method an op may call. A dict returned by run
# holds the event's report fields; anything else (DotArray methods return the
# array) means none.
# A random op's dict also lists its Born draws for the shot walk and outcome_tree:
# `draws` holds one (column, p1, readout_error) per measured bit, in the order drawn
# by draw_readout from the doubles of `rng` starting at that column; no other draw
# of `rng` is compared. Library functions are looked up on their module at call time.


class _Op(NamedTuple):
    run: Callable[[DotArray, dict, dict, _Stream], object]
    points: tuple[str, ...] = ()
    lists: tuple[str, ...] = ()
    numbers: tuple[str, ...] = ()
    check: Callable[[dict, int], None] = lambda event, i: None


def _check_gate(event: dict, i: int) -> None:
    kind = event.get("kind")
    _require(kind in Gate.ONE_QUBIT + Gate.TWO_QUBIT, "event {} (gate): unknown gate kind {!r}",
             i, kind)
    targets = event.get("targets")
    want = 1 if kind in Gate.ONE_QUBIT else 2
    _require(isinstance(targets, list) and len(targets) == want,
             "event {} (gate): {} takes {} target(s)", i, kind, want)
    try:  # Gate checks the axis, angle and theta
        Gate(kind, tuple(range(want)), axis=event.get("axis"), angle=event.get("angle"),
             theta=event.get("theta"))
    except StateError as exc:
        raise SchemaError(f"event {i} (gate): {exc}") from exc


def _check_qec(event: dict, i: int) -> None:
    syndromes = event.get("syndromes")
    _require(isinstance(syndromes, list) and len(syndromes) == 4,
             "event {} (qec_cycle): syndromes must list 4 positions", i)
    inject = event.get("inject", [])
    _require(isinstance(inject, list), "event {} (qec_cycle): inject must be a list", i)
    for err in inject:
        _require(
            isinstance(err, list) and len(err) == 2 and err[0] in ("X", "Y", "Z")
            and _is_int(err[1]) and 0 <= err[1] < 5,
            "event {} (qec_cycle): inject entries are [pauli, block_position 0..4]", i,
        )


def _gate(array: DotArray, event: dict, at: dict, rng) -> DotArray:
    return array.apply_gate_at(event["kind"], at["targets"], axis=event.get("axis"),
                               angle=event.get("angle"), theta=event.get("theta"))


def _route(array: DotArray, event: dict, at: dict, rng) -> dict:
    return {"path": [list(p) for p in channels.run_tunnel_route(array, at["src"], at["dst"])]}


def _epr(array: DotArray, event: dict, at: dict, rng) -> dict:
    channels.make_epr(array, at["a"], at["b"])
    return {"fidelity_checks": {
        "bell_fidelity": channels.epr_pair_fidelity(array, at["a"], at["b"])}}


def _teleport(array: DotArray, event: dict, at: dict, rng) -> dict:
    rep, _ = channels.teleport(array, at["payload"], at["a"], at["b"], rng)
    return {"measurements": [rep["phase_bit"], rep["amplitude_bit"]],
            "draws": [(k, p1, 0.0) for k, p1 in enumerate(rep["p1"])],
            "fidelity_checks": {"payload_fidelity": rep["payload_fidelity"]}}


def _qec_cycle(array: DotArray, event: dict, at: dict, rng) -> dict:
    block = [array.qubit_index(p) for p in (at["principal"], *at["syndromes"])]
    before = array.state
    array.state, rep, p1s = qec.qec_cycle(before, block, event.get("inject", []), rng)
    array.advance(rep["pulse_count"] * array.material.t_pulse)
    return {
        "measurements": rep["syndrome"],
        "draws": [(k, p1, 0.0) for k, p1 in enumerate(p1s)],
        "fidelity_checks": {
            "post_cycle_fidelity": state_fidelity(before, array.state),
            "possible_logical_error": rep["possible_logical_error"],
        },
        "qec_report": rep,
    }


def _readout(array: DotArray, event: dict, at: dict, rng) -> dict:
    bit, p1 = array.readout(at["qubit"], at["readout"], rng)
    return {"measurements": [bit], "draws": [(0, p1, array.material.readout_error)]}


_OPS: dict[str, _Op] = {
    "init": _Op(lambda array, event, at, rng: array.init_qubit(at["pos"]), ("pos",)),
    "gate": _Op(_gate, lists=("targets",), check=_check_gate),
    "coupling_window": _Op(  # an ExchangeEvolve gate addressed by "a" and "b"
        lambda array, event, at, rng: array.apply_gate_at(
            "ExchangeEvolve", [at["a"], at["b"]], theta=float(event["theta"])),
        ("a", "b"), numbers=("theta",)),
    "move": _Op(lambda array, event, at, rng: array.move_electron(at["src"], at["dst"]),
                ("src", "dst")),
    "route": _Op(_route, ("src", "dst")),
    "epr": _Op(_epr, ("a", "b")),
    "teleport": _Op(_teleport, ("payload", "a", "b")),
    "qec_cycle": _Op(_qec_cycle, ("principal",), ("syndromes",), check=_check_qec),
    "readout": _Op(_readout, ("qubit", "readout")),
    "idle": _Op(lambda array, event, at, rng: array.advance(float(event["t"])),
                numbers=("t",)),
}


# -- the analytics kinds ------------------------------------------------------
#
# Each kind maps to the request fields it reads and one function (request,
# material) -> report fields; `qdotsim resources` and `qdotsim channel` run
# their options as requests too. check_analytics refuses any other field but
# `kind`; each is a number no larger than a float holds, `thresholds` a list of
# them and the _COUNTS fields integers.


def _resources(request: dict, material: MaterialParams) -> dict:
    """Drive, exchange and minimum-drive figures of a material."""
    return {
        "drive": pulses.drive_report(
            material.g_factor, float(request.get("rabi_period", material.rabi_period)),
            material.gate_distance, float(request.get("load_ohms", 50.0))),
        "exchange": pulses.exchange_estimate(material.J_on, material.U_charging,
                                             float(request.get("dE_in", 0.1e-3))),
        "min_rabi_field_tesla": pulses.min_rabi_field(material.g_factor, material.noise.T2),
    }


def _lambda(request: dict, material: MaterialParams) -> dict:
    t_op = float(request.get("t_op", material.t_swap))
    T2 = float(request.get("T2", material.noise.T2))
    return {"t_op_s": t_op, "T2_s": T2, "lambda": channels.channel_lambda(t_op, T2)}


def _line(kind: str, request: dict, material: MaterialParams) -> dict:
    return {"report": channels.line_report(
        kind, material, request.get("length_qubits", 10), t_hop=request.get("t_hop"),
        lam=request.get("lambda"),
        fidelity_threshold=request.get("fidelity_threshold", channels.FIDELITY_THRESHOLD_DEFAULT),
    )}


def _max_distance(request: dict, material: MaterialParams) -> dict:
    lam = float(request.get("lambda", 1e-6))
    return {
        "lambda": lam,
        "distances": {str(thr): channels.max_channel_distance(lam, float(thr))
                      for thr in request.get("thresholds",
                                             [channels.FIDELITY_THRESHOLD_DEFAULT, 1e-5])},
        "note": channels.MAX_DISTANCE_NOTE,
    }


def _teleport_bandwidth(request: dict, material: MaterialParams) -> dict:
    length = request.get("length_qubits")  # run_analytics refuses it next to distance_m
    distance = request.get("distance_m", 0.01) if length is None else length * material.dot_pitch
    return {"report": channels.teleport_bandwidth(
        float(distance), material, request.get("rounds", 0),
        request.get("fidelity_threshold", channels.FIDELITY_THRESHOLD_DEFAULT))}


_LINE = ("length_qubits", "t_hop", "lambda", "fidelity_threshold")
_ANALYTICS: dict[str, tuple[tuple[str, ...], Callable[[dict, MaterialParams], dict]]] = {
    "resources": (("rabi_period", "load_ohms", "dE_in"), _resources),
    "lambda": (("t_op", "T2"), _lambda),
    "swap_channel": (_LINE, partial(_line, "swap")),
    "tunnel_channel": (_LINE, partial(_line, "tunnel")),
    "max_distance": (("lambda", "thresholds"), _max_distance),
    "teleport_bandwidth": (("distance_m", "length_qubits", "rounds", "fidelity_threshold"),
                           _teleport_bandwidth),
    "pulse_budget": (("pulses_per_cycle",), lambda request, material: {"report": qec.pulse_budget(
        material, request.get("pulses_per_cycle", 500))}),
    "zeeman_ratio": (("g_small", "g_large"), lambda request, material: {
        "field_ratio": pulses.equal_splitting_field_ratio(
            float(request.get("g_small", 0.44)), float(request.get("g_large", 15.0))),
        "note": "exact equal-splitting field ratio; commonly rounded to '30x'",
    }),
}
_COUNTS = ("length_qubits", "rounds", "pulses_per_cycle")


def check_analytics(request: dict, label: str, name: Callable[[str], str] = str) -> None:
    """Refuse a field the request's kind does not read, or a bad value of one;
    `label` names the request in the message and name(field) the field."""
    fields = _ANALYTICS[request["kind"]][0]
    for key, value in request.items():
        values = value if key == "thresholds" else [value]
        _require(key == "kind" or key in fields, "{}: unknown field {!r}", label, name(key))
        _require(key == "kind" or isinstance(values, list) and all(
            (_is_int if key in _COUNTS else _is_number)(v) and abs(v) <= sys.float_info.max
            for v in values), "{}: bad {} {!r}", label, name(key), value)


def run_analytics(request: dict, material: MaterialParams, label: str,
                  name: Callable[[str], str] = str) -> dict:
    """The report fields of a checked request. A StateError or ProtocolError becomes a
    SchemaError under `label`, as does a teleport_bandwidth over both a distance and a length."""
    _require(not {"distance_m", "length_qubits"} <= request.keys(),
             "{} takes {} or {}, not both", label, name("distance_m"), name("length_qubits"))
    try:
        return _ANALYTICS[request["kind"]][1](request, material)
    except (StateError, ProtocolError) as exc:
        raise SchemaError(f"{label}: {exc}") from exc


def validate_scenario(scenario: dict) -> tuple[MaterialParams, dict, dict, list, str]:
    """Full static validation; raises SchemaError before any execution.
    Returns what it parsed: the material, the dot roles, the T2 overrides,
    one (op spec, event, positions) step per program event, and the
    scenario's canonical JSON text, which the report digests."""
    _require(scenario.get("schema_version") == SCHEMA_VERSION,
             "schema_version must be {}", SCHEMA_VERSION)
    _require(_is_int(scenario.get("seed")) and scenario["seed"] >= 0,
             "seed is mandatory and must be a non-negative integer (no wall-clock entropy)")
    try:
        text = json.dumps(scenario, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        try:  # the text that allows inf and nan tells them from what JSON cannot hold
            json.dumps(scenario, sort_keys=True)
        except (TypeError, ValueError) as inner:
            raise SchemaError(f"scenario is not JSON data: {inner}") from inner
        raise SchemaError("scenario holds a non-finite number (inf or nan)") from exc
    _require(isinstance(scenario.get("strict", False), bool), "strict must be true or false")
    _require(isinstance(scenario.get("output", ""), str), "output must be a directory name")
    material = build_material(scenario.get("material", "inas"))
    array = scenario.get("array")
    _require(isinstance(array, dict), "array section is mandatory")
    width, height = array.get("width"), array.get("height")
    _require(_is_int(width) and _is_int(height)
             and width >= 1 and height >= 1,
             "array.width and array.height must be positive integers")

    def pos_in_grid(value, label: str, *args) -> tuple[int, int]:
        """value as an (x, y) on the grid; label.format(*args) names it in a message."""
        if not (isinstance(value, (list, tuple)) and len(value) == 2
                and _is_int(value[0]) and _is_int(value[1])):
            raise SchemaError(f"{label.format(*args)} must be an [x, y] pair of integers, "
                              f"got {value!r}")
        p = int(value[0]), int(value[1])
        if not (0 <= p[0] < width and 0 <= p[1] < height):
            raise SchemaError(f"{label.format(*args)} {p} outside the {width}x{height} array")
        return p

    dots = array.get("dots", [])
    _require(isinstance(dots, list), "array.dots must be a list")
    roles, t2_overrides = {}, {}
    for dot in dots:
        _require(isinstance(dot, dict), "array.dots entries must be objects")
        pos = pos_in_grid(dot.get("pos"), "dot.pos")
        _require(pos not in roles, "dot {} is listed twice", pos)
        roles[pos] = dot.get("role", "empty")
        _require(roles[pos] in ROLES, "unknown dot role {!r}", roles[pos])
        t2 = dot.get("t2_override")
        _require(t2 is None or (_is_number(t2) and t2 > 0),
                 "dot {}: t2_override must be a positive number", pos)
        if t2 is not None:
            t2_overrides[pos] = float(t2)
            try:
                NoiseParams(T1=material.noise.T1, T2=t2_overrides[pos],
                            enabled=material.noise.enabled)
            except StateError as exc:
                raise SchemaError(f"dot {pos}: t2_override: {exc}") from exc
    rep = array.get("representation", "vector")
    _require(rep in REPRESENTATIONS, "unknown representation {!r}", rep)

    program = scenario.get("program", [])
    _require(isinstance(program, list), "program must be a list of events")
    steps = []
    for i, event in enumerate(program):
        _require(isinstance(event, dict), "event {} must be an object", i)
        op = event.get("op")
        _require(isinstance(op, str) and op in _OPS, "event {}: unknown op {!r}", i, op)
        spec = _OPS[op]
        spec.check(event, i)
        _require(op != "route" or (width + 2) * (height + 2) <= channels.ROUTE_CELL_CAP,
                 "event {} ({}): a {}x{} array exceeds the {} padded cells (width+2)*(height+2)"
                 " route planning may use", i, op, width, height, channels.ROUTE_CELL_CAP)
        for key in spec.numbers:
            value = event.get(key)
            _require(_is_number(value) and value >= 0,
                     "event {} ({}): {} must be a nonnegative number", i, op, key)
            _require(value <= sys.float_info.max, "event {} ({}): {} must be finite", i, op, key)
        at = {key: pos_in_grid(event.get(key), "event {} ({}) {}", i, op, key)
              for key in spec.points}
        for key in spec.lists:
            at[key] = [pos_in_grid(p, "event {} ({}) {}", i, op, key) for p in event[key]]
        named = [at[key] for key in spec.points] + [p for key in spec.lists for p in at[key]]
        _require(len(set(named)) == len(named),
                 "event {} ({}): positions must be distinct, got {}", i, op, named)
        steps.append((spec, event, at))

    analytics = scenario.get("analytics", [])
    _require(isinstance(analytics, list), "analytics must be a list")
    for i, request in enumerate(analytics):
        _require(isinstance(request, dict), "analytics entry {} must be an object", i)
        kind = request.get("kind")
        _require(isinstance(kind, str) and kind in _ANALYTICS,
                 "analytics entry {}: unknown kind {!r}", i, kind)
        check_analytics(request, f"analytics entry {i} ({kind})")
    return material, roles, t2_overrides, steps, text


def run_scenario(
    scenario: dict,
    shots: int = 1,
    seed_override: int | None = None,
    strict: bool | None = None,
) -> dict:
    """Validate and execute a scenario; returns the full run report."""
    material, roles, t2_overrides, steps, text = validate_scenario(scenario)
    if not 1 <= shots <= 2**32:  # first_uniforms takes shot ids below 2**32
        raise SchemaError(f"shots must be in [1, 2**32], got {shots}")
    if seed_override is not None and seed_override < 0:
        raise SchemaError(f"seed must be >= 0, got {seed_override}")
    seed = int(seed_override if seed_override is not None else scenario["seed"])
    strict_flag = bool(scenario.get("strict", False) if strict is None else strict)
    analytics = [{"kind": request["kind"], **run_analytics(
        request, material, f"analytics entry {i} ({request['kind']})")}
        for i, request in enumerate(scenario.get("analytics", []))]

    def batch(ids, index, rows, width):  # the first uniforms at an event, one row per shot
        return rows if rows is not None and rows.shape[1] >= width else np.concatenate([
            first_uniforms(seed, ids[first:first + _SHOT_CHUNK], index, width)
            for first in range(0, len(ids), _SHOT_CHUNK)])

    # Shots differ only in their streams. A group of shots shares an array that has never
    # drawn; its lowest shot runs each event on a twin while others still need the array as
    # it was, reading its row of the uniforms `batch` gives the group (a group of one keeps
    # its lazy stream). Shots whose rows give the same true outcomes under the event's draws
    # follow it with their own reported bits; the rest stay at the event with their rows, as
    # does every other shot if the array's stream drew or the event's own did without
    # reporting draws. Groups run lowest shot first: shot 0 logs, the lowest failing one raises.
    array = _new_array(scenario, material, roles, t2_overrides, strict_flag, seed)
    event_log: list[dict] = []
    records = np.empty(shots, object)
    # (lowest shot, next event, array, shots, their bits, their uniforms at that event);
    # bits are one str all the shots share, or an object array of one str per shot
    groups = [(0, 0, array, np.arange(shots), "", None)]
    while groups:  # a group runs to the end; shots that part from it wait on the heap
        rep, start, array, ids, bits, uniforms = heapq.heappop(groups)
        for index in range(start, len(steps)):
            spec, event, at = steps[index]
            work, clock_before = _twin(array) if len(ids) > 1 else array, array.clock
            rng = (_Forced(partial(batch, ids, index, uniforms))
                   if len(ids) > 1 or uniforms is not None else stream(seed, rep, index))
            result = _run_event(index, spec, event, at, work, rng)
            measurements, draws = result.get("measurements"), result.get("draws", ())
            if rep == 0:
                event_log.append({
                    "index": index, "event": event["op"], "clock_before": clock_before,
                    "clock_after": work.clock, "measurements": measurements,
                    "fidelity_checks": result.get("fidelity_checks"),
                    **{extra: result[extra] for extra in ("path", "qec_report")
                       if extra in result}})
            new, rest = "".join(map(str, measurements or ())), None
            if len(ids) > 1 and (work._rng.built or rng.built and "draws" not in result):
                keep, rest = slice(1), slice(1, None)
            elif len(ids) > 1 and any(0 < p1 < 1 or error > 0 for _, p1, error in draws):
                true, shown = np.empty((2, len(ids), len(draws)), bool)
                for k, (column, p1, error) in enumerate(draws):  # the lowest shot drew these
                    true[:, k], shown[:, k] = draw_readout(
                        p1, error, lambda n: rng.block[:, column:column + n])
                keep = (true == true[0]).all(axis=1)
                rest = None if keep.all() else ~keep
                if any(error > 0 for _, _, error in draws):
                    new = np.where(shown[keep], "1", "0").astype(object).sum(axis=1)
            if rest is not None:  # a group's array holds its lowest shot's stream
                others = ids[rest]
                array._rng = stream(seed, int(others[0]), 0xFFFF)
                heapq.heappush(groups, (int(others[0]), index, array, others,
                                        bits if isinstance(bits, str) else bits[rest],
                                        rng.block[rest] if rng.built else None))
                ids, bits = ids[keep], bits if isinstance(bits, str) else bits[keep]
            array, bits, uniforms = work, bits + new, None
        records[ids] = bits
        if rep == 0:  # shot 0's group is popped first and runs to the end
            final = array
    shot_records = records.tolist()
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_digest": digest(text),
        "seed": seed,
        "shots": shots,
        "strict": strict_flag,
        # a frozen dataclass instance holds just its fields
        "material": {**vars(material), "noise": {**vars(material.noise)}},
        "events": event_log,
        "measurement_records": shot_records,
        "measurement_counts": dict(sorted(Counter(shot_records).items())),
        "final_clock_s": final.clock,
        "budgets": {"total_time_s": final.clock, "total_energy_j": final.energy,
                    "event_count": len(steps)},
        "analytics": analytics,
    }


_SHOT_CHUNK = 4096  # shots per first_uniforms call, so its arrays stay small at any count
TREE_LEAF_CAP = 2**12  # leaves outcome_tree enumerates before it refuses a run


def _new_array(scenario: dict, material, roles, t2_overrides, strict: bool, seed: int) -> DotArray:
    """The fresh array a run starts from, its noise drawn from stream (seed, 0, 0xFFFF)."""
    section = scenario["array"]
    return DotArray(section["width"], section["height"], material, roles=roles,
                    representation=section.get("representation", "vector"), strict=strict,
                    seed=stream(seed, 0, 0xFFFF), t2_overrides=t2_overrides)


def _twin(array: DotArray) -> DotArray:
    """A copy to run events on: they replace the register, never write it."""
    work = object.__new__(type(array))
    work.__dict__.update(array.__dict__, qubit_positions=list(array.qubit_positions))
    return work


def _run_event(index: int, spec: _Op, event: dict, at: dict, work: DotArray, rng) -> dict:
    """Run one program step on `work`: its report fields, or a QdotsimError naming the event."""
    try:
        result = spec.run(work, event, at, rng)
    except QdotsimError as exc:
        raise type(exc)(f"event {index} ({event['op']}): {exc}") from exc
    return result if isinstance(result, dict) else {}


class _Forced(_Stream):
    """A stand-in for an event's stream: `random(k)`, its only method, reads row 0 of `block`,
    which its key builds for the width drawn so far (the walk's one row per shot of the group;
    outcome_tree's forced doubles, any other 0.5, a Born draw's likelier outcome)."""

    def random(self, k: int) -> np.ndarray:
        start, self._rng = self._rng or 0, (self._rng or 0) + k
        if not start or self.block.shape[1] < self._rng:
            self.block = self._key(self._rng)
        return self.block[0, start:self._rng]


def outcome_tree(scenario: dict) -> list[dict]:
    """Every branch of a run's Born draws, walked through the same ops as
    run_scenario: one {"bits", "probability", "fidelity_checks"} per leaf,
    depth first and outcome 0 first, the checks listing each event's or None."""
    material, roles, t2_overrides, steps, _ = validate_scenario(scenario)
    array = _new_array(scenario, material, roles, t2_overrides,
                       scenario.get("strict", False), scenario["seed"])
    leaves, stack = [], [(0, 1.0, array, "", [], {})]
    while stack:
        index, weight, array, bits, checks, forced = stack.pop()
        if index == len(steps):
            leaves.append({"bits": bits, "probability": weight, "fidelity_checks": checks})
            continue
        (spec, event, at), work = steps[index], _twin(array)
        rng = _Forced(lambda w, forced=forced: np.array([[forced.get(c, 0.5) for c in range(w)]]))
        result = _run_event(index, spec, event, at, work, rng)
        _require(not (work._rng.built or rng.built and "draws" not in result),
                 "event {} ({}): draws besides its reported Born draws (vector noise), "
                 "so its outcomes cannot be enumerated", index, event["op"])
        undecided = [(c, p) for column, p1, error in result.get("draws", ())
                     for c, p in ((column, p1), (column + 1, error))  # a misread: one more draw
                     if c not in forced and 0 < p < 1]
        if not undecided:
            bits += "".join(map(str, result.get("measurements") or ()))
            checks = checks + [result.get("fidelity_checks")]
            stack.append((index + 1, weight, work, bits, checks, {}))
            continue
        column, p = undecided[0]  # 0.0 is below p, the largest double below 1 is not
        stack += [(index, weight * w, array, bits, checks, {**forced, column: u})
                  for u, w in ((0.0, p), (1 - 2**-53, 1 - p)) if w > 1e-12]  # _collapse's floor
        _require(len(leaves) + len(stack) <= TREE_LEAF_CAP,  # each entry ends in a leaf
                 "event {} ({}): over {} outcome branches", index, event["op"], TREE_LEAF_CAP)
    return leaves


def write_report(report: dict, out_dir: str | Path) -> tuple[Path, Path]:
    """Write report.json plus the standalone per-event log; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    events_path = out / "events.json"
    report_path.write_text(dumps_report(report))
    events_path.write_text(dumps_report(report["events"]))
    return report_path, events_path
