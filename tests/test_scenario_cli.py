"""Scenario files, the deterministic runner, and the CLI surface."""
import copy
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_shots_eagerly
from qdotsim import channels, cli
from qdotsim import scenario as scenario_mod
from qdotsim.channels import line_report
from qdotsim.device import DotArray
from qdotsim.errors import BlockadeError, ProtocolError, QdotsimError, SchemaError
from qdotsim.pulses import drive_report
from qdotsim.report import (canonical_json, digest, dumps_report, first_uniforms,
                            format_float, stream)
from qdotsim.scenario import (
    build_material,
    load_scenario,
    run_scenario,
    validate_scenario,
    write_report,
)

BELL = load_scenario("bell.scenario")
PAPER_NUMBERS = load_scenario("paper_numbers.scenario")
TELEPORT = load_scenario("teleport.scenario")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "qdotsim.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def test_float_formatting_17_digits():
    assert format_float(1e-6) == "9.9999999999999995e-07"
    assert float(format_float(0.1)) == 0.1
    assert format_float(1.0) == "1"
    with pytest.raises(ValueError):
        format_float(float("nan"))


def test_canonical_json_sorted_and_stable():
    payload = {"b": [1.5, {"z": True, "a": None}], "a": "text"}
    first = canonical_json(payload)
    second = canonical_json(json.loads(json.dumps(payload)))
    assert first == second
    assert first.index('"a"') < first.index('"b"')


def test_canonical_json_round_trips_through_json():
    payload = {"x": 0.1 + 0.2, "y": [1e-300, 12345678901234567.0]}
    parsed = json.loads(canonical_json(payload))
    assert parsed["x"] == 0.1 + 0.2
    assert parsed["y"] == [1e-300, 12345678901234567.0]


@given(st.recursive(
    st.one_of(st.integers(), st.text(), st.booleans(), st.none(),
              st.lists(st.lists(st.integers(), max_size=3), max_size=4)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20))
def test_canonical_json_renders_lists_of_str_and_int_as_json_does(payload):
    # lists of only str, only int or only flat int lists take the one-comprehension path
    assert canonical_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_stream_splitting_is_stable_and_independent():
    a1 = stream(7, 0, 3).random(4)
    a2 = stream(7, 0, 3).random(4)
    b = stream(7, 0, 4).random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


@given(seed=st.integers(0, 2**200 - 1), index=st.integers(0, 2**40 - 1),
       shots=st.lists(st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
                      max_size=5),
       k=st.integers(1, 3))
@example(seed=2**32 + 5, index=3, shots=[], k=2)
@settings(max_examples=150, deadline=None)
def test_first_uniforms_are_default_rng_bit_for_bit(seed, index, shots, k):
    got = first_uniforms(seed, np.array(shots, dtype=np.int64), index, k)
    want = [np.random.default_rng([seed, shot, index]).random(k) for shot in shots]
    assert got.shape == (len(shots), k)
    assert got.tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# scenario loading and validation
# ---------------------------------------------------------------------------

def test_bundled_scenarios_load_and_validate():
    for scenario in (BELL, PAPER_NUMBERS, TELEPORT):
        validate_scenario(scenario)


def test_missing_scenario_is_schema_error():
    with pytest.raises(SchemaError):
        load_scenario("no_such_file.scenario")


def test_invalid_json_is_schema_error(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_scenario(str(bad))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.pop("seed"),
        lambda s: s.update(schema_version=99),
        lambda s: s["program"].append({"op": "fly", "pos": [0, 0]}),
        lambda s: s["program"].append({"op": "init", "pos": [9, 9]}),
        lambda s: s["program"].append({"op": "idle", "t": -1.0}),
        lambda s: s["program"].append(
            {"op": "gate", "kind": "Rot", "targets": [[0, 0]],
             "axis": [0, 0, 0], "angle": 1.0}
        ),
        lambda s: s["program"].append(
            {"op": "gate", "kind": "Rot", "targets": [[0, 0]],
             "axis": [1, 0], "angle": 1.0}
        ),
        lambda s: s["array"].pop("width"),
        lambda s: s.update(material="unobtainium"),
        lambda s: s["program"].append(
            {"op": "qec_cycle", "principal": [0, 0],
             "syndromes": [[1, 0], [0, 1], [1, 1], [1, 0]], "inject": 5}
        ),
        lambda s: s["array"].update(dots=5),
        lambda s: s.update(analytics=5),
        lambda s: s.update(analytics=[{"kind": "lambda", "t_op": "abc"}]),
        lambda s: s.update(analytics=[{"kind": "max_distance", "thresholds": 5}]),
        lambda s: s["program"].append(
            {"op": "gate", "kind": "X", "targets": [[0, 0]], "axis": 5}
        ),
        lambda s: s.update(material={"preset": "si", "noise": 5}),
        lambda s: s.update(material={"noise": {"T2": "x"}}),
        lambda s: s.update(material={"noise": {"T1": 1e-4, "T2": 3e-4}}),
        lambda s: s.update(strict="yes"),
        lambda s: s.update(analytics=[{"kind": "swap_channel", "length_qubits": 2.5}]),
        lambda s: s.update(analytics=[{"kind": "teleport_bandwidth", "rounds": 1.7}]),
        lambda s: s["array"]["dots"][0].update(t2_override=5e-4),  # > 2*T1 of inas
        lambda s: s["array"]["dots"].append({"pos": [0, 1], "role": "empty"}),
        lambda s: s["program"].append(
            {"op": "gate", "kind": "CNOT", "targets": [[0, 0], [0, 0]]}
        ),
        lambda s: s["program"].append(
            {"op": "qec_cycle", "principal": [0, 0],
             "syndromes": [[0, 0], [1, 0], [0, 1], [1, 1]]}
        ),
        lambda s: s["program"].append(
            {"op": "teleport", "payload": [0, 0], "a": [0, 0], "b": [1, 0]}
        ),
        lambda s: s["program"].append({"op": "epr", "a": [0, 0], "b": [0, 0]}),
        lambda s: s["program"].append(
            {"op": "gate", "kind": "ExchangeEvolve", "targets": [[0, 0], [1, 0]],
             "theta": -1.0}
        ),
    ],
)
def test_validation_rejects_bad_scenarios(mutate):
    scenario = copy.deepcopy(BELL)
    mutate(scenario)
    with pytest.raises(SchemaError):
        validate_scenario(scenario)


def test_material_overrides():
    material = build_material({"preset": "inas", "J_on": 1e-5})
    assert material.J_on == pytest.approx(1e-5)
    with pytest.raises(SchemaError):
        build_material({"preset": "si"})  # si needs an explicit T2
    si = build_material({"preset": "si", "noise": {"T2": 1.0}})
    assert si.g_factor == 2.0


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def test_bell_outcomes_fully_correlated():
    report = run_scenario(BELL, shots=400)
    counts = report["measurement_counts"]
    assert set(counts) <= {"00", "11"}
    assert sum(counts.values()) == 400


def test_bell_ten_thousand_shots_statistics():
    report = run_scenario(BELL, shots=10_000)
    counts = report["measurement_counts"]
    total = sum(counts.values())
    correlated = counts.get("00", 0) + counts.get("11", 0)
    assert correlated / total == 1.0  # Z-correlation of the Bell pair
    # the two correlated outcomes split evenly within 3 sigma
    sigma = math.sqrt(0.25 / total)
    assert abs(counts.get("00", 0) / total - 0.5) < 3 * sigma


def test_bell_event_log_structure():
    report = run_scenario(BELL, shots=1)
    events = report["events"]
    assert [e["event"] for e in events] == ["init", "init", "epr",
                                            "readout", "readout"]
    epr_checks = [e["fidelity_checks"] for e in events if e["fidelity_checks"]]
    assert epr_checks and epr_checks[0]["bell_fidelity"] > 1 - 1e-12
    assert all(e["clock_after"] >= e["clock_before"] for e in events)
    assert all(
        a["clock_before"] == b["clock_after"]
        for a, b in zip(events[1:], events)
    )


def test_replay_is_byte_identical(tmp_path):
    r1 = run_scenario(BELL, shots=64)
    r2 = run_scenario(BELL, shots=64)
    assert dumps_report(r1) == dumps_report(r2)
    p1, _ = write_report(r1, tmp_path / "a")
    p2, _ = write_report(r2, tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()


def test_seed_changes_sampling():
    r1 = run_scenario(BELL, shots=64, seed_override=1)
    r2 = run_scenario(BELL, shots=64, seed_override=2)
    assert r1["measurement_records"] != r2["measurement_records"]


def test_teleport_scenario_reports_fidelity():
    report = run_scenario(TELEPORT, shots=8)
    teleport_events = [e for e in report["events"] if e["event"] == "teleport"]
    assert teleport_events
    fid = teleport_events[0]["fidelity_checks"]["payload_fidelity"]
    assert fid > 1 - 1e-9
    assert len(teleport_events[0]["measurements"]) == 2


def test_paper_numbers_analytics_values():
    report = run_scenario(PAPER_NUMBERS)
    by_kind = {}
    for entry in report["analytics"]:
        by_kind.setdefault(entry["kind"], []).append(entry)
    drive = by_kind["resources"][0]["drive"]
    assert drive["b_ac_tesla"] == pytest.approx(71e-6, rel=0.01)
    assert drive["i_ac_ampere"] == pytest.approx(36e-6, rel=0.02)
    assert drive["v_ac_volt"] == pytest.approx(1.8e-3, rel=0.02)
    assert drive["power_watt"] == pytest.approx(46e-9, rel=0.03)
    assert by_kind["lambda"][0]["lambda"] == 1e-6
    headline = by_kind["swap_channel"][0]["report"]
    assert headline["latency_s"] == pytest.approx(1e-9, rel=1e-9)
    assert headline["true_bandwidth_bits_per_s"] == pytest.approx(9.9999e8, rel=1e-6)
    distances = by_kind["max_distance"][0]["distances"]
    assert distances["0.0001"] == pytest.approx(100.0, rel=1e-3)
    assert distances["1e-05"] == pytest.approx(10.0, rel=1e-3)
    assert by_kind["pulse_budget"][0]["report"]["cycles_in_T2"] == 10_000
    assert by_kind["zeeman_ratio"][0]["field_ratio"] == pytest.approx(34.09, rel=1e-3)


def test_channel_and_analytics_bytes_are_pinned(capsys):
    # sha256 of the canonical bytes, recorded before the channel layer became
    # one function (and the CLI ones before the drive, exchange and budget
    # figures became plain dicts); any change to a figure, key, note or digit
    # shows here
    material = build_material("inas")
    pins = {
        "swap": "0c84aa8adee30f330183eda9fe7a12974f953269ee3a29adf7f0f6d21170afbf",
        "tunnel": "9458c5667abea83fbbe07eec12177288391c6696498f4464f383f3a05afd0041",
    }
    for kind, pin in pins.items():
        assert digest(dumps_report(line_report(kind, material, 10))) == pin
    analytics = run_scenario(PAPER_NUMBERS)["analytics"]
    assert digest(dumps_report(analytics)) == (
        "fc26dfb5563b5284594c34f98fece41155aaa02deeebc186d41397e0219d947a")
    commands = {
        ("resources",):
            "348490d9e94510d6e3047fb4133323d23ec98c199bce83fca4d16388863d0467",
        ("resources", "--preset", "si", "--t2", "1e-3"):
            "a6f549672ed426e4abf4645e882f1783d9f4b043579ddab9848ff77b7fb5dd29",
        ("qec", "--cycles", "50", "--p", "1e-2", "--seed", "3"):
            "44107d36496f1ed969089fa8fb19308dadbc368bcf018f2d7ea4ee1e9422040d",
        # these three recorded before the memory experiment looked rounds up
        # by net Pauli class; p = 0.05 puts ~25 Paulis in a round
        ("qec", "--cycles", "200", "--p", "1e-3", "--seed", "3"):
            "c9f4c40ba535f036d656d278d2c957ec719652ed63137d02cb4039b8e45558dc",
        ("qec", "--cycles", "200", "--p", "0.01", "--seed", "11"):
            "4a069046bf7e583e5ba7bd3957ebb313de114d1c6e6fe5a7818df8f7c1ad68fb",
        ("qec", "--cycles", "200", "--p", "0.05", "--seed", "5"):
            "cf94884b0aeca3a1f8b4818390709253ce5956dca56f06407ef7d345824b1a5a",
    }
    for argv, pin in commands.items():
        assert cli.main(list(argv)) == 0
        assert digest(capsys.readouterr().out) == pin


# a strict, noisy 4x3 run through every device event: clock, energy, idle
# noise (one dot with its own T2) and residual exchange all reach the report
STRICT_NOISY = {
    "schema_version": 1,
    "seed": 1234,
    "strict": True,
    "material": {"preset": "inas", "noise": {"enabled": True, "T1": 2e-6, "T2": 1e-6}},
    "array": {"width": 4, "height": 3, "dots": [
        {"pos": [0, 2], "role": "readout"},
        {"pos": [1, 0], "role": "qubit", "t2_override": 3e-7}]},
    "program": [
        {"op": "init", "pos": [0, 0]},
        {"op": "init", "pos": [1, 0]},
        {"op": "init", "pos": [2, 0]},
        {"op": "init", "pos": [0, 1]},
        {"op": "gate", "kind": "H", "targets": [[0, 0]]},
        {"op": "gate", "kind": "CNOT", "targets": [[0, 0], [1, 0]]},
        {"op": "gate", "kind": "SqrtSWAP", "targets": [[1, 0], [2, 0]]},
        {"op": "gate", "kind": "ExchangeEvolve", "targets": [[0, 0], [0, 1]],
         "theta": 0.7},
        {"op": "coupling_window", "a": [1, 0], "b": [2, 0], "theta": 1.3},
        {"op": "move", "src": [2, 0], "dst": [3, 0]},
        {"op": "route", "src": [3, 0], "dst": [3, 2]},
        {"op": "idle", "t": 2e-7},
        {"op": "readout", "qubit": [0, 1], "readout": [0, 2]},
        {"op": "readout", "qubit": [1, 0], "readout": [0, 2]},
    ],
}

# a noisy matrix-mode run ending in three readouts that misread one bit in ten:
# each readout's Born marginal depends on the outcomes read before it
MATRIX_MISREAD = {
    "schema_version": 1,
    "seed": 11,
    "strict": True,
    "material": {"preset": "inas", "readout_error": 0.1,
                 "noise": {"enabled": True, "T1": 2e-6, "T2": 1e-6}},
    "array": {"width": 3, "height": 2, "representation": "matrix",
              "dots": [{"pos": [x, 1], "role": "readout"} for x in range(3)]},
    "program": [
        {"op": "init", "pos": [0, 0]},
        {"op": "init", "pos": [1, 0]},
        {"op": "init", "pos": [2, 0]},
        {"op": "gate", "kind": "H", "targets": [[0, 0]]},
        {"op": "gate", "kind": "CNOT", "targets": [[0, 0], [1, 0]]},
        {"op": "gate", "kind": "Rot", "targets": [[2, 0]], "axis": [1, 0, 1], "angle": 0.9},
        {"op": "coupling_window", "a": [1, 0], "b": [2, 0], "theta": 1.1},
        {"op": "idle", "t": 1e-7},
        {"op": "readout", "qubit": [0, 0], "readout": [0, 1]},
        {"op": "readout", "qubit": [1, 0], "readout": [1, 1]},
        {"op": "readout", "qubit": [2, 0], "readout": [2, 1]},
    ],
}
# a noisy six-qubit matrix run that keeps most qubits exactly in |0>: Z, S and
# T on idle ground qubits, a CNOT with a ground control, an exchange window on
# a ground pair, and a 1 ms idle against T1 = 2 us, where 1 - gamma rounds to 0
MATRIX_GROUND = {
    "schema_version": 1,
    "seed": 19,
    "material": {"preset": "inas", "noise": {"enabled": True, "T1": 2e-6, "T2": 1e-6}},
    "array": {"width": 4, "height": 3, "representation": "matrix",
              "dots": [{"pos": [2, 1], "role": "readout"}, {"pos": [3, 1], "role": "readout"},
                       {"pos": [1, 1], "t2_override": 4e-7}]},
    "program": [
        *({"op": "init", "pos": pos} for pos in ([0, 0], [1, 0], [2, 0], [3, 0], [0, 1], [1, 1])),
        {"op": "gate", "kind": "H", "targets": [[0, 0]]},
        {"op": "gate", "kind": "Z", "targets": [[2, 0]]},
        {"op": "gate", "kind": "S", "targets": [[3, 0]]},
        {"op": "gate", "kind": "T", "targets": [[0, 1]]},
        {"op": "gate", "kind": "CNOT", "targets": [[1, 0], [0, 0]]},
        {"op": "gate", "kind": "CNOT", "targets": [[0, 0], [0, 1]]},
        {"op": "coupling_window", "a": [2, 0], "b": [3, 0], "theta": 1.3},
        {"op": "idle", "t": 1e-7},
        {"op": "gate", "kind": "X", "targets": [[3, 0]]},
        {"op": "idle", "t": 1e-3},
        {"op": "gate", "kind": "Rot", "targets": [[1, 1]], "axis": [1, 0, 1], "angle": 0.7},
        {"op": "idle", "t": 2e-7},
        {"op": "readout", "qubit": [0, 0], "readout": [2, 1]},
        {"op": "readout", "qubit": [1, 1], "readout": [3, 1]},
        {"op": "readout", "qubit": [0, 1], "readout": [2, 1]},
    ],
}
BELL_MISREAD = {**BELL, "seed": 2**32 + 5, "material": {"preset": "inas", "readout_error": 0.1}}


def test_run_reports_are_pinned():
    # sha256 of the canonical report bytes, recorded before the device stopped
    # keeping its own event log and the runner stopped re-parsing the scenario
    assert digest(dumps_report(run_scenario(BELL, shots=200))) == (
        "fbec37f02fe0aeb26c3ac5872e4f1e4bba463de8d98872f770e3eb6670a0cf0b")
    assert digest(dumps_report(run_scenario(TELEPORT, shots=500))) == (
        "75cebbe9c4e478b354f3084d255ad2b7b5bdf84b61cd78cc1cf034f94ca3b634")
    pins = {
        "vector": "39c4b06c48e19d3b8eee50626f719a9274aaf46c19961566666ac4022e1b27d3",
        "matrix": "46dec7e13088eebb304612ebf3938ef58854f0260120fe8d1cb9c7309e4b2dd2",
    }
    for representation, pin in pins.items():
        scenario = copy.deepcopy(STRICT_NOISY)
        scenario["array"]["representation"] = representation
        assert digest(dumps_report(run_scenario(scenario, shots=20))) == pin
    # these two recorded before certain readouts stopped drawing and later
    # shots replayed trailing readouts from their Born marginals
    assert digest(dumps_report(run_scenario(BELL, shots=10_000))) == (
        "0252303b3522a28623e69a607d20b23b71e684d51cc254048d053877cf597e9e")
    assert digest(dumps_report(run_scenario(MATRIX_MISREAD, shots=500))) == (
        "924e16435f7bd5b7724fd162c61df72818915e9f2253ae03b4ad83005ff17dd6")
    # recorded before later shots drew their readout uniforms from one batched
    # kernel; the seed takes two 32-bit entropy words
    assert digest(dumps_report(run_scenario(BELL_MISREAD, shots=3000))) == (
        "4f6d12870253549f6d061d385f1c77bbb8418e00417c33a0527657de83a0554b")
    # recorded before the matrix idle window skipped the block arithmetic of
    # qubits whose |1> rows and columns are exactly +0
    assert digest(dumps_report(run_scenario(MATRIX_GROUND, shots=50))) == (
        "740f81be8f646145d3f725ea4bd64b65892c78907d8813dd84dc83c224fec36e")



def _final_array(scenario):
    """Shot 0 of a scenario run step by step, returning its array."""
    material, roles, t2_overrides, steps = validate_scenario(scenario)
    section = scenario["array"]
    array = DotArray(section["width"], section["height"], material, roles=roles,
                     representation=section["representation"], strict=scenario["strict"],
                     seed=stream(scenario["seed"], 0, 0xFFFF), t2_overrides=t2_overrides)
    for index, (spec, event, at) in enumerate(steps):
        spec.run(array, event, at, stream(scenario["seed"], 0, index))
    return array


@pytest.mark.parametrize("representation", ["vector", "matrix"])
def test_coupling_window_op_is_the_exchange_evolve_gate(representation):
    # theta = 2.5 does not survive a theta -> t -> theta round trip, so the op
    # must hand the gate its theta unchanged
    program = [
        {"op": "init", "pos": [0, 0]},
        {"op": "init", "pos": [1, 0]},
        {"op": "init", "pos": [2, 0]},
        {"op": "gate", "kind": "H", "targets": [[0, 0]]},
        {"op": "gate", "kind": "Rot", "targets": [[1, 0]], "axis": [1, 0, 1], "angle": 0.4},
        {"op": "coupling_window", "a": [0, 0], "b": [1, 0], "theta": 2.5},
        {"op": "idle", "t": 1e-8},
    ]
    arrays = []
    for window in (program[5], {"op": "gate", "kind": "ExchangeEvolve",
                                "targets": [[0, 0], [1, 0]], "theta": 2.5}):
        scenario = {
            "schema_version": 1, "seed": 3, "strict": True,
            "material": {"preset": "inas",
                         "noise": {"enabled": True, "T1": 2e-6, "T2": 1e-6}},
            "array": {"width": 3, "height": 1, "representation": representation},
            "program": program[:5] + [window] + program[6:],
        }
        arrays.append(_final_array(scenario))
    window_op, gate_op = arrays
    assert window_op.clock == gate_op.clock
    assert np.array_equal(window_op.state.data, gate_op.state.data)

# vector runs whose idle windows jump often: microsecond idles against
# T1 = 2 us with one dot on its own T2, and two long routes on a noisy 16x16
# grid before an EPR pair, a teleport and a readout
JUMP_HEAVY = {
    "schema_version": 1,
    "seed": 77,
    "strict": True,
    "material": {"preset": "inas", "noise": {"enabled": True, "T1": 2e-6, "T2": 1.5e-6}},
    "array": {"width": 3, "height": 3, "dots": [
        {"pos": [2, 2], "role": "readout"},
        {"pos": [1, 1], "role": "qubit", "t2_override": 4e-7}]},
    "program": [
        {"op": "init", "pos": [0, 0]},
        {"op": "init", "pos": [1, 0]},
        {"op": "init", "pos": [1, 1]},
        {"op": "init", "pos": [0, 2]},
        {"op": "gate", "kind": "H", "targets": [[0, 0]]},
        {"op": "gate", "kind": "X", "targets": [[1, 1]]},
        {"op": "gate", "kind": "CNOT", "targets": [[0, 0], [1, 0]]},
        {"op": "idle", "t": 1e-6},
        {"op": "gate", "kind": "H", "targets": [[0, 2]]},
        {"op": "idle", "t": 3e-6},
        {"op": "move", "src": [1, 1], "dst": [2, 1]},
        {"op": "idle", "t": 2e-6},
        {"op": "readout", "qubit": [2, 1], "readout": [2, 2]},
        {"op": "readout", "qubit": [0, 0], "readout": [2, 2]},
        {"op": "readout", "qubit": [0, 2], "readout": [2, 2]},
    ],
}
LONG_ROUTES = {
    "schema_version": 1,
    "seed": 4242,
    "material": {"preset": "inas", "noise": {"enabled": True, "T1": 1e-7, "T2": 5e-8}},
    "array": {"width": 16, "height": 16, "dots": [{"pos": [15, 14], "role": "readout"}]},
    "program": [
        {"op": "init", "pos": [0, 0]},
        {"op": "init", "pos": [1, 0]},
        {"op": "init", "pos": [15, 15]},
        {"op": "gate", "kind": "H", "targets": [[0, 0]]},
        {"op": "gate", "kind": "S", "targets": [[0, 0]]},
        {"op": "route", "src": [1, 0], "dst": [14, 15]},
        {"op": "route", "src": [0, 0], "dst": [13, 15]},
        {"op": "epr", "a": [14, 15], "b": [15, 15]},
        {"op": "teleport", "payload": [13, 15], "a": [14, 15], "b": [15, 15]},
        {"op": "readout", "qubit": [15, 15], "readout": [15, 14]},
    ],
}
# long routes on a ground register: T2 = 2 ns makes Z flips fire mid-route, a
# wall of readout dots forces a detour, and one route ends on (and the next
# leaves) a dot with its own T2
GROUND_ROUTES = {
    "schema_version": 1,
    "seed": 1818,
    "material": {"preset": "inas", "noise": {"enabled": True, "T1": 1e-6, "T2": 2e-9}},
    "array": {"width": 20, "height": 20, "dots": [
        *({"pos": [9, y], "role": "readout"} for y in range(14)),
        {"pos": [14, 10], "t2_override": 5e-10}]},
    "program": [
        {"op": "init", "pos": [0, 0]},
        {"op": "init", "pos": [19, 0]},
        {"op": "init", "pos": [0, 19]},
        {"op": "init", "pos": [19, 19]},
        {"op": "route", "src": [0, 0], "dst": [18, 5]},
        {"op": "route", "src": [19, 0], "dst": [14, 10]},
        {"op": "route", "src": [0, 19], "dst": [12, 2]},
        {"op": "route", "src": [19, 19], "dst": [1, 18]},
        {"op": "route", "src": [14, 10], "dst": [16, 3]},
        {"op": "gate", "kind": "H", "targets": [[12, 2]]},
        {"op": "readout", "qubit": [12, 2], "readout": [9, 0]},
    ],
}


def test_vector_jump_reports_are_pinned():
    # sha256 of the canonical report bytes, recorded before the vector idle
    # window became one pass and route planning a flat-grid search; the
    # ground-register one before routes were planned monotone and run in batches
    assert digest(dumps_report(run_scenario(JUMP_HEAVY, shots=20))) == (
        "a2c9fe8dd3ef22a3f8eba2864ccd404f0a4bda23494420c4b61aa2c65e6d927c")
    assert digest(dumps_report(run_scenario(LONG_ROUTES, shots=5))) == (
        "90c8625e81ad3b29b218f602898b3b4b589af96846764d7839156b7a209bb12b")
    assert digest(dumps_report(run_scenario(GROUND_ROUTES, shots=5))) == (
        "5d2ba2dd25e1b443ecc9630f1a372147146bbed8aa45c671482467a3f7d5ee36")


def test_energy_budget_is_drive_power_times_single_qubit_gate_time():
    material = build_material("inas")
    power = drive_report(material.g_factor, material.rabi_period,
                         material.gate_distance)["power_watt"]
    # bell drives one H, half a Rabi flop
    report = run_scenario(BELL)
    assert report["budgets"]["total_energy_j"] == power * (material.rabi_period / 2)
    # X, S and T: a half, a quarter and an eighth of a flop, summed in order
    scenario = copy.deepcopy(BELL)
    scenario["program"][2:3] = [{"op": "gate", "kind": kind, "targets": [[0, 0]]}
                                for kind in ("X", "S", "T")]
    expected = 0.0
    for turn in (0.5, 0.25, 0.125):
        expected += power * (turn * material.rabi_period)
    assert run_scenario(scenario)["budgets"]["total_energy_j"] == expected


def test_energy_budget_ignores_exchange_hops_idles_and_readouts():
    scenario = copy.deepcopy(STRICT_NOISY)
    hadamard = scenario["program"].pop(4)
    assert hadamard["kind"] == "H"
    report = run_scenario(scenario, shots=3)
    assert report["final_clock_s"] > 0
    assert report["budgets"]["total_energy_j"] == 0.0


def test_strict_mode_propagates():
    scenario = copy.deepcopy(BELL)
    scenario["program"].append({"op": "epr", "a": [0, 0], "b": [1, 0]})
    # building an EPR pair on already-used qubits must fail under strict mode
    from qdotsim.errors import ProtocolError

    with pytest.raises(ProtocolError):
        run_scenario(scenario, strict=True)
    run_scenario(scenario, strict=False)  # lenient mode lets it through


def test_route_move_coupling_events():
    scenario = {
        "schema_version": 1,
        "material": "inas",
        "seed": 21,
        "array": {"width": 4, "height": 2},
        "program": [
            {"op": "init", "pos": [0, 0]},
            {"op": "init", "pos": [0, 1]},
            {"op": "gate", "kind": "X", "targets": [[0, 1]]},
            {"op": "coupling_window", "a": [0, 0], "b": [0, 1], "theta": math.pi},
            {"op": "move", "src": [0, 1], "dst": [1, 1]},
            {"op": "route", "src": [1, 1], "dst": [3, 1]},
            {"op": "idle", "t": 1e-9},
        ],
    }
    report = run_scenario(scenario)
    route = [e for e in report["events"] if e["event"] == "route"][0]
    assert route["path"] == [[1, 1], [2, 1], [3, 1]]
    # the swap put the excited spin on qubit 0; after transport it is at (3,1)
    assert report["final_clock_s"] > 0


def test_vector_noise_runs_are_seed_deterministic():
    # pure dephasing (huge T1): Z-jumps randomize the Bell phase but the
    # Z-correlation survives, so outcomes stay paired
    scenario = {
        "schema_version": 1,
        "material": {
            "preset": "inas",
            "noise": {"T1": 1e3, "T2": 1e-7, "enabled": True},
        },
        "seed": 33,
        "array": {
            "width": 2, "height": 2,
            "dots": [{"pos": [0, 1], "role": "readout"},
                     {"pos": [1, 1], "role": "readout"}],
        },
        "program": [
            {"op": "init", "pos": [0, 0]},
            {"op": "init", "pos": [1, 0]},
            {"op": "epr", "a": [0, 0], "b": [1, 0]},
            {"op": "idle", "t": 1e-6},
            {"op": "readout", "qubit": [0, 0], "readout": [0, 1]},
            {"op": "readout", "qubit": [1, 0], "readout": [1, 1]},
        ],
    }
    r1 = run_scenario(scenario, shots=200)
    r2 = run_scenario(scenario, shots=200)
    assert r1["measurement_records"] == r2["measurement_records"]
    counts = r1["measurement_counts"]
    assert set(counts) == {"00", "11"}
    assert counts["00"] > 50 and counts["11"] > 50


def test_qec_cycle_event():
    scenario = {
        "schema_version": 1,
        "material": "inas",
        "seed": 5,
        "array": {"width": 5, "height": 1},
        "program": [
            {"op": "init", "pos": [0, 0]},
            {"op": "init", "pos": [1, 0]},
            {"op": "init", "pos": [2, 0]},
            {"op": "init", "pos": [3, 0]},
            {"op": "init", "pos": [4, 0]},
            {"op": "gate", "kind": "H", "targets": [[0, 0]]},
            {
                "op": "qec_cycle",
                "principal": [0, 0],
                "syndromes": [[1, 0], [2, 0], [3, 0], [4, 0]],
                "inject": [["X", 2]],
            },
        ],
    }
    report = run_scenario(scenario)
    cycle = [e for e in report["events"] if e["event"] == "qec_cycle"][0]
    assert cycle["fidelity_checks"]["post_cycle_fidelity"] > 1 - 1e-9
    assert not cycle["fidelity_checks"]["possible_logical_error"]



def test_qec_cycle_fidelity_never_exceeds_one():
    # noiseless vector register: the second cycle's overlap rounds to
    # 1 + 4.4e-16 before it is clipped like every other fidelity branch
    block = {"principal": [0, 0], "syndromes": [[1, 0], [2, 0], [3, 0], [4, 0]]}
    scenario = {
        "schema_version": 1,
        "material": "inas",
        "seed": 7,
        "array": {"width": 5, "height": 1},
        "program": [
            *({"op": "init", "pos": [x, 0]} for x in range(5)),
            {"op": "gate", "kind": "H", "targets": [[0, 0]]},
            {"op": "qec_cycle", **block},
            {"op": "qec_cycle", **block},
        ],
    }
    fidelities = [e["fidelity_checks"]["post_cycle_fidelity"]
                  for e in run_scenario(scenario)["events"] if e["event"] == "qec_cycle"]
    assert len(fidelities) == 2
    assert all(1.0 - 1e-12 <= f <= 1.0 for f in fidelities)

QEC_TWO_CYCLES = {
    "schema_version": 1,
    "material": {"preset": "inas", "noise": {"enabled": True}},
    "seed": 11,
    "array": {"width": 5, "height": 2, "dots": [{"pos": [0, 1], "role": "readout"}]},
    "program": [
        *({"op": "init", "pos": [x, 0]} for x in range(5)),
        {"op": "gate", "kind": "H", "targets": [[0, 0]]},
        {"op": "gate", "kind": "Rot", "targets": [[0, 0]], "axis": [0, 1, 1],
         "angle": 0.7},
        {"op": "qec_cycle", "principal": [0, 0],
         "syndromes": [[1, 0], [2, 0], [3, 0], [4, 0]], "inject": [["X", 2]]},
        {"op": "idle", "t": 2e-7},
        {"op": "qec_cycle", "principal": [0, 0],
         "syndromes": [[4, 0], [2, 0], [3, 0], [1, 0]],
         "inject": [["Y", 3], ["X", 3], ["Z", 0]]},
        {"op": "readout", "qubit": [0, 0], "readout": [0, 1]},
    ],
}


def test_qec_cycle_reports_are_pinned():
    # sha256 of the canonical report bytes of two noisy cycles, recorded
    # after the cycle became one encode-inject-decode pass
    report = run_scenario(QEC_TWO_CYCLES, shots=20)
    assert [e["event"] for e in report["events"]].count("qec_cycle") == 2
    assert digest(dumps_report(report)) == (
        "818cfee3fd8f4554881f6980ee62aa65b3eb3f5c7c6fbb867651c3239a13dc39")


# ---------------------------------------------------------------------------
# shots that share each event until a Born draw or the noise tells them apart
# ---------------------------------------------------------------------------

_WIDTH = 4  # qubits live on row 0, each column has a readout dot on row 1


@st.composite
def shot_scenarios(draw):
    """A small program on a 4x2 grid: three qubits; gates, windows, idles,
    moves, readouts and EPR + teleport blocks; then a readout of every qubit.
    Representation, noise, readout error and strictness are drawn too."""
    occupied = [(x, 0) for x in range(3)]
    program = [{"op": "init", "pos": list(p)} for p in occupied]
    if draw(st.booleans()):
        program.append({"op": "readout", "qubit": [1, 0], "readout": [1, 1]})
    for _ in range(draw(st.integers(0, 8))):
        op = draw(st.sampled_from(
            ["gate", "cnot", "window", "idle", "move", "readout", "teleport"]))
        pairs = [(p, (p[0] + 1, 0)) for p in occupied if (p[0] + 1, 0) in occupied]
        moves = [(p, (x, 0)) for p in occupied for x in (p[0] - 1, p[0] + 1)
                 if 0 <= x < _WIDTH and (x, 0) not in occupied]
        triples = [(a, b, c) for a, b in pairs for b2, c in pairs if b2 == b]
        if op == "gate":
            kind = draw(st.sampled_from(["X", "H", "S", "T", "Rot"]))
            event = {"op": "gate", "kind": kind,
                     "targets": [list(draw(st.sampled_from(occupied)))]}
            if kind == "Rot":
                event["axis"] = [draw(st.floats(-1, 1)), draw(st.floats(-1, 1)), 1.0]
                event["angle"] = draw(st.floats(0, 6))
            program.append(event)
        elif op == "cnot" and pairs:
            a, b = draw(st.sampled_from(pairs))
            program.append({"op": "gate", "kind": "CNOT", "targets": [list(a), list(b)]})
        elif op == "window" and pairs:
            a, b = draw(st.sampled_from(pairs))
            program.append({"op": "coupling_window", "a": list(a), "b": list(b),
                            "theta": draw(st.floats(0, 3))})
        elif op == "idle":
            program.append({"op": "idle", "t": draw(st.floats(1e-8, 1e-6))})
        elif op == "move" and moves:
            src, dst = draw(st.sampled_from(moves))
            occupied[occupied.index(src)] = dst
            program.append({"op": "move", "src": list(src), "dst": list(dst)})
        elif op == "readout":
            q = draw(st.sampled_from(occupied))
            program.append({"op": "readout", "qubit": list(q), "readout": [q[0], 1]})
        elif op == "teleport" and triples:
            c, a, b = draw(st.sampled_from(triples))
            program += [{"op": "epr", "a": list(a), "b": list(b)},
                        {"op": "teleport", "payload": list(c), "a": list(a), "b": list(b)}]
    program += [{"op": "readout", "qubit": list(q), "readout": [q[0], 1]}
                for q in sorted(occupied)]
    dots = [{"pos": [x, 1], "role": "readout"} for x in range(_WIDTH)]
    if draw(st.booleans()):
        dots.append({"pos": [1, 0], "role": "qubit", "t2_override": 1e-7})
    return {
        "schema_version": 1,
        "seed": draw(st.integers(0, 2**31 - 1)),
        "strict": draw(st.booleans()),
        "material": {"preset": "inas",
                     "readout_error": draw(st.sampled_from([0.0, 0.25])),
                     "noise": {"enabled": draw(st.booleans()), "T1": 1e-7, "T2": 1e-7}},
        "array": {"width": _WIDTH, "height": 2, "dots": dots,
                  "representation": draw(st.sampled_from(["vector", "matrix"]))},
        "program": program,
    }


def _outcome(run):
    try:
        return run()
    except QdotsimError as exc:
        return type(exc)


@given(scenario=shot_scenarios(), shots=st.integers(1, 40))
@settings(max_examples=120, deadline=None)
def test_shared_prefix_matches_the_eager_shot_loop(scenario, shots):
    got = _outcome(lambda: run_scenario(copy.deepcopy(scenario), shots=shots))
    want = _outcome(lambda: run_shots_eagerly(copy.deepcopy(scenario), shots))
    if isinstance(want, type):
        assert got is want
        return
    for key in ("measurement_records", "measurement_counts", "events"):
        assert dumps_report(got[key]) == dumps_report(want[key]), key


def test_bundled_scenarios_match_the_eager_shot_loop():
    for scenario in (BELL, TELEPORT, PAPER_NUMBERS):
        got = run_scenario(copy.deepcopy(scenario), shots=40)
        want = run_shots_eagerly(copy.deepcopy(scenario), 40)
        for key in ("measurement_records", "measurement_counts", "events"):
            assert dumps_report(got[key]) == dumps_report(want[key]), key


def test_trailing_misread_readouts_match_the_eager_shot_loop(monkeypatch):
    arrays = []
    monkeypatch.setattr(scenario_mod, "DotArray",
                        lambda *args, **kwargs: arrays.append(1) or DotArray(*args, **kwargs))
    got = run_scenario(copy.deepcopy(MATRIX_MISREAD), shots=300)
    # the run builds one array; each path of true outcomes runs on a copy of it
    assert len(arrays) <= 2 ** 3
    monkeypatch.undo()
    want = run_shots_eagerly(copy.deepcopy(MATRIX_MISREAD), 300)
    for key in ("measurement_records", "measurement_counts", "events"):
        assert dumps_report(got[key]) == dumps_report(want[key]), key


def test_batched_shots_across_chunks_match_the_eager_shot_loop(monkeypatch):
    # chunks of 7 shots, so one group's uniforms come from several kernel calls
    monkeypatch.setattr(scenario_mod, "_SHOT_CHUNK", 7)
    for scenario, shots in ((BELL, 60), (MATRIX_MISREAD, 90), (BELL_MISREAD, 30)):
        got = run_scenario(copy.deepcopy(scenario), shots=shots)
        want = run_shots_eagerly(copy.deepcopy(scenario), shots)
        for key in ("measurement_records", "measurement_counts", "events"):
            assert dumps_report(got[key]) == dumps_report(want[key]), key


@pytest.mark.parametrize("readout_error", [0.0, 0.25])
def test_a_certain_readout_draws_only_for_a_misread(monkeypatch, readout_error):
    scenario = {
        "schema_version": 1, "seed": 5,
        "material": {"preset": "inas", "readout_error": readout_error},
        "array": {"width": 1, "height": 2, "dots": [{"pos": [0, 1], "role": "readout"}]},
        "program": [{"op": "init", "pos": [0, 0]},
                    {"op": "gate", "kind": "X", "targets": [[0, 0]]},
                    {"op": "readout", "qubit": [0, 0], "readout": [0, 1]}],
    }
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: built.append(seed) or default_rng(seed))
    got = run_scenario(copy.deepcopy(scenario), shots=50)
    monkeypatch.undo()
    if readout_error == 0:
        assert built == []
        assert got["measurement_records"] == ["1"] * 50
    else:
        # only shot 0 builds its readout stream: the outcome is certain, so
        # every shot follows it, each with a misread drawn by the batched
        # kernel; the Born draw is the first uniform, the misread the second
        assert built == [[5, 0, 2]]
        misread = [default_rng([5, shot, 2]).random(2)[1] < 0.25 for shot in range(50)]
        assert got["measurement_records"] == [str(1 - m) for m in misread]
        assert "0" in got["measurement_records"]
    want = run_shots_eagerly(copy.deepcopy(scenario), 50)
    for key in ("measurement_records", "measurement_counts", "events"):
        assert dumps_report(got[key]) == dumps_report(want[key]), key


def test_a_stream_that_never_draws_builds_no_generator(monkeypatch):
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: built.append(seed) or default_rng(seed))
    unused = stream(7, 0, 3)
    twin = copy.deepcopy(unused)
    assert built == []
    assert unused.random() == twin.random()
    assert built == [[7, 0, 3], [7, 0, 3]]
    built.clear()
    # bell draws only in its first readout: the second one's outcome is
    # certain and there is no readout error; noise is off, so no array stream
    records = run_scenario(copy.deepcopy(BELL), shots=5)["measurement_records"]
    # shot 0 runs the first readout with its own stream; the batched kernel
    # draws that readout for every shot; shot 4, the first whose outcome
    # differs, runs it again with its own stream for the shots that stay,
    # which all follow it; nobody draws for the certain second readout
    assert records == ["00", "00", "00", "00", "11"]
    assert built == [[7, 0, 3], [7, 4, 3]]


def _quiet(scenario: dict, **array) -> dict:
    """The scenario with noise off and the array fields given replaced."""
    return {**scenario, "material": {"preset": "inas"},
            "array": {**scenario["array"], **array}}


# noise off: routes before and after mid-program readouts, so that groups of
# shots with different outcomes each run the later routes
QUIET_ROUTES = {
    "schema_version": 1, "seed": 23, "material": "inas",
    "array": {"width": 4, "height": 3, "dots": [{"pos": [3, 0], "role": "readout"},
                                                {"pos": [0, 2], "role": "readout"}]},
    "program": [
        {"op": "init", "pos": [0, 0]},
        {"op": "init", "pos": [1, 0]},
        {"op": "gate", "kind": "H", "targets": [[0, 0]]},
        {"op": "gate", "kind": "CNOT", "targets": [[0, 0], [1, 0]]},
        {"op": "route", "src": [1, 0], "dst": [2, 2]},
        {"op": "readout", "qubit": [0, 0], "readout": [0, 2]},
        {"op": "route", "src": [0, 0], "dst": [3, 1]},
        {"op": "gate", "kind": "H", "targets": [[3, 1]]},
        {"op": "readout", "qubit": [2, 2], "readout": [3, 0]},
        {"op": "route", "src": [2, 2], "dst": [1, 1]},
        {"op": "readout", "qubit": [3, 1], "readout": [0, 2]},
    ],
}


@pytest.mark.parametrize("scenario", [
    _quiet(QEC_TWO_CYCLES),
    _quiet(QEC_TWO_CYCLES, representation="matrix"),
    QUIET_ROUTES,
], ids=["qec-vector", "qec-matrix", "routes"])
def test_quiet_qec_cycles_and_routes_match_the_eager_shot_loop(scenario):
    got = run_scenario(copy.deepcopy(scenario), shots=40)
    want = run_shots_eagerly(copy.deepcopy(scenario), 40)
    assert len(got["measurement_counts"]) > 1
    for key in ("measurement_records", "measurement_counts", "events"):
        assert dumps_report(got[key]) == dumps_report(want[key]), key


# shots that read 1 find a syndrome qubit excited (ProtocolError at the
# cycle); shots that read 0 pass it and move onto an occupied dot
# (BlockadeError at the move)
TWO_FAILURES = {
    "schema_version": 1, "seed": 0, "material": "inas",
    "array": {"width": 5, "height": 2, "dots": [{"pos": [1, 1], "role": "readout"}]},
    "program": [
        *({"op": "init", "pos": [x, 0]} for x in range(5)),
        {"op": "gate", "kind": "H", "targets": [[1, 0]]},
        {"op": "readout", "qubit": [1, 0], "readout": [1, 1]},
        {"op": "qec_cycle", "principal": [0, 0],
         "syndromes": [[1, 0], [2, 0], [3, 0], [4, 0]]},
        {"op": "move", "src": [0, 0], "dst": [1, 0]},
    ],
}


@pytest.mark.parametrize("seed, error", [(0, BlockadeError), (2, ProtocolError)])
def test_the_lowest_failing_shot_raises(seed, error):
    scenario = {**TWO_FAILURES, "seed": seed}
    assert _outcome(lambda: run_shots_eagerly(copy.deepcopy(scenario), 20)) is error
    with pytest.raises(error):
        run_scenario(copy.deepcopy(scenario), shots=20)


def test_teleport_runs_once_per_branch_of_its_two_draws(monkeypatch):
    calls = []
    teleport = channels.teleport
    monkeypatch.setattr(channels, "teleport",
                        lambda *args: calls.append(args) or teleport(*args))
    report = run_scenario(copy.deepcopy(TELEPORT), shots=2000)
    assert len(report["measurement_counts"]) == 4
    assert len(calls) <= 4


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_resources_emits_json():
    proc = run_cli("resources", "--preset", "inas")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["drive"]["b_ac_tesla"] == pytest.approx(71e-6, rel=0.01)


def test_cli_channel_swap():
    proc = run_cli("channel", "--kind", "swap", "--length-qubits", "10",
                   "--t-hop", "1e-10")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["report"]["physical_bandwidth_bits_per_s"] == pytest.approx(1e9)


def test_cli_channel_teleport_kind():
    proc = run_cli("channel", "--kind", "teleport", "--distance-m", "0.01")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    bw = payload["report"]["true_bandwidth_bits_per_s"]
    assert 1.65e8 / 3 <= bw <= 1.65e8 * 3


@pytest.mark.parametrize(
    "args, option",
    [
        (("--kind", "teleport", "--lambda", "0.5"), "--lambda"),
        (("--kind", "teleport", "--t-hop", "1e-3"), "--t-hop"),
        (("--kind", "teleport", "--distance-m", "0.01", "--length-qubits", "10"),
         "--length-qubits"),
        (("--kind", "swap", "--distance-m", "5"), "--distance-m"),
        (("--kind", "swap", "--purification-rounds", "3"), "--purification-rounds"),
        (("--kind", "tunnel", "--distance-m", "5"), "--distance-m"),
    ],
    ids=["teleport-lambda", "teleport-t-hop", "teleport-distance-and-length",
         "swap-distance", "swap-rounds", "tunnel-distance"],
)
def test_cli_channel_rejects_options_of_another_kind(args, option, tmp_path):
    proc = run_cli("channel", *args, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    error = json.loads(proc.stderr)
    assert error["error"] == "schema"
    assert option in error["message"]
    assert not (tmp_path / "o").exists()


def test_cli_unknown_subcommand_exits_64():
    proc = run_cli("frobnicate")
    assert proc.returncode == 64


def test_cli_malformed_scenario_exits_2_no_outputs(tmp_path):
    bad = tmp_path / "broken.scenario"
    bad.write_text(json.dumps({"schema_version": 1}))  # no seed, no array
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(bad), "--out", str(out_dir))
    assert proc.returncode == 2
    assert not out_dir.exists()


def test_cli_physics_violation_exits_3(tmp_path):
    scenario = {
        "schema_version": 1,
        "material": "inas",
        "seed": 3,
        "array": {"width": 2, "height": 1},
        "program": [
            {"op": "init", "pos": [0, 0]},
            {"op": "init", "pos": [0, 0]},
        ],
    }
    path = tmp_path / "blockade.scenario"
    path.write_text(json.dumps(scenario))
    proc = run_cli("simulate", "--scenario", str(path), "--out",
                   str(tmp_path / "o"))
    assert proc.returncode == 3
    assert "event 1 (init)" in proc.stderr


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s["program"].append({"op": "idle", "t": 1e999}),
        lambda s: s.update(seed=True),
        lambda s: s["program"].append({"op": "init", "pos": [True, 0]}),
        lambda s: s["program"].insert(2, {"op": "gate", "kind": "ExchangeEvolve",
                                          "targets": [[0, 0], [1, 0]], "theta": -1.0}),
        lambda s: s.update(seed=-4),
    ],
    ids=["infinite-idle", "bool-seed", "bool-pos", "negative-exchange-theta",
         "negative-seed"],
)
def test_cli_rejects_non_finite_and_bool_inputs(tmp_path, mutate):
    scenario = copy.deepcopy(BELL)
    mutate(scenario)
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(scenario).replace("Infinity", "1e999"))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "schema"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("resources", "--t2", "nan"),
        ("qec", "--t2", "nan"),
        ("resources", "--t2", "inf"),
        ("resources", "--t2", "-1"),
        ("qec", "--p", "2"),
        ("qec", "--p", "-0.1"),
        ("qec", "--cycles", "-1"),
        ("resources", "--rabi-period", "1e300"),
        ("resources", "--rabi-period", "1e-300"),
        ("channel", "--kind", "swap", "--t-hop", "1e-320"),
        ("channel", "--kind", "tunnel", "--t2", "1e305"),
        ("channel", "--kind", "teleport", "--t2", "1e305"),
        ("resources", "--t2", "5e-324"),
        ("channel", "--kind", "teleport", "--t2", "5e-324"),
        ("resources", "--rabi-period", "5e-324"),
        ("qec", "--seed", "-1"),
        ("simulate", "--scenario", "bell.scenario", "--seed", "-1"),
        ("teleport", "--seed", "-5"),
    ],
    ids=["resources-t2-nan", "qec-t2-nan", "t2-inf", "t2-negative", "p-above-1",
         "p-negative", "cycles-negative", "rabi-period-power-underflow",
         "rabi-period-power-overflow", "swap-bandwidth-overflow",
         "tunnel-distance-overflow", "teleport-reach-overflow",
         "resources-t2-subnormal", "teleport-t2-subnormal",
         "rabi-period-subnormal", "qec-negative-seed", "simulate-negative-seed",
         "teleport-negative-seed"],
)
def test_cli_rejects_bad_numbers(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "schema"


@pytest.mark.parametrize(
    "args",
    [
        ("--kind", "teleport", "--distance-m", "0"),
        ("--kind", "swap", "--lambda", "0"),
        ("--kind", "tunnel", "--t-hop", "0"),
    ],
    ids=["distance-m", "lambda", "t-hop"],
)
def test_cli_channel_rejects_zero_instead_of_defaulting(args):
    proc = run_cli("channel", *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "schema"


@pytest.mark.parametrize(
    "request_",
    [
        {"kind": "swap_channel", "lambda": 0},
        {"kind": "pulse_budget", "pulses_per_cycle": 0},
        {"kind": "resources", "rabi_period": 1e-300},
        {"kind": "max_distance", "lambda": 1e-320},
        {"kind": "lambda", "T2": 5e-324},
        {"kind": "resources", "rabi_period": 5e-324},
    ],
    ids=["swap-lambda-0", "pulses-per-cycle-0", "resources-power-overflow",
         "max-distance-overflow", "lambda-t2-subnormal", "resources-rabi-period-subnormal"],
)
def test_cli_bad_analytics_value_names_the_entry(tmp_path, request_):
    scenario = copy.deepcopy(BELL)
    scenario["analytics"] = [request_]
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    message = json.loads(proc.stderr)["message"]
    assert message.startswith(f"analytics entry 0 ({request_['kind']}): ")
    assert not out_dir.exists()


def test_cli_subnormal_material_t2_in_resources_names_the_entry(tmp_path):
    scenario = copy.deepcopy(BELL)
    scenario["material"] = {"preset": "inas", "noise": {"T2": 5e-324}}
    scenario["analytics"] = [{"kind": "resources"}]
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["message"].startswith("analytics entry 0 (resources): ")
    assert not out_dir.exists()


@pytest.mark.parametrize("representation", ["vector", "matrix"])
@pytest.mark.parametrize("where", ["material", "override"])
def test_cli_subnormal_t2_with_noise_on_exits_2_before_any_event(tmp_path, where,
                                                                 representation):
    # 1/T2 overflows: the first idle window would divide by a zero T2'
    noise, dot = {"enabled": True, "T1": 1e-6, "T2": 1e-6}, {"pos": [0, 0]}
    if where == "material":
        noise["T2"] = 5e-324
    else:
        dot["t2_override"] = 5e-324
    scenario = {"schema_version": 1, "seed": 1, "material": {"preset": "inas", "noise": noise},
                "array": {"width": 2, "height": 1, "representation": representation,
                          "dots": [dot]},
                "program": [{"op": "init", "pos": [0, 0]}, {"op": "idle", "t": 1e-9}]}
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "schema"
    assert "1/T2 is not finite" in error["message"]
    assert not out_dir.exists()


def test_cli_refuses_more_shots_than_first_uniforms_takes(tmp_path):
    # 2**32 + 1 shots: refused before any array or event, never run
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", "bell.scenario", "--shots", "4294967297",
                   "--out", str(out_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "schema"
    assert "4294967297" in error["message"]
    assert not out_dir.exists()


def test_cli_clock_overflow_exits_4_naming_the_event(tmp_path):
    scenario = {"schema_version": 1, "seed": 1, "array": {"width": 2, "height": 1},
                "program": [{"op": "init", "pos": [0, 0]}, {"op": "idle", "t": 1e308},
                            {"op": "idle", "t": 1e308}]}
    path = tmp_path / "overflow.scenario"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "state"
    assert error["message"].startswith("event 2 (idle): ")
    assert not out_dir.exists()


@pytest.mark.parametrize("noise", [True, False], ids=["noise-on", "noise-off"])
def test_cli_route_that_overflows_the_clock_exits_4(tmp_path, noise):
    # a hop of ~1e306 s: the 172nd of 199 overflows the clock, noise on or off
    scenario = {"schema_version": 1, "seed": 1,
                "material": {"preset": "inas", "J_on": 2e-322, "J_off": 5e-324,
                             "noise": {"enabled": noise, "T1": 1.0, "T2": 2.0}},
                "array": {"width": 200, "height": 1},
                "program": [{"op": "init", "pos": [0, 0]},
                            {"op": "route", "src": [0, 0], "dst": [199, 0]}]}
    path = tmp_path / "route_overflow.scenario"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "state"
    assert error["message"] == ("event 1 (route): 1.0463355759036317e+306 s and 0.0 J "
                                "overflow the clock or the energy")
    assert not out_dir.exists()


def test_cli_subnormal_material_rabi_period_fails_at_the_first_drive(tmp_path):
    # the period is positive but the drive it implies is not finite: the
    # material is rejected before any event runs, like every other bad one
    scenario = copy.deepcopy(BELL)
    scenario["material"] = {"preset": "inas", "rabi_period": 5e-324}
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "schema"
    assert error["message"].startswith("bad material parameters: Rabi field is not finite")
    assert not out_dir.exists()


@pytest.mark.parametrize("width, height", [(10**19, 2), (10**6, 10**6)])
def test_cli_route_on_an_oversized_grid_exits_2_before_allocating(tmp_path, width, height):
    scenario = {"schema_version": 1, "seed": 1,
                "array": {"width": width, "height": height},
                "program": [{"op": "init", "pos": [0, 0]},
                            {"op": "route", "src": [0, 0], "dst": [1, 1]}]}
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=r"^event 1 \(route\): "):
            validate_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    path = tmp_path / "big.scenario"
    path.write_text(json.dumps(scenario))
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["message"].startswith("event 1 (route): ")
    assert not (tmp_path / "o").exists()


def test_cli_simulate_rejects_material_flags(tmp_path):
    proc = run_cli("simulate", "--scenario", "bell.scenario", "--preset", "si",
                   "--t2", "5e-5", "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["resources", "channel"])
def test_cli_closed_form_commands_take_no_seed(command, tmp_path):
    proc = run_cli(command, "--seed", "5", "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "--seed" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_cli_simulate_keeps_the_scenario_seed(tmp_path):
    proc = run_cli("simulate", "--scenario", "bell.scenario", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert json.loads((tmp_path / "report.json").read_text())["seed"] == 7


def test_cli_si_preset_requires_t2():
    proc = run_cli("resources", "--preset", "si")
    assert proc.returncode == 2
    proc = run_cli("resources", "--preset", "si", "--t2", "1.0")
    assert proc.returncode == 0


def test_cli_simulate_writes_reports(tmp_path):
    out_dir = tmp_path / "bell_out"
    proc = run_cli("simulate", "--scenario", "bell.scenario", "--shots", "32",
                   "--out", str(out_dir))
    assert proc.returncode == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report["measurement_counts"]) <= {"00", "11"}
    assert (out_dir / "events.json").exists()


def test_cli_simulate_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        proc = run_cli("simulate", "--scenario", "bell.scenario", "--shots",
                       "64", "--out", str(out))
        assert proc.returncode == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_cli_teleport_reports_branches():
    proc = run_cli("teleport", "--shots", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    branches = payload["branch_verification"]["branches"]
    assert len(branches) == 4
    assert payload["branch_verification"]["min_fidelity"] > 1 - 1e-9


def test_cli_qec_noiseless():
    proc = run_cli("qec", "--cycles", "20", "--p", "0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["logical_error_rate"] == 0
    assert payload["syndrome_histogram"] == {"0000": 20}
    assert payload["budget"]["cycles_in_T2"] == 10_000


def test_cli_qec_with_errors():
    proc = run_cli("qec", "--cycles", "30", "--p", "0.002", "--seed", "9")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert 0.0 <= payload["logical_error_rate"] <= 1.0
    assert sum(payload["syndrome_histogram"].values()) == 30


def test_cli_huge_j_on_with_noise_on_exits_2_before_any_event(tmp_path):
    # t_hop = t_swap / 10 rounds to 0 s: each hop of the route would book no
    # time and no idle noise
    scenario = {"schema_version": 1, "seed": 1,
                "material": {"preset": "inas", "J_on": 1e308, "noise": {"enabled": True}},
                "array": {"width": 3, "height": 1},
                "program": [{"op": "init", "pos": [0, 0]},
                            {"op": "route", "src": [0, 0], "dst": [2, 0]}]}
    path = tmp_path / "huge_j_on.scenario"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "schema"
    assert error["message"].startswith("bad material parameters: a hop (0.0 s)")
    assert not out_dir.exists()


@pytest.mark.parametrize("gate", [
    {"kind": "X", "axis": [True, 0, 0]},
    {"kind": "Rot", "axis": [0, 0, 1], "angle": "1.0"},
    {"kind": "ExchangeEvolve", "targets": [[0, 0], [1, 0]], "theta": -1.0},
], ids=["bool-axis-entry", "string-angle", "negative-theta"])
def test_cli_gate_parameters_are_checked_before_any_event(tmp_path, gate):
    scenario = copy.deepcopy(BELL)
    scenario["program"].insert(2, {"op": "gate", "targets": [[0, 0]], **gate})
    path = tmp_path / "bad_gate.scenario"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "schema"
    assert error["message"].startswith("event 2 (gate): ")
    assert not out_dir.exists()
