"""Scenario files, the deterministic runner, and the CLI surface."""
import copy
import dataclasses
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FullMatrixArray, canonical_json_oracle, run_shots_eagerly
from qdotsim import channels, cli
from qdotsim import scenario as scenario_mod
from qdotsim.channels import line_report
from qdotsim.device import DotArray, NoiseParams, inas_material, si_material
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


class _Str(str):
    pass


_INT_LISTS = st.lists(st.one_of(st.integers(), st.booleans()), min_size=1, max_size=4)
_REPORT_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     math.nan, math.inf, -math.inf]),
    st.text(), st.text().map(_Str), st.sampled_from(["\u00e9t\u00e9", "\U0001f600", "\x00\"\\"]),
    st.just([]), st.just(()), st.just({}),
    _INT_LISTS, st.lists(_INT_LISTS, max_size=4),
    st.lists(st.lists(st.integers(), max_size=4), max_size=4),
    st.sampled_from([1 + 2j, b"bytes", frozenset(), np.bool_(True)]),
)
_REPORT_KEYS = st.one_of(st.text(), st.text().map(_Str), st.integers(), st.none(),
                         st.just(("a",)))


def _serialized(function, tree):
    try:
        return function(tree)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@given(st.recursive(
    _REPORT_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4),
                            st.dictionaries(_REPORT_KEYS, inner, max_size=3)),
    max_leaves=25))
@example([[1, 2], [3], [True, 4]])
@example({"path": [[0, 0], [1, 0], [1, 1]], "x": [-0.0, 5e-324], "e": []})
@example([[[]], {}, ((),), [{}]])
@example({"analytics": [], "events": [
    {"index": 8, "event": "route", "clock_before": 0, "clock_after": 1.8142670786416028e-09,
     "measurements": None, "fidelity_checks": None, "path": [[15, 15], [16, 15], [16, 16]]},
    {"index": 9, "event": "epr", "measurements": [0], "strict": False,
     "fidelity_checks": {"bell_fidelity": 0.99999999999999967, "note": "x"}}]})
@example({"b": 1, 2: "a", "c": [1]})  # the key error, not the sort's
@settings(max_examples=400, deadline=None)
def test_canonical_json_equals_the_isinstance_oracle(tree):
    assert _serialized(canonical_json, tree) == _serialized(canonical_json_oracle, tree)


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
        # ints beyond a float, which would overflow where the event runs
        lambda s: s["program"].append({"op": "idle", "t": 10**400}),
        lambda s: s["program"].append(
            {"op": "coupling_window", "a": [0, 0], "b": [1, 0], "theta": 10**400}),
        lambda s: s["program"].append(
            {"op": "gate", "kind": "Rot", "targets": [[0, 0]], "axis": [0, 0, 1],
             "angle": -10**400}),
        lambda s: s["program"].append(
            {"op": "gate", "kind": "Rot", "targets": [[0, 0]], "axis": [10**400, 0, 1],
             "angle": 1.0}),
        lambda s: s.update(output=5),
    ],
)
def test_validation_rejects_bad_scenarios(mutate):
    scenario = copy.deepcopy(BELL)
    mutate(scenario)
    with pytest.raises(SchemaError):
        validate_scenario(scenario)


def _append(event):
    return lambda s: s["program"].append(event)


# exact texts, recorded before validation built its messages only on failure
@pytest.mark.parametrize("mutate, text", [
    (lambda s: s["array"]["dots"].append({"pos": "a1"}),
     "dot.pos must be an [x, y] pair of integers, got 'a1'"),
    (lambda s: s["array"]["dots"].append({"pos": [True, 0]}),
     "dot.pos must be an [x, y] pair of integers, got [True, 0]"),
    (lambda s: s["array"]["dots"].append({"pos": [2, 0]}), "dot.pos (2, 0) outside the 2x2 array"),
    (lambda s: s["array"]["dots"].append({"pos": [0, -1]}),
     "dot.pos (0, -1) outside the 2x2 array"),
    (lambda s: s["array"]["dots"].append({"pos": [0, 1], "role": "qubit"}),
     "dot (0, 1) is listed twice"),
    (_append({"op": "init", "pos": [9, 9]}), "event 5 (init) pos (9, 9) outside the 2x2 array"),
    (_append({"op": "move", "src": [0, 0], "dst": [0.5, 1]}),
     "event 5 (move) dst must be an [x, y] pair of integers, got [0.5, 1]"),
    (_append({"op": "route", "src": [0, 0]}),
     "event 5 (route) dst must be an [x, y] pair of integers, got None"),
    (_append({"op": "gate", "kind": "CNOT", "targets": [[0, 0], [0, 7]]}),
     "event 5 (gate) targets (0, 7) outside the 2x2 array"),
    (_append({"op": "gate", "kind": "X", "targets": [(0, 0, 0)]}),
     "event 5 (gate) targets must be an [x, y] pair of integers, got (0, 0, 0)"),
    (_append({"op": "qec_cycle", "principal": [0, 0],
              "syndromes": [[1, 0], [0, 1], [1, 1], [3, 1]]}),
     "event 5 (qec_cycle) syndromes (3, 1) outside the 2x2 array"),
    (_append({"op": "teleport", "payload": [0, 0], "a": [1, 0], "b": [0, 0]}),
     "event 5 (teleport): positions must be distinct, got [(0, 0), (1, 0), (0, 0)]"),
    (_append({"op": "fly", "pos": [0, 0]}), "event 5: unknown op 'fly'"),
    (_append({"op": 7}), "event 5: unknown op 7"),
    (_append(["op", "init"]), "event 5 must be an object"),
    (_append({"op": "idle", "t": -1e-9}), "event 5 (idle): t must be a nonnegative number"),
    (_append({"op": "coupling_window", "a": [0, 0], "b": [1, 0], "theta": True}),
     "event 5 (coupling_window): theta must be a nonnegative number"),
    (_append({"op": "gate", "kind": "Q", "targets": [[0, 0]]}),
     "event 5 (gate): unknown gate kind 'Q'"),
    (_append({"op": "gate", "kind": "CNOT", "targets": [[0, 0]]}),
     "event 5 (gate): CNOT takes 2 target(s)"),
    (_append({"op": "gate", "kind": "Rot", "targets": [[0, 0]], "axis": [0, 0, 0], "angle": 1}),
     "event 5 (gate): axis must be a nonzero [x, y, z] list, got [0, 0, 0]"),
    (_append({"op": "qec_cycle", "principal": [0, 0], "syndromes": [[1, 0]]}),
     "event 5 (qec_cycle): syndromes must list 4 positions"),
    (lambda s: (s["array"].update(width=10**19),
                s["program"].append({"op": "route", "src": [0, 0], "dst": [1, 1]})),
     "event 5 (route): a 10000000000000000000x2 array exceeds the 4194304 padded cells "
     "(width+2)*(height+2) route planning may use"),
])
def test_schema_error_texts_are_pinned(mutate, text):
    scenario = copy.deepcopy(BELL)
    mutate(scenario)
    with pytest.raises(SchemaError) as info:
        validate_scenario(scenario)
    assert str(info.value) == text


def test_material_overrides():
    material = build_material({"preset": "inas", "J_on": 1e-5})
    assert material.J_on == pytest.approx(1e-5)
    with pytest.raises(SchemaError):
        build_material({"preset": "si"})  # si needs an explicit T2
    si = build_material({"preset": "si", "noise": {"T2": 1.0}})
    assert si.g_factor == 2.0


def test_material_presets_are_built_once():
    # a preset without overrides, and with the noise it already has, is one
    # shared (frozen) instance; anything else is a fresh one
    inas = build_material("inas")
    assert inas == inas_material()
    assert build_material({"preset": "inas"}) is inas
    assert build_material({"noise": {"T2": 100e-6, "T1": 200e-6, "enabled": False}}) is inas
    noisy = build_material({"preset": "inas", "noise": {"enabled": True}})
    assert noisy is not inas
    assert noisy == dataclasses.replace(inas, noise=NoiseParams(enabled=True))
    assert build_material({"preset": "inas", "J_on": 5e-6}) is not inas
    assert build_material({"preset": "inas", "J_on": 5e-6}) == inas
    si = build_material({"preset": "si", "noise": {"T2": 1e-3}})
    assert si is build_material({"preset": "si", "noise": {"T2": 0.001}})
    assert si == si_material(1e-3)
    assert build_material({"preset": "si", "noise": {"T2": 2e-3}}) == si_material(2e-3)


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
        # the four qec runs with p > 0 re-recorded when the memory experiment
        # came to draw class counts, not rounds
        ("qec", "--cycles", "50", "--p", "1e-2", "--seed", "3"):
            "63a23035cc352dcaff0d39288a5e7b7bc3e2b68049b7b066e4bb8e3806d75939",
        # p = 0.05 puts ~25 Paulis in a round
        ("qec", "--cycles", "200", "--p", "1e-3", "--seed", "3"):
            "d0bbce9b079b21da515bad0975652f4574dfab05dc185522f550f7e765be6734",
        ("qec", "--cycles", "200", "--p", "0.01", "--seed", "11"):
            "4141b411362e15bb8a0995cacaf693bde644a6b534bbe0bd51df4d1082b2722b",
        ("qec", "--cycles", "200", "--p", "0.05", "--seed", "5"):
            "b2fabf11f23519aa184a702e04d48361e89d22b8b6600d4b597a5feb9a06bced",
        # these recorded before `resources` and `channel` ran as analytics requests
        ("channel", "--kind", "swap"):
            "a10b22b166602e43b8de373757b5c19f61cfd0bfd0081b3765e897ccf28da7fd",
        ("channel", "--kind", "tunnel"):
            "ae4b84e9b9512dc8c7f32a0c98b4b9fa797f7646abaa189e7b1a0a832a76f7b0",
        ("channel", "--kind", "swap", "--length-qubits", "10", "--t-hop", "1e-10"):
            "5d7f12af70aae4ecb705874dacdf129243da56508d9c51f845621b90374fc81e",
        ("channel", "--kind", "tunnel", "--length-qubits", "7", "--lambda", "1e-5",
         "--threshold", "1e-5"):
            "12ae35c2561c65a4f225a5161e9631c8827c74c3fe9c9d4427635c62c30b15e2",
        ("channel", "--kind", "teleport"):
            "813c73c3c6b3ad65e332a4b5a9b5fa4f289a72f5e17fe532c726f142860e996f",
        ("channel", "--kind", "teleport", "--distance-m", "0.01"):
            "7e4047c04cfb2a31f0c4899f580ec40f66b22a45b51ccfa4b5de333efeb1166d",
        ("channel", "--kind", "teleport", "--length-qubits", "300",
         "--purification-rounds", "2", "--threshold", "1e-5"):
            "a8e0dc65d71bf32716e4d4303b740536b2a634fa495e2eabafbf614b9a078eb0",
        ("channel", "--kind", "teleport", "--preset", "si", "--t2", "1e-3",
         "--distance-m", "0.5"):
            "4fe41e92ad10b68f935f8b93c6040867250e37ffd48625bd9b428a5fc5a45b36",
        ("channel", "--kind", "teleport", "--purification-rounds", "2000"):
            "564af86d131df83efe1468dc02a33deefcb6c291d5bf27f8c7f78aa736d62d77",
        ("resources", "--rabi-period", "2e-7", "--load-ohms", "25"):
            "f3dd802c3ea41799fbebf4c39a9a09fa670558c7a01f8a49c8831f692237e230",
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
# a noisy eight-qubit matrix run, the matrix cap: the register grows one qubit
# at a time, dots (1, 0) and (2, 1) carry their own T2, and the later idle
# windows step every qubit position 0..7 while excited, beside ground ones
MATRIX_EIGHT = {
    "schema_version": 1,
    "seed": 23,
    "material": {"preset": "inas", "noise": {"enabled": True, "T1": 2e-6, "T2": 1.5e-6}},
    "array": {"width": 4, "height": 3, "representation": "matrix",
              "dots": [*({"pos": [x, 2], "role": "readout"} for x in range(4)),
                       {"pos": [1, 0], "t2_override": 4e-7},
                       {"pos": [2, 1], "t2_override": 9e-7}]},
    "program": [
        {"op": "init", "pos": [0, 0]},
        {"op": "gate", "kind": "H", "targets": [[0, 0]]},
        *({"op": "init", "pos": [x, 0]} for x in (1, 2, 3)),
        {"op": "gate", "kind": "CNOT", "targets": [[0, 0], [1, 0]]},
        {"op": "gate", "kind": "CNOT", "targets": [[2, 0], [3, 0]]},
        {"op": "gate", "kind": "X", "targets": [[2, 0]]},
        *({"op": "init", "pos": [x, 1]} for x in range(4)),
        {"op": "gate", "kind": "Rot", "targets": [[2, 1]], "axis": [0.4, -1, 0.2], "angle": 2.3},
        {"op": "gate", "kind": "S", "targets": [[1, 0]]},
        {"op": "gate", "kind": "CNOT", "targets": [[1, 0], [1, 1]]},
        {"op": "coupling_window", "a": [2, 1], "b": [3, 1], "theta": 1.7},
        {"op": "idle", "t": 3e-7},
        {"op": "gate", "kind": "Y", "targets": [[0, 1]]},
        {"op": "gate", "kind": "CNOT", "targets": [[2, 0], [3, 0]]},
        {"op": "gate", "kind": "T", "targets": [[2, 0]]},
        {"op": "idle", "t": 1.2e-6},
        {"op": "readout", "qubit": [0, 0], "readout": [0, 2]},
        {"op": "readout", "qubit": [1, 1], "readout": [1, 2]},
        {"op": "readout", "qubit": [2, 1], "readout": [2, 2]},
        {"op": "readout", "qubit": [3, 0], "readout": [3, 2]},
    ],
}
BELL_MISREAD = {**BELL, "seed": 2**32 + 5, "material": {"preset": "inas", "readout_error": 0.1}}
# a noisy six-qubit matrix run whose excited block grows and shrinks: an init
# after X and H (its |1> rows hold -0.0), a one-qubit gate on a ground qubit,
# two-qubit gates and exchange windows between excited and ground qubits
MATRIX_BLOCK = {
    "schema_version": 1,
    "seed": 37,
    "material": {"preset": "inas", "noise": {"enabled": True, "T1": 2e-6, "T2": 1e-6}},
    "array": {"width": 4, "height": 3, "representation": "matrix",
              "dots": [{"pos": [0, 2], "role": "readout"}, {"pos": [1, 2], "role": "readout"},
                       {"pos": [1, 1], "t2_override": 5e-7}]},
    "program": [
        *({"op": "init", "pos": [x, 0]} for x in range(4)),
        {"op": "gate", "kind": "X", "targets": [[0, 0]]},
        {"op": "gate", "kind": "H", "targets": [[0, 0]]},
        {"op": "init", "pos": [0, 1]},
        {"op": "gate", "kind": "Rot", "targets": [[2, 0]], "axis": [0.3, -1, 0.8], "angle": 2.2},
        {"op": "gate", "kind": "CNOT", "targets": [[0, 0], [1, 0]]},
        {"op": "coupling_window", "a": [2, 0], "b": [3, 0], "theta": 1.3},
        {"op": "init", "pos": [1, 1]},
        {"op": "idle", "t": 2e-7},
        {"op": "gate", "kind": "T", "targets": [[1, 1]]},
        {"op": "gate", "kind": "SqrtSWAP", "targets": [[1, 0], [1, 1]]},
        {"op": "coupling_window", "a": [0, 1], "b": [1, 1], "theta": 0.7},
        {"op": "gate", "kind": "Y", "targets": [[3, 0]]},
        {"op": "idle", "t": 4e-7},
        {"op": "readout", "qubit": [0, 0], "readout": [0, 2]},
        {"op": "readout", "qubit": [2, 0], "readout": [1, 2]},
        {"op": "readout", "qubit": [1, 1], "readout": [0, 2]},
    ],
}

# the packaged teleport on a noisy matrix register; its residual exchange is
# turned down and its T2 up so that strict mode's EPR checks pass
TELEPORT_MATRIX = {
    **TELEPORT,
    "material": {"preset": "inas", "J_off": 1e-15,
                 "noise": {"enabled": True, "T1": 0.2, "T2": 0.1}},
    "array": {**TELEPORT["array"], "representation": "matrix"},
}
# two qubits, so the CNOT on both has no idle window after it; readouts split
# the shots before and after the EPR pair and the teleport
MATRIX_SPLITS = {
    "schema_version": 1,
    "seed": 41,
    "material": {"preset": "inas", "noise": {"enabled": True, "T1": 2e-6, "T2": 1e-6}},
    "array": {"width": 4, "height": 2, "representation": "matrix",
              "dots": [{"pos": [0, 1], "role": "readout"}, {"pos": [3, 1], "t2_override": 5e-7}]},
    "program": [
        {"op": "init", "pos": [0, 0]}, {"op": "init", "pos": [1, 0]},
        {"op": "gate", "kind": "H", "targets": [[0, 0]]},
        {"op": "gate", "kind": "CNOT", "targets": [[0, 0], [1, 0]]},
        {"op": "idle", "t": 3e-7},
        {"op": "readout", "qubit": [1, 0], "readout": [0, 1]},
        {"op": "gate", "kind": "Rot", "targets": [[0, 0]], "axis": [1, 0.5, 0], "angle": 1.1},
        {"op": "init", "pos": [2, 0]},
        {"op": "epr", "a": [1, 0], "b": [2, 0]},
        {"op": "move", "src": [2, 0], "dst": [3, 0]},
        {"op": "move", "src": [3, 0], "dst": [3, 1]},
        {"op": "teleport", "payload": [0, 0], "a": [1, 0], "b": [3, 1]},
        {"op": "readout", "qubit": [3, 1], "readout": [0, 1]},
    ],
}


@pytest.mark.parametrize("noise", [True, False])
def test_multi_shot_matrix_runs_match_the_full_matrix_reference(monkeypatch, noise):
    # groups of shots share an array's block through scenario._twin, and a gate
    # with no window after it leaves its block unscanned until advance ends:
    # a run must report the bits of one whose arrays keep all of rho
    scenario = copy.deepcopy(MATRIX_SPLITS)
    scenario["material"]["noise"]["enabled"] = noise
    block = dumps_report(run_scenario(scenario, shots=300))
    monkeypatch.setattr(scenario_mod, "DotArray", FullMatrixArray)
    assert dumps_report(run_scenario(scenario, shots=300)) == block
    assert len(json.loads(block)["measurement_counts"]) > 4


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
    # recorded before each excited qubit's idle step gathered its four blocks
    # into one contiguous array and a fresh qubit was tensored on without kron
    assert digest(dumps_report(run_scenario(MATRIX_EIGHT, shots=30))) == (
        "d849dc0c4b82971cec87b8cbde0725a527d4ec47717360fd73540addbf3d2e27")
    # recorded before matrix arrays stored only rho's excited block
    assert digest(dumps_report(run_scenario(MATRIX_BLOCK, shots=200))) == (
        "8896b90e38dccd3504bb1226c6dad8422ea20c2f20add2b15e018c8f3b9483fe")
    assert digest(dumps_report(run_scenario({**MATRIX_BLOCK, "strict": True}, shots=200))) == (
        "031ae956fcb857b8abf32563dce0bf86ba10b5eea7c6d21a90501e353455134a")
    # recorded before readouts, teleports and EPR checks ran on the excited block
    assert digest(dumps_report(run_scenario(TELEPORT_MATRIX, shots=200))) == (
        "ec21e9f3fc0b1492de32998aac1a82e9891f7330af461cdebf65a456df560aa1")
    assert digest(dumps_report(run_scenario({**TELEPORT_MATRIX, "strict": True}, shots=200))) == (
        "350f6ba158947d175a0bac481d26e4e76929357a25bc1ad5bf6e76346b17b739")



def _final_array(scenario):
    """Shot 0 of a scenario run step by step, returning its array."""
    material, roles, t2_overrides, steps, _ = validate_scenario(scenario)
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


# grid_transport's shape on its 48x48 grid: eight qubits, five routes and the
# teleport tail; qubit (20, 10) blocks the first route's row and the teleport
# row the last route's rectangle, so both take the breadth-first detour
GRID_DETOURS = {
    "schema_version": 1,
    "seed": 2024,
    "material": {"preset": "inas", "noise": {"enabled": True}},
    "array": {"width": 48, "height": 48, "representation": "vector",
              "dots": [{"pos": [30, 21], "role": "readout"}]},
    "program": [
        *({"op": "init", "pos": list(p)} for p in (
            (5, 10), (20, 10), (40, 30), (2, 45), (45, 2), (10, 40), (33, 5), (25, 25))),
        {"op": "route", "src": [5, 10], "dst": [40, 10]},
        {"op": "route", "src": [40, 30], "dst": [3, 44]},
        {"op": "route", "src": [45, 2], "dst": [28, 20]},
        {"op": "route", "src": [2, 45], "dst": [29, 20]},
        {"op": "route", "src": [10, 40], "dst": [30, 20]},
        {"op": "gate", "kind": "Rot", "targets": [[28, 20]], "axis": [0.3, -0.7, 1.0],
         "angle": 1.1},
        {"op": "epr", "a": [29, 20], "b": [30, 20]},
        {"op": "teleport", "payload": [28, 20], "a": [29, 20], "b": [30, 20]},
        {"op": "readout", "qubit": [30, 20], "readout": [30, 21]},
    ],
}


def test_grid_report_with_route_detours_is_pinned():
    # sha256 of the canonical report bytes, recorded before int-list paths were
    # formatted in one pass and the detour search was bounded by a box
    report = run_scenario(GRID_DETOURS)
    hops = [len(e["path"]) - 1 - sum(abs(a - b) for a, b in zip(e["path"][0], e["path"][-1]))
            for e in report["events"] if e["event"] == "route"]
    assert hops == [2, 0, 0, 0, 2]  # hops beyond the Manhattan distance
    assert digest(dumps_report(report)) == (
        "3f87e598dc5447135043291718fa103651fdfaa4a6a9f862e61b56d9e69bb520")


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


def _count_kernel_calls(monkeypatch) -> list:
    """Record (seed, shots, index, k) of each first_uniforms call the walk makes."""
    calls, kernel = [], scenario_mod.first_uniforms
    monkeypatch.setattr(scenario_mod, "first_uniforms", lambda seed, shots, index, k: calls.append(
        (seed, list(shots), index, k)) or kernel(seed, shots, index, k))
    return calls


def test_batched_shots_across_chunks_match_the_eager_shot_loop(monkeypatch):
    # chunks of 7 shots, so one group's uniforms come from several kernel calls;
    # teleport reads two columns of one batch and splits four ways, and the QEC
    # cycles draw four syndromes each; groups that split off re-read their rows
    monkeypatch.setattr(scenario_mod, "_SHOT_CHUNK", 7)
    calls = _count_kernel_calls(monkeypatch)
    for scenario, shots in ((BELL, 60), (MATRIX_MISREAD, 90), (BELL_MISREAD, 30),
                            (TELEPORT, 40), (_quiet(QEC_TWO_CYCLES), 30)):
        calls.clear()
        got = run_scenario(copy.deepcopy(scenario), shots=shots)
        want = run_shots_eagerly(copy.deepcopy(scenario), shots)
        for key in ("measurement_records", "measurement_counts", "events"):
            assert dumps_report(got[key]) == dumps_report(want[key]), key
        if scenario is TELEPORT:  # only the group of all shots pays: six chunks of 7 or fewer
            assert len(set(got["measurement_records"])) == 4
            assert [(len(shots), index, k) for _, shots, index, k in calls] == [
                (7, 6, 2)] * 5 + [(5, 6, 2)]


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
    built, calls = [], _count_kernel_calls(monkeypatch)
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: built.append(seed) or default_rng(seed))
    got = run_scenario(copy.deepcopy(scenario), shots=50)
    monkeypatch.undo()
    assert built == []  # shot 0 reads its row of the group's batch
    if readout_error == 0:
        assert calls == []
        assert got["measurement_records"] == ["1"] * 50
    else:
        # the outcome is certain, so every shot follows shot 0, each with a
        # misread drawn by one kernel call for the group, shot 0's row included;
        # the Born draw is the first uniform, the misread the second
        assert calls == [(5, list(range(50)), 2, 2)]
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
    assert unused.random(3).tolist() == twin.random(3).tolist()
    assert built == [[7, 0, 3], [7, 0, 3]]
    with pytest.raises(AttributeError, match="integers"):  # random(k) is all a stream offers
        unused.integers(3)
    built.clear()
    calls = _count_kernel_calls(monkeypatch)
    # bell draws only in its first readout: the second one's outcome is
    # certain and there is no readout error; noise is off, so no array stream
    records = run_scenario(copy.deepcopy(BELL), shots=5)["measurement_records"]
    # shot 0's first draw of the first readout runs the batched kernel once for
    # every shot, and shot 0 reads its row; shot 4, the first whose outcome
    # differs, stays with its row and runs the readout again reading it; nobody
    # draws for the certain second readout, and no generator is built
    assert records == ["00", "00", "00", "00", "11"]
    assert built == []
    assert calls == [(7, [0, 1, 2, 3, 4], 3, 1)]


def test_a_stand_in_stream_draws_only_random():
    widths = []  # the key builds the block on the first draw and on a draw past it
    rng = scenario_mod._Forced(lambda width: widths.append(width) or np.full((1, width), 0.25))
    for name in ("integers", "standard_normal", "bit_generator"):
        with pytest.raises(AttributeError, match=name):
            getattr(rng, name)
    assert not rng.built
    assert rng.random(2).tolist() == [0.25, 0.25]
    assert rng.built and rng.random(1).tolist() == [0.25]
    assert widths == [2, 3]
    with pytest.raises(AttributeError, match="integers"):  # drawn from or not
        rng.integers(3)


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


# Exit code, the one stream written and the first 16 hex digits of the sha256
# of its bytes, recorded with Python 3.11's argparse at 80 columns before a
# known subcommand was parsed by its own parser alone. Leftover arguments are
# reported under the top-level usage; a missing value, help and a missing
# required option by the subcommand's parser.
_USAGE_PINS = [
    ("resources -h", 0, "out", "6a0b245ca7170cff"),
    ("resources --bogus", 2, "err", "9e7af96220fc8014"),
    ("resources --rabi-period", 2, "err", "7c6478bd98bc14f4"),
    ("resources -- --x", 2, "err", "56eb3c5634bd88d8"),
    ("channel -h", 0, "out", "ecc36aa12e5ecd3c"),
    ("channel --bogus", 2, "err", "9e7af96220fc8014"),
    ("channel --kind", 2, "err", "b155ea9e0240df07"),
    ("channel -- --x", 2, "err", "56eb3c5634bd88d8"),
    ("teleport -h", 0, "out", "4a2e1c52c92a2689"),
    ("teleport --bogus", 2, "err", "9e7af96220fc8014"),
    ("teleport --shots", 2, "err", "b43c071963a4f2e1"),
    ("teleport -- --x", 2, "err", "56eb3c5634bd88d8"),
    ("qec -h", 0, "out", "ae1b5787b0c155e0"),
    ("qec --bogus", 2, "err", "9e7af96220fc8014"),
    ("qec --cycles", 2, "err", "d43382de88b4a867"),
    ("qec -- --x", 2, "err", "56eb3c5634bd88d8"),
    ("simulate -h", 0, "out", "da413184a0bb21d0"),
    ("simulate --bogus", 2, "err", "37acfd79e5f818ff"),
    ("simulate --scenario", 2, "err", "9e733f3ca01cfb89"),
    ("simulate -- --x", 2, "err", "37acfd79e5f818ff"),
    ("", 64, "err", "ddf277b5a97d5713"),
    ("-h", 0, "out", "09d113c3ff4823ca"),
    ("--bogus", 2, "err", "9e7af96220fc8014"),
    ("frobnicate", 64, "err", "1e066b60b07cfa37"),
    # a bare -- ends the top-level options: alone it is the bare usage, and
    # before a subcommand it prints the bytes of `qdotsim qec --cycles 3 --p 0.1`
    ("--", 64, "err", "ddf277b5a97d5713"),
    ("-- qec --cycles 3 --p 0.1", 0, "out", "d58047a2bee5e963"),
]


@pytest.mark.parametrize("argv, code, stream, pin", _USAGE_PINS,
                         ids=[argv.replace(" ", "_") or "bare" for argv, *_ in _USAGE_PINS])
def test_cli_usage_paths_are_pinned(argv, code, stream, pin, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        exit_code = cli.main(argv.split())
    except SystemExit as exc:  # argparse's help and errors
        exit_code = exc.code
    assert exit_code == code
    out, err = capsys.readouterr()
    written, empty = (out, err) if stream == "out" else (err, out)
    assert empty == "" and "Traceback" not in written
    assert digest(written)[:16] == pin


@pytest.mark.parametrize("argv", [
    ["resources", "--preset", "si", "--t2", "1e-3"],
    ["channel", "--kind", "teleport", "--length-qubits", "300", "--purification-rounds", "2"],
    ["qec", "--cycles", "200", "--p", "1e-3", "--seed", "3"],
    ["teleport", "--shots", "20"],
], ids=["resources", "channel", "qec", "teleport"])
def test_out_dir_report_is_the_stdout_bytes(argv, tmp_path, capsys):
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert out.endswith("}\n")
    assert (tmp_path / "o" / "report.json").read_bytes() == out.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]


@pytest.mark.parametrize("field, value, message", [
    ("readout_error", 1.5, "readout_error must be in [0, 1], got 1.5"),
    ("dot_pitch", 0, "dot_pitch and delta_E_orb must be positive"),
    ("classical_latency", -1, "classical_latency cannot be negative"),
])
def test_simulate_refuses_material_overrides_the_material_rejects(field, value, message,
                                                                   tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps({**BELL, "material": {"preset": "inas", field: value}}))
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err) == {"error": "schema",
                               "message": f"bad material parameters: {message}"}
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_cli_malformed_scenario_exits_2_no_outputs(tmp_path):
    bad = tmp_path / "broken.scenario"
    bad.write_text(json.dumps({"schema_version": 1}))  # no seed, no array
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(bad), "--out", str(out_dir))
    assert proc.returncode == 2
    assert not out_dir.exists()


def test_cli_integer_beyond_the_digit_limit_exits_2(tmp_path):
    # json.loads refuses an int of more than 4,300 digits with a ValueError
    # that is not a JSONDecodeError: still a malformed scenario, not a crash
    path = tmp_path / "huge_seed.scenario"
    path.write_text(json.dumps({**BELL, "seed": "SEED"}).replace('"SEED"', "9" * 5000))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "schema"
    assert "scenario is not valid JSON" in json.loads(proc.stderr)["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["simulate", "teleport"])
@pytest.mark.parametrize("bad", ["directory", "not utf-8", "output 5"])
def test_cli_unreadable_scenario_or_non_string_output_exits_2(tmp_path, monkeypatch, capsys,
                                                               command, bad):
    # read_text raised on a directory and on bytes that are not UTF-8, and an
    # "output" of 5 reached Path(5) only after simulate had run every event
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input.scenario"
    if bad == "directory":
        path.mkdir()
    elif bad == "not utf-8":
        path.write_bytes(json.dumps({**BELL, "note": "\xff"}, ensure_ascii=False).encode("latin-1"))
    else:
        path.write_text(json.dumps({**BELL, "output": 5}))
    assert cli.main([command, "--scenario", str(path)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "schema"
    assert str(path) in error["message"] if bad != "output 5" else error["message"].startswith("output")
    assert list(tmp_path.iterdir()) == [path]  # no report directory


@pytest.mark.parametrize("argv", [["resources"], ["channel"], ["teleport"], ["qec"],
                                  ["simulate", "--scenario", "bell.scenario"], ["output"]])
@pytest.mark.parametrize("under", [False, True])
def test_cli_out_path_that_cannot_be_a_directory_exits_2(tmp_path, capsys, argv, under):
    # mkdir raised FileExistsError on a regular file and NotADirectoryError
    # on a path under one, from --out and from a scenario's "output" alike;
    # the report reached stdout before the failed mkdir
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = str(afile / "x" if under else afile)
    if argv == ["output"]:
        path = tmp_path / "output.scenario"
        path.write_text(json.dumps({**BELL, "output": out}))
        argv = ["simulate", "--scenario", str(path)]
    else:
        argv = [*argv, "--out", out]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert json.loads(err)["error"] == "schema" and "Traceback" not in err
    assert out == ""
    assert afile.read_text() == "kept"


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


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda s: s.update(note={1, 2}), id="set"),
    pytest.param(lambda s: s.update(seed=10**5000), id="seed-past-the-digit-limit",
                 marks=pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                                          reason="this Python prints ints of any length")),
])
def test_a_scenario_json_cannot_hold_is_refused_before_any_event(monkeypatch, mutate):
    # both used to run every event and then raise from the report's digest
    scenario = copy.deepcopy(BELL)
    mutate(scenario)
    with pytest.raises(SchemaError, match="^scenario is not JSON data: "):
        validate_scenario(scenario)

    def no_event(*args):
        raise AssertionError("an event ran")

    monkeypatch.setattr(scenario_mod, "_run_event", no_event)
    with pytest.raises(SchemaError, match="^scenario is not JSON data"):
        run_scenario(scenario)


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
        ("channel", "--kind", "swap", "--length-qubits", str(10**400)),
        ("channel", "--kind", "teleport", "--length-qubits", str(10**400)),
        ("channel", "--kind", "teleport", "--purification-rounds", "100000000000"),
        ("channel", "--kind", "teleport", "--purification-rounds", "4097"),
        ("qec", "--pulses-per-cycle", str(10**25)),
        ("qec", "--cycles", str(2**32 + 1)),
        ("channel", "--kind", "teleport", "--distance-m", "1e10", "--purification-rounds", "2"),
    ],
    ids=["resources-t2-nan", "qec-t2-nan", "t2-inf", "t2-negative", "p-above-1",
         "p-negative", "cycles-negative", "rabi-period-power-underflow",
         "rabi-period-power-overflow", "swap-bandwidth-overflow",
         "tunnel-distance-overflow", "teleport-reach-overflow",
         "resources-t2-subnormal", "teleport-t2-subnormal",
         "rabi-period-subnormal", "qec-negative-seed", "simulate-negative-seed",
         "teleport-negative-seed", "swap-length-beyond-a-float",
         "teleport-length-beyond-a-float", "teleport-rounds-1e11", "teleport-rounds-4097",
         "qec-pulses-per-cycle-beyond-int64", "qec-cycles-beyond-2-32",
         "teleport-purification-below-threshold"],
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
        {"kind": "swap_channel", "length_qubits": 10**400},
        {"kind": "swap_channel", "t_hop": 10**400},
        {"kind": "max_distance", "thresholds": [1e-4, 10**400]},
        {"kind": "pulse_budget", "pulses_per_cycle": 10**400},
        {"kind": "teleport_bandwidth", "rounds": 4097},
        {"kind": "teleport_bandwidth", "distance_m": 1e10, "rounds": 2},
    ],
    ids=["swap-lambda-0", "pulses-per-cycle-0", "resources-power-overflow",
         "max-distance-overflow", "lambda-t2-subnormal", "resources-rabi-period-subnormal",
         "length-beyond-a-float", "t-hop-beyond-a-float", "threshold-beyond-a-float",
         "pulses-per-cycle-beyond-a-float", "rounds-above-the-cap",
         "purification-below-threshold"],
)
def test_cli_bad_analytics_value_names_the_entry(tmp_path, request_):
    scenario = copy.deepcopy(BELL)
    scenario["analytics"] = [request_]
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    message = json.loads(proc.stderr)["message"]
    assert message.startswith(f"analytics entry 0 ({request_['kind']}): ")
    assert not out_dir.exists()


@pytest.mark.parametrize("request_", [{"kind": "max_distance", "threshold": 1e-9},
                                      {"kind": "swap_channel", "length_qubit": 3}],
                         ids=["max-distance-threshold", "swap-channel-length-qubit"])
def test_cli_analytics_field_the_kind_does_not_read_exits_2(tmp_path, request_):
    # each was ignored before: the report quoted the default thresholds or 10 qubits
    scenario = copy.deepcopy(BELL)
    scenario["analytics"] = [{"kind": "resources"}, request_]
    path = tmp_path / "bad.scenario"
    path.write_text(json.dumps(scenario))
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(tmp_path / "results"))
    assert proc.returncode == 2
    field = next(key for key in request_ if key != "kind")
    assert json.loads(proc.stderr)["message"] == (
        f"analytics entry 1 ({request_['kind']}): unknown field {field!r}")
    assert not (tmp_path / "results").exists()


def test_teleport_bandwidth_takes_a_length_or_a_distance():
    scenario = copy.deepcopy(BELL)
    pitch = scenario_mod.build_material(BELL["material"]).dot_pitch
    scenario["analytics"] = [{"kind": "teleport_bandwidth", "length_qubits": 300},
                             {"kind": "teleport_bandwidth", "distance_m": 300 * pitch}]
    by_length, by_distance = run_scenario(scenario)["analytics"]
    assert by_length == by_distance
    assert by_length["report"]["length_qubits"] == 300
    scenario["analytics"] = [{"kind": "teleport_bandwidth", "distance_m": 0.01,
                              "length_qubits": 10}]
    with pytest.raises(SchemaError, match=re.escape(
            "analytics entry 0 (teleport_bandwidth) takes distance_m or length_qubits, "
            "not both")):
        run_scenario(scenario)


@pytest.mark.parametrize("argv, request_", [
    (("channel", "--kind", "tunnel", "--length-qubits", "7", "--lambda", "1e-5",
      "--threshold", "1e-5"),
     {"kind": "tunnel_channel", "length_qubits": 7, "lambda": 1e-5,
      "fidelity_threshold": 1e-5}),
    (("channel", "--kind", "teleport", "--length-qubits", "300", "--purification-rounds", "2",
      "--threshold", "1e-5"),
     {"kind": "teleport_bandwidth", "length_qubits": 300, "rounds": 2,
      "fidelity_threshold": 1e-5}),
    (("resources", "--rabi-period", "2e-7", "--load-ohms", "25"),
     {"kind": "resources", "rabi_period": 2e-7, "load_ohms": 25}),
], ids=["tunnel", "teleport", "resources"])
def test_closed_form_commands_print_their_analytics_request(argv, request_, capsys):
    # the CLI options are the kind's analytics fields, under one implementation
    assert cli.main(list(argv)) == 0
    printed = json.loads(capsys.readouterr().out)
    scenario = copy.deepcopy(BELL)
    scenario["analytics"] = [request_]
    (entry,) = json.loads(dumps_report(run_scenario(scenario)["analytics"]))
    for key, value in entry.items():
        if key != "kind":
            assert printed[key] == value


def test_cli_names_the_flag_of_a_non_finite_option():
    for flag in ("--lambda", "--threshold"):  # their dests are the fields they set
        proc = run_cli("channel", "--kind", "swap", flag, "nan")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["message"] == f"{flag} must be a finite number"


def test_every_analytics_field_a_kind_reads_validates():
    for kind, (fields, _) in scenario_mod._ANALYTICS.items():
        request = {key: [1e-4] if key == "thresholds" else 1 if key in scenario_mod._COUNTS
                   else 0.5 for key in fields}
        scenario = copy.deepcopy(BELL)
        scenario["analytics"] = [{"kind": kind, **request}]
        validate_scenario(scenario)


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


def test_cli_route_of_sub_ulp_hops_exits_4_naming_the_event(tmp_path):
    # t_hop ~2e-306 s after an init that left the clock at 2e-11 s: each hop
    # would leave the clock unchanged and book no time and no noise
    scenario = {"schema_version": 1, "seed": 1,
                "material": {"preset": "inas", "J_on": 1e290, "noise": {"enabled": True}},
                "array": {"width": 3, "height": 1},
                "program": [{"op": "init", "pos": [0, 0]},
                            {"op": "route", "src": [0, 0], "dst": [2, 0]}]}
    path = tmp_path / "sub_ulp.scenario"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "state"
    assert error["message"] == ("event 1 (route): 2.0678338483020017e-306 s is below one ulp "
                                "of the clock at 2e-11 s")
    assert not out_dir.exists()


def test_cli_strict_exchange_over_a_huge_idle_exits_4(tmp_path):
    # J_off * 1e302 s / hbar overflows to an inf pulse area: the residual
    # exchange is refused instead of turning the register into NaN
    scenario = {"schema_version": 1, "seed": 1, "strict": True,
                "array": {"width": 3, "height": 1,
                          "dots": [{"pos": [2, 0], "role": "readout"}]},
                "program": [{"op": "init", "pos": [0, 0]}, {"op": "init", "pos": [1, 0]},
                            {"op": "gate", "kind": "H", "targets": [[0, 0]]},
                            {"op": "idle", "t": 1e302},
                            {"op": "readout", "qubit": [1, 0], "readout": [2, 0]}]}
    path = tmp_path / "strict_huge_idle.scenario"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "results"
    proc = run_cli("simulate", "--scenario", str(path), "--out", str(out_dir))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"] == "state"
    assert error["message"] == "event 3 (idle): ExchangeEvolve pulse area theta must be finite"
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
    # the bundled teleport.scenario's branches, enumerated by the scenario engine
    assert [(b["phase_bit"], b["amplitude_bit"]) for b in branches] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(abs(b["probability"] - 0.25) <= 1e-12 for b in branches)
    assert abs(sum(b["probability"] for b in branches) - 1) <= 1e-12
    leaves = scenario_mod.outcome_tree(TELEPORT)
    assert [b["fidelity"] for b in branches] == [
        leaf["fidelity_checks"][-1]["payload_fidelity"] for leaf in leaves]
    # whatever --scenario names
    other = json.loads(run_cli("teleport", "--scenario", "bell.scenario").stdout)
    assert other["branch_verification"] == payload["branch_verification"]


def test_cli_teleport_takes_no_strict_flag():
    # strictness comes from the scenario's field or from simulate --strict
    proc = run_cli("teleport", "--strict")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "unrecognized arguments: --strict" in proc.stderr


def test_cli_simulate_strict_teleport_exits_3_at_the_epr_ground_check():
    # the residual exchange J_off between (0, 0) and (1, 0) acts through the
    # payload's H and S windows (a pulse area of ~0.57) and moves amplitude
    # onto the EPR qubit before make_epr checks that it is in |0>
    proc = run_cli("simulate", "--scenario", "teleport.scenario", "--strict")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr) == {
        "error": "physics", "message": "event 5 (epr): qubit at (1, 0) is not in |0>"}


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


@pytest.mark.parametrize("argv", [
    ["--cycles", "4294967296", "--p", "1e-3"],
    ["--cycles", "1", "--p", "1", "--pulses-per-cycle", "1000000"],
], ids=["cycles-cap", "million-errors"])
def test_cli_qec_time_is_constant_in_cycles_and_errors(argv):
    # the class counts are drawn at once, so the cycle cap and a million
    # errors in one round each take well under the timeout (hours once)
    proc = subprocess.run([sys.executable, "-m", "qdotsim.cli", "qec", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert sum(payload["syndrome_histogram"].values()) == payload["cycles"] == int(argv[1])


def test_cli_qec_stdout_bytes_are_pinned(capsys):
    # the first 16 hex digits of the sha256 of each stdout. The five runs that
    # draw no error (--p 0 or --cycles 0) were recorded before a known
    # subcommand was parsed by its own parser alone; the 61 with --p > 0 were
    # re-recorded when the memory experiment came to draw class counts, not
    # rounds, which changes its draws but not their distribution
    argvs = [[]]
    argvs += [["--cycles", "10", "--p", "1e-3", "--seed", str(s)] for s in range(50)]
    argvs += [["--cycles", "50", "--p", "0.02", "--seed", str(s)] for s in range(10)]
    argvs += [["--cycles", "0"], ["--p", "1", "--cycles", "3"], ["--pulses-per-cycle", "1"],
              ["--preset", "si", "--t2", "1e-3"], ["--t2", "5e-5"]]
    pins = """
    8be6552f091194c7 b99f1798dde4cc20 544feb264850520b 98c17a22b7329934 c9ce20dfd137db34
    447d5a653c1a15c5 89cb31880e148cbd 28e6bf2449952920 9c7fee44c06181bd 27de1be8baf8408f
    a6c2d094d603539d c622ba856d092bba 3852fe7fdbb0f12f 95a26f0e67b754e1 d0e25ae4d60fda39
    0640a8c1e0943915 e0a23061bc7a8724 b4d4102592588ec2 9eea39e63198253c c12fcfb10a23a4af
    79524c126cecd2a8 41b35bad1baecf8a ba2acc862c70cc74 db7cc5fb6d4cbc8d 147526ebebd4cfd0
    f2a75b29a953014c 9fa7471374fe5853 4ed017d95ce6fb5d 31027cfea4eb809d 66e9a517f7f6627d
    4af8578daae6f2de 74b00d3055266001 968751aa1178ddbd e42e371b566feaa4 a46334f8127ee062
    259efb885b6f0123 df9ff6bd7f405db9 53dfc5dd02c548eb 0598a85b56d27d33 dd56b65b3ae186e1
    53b1ae313470fcd6 45bf1cab10a231db 7692be7c9b49d340 4e6fcfda88aeb008 293e1ee192650f48
    83e58602a5c8e311 50bd30b5bae60963 fe797535534d2c90 22d316aa54d3cd21 1e33b34e7eb4a35d
    4dc3d95cfeee0c2e f196e9df34a407ca 0810ff8d05f8a4ff 2a50cb47d217dcb6 7ec49275135590f1
    af26fc5cdad0f050 0073a56129359264 ff65f4cd37ac079c 272d495315255bdb b7053f94035283b6
    7fdf728bb39adcae e6c5d2e3ac7bdb1d 11bc4f779bb238ee 3b5d8e6f350a73ab a45121f1c7225924
    04ef6cd995599b17
    """.split()
    for argv, pin in zip(argvs, pins, strict=True):
        assert cli.main(["qec", *argv]) == 0
        out, err = capsys.readouterr()
        assert err == "" and digest(out)[:16] == pin, argv


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
