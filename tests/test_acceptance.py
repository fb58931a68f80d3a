"""Acceptance criteria, one test per numbered criterion.

Each test prints a single `[criterion NN] PASS|FAIL name` line (visible with
`pytest -s` or in failure output), and each stated runtime budget is enforced
with a wall-clock check around the computation under test.
"""
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (channel_oracle, haar_state, idle_trajectory, norm_error,
                      phase_aligned_maxdiff, teleport_scenario)
from qdotsim.channels import (
    channel_lambda,
    line_report,
    max_channel_distance,
    purify_fidelity,
    teleport_bandwidth,
)
from qdotsim.device import inas_material
from qdotsim.noise import NoiseParams, idle_steps
from qdotsim.pulses import (
    drive_report,
    equal_splitting_field_ratio,
    swap_duration,
)
from qdotsim.qec import qec_cycle
from qdotsim.qstate import (
    Gate,
    QuantumState,
    apply_gate,
    exchange_unitary,
    state_fidelity,
)
from qdotsim.qstate import SWAP_MATRIX
from qdotsim.report import dumps_report
from qdotsim.scenario import load_scenario, outcome_tree, run_scenario
from test_channels import oracle_shortest_empty_path, purify_oracle, fresh_array
from test_qstate import _random_gate

MATERIAL = inas_material()


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {name}")
        raise
    print(f"[criterion {number:02d}] PASS {name}")


@contextmanager
def budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds the {seconds}s budget"


def test_criterion_01_rabi_drive_chain():
    with criterion(1, "Rabi drive chain reproduces 71 uT / 36 uA / 1.8 mV / 46 nW"):
        with budget(1.0):
            rep = drive_report(
                MATERIAL.g_factor, MATERIAL.rabi_period, MATERIAL.gate_distance, 50.0
            )
        assert rep["b_ac_tesla"] == pytest.approx(71e-6, rel=0.01)
        assert rep["i_ac_ampere"] == pytest.approx(36e-6, rel=0.02)
        assert rep["v_ac_volt"] == pytest.approx(1.8e-3, rel=0.02)
        assert rep["power_watt"] == pytest.approx(46e-9, rel=0.03)
        # the same figures must come out of the CLI surface
        proc = subprocess.run(
            [sys.executable, "-m", "qdotsim.cli", "resources", "--preset", "inas"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        drive = json.loads(proc.stdout)["drive"]
        assert drive["b_ac_tesla"] == pytest.approx(71e-6, rel=0.01)
        assert drive["i_ac_ampere"] == pytest.approx(36e-6, rel=0.02)
        assert drive["v_ac_volt"] == pytest.approx(1.8e-3, rel=0.02)
        assert drive["power_watt"] == pytest.approx(46e-9, rel=0.03)


def test_criterion_02_swap_channel_figures():
    with criterion(2, "swap channel: 1 ns latency, 1e9 bits/s, ratio 0.99999"):
        with budget(1.0):
            # the material swap window pi*hbar/(5 ueV) sits at the stated
            # 1e-10 s order of magnitude...
            t_swap = swap_duration(5e-6)
            assert 1e-10 <= t_swap < 1e-9
            # ...and the headline figures correspond to the 1e-10 s nominal
            # per-swap duration those numbers were quoted for
            report = line_report("swap", MATERIAL, 10, lam=1e-6, t_hop=1e-10)
        phys = report["physical_bandwidth_bits_per_s"]
        assert report["latency_s"] == pytest.approx(1e-9, rel=0.25)
        assert phys == pytest.approx(1e9, rel=0.25)
        assert report["true_bandwidth_bits_per_s"] / phys == pytest.approx(
            0.99999, abs=1e-6
        )


def test_criterion_03_lambda_and_max_distance():
    with criterion(3, "lambda = 1e-6 exactly; both max-distance readings printed"):
        assert channel_lambda(1e-10, 1e-4) == 1e-6  # exact float equality
        d4 = max_channel_distance(1e-6, 1e-4)
        d5 = max_channel_distance(1e-6, 1e-5)
        assert d4 == pytest.approx(100.0, rel=1e-3)
        assert d5 == pytest.approx(10.0, rel=1e-3)
        # the channel report must carry both readings plus the note
        report = line_report("swap", MATERIAL, 10, lam=1e-6, t_hop=1e-10)
        assert report["max_distance_by_threshold"]["1e-4"] == d4
        assert report["max_distance_by_threshold"]["1e-5"] == d5
        assert any("threshold 1e-5" in note for note in report["notes"])


def test_criterion_04_tunneling_channel():
    with criterion(4, "tunnel hops t_swap/10; reach 10x the swap channel"):
        with budget(1.0):
            assert MATERIAL.t_hop == pytest.approx(MATERIAL.t_swap / 10, rel=1e-12)
            t2 = MATERIAL.noise.T2
            for threshold in (1e-4, 1e-5):
                swap_reach = max_channel_distance(
                    channel_lambda(MATERIAL.t_swap, t2), threshold
                )
                tunnel_reach = max_channel_distance(
                    channel_lambda(MATERIAL.t_hop, t2), threshold
                )
                assert tunnel_reach >= 10 * swap_reach * (1 - 1e-12)
            # reach expressed in qubits exceeds one hundred
            assert max_channel_distance(
                channel_lambda(MATERIAL.t_hop, t2), 1e-4
            ) > 100


def test_criterion_05_teleportation():
    with criterion(5, "teleportation exact on all 4 branches and 100 random payloads"):
        with budget(10.0):
            rng = np.random.default_rng(505)
            worst = 1.0
            for index in range(100):  # a payload Rot(axis, angle)|0>, every branch enumerated
                leaves = outcome_tree(teleport_scenario(rng.normal(size=3),
                                                        rng.uniform(-2 * np.pi, 2 * np.pi)))
                assert [leaf["bits"] for leaf in leaves] == ["00", "01", "10", "11"]
                assert all(abs(leaf["probability"] - 0.25) <= 1e-10 for leaf in leaves)
                worst = min(worst, *(leaf["fidelity_checks"][-1]["payload_fidelity"]
                                     for leaf in leaves))
            assert worst > 1 - 1e-9


def test_criterion_06_purification():
    with criterion(6, "purification matches the two-pair oracle and is monotone"):
        with budget(10.0):
            f_rec, p_rec = purify_fidelity(0.9)
            f_orc, p_orc = purify_oracle(0.9)
            assert abs(f_rec - f_orc) < 1e-9
            assert abs(p_rec - p_orc) < 1e-9
            grid = np.linspace(0.5, 1.0, 1002, endpoint=False)[1:]
            assert all(purify_fidelity(float(F))[0] > F for F in grid)


def test_criterion_07_teleport_bandwidth():
    with criterion(7, "1 cm teleport bandwidth within 3x of 1.65e8 bits/s"):
        report = teleport_bandwidth(0.01, MATERIAL, purification_rounds=0)
        bw = report["true_bandwidth_bits_per_s"]
        assert 1.65e8 / 3 <= bw <= 1.65e8 * 3
        # every modeling assumption is echoed in the report
        assert len(report["assumptions"]) >= 5
        for key in ("t_hop_s", "lambda", "segment_reach_qubits",
                    "physical_pair_rate_per_s", "purification_yield",
                    "delivered_fidelity"):
            assert key in report


def test_criterion_08_qec_corrects_all_single_errors():
    with criterion(8, "5-qubit code: 15/15 single errors corrected, distance 3"):
        with budget(30.0):
            amp = np.array([1.0, np.exp(1j * np.pi / 4)], dtype=complex) / math.sqrt(2)
            base = np.zeros(32, dtype=complex)
            base[0], base[16] = amp[0], amp[1]
            reference = QuantumState(base.copy(), 5)
            block = (0, 1, 2, 3, 4)
            for pauli in "XYZ":
                for qubit in range(5):
                    state, rep, _ = qec_cycle(QuantumState(base.copy(), 5), block,
                                              [(pauli, qubit)], np.random.default_rng(8))
                    fid = state_fidelity(state, reference)
                    assert fid >= 1 - 1e-9, f"{pauli}{qubit} unrecovered: {fid}"
            # at least one weight-2 error escapes correction
            state, rep, _ = qec_cycle(QuantumState(base.copy(), 5), block,
                                      [("X", 0), ("X", 1)], np.random.default_rng(8))
            assert rep["possible_logical_error"]
            assert state_fidelity(state, reference) < 1 - 1e-3


def test_criterion_09_pulse_budget():
    with criterion(9, "500-pulse cycles fit exactly 1e4 times into T2"):
        from qdotsim.qec import pulse_budget

        budget_report = pulse_budget(MATERIAL, 500)
        assert budget_report["cycles_in_T2"] == 10_000
        assert budget_report["t_pulse_s"] == pytest.approx(2e-11)


def test_criterion_10_zeeman_ratio():
    with criterion(10, "equal-splitting field ratio 34.09 (rounded '30x')"):
        ratio = equal_splitting_field_ratio(0.44, 15.0)
        assert ratio == pytest.approx(34.09, rel=1e-3)
        # reported next to the rounded claim through the CLI
        proc = subprocess.run(
            [sys.executable, "-m", "qdotsim.cli", "resources", "--preset", "inas"],
            capture_output=True, text=True,
        )
        zeeman = json.loads(proc.stdout)["zeeman"]
        assert zeeman["field_ratio_gaas_over_inas_bulk"] == pytest.approx(
            34.0909, rel=1e-3
        )
        assert "30x" in zeeman["note"]


def test_criterion_11a_unitarity_and_trace_preservation(rng):
    with criterion(11, "property: norm/trace error < 1e-9 over 1000 random gates"):
        psi = haar_state(4, rng)
        for _ in range(1000):
            psi = apply_gate(psi, _random_gate(rng, 4))
        assert norm_error(psi) < 1e-9


def test_criterion_11b_trajectory_channel_convergence():
    with criterion(11, "property: trajectory error shrinks like 1/sqrt(N)"):
        params = NoiseParams(T1=200e-6, T2=100e-6, enabled=True)
        plus = apply_gate(QuantumState.zero(1), Gate("H", (0,)))
        exact = channel_oracle(plus.to_density(), 100e-6, idle_steps(params, {0: None})).data
        errors = {}
        for n in (100, 1000, 10_000):
            acc = np.zeros((2, 2), dtype=complex)
            for i in range(n):
                out = idle_trajectory(plus, [100e-6], params, seed=[1106, i])
                acc += np.outer(out.data, out.data.conj())
            errors[n] = float(np.max(np.abs(acc / n - exact)))
        assert errors[10_000] < errors[100] / 3
        slope = (math.log(errors[10_000]) - math.log(errors[100])) / math.log(100)
        assert -0.9 < slope < -0.1


def test_criterion_11c_routing_against_bruteforce():
    with criterion(11, "property: routing equals brute force on 1e3 random grids"):
        from qdotsim.channels import plan_tunnel_route
        from qdotsim.errors import RoutingError

        rng = np.random.default_rng(1111)
        for _ in range(1000):
            w = int(rng.integers(2, 7))
            h = int(rng.integers(2, 7))
            cells = [(x, y) for x in range(w) for y in range(h)]
            rng.shuffle(cells)
            n_occ = int(rng.integers(1, min(11, len(cells) - 1)))
            occupied = [tuple(c) for c in cells[:n_occ]]
            empties = [tuple(c) for c in cells[n_occ:]]
            src = occupied[int(rng.integers(len(occupied)))]
            dst = empties[int(rng.integers(len(empties)))]
            array = fresh_array(w, h, occupied=occupied)
            expected = oracle_shortest_empty_path(array, src, dst)
            if expected is None:
                with pytest.raises(RoutingError):
                    plan_tunnel_route(array, src, dst)
            else:
                assert len(plan_tunnel_route(array, src, dst)) - 1 == expected


def test_criterion_11d_exchange_pi_equals_swap():
    with criterion(11, "property: exchange at pi equals SWAP up to global phase"):
        assert phase_aligned_maxdiff(exchange_unitary(math.pi), SWAP_MATRIX) < 1e-12


def test_criterion_11e_deterministic_reports():
    with criterion(11, "property: byte-identical reports for a fixed seed"):
        scenario = load_scenario("bell.scenario")
        blobs = []
        for _ in range(2):
            report = run_scenario(scenario, shots=256)
            blobs.append(dumps_report(report))
        assert blobs[0] == blobs[1]
        counts = json.loads(blobs[0])["measurement_counts"]
        assert set(counts) <= {"00", "11"}  # perfectly correlated readouts
