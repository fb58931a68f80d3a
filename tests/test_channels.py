"""Transport channels: analytics, routing, conflicts, teleport, purification."""
import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_state, hop_oracle, kron_chain, route_oracle
from qdotsim.channels import (
    BELL_PHI_PLUS,
    channel_fidelity,
    channel_lambda,
    line_report,
    make_epr,
    max_channel_distance,
    plan_tunnel_route,
    purify_fidelity,
    run_tunnel_route,
    teleport,
    teleport_bandwidth,
    teleport_branches,
)
from qdotsim.device import DotArray, inas_material
from qdotsim.errors import ProtocolError, QdotsimError, RoutingError, StateError
from qdotsim.noise import NoiseParams
from qdotsim.qstate import (QuantumState, as_rng, qubit_probabilities, reduced_density,
                            state_fidelity)

MATERIAL = inas_material()


def fresh_array(width: int, height: int, occupied=(), roles=None, **kwargs) -> DotArray:
    array = DotArray(width, height, MATERIAL, roles=roles or {}, **kwargs)
    for pos in occupied:
        array.init_qubit(pos)
    return array


# ---------------------------------------------------------------------------
# the error model
# ---------------------------------------------------------------------------

def test_channel_lambda_headline_value():
    assert channel_lambda(1e-10, 1e-4) == 1e-6  # exact
    assert channel_lambda(1e-4, 1e-4) == 1.0
    assert channel_lambda(0.0, 1e-4) == 0.0


def test_channel_fidelity_values():
    assert channel_fidelity(1e-6, 0) == 1.0
    assert abs(channel_fidelity(1e-6, 10) - 0.99999) < 1e-7


@given(d1=st.integers(0, 10_000), d2=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_channel_fidelity_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    assert channel_fidelity(1e-6, hi) <= channel_fidelity(1e-6, lo)


def test_max_distance_both_thresholds():
    assert max_channel_distance(1e-6, 1e-4) == pytest.approx(100.005, rel=1e-4)
    assert max_channel_distance(1e-6, 1e-5) == pytest.approx(10.00005, rel=1e-4)


# ---------------------------------------------------------------------------
# swap channel figures
# ---------------------------------------------------------------------------

def test_swap_channel_headline_figures():
    report = line_report("swap", MATERIAL, 10, lam=1e-6, t_hop=1e-10)
    phys = report["physical_bandwidth_bits_per_s"]
    assert report["latency_s"] == pytest.approx(1e-9, rel=1e-12)
    assert phys == pytest.approx(1e9, rel=1e-12)
    assert report["true_bandwidth_bits_per_s"] == pytest.approx(9.9999e8, rel=1e-6)
    assert report["true_bandwidth_bits_per_s"] / phys == pytest.approx(0.99999, abs=1e-6)
    assert report["max_distance_by_threshold"]["1e-4"] == pytest.approx(100.0, rel=1e-3)
    assert report["max_distance_by_threshold"]["1e-5"] == pytest.approx(10.0, rel=1e-3)
    assert any("threshold" in note for note in report["notes"])


def test_swap_channel_material_refined_hop():
    t_swap = MATERIAL.t_swap
    lam = channel_lambda(t_swap, MATERIAL.noise.T2)
    report = line_report("swap", MATERIAL, 10, lam=lam, t_hop=t_swap)
    assert report["latency_s"] == pytest.approx(10 * t_swap, rel=1e-12)
    # within the order of magnitude of the 1 ns headline figure
    assert 1e-9 <= report["latency_s"] < 1e-8


def test_channel_spec_validation():
    with pytest.raises(StateError):
        line_report("swap", MATERIAL, 10, lam=2.0)
    with pytest.raises(StateError):
        line_report("hover", MATERIAL, 10)


# ---------------------------------------------------------------------------
# tunneling channel
# ---------------------------------------------------------------------------

def test_tunnel_hop_is_ten_times_faster():
    assert MATERIAL.t_hop == pytest.approx(MATERIAL.t_swap / 10, rel=1e-12)


def test_tunnel_reach_is_ten_times_swap_reach():
    t2 = MATERIAL.noise.T2
    lam_swap = channel_lambda(MATERIAL.t_swap, t2)
    lam_tunnel = channel_lambda(MATERIAL.t_hop, t2)
    for threshold in (1e-4, 1e-5):
        swap_reach = max_channel_distance(lam_swap, threshold)
        tunnel_reach = max_channel_distance(lam_tunnel, threshold)
        assert tunnel_reach == pytest.approx(10 * swap_reach, rel=1e-12)
        assert tunnel_reach >= 10 * swap_reach * (1 - 1e-12)


# ---------------------------------------------------------------------------
# route planning
# ---------------------------------------------------------------------------

def oracle_shortest_empty_path(array: DotArray, src, dst) -> int | None:
    """Independent breadth-first search; returns hop count or None."""
    def free(pos):
        return (0 <= pos[0] < array.width and 0 <= pos[1] < array.height
                and pos not in array.qubit_positions
                and array.roles.get(pos, "empty") != "readout")

    dist = {src: 0}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if cur == dst:
            return dist[cur]
        for dx, dy in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            nxt = (cur[0] + dx, cur[1] + dy)
            if nxt not in dist and free(nxt):
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return None


def test_straight_line_route():
    array = fresh_array(5, 1, occupied=[(0, 0)])
    path = plan_tunnel_route(array, (0, 0), (4, 0))
    assert path == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    assert len(path) - 1 == 4  # Manhattan distance


def test_route_blocked_destination():
    array = fresh_array(2, 2, occupied=[(0, 0), (1, 0), (0, 1)])
    with pytest.raises(RoutingError):
        plan_tunnel_route(array, (0, 0), (1, 0))  # occupied dst


def test_route_fully_walled_off():
    array = fresh_array(3, 3, occupied=[(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(RoutingError):
        plan_tunnel_route(array, (0, 0), (2, 2))


def test_route_through_wall_gap():
    # wall on x = 2 with a single gap at (2, 4): the route must detour
    wall = [(2, 0), (2, 1), (2, 2), (2, 3)]
    array = fresh_array(5, 5, occupied=[(0, 2)] + wall)
    path = plan_tunnel_route(array, (0, 2), (4, 2))
    assert path[0] == (0, 2) and path[-1] == (4, 2)
    assert (2, 4) in path
    oracle_len = oracle_shortest_empty_path(array, (0, 2), (4, 2))
    assert len(path) - 1 == oracle_len == 8


def test_route_deterministic_tie_break():
    # two equal-length routes exist; +x is preferred before +y
    array = fresh_array(3, 3, occupied=[(0, 0)])
    path = plan_tunnel_route(array, (0, 0), (1, 1))
    assert path == [(0, 0), (1, 0), (1, 1)]
    for _ in range(5):
        assert plan_tunnel_route(array, (0, 0), (1, 1)) == path


def test_route_against_bruteforce_on_random_grids():
    rng = np.random.default_rng(777)
    checked = 0
    for _ in range(1000):
        w = int(rng.integers(2, 7))
        h = int(rng.integers(2, 7))
        cells = [(x, y) for x in range(w) for y in range(h)]
        rng.shuffle(cells)
        n_occ = int(rng.integers(1, min(11, len(cells) - 1)))
        occupied = [tuple(c) for c in cells[:n_occ]]
        empties = [tuple(c) for c in cells[n_occ:]]
        dst = empties[int(rng.integers(len(empties)))]
        src = occupied[int(rng.integers(len(occupied)))]
        array = fresh_array(w, h, occupied=occupied)
        expected = oracle_shortest_empty_path(array, src, dst)
        if expected is None:
            with pytest.raises(RoutingError):
                plan_tunnel_route(array, src, dst)
        else:
            path = plan_tunnel_route(array, src, dst)
            assert len(path) - 1 == expected
            assert path[0] == src and path[-1] == dst
            for pos in path[1:]:
                assert pos not in array.qubit_positions
        checked += 1
    assert checked == 1000


@given(width=st.integers(1, 12), height=st.integers(1, 12), data=st.data())
@settings(max_examples=200, deadline=None)
def test_route_equals_the_oracle_on_random_grids(width, height, data):
    # same path, or the same error, with random occupied and readout dots
    cells = [(x, y) for y in range(height) for x in range(width)]
    kinds = data.draw(st.lists(st.integers(0, 9), min_size=len(cells),
                               max_size=len(cells)))
    occupied = [c for c, k in zip(cells, kinds) if k < 3]
    roles = {c: "readout" for c, k in zip(cells, kinds) if k == 3}
    array = DotArray(width, height, MATERIAL, roles=roles)
    # the planner reads only the occupancy record, so set it directly rather
    # than load more qubits than a register holds
    array.qubit_positions = occupied
    src = data.draw(st.sampled_from(occupied + cells))
    dst = data.draw(st.sampled_from(cells))

    def outcome(plan):
        try:
            return plan(array, src, dst)
        except (RoutingError, StateError) as exc:
            return type(exc)

    assert outcome(plan_tunnel_route) == outcome(route_oracle)


def planned(plan, array, src, dst):
    """plan's path, or the type and message of its error."""
    try:
        return plan(array, src, dst)
    except QdotsimError as exc:
        return type(exc), str(exc)


@given(width=st.integers(1, 48), height=st.integers(1, 48), data=st.data())
@settings(max_examples=200, deadline=None)
def test_route_equals_the_oracle_on_large_sparse_grids(width, height, data):
    # scattered qubits and readout dots, and sometimes a wall of readout dots
    # with one gap, so both the monotone walk and the breadth-first fallback run
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    occupied = data.draw(st.lists(cell, min_size=1, max_size=40, unique=True))
    roles = {c: "readout" for c in data.draw(st.lists(cell, max_size=40))}
    if data.draw(st.booleans()):
        x, gap = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, height - 1))
        roles.update({(x, y): "readout" for y in range(height) if y != gap})
    array = DotArray(width, height, MATERIAL, roles=roles)
    array.qubit_positions = occupied  # the planner reads only the occupancy record
    src = data.draw(st.sampled_from(occupied))
    dst = data.draw(cell)
    assert planned(plan_tunnel_route, array, src, dst) == planned(route_oracle, array, src, dst)


@pytest.mark.parametrize("occupied, readouts, dst, path", [
    # monotone: the +x walk dead-ends at (2, 0) and backs out to (1, 0)
    ([(0, 0), (3, 0), (2, 1)], [], (3, 2),
     [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2), (3, 2)]),
    # a wall on x = 1 but for y = 2 forces a detour: the breadth-first fallback
    ([(0, 0)], [(1, 0), (1, 1)], (2, 0),
     [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0)]),
    # a -x/+y route: +y ranks before -x
    ([(3, 0)], [], (0, 2), [(3, 0), (3, 1), (3, 2), (2, 2), (1, 2), (0, 2)]),
])
def test_route_branches_take_the_lexicographically_first_shortest_path(
        occupied, readouts, dst, path):
    array = DotArray(4, 3, MATERIAL, roles={c: "readout" for c in readouts})
    array.qubit_positions = occupied
    assert plan_tunnel_route(array, occupied[0], dst) == path
    assert route_oracle(array, occupied[0], dst) == path


T_HOP = MATERIAL.t_hop


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_run_tunnel_route_equals_one_move_per_hop(data):
    # the path, the register's bytes, clock, energy, positions and generator
    # state, or the same error: vector and matrix registers, ground,
    # signed-zero and excited ones, T2 down to one hop so that Z flips fire
    # mid-route, T2 overrides on the path and off it, strict on and off, noise
    # off, empty sources, bad destinations and readout walls with one gap
    # that the breadth-first search detours round
    width, height = data.draw(st.integers(2, 8)), data.draw(st.integers(1, 8))
    cells = [(x, y) for y in range(height) for x in range(width)]
    qubits = data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4, unique=True))
    empty = [c for c in cells if c not in qubits]
    readouts = data.draw(st.lists(st.sampled_from(empty), max_size=3, unique=True)) if empty else []
    if data.draw(st.booleans()):
        x, gap = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, height - 1))
        readouts += [(x, y) for y in range(height) if y != gap and (x, y) in empty]
    roles = {c: "readout" for c in readouts}
    src = data.draw(st.sampled_from(qubits + empty[:1]))
    dst = data.draw(st.sampled_from(empty + [(-1, 0)]))
    probe = DotArray(width, height, MATERIAL, roles=roles)
    probe.qubit_positions = qubits  # the planner reads only the occupancy record
    path = planned(route_oracle, probe, src, dst)
    on_path = path[1:] if isinstance(path, list) else []
    t2 = 10 ** data.draw(st.floats(math.log10(T_HOP), -6))
    t1 = t2 * data.draw(st.floats(0.5, 100))
    overrides = {c: 2 * t1 * 10 ** -data.draw(st.floats(0, 5))
                 for c in data.draw(st.lists(st.sampled_from(on_path + cells), max_size=6))}
    material = replace(MATERIAL, noise=NoiseParams(T1=t1, T2=t2, enabled=data.draw(
        st.sampled_from([True, True, False]))))
    strict, seed = data.draw(st.booleans()), data.draw(st.integers(0, 2**32))
    representation = data.draw(st.sampled_from(["vector", "matrix"]))
    register = data.draw(st.sampled_from(["ground", "signed zeros", "gates"]))
    gates = data.draw(st.lists(st.tuples(st.sampled_from(["X", "H", "Z", "S"]),
                                         st.sampled_from(qubits)), min_size=1, max_size=2)
                      ) if register == "gates" else []
    phase = data.draw(st.sampled_from([1, -1, 1j, -1j])) if register != "ground" else 1
    signed = data.draw(st.lists(st.integers(0, 2**(len(qubits) + 1) - 1), max_size=3)
                       ) if register != "ground" else []

    def build() -> DotArray:
        # prepared without noise, so that short-T2 routes can start from clean zeros
        quiet = replace(material, noise=replace(material.noise, enabled=False))
        array = DotArray(width, height, quiet, strict=strict, seed=seed, roles=roles,
                         t2_overrides=overrides, representation=representation)
        for q in qubits:
            array.init_qubit(q)
        for kind, q in gates:
            array.apply_gate_at(kind, [q])
        array.material = material
        data = array.state.data * phase if representation == "vector" else array.state.data
        parts = data.reshape(-1).view(np.float64)  # real and imaginary parts
        parts[[i for i in signed if parts[i] == 0]] = -0.0
        array.state = QuantumState(parts.view(complex).reshape(data.shape), len(qubits))
        return array

    def outcome(run) -> tuple:
        array = build()
        try:
            result = run(array, src, dst)
        except QdotsimError as exc:
            result = type(exc), str(exc)
        return (result, array.state.data.tobytes(), array.clock, array.energy,
                array.qubit_positions, as_rng(array._rng).bit_generator.state)

    assert outcome(run_tunnel_route) == outcome(
        lambda array, src, dst: hop_oracle(array, route_oracle(array, src, dst)))


def test_run_tunnel_route_moves_qubit():
    array = fresh_array(4, 1, occupied=[(0, 0)])
    array.apply_gate_at("H", [(0, 0)])
    before = QuantumState(array.state.data.copy(), 1)
    path = run_tunnel_route(array, (0, 0), (3, 0))
    assert path == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert (3, 0) in array.qubit_positions and (0, 0) not in array.qubit_positions
    assert state_fidelity(array.state, before) > 1 - 1e-12
    # a noisy hop's no-jump division by 1 rewrites -1-0j as -1+0j, as move_electron's does
    array = DotArray(21, 1, replace(MATERIAL, noise=NoiseParams(enabled=True))).init_qubit((0, 0))
    array.state = QuantumState(np.array([complex(-1.0, -0.0), 0j]), 1)
    run_tunnel_route(array, (0, 0), (20, 0))
    assert array.state.data.view(np.float64).tolist() == [-1.0, 0.0, 0.0, 0.0]
    assert not np.signbit(array.state.data[0].imag)


# ---------------------------------------------------------------------------
# EPR creation
# ---------------------------------------------------------------------------

def test_make_epr_bell_state():
    array = fresh_array(2, 1, occupied=[(0, 0), (1, 0)])
    make_epr(array, (0, 0), (1, 0))
    target = QuantumState.from_vector(BELL_PHI_PLUS)
    assert state_fidelity(array.state, target) > 1 - 1e-12


def test_make_epr_clock_accounting():
    array = fresh_array(2, 1, occupied=[(0, 0), (1, 0)])
    t0 = array.clock
    make_epr(array, (0, 0), (1, 0))
    expected = MATERIAL.rabi_period / 2 + MATERIAL.t_swap
    assert array.clock - t0 == pytest.approx(expected, rel=1e-12)


def test_make_epr_with_dephasing_bound():
    noise = NoiseParams(T1=1e3, T2=100e-6, enabled=True)
    array = DotArray(2, 1, inas_material(noise), representation="matrix")
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    t0 = array.clock
    make_epr(array, (0, 0), (1, 0))
    t_gates = array.clock - t0
    target = QuantumState.from_vector(BELL_PHI_PLUS)
    fidelity = state_fidelity(array.state, target)
    assert fidelity >= 1 - t_gates / noise.T2
    assert fidelity < 1.0


def test_make_epr_strict_requires_ground_state():
    array = fresh_array(2, 1, occupied=[(0, 0), (1, 0)], strict=True)
    make_epr(array, (0, 0), (1, 0))
    with pytest.raises(ProtocolError):
        make_epr(array, (0, 0), (1, 0))  # no reset in between


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------

def teleport_setup(payload_gates=()) -> DotArray:
    array = fresh_array(3, 1, occupied=[(0, 0), (1, 0), (2, 0)])
    for kind in payload_gates:
        array.apply_gate_at(kind, [(0, 0)])
    make_epr(array, (1, 0), (2, 0))
    return array


def test_teleport_zero_payload_all_seeds():
    for seed in range(24):
        array = teleport_setup()
        report, _ = teleport(array, (0, 0), (1, 0), (2, 0), seed)
        rho_b = reduced_density(array.state, [array.qubit_index((2, 0))])
        assert rho_b[0, 0].real > 1 - 1e-10
        assert report["payload_fidelity"] > 1 - 1e-10


def test_teleport_plus_i_payload_seeded_runs():
    # payload (|0> + i|1>)/sqrt(2) prepared as S(H|0>)
    expected = np.array([1, 1j], dtype=complex) / math.sqrt(2)
    branches_seen = set()
    for seed in range(1000):
        array = teleport_setup(payload_gates=("H", "S"))
        report, _ = teleport(array, (0, 0), (1, 0), (2, 0), seed)
        rho_b = reduced_density(array.state, [array.qubit_index((2, 0))])
        fid = float(np.real(expected.conj() @ rho_b @ expected))
        assert fid > 1 - 1e-10
        branches_seen.add((report["phase_bit"], report["amplitude_bit"]))
    assert branches_seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_teleport_exhaustive_branches_random_payloads(rng):
    for _ in range(100):
        payload = haar_state(1, rng)
        branches = teleport_branches(payload)
        assert len(branches) == 4
        total_p = sum(b["probability"] for b in branches)
        assert total_p == pytest.approx(1.0, abs=1e-10)
        for b in branches:
            assert b["probability"] == pytest.approx(0.25, abs=1e-10)
            assert b["fidelity"] > 1 - 1e-9


def test_teleport_destroys_payload():
    array = teleport_setup(payload_gates=("H",))
    teleport(array, (0, 0), (1, 0), (2, 0), 5)
    rho_c = reduced_density(array.state, [array.qubit_index((0, 0))])
    # after the X-basis measurement the payload qubit is in |+> or |->,
    # carrying no amplitude information
    probs = np.real(np.diag(rho_c))
    assert probs == pytest.approx([0.5, 0.5], abs=1e-10)


@pytest.mark.parametrize("with_pair", [True, False])
def test_teleport_draws_exactly_two_doubles(with_pair):
    # without the pair a |0> payload leaves the amplitude qubit at p1 = 0.0
    # exactly: that outcome is certain, and still costs its draw
    array = fresh_array(3, 1, occupied=[(0, 0), (1, 0), (2, 0)])
    if with_pair:
        make_epr(array, (1, 0), (2, 0))
    else:
        probe = fresh_array(3, 1, occupied=[(0, 0), (1, 0), (2, 0)])
        probe.apply_gate_at("CNOT", [(0, 0), (1, 0)])
        assert qubit_probabilities(probe.state, 1)[1] == 0.0
    rng, ahead = np.random.default_rng(8), np.random.default_rng(8)
    ahead.random(2)
    teleport(array, (0, 0), (1, 0), (2, 0), rng)
    assert rng.bit_generator.state == ahead.bit_generator.state


def test_teleport_strict_requires_epr_pair():
    array = fresh_array(3, 1, occupied=[(0, 0), (1, 0), (2, 0)], strict=True)
    with pytest.raises(ProtocolError):
        teleport(array, (0, 0), (1, 0), (2, 0), 0)


def test_teleport_needs_distinct_qubits():
    array = teleport_setup()
    with pytest.raises(StateError):
        teleport(array, (0, 0), (1, 0), (1, 0), 0)


def test_teleport_classical_latency_adds_idle_window():
    elapsed = []
    for latency in (0.0, 1e-5):
        material = inas_material().__class__(
            **{**inas_material().__dict__, "classical_latency": latency}
        )
        array = DotArray(3, 1, material)
        for x in range(3):
            array.init_qubit((x, 0))
        make_epr(array, (1, 0), (2, 0))
        t0 = array.clock
        teleport(array, (0, 0), (1, 0), (2, 0), 0)
        elapsed.append(array.clock - t0)
    assert elapsed[1] - elapsed[0] == pytest.approx(1e-5, rel=1e-9)
    assert elapsed[1] > 1e-5


# ---------------------------------------------------------------------------
# purification
# ---------------------------------------------------------------------------

def bell_vectors():
    s2 = 1 / math.sqrt(2)
    phi_p = np.array([s2, 0, 0, s2], dtype=complex)
    phi_m = np.array([s2, 0, 0, -s2], dtype=complex)
    psi_p = np.array([0, s2, s2, 0], dtype=complex)
    psi_m = np.array([0, s2, -s2, 0], dtype=complex)
    return phi_p, phi_m, psi_p, psi_m


def werner(F: float) -> np.ndarray:
    phi_p, phi_m, psi_p, psi_m = bell_vectors()
    rho = F * np.outer(phi_p, phi_p.conj())
    for v in (phi_m, psi_p, psi_m):
        rho += (1 - F) / 3 * np.outer(v, v.conj())
    return rho


def purify_oracle(F: float) -> tuple[float, float]:
    """Two-pair density-matrix simulation of one recurrence round.

    Register order (a1, b1, a2, b2); bilateral CNOT a1->a2 and b1->b2,
    then both target-pair qubits are measured in Z and the pair is kept
    when the outcomes agree."""
    rho_pair = werner(F)
    # reorder pair tensor (a1, b1) x (a2, b2) -> (a1, b1, a2, b2)
    rho = np.kron(rho_pair, rho_pair)
    dim = 16

    def cnot_on(control, target):
        ops = [np.eye(2, dtype=complex)] * 4
        full = np.zeros((dim, dim), dtype=complex)
        for control_bit, proj in enumerate(
            (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        ):
            ops_c = list(ops)
            ops_c[control] = proj.astype(complex)
            if control_bit:
                ops_c[target] = np.array([[0, 1], [1, 0]], dtype=complex)
            full += kron_chain(*ops_c)
        return full

    u = cnot_on(1, 3) @ cnot_on(0, 2)
    rho = u @ rho @ u.conj().T
    keep = np.zeros((dim, dim), dtype=complex)
    for a2 in (0, 1):
        for b2 in (0, 1):
            if a2 != b2:
                continue
            proj = kron_chain(
                np.eye(2), np.eye(2),
                np.diag([1 - a2, a2]).astype(complex),
                np.diag([1 - b2, b2]).astype(complex),
            )
            keep += proj @ rho @ proj
    p_success = float(np.real(np.trace(keep)))
    kept = keep / p_success
    reduced = kept.reshape(2, 2, 2, 2, 2, 2, 2, 2)
    reduced = np.einsum("abcdefcd->abef", reduced).reshape(4, 4)
    phi_p = bell_vectors()[0]
    f_out = float(np.real(phi_p.conj() @ reduced @ phi_p))
    return f_out, p_success


def test_purify_perfect_pairs_are_fixed():
    f_out, p = purify_fidelity(1.0)
    assert f_out == pytest.approx(1.0, abs=1e-12)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_purify_09_matches_density_matrix_oracle():
    f_rec, p_rec = purify_fidelity(0.9)
    f_orc, p_orc = purify_oracle(0.9)
    assert f_rec == pytest.approx(f_orc, abs=1e-9)
    assert p_rec == pytest.approx(p_orc, abs=1e-9)
    assert f_rec == pytest.approx(0.92639594, abs=1e-7)


def test_purify_fixed_point_at_half():
    f_rec, _ = purify_fidelity(0.5)
    f_orc, _ = purify_oracle(0.5)
    assert f_rec == pytest.approx(0.5, abs=1e-12)
    assert f_orc == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("F", [0.55, 0.7, 0.85, 0.99])
def test_purify_recurrence_matches_oracle(F):
    f_rec, p_rec = purify_fidelity(F)
    f_orc, p_orc = purify_oracle(F)
    assert f_rec == pytest.approx(f_orc, abs=1e-9)
    assert p_rec == pytest.approx(p_orc, abs=1e-9)


def test_purify_monotone_on_grid():
    grid = np.linspace(0.5, 1.0, 1000, endpoint=False)[1:]
    for F in grid:
        f_out, _ = purify_fidelity(float(F))
        assert f_out > F


def test_purify_below_threshold_reported():
    with pytest.raises(ProtocolError):
        purify_fidelity(0.25)


# ---------------------------------------------------------------------------
# teleportation bandwidth
# ---------------------------------------------------------------------------

def test_teleport_bandwidth_degenerate_equals_tunnel():
    report = teleport_bandwidth(1e-6, MATERIAL, purification_rounds=0)
    lam = channel_lambda(MATERIAL.t_hop, MATERIAL.noise.T2)
    tunnel = line_report("tunnel", MATERIAL, 10, lam=lam, t_hop=MATERIAL.t_hop)
    assert report["true_bandwidth_bits_per_s"] == pytest.approx(
        tunnel["true_bandwidth_bits_per_s"], rel=1e-12
    )


def test_teleport_bandwidth_halves_per_round_at_high_fidelity():
    # at F ~ 1 each extra round costs almost exactly a factor 2 in yield
    base = teleport_bandwidth(1e-6, MATERIAL, purification_rounds=0)
    prev = base["true_bandwidth_bits_per_s"]
    for rounds in (1, 2, 3):
        cur = teleport_bandwidth(1e-6, MATERIAL, purification_rounds=rounds)
        ratio = cur["true_bandwidth_bits_per_s"] / prev
        assert ratio == pytest.approx(0.5, rel=1e-3)
        prev = cur["true_bandwidth_bits_per_s"]


def test_teleport_bandwidth_one_cm_within_factor_three():
    report = teleport_bandwidth(0.01, MATERIAL, purification_rounds=0)
    bw = report["true_bandwidth_bits_per_s"]
    assert 1.65e8 / 3 <= bw <= 1.65e8 * 3
    assert report["length_qubits"] == 100_000
    assert len(report["assumptions"]) >= 5


def test_teleport_bandwidth_echoes_assumptions():
    report = teleport_bandwidth(0.01, MATERIAL, purification_rounds=2)
    for key in (
        "t_hop_s", "lambda", "segment_reach_qubits", "n_segments",
        "physical_pair_rate_per_s", "raw_pair_fidelity", "purification_rounds",
        "round_success_probabilities", "purification_yield", "delivered_fidelity",
    ):
        assert key in report
    assert len(report["round_success_probabilities"]) == 2
    assert report["delivered_fidelity"] > report["raw_pair_fidelity"]
