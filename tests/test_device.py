"""Dot array events: occupancy, clock accounting, noise windows, readout."""
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import norm_error
from qdotsim.constants import HBAR_EV_S
from qdotsim.device import DotArray, inas_material, si_material
from qdotsim.errors import AdjacencyError, BlockadeError, QdotsimError, StateError
from qdotsim.noise import NoiseParams
from qdotsim.qstate import Gate, QuantumState, as_rng, state_fidelity


def make_array(width=2, height=2, noise=None, **kwargs) -> DotArray:
    material = inas_material(noise)
    return DotArray(width, height, material, **kwargs)


# ---------------------------------------------------------------------------
# material presets
# ---------------------------------------------------------------------------

def test_inas_preset_values():
    m = inas_material()
    assert m.g_factor == -10.0
    assert m.delta_E_orb == pytest.approx(10e-3)
    assert m.U_charging == pytest.approx(2e-3)
    assert m.J_on == pytest.approx(5e-6)
    assert m.J_off == pytest.approx(5e-9)
    assert m.dot_pitch == pytest.approx(100e-9)
    assert m.gate_distance == pytest.approx(100e-9)
    assert m.noise.T2 == pytest.approx(100e-6)
    assert m.t_pulse == pytest.approx(2e-11)
    assert m.readout_transfer == pytest.approx(100e-12)
    assert m.readout_measure == pytest.approx(1e-9)
    assert m.t_swap == pytest.approx(math.pi * HBAR_EV_S / 5e-6, rel=1e-12)
    assert m.t_hop == pytest.approx(m.t_swap / 10, rel=1e-12)


def test_si_preset_requires_t2():
    with pytest.raises(StateError):
        si_material(None)
    m = si_material(1.0)
    assert m.g_factor == 2.0
    assert m.noise.T2 == 1.0


def test_material_invariants():
    with pytest.raises(StateError):
        inas_material().__class__(
            g_factor=-10, delta_E_orb=1e-3, U_charging=1e-3,
            J_on=1e-9, J_off=5e-6, dot_pitch=1e-7, gate_distance=1e-7,
        )


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_single_qubit_ground_state():
    array = make_array()
    array.init_qubit((0, 0))
    assert array.state.n_qubits == 1
    assert np.allclose(array.state.data, [1, 0])
    assert array.clock == pytest.approx(array.material.t_pulse)


def test_init_on_occupied_dot_is_blockaded():
    array = make_array()
    array.init_qubit((0, 0))
    with pytest.raises(BlockadeError):
        array.init_qubit((0, 0))


def test_two_inits_give_00():
    array = make_array()
    array.init_qubit((0, 0))
    array.init_qubit((0, 1))
    assert array.state.n_qubits == 2
    assert np.allclose(array.state.data, [1, 0, 0, 0])


def test_init_rejected_on_readout_dot():
    array = make_array(roles={(1, 1): "readout"})
    with pytest.raises(StateError):
        array.init_qubit((1, 1))


# ---------------------------------------------------------------------------
# moving electrons
# ---------------------------------------------------------------------------

def test_move_preserves_state_noiselessly():
    array = make_array()
    array.init_qubit((0, 0))
    array.apply_gate_at("H", [(0, 0)])
    before = QuantumState(array.state.data.copy(), 1)
    clock_before = array.clock
    array.move_electron((0, 0), (1, 0))
    assert (1, 0) in array.qubit_positions and (0, 0) not in array.qubit_positions
    assert state_fidelity(array.state, before) > 1 - 1e-12
    assert array.clock == pytest.approx(clock_before + array.material.t_hop)


def test_move_into_occupied_dot():
    array = make_array()
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    with pytest.raises(BlockadeError):
        array.move_electron((0, 0), (1, 0))


def test_move_requires_adjacency():
    array = make_array(3, 3)
    array.init_qubit((0, 0))
    with pytest.raises(AdjacencyError):
        array.move_electron((0, 0), (2, 0))
    with pytest.raises(AdjacencyError):
        array.move_electron((0, 0), (1, 1))


def test_move_from_empty_dot():
    array = make_array()
    with pytest.raises(StateError):
        array.move_electron((0, 0), (1, 0))


def test_move_with_dephasing_fidelity_bound():
    # dephasing-only noise; one hop costs at most 2*t_hop/T2 in fidelity
    noise = NoiseParams(T1=1e3, T2=100e-6, enabled=True)
    array = make_array(noise=noise, representation="matrix")
    array.init_qubit((0, 0))
    array.apply_gate_at("H", [(0, 0)])
    before = QuantumState(array.state.data.copy(), 1)
    array.move_electron((0, 0), (1, 0))
    t_hop = array.material.t_hop
    fidelity = state_fidelity(array.state, before)
    assert fidelity >= 1 - 2 * t_hop / noise.T2
    assert fidelity < 1.0  # noise did act


def test_register_size_must_match_the_qubit_map():
    array = make_array()
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    array.state = QuantumState.zero(3)
    with pytest.raises(StateError):
        array.idle(0.0)


def test_electron_number_conserved_by_moves():
    array = make_array(3, 3)
    array.init_qubit((0, 0))
    array.init_qubit((2, 2))
    n_before = len(array.qubit_positions)
    array.move_electron((0, 0), (1, 0))
    array.move_electron((1, 0), (1, 1))
    assert len(array.qubit_positions) == n_before


# ---------------------------------------------------------------------------
# coupling windows
# ---------------------------------------------------------------------------

def test_coupling_window_pi_swaps():
    array = make_array()
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    array.apply_gate_at("X", [(1, 0)])  # |01>
    array.apply_gate_at("ExchangeEvolve", [(0, 0), (1, 0)], theta=math.pi)
    target = QuantumState.from_vector([0, 0, 1, 0])
    assert state_fidelity(array.state, target) > 1 - 1e-10


def test_coupling_window_duration_value():
    array = make_array()
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    clock_before = array.clock
    array.apply_gate_at("ExchangeEvolve", [(0, 0), (1, 0)], theta=math.pi)
    duration = array.clock - clock_before
    assert duration == pytest.approx(4.13e-10, rel=0.01)
    assert duration == pytest.approx(math.pi * HBAR_EV_S / 5e-6, rel=1e-12)


def test_coupling_window_zero_theta_is_noop():
    array = make_array()
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    clock_before, before = array.clock, array.state.data.copy()
    array.apply_gate_at("ExchangeEvolve", [(0, 0), (1, 0)], theta=0.0)
    assert array.clock == clock_before
    assert np.array_equal(array.state.data, before)


def test_coupling_window_requires_adjacency_and_occupancy():
    array = make_array(3, 3)
    array.init_qubit((0, 0))
    array.init_qubit((2, 0))
    with pytest.raises(AdjacencyError):
        array.apply_gate_at("ExchangeEvolve", [(0, 0), (2, 0)], theta=math.pi)
    with pytest.raises(StateError):
        array.apply_gate_at("ExchangeEvolve", [(0, 0), (1, 0)], theta=math.pi)


def test_negative_exchange_theta_leaves_state_and_clock_unchanged():
    array = make_array()
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    array.apply_gate_at("X", [(1, 0)])  # |01>, which any exchange would move
    clock_before, before = array.clock, array.state.data.copy()
    with pytest.raises(StateError, match="negative pulse area"):
        array.apply_gate_at("ExchangeEvolve", [(0, 0), (1, 0)], theta=-1.0)
    assert array.clock == clock_before
    assert np.array_equal(array.state.data, before)


# ---------------------------------------------------------------------------
# residual off-state coupling
# ---------------------------------------------------------------------------

def test_residual_applied_in_strict_mode():
    array = make_array(strict=True)
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    array.apply_gate_at("X", [(1, 0)])  # |01>, sensitive to exchange
    before = QuantumState(array.state.data.copy(), 2)
    array.idle(1e-6)  # theta ~ 7.6 rad
    assert state_fidelity(array.state, before) < 1 - 1e-3


def _strict_pair_idled(idle_t):
    """|01> on an adjacent strict-mode pair after an X pulse, then idle_t
    seconds of idling; returns (state before the idle, array)."""
    array = make_array(strict=True)
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    array.apply_gate_at("X", [(1, 0)])
    before = array.state.data.copy()
    array.idle(idle_t)
    return before, array


def test_residual_zero_idle():
    before, array = _strict_pair_idled(0.0)
    assert np.array_equal(array.state.data, before)


def test_residual_phase_value():
    # direct evaluation of J_off*t/hbar: 5e-9 eV for 1 ns -> 7.6e-3 rad,
    # and 1 us -> 7.6 rad; strict idling applies exactly that exchange
    from qdotsim.qstate import exchange_unitary

    for idle_t, idle_theta in ((1e-9, 7.596337239980636e-3),
                               (1e-6, 7.596337239980636)):
        before, array = _strict_pair_idled(idle_t)
        assert array.material.J_off * idle_t / HBAR_EV_S == pytest.approx(
            idle_theta, rel=1e-10, abs=0.0)
        expected = exchange_unitary(idle_theta) @ before
        assert abs(np.vdot(array.state.data, expected)) ** 2 > 1 - 1e-10


def test_strict_residual_matches_exchange_model_exactly():
    # the off-state coupling accumulates theta = J_off*t/hbar on the adjacent
    # pair: ~0.38 rad during a 50 ns single-qubit pulse
    from qdotsim.qstate import exchange_unitary

    _, array = _strict_pair_idled(0.0)
    t_gate = array.material.rabi_period / 2
    theta = array.material.J_off * t_gate / HBAR_EV_S
    expected = exchange_unitary(theta) @ np.array([0, 1, 0, 0], dtype=complex)
    overlap = abs(np.vdot(array.state.data, expected)) ** 2
    assert overlap > 1 - 1e-10


def test_strict_residual_spares_the_coupled_pair():
    # the pair inside a coupling window must not also pick up J_off phase
    array = make_array(strict=True)
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    ideal = make_array(strict=False)
    ideal.init_qubit((0, 0))
    ideal.init_qubit((1, 0))
    for a in (array, ideal):
        a.state = QuantumState.from_vector([0, 1, 0, 0])
        a.apply_gate_at("ExchangeEvolve", [(0, 0), (1, 0)], theta=math.pi)
    assert state_fidelity(array.state, ideal.state) > 1 - 1e-12


def test_coupled_pair_gets_no_idle_noise_in_matrix_mode():
    # the exchange window idles only the third qubit, which is entangled with
    # the pair; local noise on it leaves the pair's reduced state exact
    from conftest import haar_state
    from qdotsim.qstate import exchange_unitary, reduced_density

    noise = NoiseParams(T1=2e-9, T2=1e-9, enabled=True)
    array = make_array(width=3, height=1, noise=noise, representation="matrix")
    for pos in ((0, 0), (1, 0), (2, 0)):
        array.init_qubit(pos)
    array.state = haar_state(3, np.random.default_rng(5)).to_density()
    pair_before = reduced_density(array.state, [0, 1])
    third_before = reduced_density(array.state, [2])
    array.apply_gate_at("ExchangeEvolve", [(0, 0), (1, 0)], theta=math.pi / 3)
    u = exchange_unitary(math.pi / 3)
    pair_after = reduced_density(array.state, [0, 1])
    assert np.max(np.abs(pair_after - u @ pair_before @ u.conj().T)) < 1e-12
    third_after = reduced_density(array.state, [2])
    assert abs(third_after[0, 1]) < abs(third_before[0, 1])  # noise did act


def test_residual_not_applied_when_lenient():
    array = make_array(strict=False)
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    array.apply_gate_at("X", [(1, 0)])
    before = QuantumState(array.state.data.copy(), 2)
    array.idle(1e-6)
    assert state_fidelity(array.state, before) > 1 - 1e-12


# ---------------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------------

def readout_array():
    return make_array(roles={(0, 1): "readout"})


def test_readout_ground_state_registers_charge():
    array = readout_array()
    array.init_qubit((0, 0))
    bit = array.readout((0, 0), (0, 1), 3)[0]
    assert bit == 0


def test_readout_excited_state_no_charge():
    array = readout_array()
    array.init_qubit((0, 0))
    array.apply_gate_at("X", [(0, 0)])
    bit = array.readout((0, 0), (0, 1), 3)[0]
    assert bit == 1


def test_readout_superposition_statistics():
    n = 10_000
    ground = 0
    rng = np.random.default_rng(17)
    array = readout_array()
    array.init_qubit((0, 0))
    array.apply_gate_at("H", [(0, 0)])
    base = array.state.data.copy()
    for _ in range(n):
        array.state = QuantumState(base.copy(), 1)
        bit = array.readout((0, 0), (0, 1), rng)[0]
        ground += 1 - bit
    sigma = math.sqrt(0.25 / n)
    assert abs(ground / n - 0.5) < 3 * sigma


def test_readout_timing():
    array = readout_array()
    array.init_qubit((0, 0))
    clock_before = array.clock
    array.readout((0, 0), (0, 1), 0)
    assert array.clock - clock_before == pytest.approx(
        array.material.readout_transfer + array.material.readout_measure
    )


def test_readout_requires_readout_role_and_vacancy():
    array = make_array()
    array.init_qubit((0, 0))
    with pytest.raises(StateError):
        array.readout((0, 0), (1, 1), 0)  # not a readout dot
    array2 = readout_array()
    array2.init_qubit((0, 0))
    with pytest.raises(StateError):
        array2.readout((1, 0), (0, 1), 0)  # no qubit there


def test_readout_error_probability():
    noise = NoiseParams(enabled=False)
    material = inas_material(noise)
    material = material.__class__(**{**material.__dict__, "readout_error": 1.0})
    array = DotArray(2, 2, material, roles={(0, 1): "readout"})
    array.init_qubit((0, 0))
    bit = array.readout((0, 0), (0, 1), 0)[0]
    assert bit == 1  # certain misread flips the ground outcome


# ---------------------------------------------------------------------------
# clock accounting
# ---------------------------------------------------------------------------

def test_clock_is_exact_sum_of_event_durations():
    array = readout_array()
    mat = array.material
    steps = [
        (lambda: array.init_qubit((0, 0)), mat.t_pulse),
        (lambda: array.init_qubit((1, 0)), mat.t_pulse),
        (lambda: array.apply_gate_at("H", [(0, 0)]),
         math.pi / (2.0 * math.pi) * mat.rabi_period),
        (lambda: array.apply_gate_at("ExchangeEvolve", [(0, 0), (1, 0)], theta=math.pi / 2),
         math.pi / 2 * HBAR_EV_S / mat.J_on),
        (lambda: array.move_electron((1, 0), (1, 1)), mat.t_hop),
        (lambda: array.idle(3.5e-8), 3.5e-8),
        (lambda: array.readout((0, 0), (0, 1), 1),
         mat.readout_transfer + mat.readout_measure),
    ]
    total, clocks = 0.0, []
    for run, duration in steps:
        run()
        total = total + duration
        clocks.append(array.clock)
    assert array.clock == total  # exact float equality, same summation order
    assert clocks == pytest.approx(np.cumsum([d for _, d in steps]).tolist())


def test_clock_monotone():
    array = make_array()
    clocks = [array.clock]
    for run in (lambda: array.init_qubit((0, 0)),
                lambda: array.apply_gate_at("H", [(0, 0)]),
                lambda: array.idle(1e-9)):
        run()
        clocks.append(array.clock)
    assert clocks == sorted(clocks)


def test_clock_and_energy_refuse_to_overflow():
    array = make_array()
    array.idle(1e308)
    with pytest.raises(StateError, match="overflow the clock"):
        array.idle(1e308)
    array.advance(0.0, energy=1e308)
    with pytest.raises(StateError, match="overflow the clock"):
        array.advance(0.0, energy=1e308)
    assert (array.clock, array.energy) == (1e308, 1e308)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
# strict residual exchange over 6e307 s has an infinite pulse area: both sides turn NaN
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_advance_of_k_windows_equals_k_advances(data):
    # the register's bytes, clock, energy and generator state, or the same
    # error after the same windows: vector and matrix registers, ground and
    # excited ones, strict on and off, noise on and off, a coupled pair or
    # none, T2 overrides, and a clock or an energy that overflows part way
    cells = [(x, y) for y in range(2) for x in range(3)]
    qubits = data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4, unique=True))
    pairs = [(a, b) for a in qubits for b in qubits if DotArray.adjacent(a, b)]
    pair = data.draw(st.sampled_from([()] + pairs))
    t1 = 1e-6
    noise = NoiseParams(T1=t1, T2=data.draw(st.floats(t1 / 40, 2 * t1)),
                        enabled=data.draw(st.booleans()))
    overrides = {c: data.draw(st.floats(t1 / 40, 2 * t1))
                 for c in data.draw(st.lists(st.sampled_from(cells), max_size=3))}
    gates = data.draw(st.lists(st.tuples(st.sampled_from(["X", "H", "S"]),
                                         st.sampled_from(qubits)), max_size=2))
    representation = data.draw(st.sampled_from(["vector", "matrix"]))
    strict, seed = data.draw(st.booleans()), data.draw(st.integers(0, 2**32))
    duration = data.draw(st.one_of(st.floats(0.0, 3 * t1), st.just(6e307)))
    energy = data.draw(st.sampled_from([0.0, 1e-20, 6e307]))
    windows = data.draw(st.integers(1, 6))

    def outcome(run) -> tuple:
        quiet = replace(inas_material(), noise=replace(noise, enabled=False))
        array = DotArray(3, 2, quiet, representation=representation, strict=strict,
                         seed=seed, t2_overrides=overrides)
        for q in qubits:
            array.init_qubit(q)
        for kind, q in gates:
            array.apply_gate_at(kind, [q])
        array.material = replace(quiet, noise=noise)
        try:
            result = run(array)
        except QdotsimError as exc:
            result = type(exc), str(exc)
        return (result, array.state.data.tobytes(), array.clock, array.energy,
                as_rng(array._rng).bit_generator.state)

    def one_by_one(array):
        for _ in range(windows):
            array.advance(duration, pair=pair, energy=energy)

    assert outcome(lambda array: array.advance(duration, pair=pair, energy=energy,
                                               windows=windows)) == outcome(one_by_one)


def test_norm_preserved_through_noisy_events():
    noise = NoiseParams(T1=200e-6, T2=100e-6, enabled=True)
    array = make_array(noise=noise, representation="matrix")
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    array.apply_gate_at("H", [(0, 0)])
    array.apply_gate_at("ExchangeEvolve", [(0, 0), (1, 0)], theta=math.pi)
    array.idle(1e-5)
    assert norm_error(array.state) < 1e-10


def test_per_dot_t2_override_shortens_coherence():
    noise = NoiseParams(T1=1e3, T2=100e-6, enabled=True)
    slow = make_array(noise=noise, representation="matrix")
    fast = make_array(noise=noise, representation="matrix",
                      t2_overrides={(0, 0): 1e-6})  # hundred times leakier
    for array in (slow, fast):
        array.init_qubit((0, 0))
        array.apply_gate_at("H", [(0, 0)])
    ref = QuantumState(slow.state.data.copy(), 1)
    slow.idle(1e-6)
    fast.idle(1e-6)
    assert state_fidelity(fast.state, ref) < state_fidelity(slow.state, ref)


def test_layout_is_checked_at_construction():
    array = make_array(roles={(1, 1): "readout"}, t2_overrides={(0, 0): 1e-6})
    assert array.roles == {(1, 1): "readout"}  # every unlisted dot is empty
    assert array.roles.get((1, 0), "empty") == "empty"
    for kwargs in ({"roles": {(2, 0): "qubit"}}, {"roles": {(0, 0): "hole"}},
                   {"t2_overrides": {(0, 2): 1e-6}},
                   {"t2_overrides": {(0, 0): 1.0}}):  # T2 above 2*T1 of inas
        with pytest.raises(StateError):
            make_array(**kwargs)
    # a subnormal T2 is refused where noise would use it as a rate
    make_array(t2_overrides={(0, 0): 5e-324})
    with pytest.raises(StateError, match="1/T2"):
        make_array(noise=NoiseParams(T1=1e-6, T2=1e-6, enabled=True),
                   t2_overrides={(0, 0): 5e-324})


def test_gate_durations_follow_rotation_angle():
    array = make_array()
    array.init_qubit((0, 0))
    t0 = array.clock
    array.apply_gate_at("H", [(0, 0)])
    t_h = array.clock - t0
    assert t_h == pytest.approx(array.material.rabi_period / 2, rel=1e-12)
    t0 = array.clock
    array.apply_gate_at("S", [(0, 0)])
    assert array.clock - t0 == pytest.approx(array.material.rabi_period / 4, rel=1e-12)
    t0 = array.clock
    array.apply_gate_at("T", [(0, 0)])
    assert array.clock - t0 == pytest.approx(array.material.rabi_period / 8, rel=1e-12)


def closed_form_duration(kind: str, material, angle=None, theta=None) -> float:
    """A gate's duration by kind: angle/(2 pi) of a Rabi period for one
    qubit, t_swap for CNOT and SWAP, t_swap / 2 for SqrtSWAP and
    theta*hbar/J_on for ExchangeEvolve."""
    rotation = {"X": math.pi, "Y": math.pi, "Z": math.pi, "H": math.pi, "S": math.pi / 2,
                "T": math.pi / 4}
    if kind in Gate.ONE_QUBIT:
        rot = abs(angle) if kind == "Rot" else rotation[kind]
        return rot / (2.0 * math.pi) * material.rabi_period
    if kind == "SqrtSWAP":
        return material.t_swap / 2.0
    if kind == "ExchangeEvolve":
        return theta * HBAR_EV_S / material.J_on
    return material.t_swap


@pytest.mark.parametrize("kind", Gate.ONE_QUBIT + Gate.TWO_QUBIT)
def test_booked_gate_durations_equal_the_closed_forms_bitwise(kind):
    # J_on up to where t_hop underflows: t_swap runs from ~2e-8 s down through
    # the subnormals, where t_swap / 2 and (pi/2)*hbar/J_on differ in places
    if kind in Gate.ONE_QUBIT:
        materials = [replace(inas_material(), rabi_period=float(r))
                     for r in np.geomspace(1e-164, 1e-2, 200)]
    else:
        materials = []
        for j_on in np.concatenate([np.geomspace(1e-7, 1e292, 60),
                                    np.geomspace(1e292, 1.7e308, 240)]):
            try:
                materials.append(replace(inas_material(), J_on=float(j_on)))
            except StateError:  # t_hop rounds to 0 s
                assert j_on > 1e307
        assert sum(m.t_swap < sys.float_info.min for m in materials) > 100
    params = {"Rot": [{"axis": (1, 0, 1), "angle": a} for a in (-2.2, 0.4, 3.0, 7)],
              "ExchangeEvolve": [{"theta": t} for t in (0.0, 0.3, math.pi / 2, 2.5, 7)],
              }.get(kind, [{}])
    targets = [(0, 0), (1, 0)] if kind in Gate.TWO_QUBIT else [(0, 0)]
    for material in materials:
        for kwargs in params:
            array = DotArray(2, 1, material)
            array.init_qubit((0, 0))
            array.init_qubit((1, 0))
            array.clock = 0.0  # so the clock reads the one duration exactly
            array.apply_gate_at(kind, targets, **kwargs)
            want = closed_form_duration(kind, material, kwargs.get("angle"), kwargs.get("theta"))
            assert array.clock == want, (material.J_on, material.rabi_period, kwargs)
