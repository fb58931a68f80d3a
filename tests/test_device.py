"""Dot array events: occupancy, clock accounting, noise windows, readout."""
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FullMatrixArray, norm_error
from qdotsim import channels
from qdotsim.constants import HBAR_EV_S
from qdotsim.device import DotArray, MatrixArray, inas_material, si_material
from qdotsim.errors import AdjacencyError, BlockadeError, QdotsimError, StateError
from qdotsim.noise import NoiseParams, _excited
from qdotsim.qstate import MATRIX_QUBIT_CAP, Gate, QuantumState, apply_gate, state_fidelity
from qdotsim.scenario import _twin


def make_array(width=2, height=2, noise=None, seed=0, **kwargs) -> DotArray:
    material = inas_material(noise)
    return DotArray(width, height, material, seed=seed, **kwargs)


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
        array.advance(0.0)


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
    target = QuantumState(np.array([0, 0, 1, 0], complex), 2)
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
    array.advance(1e-6)  # theta ~ 7.6 rad
    assert state_fidelity(array.state, before) < 1 - 1e-3


def _strict_pair_idled(idle_t):
    """|01> on an adjacent strict-mode pair after an X pulse, then idle_t
    seconds of idling; returns (state before the idle, array)."""
    array = make_array(strict=True)
    array.init_qubit((0, 0))
    array.init_qubit((1, 0))
    array.apply_gate_at("X", [(1, 0)])
    before = array.state.data.copy()
    array.advance(idle_t)
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
        a.state = QuantumState(np.array([0, 1, 0, 0], complex), 2)
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
    array.advance(1e-6)
    assert state_fidelity(array.state, before) > 1 - 1e-12


# ---------------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------------

def readout_array():
    return make_array(roles={(0, 1): "readout"})


def test_readout_ground_state_registers_charge():
    array = readout_array()
    array.init_qubit((0, 0))
    bit = array.readout((0, 0), (0, 1), np.random.default_rng(3))[0]
    assert bit == 0


def test_readout_excited_state_no_charge():
    array = readout_array()
    array.init_qubit((0, 0))
    array.apply_gate_at("X", [(0, 0)])
    bit = array.readout((0, 0), (0, 1), np.random.default_rng(3))[0]
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
    array.readout((0, 0), (0, 1), np.random.default_rng(0))
    assert array.clock - clock_before == pytest.approx(
        array.material.readout_transfer + array.material.readout_measure
    )


def test_readout_requires_readout_role_and_vacancy():
    array = make_array()
    array.init_qubit((0, 0))
    with pytest.raises(StateError):
        array.readout((0, 0), (1, 1), np.random.default_rng(0))  # not a readout dot
    array2 = readout_array()
    array2.init_qubit((0, 0))
    with pytest.raises(StateError):
        array2.readout((1, 0), (0, 1), np.random.default_rng(0))  # no qubit there


def test_readout_error_probability():
    noise = NoiseParams(enabled=False)
    material = inas_material(noise)
    material = material.__class__(**{**material.__dict__, "readout_error": 1.0})
    array = DotArray(2, 2, material, roles={(0, 1): "readout"}, seed=0)
    array.init_qubit((0, 0))
    bit = array.readout((0, 0), (0, 1), np.random.default_rng(0))[0]
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
        (lambda: array.advance(3.5e-8), 3.5e-8),
        (lambda: array.readout((0, 0), (0, 1), np.random.default_rng(1)),
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
                lambda: array.advance(1e-9)):
        run()
        clocks.append(array.clock)
    assert clocks == sorted(clocks)


def test_clock_and_energy_refuse_to_overflow():
    array = make_array()
    array.advance(1e308)
    with pytest.raises(StateError, match="overflow the clock"):
        array.advance(1e308)
    array.advance(0.0, energy=1e308)
    with pytest.raises(StateError, match="overflow the clock"):
        array.advance(0.0, energy=1e308)
    assert (array.clock, array.energy) == (1e308, 1e308)


def test_a_positive_duration_below_one_ulp_of_the_clock_is_refused():
    array = make_array()
    array.advance(1.0)
    with pytest.raises(StateError, match="below one ulp of the clock"):
        array.advance(1e-17)  # 1.0 + 1e-17 rounds to 1.0: the event would book nothing
    with pytest.raises(StateError, match="below one ulp of the clock"):
        array.advance(1e-17, windows=3)
    array.advance(0.0, energy=1e-20)  # an instantaneous event still books its energy
    array.advance(2e-16)
    assert (array.clock, array.energy) == (1.0 + 2e-16, 1e-20)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
# strict residual exchange over 6e307 s has an infinite pulse area: both sides turn NaN
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_advance_of_k_windows_equals_k_advances(data):
    # the register's bytes, clock, energy and generator state, or the same
    # error after the same windows: vector and matrix registers, ground and
    # excited ones, strict on and off, noise on and off, a coupled pair or
    # none, T2 overrides, and a clock or an energy that overflows part way;
    # runs of up to 64 windows, one clock starting 5 ulps below 2**33, where a
    # 2**-20 s window is absorbed from the sixth on
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
    duration = data.draw(st.one_of(st.floats(0.0, 3 * t1), st.just(6e307), st.just(2.0**-20)))
    energy = data.draw(st.sampled_from([0.0, 1e-20, 6e307]))
    windows = data.draw(st.integers(1, 64))
    start = data.draw(st.sampled_from([None, 2.0**33 - 5 * 2.0**-20]))

    def outcome(run) -> tuple:
        quiet = replace(inas_material(), noise=replace(noise, enabled=False))
        array = DotArray(3, 2, quiet, representation=representation, strict=strict,
                         seed=seed, t2_overrides=overrides)
        for q in qubits:
            array.init_qubit(q)
        for kind, q in gates:
            array.apply_gate_at(kind, [q])
        array.material = replace(quiet, noise=noise)
        array.clock = array.clock if start is None else start
        try:
            result = run(array)
        except QdotsimError as exc:
            result = type(exc), str(exc)
        return (result, array.state.data.tobytes(), array.clock, array.energy,
                array._rng.bit_generator.state)

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
    array.advance(1e-5)
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
    slow.advance(1e-6)
    fast.advance(1e-6)
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
            array = DotArray(2, 1, material, seed=0)
            array.init_qubit((0, 0))
            array.init_qubit((1, 0))
            array.clock = 0.0  # so the clock reads the one duration exactly
            array.apply_gate_at(kind, targets, **kwargs)
            want = closed_form_duration(kind, material, kwargs.get("angle"), kwargs.get("theta"))
            assert array.clock == want, (material.J_on, material.rabi_period, kwargs)


# ---------------------------------------------------------------------------
# matrix arrays store rho's excited block
# ---------------------------------------------------------------------------

BLOCK_GRID = (5, 3)
BLOCK_READOUTS = ((0, 2), (2, 2), (4, 2))
BLOCK_T2 = {(1, 0): 4e-7, (2, 1): 9e-7}
BLOCK_NOISE = NoiseParams(T1=2e-6, T2=1e-6, enabled=True)


def _program_step(array, op):
    """Run one abstract program op on an array and return what it reports:
    readout's (bit, p1), epr's Bell fidelity or teleport's report dict. Ops
    that name a dot, pair or triple pick it modulo the current choices, and
    an op with no choice is skipped."""
    occupied = array.qubit_positions
    free = [(x, y) for y in range(BLOCK_GRID[1]) for x in range(BLOCK_GRID[0])
            if (x, y) not in occupied and (x, y) not in BLOCK_READOUTS]
    pairs = [(a, b) for a in occupied for b in occupied if DotArray.adjacent(a, b)]
    # teleport's payload c and its EPR half a are neighbours, for its CNOT
    triples = [(c, a, b) for c, a in pairs for b in occupied if b not in (c, a)]
    kind, *args = op
    if kind == "init" and free and len(occupied) < MATRIX_QUBIT_CAP:
        array.init_qubit(free[args[0] % len(free)])
    elif kind == "gate1" and occupied:
        gate, i, axis, angle = args
        array.apply_gate_at(gate, [occupied[i % len(occupied)]], axis=axis, angle=angle)
    elif kind in ("gate2", "window") and pairs:
        gate, i, theta = args
        a, b = pairs[i % len(pairs)]
        array.apply_gate_at(gate, [a, b], theta=theta)
    elif kind == "idle":
        t, windows = args
        array.advance(t, windows=windows)
    elif kind == "move" and occupied:
        i, (dx, dy) = args
        src = occupied[i % len(occupied)]
        dst = (src[0] + dx, src[1] + dy)
        if 0 <= dst[0] < BLOCK_GRID[0] and 0 <= dst[1] < BLOCK_GRID[1] and dst in free:
            array.move_electron(src, dst)
    elif kind == "readout" and occupied:
        i, j, seed = args
        return array.readout(occupied[i % len(occupied)], BLOCK_READOUTS[j],
                             np.random.default_rng(seed))
    elif kind == "epr" and pairs:
        a, b = pairs[args[0] % len(pairs)]
        channels.make_epr(array, a, b)
        return channels.epr_pair_fidelity(array, a, b)
    elif kind == "teleport" and triples:
        i, seed = args
        return channels.teleport(array, *triples[i % len(triples)],
                                 np.random.default_rng(seed))[0]


_ONE_QUBIT_OP = st.tuples(
    st.just("gate1"), st.sampled_from(Gate.ONE_QUBIT), st.integers(0, 7),
    st.just((0.3, -1.0, 0.8)), st.floats(-7.0, 7.0),
).map(lambda op: op if op[1] == "Rot" else op[:3] + (None, None))
_PROGRAM_OP = st.one_of(
    st.tuples(st.just("init"), st.integers(0, 11)),
    _ONE_QUBIT_OP, _ONE_QUBIT_OP, _ONE_QUBIT_OP,  # the only ops that excite a ground register
    st.tuples(st.just("gate2"), st.sampled_from(["CNOT", "SWAP", "SqrtSWAP"]),
              st.integers(0, 15), st.none()),
    st.tuples(st.just("window"), st.just("ExchangeEvolve"), st.integers(0, 15),
              st.floats(0.0, 7.0)),
    st.tuples(st.just("idle"), st.sampled_from([1e-8, 1e-7, 3e-7, 1e-3]),
              st.sampled_from([1, 3])),
    st.tuples(st.just("move"), st.integers(0, 7),
              st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])),
    st.tuples(st.just("readout"), st.integers(0, 7), st.integers(0, 2), st.integers(0, 99)),
    st.tuples(st.just("epr"), st.integers(0, 15)),
    st.tuples(st.just("teleport"), st.integers(0, 63), st.integers(0, 99)),
)


@given(inits=st.lists(st.integers(0, 11), min_size=1, max_size=MATRIX_QUBIT_CAP),
       program=st.lists(_PROGRAM_OP, min_size=4, max_size=16), strict=st.booleans(),
       noise=st.booleans())
@example(inits=[0], program=[("gate1", "X", 0, None, None), ("gate1", "H", 0, None, None),
                             ("init", 1), ("gate2", "CNOT", 0, None), ("init", 2),
                             ("idle", 1e-7, 3), ("readout", 0, 0, 1)], strict=False,
         noise=True).via("discovered")
@example(inits=[0, 0, 4], program=[("gate1", "Rot", 1, (0.3, -1.0, 0.8), 2.2), ("init", 2),
                                   ("window", "ExchangeEvolve", 1, 1.3), ("idle", 1e-3, 1),
                                   ("move", 2, (0, -1)), ("readout", 0, 1, 7)],
         strict=True, noise=True).via("discovered")
@example(inits=[0, 1], program=[("gate1", "H", 0, None, None), ("gate2", "CNOT", 0, None),
                                ("readout", 1, 0, 3), ("epr", 0), ("init", 2),
                                ("teleport", 0, 5), ("idle", 1e-7, 1)],
         strict=False, noise=True)  # the CNOT on the 2-qubit register has no window after it
@settings(max_examples=150, deadline=None)
def test_matrix_array_block_matches_the_full_matrix_reference(inits, program, strict, noise):
    # after every event the stored block, scattered into zeros, is the full
    # reference's rho bit for bit, the stored mask is its scan, and readout,
    # epr and teleport report the same bits: an init after gates can leave
    # -0.0 (x * 0j) in the new qubit's |1> rows, windows against T1 = 2 us
    # (1 ms: 1 - gamma rounds to 0) shrink the block, and a gate with no
    # window after it (noise off, or a pair gate on a 2-qubit register) is
    # scanned before its event ends
    material = replace(inas_material(), noise=replace(BLOCK_NOISE, enabled=noise))
    roles = {pos: "readout" for pos in BLOCK_READOUTS}
    array, ref = (cls(*BLOCK_GRID, material, roles=roles, representation="matrix",
                      strict=strict, seed=0, t2_overrides=BLOCK_T2)
                  for cls in (DotArray, FullMatrixArray))
    assert type(array) is MatrixArray and type(ref) is FullMatrixArray
    for op in [("init", i) for i in inits] + program:
        outcomes = []
        for a in (array, ref):
            try:
                outcomes.append(repr(_program_step(a, op)))  # repr: every float's bits
            except QdotsimError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], op
        rho = ref.state.data
        assert array.state.data.tobytes() == rho.tobytes(), op
        assert array._mask == _excited(np.ascontiguousarray(rho)), op
        assert array._block.shape == (2 ** array._mask.bit_count(),) * 2
        assert (array.clock, array.energy, array.qubit_positions) == (
            ref.clock, ref.energy, ref.qubit_positions)
        if not isinstance(outcomes[0], str):
            break


@pytest.mark.parametrize("last", ["S", "CNOT"])  # CNOT on both qubits: no window after it
def test_an_idle_window_never_writes_a_block_another_array_holds(last):
    # a shot group's twin shares its array's block; only a gate's own output,
    # before its event ends, may be decayed in place
    material = replace(inas_material(), noise=BLOCK_NOISE)
    array, ref = (cls(2, 1, material, representation="matrix", seed=0)
                  for cls in (DotArray, FullMatrixArray))
    for a in (array, ref):
        a.init_qubit((0, 0)).init_qubit((1, 0))
        a.apply_gate_at("H", [(0, 0)])
        a.apply_gate_at(last, [(0, 0), (1, 0)][:2 if last == "CNOT" else 1])
    before = array.state.data.tobytes()
    for _ in range(2):
        twin = _twin(array)
        twin.advance(3e-7)
        assert array.state.data.tobytes() == before
    ref.advance(3e-7)
    assert twin.state.data.tobytes() == ref.state.data.tobytes()
    assert twin._mask == _excited(np.ascontiguousarray(ref.state.data))


def test_a_matrix_array_refuses_a_vector_state():
    array = DotArray(1, 1, inas_material(), representation="matrix", seed=0)
    array.init_qubit((0, 0))
    before = array.state.data.tobytes()
    with pytest.raises(StateError, match="density matrix"):
        array.state = QuantumState.zero(1)
    assert array.state.data.tobytes() == before


def test_an_init_after_gates_can_make_the_new_qubit_excited():
    # X then H leaves rho = [[.5, -.5], [-.5, .5]]: the appended qubit's |1>
    # rows get -0.5 * 0j, whose real part is -0.0, so the scan counts it excited
    array = DotArray(2, 1, inas_material(), representation="matrix", seed=0)
    array.init_qubit((0, 0))
    array.apply_gate_at("X", [(0, 0)])
    array.apply_gate_at("H", [(0, 0)])
    array.init_qubit((1, 0))
    assert array._mask == 0b11
    assert np.signbit(array.state.data[1, 2].real)  # row 1: the new qubit in |1>


@pytest.mark.parametrize("n", range(2, MATRIX_QUBIT_CAP + 1))
def test_a_gate_on_a_one_qubit_block_is_padded_to_match_the_full_gate(n):
    # the block of a one-qubit gate on the one excited qubit (or on a ground
    # one when none is excited) has one qubit; it runs padded to two, and its
    # bits are the full-matrix gate's
    rng = np.random.default_rng(n)
    material = replace(inas_material(), noise=replace(BLOCK_NOISE, enabled=False))
    for _ in range(60):
        t = int(rng.integers(n))
        one = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        one = one + one.conj().T if rng.random() < 0.8 else np.diag([1.0 + 0j, 0.0])
        cells = [0, 1 << (n - 1 - t)]
        rho = np.zeros((2**n, 2**n), complex)
        rho[np.ix_(cells, cells)] = one
        kind = str(rng.choice(Gate.ONE_QUBIT))
        axis, angle = ((tuple(rng.normal(size=3)), float(rng.uniform(-7, 7)))
                       if kind == "Rot" else (None, None))
        array = DotArray(n, 1, material, representation="matrix", seed=0)
        for x in range(n):
            array.init_qubit((x, 0))
        array.state = QuantumState(rho, n)
        assert array._mask.bit_count() <= 1
        array.apply_gate_at(kind, [(t, 0)], axis=axis, angle=angle)
        want = apply_gate(QuantumState(rho, n), Gate(kind, (t,), axis=axis, angle=angle))
        assert array.state.data.tobytes() == want.data.tobytes(), (t, kind)
        assert array._mask == _excited(np.ascontiguousarray(want.data))
