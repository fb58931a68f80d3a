"""Decoherence channels: closed forms, Kraus completeness, trajectories."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    channel_oracle,
    damping_kraus,
    dephasing_kraus,
    embed,
    from_matrix,
    haar_state,
    idle_jump_oracle,
    idle_trajectory,
)
from qdotsim.device import DotArray, inas_material
from qdotsim.errors import StateError
from qdotsim.noise import (
    NoiseParams,
    _decay,
    _excited,
    _window_plan,
    idle_jumps_window,
    idle_steps,
    jump_probabilities,
    pure_dephasing_time,
)
from qdotsim.qstate import MATRIX_QUBIT_CAP, Gate, QuantumState, apply_gate

T2 = 100e-6
T1 = 200e-6
NOISE = NoiseParams(T1=T1, T2=T2, enabled=True)


def plus_density() -> QuantumState:
    return apply_gate(QuantumState.zero(1), Gate("H", (0,))).to_density()


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_default_preset_values():
    params = NoiseParams()
    assert params.T2 == pytest.approx(100e-6)
    assert params.T1 == pytest.approx(2 * params.T2)


def test_unphysical_t2_rejected():
    with pytest.raises(StateError):
        NoiseParams(T1=1e-6, T2=3e-6)
    with pytest.raises(StateError):
        NoiseParams(T1=-1.0, T2=1e-6)
    # with noise on, 1/T2 overflows and the first idle window divides by T2' = 0
    with pytest.raises(StateError, match="1/T2"):
        NoiseParams(T1=1e-6, T2=5e-324, enabled=True)
    assert NoiseParams(T1=1e-6, T2=5e-324).T2 == 5e-324  # noise off: never used as a rate


def test_pure_dephasing_time():
    # 1/T2' = 1/T2 - 1/(2 T1); with T1 = 2 T2 that is 3/(4 T2)
    assert pure_dephasing_time(2 * T2, T2) == pytest.approx(4 * T2 / 3)
    assert pure_dephasing_time(T2 / 2, T2) == math.inf


# ---------------------------------------------------------------------------
# exact channels: closed forms (a _decay step is (qubit, dephasing rate, damping rate))
# ---------------------------------------------------------------------------

def decayed(state: QuantumState, t: float, steps) -> QuantumState:
    """_decay's steps on a C-contiguous copy of all of rho, every qubit in the mask."""
    rho = np.array(state.data, complex, order="C")
    _decay(rho, 2**state.n_qubits - 1, state.n_qubits, t, steps)
    return QuantumState(rho, state.n_qubits)


def test_dephase_zero_time_identity():
    rho = plus_density()
    out = decayed(rho, 0.0, [(0, 1 / T2, 0.0)])
    assert np.array_equal(out.data, rho.data)


def test_dephase_closed_form_at_t2():
    out = decayed(plus_density(), T2, [(0, 1 / T2, 0.0)])
    assert abs(abs(out.data[0, 1]) - 0.5 * math.exp(-1)) < 1e-12
    assert abs(np.trace(out.data) - 1) < 1e-14


def test_dephase_leaves_diagonal_states_alone():
    rho = from_matrix([[0.3, 0], [0, 0.7]])
    out = decayed(rho, 5 * T2, [(0, 1 / T2, 0.0)])
    assert np.max(np.abs(out.data - rho.data)) < 1e-14


def test_amplitude_damp_zero_time_identity():
    rho = apply_gate(QuantumState.zero(1), Gate("X", (0,))).to_density()
    out = decayed(rho, 0.0, [(0, 0.0, 1 / T1)])
    assert np.array_equal(out.data, rho.data)


def test_amplitude_damp_closed_form_at_t1():
    rho = apply_gate(QuantumState.zero(1), Gate("X", (0,))).to_density()
    out = decayed(rho, T1, [(0, 0.0, 1 / T1)])
    assert abs(out.data[1, 1].real - math.exp(-1)) < 1e-12
    assert abs(np.trace(out.data) - 1) < 1e-14


def test_ground_state_is_damping_fixed_point():
    rho = QuantumState.zero(1).to_density()
    for t in (1e-7, T1, 50 * T1):
        out = decayed(rho, t, [(0, 0.0, 1 / T1)])
        assert np.max(np.abs(out.data - rho.data)) < 1e-14


def test_dephase_composition():
    rho = plus_density()
    a = decayed(decayed(rho, 3e-5, [(0, 1 / T2, 0.0)]), 7e-5, [(0, 1 / T2, 0.0)])
    b = decayed(rho, 1e-4, [(0, 1 / T2, 0.0)])
    assert np.max(np.abs(a.data - b.data)) < 1e-12


@given(decay=st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_dephasing_kraus_complete(decay):
    ks = dephasing_kraus(decay)
    total = sum(k.conj().T @ k for k in ks)
    assert np.max(np.abs(total - np.eye(2))) < 1e-12


@given(gamma=st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_damping_kraus_complete(gamma):
    ks = damping_kraus(gamma)
    total = sum(k.conj().T @ k for k in ks)
    assert np.max(np.abs(total - np.eye(2))) < 1e-12


def test_idle_channel_total_coherence_decay():
    # pure dephasing times damping must combine to exp(-t/T2) on coherences
    out = decayed(plus_density(), T2, idle_steps(NOISE, ((0, None),)))
    assert abs(abs(out.data[0, 1]) - 0.5 * math.exp(-1)) < 1e-12


def test_idle_channel_on_selected_qubit_only(rng):
    psi = haar_state(2, rng).to_density()
    out = decayed(psi, T2, idle_steps(NOISE, ((0, None),)))
    # qubit 1 marginals untouched
    before = psi.data.reshape(2, 2, 2, 2)
    after = out.data.reshape(2, 2, 2, 2)
    assert np.max(np.abs(np.einsum("iaib->ab", before) - np.einsum("iaib->ab", after))) < 1e-12


def _kraus_oracle(rho: np.ndarray, qubit: int, kraus, n: int) -> np.ndarray:
    lifted = [embed(k, [qubit], n) for k in kraus]
    return sum(k @ rho @ k.conj().T for k in lifted)


@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(1e-9, 3 * T2),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_idle_window_matches_kraus_oracle(n, seed, t, data):
    # one pass over a random qubit subset, each qubit with its own T2
    qubits = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    overrides = {
        q: data.draw(st.one_of(st.none(), st.floats(T2 / 20, 2 * T1)))
        for q in qubits
    }
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    out = decayed(QuantumState(rho, n), t, idle_steps(NOISE, tuple(overrides.items()))).data
    expected = rho
    for q, t2 in overrides.items():
        t2p = pure_dephasing_time(T1, T2 if t2 is None else t2)
        expected = _kraus_oracle(expected, q, dephasing_kraus(math.exp(-t / t2p)), n)
        expected = _kraus_oracle(expected, q, damping_kraus(1 - math.exp(-t / T1)), n)
    assert np.max(np.abs(out - expected)) < 1e-12
    assert abs(np.trace(out) - 1) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(out).min() > -1e-12


# ---------------------------------------------------------------------------
# exact channels on a matrix DotArray's excited block, bit for bit
# ---------------------------------------------------------------------------

def matrix_window(rho: np.ndarray, n: int, t: float, idling: dict,
                  noise: NoiseParams = NOISE) -> np.ndarray:
    """rho after one idle window over `idling` ({qubit: T2 or None}, in step
    order) of an n-qubit matrix DotArray whose `state` was set to rho. The
    array gathers rho's excited block, runs _decay on it and scatters it back
    on reading `state`: that must equal channel_oracle's strided pass over
    all of rho bit for bit, signs of zeros included, and leave rho as it was."""
    before = rho.tobytes()
    array = DotArray(n, 1, replace(inas_material(), noise=noise),
                     representation="matrix", seed=0)
    for x in range(n):
        array.init_qubit((x, 0))
    array.state = QuantumState(rho, n)
    array._window(t, idling)
    out = array.state.data
    want = channel_oracle(QuantumState(rho, n), t, idle_steps(noise, tuple(idling.items()))).data
    assert out.tobytes() == want.tobytes()
    assert rho.tobytes() == before
    return out


def _ground_matrix(n: int, ground, rng, sprinkle: float, anywhere: bool) -> np.ndarray:
    """A random complex matrix whose rows and columns in the |1> block of
    every qubit in `ground` are exactly +0; about a `sprinkle` fraction of the
    other float components are then set to -0.0 or to a subnormal of either
    sign (anywhere=True lets them land in those +0 rows and columns too)."""
    dim = 2**n
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    ones = (np.arange(dim) & sum(1 << (n - 1 - q) for q in ground)) != 0  # those rows/columns
    rho[ones, :] = 0.0
    rho[:, ones] = 0.0
    bits = rho.view(np.uint64)
    inside = np.repeat(ones[:, None] | ones[None, :], 2, axis=1)  # their float components
    pick = (anywhere | ~inside) & (rng.random(bits.shape) < sprinkle)
    subnormal = rng.integers(1, 1 << 52, size=bits.shape, dtype=np.uint64)
    sign = np.where(rng.random(bits.shape) < 0.5, np.uint64(1 << 63), np.uint64(0))
    bits[pick] = np.where(rng.random(bits.shape) < 0.5, 0, subnormal)[pick] | sign[pick]
    return rho


@given(
    n=st.integers(1, MATRIX_QUBIT_CAP),
    seed=st.integers(0, 2**32 - 1),
    t=st.one_of(st.floats(1e-12, 3 * T1), st.sampled_from([40 * T1, 1e3 * T1, 1e6 * T1])),
    t1=st.sampled_from([T1, T2]),
    sprinkle=st.sampled_from([0.0, 0.02, 0.3]),
    anywhere=st.booleans(),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_channel_equals_the_block_oracle(n, seed, t, t1, sprinkle, anywhere, data):
    # every qubit position of every register up to the matrix cap: ground
    # qubits (exactly +0 |1> rows and columns) meet -0.0 and subnormals
    # elsewhere, dephasing rates of 0 (T2 = 2*T1) and of 1e9/s, and t >> T1,
    # where 1 - gamma rounds to 0 and the products underflow
    rng = np.random.default_rng(seed)
    ground = data.draw(st.sets(st.integers(0, n - 1)))
    qubits = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    idling = {q: data.draw(st.sampled_from([None, 2 * t1, t1 / 3, 1e-9])) for q in qubits}
    rho = _ground_matrix(n, ground, rng, sprinkle, anywhere)
    matrix_window(rho, n, t, idling, NoiseParams(T1=t1, T2=T2, enabled=True))


def test_channel_ground_step_rewrites_negative_zeros():
    # qubit 0 of |0><0| is ground, so its step only adds gamma * (+0) to its
    # |0><0| block: the -0.0 imaginary part of rho[0, 0] becomes +0.0
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = complex(1.0, -0.0)
    assert not np.signbit(matrix_window(rho, 1, 1e-6, {0: None})[0, 0].imag)


def _hermitian(n: int, ground, seed: int) -> np.ndarray:
    """A random Hermitian matrix whose rows and columns in the |1> block of
    every qubit in `ground` are exactly +0, with a -0.0 imaginary part on
    rho[0, 0]."""
    rng = np.random.default_rng(seed)
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a + a.conj().T
    ones = (np.arange(dim) & sum(1 << (n - 1 - q) for q in ground)) != 0
    rho[ones, :] = 0.0
    rho[:, ones] = 0.0
    rho[0, 0] = complex(rho[0, 0].real, -0.0)
    return rho


@pytest.mark.parametrize("n", range(1, MATRIX_QUBIT_CAP + 1))
def test_channel_with_every_qubit_ground(n):
    # only rho[0, 0] can be nonzero: the ground steps' + 0.0 pass turns its
    # -0.0 imaginary part into +0.0, and no step leaves it as it is
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = complex(1.0, -0.0)
    assert not np.signbit(matrix_window(rho, n, 1e-6, dict.fromkeys(range(n)))[0, 0].imag)
    assert np.signbit(matrix_window(rho, n, 1e-6, {})[0, 0].imag)


@pytest.mark.parametrize("n", [1, 3, MATRIX_QUBIT_CAP])
def test_channel_with_every_qubit_excited(n):
    matrix_window(_hermitian(n, (), seed=n), n, 1e-6, dict.fromkeys(reversed(range(n)), T1 / 4))


@pytest.mark.parametrize("n", [5, MATRIX_QUBIT_CAP])
def test_channel_on_the_first_and_last_qubit_between_ground_steps(n):
    # qubits 0 and n-1 excited, the rest ground; ground steps run before,
    # between and after the two excited ones
    ground = list(range(1, n - 1))
    order = ground[:1] + [0] + ground[1:-1] + [n - 1] + ground[-1:]
    matrix_window(_hermitian(n, ground, seed=n), n, 1e-6, dict.fromkeys(order))


def test_channel_reads_a_transposed_view():
    # rho.T of a Hermitian rho is its conjugate, a density matrix stored in
    # Fortran order
    n = 4
    view = _hermitian(n, (1, 3), seed=7).T
    assert not view.flags.c_contiguous
    matrix_window(view, n, 1e-6, dict.fromkeys(range(n)))


def excited_oracle(rho: np.ndarray) -> int:
    """The OR of the row and column indices of every entry of rho whose real
    or imaginary part has a bit set (-0.0 included), one entry at a time."""
    bits = rho.view(np.uint64).reshape(len(rho), len(rho), 2)
    out = 0
    for row, col in zip(*np.nonzero(bits.any(axis=2))):
        out |= int(row) | int(col)
    return out


@given(k=st.integers(0, MATRIX_QUBIT_CAP), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.002, 0.05, 1.0]),
       diagonal=st.sampled_from(["as drawn", "zero", "every entry", "-0.0", "all but one"]))
@settings(max_examples=300, deadline=None)
def test_excited_equals_the_full_scan(k, seed, density, diagonal):
    # from 32 rows on, _excited returns every qubit when the diagonal alone
    # names them all; else, and below 32 rows, it scans every entry. A zero
    # diagonal with nonzero off-diagonal entries is no density matrix, but
    # `state` accepts any rho, so the scan must still find those qubits
    rng = np.random.default_rng(seed)
    size = 2**k
    rho = np.zeros((size, size), complex)
    allowed = (np.arange(size) & ~int(rng.integers(size))) == 0  # rows of a random qubit subset
    allowed = allowed[:, None] & allowed
    fill = (rng.random((size, size)) < density) & allowed
    rho[fill] = rng.normal(size=fill.sum()) + 1j * rng.normal(size=fill.sum())
    parts = rho.view(np.float64).reshape(size, size, 2)
    parts[(rng.random((size, size, 2)) < 0.02) & allowed[..., None]] = -0.0
    cells = np.arange(size)
    if diagonal == "zero":
        rho[cells, cells] = 0.0
    elif diagonal == "every entry":
        rho[cells, cells] = rng.uniform(0.1, 1.0, size)
    elif diagonal == "-0.0":
        rho[cells, cells] = 0.0
        parts[cells, cells, rng.integers(2)] = -0.0
    elif diagonal == "all but one" and k:
        bit = 1 << int(rng.integers(k))  # that qubit excited off the diagonal only
        rho[cells, cells] = np.where(cells & bit, 0.0, 0.5)
        rho[bit, 0] = complex(0.0, -0.0) if rng.random() < 0.5 else 1e-300
    assert _excited(rho) == excited_oracle(rho)


# ---------------------------------------------------------------------------
# trajectory sampling
# ---------------------------------------------------------------------------

def test_disabled_noise_is_noiseless():
    params = NoiseParams(T1=T1, T2=T2, enabled=False)
    psi = apply_gate(QuantumState.zero(1), Gate("H", (0,)))
    out = idle_trajectory(psi, [T2, 3 * T2], params, seed=5)
    assert np.array_equal(out.data, psi.data)


def test_zero_duration_steps_never_jump():
    params = NoiseParams(T1=T1, T2=T2, enabled=True)
    psi = apply_gate(QuantumState.zero(1), Gate("H", (0,)))
    for seed in range(10):
        out = idle_trajectory(psi, [0.0] * 20, params, seed=seed)
        assert np.array_equal(out.data, psi.data)


def test_jump_probabilities_values():
    params = NoiseParams(T1=T1, T2=T2, enabled=True)
    p_z, gamma = jump_probabilities(T2, params)
    t2p = pure_dephasing_time(T1, T2)
    assert p_z == pytest.approx(0.5 * (1 - math.exp(-T2 / t2p)))
    assert gamma == pytest.approx(1 - math.exp(-T2 / T1))


def _trajectory_average(n_samples: int, duration: float, seed_base: int) -> np.ndarray:
    params = NoiseParams(T1=T1, T2=T2, enabled=True)
    psi = apply_gate(QuantumState.zero(1), Gate("H", (0,)))
    acc = np.zeros((2, 2), dtype=complex)
    for i in range(n_samples):
        out = idle_trajectory(psi, [duration], params, seed=[seed_base, i])
        acc += np.outer(out.data, out.data.conj())
    return acc / n_samples


def test_trajectory_average_matches_exact_channel():
    n = 10_000
    avg = _trajectory_average(n, T2, seed_base=42)
    exact = decayed(plus_density(), T2, idle_steps(NOISE, ((0, None),)))
    # off-diagonal magnitude lands within 3 statistical sigma of 0.5/e
    sigma = 0.5 / math.sqrt(n)
    assert abs(abs(avg[0, 1]) - 0.5 * math.exp(-1)) < 3 * sigma
    assert np.max(np.abs(avg - exact.data)) < 4 * sigma


def test_trajectory_error_shrinks_like_inverse_sqrt_n():
    exact = decayed(plus_density(), T2, idle_steps(NOISE, ((0, None),))).data
    errors = {}
    for n in (100, 1000, 10_000):
        avg = _trajectory_average(n, T2, seed_base=2024)
        errors[n] = np.max(np.abs(avg - exact))
    assert errors[10_000] < errors[100] / 3
    # log-log slope consistent with -1/2 (sampling noise allowed for)
    slope = (math.log(errors[10_000]) - math.log(errors[100])) / (
        math.log(10_000) - math.log(100)
    )
    assert -0.9 < slope < -0.1


def test_trajectory_damping_statistics():
    params = NoiseParams(T1=T1, T2=T2, enabled=True)
    one = apply_gate(QuantumState.zero(1), Gate("X", (0,)))
    n = 5000
    stays = sum(
        abs(idle_trajectory(one, [T1], params, seed=[9, i]).data[1]) > 0.5
        for i in range(n)
    )
    sigma = math.sqrt(math.exp(-1) * (1 - math.exp(-1)) / n)
    assert abs(stays / n - math.exp(-1)) < 3 * sigma


def _register(n: int, kind: str, rng) -> QuantumState:
    """A Haar state, |0...0> ("ground"), or a product of qubits each exactly
    |0>, exactly |1>, |+> or Haar ("product"); "signed" and "signed ground"
    also set the sign bit of about half of the product's or |0...0>'s zero
    components, so the register holds -0.0."""
    if kind == "haar":
        return haar_state(n, rng)
    vec = np.ones(1, dtype=complex)
    for _ in range(n):
        one = [np.array([1, 0j]), np.array([0j, 1]), np.array([1, 1 + 0j]) / math.sqrt(2),
               haar_state(1, rng).data][0 if kind.endswith("ground") else rng.integers(4)]
        vec = np.kron(vec, one)
    if kind.startswith("signed"):
        bits = vec.view(np.uint64)
        zero = bits << np.uint64(1) == 0
        bits[zero & (rng.random(bits.size) < 0.5)] |= np.uint64(1 << 63)
    return QuantumState(vec, n)


@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["haar", "product", "signed", "ground", "signed ground"]),
    dt=st.floats(0.0, 5 * T1),
    windows=st.integers(1, 6),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_idle_jumps_window_equals_the_per_qubit_oracle(n, seed, kind, dt, windows, data):
    # bit for bit, signs of zeros included, and the shared generator ends in
    # the same state: the same draws in the same order, whatever the keys,
    # their order, their T2 and the number of windows. Product states put
    # qubits exactly in |0>, so a window meets qubits with a zero |1> slice,
    # and a ground register is skipped up to its first Z flip; T2 down to
    # T1/40 and dt up to 5*T1 make Z flips fire, and those write -0.0.
    params = NoiseParams(T1=T1, T2=T2, enabled=True)
    qubits = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    overrides = {
        q: data.draw(st.one_of(st.none(), st.just(2 * T1), st.floats(T2 / 20, 2 * T1)))
        for q in qubits
    }
    psi = _register(n, kind, np.random.default_rng(seed))
    oracle_rng, window_rng = (np.random.default_rng([seed, 1]) for _ in range(2))
    expected = psi
    for _ in range(windows):
        for q, t2 in overrides.items():
            expected = idle_jump_oracle(expected, q, dt, params, oracle_rng, T2_override=t2)
    out = idle_jumps_window(psi, dt, params, overrides, window_rng, windows)
    assert np.array_equal(out.data.view(np.uint64), expected.data.view(np.uint64))
    assert window_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_a_ground_run_with_no_z_flip_returns_its_input_uncopied():
    # T2 = 2*T1 leaves no pure dephasing: no Z draw, so nothing can fire,
    # in a single window as in a run
    params = NoiseParams(T1=T1, T2=2 * T1, enabled=True)
    for windows in (1, 50):
        ground, rng = QuantumState.zero(3), np.random.default_rng(5)
        assert idle_jumps_window(ground, T1, params, {0: None, 2: None}, rng, windows) is ground
        reference = np.random.default_rng(5)
        reference.random(2 * windows)  # one damping draw per qubit and window
        assert rng.bit_generator.state == reference.bit_generator.state


def test_each_t2_map_and_key_order_gets_its_own_window_plan():
    # one duration and one params, maps that differ in T2 values and in key
    # order: a plan cached for one map must never serve another, so each
    # call equals the oracle stepping that map's qubits in its key order
    params = NoiseParams(T1=T1, T2=T2, enabled=True)
    psi = haar_state(3, np.random.default_rng(8))
    for overrides in ({0: None, 1: T1 / 30, 2: 2 * T1}, {2: 2 * T1, 0: None, 1: T1 / 30},
                      {2: None, 0: T1 / 30, 1: 2 * T1}):
        oracle_rng, window_rng = (np.random.default_rng(12) for _ in range(2))
        expected = psi
        for q, t2 in overrides.items():
            expected = idle_jump_oracle(expected, q, T1, params, oracle_rng, T2_override=t2)
        out = idle_jumps_window(psi, T1, params, overrides, window_rng)
        assert np.array_equal(out.data.view(np.uint64), expected.data.view(np.uint64))
        assert window_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_window_plans_are_read_only_and_their_cache_is_bounded():
    steps, draws, limits = _window_plan(T1, NoiseParams(T1=T1, T2=T2, enabled=True),
                                        ((1, None), (0, 2 * T1)))
    assert [q for q, _, _ in steps] == [1, 0]
    assert draws == limits.size == 3  # Z and damping for qubit 1, damping only for qubit 0
    assert limits[2] == 0.0 and not limits.flags.writeable
    assert _window_plan.cache_info().maxsize is not None


def test_idle_steps_are_built_once_per_map_and_read_only():
    overrides = ((2, None), (0, T1 / 30))
    steps = idle_steps(NOISE, overrides)
    assert idle_steps(NOISE, overrides) is steps and isinstance(steps, tuple)
    assert [q for q, _, _ in steps] == [2, 0]
    assert idle_steps.cache_info().maxsize is not None


def test_jump_step_requires_vector():
    params = NoiseParams(enabled=True)
    with pytest.raises(StateError):
        idle_jumps_window(plus_density(), 1e-6, params, {0: None}, np.random.default_rng(0))


def test_jump_step_rejects_a_qubit_outside_the_register():
    params = NoiseParams(enabled=True)
    for qubit in (-1, 2):
        with pytest.raises(StateError):
            idle_jumps_window(QuantumState.zero(2), 1e-6, params, {qubit: None},
                              np.random.default_rng(0))
