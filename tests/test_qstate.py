"""Register simulation: gates, exchange evolution, measurement, fidelity."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, sqrtm

from conftest import (PAULIS, append_zero_oracle, embed, from_matrix, haar_state, kron_chain,
                      multi_axis_marginal, norm_error, phase_aligned_maxdiff)
from qdotsim.errors import StateError
from qdotsim.qstate import (
    CNOT_MATRIX,
    HADAMARD,
    MATRIX_QUBIT_CAP,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHASE_S,
    PHASE_T,
    SQRT_SWAP_MATRIX,
    SWAP_MATRIX,
    Gate,
    QuantumState,
    apply_gate,
    exchange_unitary,
    measure,
    qubit_probabilities,
    reduced_density,
    state_fidelity,
    vector_marginal,
)

SQ2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# gate matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "gate_matrix,expected",
    [
        (PAULI_X, [[0, 1], [1, 0]]),
        (PAULI_Y, [[0, -1j], [1j, 0]]),
        (PAULI_Z, [[1, 0], [0, -1]]),
        (HADAMARD, [[SQ2, SQ2], [SQ2, -SQ2]]),
        (PHASE_S, [[1, 0], [0, 1j]]),
        (PHASE_T, [[1, 0], [0, np.exp(1j * np.pi / 4)]]),
        (SWAP_MATRIX, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    ],
)
def test_named_matrices_exact(gate_matrix, expected):
    assert np.array_equal(gate_matrix, np.array(expected, dtype=complex)) or np.allclose(
        gate_matrix, expected, atol=1e-15
    )


@pytest.mark.parametrize("kind", ["X", "Y", "Z", "H", "S", "T"])
def test_single_qubit_unitarity(kind):
    u = Gate(kind, (0,)).matrix()
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


@pytest.mark.parametrize("kind", ["CNOT", "SWAP", "SqrtSWAP"])
def test_two_qubit_unitarity(kind):
    u = Gate(kind, (0, 1)).matrix()
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


@given(
    ax=st.floats(-1, 1), ay=st.floats(-1, 1), az=st.floats(0.1, 1),
    angle=st.floats(-10, 10),
)
@settings(max_examples=50, deadline=None)
def test_rot_unitarity(ax, ay, az, angle):
    u = Gate("Rot", (0,), axis=(ax, ay, az), angle=angle).matrix()
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_rot_about_an_axis_whose_norm_overflows_is_rescaled_not_zeroed():
    # |[1e200, 0, 1]| overflows a float: the axis is divided by its largest
    # entry first, so the gate turns about x instead of collapsing to cos(angle/2) * I
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        huge = apply_gate(QuantumState.zero(1), Gate("Rot", (0,), axis=[1e200, 0, 1], angle=3.0))
    about_x = apply_gate(QuantumState.zero(1), Gate("Rot", (0,), axis=[1, 0, 0], angle=3.0))
    assert np.max(np.abs(huge.data - about_x.data)) < 1e-15


@given(axis=st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=3)
       .filter(lambda axis: np.linalg.norm(axis) >= 1e-12))
@settings(max_examples=200, deadline=None)
def test_an_axis_with_a_finite_norm_keeps_its_bits(axis):
    norm = float(np.linalg.norm(axis))
    assert Gate("Rot", (0,), axis=axis, angle=1.0).axis == tuple(a / norm for a in axis)


@given(theta=st.floats(-20, 20))
@settings(max_examples=50, deadline=None)
def test_exchange_unitarity(theta):
    u = exchange_unitary(theta)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_gate_validation():
    with pytest.raises(StateError):
        Gate("CNOT", (1, 1))
    with pytest.raises(StateError):
        Gate("X", (0, 1))
    with pytest.raises(StateError):
        Gate("Nope", (0,))
    with pytest.raises(StateError):
        Gate("Rot", (0,), axis=(0.0, 0.0, 0.0), angle=1.0)
    for value in (math.inf, -math.inf, math.nan, 10**400):  # the last is beyond a float
        with pytest.raises(StateError, match="^Rot angle must be finite$"):
            Gate("Rot", (0,), axis=(0.0, 1.0, 0.0), angle=value)
    for value in (math.inf, math.nan, 10**400):
        with pytest.raises(StateError, match="^ExchangeEvolve pulse area theta must be finite$"):
            Gate("ExchangeEvolve", (0, 1), theta=value)
    assert Gate("ExchangeEvolve", (0, 1), theta=1.7976931348623157e308).area > 0
    for value in (math.inf, -math.inf, math.nan, 10**400, -10**400):
        with pytest.raises(StateError, match="^axis entries must be finite$"):
            Gate("Rot", (0,), axis=(0.0, value, 1.0), angle=1.0)
        with pytest.raises(StateError, match="^axis entries must be finite$"):
            Gate("X", (0,), axis=(value, 0, 0))


# ---------------------------------------------------------------------------
# applying gates
# ---------------------------------------------------------------------------

def test_x_flips_zero():
    out = apply_gate(QuantumState.zero(1), Gate("X", (0,)))
    assert np.allclose(out.data, [0, 1])


def test_h_cnot_makes_bell():
    s = QuantumState.zero(2)
    s = apply_gate(s, Gate("H", (0,)))
    s = apply_gate(s, Gate("CNOT", (0, 1)))
    assert np.allclose(s.data, [SQ2, 0, 0, SQ2], atol=1e-12)


def test_h_involution_on_random_state(rng):
    s = haar_state(3, rng)
    out = apply_gate(apply_gate(s, Gate("H", (1,))), Gate("H", (1,)))
    assert np.max(np.abs(out.data - s.data)) < 1e-12


def test_qubit_ordering_msb_first():
    # X on qubit 0 of two qubits must flip the high-order index bit.
    out = apply_gate(QuantumState.zero(2), Gate("X", (0,)))
    assert np.allclose(out.data, [0, 0, 1, 0])


def test_apply_gate_against_kron_oracle(rng):
    s = haar_state(4, rng)
    gate = Gate("CNOT", (3, 1))
    expected = embed(CNOT_MATRIX, [3, 1], 4) @ s.data
    out = apply_gate(s, gate)
    assert np.max(np.abs(out.data - expected)) < 1e-12


@given(
    n=st.integers(1, 8),
    kind=st.sampled_from(["Rot", "CNOT", "SWAP", "SqrtSWAP", "ExchangeEvolve"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_matrix_apply_gate_against_kron_oracle(n, kind, seed):
    # U rho U^dagger on a random mixed state, 1- or 2-qubit targets in any order
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    rho = QuantumState(rho / np.trace(rho), n)
    if kind == "Rot" or n == 1:
        gate = Gate("Rot", (int(rng.integers(n)),), axis=tuple(rng.normal(size=3)),
                    angle=float(rng.uniform(-6, 6)))
    else:
        pair = tuple(int(q) for q in rng.permutation(n)[:2])
        theta = float(rng.uniform(0, 2 * math.pi)) if kind == "ExchangeEvolve" else None
        gate = Gate(kind, pair, theta=theta)
    u = embed(gate.matrix(), gate.targets, n)
    out = apply_gate(rho, gate)
    assert np.max(np.abs(out.data - u @ rho.data @ u.conj().T)) < 1e-12


@given(n=st.integers(0, MATRIX_QUBIT_CAP - 1), seed=st.integers(0, 2**32 - 1),
       sprinkle=st.sampled_from([0.0, 0.05, 0.5]))
@settings(max_examples=60, deadline=None)
def test_matrix_append_zero_qubit_equals_the_kron_oracle(n, seed, sprinkle):
    # bit for bit: -0.0 and subnormals of either sign, sprinkled into the
    # real and imaginary parts, give the products kron gives, signed zeros
    # and subnormal products included
    rng = np.random.default_rng(seed)
    rho = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    bits = rho.view(np.uint64)
    pick = rng.random(bits.shape) < sprinkle
    subnormal = rng.integers(1, 1 << 52, size=bits.shape, dtype=np.uint64)
    sign = np.where(rng.random(bits.shape) < 0.5, np.uint64(1 << 63), np.uint64(0))
    bits[pick] = (np.where(rng.random(bits.shape) < 0.5, 0, subnormal) | sign)[pick]
    state = QuantumState(rho, n)
    grown = state.append_zero_qubit()
    assert grown.n_qubits == n + 1
    assert grown.data.tobytes() == append_zero_oracle(state).data.tobytes()
    assert grown.data.flags.c_contiguous


def test_target_out_of_range():
    with pytest.raises(StateError):
        apply_gate(QuantumState.zero(2), Gate("X", (2,)))


def test_vector_cap_enforced():
    with pytest.raises(StateError):
        QuantumState.zero(13)
    with pytest.raises(StateError):
        from_matrix(np.eye(2**9) / 2**9)


# ---------------------------------------------------------------------------
# exchange evolution
# ---------------------------------------------------------------------------

def exchange_oracle(theta: float) -> np.ndarray:
    """Independent matrix-exponential of H = theta * S1.S2."""
    s_dot_s = 0.25 * (
        kron_chain(PAULIS["X"], PAULIS["X"])
        + kron_chain(PAULIS["Y"], PAULIS["Y"])
        + kron_chain(PAULIS["Z"], PAULIS["Z"])
    )
    return expm(-1j * theta * s_dot_s)


def test_exchange_zero_is_identity(rng):
    s = haar_state(2, rng)
    out = apply_gate(s, Gate("ExchangeEvolve", (0, 1), theta=0.0))
    assert np.max(np.abs(out.data - s.data)) < 1e-14


def test_exchange_pi_swaps_01():
    s = QuantumState(np.array([0, 1, 0, 0], complex), 2)  # |01>
    hbar = 6.582119569e-16
    J = 5e-6
    t = math.pi * hbar / J
    out = apply_gate(s, Gate("ExchangeEvolve", (0, 1), theta=J * t / hbar))
    target = QuantumState(np.array([0, 0, 1, 0], complex), 2)  # |10>
    assert state_fidelity(out, target) > 1 - 1e-10


@pytest.mark.parametrize("theta", [0.3, math.pi / 2, math.pi, 2.2, 5.0])
def test_exchange_matches_expm_oracle(theta, rng):
    u = exchange_unitary(theta)
    assert np.max(np.abs(u - exchange_oracle(theta))) < 1e-12
    s = haar_state(2, rng)
    out = apply_gate(s, Gate("ExchangeEvolve", (0, 1), theta=theta))
    assert np.max(np.abs(out.data - exchange_oracle(theta) @ s.data)) < 1e-12


def test_exchange_half_pi_twice_equals_pi(rng):
    s = haar_state(2, rng)
    half = apply_gate(
        apply_gate(s, Gate("ExchangeEvolve", (0, 1), theta=math.pi / 2)),
        Gate("ExchangeEvolve", (0, 1), theta=math.pi / 2),
    )
    full = apply_gate(s, Gate("ExchangeEvolve", (0, 1), theta=math.pi))
    assert state_fidelity(half, full) > 1 - 1e-10


def test_exchange_pi_is_swap_up_to_phase():
    diff = phase_aligned_maxdiff(exchange_unitary(math.pi), SWAP_MATRIX)
    assert diff < 1e-12
    diff = phase_aligned_maxdiff(exchange_unitary(math.pi / 2), SQRT_SWAP_MATRIX)
    assert diff < 1e-12


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_one_is_deterministic():
    s = apply_gate(QuantumState.zero(1), Gate("X", (0,)))
    for seed in range(5):
        bit, _, post = measure(s, 0, "Z", np.random.default_rng(seed).random)
        assert bit == 1
        assert np.allclose(post.data, [0, 1])


def test_measure_plus_statistics():
    plus = apply_gate(QuantumState.zero(1), Gate("H", (0,)))
    rng = np.random.default_rng(99)
    n = 10_000
    ones = sum(measure(plus, 0, "Z", rng.random)[0] for _ in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(ones / n - 0.5) < 3 * sigma


def test_measure_chi_square_born():
    # chi^2 against the Born rule at the 0.001 level (1 dof critical 10.828)
    state = apply_gate(QuantumState.zero(1), Gate("Rot", (0,), axis=(0, 1, 0), angle=1.1))
    p1 = float(qubit_probabilities(state, 0)[1])
    rng = np.random.default_rng(123)
    n = 10_000
    ones = sum(measure(state, 0, "Z", rng.random)[0] for _ in range(n))
    zeros = n - ones
    chi2 = (ones - n * p1) ** 2 / (n * p1) + (zeros - n * (1 - p1)) ** 2 / (
        n * (1 - p1)
    )
    assert chi2 < 10.828


def test_x_basis_measure_of_plus():
    plus = apply_gate(QuantumState.zero(1), Gate("H", (0,)))
    for seed in range(5):
        bit, _, post = measure(plus, 0, "X", np.random.default_rng(seed).random)
        assert bit == 0
        assert state_fidelity(post, plus) > 1 - 1e-12


def test_measure_projects_and_renormalizes(rng):
    s = haar_state(3, rng)
    outcome, _, post = measure(s, 1, "Z", np.random.default_rng(7).random)
    assert norm_error(post) < 1e-12
    assert qubit_probabilities(post, 1)[outcome] > 1 - 1e-12


def measure_oracle(state: QuantumState, qubit: int, basis: str, uniforms, readout_error):
    """(bit, p1, post-state data, uniforms drawn) of a readout from
    kron-embedded projectors: the outcome is u0 < p1, drawn only when it is
    uncertain or a misread is possible; the bit is misread when the last
    uniform drawn is below readout_error."""
    kets = np.eye(2, dtype=complex) if basis == "Z" else HADAMARD  # rows |0>,|1> or |+>,|->
    proj = [embed(np.outer(k, k.conj()), [qubit], state.n_qubits) for k in kets]
    rho = np.outer(state.data, state.data.conj()) if state.is_vector else state.data
    p1 = float(np.real(np.trace(proj[1] @ rho)))
    drawn = 2 if readout_error > 0 else int(0 < p1 < 1)
    outcome = int(uniforms[0] < p1) if drawn else int(p1 >= 1)
    bit = outcome ^ int(drawn == 2 and uniforms[1] < readout_error)
    p = p1 if outcome else 1.0 - p1
    if state.is_vector:
        post = proj[outcome] @ state.data / np.sqrt(p)
    else:
        post = proj[outcome] @ state.data @ proj[outcome] / p
    return bit, p1, post, drawn


@given(
    n=st.integers(1, 3),
    qubit_seed=st.integers(0, 2**32 - 1),
    prep=st.sampled_from(["haar", "basis", "plus"]),
    basis=st.sampled_from(["Z", "X"]),
    matrix=st.booleans(),
    uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2),
    readout_error=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@settings(max_examples=300, deadline=None)
def test_measure_matches_the_projector_oracle(n, qubit_seed, prep, basis, matrix, uniforms,
                                              readout_error):
    # a basis state is certain in Z, and |+>|+> (every amplitude exactly 0.5)
    # in X: p1 is exactly 0.0 or 1.0, so with no readout error they draw nothing
    rng = np.random.default_rng(qubit_seed)
    n = 2 if prep == "plus" else n
    qubit = int(rng.integers(n))
    if prep == "haar":
        state = haar_state(n, rng)
    elif prep == "plus":
        state = QuantumState(np.full(4, 0.5, dtype=complex), 2)
    else:
        vec = np.zeros(2**n, dtype=complex)
        vec[int(rng.integers(2**n))] = 1.0
        state = QuantumState(vec, n)
    state = state.to_density() if matrix else state
    bit, p1, post, drawn = measure_oracle(state, qubit, basis, uniforms, readout_error)
    assume(abs(uniforms[0] - p1) > 1e-9)
    calls = []

    def draw(k):
        calls.append(k)
        return np.array(uniforms[:k])

    got = measure(state, qubit, basis, draw, readout_error)
    assert got[0] == bit and type(got[0]) is int
    assert got[1] == pytest.approx(p1, abs=1e-12)
    assert calls == ([drawn] if drawn else [])
    assert np.max(np.abs(got[2].data - post)) < 1e-10  # collapsed onto the true outcome


def test_measure_zero_branch_raises():
    # a draw below a p1 under 1e-12 picks a branch of no weight: _collapse refuses it
    for p1 in (1e-13, 1e-30):
        s = QuantumState(np.array([math.sqrt(1 - p1), math.sqrt(p1)], complex), 1)
        for state in (s, s.to_density()):
            with pytest.raises(StateError, match="probability"):
                measure(state, 0, "Z", lambda k: np.zeros(k))


# ---------------------------------------------------------------------------
# fidelity and state comparison
# ---------------------------------------------------------------------------

def test_fidelity_basics(rng):
    psi = haar_state(2, rng)
    assert state_fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)
    zero = QuantumState.zero(1)
    one = apply_gate(zero, Gate("X", (0,)))
    plus = apply_gate(zero, Gate("H", (0,)))
    assert state_fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    assert state_fidelity(zero, plus) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetric_and_mixed(rng):
    a = haar_state(2, rng)
    b = haar_state(2, rng)
    assert state_fidelity(a, b) == pytest.approx(state_fidelity(b, a), abs=1e-12)
    # vector vs density and density vs density agree with the pure overlap
    overlap = state_fidelity(a, b)
    assert state_fidelity(a, b.to_density()) == pytest.approx(overlap, abs=1e-10)
    assert state_fidelity(a.to_density(), b.to_density()) == pytest.approx(
        overlap, abs=1e-8
    )


def test_fidelity_of_pure_density_matrices_is_the_exact_overlap(rng):
    # exact overlaps, which the two-eigh Uhlmann path misses by ~5e-9 on rank-1 states
    for _ in range(3):
        v, w = haar_state(8, rng), haar_state(8, rng)
        exact = abs(np.vdot(v.data, w.data)) ** 2
        assert abs(state_fidelity(v.to_density(), w.to_density()) - exact) <= 1e-14
        mixed = QuantumState(0.5 * (w.to_density().data + np.eye(256) / 256), 8)
        exact = np.vdot(v.data, mixed.data @ v.data).real
        assert abs(state_fidelity(mixed, v.to_density()) - exact) <= 1e-14


def _random_density(rng, n):
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = g @ g.conj().T
    return QuantumState(rho / np.trace(rho).real, n)


def test_fidelity_of_mixed_pairs_matches_sqrtm_oracle(rng):
    # full-rank pairs, where neither square root is ill-conditioned
    for n in (1, 2, 3, 4, 5):
        a, b = _random_density(rng, n), _random_density(rng, n)
        root = sqrtm(a.data)
        oracle = np.trace(sqrtm(root @ b.data @ root)).real ** 2
        assert state_fidelity(a, b) == pytest.approx(oracle, abs=1e-10)


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_spectrum(rng, d, rank):
    p = np.zeros(d)
    p[rng.choice(d, size=rank, replace=False)] = rng.random(rank) + 0.01
    return p / p.sum()


def test_fidelity_of_rank_deficient_commuting_pairs_is_exact(rng):
    # U diag(p) U^dag and U diag(q) U^dag have fidelity (sum sqrt(p_i q_i))^2;
    # square roots of eigenvalues that should be 0 cost the eigh-sqrt path ~3e-8
    for _ in range(300):
        u = _random_unitary(rng, 8)
        ranks = rng.integers(1, 9, size=2)
        ranks[rng.integers(2)] = rng.integers(1, 8)  # at least one rank-deficient
        p, q = (_random_spectrum(rng, 8, r) for r in ranks)
        a = QuantumState((u * p) @ u.conj().T, 3)
        b = QuantumState((u * q) @ u.conj().T, 3)
        exact = np.sum(np.sqrt(p * q)) ** 2
        assert abs(state_fidelity(a, b) - exact) <= 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(StateError):
        state_fidelity(QuantumState.zero(1), QuantumState.zero(2))


def test_global_phase_ignored(rng):
    s = haar_state(2, rng)
    rotated = QuantumState(np.exp(0.7j) * s.data, 2)
    assert state_fidelity(s, rotated) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _random_gate(rng, n):
    kind = rng.choice(["X", "Y", "Z", "H", "S", "T", "Rot", "CNOT", "SWAP",
                       "SqrtSWAP", "ExchangeEvolve"])
    qubits = rng.permutation(n)
    if kind in ("X", "Y", "Z", "H", "S", "T"):
        return Gate(kind, (int(qubits[0]),))
    if kind == "Rot":
        axis = rng.normal(size=3)
        return Gate("Rot", (int(qubits[0]),), axis=tuple(axis),
                    angle=float(rng.uniform(-6, 6)))
    theta = float(rng.uniform(0, 2 * math.pi))
    pair = (int(qubits[0]), int(qubits[1]))
    return Gate(kind, pair, theta=theta if kind == "ExchangeEvolve" else None)


def test_norm_preserved_over_1000_random_gates(rng):
    s = haar_state(4, rng)
    for _ in range(1000):
        s = apply_gate(s, _random_gate(rng, 4))
    assert norm_error(s) < 1e-9


def test_vector_and_matrix_backends_agree(rng):
    psi = haar_state(3, rng)
    rho = psi.to_density()
    for _ in range(25):
        g = _random_gate(rng, 3)
        psi = apply_gate(psi, g)
        rho = apply_gate(rho, g)
    assert state_fidelity(psi, rho) > 1 - 1e-10
    assert np.max(np.abs(rho.data - np.outer(psi.data, psi.data.conj()))) < 1e-10


def test_density_matrix_stays_physical(rng):
    rho = haar_state(2, rng).to_density()
    for _ in range(50):
        rho = apply_gate(rho, _random_gate(rng, 2))
    assert abs(np.trace(rho.data) - 1) < 1e-10
    assert np.max(np.abs(rho.data - rho.data.conj().T)) < 1e-10
    assert np.linalg.eigvalsh(rho.data).min() > -1e-10


def test_state_validation_rejects_bad_inputs():
    with pytest.raises(StateError):
        from_matrix([[0.5, 0.5j], [0.5j, 0.5]])  # not Hermitian
    with pytest.raises(StateError):
        from_matrix([[2.0, 0], [0, -1.0]])  # trace/positivity


def test_reduced_density_of_bell():
    s = apply_gate(QuantumState.zero(2), Gate("H", (0,)))
    s = apply_gate(s, Gate("CNOT", (0, 1)))
    rho = reduced_density(s, [0])
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


@given(n=st.integers(1, 12), data=st.data())
@settings(max_examples=300, deadline=None)
def test_vector_marginal_equals_the_multi_axis_sum_bit_for_bit(n, data):
    # amplitude magnitudes spread over ~155 decades, so the summation order
    # shows in the rounding, and exact zeros with either sign bit
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi = (rng.normal(size=2**n) + 1j * rng.normal(size=2**n)) * 10.0 ** rng.uniform(-150, 5, 2**n)
    psi[rng.random(2**n) < data.draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    bits = psi.view(np.uint64)
    bits[(bits << np.uint64(1) == 0) & (rng.random(bits.size) < 0.5)] |= np.uint64(1 << 63)
    qubit = data.draw(st.integers(0, n - 1))
    assert np.array_equal(vector_marginal(psi, qubit).view(np.uint64),
                          multi_axis_marginal(psi, n, qubit).view(np.uint64))
