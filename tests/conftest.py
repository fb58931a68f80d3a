"""Shared test helpers: independent oracles and random-state generators.

Oracles here deliberately avoid the package's own gate-application code:
they build full operators with numpy kron products (or scipy expm) so the
implementation is checked against a second, unrelated path.
"""
import math
from collections import deque

import numpy as np
import pytest

from qdotsim import scenario as scenario_mod
from qdotsim.device import DotArray
from qdotsim.errors import RoutingError, StateError
from qdotsim.noise import jump_probabilities
from qdotsim.qec import (
    _error_tables,
    _run_ops,
    cycle_pulse_count,
    principal_correction,
    qec_cycle,
)
from qdotsim.qstate import (
    MATRIX_QUBIT_CAP,
    NORM_TOL,
    PAULI_Z,
    Gate,
    QuantumState,
    apply_gate,
    measure,
    qubit_probabilities,
    state_fidelity,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_chain(*mats) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_string(s: str) -> np.ndarray:
    """Full operator for a Pauli word like 'XZZXI' (qubit 0 leftmost)."""
    return kron_chain(*(PAULIS[c] for c in s))


def embed(op: np.ndarray, targets, n: int) -> np.ndarray:
    """Lift a 1- or 2-qubit operator onto an n-qubit register by kron and
    index permutation (independent of the package's tensor machinery)."""
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    big = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    order = list(targets) + rest
    perm = np.argsort(order)  # logical qubit q sits at axis perm[q]
    big = big.reshape([2] * (2 * n))
    axes = list(perm) + [n + p for p in perm]
    return np.transpose(big, axes).reshape(2**n, 2**n)


def haar_state(n: int, rng) -> QuantumState:
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    vec /= np.linalg.norm(vec)
    return QuantumState.from_vector(vec)


def phase_aligned_maxdiff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - e^{i*phi} b| after aligning the global phase on b."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    ref = b[idx]
    if abs(ref) < 1e-300:
        return float(np.max(np.abs(a - b)))
    phase = a[idx] / ref
    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
    return float(np.max(np.abs(a - phase * b)))


def from_matrix(mat) -> QuantumState:
    """A density-matrix register, checked square, Hermitian, of unit trace
    and positive semidefinite."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StateError("density matrix must be square")
    n = int(round(np.log2(mat.shape[0])))
    if 2**n != mat.shape[0]:
        raise StateError("matrix dimension is not a power of two")
    if n > MATRIX_QUBIT_CAP:
        raise StateError(f"{n} qubits exceeds matrix cap {MATRIX_QUBIT_CAP}")
    if np.max(np.abs(mat - mat.conj().T)) > NORM_TOL:
        raise StateError("density matrix is not Hermitian")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > NORM_TOL:
        raise StateError(f"trace = {tr}, not 1 within {NORM_TOL}")
    evals = np.linalg.eigvalsh(mat)
    if evals.min() < -NORM_TOL:
        raise StateError(f"negative eigenvalue {evals.min()}")
    return QuantumState(mat.copy(), n)


def norm_error(state: QuantumState) -> float:
    """|norm^2 - 1| for vectors, |trace - 1| for matrices."""
    if state.is_vector:
        return abs(float(np.sum(np.abs(state.data) ** 2)) - 1.0)
    return abs(complex(np.trace(state.data)) - 1.0)


def dephasing_kraus(decay: float) -> list[np.ndarray]:
    """Kraus pair {sqrt(p) I, sqrt(1-p) Z} with p = (1 + decay)/2."""
    p = 0.5 * (1.0 + decay)
    return [
        np.sqrt(p) * np.eye(2, dtype=complex),
        np.sqrt(1.0 - p) * PAULI_Z.copy(),
    ]


def damping_kraus(gamma: float) -> list[np.ndarray]:
    """Standard amplitude-damping Kraus pair toward |0>."""
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def states_close(a: QuantumState, b: QuantumState, tol: float = 1e-12) -> bool:
    """Same register within tol entrywise: vectors up to a global phase,
    density matrices exactly."""
    if a.n_qubits != b.n_qubits or a.is_vector != b.is_vector:
        return False
    if a.is_vector:
        return phase_aligned_maxdiff(a.data, b.data) < tol
    return float(np.max(np.abs(a.data - b.data))) < tol


def qec_cycle_oracle(state: QuantumState, block, injected, rng) -> tuple[QuantumState, dict]:
    """The five-qubit correction cycle as separate passes: encode, each
    injected (pauli, block position) in turn, decode, measure the four
    syndrome qubits, correct the principal, reset the syndromes, re-encode
    and decode again. qec.qec_cycle must return the same report and, up to
    a global phase and rounding, the same register, drawing the same numbers
    from rng. The weight of the injected product is taken from the Pauli
    matrices, not from bit codes."""
    block = tuple(block)
    state = _run_ops(state, block)
    products = {}
    for name, pos in injected:
        state = apply_gate(state, Gate(name, (block[pos],)))
        products[block[pos]] = PAULIS[name] @ products.get(block[pos], I2)
    state = _run_ops(state, block, inverse=True)
    syndrome, uniforms = [], rng.random(4)
    for q, u in zip(block[1:], uniforms):
        bit, _, state = measure(state, q, "Z", lambda k: np.full(k, u))
        syndrome.append(bit)
    correction = principal_correction(tuple(syndrome))
    if correction != "I":
        state = apply_gate(state, Gate(correction, (block[0],)))
    for q, bit in zip(block[1:], syndrome):
        if bit:
            state = apply_gate(state, Gate("X", (q,)))
    state = _run_ops(_run_ops(state, block), block, inverse=True)
    pauli, position = _error_tables()[0][tuple(syndrome)]
    weight = sum(not np.allclose(m, m[0, 0] * I2) for m in products.values())
    return state, {
        "syndrome": syndrome,
        "diagnosed_error": {"pauli": pauli, "block_position": position},
        "principal_correction": correction,
        "injected_errors": [list(e) for e in injected],
        "pulse_count": cycle_pulse_count(int(correction != "I"), sum(syndrome)),
        "possible_logical_error": weight >= 2,
    }


def memory_experiment_oracle(cycles: int, p: float, rng, pulses_per_cycle: int = 500) -> dict:
    """The memory experiment with one state-vector qec_cycle per round: draw
    Binomial(pulses_per_cycle, p) errors, a (Pauli, block position) pair of
    integers for each, run the cycle on (|0> + e^{i pi/4}|1>)/sqrt(2) and
    count a failure below fidelity 1 - 1e-6. qec.memory_experiment must
    return the same dict and leave rng in the same state."""
    amp = np.array([1.0, np.exp(1j * np.pi / 4)], dtype=complex) / np.sqrt(2.0)
    base = np.zeros(32, dtype=complex)
    base[0], base[16] = amp[0], amp[1]
    reference = QuantumState(base, 5)
    histogram: dict[str, int] = {}
    failures = 0
    pulse_counts = []
    for _ in range(cycles):
        n_errors = int(rng.binomial(pulses_per_cycle, p))
        injected = [
            (("X", "Y", "Z")[int(rng.integers(3))], int(rng.integers(5)))
            for _ in range(n_errors)
        ]
        state, rep = qec_cycle(reference, (0, 1, 2, 3, 4), injected, rng)
        if state_fidelity(state, reference) < 1.0 - 1e-6:
            failures += 1
        key = "".join(str(b) for b in rep["syndrome"])
        histogram[key] = histogram.get(key, 0) + 1
        pulse_counts.append(rep["pulse_count"])
    return {"failures": failures, "syndrome_histogram": histogram,
            "pulse_counts": pulse_counts}


def idle_jump_oracle(state: QuantumState, qubit: int, dt: float, params, rng,
                     T2_override=None) -> QuantumState:
    """One qubit's stochastic idle step, a fresh state per operation: a Z
    flip with probability p_Z, then a Kraus-sampled damping jump with one
    scalar draw each. noise.idle_jumps_window must match it bit for bit,
    signs of zeros included, so the flip negates the |1> slice exactly: a
    Z matrix product would compute 1*a + 0*b and rewrite the sign of a zero."""
    if not state.is_vector:
        raise StateError("trajectory jumps act on vector states")
    if not params.enabled or dt == 0:
        return state
    p_z, gamma = jump_probabilities(dt, params, T2_override)
    n = state.n_qubits
    sel0 = [slice(None)] * n
    sel1 = [slice(None)] * n
    sel0[qubit], sel1[qubit] = 0, 1
    if p_z > 0 and rng.random() < p_z:
        psi = state.data.reshape([2] * n).copy()
        psi[tuple(sel1)] = -psi[tuple(sel1)]
        state = QuantumState(psi.reshape(-1), n)
    if gamma > 0:
        p1 = float(qubit_probabilities(state, qubit)[1])
        p_jump = gamma * p1
        psi = state.data.reshape([2] * n).copy()
        if rng.random() < p_jump:
            psi[tuple(sel0)] = psi[tuple(sel1)] / np.sqrt(p1)
            psi[tuple(sel1)] = 0.0
        else:
            psi[tuple(sel1)] *= np.sqrt(1.0 - gamma)
            psi /= np.sqrt(1.0 - p_jump)
        state = QuantumState(psi.reshape(-1), n)
    return state


def channel_oracle(state: QuantumState, t: float, steps) -> QuantumState:
    """The exact idle channel as four strided block updates per step, in step
    order: noise._channel must match it bit for bit, signs of zeros
    included. A step (qubit, dephasing_rate, damping_rate) moves
    gamma = 1 - exp(-t*damping_rate) of the qubit's |1><1| block into its
    |0><0| block and scales its coherences by
    exp(-t*dephasing_rate) * sqrt(1 - gamma)."""
    if t == 0:
        return state
    n = state.n_qubits
    rho = state.data.copy()
    for qubit, dephasing_rate, damping_rate in steps:
        gamma = 1.0 - math.exp(-t * damping_rate)
        coherence = math.exp(-t * dephasing_rate) * math.sqrt(1.0 - gamma)
        hi, lo = 2**qubit, 2 ** (n - qubit - 1)
        blocks = rho.reshape(hi, 2, lo, hi, 2, lo)
        blocks[:, 0, :, :, 1, :] *= coherence
        blocks[:, 1, :, :, 0, :] *= coherence
        blocks[:, 0, :, :, 0, :] += gamma * blocks[:, 1, :, :, 1, :]
        blocks[:, 1, :, :, 1, :] *= 1.0 - gamma
    return QuantumState(rho, n)


def idle_trajectory(state: QuantumState, durations, params, seed) -> QuantumState:
    """One stochastic unraveling of consecutive idle windows on a vector
    state: each window steps every qubit in order through idle_jump_oracle,
    all draws from one generator seeded with `seed`."""
    rng = np.random.default_rng(seed)
    for dt in durations:
        for q in range(state.n_qubits):
            state = idle_jump_oracle(state, q, dt, params, rng)
    return state


def route_oracle(array: DotArray, src, dst) -> list:
    """Breadth-first route over (x, y) tuples with a parent dict, expanding
    +x, +y, -x, -y and stopping when dst is popped; the errors and path
    channels.plan_tunnel_route must reproduce."""
    array._pos_check(src)
    array._pos_check(dst)
    occupied = set(array.qubit_positions)
    if src not in occupied:
        raise StateError(f"source dot {src} is empty")
    if dst in occupied:
        raise RoutingError(f"destination dot {dst} is occupied")
    blocked = occupied | {pos for pos, role in array.roles.items() if role == "readout"}
    if dst in blocked:
        raise RoutingError(f"destination dot {dst} cannot host an electron")
    parent = {src: src}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        if cur == dst:
            break
        for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            nxt = (cur[0] + dx, cur[1] + dy)
            if (nxt in parent or nxt in blocked
                    or not (0 <= nxt[0] < array.width and 0 <= nxt[1] < array.height)):
                continue
            parent[nxt] = cur
            queue.append(nxt)
    if dst not in parent:
        raise RoutingError(f"no empty path from {src} to {dst}")
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return path[::-1]


def hop_oracle(array: DotArray, path) -> list:
    """A route as one move_electron per hop; returns the path.
    channels.run_tunnel_route must leave the array the same bit for bit,
    generator included, or raise the same error after the same hops."""
    for a, b in zip(path, path[1:]):
        array.move_electron(a, b)
    return path


def run_shots_eagerly(scenario: dict, shots: int) -> dict:
    """Reference shot loop with nothing shared between shots: every shot runs
    from event 0 on a fresh array, with eager generators
    np.random.default_rng([seed, shot, i]) for event i and [seed, shot,
    0xFFFF] for the array. Returns the run_scenario report fields
    measurement_records, measurement_counts and events (shot 0's log)."""
    material, roles, t2_overrides, steps = scenario_mod.validate_scenario(scenario)
    seed = scenario["seed"]
    section = scenario["array"]
    records, events = [], []
    for shot in range(shots):
        array = DotArray(
            section["width"], section["height"], material, roles=roles,
            representation=section.get("representation", "vector"),
            strict=scenario.get("strict", False),
            seed=np.random.default_rng([seed, shot, 0xFFFF]),
            t2_overrides=t2_overrides,
        )
        bits = []
        for index, (spec, event, at) in enumerate(steps):
            clock_before = array.clock
            result = spec.run(array, event, at, np.random.default_rng([seed, shot, index]))
            result = result if isinstance(result, dict) else {}
            bits += result.get("measurements") or []
            if shot == 0:
                entry = {
                    "index": index, "event": event["op"],
                    "clock_before": clock_before, "clock_after": array.clock,
                    "fidelity_checks": result.get("fidelity_checks"),
                    "measurements": result.get("measurements"),
                }
                entry.update({k: result[k] for k in ("path", "qec_report") if k in result})
                events.append(entry)
        records.append("".join(str(b) for b in bits))
    counts = {r: records.count(r) for r in sorted(set(records))}
    return {"measurement_records": records, "measurement_counts": counts,
            "events": events}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
