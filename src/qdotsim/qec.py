"""Five-qubit error correction: one cycle encodes, decodes, reads the
syndrome and corrects.

The code is the [[5,1,3]] perfect code, stabilized by XZZXI and its cyclic
shifts. A block is five qubits, the principal first: the principal carries
the protected amplitude; the four syndrome qubits start in |0> and, after
decoding, hold a 4-bit pattern that names the single-qubit Pauli error (if
any) that struck while encoded. The 15 possible errors plus "none" exactly
fill the 16 syndrome patterns.

The encoding circuit is a fixed Clifford sequence; compiled onto the device
gate set (Rabi rotations plus exchange-composed CNOT/CZ) its pulse count is
reported next to the conventional 500-pulse cycle budget.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .device import MaterialParams
from .errors import StateError
from .qstate import (
    _PAULI_BY_NAME,
    Gate,
    QuantumState,
    _apply_unitary,
    _apply_unitary_vec,
    apply_gate,
    measure,
    qubit_probabilities,
    reduced_density,
    require_ground,
    state_fidelity,
)

STABILIZER_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")

# Clifford encoder, principal first: maps (a|0> + b|1>) (x) |0000> onto the
# code space. CZ written as (control, target) though it is symmetric.
_ENCODE_OPS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("Z", (0,)),
    ("H", (1,)), ("H", (2,)), ("H", (3,)), ("H", (4,)),
    ("CNOT", (4, 0)), ("CNOT", (3, 0)), ("CNOT", (2, 0)), ("CNOT", (1, 0)),
    ("CZ", (0, 4)), ("CZ", (1, 2)), ("CZ", (3, 4)), ("CZ", (0, 1)), ("CZ", (2, 3)),
)

# Device-compilation pulse costs: a CZ is two sqrt-SWAP exchange windows plus
# three z-rotations; a CNOT adds the two basis-change Hadamards.
PULSE_COST = {"1q": 1, "CZ": 5, "CNOT": 7, "measure": 1, "reset": 1}

# Paulis as (x, z) bits packed into x + 2z: a product of Paulis on one qubit
# is, up to phase, the XOR of their codes, and _PAULI_NAMES[code] names it.
_PAULI_BITS = {"X": 1, "Y": 3, "Z": 2}
_PAULI_NAMES = "IXZY"

# The block of a bare five-qubit register.
_BLOCK = (0, 1, 2, 3, 4)


@lru_cache(maxsize=1)
def _encoder_unitary() -> np.ndarray:
    """The encoder as one read-only 32x32 unitary: _ENCODE_OPS run once over
    the identity, viewed as a 10-qubit vector with the gates on axes 0-4."""
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    u = np.eye(32, dtype=complex)
    for kind, locals_ in _ENCODE_OPS:
        gate = cz if kind == "CZ" else Gate(kind, locals_).matrix()
        u = _apply_unitary_vec(u, gate, locals_, 10)
    u = np.ascontiguousarray(u.reshape(32, 32))
    u.flags.writeable = False
    return u


def _run_ops(state: QuantumState, qubits, inverse: bool = False) -> QuantumState:
    """The encoder on a block of qubits, principal first; its adjoint, the
    decoder, with inverse=True."""
    u = _encoder_unitary()
    return _apply_unitary(state, u.conj().T if inverse else u, qubits)


@lru_cache(maxsize=1)
def encode_pulse_count() -> int:
    """Pulses in the compiled encoder: 5 single-qubit, 4 CNOT, 5 CZ."""
    return sum(PULSE_COST.get(kind, PULSE_COST["1q"]) for kind, _ in _ENCODE_OPS)


@lru_cache(maxsize=1)
def _error_tables() -> tuple[dict, dict]:
    """Brute-force both lookup tables on a fresh 5-qubit block.

    Returns (syndrome -> (pauli, block position), syndrome -> principal
    correction). Probe state is a fixed non-symmetric amplitude pair so
    all four candidate corrections are distinguishable."""
    amp = np.array([0.6, 0.8 * np.exp(1j * np.pi / 7)], dtype=complex)
    psi = np.zeros(32, dtype=complex)
    psi[0], psi[16] = amp[0], amp[1]
    encoded = _run_ops(QuantumState(psi, 5), _BLOCK)
    syndrome_map: dict[tuple, tuple[str, int]] = {(0, 0, 0, 0): ("I", -1)}
    correction_map: dict[tuple, str] = {(0, 0, 0, 0): "I"}
    for q in range(5):
        for name in ("X", "Y", "Z"):
            hit = apply_gate(encoded, Gate(name, (q,)))
            dec = _run_ops(hit, _BLOCK, inverse=True)
            syndrome = []
            for sq in _BLOCK[1:]:
                p1 = float(qubit_probabilities(dec, sq)[1])
                if 1e-10 < p1 < 1.0 - 1e-10:
                    raise StateError("syndrome qubit not in a basis state")
                syndrome.append(int(p1 > 0.5))
            syndrome = tuple(syndrome)
            if syndrome in syndrome_map:
                raise StateError(f"syndrome collision for {name}{q}")
            rho = reduced_density(dec, [0])
            for cand, mat in _PAULI_BY_NAME.items():
                fixed = mat @ rho @ mat.conj().T
                if float(np.real(amp.conj() @ fixed @ amp)) > 1.0 - 1e-9:
                    correction_map[syndrome] = cand
                    break
            else:
                raise StateError(f"no principal correction for {name}{q}")
            syndrome_map[syndrome] = (name, q)
    return syndrome_map, correction_map


def principal_correction(syndrome: tuple[int, int, int, int]) -> str:
    """Pauli to apply to the decoded principal for a measured syndrome."""
    table = _error_tables()[1]
    if tuple(syndrome) not in table:
        raise StateError(f"not a 4-bit syndrome: {syndrome}")
    return table[tuple(syndrome)]


def cycle_pulse_count(n_corrections: int, n_resets: int) -> int:
    """Compiled pulses in one decode-measure-correct-encode cycle."""
    return (
        2 * encode_pulse_count()
        + 4 * PULSE_COST["measure"]
        + n_corrections * PULSE_COST["1q"]
        + n_resets * PULSE_COST["reset"]
    )


@lru_cache(maxsize=1)
def syndrome_pulse_counts() -> dict[str, int]:
    """A memory round's compiled pulse count by its syndrome string, e.g. "0110"."""
    return {"".join(map(str, syndrome)): cycle_pulse_count(correction != "I", sum(syndrome))
            for syndrome, correction in _error_tables()[1].items()}


def _pauli_codes(injected) -> tuple[int, ...]:
    """The product of the injected (pauli, block position) pairs, phases
    dropped: one x + 2z code per block position."""
    codes = [0] * 5
    for name, block_pos in injected:
        codes[block_pos] ^= _PAULI_BITS[name]
    return tuple(codes)


def _cycle(state: QuantumState, block, codes, uniforms) -> tuple[QuantumState, tuple, tuple]:
    """Encode the block, apply the net Pauli `codes`, decode, measure the
    four syndrome qubits, correct the principal and reset the syndromes.
    Measurement k reads uniforms[k] with qstate.measure. Returns the
    register, the syndrome and the four p1 it compared with."""
    state = _run_ops(state, block)
    for q, bits in zip(block, codes):
        if bits:
            state = apply_gate(state, Gate(_PAULI_NAMES[bits], (q,)))
    state = _run_ops(state, block, inverse=True)
    syndrome, marginals, uniforms = [], [], np.asarray(uniforms, dtype=float)
    for k, sq in enumerate(block[1:]):
        bit, p1, state = measure(state, sq, "Z", lambda n: uniforms[k:k + n])
        syndrome.append(bit)
        marginals.append(p1)
    syndrome, marginals = tuple(syndrome), tuple(marginals)
    correction = principal_correction(syndrome)
    if correction != "I":
        state = apply_gate(state, Gate(correction, (block[0],)))
    for sq, bit in zip(block[1:], syndrome):
        if bit:
            state = apply_gate(state, Gate("X", (sq,)))
    return state, syndrome, marginals


def qec_cycle(state: QuantumState, block, injected, rng) -> tuple[QuantumState, dict, tuple]:
    """One correction cycle on an unencoded register; returns it unencoded,
    with the report and the four syndrome p1 that `rng.random(4)` was compared with.

    `block` lists five distinct qubits, the principal first; the four
    syndrome qubits must be in |0>. Encode the block, inject the product of
    the `injected` (pauli, block position) pairs, decode, measure the four
    syndrome qubits, apply the looked-up principal correction and reset the
    syndrome qubits. The report flags a possible logical error when that
    product, phases dropped, acts on two or more block qubits, which exceeds
    the code distance; cancelling pairs such as X2 X2 are not flagged. Its
    pulse count is that of the compiled hardware cycle.
    """
    block = tuple(block)
    if len(block) != 5 or len(set(block)) != 5:
        raise StateError(f"a code block needs 5 distinct qubits, got {block}")
    for q in block[1:]:
        require_ground(state, q, f"syndrome qubit {q}")
    codes = _pauli_codes(injected)
    state, syndrome, p1s = _cycle(state, block, codes, rng.random(4))
    diagnosed = _error_tables()[0][syndrome]
    correction = principal_correction(syndrome)
    report = {
        "syndrome": list(syndrome),
        "diagnosed_error": {"pauli": diagnosed[0], "block_position": diagnosed[1]},
        "principal_correction": correction,
        "injected_errors": [list(e) for e in injected],
        "pulse_count": cycle_pulse_count(correction != "I", sum(syndrome)),
        "possible_logical_error": sum(map(bool, codes)) >= 2,
    }
    return state, report, p1s


@lru_cache(maxsize=1)
def _memory_reference() -> QuantumState:
    """(|0> + e^{i pi/4}|1>)/sqrt(2) on the principal of a bare block."""
    psi = np.zeros(32, dtype=complex)
    psi[0], psi[16] = np.array([1.0, np.exp(1j * np.pi / 4)], dtype=complex) / np.sqrt(2.0)
    psi.flags.writeable = False
    return QuantumState(psi, 5)


@lru_cache(maxsize=4**5)
def _pauli_class(codes) -> tuple[str, bool]:
    """(syndrome string, failed) of a memory round with net Pauli `codes`, built
    once with the state-vector cycle; a class's syndrome is certain, so every draw is 0.5."""
    state, syndrome, _ = _cycle(_memory_reference(), _BLOCK, codes, (0.5, 0.5, 0.5, 0.5))
    return "".join(map(str, syndrome)), state_fidelity(state, _memory_reference()) < 1.0 - 1e-6


@lru_cache(maxsize=1)
def _classes_by_weight() -> tuple[tuple[tuple, np.ndarray], ...]:
    """The 4**5 net Pauli classes grouped by weight 0..5 in product order,
    each group with its uniform multinomial probabilities."""
    groups: list[list] = [[] for _ in range(6)]
    for codes in itertools.product(range(4), repeat=5):
        groups[5 - codes.count(0)].append(codes)
    return tuple((tuple(group), np.full(len(group), 1.0 / len(group))) for group in groups)


@lru_cache(maxsize=64)
def weight_distribution(pulses: int, p: float) -> np.ndarray:
    """P(net Pauli weight w), w = 0..5, after `pulses` pulses that each apply one
    of the 15 single-qubit Paulis with chance p: e0 ((1 - p)I + pT)^pulses, where
    a Pauli moves weight v to v + 1 with chance (5 - v)/5, to v - 1 with v/15 and
    keeps it with 2v/15. Squared with renormalized rows, so it stays stochastic."""
    v = np.arange(6)
    step = (np.diag(1.0 - p + p * 2 * v / 15) + np.diag(p * (5 - v[:-1]) / 5, 1)
            + np.diag(p * v[1:] / 15, -1))
    row = np.eye(6)[0]
    while pulses:
        if pulses & 1:
            row = row @ step
            row /= row.sum()
        step = step @ step
        step /= step.sum(axis=1, keepdims=True)
        pulses >>= 1
    row.flags.writeable = False
    return row


def memory_experiment(
    cycles: int, p: float, rng: np.random.Generator, pulses_per_cycle: int = 500
) -> dict:
    """Independent memory rounds on (|0> + e^{i pi/4}|1>)/sqrt(2): one
    correction cycle with Binomial(pulses_per_cycle, p) random single-qubit
    Paulis injected. A round fails when the decoded fidelity drops below
    1 - 1e-6. Returns the failure count and the syndrome histogram; a
    round's compiled pulse count follows from its syndrome alone.

    Rounds are independent and depend only on their net Pauli class (4**5,
    phases dropped), so the run draws class counts: one rng.multinomial over
    the six weights, then one over the equally likely classes of each weight
    w >= 1 with a nonzero count, in weight order. A class that occurs is
    simulated once per process; time is constant in cycles and errors."""
    histogram: dict[str, int] = {}
    failures = 0
    by_weight = rng.multinomial(cycles, weight_distribution(pulses_per_cycle, p)).tolist()
    for w, ((group, uniform), n_w) in enumerate(zip(_classes_by_weight(), by_weight)):
        counts = rng.multinomial(n_w, uniform).tolist() if w and n_w else [n_w]
        for codes, n in zip(group, counts):
            if n:
                key, failed = _pauli_class(codes)
                histogram[key] = histogram.get(key, 0) + n
                failures += n * failed
    return {"failures": failures, "syndrome_histogram": histogram}


def pulse_budget(material: MaterialParams, pulses_per_cycle: int = 500) -> dict:
    """floor(T2 / (pulses_per_cycle * t_pulse)) cycles fit in one T2."""
    if pulses_per_cycle <= 0:
        raise StateError(f"pulses_per_cycle must be positive, got {pulses_per_cycle}")
    cycles = int(material.noise.T2 / (pulses_per_cycle * material.t_pulse))
    return {"pulses_per_cycle": pulses_per_cycle, "t_pulse_s": material.t_pulse,
            "cycles_in_T2": cycles}
