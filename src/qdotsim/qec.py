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

from functools import lru_cache

import numpy as np

from .device import DotArray, MaterialParams, Pos
from .errors import AdjacencyError, StateError
from .qstate import (
    _PAULI_BY_NAME,
    Gate,
    QuantumState,
    _apply_unitary,
    _apply_unitary_vec,
    apply_gate,
    as_rng,
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


def encode_pulse_count() -> int:
    """Pulses in the compiled encoder: 5 single-qubit, 4 CNOT, 5 CZ."""
    n = 0
    for kind, _ in _ENCODE_OPS:
        n += PULSE_COST.get(kind, PULSE_COST["1q"])
    return n


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


def _pauli_codes(injected) -> tuple[int, ...]:
    """The product of the injected (pauli, block position) pairs, phases
    dropped: one x + 2z code per block position."""
    codes = [0] * 5
    for name, block_pos in injected:
        codes[block_pos] ^= _PAULI_BITS[name]
    return tuple(codes)


def _cycle(state: QuantumState, block, codes, uniforms) -> tuple[QuantumState, tuple, tuple, int]:
    """Encode the block, apply the net Pauli `codes`, decode, measure the
    four syndrome qubits, correct the principal and reset the syndromes.
    Measurement k reads uniforms[k] with qstate.measure. Returns the
    register, the syndrome, the four p1 it compared with and the compiled
    pulse count."""
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
    return state, syndrome, marginals, cycle_pulse_count(int(correction != "I"), sum(syndrome))


def qec_cycle(
    state: QuantumState,
    block,
    injected=(),
    rng_seed=0,
) -> tuple[QuantumState, dict]:
    """One correction cycle on an unencoded register; returns it unencoded.

    `block` lists five distinct qubits, the principal first; the four
    syndrome qubits must be in |0>. Encode the block, inject the product of
    the `injected` (pauli, block position) pairs, decode, measure the four
    syndrome qubits, apply the looked-up principal correction and reset the
    syndrome qubits. The report flags a possible logical error when that
    product, phases dropped, acts on two or more block qubits, which exceeds
    the code distance; cancelling pairs such as X2 X2 are not flagged. Its
    pulse count is that of the compiled hardware cycle.
    """
    return _reported_cycle(state, block, injected, rng_seed)[:2]


def _reported_cycle(state, block, injected, rng_seed) -> tuple[QuantumState, dict, tuple]:
    """qec_cycle's register and report, and the four syndrome p1 it drew against."""
    block = tuple(block)
    if len(block) != 5 or len(set(block)) != 5:
        raise StateError(f"a code block needs 5 distinct qubits, got {block}")
    for q in block[1:]:
        require_ground(state, q, f"syndrome qubit {q}")
    codes = _pauli_codes(injected)
    state, syndrome, p1s, pulse_count = _cycle(state, block, codes, as_rng(rng_seed).random(4))
    diagnosed = _error_tables()[0][syndrome]
    report = {
        "syndrome": list(syndrome),
        "diagnosed_error": {"pauli": diagnosed[0], "block_position": diagnosed[1]},
        "principal_correction": principal_correction(syndrome),
        "injected_errors": [list(e) for e in injected],
        "pulse_count": pulse_count,
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


def _memory_round(codes, uniforms) -> tuple[tuple, str, bool, int]:
    """One memory round with net Pauli `codes`, measured against `uniforms`:
    (the four p1 compared with, syndrome string, failed, pulse count)."""
    reference = _memory_reference()
    state, syndrome, marginals, pulse_count = _cycle(reference, _BLOCK, codes, uniforms)
    failed = state_fidelity(state, reference) < 1.0 - 1e-6
    return marginals, "".join(map(str, syndrome)), failed, pulse_count


@lru_cache(maxsize=4**5)
def _pauli_class(codes) -> tuple[tuple, str, bool, int]:
    """The round of one net Pauli class along its likely measurement branch
    (every draw 0.5), built once with the state-vector cycle."""
    return _memory_round(codes, (0.5, 0.5, 0.5, 0.5))


def memory_experiment(
    cycles: int, p: float, rng: np.random.Generator, pulses_per_cycle: int = 500
) -> dict:
    """Independent memory rounds on (|0> + e^{i pi/4}|1>)/sqrt(2): one
    correction cycle with Binomial(pulses_per_cycle, p) random single-qubit
    Paulis injected. A round fails when the decoded fidelity drops below
    1 - 1e-6. Returns the failure count, the syndrome histogram and each
    round's compiled pulse count.

    A round depends only on its net Pauli class (4**5 of them, phases
    dropped) and on its four measurement draws, so each class is simulated
    once, lazily, and kept with the p1 marginals its syndrome was measured
    against. A round reuses its class when each draw u falls on the same side
    of its p1 (u < p1 reads 1, as in qstate.measure); a draw on the other
    side, possible only where p1 sits within rounding of 0 or 1, runs the
    state-vector cycle on the same four draws. The draws are those of one
    cycle at a time: Binomial, then two integers per error (Pauli, block
    position), then four uniforms."""
    histogram: dict[str, int] = {}
    failures = 0
    pulse_counts = []
    for _ in range(cycles):
        n_errors = int(rng.binomial(pulses_per_cycle, p))
        injected = [
            (("X", "Y", "Z")[int(rng.integers(3))], int(rng.integers(5)))
            for _ in range(n_errors)
        ]
        codes = _pauli_codes(injected)
        uniforms = rng.random(4).tolist()
        marginals, key, failed, pulse_count = _pauli_class(codes)
        # u < p1 reads 1: qstate.draw_readout's rule with no misread, inline in this hot loop
        if any((u < p1) != (bit == "1") for u, p1, bit in zip(uniforms, marginals, key)):
            _, key, failed, pulse_count = _memory_round(codes, uniforms)
        failures += failed
        histogram[key] = histogram.get(key, 0) + 1
        pulse_counts.append(pulse_count)
    return {"failures": failures, "syndrome_histogram": histogram,
            "pulse_counts": pulse_counts}


def make_cat(array: DotArray, positions: list[Pos]) -> DotArray:
    """Spread (|0...0> + |1...1>)/sqrt(2) over a chain of adjacent dots:
    Hadamard on the head, then a CNOT chain."""
    if len(positions) < 2:
        raise StateError("a cat state needs at least two qubits")
    for a, b in zip(positions, positions[1:]):
        if not array.adjacent(a, b):
            raise AdjacencyError(f"cat chain breaks between {a} and {b}")
    if array.strict:
        for pos in positions:
            require_ground(array.state, array.qubit_index(pos), f"cat input at {pos}")
    array.apply_gate_at("H", [positions[0]])
    for a, b in zip(positions, positions[1:]):
        array.apply_gate_at("CNOT", [a, b])
    return array


def un_make_cat(array: DotArray, positions: list[Pos]) -> DotArray:
    """Exact adjoint of make_cat: reverse the CNOT chain, then Hadamard."""
    if len(positions) < 2:
        raise StateError("a cat state needs at least two qubits")
    for a, b in reversed(list(zip(positions, positions[1:]))):
        array.apply_gate_at("CNOT", [a, b])
    array.apply_gate_at("H", [positions[0]])
    return array


def parity_measure(
    state: QuantumState, qubits: list[int], ancilla: int, rng_seed=0
) -> tuple[int, QuantumState]:
    """Joint Z-parity via CNOT fan-in onto a fresh |0> ancilla.

    Parity eigenstates pass through untouched (up to the ancilla); anything
    else is projected onto the measured parity sector."""
    if ancilla in qubits:
        raise StateError("ancilla cannot be one of the measured qubits")
    require_ground(state, ancilla, f"ancilla {ancilla}")
    for q in qubits:
        state = apply_gate(state, Gate("CNOT", (q, ancilla)))
    bit, _, state = measure(state, ancilla, "Z", lambda k: as_rng(rng_seed).random(k))
    if bit:  # reset so the ancilla is reusable
        state = apply_gate(state, Gate("X", (ancilla,)))
    return bit, state


def pulse_budget(material: MaterialParams, pulses_per_cycle: int = 500) -> dict:
    """floor(T2 / (pulses_per_cycle * t_pulse)) cycles fit in one T2."""
    if pulses_per_cycle <= 0:
        raise StateError(f"pulses_per_cycle must be positive, got {pulses_per_cycle}")
    cycles = int(material.noise.T2 / (pulses_per_cycle * material.t_pulse))
    return {"pulses_per_cycle": pulses_per_cycle, "t_pulse_s": material.t_pulse,
            "cycles_in_T2": cycles}
