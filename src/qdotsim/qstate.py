"""Exact simulation of small qubit registers.

States are either normalized amplitude vectors (pure) or density matrices
(mixed). Qubit 0 is the most significant bit of the basis-state index, so
|q0 q1 ... q_{n-1}> lives at index q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.

Operations never mutate their input; they return fresh states. Global phase
is unphysical, so equality and fidelity are phase-insensitive. Randomness
always comes from a draw function the caller hands in, never a global RNG.

Gate is the one table of gate kinds (arity, parameter checks, pulse area);
measure, by draw_readout's rule, is the one readout of a qubit.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ProtocolError, StateError

VECTOR_QUBIT_CAP = 12
MATRIX_QUBIT_CAP = 8

_SQ2 = 1.0 / np.sqrt(2.0)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)
PHASE_T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
SQRT_SWAP_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 0.5 + 0.5j, 0.5 - 0.5j, 0],
        [0, 0.5 - 0.5j, 0.5 + 0.5j, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

# Singlet projector |s><s| with |s> = (|01> - |10>)/sqrt(2).
_SINGLET_KET = np.array([0, _SQ2, -_SQ2, 0], dtype=complex)
SINGLET_PROJECTOR = np.outer(_SINGLET_KET, _SINGLET_KET.conj())

_PAULI_BY_NAME = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class QuantumState:
    """Register of n qubits, stored as a vector (pure) or matrix (mixed)."""

    data: np.ndarray
    n_qubits: int

    @property
    def is_vector(self) -> bool:
        return self.data.ndim == 1

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @staticmethod
    def zero(n_qubits: int) -> "QuantumState":
        """|0...0> on n qubits; n = 0 gives the trivial 1-dim register."""
        if n_qubits < 0 or n_qubits > VECTOR_QUBIT_CAP:
            raise StateError(f"qubit count {n_qubits} outside [0, {VECTOR_QUBIT_CAP}]")
        vec = np.zeros(2**n_qubits, dtype=complex)
        vec[0] = 1.0
        return QuantumState(vec, n_qubits)

    def to_density(self) -> "QuantumState":
        """Promote a pure state to its density matrix |psi><psi|."""
        if not self.is_vector:
            return self
        if self.n_qubits > MATRIX_QUBIT_CAP:
            raise StateError(f"{self.n_qubits} qubits exceeds matrix cap {MATRIX_QUBIT_CAP}")
        return QuantumState(np.outer(self.data, self.data.conj()), self.n_qubits)

    def append_zero_qubit(self) -> "QuantumState":
        """Tensor a fresh |0> qubit on as the new last (least significant) qubit."""
        cap = VECTOR_QUBIT_CAP if self.is_vector else MATRIX_QUBIT_CAP
        if self.n_qubits + 1 > cap:
            raise StateError(f"{self.n_qubits + 1} qubits exceeds cap {cap}")
        if self.is_vector:
            new = np.zeros(2 * self.data.size, dtype=complex)
            new[0::2] = self.data
            return QuantumState(new, self.n_qubits + 1)
        zero = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # kron's products, no set-up
        grown = np.multiply(self.data[:, None, :, None], zero[None, :, None, :])
        return QuantumState(grown.reshape(2 * self.dim, -1), self.n_qubits + 1)


@dataclass(frozen=True)
class Gate:
    """A named unitary acting on one or two qubits of a register.

    kinds: ONE_QUBIT and TWO_QUBIT below.
    Rot carries a Bloch axis (normalized on construction) and an angle;
    ExchangeEvolve carries the dimensionless pulse area theta = J*t/hbar.
    A given axis must be three numbers, not all zero, for any kind.
    """

    kind: str
    targets: tuple[int, ...]
    axis: tuple[float, float, float] | None = None
    angle: float | None = None
    theta: float | None = None

    ONE_QUBIT = ("X", "Y", "Z", "H", "S", "T", "Rot")
    TWO_QUBIT = ("CNOT", "SWAP", "SqrtSWAP", "ExchangeEvolve")
    # The Bloch angle of a one-qubit kind, the exchange pulse area J*t/hbar of
    # a two-qubit kind; Rot's is |angle| and ExchangeEvolve's theta.
    AREA = {"X": np.pi, "Y": np.pi, "Z": np.pi, "H": np.pi, "S": np.pi / 2,
            "T": np.pi / 4, "CNOT": np.pi, "SWAP": np.pi, "SqrtSWAP": np.pi / 2}

    def __post_init__(self):
        if self.kind not in self.ONE_QUBIT and self.kind not in self.TWO_QUBIT:
            raise StateError(f"unknown gate kind {self.kind!r}")
        want = 1 if self.kind in self.ONE_QUBIT else 2
        if len(self.targets) != want:
            raise StateError(f"{self.kind} takes {want} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise StateError(f"duplicate targets {self.targets}")
        if any(t < 0 for t in self.targets):
            raise StateError(f"negative target index in {self.targets}")
        if self.axis is not None and not (
                isinstance(self.axis, (list, tuple)) and len(self.axis) == 3
                and all(map(_is_number, self.axis)) and any(self.axis)):
            raise StateError(f"axis must be a nonzero [x, y, z] list, got {self.axis!r}")
        if self.axis is not None and not all(abs(a) <= sys.float_info.max for a in self.axis):
            raise StateError("axis entries must be finite")
        if self.kind == "Rot":
            if self.axis is None or not _is_number(self.angle):
                raise StateError("Rot needs an axis and a numeric angle")
            if not abs(self.angle) <= sys.float_info.max:  # no inf, nan or int beyond a float
                raise StateError("Rot angle must be finite")
            axis = [float(a) for a in self.axis]
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(axis))
            if norm == np.inf:  # rescale by the largest |entry|; a finite norm keeps its bits
                axis = (np.array(axis) / max(map(abs, axis))).tolist()
                norm = float(np.linalg.norm(axis))
            if norm < 1e-12:
                raise StateError("Rot axis must be nonzero")
            object.__setattr__(self, "axis", tuple(a / norm for a in axis))
        if self.kind == "ExchangeEvolve" and not _is_number(self.theta):
            raise StateError("ExchangeEvolve needs a numeric theta")
        if self.kind == "ExchangeEvolve" and self.theta < 0:
            raise StateError(f"negative pulse area theta = {self.theta}")
        if self.kind == "ExchangeEvolve" and not self.theta <= sys.float_info.max:
            raise StateError("ExchangeEvolve pulse area theta must be finite")

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def area(self) -> float:
        return abs(self.angle) if self.kind == "Rot" else self.AREA.get(self.kind, self.theta)

    def matrix(self) -> np.ndarray:
        """The gate unitary on its own targets (2x2 or 4x4)."""
        fixed = {
            "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z, "H": HADAMARD,
            "S": PHASE_S, "T": PHASE_T, "CNOT": CNOT_MATRIX,
            "SWAP": SWAP_MATRIX, "SqrtSWAP": SQRT_SWAP_MATRIX,
        }
        if self.kind in fixed:
            return fixed[self.kind].copy()
        if self.kind == "Rot":
            nx, ny, nz = self.axis
            half = 0.5 * self.angle
            ns = nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z
            return np.cos(half) * PAULI_I - 1j * np.sin(half) * ns
        return exchange_unitary(self.theta)


def exchange_unitary(theta: float) -> np.ndarray:
    """exp(-i*theta*S1.S2) on two spins, with dimensionless spin-1/2 operators.

    S1.S2 = I/4 - P_singlet, so the triplet picks up exp(-i*theta/4) and the
    singlet exp(+3i*theta/4). theta = pi is SWAP and theta = pi/2 is
    sqrt(SWAP), both up to a global phase.
    """
    return np.exp(-0.25j * theta) * (
        np.eye(4, dtype=complex) + (np.exp(1j * theta) - 1.0) * SINGLET_PROJECTOR
    )


def _check_targets(state: QuantumState, targets: Sequence[int]) -> None:
    for t in targets:
        if not (0 <= t < state.n_qubits):
            raise StateError(
                f"target {t} out of range for {state.n_qubits}-qubit register"
            )
    if len(set(targets)) != len(targets):
        raise StateError(f"duplicate targets {tuple(targets)}")


@lru_cache(maxsize=1024)
def _axis_orders(targets: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Transpose orders that move `targets` to the front of n axes and back:
    the views np.moveaxis(a, targets, range(k)) and its inverse make."""
    front = targets + tuple(i for i in range(n) if i not in targets)
    return front, tuple(front.index(i) for i in range(n))


def _apply_unitary_vec(vec: np.ndarray, u: np.ndarray, targets, n: int) -> np.ndarray:
    """U on the target axes of an n-qubit array; returns a (strided) [2]*n tensor."""
    front, back = _axis_orders(tuple(targets), n)
    psi = vec.reshape([2] * n).transpose(front)
    psi = (u @ psi.reshape(2 ** len(targets), -1)).reshape([2] * n)
    return psi.transpose(back)


def _apply_unitary(state: QuantumState, u: np.ndarray, targets) -> QuantumState:
    """U|psi> for vectors. For matrices U rho U^dagger: rho is treated as a
    2n-qubit vector with U on the ket axes and U* on the bra axes."""
    _check_targets(state, targets)
    n = state.n_qubits
    if state.is_vector:
        return QuantumState(_apply_unitary_vec(state.data, u, targets, n).reshape(-1), n)
    rho = _apply_unitary_vec(state.data, u, targets, 2 * n)
    rho = _apply_unitary_vec(rho, u.conj(), [n + t for t in targets], 2 * n)
    return QuantumState(rho.reshape(2**n, 2**n), n)


def apply_gate(state: QuantumState, gate: Gate) -> QuantumState:
    """Apply a gate's unitary to its targets (see _apply_unitary)."""
    return _apply_unitary(state, gate.matrix(), gate.targets)


def qubit_probabilities(state: QuantumState, qubit: int) -> np.ndarray:
    """Marginal Born probabilities (p0, p1) of one qubit."""
    if not state.is_vector:
        return np.real(np.diag(reduced_density(state, [qubit])))
    _check_targets(state, [qubit])
    return vector_marginal(state.data, qubit)


def vector_marginal(psi: np.ndarray, qubit: int) -> np.ndarray:
    """Born (p0, p1) of one qubit of amplitudes psi, summed on the (2**qubit, 2, rest) view."""
    return (np.abs(psi.reshape(2**qubit, 2, -1)) ** 2).sum(axis=(0, 2))


def _collapse(work: QuantumState, qubit: int, outcome: int, p: float, basis: str) -> QuantumState:
    """`work`, rotated into `basis`, projected onto `outcome` of Born weight p >= 1e-12."""
    if p < 1e-12:
        raise StateError(f"branch ({basis}, {outcome}) has probability {p}")
    n = work.n_qubits
    if work.is_vector:
        psi = work.data.reshape([2] * n).copy()
        idx = [slice(None)] * n
        idx[qubit] = 1 - outcome
        psi[tuple(idx)] = 0.0
        out = QuantumState(psi.reshape(-1) / np.sqrt(p), n)
    else:
        rho = work.data.reshape([2] * (2 * n)).copy()
        for ax in (qubit, n + qubit):
            idx = [slice(None)] * (2 * n)
            idx[ax] = 1 - outcome
            rho[tuple(idx)] = 0.0
        out = QuantumState(rho.reshape(2**n, 2**n) / p, n)
    if basis == "X":
        out = apply_gate(out, Gate("H", (qubit,)))
    return out


def draw_readout(p1: float, readout_error: float, draw) -> tuple:
    """(true outcome, reported bit) of a readout with Born marginal p1, or
    of a batch: `draw(k)` gives k uniforms u per readout on its last axis.
    The outcome is `u[..., 0] < p1`, misread if the last uniform is below
    readout_error (never when it is 0). With no readout error a certain
    outcome (p1 <= 0 or >= 1) draws nothing: a lazy stream builds no generator."""
    if readout_error == 0 and not 0 < p1 < 1:
        return p1 >= 1, p1 >= 1
    u = draw(1 + (readout_error > 0))
    outcome = u[..., 0] < p1
    return outcome, outcome ^ (u[..., -1] < readout_error)


def measure(
    state: QuantumState, qubit: int, basis: str, draw, readout_error: float = 0.0
) -> tuple[int, float, QuantumState]:
    """Read one qubit in `basis`: (reported bit, Born marginal p1, register
    collapsed onto the true outcome), drawn by draw_readout."""
    if basis not in ("Z", "X"):
        raise StateError(f"unsupported basis {basis!r}")
    work = apply_gate(state, Gate("H", (qubit,))) if basis == "X" else state
    probs = qubit_probabilities(work, qubit)
    p1 = float(probs[1])
    outcome, bit = map(int, draw_readout(p1, readout_error, draw))
    return bit, p1, _collapse(work, qubit, outcome, float(probs[outcome]), basis)


def require_ground(state: QuantumState, qubit: int, name: str) -> None:
    """Refuse unless `qubit` is in |0> within 1e-9: its p1 is at most 1e-9."""
    if qubit_probabilities(state, qubit)[1] > 1e-9:
        raise ProtocolError(f"{name} is not in |0>")


def reduced_density(state: QuantumState, qubits: Sequence[int]) -> np.ndarray:
    """Partial trace down to the given qubits, in the order given."""
    qubits = list(qubits)
    _check_targets(state, qubits)
    n = state.n_qubits
    k = len(qubits)
    if state.is_vector:
        psi = state.data.reshape([2] * n)
        psi = psi.transpose(_axis_orders(tuple(qubits), n)[0]).reshape(2**k, -1)
        return psi @ psi.conj().T
    rho = state.data.reshape([2] * (2 * n))
    keep = qubits + [n + q for q in qubits]
    rest = [i for i in range(n) if i not in qubits]
    order = keep + rest + [n + i for i in rest]
    rho = np.transpose(rho, order).reshape(2**k, 2**k, 2 ** (n - k), 2 ** (n - k))
    return np.einsum("abkk->ab", rho)


def state_fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|^2 for pure states, Uhlmann fidelity for mixed ones. A density
    matrix with Tr(rho^2) within 1e-12 of 1 counts as pure."""
    if a.n_qubits != b.n_qubits:
        raise StateError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    if a.is_vector and b.is_vector:
        return float(np.clip(np.abs(np.vdot(a.data, b.data)) ** 2, 0.0, 1.0))
    if a.is_vector:
        val = np.real(np.vdot(a.data, b.data @ a.data))
        return float(np.clip(val, 0.0, 1.0))
    if b.is_vector:
        return state_fidelity(b, a)
    if any(abs(np.vdot(m, m).real - 1.0) <= 1e-12 for m in (a.data, b.data)):
        # exact, and no eigendecomposition needed
        return float(np.clip(np.vdot(b.data, a.data).real, 0.0, 1.0))
    # F = (sum of singular values of A^dag B)^2 for rho = A A^dag, sigma = B B^dag:
    # no square root of an eigenvalue that rounding pushed off zero
    s = np.linalg.svd(_factor(a.data).conj().T @ _factor(b.data), compute_uv=False)
    return float(np.clip(np.sum(s) ** 2, 0.0, 1.0))


def _factor(rho: np.ndarray) -> np.ndarray:
    """A with A A^dag = rho, from the eigenvalues above d*eps*lambda_max."""
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > rho.shape[0] * np.finfo(float).eps * evals[-1]
    return evecs[:, keep] * np.sqrt(evals[keep])
