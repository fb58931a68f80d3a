"""Decoherence channels parameterized by the relaxation times T1 and T2.

Both decay laws are exponential (Markovian). The dephasing channel
multiplies a qubit's off-diagonal coherences by exp(-t/T2); amplitude
damping relaxes toward the spin-up ground state |0> with
gamma = 1 - exp(-t/T1). Because damping already dephases at rate 1/(2*T1),
the combined idle channel uses the pure-dephasing rate
1/T2' = 1/T2 - 1/(2*T1), which is nonnegative exactly when T2 <= 2*T1.

On density matrices the device applies each event's idle window in one
exact pass (idle_window) of in-place block arithmetic over every idling
qubit, each with its own T2 (a dot's t2_override); the pair coupled by an
exchange window is left out. One-qubit channels on different qubits commute,
so one pass is exact. A qubit whose |1> rows and columns are exactly +0 when
the window starts (spin-up, not yet driven) trades its block arithmetic for
one in-place + 0.0 pass, with the same bits (see _channel). The Kraus pairs
(Nielsen & Chuang, section 8.3) are the reference. Vector states go through
idle_jumps_window, a seeded Monte-Carlo wave-function unraveling (Dalibard,
Castin & Molmer, PRL 68, 580 (1992)) whose ensemble average reproduces the
exact channels: the one trajectory engine, which books a run of equal
windows (an event's, or a route's hops) in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StateError
from .qstate import QuantumState

_REL_TOL = 1e-12


@dataclass(frozen=True)
class NoiseParams:
    """T1/T2 pair with an enable switch; defaults T2 = 100 us, T1 = 2*T2."""

    T1: float = 200e-6
    T2: float = 100e-6
    enabled: bool = False

    def __post_init__(self):
        if not (0 < self.T1 < math.inf and 0 < self.T2 < math.inf):
            raise StateError(
                f"T1, T2 must be positive and finite, got {self.T1}, {self.T2}")
        if self.T2 > 2.0 * self.T1 * (1.0 + _REL_TOL):
            raise StateError(
                f"T2 = {self.T2} exceeds 2*T1 = {2 * self.T1}: unphysical channel"
            )
        if self.enabled and not math.isfinite(1.0 / self.T2):
            raise StateError(f"T2 = {self.T2} is too small: its dephasing rate 1/T2 is not finite")


def pure_dephasing_time(T1: float, T2: float) -> float:
    """T2' with 1/T2' = 1/T2 - 1/(2*T1); inf when damping accounts for all of T2."""
    rate = 1.0 / T2 - 0.5 / T1
    if rate < -_REL_TOL / T2:
        raise StateError(f"T2 = {T2} > 2*T1 = {2 * T1}: negative pure-dephasing rate")
    if rate <= 0.0:
        return math.inf
    return 1.0 / rate


def _channel(state: QuantumState, t: float, steps) -> QuantumState:
    """Exact decay over t seconds of a copy of a density matrix. Each step
    (qubit, dephasing_rate, damping_rate) moves gamma = 1 - exp(-t*damping_rate)
    of the qubit's |1><1| block into its |0><0| block and scales its
    coherences by exp(-t*dephasing_rate) * sqrt(1 - gamma).

    A qubit is ground if its |1> rows and columns are +0 (all bits zero) at
    the start. Other steps compute an entry only from entries with the same
    bit for it, and +0 times a real factor, or plus +0, is +0, so they stay
    +0. Its own step then just adds gamma * (+0) to its |0><0| block, turning
    -0.0 into +0.0: one in-place + 0.0 pass, shared by consecutive ground
    steps, gives the same bits."""
    if t < 0:
        raise StateError(f"negative duration t = {t}")
    if t == 0:
        return state
    if state.is_vector:
        raise StateError("exact channels need a density matrix; route vector "
                         "states through idle_jumps_window")
    n = state.n_qubits
    if not all(0 <= q < n for q, _, _ in steps):
        raise StateError(f"qubits {[q for q, _, _ in steps]} out of range for {n}-qubit register")
    rho = state.data.copy()
    parts = rho.view(np.float64)  # real and imaginary parts
    marks = (parts.view(np.uint64) != 0).view(np.uint16)  # an entry is nonzero, -0.0 included
    excited = int(np.bitwise_or.reduce(np.flatnonzero(marks.any(axis=0) | marks.any(axis=1))))
    zeroed = False  # a ground step's pass has run and no block update since
    for qubit, dephasing_rate, damping_rate in steps:
        if not excited >> (n - 1 - qubit) & 1:  # ground: its |1> rows and columns are +0
            if not zeroed:
                np.add(parts, 0.0, out=parts)
                zeroed = True
            continue
        zeroed = False
        gamma = 1.0 - math.exp(-t * damping_rate)
        coherence = math.exp(-t * dephasing_rate) * math.sqrt(1.0 - gamma)
        hi, lo = 2**qubit, 2 ** (n - qubit - 1)
        blocks = rho.reshape(hi, 2, lo, hi, 2, lo)
        blocks[:, 0, :, :, 1, :] *= coherence
        blocks[:, 1, :, :, 0, :] *= coherence
        blocks[:, 0, :, :, 0, :] += gamma * blocks[:, 1, :, :, 1, :]
        blocks[:, 1, :, :, 1, :] *= 1.0 - gamma
    return QuantumState(rho, n)


def idle_window(
    state: QuantumState, t: float, params: NoiseParams,
    T2_overrides: dict[int, float | None],
) -> QuantumState:
    """Exact idle evolution for t seconds of every qubit keyed in
    T2_overrides, each with its own T2 (None means params.T2).

    Per qubit this is pure dephasing at 1/T2' composed with damping; the
    combined coherence decay is exp(-t/T2') * exp(-t/(2*T1)) = exp(-t/T2).
    """
    if not params.enabled:
        return state
    T1, default_T2 = params.T1, params.T2
    return _channel(state, t, [
        (qubit, 1.0 / pure_dephasing_time(T1, default_T2 if T2 is None else T2), 1.0 / T1)
        for qubit, T2 in T2_overrides.items()
    ])


def jump_probabilities(
    dt: float, params: NoiseParams, T2_override: float | None = None
) -> tuple[float, float]:
    """(p_Z, gamma) for one unraveling step of length dt."""
    if dt < 0:
        raise StateError(f"negative timestep dt = {dt}")
    T2 = T2_override if T2_override is not None else params.T2
    t2p = pure_dephasing_time(params.T1, T2)
    p_z = 0.0 if not math.isfinite(t2p) else 0.5 * (1.0 - math.exp(-dt / t2p))
    gamma = 1.0 - math.exp(-dt / params.T1)
    return p_z, gamma


def idle_jumps_window(
    state: QuantumState, t: float, params: NoiseParams,
    T2_overrides: dict[int, float | None], rng: np.random.Generator, windows: int = 1,
) -> QuantumState:
    """`windows` consecutive stochastic steps of t seconds each on a vector
    state for every qubit keyed in T2_overrides, in key order (None means
    params.T2): a possible Z flip, then Kraus-sampled damping. Averaged over
    seeds one window equals idle_window exactly.

    One copy of psi takes every step in place. Which uniforms a qubit draws
    depends only on p_Z > 0 and gamma > 0, so the run takes them all in one
    rng.random(windows * k) call: the same values, in the same order, as
    windows * k scalar draws.

    No step turns a zero amplitude nonzero, so a qubit whose |1> slice is
    exactly zero when a window starts never jumps in it. While psi holds no
    -0.0 (a Z flip can write one) its no-jump scalings are bitwise no-ops
    too, and it pays only for its draw; otherwise it runs them with p1 = 0.0.
    So while every qubit is in |0> and psi is clean, only a Z flip can change
    psi: a run of several windows skips to the first window whose Z draw
    fires, and returns the state itself, uncopied, when none does."""
    if not state.is_vector:
        raise StateError("trajectory jumps act on vector states")
    if not params.enabled or t == 0:
        return state
    n = state.n_qubits
    if not all(0 <= q < n for q in T2_overrides):
        raise StateError(f"qubits {list(T2_overrides)} out of range for {n}-qubit register")
    odds = {T2: jump_probabilities(t, params, T2) for T2 in set(T2_overrides.values())}
    steps = [(q, *odds[T2]) for q, T2 in T2_overrides.items()]
    count = sum((p_z > 0) + (gamma > 0) for _, p_z, gamma in steps)  # draws per window
    uniforms = rng.random(windows * count)
    psi, start = state.data.reshape([2] * n), 0
    if windows > 1:  # one window steps for less than this test costs
        bits = np.ascontiguousarray(state.data, complex).view(np.uint64)  # -0.0 is 1 << 63
        if not bits[2:].any() and not (bits[:2] == 1 << 63).any():  # all in |0>, no -0.0
            limits = [limit for _, p_z, gamma in steps  # p_Z for a Z draw, 0.0 for damping
                      for limit in [p_z] * (p_z > 0) + [0.0] * (gamma > 0)]
            hits = np.flatnonzero(uniforms.reshape(windows, -1) < np.array(limits))
            if not hits.size:
                return state
            start = int(hits[0]) // count  # the window of the first Z flip
    draws = iter(uniforms[start * count:])
    psi = psi.copy()
    for _ in range(start, windows):
        excited = int(np.bitwise_or.reduce(np.flatnonzero(psi)))  # bit n-1-q: q's |1> slice != 0
        clean = not (psi.reshape(-1).view(np.uint64) == 1 << 63).any()  # no -0.0 in psi
        for q, p_z, gamma in steps:
            if p_z > 0 and next(draws) < p_z:
                one = psi.reshape(2**q, 2, -1)[:, 1]
                np.negative(one, out=one)
                clean = False
            if gamma > 0:
                ground = not excited >> (n - 1 - q) & 1
                if ground and clean:
                    next(draws)
                    continue
                other = tuple(i for i in range(n) if i != q)  # p1 rounds as qubit_probabilities
                p1 = 0.0 if ground else float((np.abs(psi) ** 2).sum(axis=other)[1])
                pair = psi.reshape(2**q, 2, -1)  # view; pair[:, 1] is qubit q's |1> slice
                p_jump = gamma * p1
                if next(draws) < p_jump:
                    # Jump K1: the excited amplitude collapses onto |0>.
                    pair[:, 0] = pair[:, 1] / np.sqrt(p1)
                    pair[:, 1] = 0.0
                else:
                    pair[:, 1] *= np.sqrt(1.0 - gamma)
                    psi /= np.sqrt(1.0 - p_jump)
    return QuantumState(psi.reshape(-1), n)

