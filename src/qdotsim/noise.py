"""Decoherence channels parameterized by the relaxation times T1 and T2.

Both decay laws are exponential (Markovian). The dephasing channel
multiplies a qubit's off-diagonal coherences by exp(-t/T2); amplitude
damping relaxes toward the spin-up ground state |0> with
gamma = 1 - exp(-t/T1). Because damping already dephases at rate 1/(2*T1),
the combined idle channel uses the pure-dephasing rate
1/T2' = 1/T2 - 1/(2*T1), which is nonnegative exactly when T2 <= 2*T1.

On density matrices each event's idle window is one exact pass of _decay
over every idling qubit, each with its own T2 (a dot's t2_override, see
idle_steps); the pair coupled by an exchange window is left out. One-qubit
channels on different qubits commute, so one pass is exact. A matrix
DotArray stores only the block of rho over its excited qubits (_excited's
scan), and _decay runs on that block alone, with the bits of the full pass.
The Kraus pairs (Nielsen & Chuang, section 8.3) are the reference. Vector
states go through idle_jumps_window, a seeded Monte-Carlo wave-function
unraveling (Dalibard, Castin & Molmer, PRL 68, 580 (1992)) whose ensemble
average reproduces the exact channels: the one trajectory engine, which
books a run of equal windows (an event's, or a route's hops) in one call
from a cached window plan; on a quiet register the run is one draw and one compare.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import StateError
from .qstate import QuantumState, vector_marginal

_REL_TOL = 1e-12
_flat_index = lru_cache(maxsize=None)(np.arange)  # one index array per register size


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


@lru_cache(maxsize=64)  # every mask of every size to the 8-qubit cap is ~3.9 MB of cells
def _block_cells(size: int, excited: int) -> np.ndarray:
    """Flat indices, as a (2**k, 2**k) array, of the cells of a size x size
    matrix whose row and column have every bit outside `excited` at 0."""
    index = _flat_index(size)
    rows = index[(index & excited) == index]  # every ground bit 0, ascending
    return rows[:, None] * size + rows


def _excited(rho: np.ndarray) -> int:
    """The excited qubits of a C-contiguous complex 2**k x 2**k matrix, bit
    k-1-q for qubit q: those whose |1> rows or columns hold a nonzero
    component, -0.0 included. The row and column bits of the OR of the flat
    indices of the nonzero components name them. From 32 rows on, the
    diagonal is read first: when the OR of its nonzero entries' indices has
    every bit set, every qubit is excited, and the 4**k scan is skipped (below
    32 rows the test costs more than the scan it may save)."""
    bits = rho.view(np.uint64).reshape(-1)
    if len(rho) >= 32:
        step = 2 * len(rho) + 2  # from one diagonal entry's real part to the next's
        if int(np.bitwise_or.reduce(np.flatnonzero(bits[::step] | bits[1::step]))) == len(rho) - 1:
            return len(rho) - 1
    flat = int(np.bitwise_or.reduce(_flat_index(bits.size), where=bits != 0, initial=0))
    return ((flat >> 1) | (flat >> len(rho).bit_length())) & (len(rho) - 1)


def _decay(block: np.ndarray, excited: int, n: int, t: float, steps) -> None:
    """The exact decay over t seconds, in place, of the C-contiguous block
    of an n-qubit rho over the qubits set in `excited` (bit n-1-q for qubit
    q), every entry outside it +0. Each step (qubit, dephasing_rate,
    damping_rate) moves gamma = 1 - exp(-t*damping_rate) of the qubit's
    |1><1| block into its |0><0| block and scales its coherences by
    exp(-t*dephasing_rate) * sqrt(1 - gamma). It updates the four blocks as
    the rows of one contiguous (4, -1) copy, then writes them back: the
    float operations of strided block updates, so the same bits. An excited
    step's qubit is renumbered by its place among the excited ones.

    A step computes an entry only from entries with the same bit for its
    qubit, and +0 times a real factor, or plus +0, is +0: so a ground
    qubit's +0 |1> rows and columns stay +0, and its own step just adds
    gamma * (+0) to its |0><0| block, turning -0.0 into +0.0. A run of
    ground steps is one in-place + 0.0 pass, and the entries outside the
    block stay +0: the bits are those of the same steps on all of rho."""
    k = excited.bit_count()
    zeroed = False  # a ground step's pass has run and no block update since
    for qubit, dephasing_rate, damping_rate in steps:
        if not excited >> (n - 1 - qubit) & 1:  # ground: its |1> rows and columns are +0
            if not zeroed:
                parts = block.view(np.float64)  # real and imaginary parts
                np.add(parts, 0.0, out=parts)
                zeroed = True
            continue
        zeroed = False
        gamma = 1.0 - math.exp(-t * damping_rate)
        coherence = math.exp(-t * dephasing_rate) * math.sqrt(1.0 - gamma)
        q = (excited >> (n - qubit)).bit_count()  # place among excited
        hi, lo = 2**q, 2 ** (k - q - 1)
        view = block.reshape(hi, 2, lo, hi, 2, lo).transpose(1, 4, 0, 2, 3, 5)
        blocks = view.reshape(4, -1)  # |0><0|, |0><1|, |1><0|, |1><1|, contiguous
        blocks[1:3] *= coherence
        blocks[0] += gamma * blocks[3]
        blocks[3] *= 1.0 - gamma
        view[...] = blocks.reshape(view.shape)


@lru_cache(maxsize=64)  # events repeat a few idle maps; each is a few tuples
def idle_steps(params: NoiseParams, T2_overrides: tuple) -> tuple:
    """_decay's steps for an idle window of every qubit of T2_overrides'
    (qubit, T2) items, each with its own T2 (None means params.T2).

    Per qubit this is pure dephasing at 1/T2' composed with damping; the
    combined coherence decay is exp(-t/T2') * exp(-t/(2*T1)) = exp(-t/T2).
    """
    T1 = params.T1
    return tuple((qubit, 1.0 / pure_dephasing_time(T1, params.T2 if T2 is None else T2), 1.0 / T1)
                 for qubit, T2 in T2_overrides)


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


@lru_cache(maxsize=64)  # a plan is ~2 kB; events repeat a few (t, T2 map) pairs
def _window_plan(t: float, params: NoiseParams, overrides: tuple) -> tuple:
    """(steps, draws, limits) of a window over a T2 map's (qubit, T2) items, in
    key order: (q, p_Z, gamma) per qubit, the uniforms per window, and their
    read-only Z-flip limits (p_Z for a Z draw, 0.0 for a damping draw)."""
    steps = tuple((q, *jump_probabilities(t, params, T2)) for q, T2 in overrides)
    limits = np.array([limit for _, p_z, gamma in steps
                       for limit in [p_z] * (p_z > 0) + [0.0] * (gamma > 0)])
    limits.setflags(write=False)
    return steps, limits.size, limits


def idle_jumps_window(
    state: QuantumState, t: float, params: NoiseParams,
    T2_overrides: dict[int, float | None], rng: np.random.Generator, windows: int = 1,
) -> QuantumState:
    """`windows` consecutive stochastic steps of t seconds each on a vector
    state for every qubit keyed in T2_overrides, in key order (None means
    params.T2): a possible Z flip, then Kraus-sampled damping. Averaged over
    seeds one window equals _decay on idle_steps exactly.

    _window_plan caches the steps; which uniforms a qubit draws depends only
    on p_Z > 0 and gamma > 0, so the run takes them all in one
    rng.random(windows * k) call: the same values, in the same order, as
    windows * k scalar draws. One copy of psi takes every step in place.

    No step turns a zero amplitude nonzero, so a qubit whose |1> slice is
    exactly zero when a window starts never jumps in it. While psi holds no
    -0.0 (a Z flip can write one) its no-jump scalings are bitwise no-ops
    too, and it pays only for its draw; otherwise it runs them with p1 = 0.0.
    So on a quiet register (all in |0>, no -0.0) only a Z flip can change
    psi: a run of any length compares its uniforms with the plan's Z limits,
    skips to the first window whose Z draw fires, and returns the state
    itself, uncopied, when none does."""
    if not state.is_vector:
        raise StateError("trajectory jumps act on vector states")
    if not params.enabled or t == 0:
        return state
    n = state.n_qubits
    if not all(0 <= q < n for q in T2_overrides):
        raise StateError(f"qubits {list(T2_overrides)} out of range for {n}-qubit register")
    steps, count, limits = _window_plan(t, params, tuple(T2_overrides.items()))
    uniforms, start = rng.random(windows * count), 0
    bits = np.ascontiguousarray(state.data, complex).view(np.uint64)  # -0.0 is 1 << 63
    if not np.count_nonzero(bits[2:]) and 1 << 63 not in bits[:2].tolist():  # quiet register
        flips = uniforms.reshape(windows, -1) < limits
        if not np.count_nonzero(flips):
            return state
        start = int(flips.argmax()) // count  # the window of the first Z flip
    draws, psi = iter(uniforms[start * count:]), state.data.copy()
    for _ in range(start, windows):
        excited = int(np.bitwise_or.reduce(np.flatnonzero(psi)))  # bit n-1-q: q's |1> slice != 0
        clean = not (psi.view(np.uint64) == 1 << 63).any()  # no -0.0 in psi
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
                p1 = 0.0 if ground else float(vector_marginal(psi, q)[1])
                pair = psi.reshape(2**q, 2, -1)  # view; pair[:, 1] is qubit q's |1> slice
                p_jump = gamma * p1
                if next(draws) < p_jump:
                    # Jump K1: the excited amplitude collapses onto |0>.
                    pair[:, 0] = pair[:, 1] / np.sqrt(p1)
                    pair[:, 1] = 0.0
                else:
                    pair[:, 1] *= np.sqrt(1.0 - gamma)
                    psi /= np.sqrt(1.0 - p_jump)
    return QuantumState(psi, n)
