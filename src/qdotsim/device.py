"""The 2D array of single-electron dots and its clocked event model.

Each dot holds at most one electron (Coulomb blockade). Occupied dots carry
qubit amplitudes in one shared register; `qubit_positions[q]` is the dot of
qubit q and the only record of which dots are occupied. The static layout
is sparse: `roles` holds the listed dots (any other dot is "empty") and
`t2_overrides` the dots with their own T2. Every event advances the clock
by its physical duration and, when noise is enabled, applies idle
decoherence for that window: one pass over all idling qubits, exact on
density-matrix registers and seeded jump sampling on vector registers.
Ideal gate unitaries themselves are noiseless; their duration, set by the
gate's pulse area (Gate.area), contributes an idle window instead. During
an exchange window the coupled pair is excluded from that window's idle
noise. A readout is qstate.measure in Z with the material's readout_error.

channels.run_tunnel_route books a planned route as runs of equal hop
windows, one advance per run, which takes one idle_jumps_window call.

Strict mode additionally applies the always-on residual exchange J_off to
every adjacent occupied pair but the coupled one during each timed window.
The array keeps only the clock and the drive energy spent; the per-event
log belongs to the scenario report.

A vector array keeps its register in `state`; a matrix array (MatrixArray)
keeps only rho's excited block, on which every gate and idle window runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby

import numpy as np

from .constants import HBAR_EV_S
from .errors import AdjacencyError, BlockadeError, StateError
from .noise import NoiseParams, _block_cells, _decay, _excited, idle_jumps_window, idle_steps
from .pulses import drive_report, swap_duration
from .qstate import MATRIX_QUBIT_CAP, Gate, QuantumState, _apply_unitary, apply_gate, measure

Pos = tuple[int, int]

ROLES = ("qubit", "empty", "readout", "intermediary")
REPRESENTATIONS = ("vector", "matrix")


@dataclass(frozen=True)
class MaterialParams:
    """Material and geometry constants of one dot array design."""

    g_factor: float            # dimensionless, signed
    delta_E_orb: float         # eV, orbital level spacing
    U_charging: float          # eV, on-dot Coulomb repulsion
    J_on: float                # eV, exchange with the barrier lowered
    J_off: float               # eV, residual exchange
    dot_pitch: float           # m, qubit-to-qubit separation
    gate_distance: float       # m, drive wire to dot
    noise: NoiseParams = NoiseParams()
    t_pulse: float = 2e-11     # s, one electrostatic gating pulse
    readout_transfer: float = 100e-12   # s, spin-selective charge transfer
    readout_measure: float = 1e-9       # s, electrometer integration
    rabi_period: float = 100e-9         # s, full Rabi flop under the AC drive
    readout_error: float = 0.0          # probability of a misread bit
    classical_latency: float = 0.0      # s, classical feed-forward delay

    def __post_init__(self):
        if not (self.J_on > self.J_off > 0):
            raise StateError(f"need J_on > J_off > 0, got {self.J_on}, {self.J_off}")
        if self.dot_pitch <= 0 or self.delta_E_orb <= 0:
            raise StateError("dot_pitch and delta_E_orb must be positive")
        if self.U_charging <= 0 or self.gate_distance <= 0:
            raise StateError("U_charging and gate_distance must be positive")
        if min(self.t_pulse, self.readout_transfer, self.readout_measure,
               self.rabi_period) <= 0:
            raise StateError("all durations must be positive")
        if not 0.0 <= self.readout_error <= 1.0:
            raise StateError(f"readout_error must be in [0, 1], got {self.readout_error}")
        if self.classical_latency < 0:
            raise StateError("classical_latency cannot be negative")
        # every single-qubit gate books this drive's energy
        drive_report(self.g_factor, self.rabi_period, self.gate_distance)
        if not all(0 < t < math.inf for t in (self.t_hop, self.rabi_period / 8)):
            raise StateError(f"a hop ({self.t_hop} s) and a T gate ({self.rabi_period / 8} s) "
                             "must take a positive, finite time")

    @property
    def t_swap(self) -> float:
        """Full SWAP exchange window, pi hbar / J_on."""
        return swap_duration(self.J_on)

    @property
    def t_hop(self) -> float:
        """One tunneling hop; an order of magnitude faster than a swap."""
        return self.t_swap / 10.0


@lru_cache(maxsize=64)  # presets are frozen, so one instance per argument is shared
def inas_material(noise: NoiseParams | None = None) -> MaterialParams:
    """InAs composite-well preset: large |g|, 5 ueV on-state exchange."""
    return MaterialParams(
        g_factor=-10.0,
        delta_E_orb=10e-3,
        U_charging=2e-3,
        J_on=5e-6,
        J_off=5e-9,
        dot_pitch=100e-9,
        gate_distance=100e-9,
        noise=noise if noise is not None else NoiseParams(T1=200e-6, T2=100e-6),
    )


@lru_cache(maxsize=64)
def si_material(T2: float) -> MaterialParams:
    """Si MOS preset. T2 must be supplied: no trustworthy default exists,
    only the expectation that it is very long. Structural parameters reuse
    the InAs values as placeholders."""
    if T2 is None or T2 <= 0:
        raise StateError("the Si preset requires an explicit positive T2")
    base = inas_material(NoiseParams(T1=2.0 * T2, T2=T2))
    return replace(base, g_factor=2.0)


class DotArray:
    """Mutable array under a single controller; events are serialized by
    the clock, which with the drive energy is all the array books.
    representation="matrix" makes a MatrixArray."""

    def __new__(cls, width, height, material, roles=None, representation="vector", *args,
                **kwargs):
        return super().__new__(MatrixArray if cls is DotArray and representation == "matrix"
                               else cls)

    def __init__(
        self,
        width: int,
        height: int,
        material: MaterialParams,
        roles: dict[Pos, str] | None = None,
        representation: str = "vector",
        strict: bool = False,
        *,
        seed,
        t2_overrides: dict[Pos, float] | None = None,
    ):
        if width < 1 or height < 1:
            raise StateError(f"array must be at least 1x1, got {width}x{height}")
        if representation not in REPRESENTATIONS:
            raise StateError(f"unknown representation {representation!r}")
        self.width = width
        self.height = height
        self.material = material
        self.strict = strict
        self.roles: dict[Pos, str] = dict(roles or {})
        for pos, role in self.roles.items():
            self._pos_check(pos)
            if role not in ROLES:
                raise StateError(f"unknown dot role {role!r}")
        self.t2_overrides: dict[Pos, float] = dict(t2_overrides or {})
        for pos, t2 in self.t2_overrides.items():
            self._pos_check(pos)
            NoiseParams(T1=material.noise.T1, T2=t2, enabled=material.noise.enabled)
        state = QuantumState.zero(0)
        self.state = state.to_density() if representation == "matrix" else state
        self.qubit_positions: list[Pos] = []
        self.clock = 0.0
        self.energy = 0.0
        # the one place a seed becomes a generator; anything with random(k) is one already
        self._rng = seed if hasattr(seed, "random") else np.random.default_rng(seed)

    # -- geometry ---------------------------------------------------------

    def _pos_check(self, pos: Pos) -> None:
        x, y = pos
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise StateError(f"position {pos} outside {self.width}x{self.height} grid")

    @staticmethod
    def adjacent(a: Pos, b: Pos) -> bool:
        return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def qubit_index(self, pos: Pos) -> int:
        self._pos_check(pos)
        if pos not in self.qubit_positions:
            raise StateError(f"no qubit at {pos}")
        return self.qubit_positions.index(pos)

    def adjacent_occupied_pairs(self) -> list[tuple[Pos, Pos]]:
        occupied = set(self.qubit_positions)
        pairs = []
        for pos in self.qubit_positions:
            for nb in ((pos[0] + 1, pos[1]), (pos[0], pos[1] + 1)):
                if nb in occupied:
                    pairs.append((pos, nb))
        return pairs

    # -- clock and noise --------------------------------------------------

    def _idle_windows(self, duration: float, pair: tuple[Pos, ...], windows: int) -> None:
        """`windows` windows of advance's noise and residual exchange; windows
        with no residual exchange between them take one _window call."""
        noise = self.material.noise
        idling = {q: self.t2_overrides.get(p) for q, p in enumerate(self.qubit_positions)
                  if p not in pair} if noise.enabled else {}
        coupled = [(self.qubit_positions.index(a), self.qubit_positions.index(b))
                   for a, b in self.adjacent_occupied_pairs()
                   if not (a in pair and b in pair)] if self.strict else []
        if duration <= 0 or not windows or not (idling or coupled):
            return
        if not coupled:
            return self._window(duration, idling, windows)
        for _ in range(windows):
            if idling:
                self._window(duration, idling)
            for targets in coupled:
                self._apply(Gate("ExchangeEvolve", targets,
                                 theta=self.material.J_off * duration / HBAR_EV_S))

    # -- the register: a vector's trajectory windows, gates and growth ------

    def _window(self, duration: float, idling: dict, windows: int = 1) -> None:
        self.state = idle_jumps_window(self.state, duration, self.material.noise, idling,
                                       self._rng, windows)

    def _apply(self, gate: Gate) -> None:
        self.state = apply_gate(self.state, gate)

    def _append_zero(self) -> None:
        self.state = self.state.append_zero_qubit()

    def _register_size(self) -> int:
        return self.state.n_qubits

    def advance(self, duration: float, *, pair: tuple[Pos, ...] = (),
                energy: float = 0.0, windows: int = 1) -> None:
        """Book `windows` events of `duration` seconds as that many calls
        would, one by one: idle noise on every qubit outside `pair` and, in
        strict mode, residual exchange on every adjacent pair but `pair`;
        then add to the clock and the energy, or raise on overflow or a sub-ulp duration."""
        if duration < 0:
            raise StateError(f"negative event duration {duration}")
        clock, spent, booked = self.clock, self.energy, 0
        while (booked < windows and math.isfinite(clock + duration)
               and math.isfinite(spent + energy) and (clock + duration > clock or not duration)):
            clock, spent, booked = clock + duration, spent + energy, booked + 1
        self._idle_windows(duration, pair, booked)
        self.clock, self.energy = clock, spent
        if booked < windows:
            raise StateError(f"{duration} s is below one ulp of the clock at {clock} s"
                             if duration and clock + duration == clock else
                             f"{duration} s and {energy} J overflow the clock or the energy")
        self._check_invariants()

    def _check_invariants(self) -> None:
        n = len(self.qubit_positions)
        if len(set(self.qubit_positions)) != n:
            raise StateError(f"two qubits share a dot: {self.qubit_positions}")
        if self._register_size() != n:
            raise StateError(f"register has {self._register_size()} qubits, grid has {n}")

    # -- events -----------------------------------------------------------

    def init_qubit(self, pos: Pos) -> "DotArray":
        """Bring one spin-up electron into an empty dot; the register grows
        by a |0> qubit."""
        self._pos_check(pos)
        if pos in self.qubit_positions:
            raise BlockadeError(f"dot {pos} already holds an electron")
        if self.roles.get(pos) == "readout":
            raise StateError(f"dot {pos} is a readout dot")
        self._append_zero()
        self.qubit_positions.append(pos)
        self.advance(self.material.t_pulse)
        return self

    def move_electron(self, src: Pos, dst: Pos) -> "DotArray":
        """Tunnel the electron, spin amplitudes intact, one hop over."""
        self._pos_check(src)
        self._pos_check(dst)
        if src not in self.qubit_positions:
            raise StateError(f"source dot {src} is empty")
        if dst in self.qubit_positions:
            raise BlockadeError(f"destination dot {dst} is occupied")
        if not self.adjacent(src, dst):
            raise AdjacencyError(f"{src} and {dst} are not grid neighbors")
        if self.roles.get(dst) == "readout":
            raise StateError(f"cannot park a qubit on readout dot {dst}")
        self.qubit_positions[self.qubit_positions.index(src)] = dst
        self.advance(self.material.t_hop)
        return self

    def _hop_along(self, path: list[Pos]) -> None:
        """Book the hops of a path planned on the current occupancy, unchecked,
        as move_electron would: each run of hops that keeps the electron's T2
        (each hop in strict mode) moves it to the run's end and takes one advance."""
        q = self.qubit_positions.index(path[0])
        for _, run in groupby(path[1:], None if self.strict else self.t2_overrides.get):
            hops = list(run)
            self.qubit_positions[q] = hops[-1]
            self.advance(self.material.t_hop, windows=len(hops))

    def apply_gate_at(self, kind: str, positions: list[Pos], *,
                      axis=None, angle=None, theta=None) -> "DotArray":
        """Run one named gate on qubits addressed by grid position.

        Single-qubit gates take their Rabi-derived duration; two-qubit gates
        are exchange-composed and are booked as one coupling window. An
        ExchangeEvolve of pulse area theta lowers the barrier for
        theta*hbar/J_on; a negative theta is refused before the state changes."""
        targets = tuple(self.qubit_index(p) for p in positions)
        gate = Gate(kind, targets, axis=axis, angle=angle, theta=theta)
        mat = self.material
        pair: tuple[Pos, ...] = ()
        energy = 0.0
        if gate.n_targets == 1:
            duration = gate.area / (2.0 * math.pi) * mat.rabi_period
            power = drive_report(mat.g_factor, mat.rabi_period, mat.gate_distance)["power_watt"]
            energy = power * duration
        else:
            if not self.adjacent(*positions):
                raise AdjacencyError(f"{positions} are not grid neighbors")
            # a named kind's area is pi or pi/2, so area/pi scales t_swap exactly
            duration = (gate.area * HBAR_EV_S / mat.J_on if kind == "ExchangeEvolve"
                        else gate.area / math.pi * mat.t_swap)
            pair = tuple(positions)
        self._apply(gate)
        self.advance(duration, pair=pair, energy=energy)
        return self

    def readout(self, qubit_pos: Pos, readout_pos: Pos, rng) -> tuple[int, float]:
        """Spin-to-charge readout: project the qubit in Z. A ground-state
        (spin-up, |0>) electron tunnels to the readout dot and registers a
        charge event; the excited spin stays put. Returns the reported bit
        and the Born marginal p1 it was drawn from by `rng.random`."""
        self._pos_check(readout_pos)
        if self.roles.get(readout_pos) != "readout":
            raise StateError(f"dot {readout_pos} is not a readout dot")
        if readout_pos in self.qubit_positions:
            raise BlockadeError(f"readout dot {readout_pos} is occupied")
        bit, p1, self.state = measure(self.state, self.qubit_index(qubit_pos), "Z",
                                      rng.random, self.material.readout_error)
        self.advance(self.material.readout_transfer + self.material.readout_measure)
        return bit, p1


def _place(mask: int, within: int) -> int:
    """The bits of `mask`, a subset of `within`, as bits of the register of
    within's qubits in their order."""
    out, bit = 0, 1
    while within:
        low = within & -within
        out |= bit if mask & low else 0
        within, bit = within ^ low, bit << 1
    return out


def _spread(sub: int, within: int) -> int:
    """_place's inverse: bits of the register of within's qubits as bits of within's."""
    out = 0
    while within:
        low = within & -within
        out |= low if sub & 1 else 0
        within, sub = within ^ low, sub >> 1
    return out


class MatrixArray(DotArray):
    """A density-matrix array. It stores only rho's excited block: `_block`,
    the C-contiguous 2**k x 2**k block of rho over the k qubits set in
    `_mask` (bit n-1-q for qubit q), those whose |1> rows or columns hold a
    nonzero component (-0.0 included), as noise._excited finds them. Every
    entry of rho outside the block is +0. Each operation rescans only its
    output block and cuts the block down to the qubits found excited, so
    `_mask` stays exact.

    Idle windows run noise._decay on a copy of the block. A gate runs
    qstate._apply_unitary on the block grown by its targets, padded to at
    least 2 qubits (a 1-qubit block's 2-column gemm can round differently
    from the full matrix's); every other entry it writes is +0, as it would
    be on all of rho. Reading `state` builds rho, zeros plus put; assigning
    it (a readout, teleport, qec_cycle) rescans rho once."""

    @property
    def state(self) -> QuantumState:
        rho = np.zeros((2**self._n, 2**self._n), complex)
        rho.put(_block_cells(len(rho), self._mask), self._block)
        return QuantumState(rho, self._n)

    @state.setter
    def state(self, state: QuantumState) -> None:
        if state.is_vector:
            raise StateError("a matrix array holds a density matrix")
        self._n = state.n_qubits
        self._keep(np.ascontiguousarray(state.data, complex), 2**self._n - 1)

    def _keep(self, block: np.ndarray, mask: int) -> None:
        """Store `block`, rho's block over the qubits in `mask`, cut to those it holds excited."""
        sub = _excited(block)
        if sub != len(block) - 1:
            block = block.take(_block_cells(len(block), sub))
        self._block, self._mask = block, _spread(sub, mask)

    def _window(self, duration: float, idling: dict, windows: int = 1) -> None:
        # a qubit that turns ground in one window keeps its block arithmetic in
        # the next: on its +0 rows and columns that gives the + 0.0 pass's bits
        block, steps = self._block.copy(), idle_steps(self.material.noise, idling)
        for _ in range(windows):
            _decay(block, self._mask, self._n, duration, steps)
        self._keep(block, self._mask)

    def _apply(self, gate: Gate) -> None:
        n, block, mask = self._n, self._block, self._mask
        grown = mask | sum(1 << (n - 1 - t) for t in gate.targets)
        if grown.bit_count() < min(2, n):
            grown |= 1 if grown != 1 else 2
        if grown != mask:
            block = np.zeros((2 ** grown.bit_count(),) * 2, complex)
            block.put(_block_cells(len(block), _place(mask, grown)), self._block)
        targets = [(grown >> (n - t)).bit_count() for t in gate.targets]  # places in the block
        out = _apply_unitary(QuantumState(block, grown.bit_count()), gate.matrix(), targets)
        self._keep(np.ascontiguousarray(out.data), grown)

    def _append_zero(self) -> None:
        if self._n + 1 > MATRIX_QUBIT_CAP:
            raise StateError(f"{self._n + 1} qubits exceeds cap {MATRIX_QUBIT_CAP}")
        grown = QuantumState(self._block, self._mask.bit_count()).append_zero_qubit()
        self._n += 1
        self._keep(grown.data, self._mask << 1 | 1)

    def _register_size(self) -> int:
        return self._n
