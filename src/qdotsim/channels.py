"""Qubit transport: swapping, tunneling, and teleportation channels.

Channel analytics follow the exponential error model f = exp(-lambda*d)
with lambda = t_op / T2 (per-hop operation time over the dephasing time)
and d the line length in qubits. Reported figures:

    latency            = d * t_hop
    physical bandwidth = 1 / latency
    true bandwidth     = physical bandwidth * f
    max distance       = ln(1 - threshold) / (-lambda)

The max-distance formula gives about 100 qubits at threshold 1e-4 for a
swap line with lambda = 1e-6, and about 10 at threshold 1e-5; reports
carry both because the two readings circulate side by side.

Teleportation consumes a pre-shared EPR pair, two measurements, two
classical bits, and conditional X/Z corrections. Purification is one
recurrence round on Werner pairs (bilateral CNOT, compare target-pair
measurements, keep on agreement).
"""
from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .device import DotArray, MaterialParams, Pos
from .errors import AdjacencyError, ProtocolError, RoutingError, StateError

BELL_PHI_PLUS = np.zeros(4, dtype=complex)
BELL_PHI_PLUS[0] = BELL_PHI_PLUS[3] = 1.0 / math.sqrt(2.0)
ROUTE_CELL_CAP = 2**22  # padded cells (width+2)*(height+2) plan_tunnel_route may allocate

FIDELITY_THRESHOLD_DEFAULT = 1e-4
# teleport_bandwidth's purification yield prod(p_i) / 2**rounds is 0.0 from round 1,075 on
# (2**-1075 rounds to 0.0), so a cap above that loses no nonzero rate
PURIFICATION_ROUNDS_CAP = 4096


def channel_lambda(t_op: float, T2: float) -> float:
    """Per-hop error parameter t_op/T2.

    Oriented so that a 1e-10 s swap against a 1e-4 s dephasing time gives
    1e-6; the inverse ratio would make every fidelity figure collapse."""
    if t_op < 0 or T2 <= 0:
        raise StateError(f"need t_op >= 0 and T2 > 0, got {t_op}, {T2}")
    lam = t_op / T2
    if not math.isfinite(lam):
        raise StateError(f"lambda = t_op/T2 is not finite for {t_op}, {T2}")
    return lam


def channel_fidelity(lam: float, d: float) -> float:
    """exp(-lambda*d) for a line of d qubits."""
    if d < 0:
        raise StateError(f"negative line length d = {d}")
    return math.exp(-lam * d)


def max_channel_distance(lam: float, threshold: float = FIDELITY_THRESHOLD_DEFAULT) -> float:
    """Longest line keeping infidelity below threshold: ln(1-thr)/(-lambda)."""
    if not 0.0 < threshold < 1.0:
        raise StateError(f"threshold must be in (0, 1), got {threshold}")
    if lam <= 0:
        raise StateError(f"lambda must be positive, got {lam}")
    distance = math.log(1.0 - threshold) / (-lam)
    if not math.isfinite(distance):
        raise StateError(f"max distance overflows for lambda = {lam}")
    return distance


MAX_DISTANCE_NOTE = (
    "max distance at threshold 1e-4 evaluates to ~100 qubits for a swap line "
    "with lambda = 1e-6; the companion 10-qubit (1 um) figure corresponds to "
    "threshold 1e-5. Both are reported; the formula is the authority."
)


def line_report(
    kind: str, material: MaterialParams, length_qubits: int, *, t_hop=None,
    lam=None, fidelity_threshold: float = FIDELITY_THRESHOLD_DEFAULT,
) -> dict:
    """Report dict for a swap or tunnel line of length_qubits hops. t_hop
    defaults to the material's swap window or tunnel hop, lambda to t_hop/T2."""
    if kind not in ("swap", "tunnel"):
        raise StateError(f"unknown channel kind {kind!r}")
    if t_hop is None:
        t_hop = material.t_swap if kind == "swap" else material.t_hop
    if lam is None:
        lam = channel_lambda(t_hop, material.noise.T2)
    lam, t_hop = float(lam), float(t_hop)
    if not 0.0 < lam < 1.0:
        raise StateError(f"lambda must be in (0, 1), got {lam}")
    if t_hop <= 0:
        raise StateError(f"t_hop must be positive, got {t_hop}")
    if not 0.0 < fidelity_threshold < 1.0:
        raise StateError("fidelity_threshold must be in (0, 1)")
    d = int(length_qubits)
    f = channel_fidelity(lam, d)
    latency = d * t_hop
    if latency <= 0:
        raise StateError("channel needs at least one hop")
    if not 0.0 < f <= 1.0:
        raise StateError(f"fidelity must be in (0, 1], got {f}")
    phys = 1.0 / latency
    if not math.isfinite(phys):
        raise StateError(f"physical bandwidth overflows for latency {latency} s")
    if kind == "swap":
        note = (f"hop time {t_hop:.6g} s; material swap window pi*hbar/J_on = "
                f"{material.t_swap:.6g} s")
    else:
        note = f"hop time t_swap/10 = {material.t_hop:.6g} s"
    return {
        "kind": kind,
        "length_qubits": d,
        "fidelity": f,
        "latency_s": latency,
        "physical_bandwidth_bits_per_s": phys,
        "true_bandwidth_bits_per_s": phys * f,
        "max_distance_qubits": max_channel_distance(lam, fidelity_threshold),
        "max_distance_by_threshold": {
            thr: max_channel_distance(lam, float(thr)) for thr in ("1e-4", "1e-5")},
        "conflicts": [],
        "notes": [note, MAX_DISTANCE_NOTE],
    }


def plan_tunnel_route(array: DotArray, src: Pos, dst: Pos) -> list[Pos]:
    """Shortest path from an occupied source to an empty destination through
    empty dots only, the lexicographically first with steps ranked
    +x,+y,-x,-y: the one a FIFO breadth-first search expanding in that order
    finds. If a monotone path exists, all shortest paths are monotone, and the
    walk from src that always takes the first-ranked step toward dst from
    which dst stays reachable finds it; when nothing blocks it, that walk is
    the L along the first-ranked step, then the other, so the L is tried
    first. Else the search runs in a box around the src-dst rectangle that
    grows until it must hold the path."""
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
    sx, sy = (dst[0] > src[0]) - (dst[0] < src[0]), (dst[1] > src[1]) - (dst[1] < src[1])
    toward = [step for step in ((1, 0), (0, 1), (-1, 0), (0, -1)) if step in ((sx, 0), (0, sy))]
    xs, ys = range(src[0], dst[0], sx or 1), range(src[1], dst[1], sy or 1)  # empty if level
    path = ([*zip(xs, repeat(src[1])), *zip(repeat(dst[0]), ys), dst] if toward[0][0]
            else [*zip(repeat(src[0]), ys), *zip(xs, repeat(dst[1])), dst])
    if blocked.isdisjoint(path[1:]):
        return path
    # Row k of the src-dst rectangle, k rows back from dst's, as a mask: bit b is the
    # cell b columns back from dst's column. A row reaches dst from its seed, its free
    # cells that step into the next row's set (reach[0] seeds dst), and the runs above.
    dx, dy = abs(dst[0] - src[0]), abs(dst[1] - src[1])
    rows = [(2 << dx) - 1] * (dy + 1)
    for x, y in blocked - {src}:
        b, k = abs(dst[0] - x), abs(dst[1] - y)
        if (dst[0] - x) * sx == b <= dx and (dst[1] - y) * sy == k <= dy:
            rows[k] &= ~(1 << b)
    reach = [1]
    for free in rows:
        seed = free & reach[-1]
        reach.append(((free + seed) ^ free ^ seed) & free | seed)
    if reach[-1] >> dx & 1:
        moves, b, k, path = [(abs(i), abs(j)) for i, j in toward], dx, dy, [src]
        while b or k:  # the first-ranked step whose cell is in its row's set
            for i, j in moves:
                if b >= i and reach[k - j + 1] >> (b - i) & 1:
                    break
            b, k = b - i, k - j
            path.append((dst[0] - b * sx, dst[1] - k * sy))
        return path
    # A breadth-first search in a box around src and dst, its margin doubling
    # until the path found has at most manhattan + 2*margin hops (every path that
    # short stays in the box, so it is the grid's first shortest path too) or the
    # box is the grid. Cells are ids into the box padded by one blocked cell on
    # each side, so a step never needs a bounds check; the steps keep the
    # +x,+y,-x,-y order.
    manhattan, margin = dx + dy, 1
    while True:
        x0, y0 = max(min(src[0], dst[0]) - margin, 0), max(min(src[1], dst[1]) - margin, 0)
        x1 = min(max(src[0], dst[0]) + margin + 1, array.width)
        y1 = min(max(src[1], dst[1]) + margin + 1, array.height)
        whole, stride = x1 - x0 == array.width and y1 - y0 == array.height, x1 - x0 + 2
        row = b"\0" + b"\1" * (x1 - x0) + b"\0"
        free = bytearray(b"\0" * stride + row * (y1 - y0) + b"\0" * stride)
        for x, y in blocked:
            if x0 <= x < x1 and y0 <= y < y1:
                free[(y - y0 + 1) * stride + x - x0 + 1] = 0
        start, goal = ((y - y0 + 1) * stride + x - x0 + 1 for x, y in (src, dst))
        parent = [-1] * len(free)
        parent[start] = start
        queue = [start]
        for cur in queue:  # the list grows while it is read: a FIFO queue
            if parent[goal] >= 0:  # a discovered cell's parent never changes
                break
            for nxt in (cur + 1, cur + stride, cur - 1, cur - stride):
                if free[nxt]:
                    free[nxt] = 0
                    parent[nxt] = cur
                    queue.append(nxt)
        if parent[goal] >= 0:
            path = [goal]
            while path[-1] != start:
                path.append(parent[path[-1]])
            if len(path) - 1 <= manhattan + 2 * margin or whole:
                return [(cell % stride - 1 + x0, cell // stride - 1 + y0)
                        for cell in reversed(path)]
        elif whole:
            raise RoutingError(f"no empty path from {src} to {dst}")
        margin *= 2


def run_tunnel_route(array: DotArray, src: Pos, dst: Pos) -> list[Pos]:
    """Tunnel the electron at src to dst along plan_tunnel_route's path, the
    one this returns, booking one t_hop event per hop (DotArray._hop_along)."""
    path = plan_tunnel_route(array, src, dst)
    array._hop_along(path)
    return path


def make_epr(array: DotArray, a: Pos, b: Pos) -> DotArray:
    """Entangle two adjacent ground-state qubits into (|00> + |11>)/sqrt(2):
    Hadamard on the first, then CNOT onto the second."""
    if not array.adjacent(a, b):
        raise AdjacencyError(f"{a} and {b} are not grid neighbors")
    array.qubit_index(a)
    array.qubit_index(b)
    if array.strict:  # each in |0> within 1e-9: its p1 is at most 1e-9
        for pos in (a, b):
            if array._reduced([array.qubit_index(pos)])[1, 1].real > 1e-9:
                raise ProtocolError(f"qubit at {pos} is not in |0>")
    array.apply_gate_at("H", [a])
    array.apply_gate_at("CNOT", [a, b])
    return array


def epr_pair_fidelity(array: DotArray, a: Pos, b: Pos) -> float:
    """Overlap of the pair's reduced state with (|00> + |11>)/sqrt(2)."""
    rho = array._reduced([array.qubit_index(a), array.qubit_index(b)])
    return float(np.real(BELL_PHI_PLUS.conj() @ rho @ BELL_PHI_PLUS))


def teleport(array: DotArray, c: Pos, a: Pos, b: Pos, rng) -> tuple[dict, DotArray]:
    """Teleport the payload at c onto b using the EPR pair (a, b).

    CNOT from c onto a, then the phase of c (X basis) and the amplitude of a
    (Z basis) are measured; the two classical bits steer an X and then a Z
    on b. The payload at c is destroyed by the measurements, whose two
    uniforms come from `rng.random(2)`. The report's `p1` holds the two Born
    marginals the draws were compared with."""
    qc, qa, qb = (array.qubit_index(p) for p in (c, a, b))
    if len({qc, qa, qb}) != 3:
        raise StateError("payload and pair must be three distinct qubits")
    if array.strict:
        f_pair = epr_pair_fidelity(array, a, b)
        if f_pair < 1.0 - 1e-6:
            raise ProtocolError(
                f"no EPR pair on {a},{b}: Bell fidelity {f_pair:.6f}"
            )
    payload_before = array._reduced([qc])
    array.apply_gate_at("CNOT", [c, a])
    u = rng.random(2)  # two draws even where an outcome is certain
    phase_bit, p_phase = array._measure(qc, "X", lambda k: u[:k], 0.0)
    amp_bit, p_amp = array._measure(qa, "Z", lambda k: u[1:1 + k], 0.0)
    array.advance(2.0 * (array.material.readout_transfer + array.material.readout_measure))
    if array.material.classical_latency > 0:
        # the two classical bits ride a wire to b's site before correcting
        array.advance(array.material.classical_latency)
    if amp_bit:
        array.apply_gate_at("X", [b])
    if phase_bit:
        array.apply_gate_at("Z", [b])
    payload_after = array._reduced([qb])
    fidelity = float(
        np.real(np.trace(payload_before @ payload_after))
        + 2.0 * math.sqrt(
            max(0.0, float(np.real(np.linalg.det(payload_before)))
            ) * max(0.0, float(np.real(np.linalg.det(payload_after))))
        )
    )
    report = {
        "phase_bit": phase_bit,
        "amplitude_bit": amp_bit,
        "payload_fidelity": min(1.0, fidelity),
        "p1": [p_phase, p_amp],
    }
    return report, array


def purify_fidelity(F: float) -> tuple[float, float]:
    """One recurrence round on Werner pairs of fidelity F.

    Returns (F', success probability):
        F' = (F^2 + (1-F)^2/9) / (F^2 + 2F(1-F)/3 + 5(1-F)^2/9)
    with the denominator the probability that the round keeps the pair.
    Improves F whenever F > 1/2."""
    if not 0.25 < F <= 1.0:
        raise ProtocolError(
            f"pair fidelity {F} at or below the 0.25 purification threshold"
        )
    num = F * F + (1.0 - F) ** 2 / 9.0
    den = F * F + 2.0 * F * (1.0 - F) / 3.0 + 5.0 * (1.0 - F) ** 2 / 9.0
    return num / den, den


def teleport_bandwidth(
    distance_m: float,
    material: MaterialParams,
    purification_rounds: int = 0,
    fidelity_threshold: float = FIDELITY_THRESHOLD_DEFAULT,
) -> dict:
    """Deliverable teleportation rate over a long tunnel line.

    Model (every knob echoed in the returned report):
      * EPR halves ride tunnel hops of t_swap/10 with lambda = t_hop/T2.
      * The line is split into relay segments no longer than the tunnel
        reach at `fidelity_threshold`; segments hand off in pipeline, so
        the physical pair rate is one per segment traversal.
      * Without purification the true bandwidth keeps the channel
        convention rate * fidelity, which for a single segment reduces to
        the plain tunnel-channel figure.
      * Each purification round consumes two pairs per survivor and
        succeeds with the recurrence probability, so the yield is
        prod(p_i) / 2^rounds and the delivered fidelity is the recurrence
        output.
    """
    if distance_m <= 0:
        raise StateError(f"distance must be positive, got {distance_m}")
    if not 0 <= purification_rounds <= PURIFICATION_ROUNDS_CAP:
        raise StateError(f"purification rounds must be in [0, {PURIFICATION_ROUNDS_CAP}], "
                         f"got {purification_rounds}")
    t_hop = material.t_hop
    T2 = material.noise.T2
    lam = channel_lambda(t_hop, T2)
    d_total = max(1, int(round(distance_m / material.dot_pitch)))
    reach = max(1, int(max_channel_distance(lam, fidelity_threshold)))
    n_segments = max(1, math.ceil(d_total / reach))
    d_segment = math.ceil(d_total / n_segments)
    pair_rate = 1.0 / (d_segment * t_hop)
    f_raw = channel_fidelity(lam, d_total)
    fidelity = f_raw
    yield_factor = 1.0
    success_probs = []
    for _ in range(purification_rounds):
        fidelity, p = purify_fidelity(fidelity)
        success_probs.append(p)
        yield_factor *= p / 2.0
    bandwidth = pair_rate * yield_factor * fidelity
    return {
        "distance_m": distance_m,
        "dot_pitch_m": material.dot_pitch,
        "length_qubits": d_total,
        "t_hop_s": t_hop,
        "T2_s": T2,
        "lambda": lam,
        "fidelity_threshold": fidelity_threshold,
        "segment_reach_qubits": reach,
        "n_segments": n_segments,
        "segment_length_qubits": d_segment,
        "physical_pair_rate_per_s": pair_rate,
        "raw_pair_fidelity": f_raw,
        "purification_rounds": purification_rounds,
        "round_success_probabilities": success_probs,
        "purification_yield": yield_factor,
        "delivered_fidelity": fidelity,
        "true_bandwidth_bits_per_s": bandwidth,
        "assumptions": [
            "EPR halves travel on tunnel hops of duration t_swap/10",
            "per-hop error lambda = t_hop/T2, line fidelity exp(-lambda*d)",
            "relay segments bounded by the tunnel reach at the stated "
            "threshold, handing off in pipeline (rate = 1/segment time)",
            "raw channel fidelity maps onto the Werner-pair fidelity fed "
            "to the purification recurrence",
            "each purification round consumes 2 pairs per kept pair and "
            "succeeds with the recurrence probability",
            "classical communication and endpoint gate overheads are not "
            "rate limiting",
        ],
    }
