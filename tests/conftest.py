"""Shared test helpers: independent oracles and random-state generators.

Oracles here deliberately avoid the package's own gate-application code:
they build full operators with numpy kron products (or scipy expm) so the
implementation is checked against a second, unrelated path.
"""
import numpy as np
import pytest

from qdotsim import scenario as scenario_mod
from qdotsim.device import DotArray
from qdotsim.noise import apply_idle_jumps
from qdotsim.qstate import QuantumState

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


def idle_trajectory(state: QuantumState, durations, params, seed) -> QuantumState:
    """One stochastic unraveling of consecutive idle windows on a vector
    state: each window steps every qubit in order through apply_idle_jumps,
    all draws from one generator seeded with `seed`."""
    rng = np.random.default_rng(seed)
    for dt in durations:
        for q in range(state.n_qubits):
            state = apply_idle_jumps(state, q, dt, params, rng)
    return state


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
