"""Five-qubit code: encoding, syndromes, correction cycles, pulse budget."""
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from conftest import (
    H,
    I2,
    X,
    Z,
    embed,
    haar_state,
    kron_chain,
    memory_experiment_oracle,
    pauli_string,
    qec_cycle_oracle,
    states_close,
)
from qdotsim.channels import make_epr
from qdotsim.device import DotArray, inas_material
from qdotsim.errors import ProtocolError, StateError
from qdotsim.qec import (
    STABILIZER_GENERATORS,
    cycle_pulse_count,
    encode_pulse_count,
    memory_experiment,
    principal_correction,
    pulse_budget,
    qec_cycle,
    syndrome_pulse_counts,
    weight_distribution,
)
from qdotsim.qec import (
    _ENCODE_OPS,
    _PAULI_NAMES,
    _classes_by_weight,
    _error_tables,
    _memory_reference,
    _pauli_class,
    _run_ops,
)
from qdotsim.qstate import (
    Gate,
    QuantumState,
    apply_gate,
    qubit_probabilities,
    state_fidelity,
)

MATERIAL = inas_material()

TEST_PAYLOAD = np.array([1.0, np.exp(1j * np.pi / 4)], dtype=complex) / math.sqrt(2)


def five_qubit_state(amp) -> QuantumState:
    psi = np.zeros(32, dtype=complex)
    psi[0], psi[16] = amp[0], amp[1]
    return QuantumState(psi, 5)


BLOCK = (0, 1, 2, 3, 4)  # principal, then the four syndrome qubits


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_zero_matches_stabilizer_projector_oracle():
    # oracle: project |00000> onto the +1 eigenspace of all four generators
    projector = np.eye(32, dtype=complex)
    for gen in STABILIZER_GENERATORS:
        projector = projector @ (np.eye(32) + pauli_string(gen)) / 2
    vec = projector @ np.eye(32, dtype=complex)[:, 0]
    vec /= np.linalg.norm(vec)
    oracle_state = QuantumState(vec, 5)

    encoded = _run_ops(QuantumState.zero(5), BLOCK)
    assert state_fidelity(encoded, oracle_state) > 1 - 1e-12


def test_encoded_zero_is_uniform_sixteen_terms():
    encoded = _run_ops(QuantumState.zero(5), BLOCK)
    magnitudes = np.abs(encoded.data)
    nonzero = magnitudes > 1e-12
    assert nonzero.sum() == 16
    assert np.allclose(magnitudes[nonzero], 0.25, atol=1e-12)


def test_encoded_states_are_stabilized():
    encoded = _run_ops(five_qubit_state(TEST_PAYLOAD), BLOCK)
    for gen in STABILIZER_GENERATORS:
        fixed = pauli_string(gen) @ encoded.data
        assert np.max(np.abs(fixed - encoded.data)) < 1e-10


def test_decode_inverts_encode_on_random_payloads(rng):
    for _ in range(100):
        amp = haar_state(1, rng).data
        state = five_qubit_state(amp)
        out = _run_ops(_run_ops(state, BLOCK), BLOCK, inverse=True)
        assert state_fidelity(out, five_qubit_state(amp)) > 1 - 1e-10


def test_encode_is_linear():
    alpha, beta = 0.6, 0.8
    enc_zero = _run_ops(five_qubit_state([1, 0]), BLOCK)
    enc_one = _run_ops(five_qubit_state([0, 1]), BLOCK)
    enc_mix = _run_ops(five_qubit_state([alpha, beta]), BLOCK)
    combo = alpha * enc_zero.data + beta * enc_one.data
    assert np.max(np.abs(enc_mix.data - combo)) < 1e-12


def test_encoder_unitarity_full_matrix():
    cols = []
    for index in range(32):
        vec = np.zeros(32, dtype=complex)
        vec[index] = 1.0
        cols.append(_run_ops(QuantumState(vec, 5), (0, 1, 2, 3, 4)).data)
    e = np.column_stack(cols)
    assert np.max(np.abs(e.conj().T @ e - np.eye(32))) < 1e-12


def test_decode_is_exact_inverse_matrix():
    probe = np.zeros(32, dtype=complex)
    probe[5] = 1.0
    forward = _run_ops(QuantumState(probe, 5), (0, 1, 2, 3, 4))
    back = _run_ops(forward, (0, 1, 2, 3, 4), inverse=True)
    assert np.max(np.abs(back.data - probe)) < 1e-12


ORACLE_GATES = {
    "Z": Z,
    "H": H,
    "CNOT": kron_chain(np.diag([1, 0]), I2) + kron_chain(np.diag([0, 1]), X),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}


def oracle_encoder() -> np.ndarray:
    """The encoder circuit as a 32x32 matrix, one kron-embedded gate at a time."""
    enc = np.eye(32, dtype=complex)
    for kind, locals_ in _ENCODE_OPS:
        enc = embed(ORACLE_GATES[kind], locals_, 5) @ enc
    return enc


def register(vecs, weights, matrix: bool) -> QuantumState:
    """The first vector as a pure register, or the weighted mixture of all
    of them as a density matrix."""
    if not matrix:
        return QuantumState(vecs[0], int(np.log2(vecs[0].size)))
    rho = sum(w * np.outer(v, v.conj()) for v, w in zip(vecs, weights))
    return QuantumState(rho, int(np.log2(vecs[0].size)))


def oracle_apply(op: np.ndarray, state: QuantumState) -> np.ndarray:
    if state.is_vector:
        return op @ state.data
    return op @ state.data @ op.conj().T


@given(n=st.integers(5, 8), matrix=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_compiled_encoder_against_kron_oracle(n, matrix, seed):
    # a random ordered block of 5 distinct qubits in a larger register
    rng = np.random.default_rng(seed)
    block = tuple(int(q) for q in rng.permutation(n)[:5])
    enc = embed(oracle_encoder(), block, n)
    weights = rng.dirichlet(np.ones(2))

    # the bare circuit and its inverse on arbitrary Haar states
    anything = register([haar_state(n, rng).data for _ in range(2)], weights, matrix)
    out = _run_ops(anything, block)
    assert np.max(np.abs(out.data - oracle_apply(enc, anything))) < 1e-12
    back = _run_ops(anything, block, inverse=True)
    assert np.max(np.abs(back.data - oracle_apply(enc.conj().T, anything))) < 1e-12

    # |psi> on the principal and spectators, |0000> on the syndromes
    order = [q for q in range(n) if q not in block[1:]] + list(block[1:])
    ground = np.zeros(16, dtype=complex)
    ground[0] = 1.0
    vecs = [
        np.transpose(np.kron(haar_state(n - 4, rng).data, ground).reshape([2] * n),
                     np.argsort(order)).reshape(-1)
        for _ in range(2)
    ]
    start = register(vecs, weights, matrix)
    encoded = _run_ops(start, block)
    assert np.max(np.abs(encoded.data - oracle_apply(enc, start))) < 1e-12
    for gen in STABILIZER_GENERATORS:
        fixed = embed(pauli_string(gen), block, n) @ encoded.data
        assert np.max(np.abs(fixed - encoded.data)) < 1e-12
    decoded = _run_ops(encoded, block, inverse=True)
    assert np.max(np.abs(decoded.data - start.data)) < 1e-12


def test_encode_requires_ground_syndromes():
    bad = apply_gate(five_qubit_state(TEST_PAYLOAD), Gate("X", (2,)))
    with pytest.raises(ProtocolError):
        qec_cycle(bad, BLOCK, [], np.random.default_rng(0))


def test_logical_qubit_validation():
    with pytest.raises(StateError):
        qec_cycle(five_qubit_state(TEST_PAYLOAD), (0, 0, 1, 2, 3), [], np.random.default_rng(0))


# ---------------------------------------------------------------------------
# syndrome table
# ---------------------------------------------------------------------------

def test_syndrome_table_is_a_bijection():
    table = _error_tables()[0]
    assert len(table) == 16
    assert table[(0, 0, 0, 0)] == ("I", -1)
    labels = set(table.values())
    assert len(labels) == 16
    paulis = {(p, q) for p in "XYZ" for q in range(5)}
    assert {v for v in labels if v != ("I", -1)} == paulis


def test_syndromes_nonzero_for_every_error():
    table = _error_tables()[0]
    for syndrome, (pauli, qubit) in table.items():
        if pauli != "I":
            assert syndrome != (0, 0, 0, 0)


def test_x0_and_x1_differ():
    table = {v: k for k, v in _error_tables()[0].items()}
    assert table[("X", 0)] != table[("X", 1)]


def test_syndrome_table_against_bruteforce_decode(rng):
    # independent recomputation: full matrix errors on the encoded state
    table = _error_tables()[0]
    amp = haar_state(1, rng).data
    encoded = _run_ops(five_qubit_state(amp), BLOCK)
    by_error = {v: k for k, v in table.items()}
    for qubit in range(5):
        for pauli in "XYZ":
            word = "".join(pauli if i == qubit else "I" for i in range(5))
            hit = QuantumState(pauli_string(word) @ encoded.data, 5)
            decoded = _run_ops(hit, BLOCK, inverse=True)
            bits = tuple(
                int(qubit_probabilities(decoded, sq)[1] > 0.5)
                for sq in BLOCK[1:]
            )
            assert bits == by_error[(pauli, qubit)]


# ---------------------------------------------------------------------------
# correction cycles
# ---------------------------------------------------------------------------

def test_cycle_without_error_is_identity():
    out, report, _ = qec_cycle(five_qubit_state(TEST_PAYLOAD), BLOCK, [],
                               np.random.default_rng(1))
    assert report["syndrome"] == [0, 0, 0, 0]
    assert report["principal_correction"] == "I"
    assert state_fidelity(out, five_qubit_state(TEST_PAYLOAD)) > 1 - 1e-10


@pytest.mark.parametrize(
    "pauli,qubit", [(p, q) for p in "XYZ" for q in range(5)]
)
def test_cycle_corrects_every_single_error(pauli, qubit):
    out, report, _ = qec_cycle(five_qubit_state(TEST_PAYLOAD), BLOCK, [(pauli, qubit)],
                               np.random.default_rng(2))
    assert report["diagnosed_error"] == {"pauli": pauli, "block_position": qubit}
    assert not report["possible_logical_error"]
    assert state_fidelity(out, five_qubit_state(TEST_PAYLOAD)) > 1 - 1e-10


def test_cycle_handles_y_then_x_as_net_z():
    # Y then X on the same qubit is Z up to phase, still weight one
    out, report, _ = qec_cycle(five_qubit_state(TEST_PAYLOAD), BLOCK,
                               [("Y", 3), ("X", 3)], np.random.default_rng(3))
    assert report["diagnosed_error"] == {"pauli": "Z", "block_position": 3}
    assert state_fidelity(out, five_qubit_state(TEST_PAYLOAD)) > 1 - 1e-10


@pytest.mark.parametrize("injected", [[("X", 2), ("X", 2)], [("Y", 3), ("X", 3)]])
def test_cancelling_injections_are_not_flagged(injected):
    # X2 X2 is the identity and Y3 X3 is Z3 up to phase: weight < 2, correctable
    out, report, _ = qec_cycle(five_qubit_state(TEST_PAYLOAD), BLOCK, injected,
                               np.random.default_rng(7))
    assert not report["possible_logical_error"]
    assert state_fidelity(out, five_qubit_state(TEST_PAYLOAD)) > 1 - 1e-10


def test_some_weight_two_error_is_uncorrectable():
    # distance 3: at least one pair of single-qubit errors defeats the code
    worst = 1.0
    for (p1, q1), (p2, q2) in itertools.combinations(
        [(p, q) for p in "XYZ" for q in range(5)], 2
    ):
        if q1 == q2:
            continue
        out, report, _ = qec_cycle(five_qubit_state(TEST_PAYLOAD), BLOCK,
                                   [(p1, q1), (p2, q2)], np.random.default_rng(4))
        assert report["possible_logical_error"]
        worst = min(worst, state_fidelity(out, five_qubit_state(TEST_PAYLOAD)))
        if worst < 0.5:
            break
    assert worst < 0.5


def test_cycle_reports_pulse_count():
    _, report, _ = qec_cycle(five_qubit_state(TEST_PAYLOAD), BLOCK, [("X", 1)],
                             np.random.default_rng(5))
    assert report["pulse_count"] == cycle_pulse_count(
        n_corrections=1 if report["principal_correction"] != "I" else 0,
        n_resets=sum(report["syndrome"]),
    )
    assert 100 <= report["pulse_count"] <= 500


def test_cycle_with_extra_ancilla_untouched(rng):
    # a sixth qubit rides along and must be unaffected by the cycle
    amp = haar_state(1, rng).data
    psi6 = np.kron(five_qubit_state(TEST_PAYLOAD).data, amp)
    state = QuantumState(psi6, 6)
    state, _, _ = qec_cycle(state, BLOCK, [("Y", 2)], np.random.default_rng(6))
    expected = QuantumState(np.kron(five_qubit_state(TEST_PAYLOAD).data, amp), 6)
    assert state_fidelity(state, expected) > 1 - 1e-10


@given(n=st.integers(5, 6), matrix=st.booleans(), seed=st.integers(0, 2**32 - 1),
       n_errors=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_cycle_matches_the_multi_pass_oracle(n, matrix, seed, n_errors):
    # a random payload on the principal (and a spectator), a random ordered
    # block, 0-4 random Paulis: one pass and the old sequence agree
    rng = np.random.default_rng(seed)
    block = tuple(int(q) for q in rng.permutation(n)[:5])
    order = [q for q in range(n) if q not in block[1:]] + list(block[1:])
    ground = np.zeros(16, dtype=complex)
    ground[0] = 1.0
    vecs = [
        np.transpose(np.kron(haar_state(n - 4, rng).data, ground).reshape([2] * n),
                     np.argsort(order)).reshape(-1)
        for _ in range(2)
    ]
    start = register(vecs, rng.dirichlet(np.ones(2)), matrix)
    injected = [("XYZ"[int(rng.integers(3))], int(rng.integers(5)))
                for _ in range(n_errors)]
    one_pass, multi_pass = np.random.default_rng(seed), np.random.default_rng(seed)
    out, report, _ = qec_cycle(start, block, injected, one_pass)
    expected, expected_report = qec_cycle_oracle(start, block, injected, multi_pass)
    assert report == expected_report
    assert states_close(out, expected, 1e-12)
    assert one_pass.bit_generator.state == multi_pass.bit_generator.state


# ---------------------------------------------------------------------------
# the memory experiment and its Pauli-class table
# ---------------------------------------------------------------------------

def _weights_by_convolution(pulses: int, p: Fraction) -> list[Fraction]:
    """P(net Pauli weight) after `pulses` pulses, in exact fractions: the
    distribution on all 4**5 classes (two bits per block position) is
    XOR-convolved with one pulse's, 1 - p on I and p/15 on each single Pauli."""
    singles = [code << 2 * pos for pos in range(5) for code in (1, 2, 3)]
    dist = {0: Fraction(1)}
    for _ in range(pulses):
        step: dict[int, Fraction] = {}
        for g, x in dist.items():
            step[g] = step.get(g, 0) + (1 - p) * x
            for e in singles:
                step[g ^ e] = step.get(g ^ e, 0) + p / 15 * x
        dist = step
    weights = [Fraction(0)] * 6
    for g, x in dist.items():
        weights[sum(1 for pos in range(5) if g >> 2 * pos & 3)] += x
    return weights


@pytest.mark.parametrize("pulses,p", [
    (0, Fraction(1, 3)), (1, Fraction(1, 3)), (2, Fraction(1, 1)), (3, Fraction(2, 7)),
    (5, Fraction(1, 1000)), (6, Fraction(1, 2)), (6, Fraction(0))])
def test_weight_distribution_matches_the_exact_convolution(pulses, p):
    exact = _weights_by_convolution(pulses, p)
    row = weight_distribution(pulses, float(p))
    for w in range(6):
        assert math.isclose(row[w], float(exact[w]), rel_tol=1e-12, abs_tol=0.0), (w, row)


@given(pulses=st.integers(1, 2**63 - 1), p=st.floats(0.0, 1.0))
@example(pulses=2**63 - 1, p=5e-324)
@example(pulses=2**63 - 1, p=1.0)
@example(pulses=2**63 - 1, p=1e-3)
@example(pulses=1, p=5e-324)
@settings(max_examples=200, deadline=None)
def test_weight_distribution_stays_a_probability_row(pulses, p):
    row = weight_distribution(pulses, p)
    assert row.shape == (6,) and np.all(row >= 0.0)
    assert abs(row.sum() - 1.0) <= 1e-12
    assert sum(np.random.default_rng(0).multinomial(2**32, row).tolist()) == 2**32


@pytest.mark.parametrize("p,pulses_per_cycle,seed", [
    (1e-3, 500, 11), (0.05, 20, 12), (0.2, 25, 13), (1.0, 3, 14)])
def test_memory_experiment_matches_the_state_vector_oracle_in_distribution(
        p, pulses_per_cycle, seed):
    # one state-vector cycle per round against drawn class counts: the two
    # syndrome histograms pass a chi-square homogeneity test and the failure
    # counts agree within 5 sigma
    cycles, oracle_cycles = 200_000, 2_000
    run = memory_experiment(cycles, p, np.random.default_rng(seed), pulses_per_cycle)
    expected, pulse_counts = memory_experiment_oracle(
        oracle_cycles, p, np.random.default_rng(seed), pulses_per_cycle)
    assert sum(run["syndrome_histogram"].values()) == cycles
    assert isinstance(run["failures"], int)
    assert all(type(n) is int for n in run["syndrome_histogram"].values())
    keys = sorted(set(run["syndrome_histogram"]) | set(expected["syndrome_histogram"]))
    table = [[hist.get(key, 0) for key in keys]
             for hist in (run["syndrome_histogram"], expected["syndrome_histogram"])]
    assert chi2_contingency(table).pvalue > 1e-3
    pooled = (run["failures"] + expected["failures"]) / (cycles + oracle_cycles)
    sigma = math.sqrt(pooled * (1 - pooled) * (1 / cycles + 1 / oracle_cycles))
    assert abs(run["failures"] / cycles - expected["failures"] / oracle_cycles) <= 5 * sigma
    assert _pauli_class.cache_info().currsize <= 4**5
    # qdotsim qec reads its compiled pulse range off the histogram's syndromes in
    # the table built once, which holds the count of each of the 16 syndromes
    counts = syndrome_pulse_counts()
    assert counts == {key: cycle_pulse_count(principal_correction(tuple(map(int, key))) != "I",
                                             key.count("1"))
                      for key in map("{:04b}".format, range(16))}
    assert {counts[key] for key in expected["syndrome_histogram"]} == set(pulse_counts)


def test_memory_experiment_at_the_cycle_cap_matches_the_exact_rate():
    # the exact rate weighs each weight's failing share of classes: 0.07069
    # at the CLI's defaults, and 2**32 drawn rounds land within 5 sigma of it
    shares = [sum(_pauli_class(codes)[1] for codes in group) / len(group)
              for group, _ in _classes_by_weight()]
    exact = float(weight_distribution(500, 1e-3) @ shares)
    assert abs(exact - 0.07069) < 5e-6
    run = memory_experiment(2**32, 1e-3, np.random.default_rng(5), 500)
    assert sum(run["syndrome_histogram"].values()) == 2**32
    assert len(run["syndrome_histogram"]) == 16
    assert abs(run["failures"] / 2**32 - exact) <= 5 * math.sqrt(exact * (1 - exact) / 2**32)


@pytest.mark.parametrize("cycles,p,pulses_per_cycle", [(1, 1.0, 20_000), (20_000, 0.0, 500)],
                         ids=["many-errors", "many-cycles"])
def test_memory_experiment_memory_is_constant(cycles, p, pulses_per_cycle):
    # no per-cycle or per-error list: the run peaks below 64 kB however long it is
    memory_experiment(cycles, p, np.random.default_rng(3), pulses_per_cycle)  # fills the caches
    tracemalloc.start()
    try:
        memory_experiment(cycles, p, np.random.default_rng(3), pulses_per_cycle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


class _Uniforms(np.random.Generator):
    """Replays the given uniforms from random()."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = uniforms

    def random(self, size=None):
        return np.array(self.uniforms)


def _improbable_draw(near_one: bool):
    """The first class with a syndrome marginal p1 within 1e-12 of 1 (or of
    0, but not 0): the injection that makes it and a draw on the improbable
    side of p1."""
    for codes in itertools.product(range(4), repeat=5):
        injected = [(_PAULI_NAMES[c], pos) for pos, c in enumerate(codes) if c]
        _, _, p1s = qec_cycle(_memory_reference(), BLOCK, injected, _Uniforms([0.5] * 4))
        for k, p1 in enumerate(p1s):
            if (1 - 1e-12 < p1 < 1) if near_one else (0 < p1 < 1e-12):
                uniforms = [0.5] * 4
                uniforms[k] = p1 if near_one else 0.0  # u < p1 reads 1
                return injected, uniforms
    raise AssertionError("no class has a marginal a rounding away from 0 or 1")


@pytest.mark.parametrize("near_one", [True, False], ids=["p1-below-1", "p1-above-0"])
def test_improbable_syndrome_draw_fails_like_the_state_vector_cycle(near_one):
    injected, uniforms = _improbable_draw(near_one)
    with pytest.raises(StateError) as state_vector:
        qec_cycle(_memory_reference(), BLOCK, injected, _Uniforms(uniforms))
    assert str(state_vector.value).startswith("branch (Z, ")


# ---------------------------------------------------------------------------
# ground-state preconditions
# ---------------------------------------------------------------------------

def _tilted(state: QuantumState, qubit: int, p1: float) -> QuantumState:
    """The register with `qubit` turned about y until its p1 is `p1`."""
    angle = 2 * math.asin(math.sqrt(p1))
    return apply_gate(state, Gate("Rot", (qubit,), axis=(0, 1, 0), angle=angle))


def _ground_site(site: str, p1: float) -> None:
    """Run one |0> precondition on a register whose checked qubit has p1:
    (1, 0) for make_epr, syndrome qubit 3 for qec_cycle."""
    if site == "make_epr":
        array = DotArray(2, 1, MATERIAL, strict=True, seed=0)
        array.init_qubit((0, 0))
        array.init_qubit((1, 0))
        array.state = _tilted(array.state, 1, p1)
        make_epr(array, (0, 0), (1, 0))
    else:
        qec_cycle(_tilted(QuantumState.zero(5), 3, p1), range(5), [], np.random.default_rng(0))


@pytest.mark.parametrize("site,name", [
    ("make_epr", "qubit at (1, 0)"), ("qec_cycle", "syndrome qubit 3")])
def test_every_ground_precondition_draws_the_line_at_p1_1e_9(site, name):
    with pytest.raises(ProtocolError, match=re.escape(f"{name} is not in |0>")):
        _ground_site(site, 2e-9)
    _ground_site(site, 5e-10)


# ---------------------------------------------------------------------------
# pulse budget
# ---------------------------------------------------------------------------

def test_pulse_budget_headline_value():
    budget = pulse_budget(MATERIAL, 500)
    assert budget["cycles_in_T2"] == 10_000  # exactly


def test_pulse_budget_scaling():
    doubled = MATERIAL.__class__(**{**MATERIAL.__dict__, "t_pulse": 4e-11})
    assert pulse_budget(doubled, 500)["cycles_in_T2"] == 5_000


def test_pulse_budget_single_cycle():
    pulses = int(MATERIAL.noise.T2 / MATERIAL.t_pulse)
    assert pulse_budget(MATERIAL, pulses)["cycles_in_T2"] == 1


def test_compiled_pulse_count_reported_next_to_budget():
    assert encode_pulse_count() == encode_pulse_count() == 58  # built once, read again
    assert cycle_pulse_count(1, 2) == 2 * 58 + 4 + 1 + 2
