"""scenario.outcome_tree: exact outcome distributions, and the sampler against them."""
import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from conftest import H, PAULIS, embed, rot_matrix
from qdotsim.errors import SchemaError
from qdotsim import scenario as scenario_mod
from qdotsim.qstate import Gate
from qdotsim.scenario import TREE_LEAF_CAP, load_scenario, outcome_tree, run_scenario

BELL = load_scenario("bell.scenario")
TELEPORT = load_scenario("teleport.scenario")


def distribution(scenario: dict) -> dict:
    """The exact probability of each reported bit string."""
    probs = Counter()
    for leaf in outcome_tree(scenario):
        probs[leaf["bits"]] += leaf["probability"]
    return dict(probs)


def assert_distribution(got: dict, want: dict, tol: float) -> None:
    for bits in set(got) | set(want):
        assert abs(got.get(bits, 0.0) - want.get(bits, 0.0)) <= tol, (bits, got, want)


def chi_square_p(counts: dict, probs: dict) -> float:
    """Pearson's chi-square p-value of sampled counts against exact
    probabilities. While the least likely bin is expected under 5 times it
    is folded into the next least likely."""
    assert set(counts) <= {bits for bits, p in probs.items() if p > 0}, (counts, probs)
    shots = sum(counts.values())
    bins = sorted(((shots * p, counts.get(bits, 0)) for bits, p in probs.items()), reverse=True)
    while len(bins) > 1 and bins[-1][0] < 5:
        expected, observed = bins.pop()
        bins[-1] = (bins[-1][0] + expected, bins[-1][1] + observed)
    if len(bins) == 1:
        return 1.0
    stat = sum((observed - expected) ** 2 / expected for expected, observed in bins)
    return float(chi2.sf(stat, len(bins) - 1))


def noisy_bell(representation: str, readout_error: float = 0.1) -> dict:
    """bell.scenario with T1 = 200 ns, T2 = 100 ns, a 100 ns idle before the readouts
    and a readout error."""
    scenario = copy.deepcopy(BELL)
    scenario["material"] = {"preset": "inas", "readout_error": readout_error,
                            "noise": {"enabled": True, "T1": 2e-7, "T2": 1e-7}}
    scenario["array"]["representation"] = representation
    scenario["program"].insert(3, {"op": "idle", "t": 1e-7})
    return scenario


def reads(count: int) -> dict:
    """One qubit put in |+> and read, `count` times: 2**count equally likely leaves."""
    return {"schema_version": 1, "seed": 1,
            "array": {"width": 2, "height": 1, "dots": [{"pos": [1, 0], "role": "readout"}]},
            "program": [{"op": "init", "pos": [0, 0]}] + [event for _ in range(count) for event in (
                {"op": "gate", "kind": "H", "targets": [[0, 0]]},
                {"op": "readout", "qubit": [0, 0], "readout": [1, 0]})]}


def test_bundled_distributions_are_pinned():
    assert_distribution(distribution(BELL), {"00": 0.5, "11": 0.5}, 1e-12)
    assert_distribution(distribution(load_scenario("paper_numbers.scenario")), {"": 1.0}, 1e-12)
    leaves = outcome_tree(TELEPORT)
    assert [leaf["bits"] for leaf in leaves] == ["00", "01", "10", "11"]
    for leaf in leaves:
        assert abs(leaf["probability"] - 0.25) <= 1e-12
        assert leaf["fidelity_checks"][-1]["payload_fidelity"] >= 1 - 1e-9
        # one entry per event: the epr's and the teleport's checks, None elsewhere
        assert [check is not None for check in leaf["fidelity_checks"]] == [False] * 5 + [True] * 2


def test_a_misread_is_one_more_binary_draw():
    # the reported bits are the true ones, each flipped with probability 0.1
    true = distribution(noisy_bell("matrix", readout_error=0.0))
    shown = distribution(noisy_bell("matrix"))
    want = {r: sum(p * np.prod([0.1 if a != b else 0.9 for a, b in zip(r, t)])
                   for t, p in true.items()) for r in ("00", "01", "10", "11")}
    assert_distribution(shown, want, 1e-12)
    assert true["00"] > 0.5 + 0.05 and true["01"] > 0  # decay moves weight off |11>


def test_a_noisy_vector_run_is_refused():
    with pytest.raises(SchemaError, match=r"^event 0 \(init\): draws besides its reported"):
        outcome_tree(noisy_bell("vector"))


def test_an_event_that_draws_without_reporting_its_draws_is_refused(monkeypatch):
    spec = scenario_mod._OPS["idle"]
    monkeypatch.setitem(scenario_mod._OPS, "idle", spec._replace(
        run=lambda array, event, at, rng: rng.random(1)))
    scenario = copy.deepcopy(BELL)
    scenario["program"].insert(2, {"op": "idle", "t": 1e-9})
    with pytest.raises(SchemaError, match=r"^event 2 \(idle\): draws besides its reported"):
        outcome_tree(scenario)


def test_runs_past_the_leaf_cap_are_refused():
    leaves = outcome_tree(reads(12))
    assert len(leaves) == TREE_LEAF_CAP == 2**12
    assert all(abs(leaf["probability"] - 2**-12) <= 1e-15 for leaf in leaves)
    with pytest.raises(SchemaError, match=r"^event \d+ \(readout\): over 4096 outcome branches"):
        outcome_tree(reads(13))


@pytest.mark.parametrize("scenario", [BELL, TELEPORT], ids=["bell", "teleport"])
def test_sampled_bundled_counts_pass_chi_square(scenario):
    counts = run_scenario(scenario, shots=4000)["measurement_counts"]
    assert chi_square_p(counts, distribution(scenario)) > 1e-4


def test_noisy_vector_trajectories_match_the_exact_matrix_distribution():
    # the trajectory engine, sampled, against the density-matrix engine, enumerated
    counts = run_scenario(noisy_bell("vector"), shots=2000)["measurement_counts"]
    assert chi_square_p(counts, distribution(noisy_bell("matrix"))) > 1e-4


_MATRICES = {"X": PAULIS["X"], "Y": PAULIS["Y"], "Z": PAULIS["Z"], "H": H,
             "S": np.diag([1, 1j]), "T": np.diag([1, np.exp(1j * np.pi / 4)]),
             "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]]}
_AXIS = [0.3, -0.5, 0.8]


@given(data=st.data(), n=st.integers(1, 3), spread=st.lists(st.booleans(), min_size=3),
       gates=st.lists(st.tuples(st.sampled_from(Gate.ONE_QUBIT + ("CNOT",)), st.integers(0, 2),
                                st.booleans(), st.floats(0.1, 4.0)), max_size=10))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_random_noise_off_programs(data, n, spread, gates):
    # the tree against a kron-built state vector, and the sampled counts against the tree
    program = [{"op": "init", "pos": [q, 0]} for q in range(n)]
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    gates = [("H", q, False, 1.0) for q in range(n) if spread[q]] + gates
    for kind, q, flip, angle in gates:
        if kind == "CNOT" and n == 1:
            continue
        targets = [q % n] if kind != "CNOT" else [q % (n - 1), q % (n - 1) + 1][::-1 if flip else 1]
        event = {"op": "gate", "kind": kind, "targets": [[t, 0] for t in targets]}
        angle = -angle if flip else angle  # a Rot angle, never one too short to book
        if kind == "Rot":
            event.update(axis=_AXIS, angle=angle)
        program.append(event)
        psi = embed(rot_matrix(_AXIS, angle) if kind == "Rot" else _MATRICES[kind],
                    tuple(targets), n) @ psi
    order = data.draw(st.permutations(range(n)))
    program += [{"op": "readout", "qubit": [q, 0], "readout": [q, 1]} for q in order]
    scenario = {"schema_version": 1, "seed": data.draw(st.integers(0, 2**32 - 1)), "array": {
        "width": n, "height": 2, "dots": [{"pos": [q, 1], "role": "readout"} for q in range(n)]},
        "program": program}
    want = Counter()
    for index, amplitude in enumerate(psi):
        bits = format(index, f"0{n}b")
        want["".join(bits[q] for q in order)] += abs(amplitude) ** 2
    probs = distribution(scenario)
    assert_distribution(probs, want, 1e-10)
    counts = run_scenario(scenario, shots=2000)["measurement_counts"]
    assert chi_square_p(counts, probs) > 1e-4

