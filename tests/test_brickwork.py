import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpdqc import brickwork
from mpdqc.brickwork import (
    BrickworkGraph,
    MeasurementPattern,
    build_brickwork,
    compute_flow,
    corrected_angle,
    parity,
    pattern_from_json,
    random_pattern,
    reference_execute,
)
from mpdqc.oracle import OracleLedger
from mpdqc.quantum import PureState, octant
from reference import mbqc_reference_execute, states_equal

RNG = np.random.default_rng(7)


def random_state(n_qubits: int, rng=RNG) -> PureState:
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return PureState(v / np.linalg.norm(v))


# ---------------------------------------------------------------- layout


def test_two_wire_five_column_structure():
    g = build_brickwork(2, 5)
    assert g.num_nodes == 10
    assert g.input_nodes == (1, 2)
    assert g.output_nodes == (9, 10)
    assert g.measured_nodes == tuple(range(1, 9))
    rails = {(w + 2 * (c - 1), w + 2 * c) for c in range(1, 5) for w in (1, 2)}
    rungs = {(3, 4), (7, 8)}
    assert {tuple(sorted(e)) for e in g.edges} == rails | rungs


def test_rung_offset_alternates_every_other_brick():
    g = build_brickwork(4, 9)
    per_column = {}
    for u, v in g.edges:
        if abs(u - v) == 1:
            c = (u - 1) // g.n_wires + 1
            assert c == (v - 1) // g.n_wires + 1 and c % 2 == 0
            per_column.setdefault(c, set()).add((g.wire_of(u), g.wire_of(v)))
    assert per_column == {
        2: {(1, 2), (3, 4)},
        4: {(1, 2), (3, 4)},
        6: {(2, 3)},
        8: {(2, 3)},
    }


def test_single_column_graph_has_no_edges():
    g = build_brickwork(2, 1)
    assert g.edges == frozenset()
    assert g.measured_nodes == ()
    assert g.output_nodes == g.input_nodes


def test_rejects_bad_dimensions():
    for n_wires, n_columns in ((3, 4), (0, 4), (2, 0), (1, 5)):
        with pytest.raises(ValueError):
            build_brickwork(n_wires, n_columns)


@given(st.integers(1, 4).map(lambda k: 2 * k), st.integers(1, 6))
def test_a_chain_survives_on_the_input_owner_or_on_the_last_client(n_wires, n_columns):
    g = build_brickwork(n_wires, n_columns)
    for node in range(1, g.num_nodes + 1):
        assert g.survivor(node) == (node if node in g.input_nodes else n_wires)


def test_neighbors_are_symmetric():
    g = build_brickwork(4, 5)
    for v in range(1, g.num_nodes + 1):
        for u in g.neighbors(v):
            assert v in g.neighbors(u)


# ------------------------------------------------------------------ flow


def test_flow_successors_and_sets():
    g = build_brickwork(2, 3)
    flow = compute_flow(g)
    assert flow.order == (1, 2, 3, 4)
    assert flow.f == {1: 3, 2: 4, 3: 5, 4: 6}
    assert flow.s_x[3] == frozenset({1})
    assert flow.s_x[1] == frozenset()
    # node 4 neighbors f(1)=3 through the column-2 rung, so b_1 feeds its Z set
    assert (3, 4) in {tuple(sorted(e)) for e in g.edges}
    assert 1 in flow.s_z[4]
    assert 2 not in flow.s_z[2]


def test_parity_is_the_xor_of_the_bits():
    assert parity([]) == 0
    assert parity([1, 0, 1]) == 0
    assert parity(iter([1, 1, 1, 0])) == 1


def test_flow_z_set_membership_matches_adjacency():
    g = build_brickwork(4, 4)
    flow = compute_flow(g)
    for j in range(1, g.num_nodes + 1):
        for i in flow.order:
            expected = i != j and j in g.neighbors(flow.f[i])
            assert (i in flow.s_z[j]) == expected


def test_corrected_angle_identities():
    for phi in range(8):
        assert corrected_angle(phi, 0, 0, 0, 0) == phi
        assert corrected_angle(phi, 0, 0, 1, 0) == octant(-phi)
        assert corrected_angle(phi, 1, 0, 0, 0) == octant(-phi)
        assert corrected_angle(phi, 1, 0, 1, 0) == phi
        assert corrected_angle(phi, 0, 0, 0, 1) == octant(phi + 4)
        assert corrected_angle(phi, 0, 1, 0, 0) == octant(phi + 4)


def test_corrected_angle_on_arrays_equals_the_scalar_calls():
    phi, a_j, a_pred, s_x, s_z = np.indices((8, 2, 2, 2, 2)).reshape(5, -1)
    batched = corrected_angle(phi, a_j, a_pred, s_x, s_z)
    scalar = [corrected_angle(*map(int, args)) for args in zip(phi, a_j, a_pred, s_x, s_z)]
    assert all(type(angle) is int for angle in scalar)
    assert batched.tolist() == scalar


@pytest.mark.parametrize("n_wires,n_columns", [(2, 3), (4, 2)])
def test_adapted_angle_with_array_callables_equals_the_per_path_calls(n_wires, n_columns):
    g = build_brickwork(n_wires, n_columns)
    flow = g.flow
    position = {j: idx for idx, j in enumerate(flow.order)}
    inputs = [position[j] for j in flow.order if j in g.input_nodes]
    # every outcome path times every flip assignment of the measured inputs
    grid = np.indices((2,) * (len(flow.order) + len(inputs))).reshape(len(flow.order) + len(inputs), -1).T
    s = grid[:, :len(flow.order)]
    flips = np.zeros_like(s)
    flips[:, inputs] = grid[:, len(flow.order):]
    for j in flow.order:
        for phi in range(8):
            batched = flow.adapted_angle(j, phi, lambda i: s[:, position[i]], lambda i: flips[:, position[i]])
            per_path = [
                flow.adapted_angle(j, phi, lambda i: int(s[p, position[i]]), lambda i: int(flips[p, position[i]]))
                for p in range(len(grid))
            ]
            assert np.broadcast_to(batched, len(grid)).tolist() == per_path, (j, phi)


def test_the_flow_is_computed_once_per_graph(monkeypatch):
    calls = []
    monkeypatch.setattr(brickwork, "compute_flow", lambda graph: calls.append(graph) or compute_flow(graph))
    g = build_brickwork(2, 3)
    rng = np.random.default_rng(3)
    p1, p2 = random_pattern(g, rng), random_pattern(g, rng)
    assert p1.graph.flow is p2.graph.flow
    assert OracleLedger(p1).flow is OracleLedger(p2).flow is g.flow
    for pattern in (p1, p2):
        mbqc_reference_execute(pattern, random_state(2, rng), rng)
    assert calls == [g]
    assert g.flow == compute_flow(g)


# -------------------------------------------------------------- patterns


def test_pattern_requires_exact_angle_coverage():
    g = build_brickwork(2, 2)
    with pytest.raises(ValueError):
        MeasurementPattern(g, {1: 0})
    with pytest.raises(ValueError):
        MeasurementPattern(g, {1: 0, 2: 0, 3: 0})


def test_pattern_normalizes_angles_into_octants():
    g = build_brickwork(2, 2)
    pattern = MeasurementPattern(g, {1: 9, 2: -1})
    assert pattern.angles == {1: 1, 2: 7}


def test_pattern_json_round_trip():
    g = build_brickwork(4, 3)
    pattern = random_pattern(g, np.random.default_rng(3))
    text = pattern.to_json()
    parsed = json.loads(text)
    assert parsed["n_wires"] == 4 and parsed["n_columns"] == 3
    restored = pattern_from_json(text)
    assert restored.angles == pattern.angles
    assert restored.graph == pattern.graph


def test_random_pattern_is_seeded():
    g = build_brickwork(2, 4)
    a = random_pattern(g, np.random.default_rng(9))
    b = random_pattern(g, np.random.default_rng(9))
    assert a.angles == b.angles


# ----------------------------------------------------- pattern execution


def test_line_graph_with_zero_angles_is_the_identity():
    # hand-built single wire, three nodes: two zero-angle measurements
    # compose two Hadamard teleportations, H H = 1.
    g = BrickworkGraph(n_wires=1, n_columns=3, edges=frozenset({(1, 2), (2, 3)}))
    pattern = MeasurementPattern(g, {1: 0, 2: 0})
    psi = random_state(1)
    for seed in range(6):
        out = reference_execute(pattern, psi, np.random.default_rng(seed))
        assert out.fidelity(psi) == pytest.approx(1.0)


def test_single_column_execution_returns_the_input():
    pattern = MeasurementPattern(build_brickwork(2, 1), {})
    psi = random_state(2)
    out = reference_execute(pattern, psi, np.random.default_rng(0))
    assert states_equal(out, psi)


def test_execution_is_deterministic_up_to_branching():
    # byproduct corrections make the pattern's output independent of the
    # outcomes, and equal to the circuit's all-zero branch
    g = build_brickwork(2, 3)
    pattern = random_pattern(g, np.random.default_rng(21))
    psi = random_state(2)
    circuit = reference_execute(pattern, psi, np.random.default_rng(0))
    for s in range(8):
        assert mbqc_reference_execute(pattern, psi, np.random.default_rng(s)).fidelity(circuit) == pytest.approx(1.0)


def test_reference_qubits_ride_along_untouched():
    # wire 1 entangled with a trailing reference qubit; the single-column
    # graph does nothing, so the joint state must come back unchanged
    pattern = MeasurementPattern(build_brickwork(2, 1), {})
    bell = PureState.computational("000").h(0).cnot(0, 2)
    out = reference_execute(pattern, bell, np.random.default_rng(4))
    assert states_equal(out, bell)


def test_reference_qubits_stay_correlated_through_a_real_pattern():
    # identity-like line pattern on each wire keeps the input-reference
    # correlations intact on a graph that actually measures
    g = build_brickwork(2, 3)
    pattern = MeasurementPattern(g, {j: 0 for j in g.measured_nodes})
    bell = PureState.computational("000").h(0).cnot(0, 2)
    out = reference_execute(pattern, bell, np.random.default_rng(4))
    # whatever unitary U the zero pattern implements acts on the wires only,
    # so tracing them out must leave the reference maximally mixed
    rho_ref = out.density().partial_trace([2])
    assert np.allclose(rho_ref.matrix, np.eye(2) / 2, atol=1e-9)


def test_execution_rejects_wrong_input_size():
    g = build_brickwork(2, 3)
    pattern = random_pattern(g, np.random.default_rng(2))
    with pytest.raises(ValueError):
        reference_execute(pattern, random_state(1), np.random.default_rng(0))
