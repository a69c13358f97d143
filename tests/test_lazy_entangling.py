"""Graph-state CZs applied on first touch, direct execution as a circuit, both pinned against the eager layout, and register bounds.

eager_reference_execute is direct pattern execution with every node
prepared and every CZ applied up front on one statevector of
2^(wires x columns) amplitudes. It is kept here only, as the slow path the
width-bounded execution is checked against. reference_execute runs the
pattern's circuit on the wire register; it is pinned against this eager
layout and against reference.mbqc_reference_execute, the same pattern run
as MBQC on a QuantumSystem.
"""
import json

import numpy as np
import pytest

from mpdqc import brickwork
from mpdqc.brickwork import BrickworkGraph, MeasurementPattern, build_brickwork, compute_flow, random_pattern, reference_execute
from mpdqc.cli import REGISTER_BUDGET, main
from mpdqc.harness import rewrite_peak_qubits, run_intermediate_protocol
from mpdqc.protocol import run_full_protocol
from mpdqc.quantum import PureState, QuantumSystem, plus_state
from reference import mbqc_reference_execute

SEEDS = range(3)


def eager_reference_execute(pattern: MeasurementPattern, input_state: PureState, rng: np.random.Generator) -> PureState:
    graph, angles = pattern.graph, pattern.angles
    flow = compute_flow(graph)
    n = graph.n_wires
    n_ref = input_state.num_qubits - n

    # Register layout: input qubits, reference qubits, then every prepared
    # node appended in label order. `pos` tracks each node's current index.
    state = input_state
    pos: dict[int, int] = {j: j - 1 for j in graph.input_nodes}
    ref_pos = list(range(n, n + n_ref))
    for j in range(n + 1, graph.num_nodes + 1):
        state = state.tensor(plus_state(0))
        pos[j] = state.num_qubits - 1
    for u, v in sorted(graph.edges):
        state = state.cz(pos[u], pos[v])

    outcomes: dict[int, int] = {}
    for j in flow.order:
        delta = flow.adapted_angle(j, angles[j], outcomes.__getitem__, lambda _: 0)
        idx = pos[j]
        outcomes[j], state = state.measure_rotated(idx, delta, rng.random())
        pos = {v: (i if i < idx else i - 1) for v, i in pos.items() if v != j}
        ref_pos = [i if i < idx else i - 1 for i in ref_pos]

    for j in graph.output_nodes:
        s_x, s_z = flow.parities(j, outcomes.__getitem__)
        if s_x:
            state = state.x(pos[j])
        if s_z:
            state = state.z(pos[j])

    return state.reorder([pos[j] for j in graph.output_nodes] + ref_pos)


def random_state(n_qubits: int, rng: np.random.Generator) -> PureState:
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return PureState(v / np.linalg.norm(v))


def scenario(n_wires: int, n_columns: int, n_ref: int, seed: int):
    rng = np.random.default_rng([n_wires, n_columns, seed])
    pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
    return pattern, random_state(n_wires + n_ref, rng), rng


# the eager layout holds every node at once: above this many qubits it is
# not built (4x5, 6x4 and 8x3 hold 20, 24 and 24 nodes)
EAGER_QUBITS = 16


@pytest.mark.parametrize("n_wires,n_columns", [(2, 1), (2, 2), (2, 5), (4, 3), (4, 5), (6, 4), (8, 3)])
def test_reference_execute_matches_the_eager_layout(n_wires, n_columns):
    # and the same pattern run as MBQC on a QuantumSystem, at every size
    for n_ref in (0, 1, 2):
        for seed in SEEDS:
            pattern, psi, _ = scenario(n_wires, n_columns, n_ref, seed)
            circuit = reference_execute(pattern, psi, np.random.default_rng(seed + 10))
            assert circuit.num_qubits == n_wires + n_ref
            assert circuit.fidelity(mbqc_reference_execute(pattern, psi, np.random.default_rng(seed))) >= 1 - 1e-12
            if pattern.graph.num_nodes + n_ref <= EAGER_QUBITS:
                assert circuit.fidelity(eager_reference_execute(pattern, psi, np.random.default_rng(seed))) >= 1 - 1e-12


def test_the_circuit_runs_czs_in_the_first_and_last_columns():
    # the brickwork puts CZs in even columns only; any column may hold them
    assert [s if s is None else s.tolist() for s in build_brickwork(2, 3).column_signs] == [None, [1, 1, 1, -1], None]
    wide = build_brickwork(4, 9)
    assert wide.column_signs is wide.column_signs  # built once per graph
    assert wide.column_signs[1] is wide.column_signs[3] and wide.column_signs[5] is wide.column_signs[7]  # equal CZs, one array
    assert not np.array_equal(wide.column_signs[1], wide.column_signs[5])
    flow_edges = {(1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8)}
    graph = BrickworkGraph(n_wires=2, n_columns=4, edges=frozenset(flow_edges | {(1, 2), (8, 7)}))
    rng = np.random.default_rng(6)
    for _ in range(4):
        pattern = random_pattern(graph, rng)
        psi = random_state(3, rng)
        assert reference_execute(pattern, psi, rng).fidelity(mbqc_reference_execute(pattern, psi, rng)) >= 1 - 1e-12


def _generator(kind: str) -> np.random.Generator:
    if kind == "philox":
        return np.random.Generator(np.random.Philox(11))
    rng = np.random.Generator(np.random.PCG64(11))
    if kind == "pcg64-half-word":
        rng.integers(8)
        assert rng.bit_generator.state["has_uint32"] == 1  # half of a 64-bit word is buffered
    return rng


def _state(rng: np.random.Generator) -> str:
    """The bit generator's whole state, its arrays (Philox's counter and key) as lists."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@pytest.mark.parametrize("kind", ["pcg64-fresh", "pcg64-half-word", "philox"])
@pytest.mark.parametrize("n_wires,n_columns", [(2, 1), (2, 4), (4, 3)])
def test_the_circuit_leaves_the_generator_where_the_pattern_run_leaves_it(kind, n_wires, n_columns):
    pattern, psi, _ = scenario(n_wires, n_columns, 1, 0)
    circuit_rng, mbqc_rng = _generator(kind), _generator(kind)
    reference_execute(pattern, psi, circuit_rng)
    mbqc_reference_execute(pattern, psi, mbqc_rng)
    assert _state(circuit_rng) == _state(mbqc_rng)
    assert circuit_rng.integers(8, size=4).tolist() == mbqc_rng.integers(8, size=4).tolist()


@pytest.mark.parametrize("edges", [
    {(1, 3), (2, 4), (3, 5), (4, 6), (1, 4)},  # joins two columns, not a flow edge
    {(1, 3), (2, 4), (3, 5), (4, 6), (5, 2)},  # the same, written backwards
    {(1, 3), (2, 4), (3, 5), (4, 6), (1, 6)},  # skips a column
    {(1, 3), (2, 4), (3, 5)},  # misses the flow edge (4, 6)
])
def test_the_circuit_refuses_an_edge_it_cannot_run(edges):
    graph = BrickworkGraph(n_wires=2, n_columns=3, edges=frozenset(edges))
    pattern = MeasurementPattern(graph, {j: 1 for j in graph.measured_nodes})
    with pytest.raises(ValueError, match="flow edges"):
        reference_execute(pattern, PureState.computational("00"), np.random.default_rng(0))


def test_the_circuit_builds_no_quantum_system(monkeypatch):
    def refuse(self):
        raise AssertionError("a QuantumSystem was built")

    monkeypatch.setattr(QuantumSystem, "__init__", refuse)
    pattern, psi, _ = scenario(4, 5, 1, 0)
    assert reference_execute(pattern, psi, np.random.default_rng(0)).num_qubits == 5
    with pytest.raises(AssertionError, match="QuantumSystem was built"):
        mbqc_reference_execute(pattern, psi, np.random.default_rng(0))


def test_a_consistent_angle_mistake_fails_against_the_circuit(monkeypatch):
    # the oracle's ledger, which announces the angles of the protocol and
    # of its teleport rewrite, and the MBQC pin share corrected_angle, so a
    # mistake in it reaches all three and they still agree; the circuit
    # reads no corrected angle, so A1's comparison catches it in both worlds
    honest = brickwork.corrected_angle
    monkeypatch.setattr(brickwork, "corrected_angle", lambda phi, *bits: honest(phi + 1, *bits))
    worlds = {
        "base": lambda pattern, psi, rng: run_full_protocol(pattern, psi, rng, m_copies=2),
        "teleport": lambda pattern, psi, rng: run_intermediate_protocol(pattern, psi, rng, "teleport"),
    }
    for world, run_world in worlds.items():
        worst_circuit = worst_pin = 0.0
        for seed in range(10):
            pattern, psi, rng = scenario(2, 3, 0, seed)
            run = run_world(pattern, psi, rng)
            assert not run.aborted
            worst_circuit = max(worst_circuit, 1 - run.output_state.fidelity(reference_execute(pattern, psi, np.random.default_rng(1))))
            worst_pin = max(worst_pin, 1 - run.output_state.fidelity(mbqc_reference_execute(pattern, psi, np.random.default_rng(1))))
        assert worst_circuit > 1e-6, world
        assert worst_pin <= 1e-12, world


@pytest.mark.parametrize("n_wires,n_columns", [(2, 5), (4, 3)])
def test_protocol_matches_the_eager_layout(n_wires, n_columns):
    for seed in SEEDS:
        pattern, psi, rng = scenario(n_wires, n_columns, 1, seed)
        run = run_full_protocol(pattern, psi, rng, m_copies=2)
        assert not run.aborted
        eager = eager_reference_execute(pattern, psi, np.random.default_rng(seed))
        assert run.output_state.fidelity(eager) >= 1 - 1e-12
        assert run.system.peak_qubits <= n_wires + 1 + 1


@pytest.mark.parametrize("n_ref", [0, 1])
@pytest.mark.parametrize("n_wires,n_columns", [(2, 40), (4, 5), (4, 9), (6, 4)])
def test_honest_runs_peak_at_one_qubit_past_the_inputs(n_wires, n_columns, n_ref):
    # the inputs and references, plus one node while it is entangled in:
    # 3, 5, 5 and 7 live qubits without a reference
    for seed in SEEDS:
        pattern, psi, rng = scenario(n_wires, n_columns, n_ref, seed)
        run = run_full_protocol(pattern, psi, rng, m_copies=2)
        assert not run.aborted
        assert run.system.peak_qubits == n_wires + 1 + n_ref


@pytest.mark.parametrize("n_ref", [0, 1])
@pytest.mark.parametrize("n_columns", [5, 9])
def test_honest_runs_stay_width_bounded(tmp_path, n_columns, n_ref):
    # 4x9 holds 36 nodes: an eager graph state would need 2^36 amplitudes
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "mode": "honest-run", "seed": 2, "n_wires": 4, "n_columns": n_columns,
        "m_copies": 2, "reference_qubits": n_ref,
    }))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["value"] >= 1 - 1e-9
    assert report["details"]["peak_qubits"] <= 4 + 1 + n_ref


@pytest.mark.parametrize("n_ref", [0, 1])
@pytest.mark.parametrize("n_wires,n_columns", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (4, 2)])
def test_rewrites_stay_within_their_register_bound(n_wires, n_columns, n_ref):
    pattern, psi, _ = scenario(n_wires, n_columns, n_ref, 0)
    for version in ("teleport", "delayed", "simulator-resource"):
        bound = rewrite_peak_qubits(version, n_wires, n_columns, n_ref)
        if bound > REGISTER_BUDGET:
            continue  # validate() turns the config away before anything runs
        run = run_intermediate_protocol(pattern, psi, np.random.default_rng(n_ref), version)
        assert 0 < run.system.peak_qubits <= bound, version


@pytest.mark.parametrize("n_columns", [1, 2, 3])
def test_the_rewrites_refuse_an_unknown_version(n_columns):
    # one column measures nothing, yet the version is still checked first
    pattern, psi, rng = scenario(2, n_columns, 0, 0)
    with pytest.raises(ValueError, match="unknown version 'eager'"):
        rewrite_peak_qubits("eager", 2, n_columns, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown version 'eager'"):
        run_intermediate_protocol(pattern, psi, rng, "eager")
    assert rng.bit_generator.state == state
