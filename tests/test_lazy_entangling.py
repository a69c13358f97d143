"""Graph-state CZs applied on first touch, pinned against the eager layout, and register bounds.

eager_reference_execute is direct pattern execution with every node
prepared and every CZ applied up front on one statevector of
2^(wires x columns) amplitudes. It is kept here only, as the slow path the
width-bounded execution is checked against.
"""
import json

import numpy as np
import pytest

from mpdqc.brickwork import MeasurementPattern, build_brickwork, compute_flow, random_pattern, reference_execute
from mpdqc.cli import REGISTER_BUDGET, main
from mpdqc.harness import rewrite_peak_qubits, run_intermediate_protocol
from mpdqc.protocol import run_full_protocol
from mpdqc.quantum import PureState, plus_state

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


def scenario(n_wires: int, n_columns: int, n_ref: int, seed: int):
    rng = np.random.default_rng([n_wires, n_columns, seed])
    pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
    v = rng.normal(size=2 ** (n_wires + n_ref)) + 1j * rng.normal(size=2 ** (n_wires + n_ref))
    return pattern, PureState(v / np.linalg.norm(v)), rng


@pytest.mark.parametrize("n_wires,n_columns", [(2, 5), (4, 3)])
def test_reference_execute_matches_the_eager_layout(n_wires, n_columns):
    for seed in SEEDS:
        pattern, psi, _ = scenario(n_wires, n_columns, 1, seed)
        eager = eager_reference_execute(pattern, psi, np.random.default_rng(seed))
        lazy = reference_execute(pattern, psi, np.random.default_rng(seed + 10))
        assert lazy.num_qubits == n_wires + 1
        assert lazy.fidelity(eager) >= 1 - 1e-12


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
