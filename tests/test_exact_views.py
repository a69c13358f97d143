"""Exact server views on the shared graph-state layout, pinned against the eager enumeration.

eager_exact_server_views is the enumeration the views used before they ran
on brickwork.graph_state: one eager PureState per (theta, r, a)
combination, laid out by hand with position bookkeeping. It is kept here
only, as the slow path the shared layout is checked against.
"""
from itertools import product

import numpy as np
import pytest

from mpdqc.brickwork import MeasurementPattern, build_brickwork, compute_flow, random_pattern
from mpdqc.harness import exact_server_views
from mpdqc.quantum import PureState, flip, octant, plus_state


def eager_exact_server_views(pattern: MeasurementPattern, input_state: PureState) -> dict[str, dict[tuple, np.ndarray]]:
    graph, angles = pattern.graph, pattern.angles
    flow = compute_flow(graph)
    n = graph.n_wires
    measured = flow.order

    options = []
    for j in measured:
        a_range = (0, 1) if j in graph.input_nodes else (0,)
        options.append([(theta, r, a) for theta in range(8) for r in (0, 1) for a in a_range])
    total = 1.0
    for opt in options:
        total *= len(opt)

    views: dict[str, dict[tuple, np.ndarray]] = {"prepared": {}}
    for i in range(1, len(measured) + 1):
        views[f"round:{i}"] = {}
    views["delivered"] = {}

    def accumulate(checkpoint: str, label: tuple, matrix: np.ndarray) -> None:
        bucket = views[checkpoint]
        bucket[label] = bucket[label] + matrix if label in bucket else matrix

    def reduced(state: PureState, keep_positions: list[int]) -> np.ndarray:
        return state.density().partial_trace(keep_positions).matrix

    for combo in product(*options):
        secret = dict(zip(measured, combo))
        weight = 1.0 / total

        state = input_state
        pos = {j: j - 1 for j in graph.input_nodes}
        for j in range(n + 1, graph.num_nodes + 1):
            theta_j = secret[j][0] if j in secret else 0
            state = state.tensor(plus_state(theta_j))
            pos[j] = state.num_qubits - 1
        for j in graph.input_nodes:
            theta_j, _, a_j = secret[j]
            state = state.z_rot(pos[j], theta_j)
            if a_j:
                state = state.x(pos[j])
        for u, v in sorted(graph.edges):
            state = state.cz(pos[u], pos[v])

        accumulate("prepared", (), weight * reduced(state, [pos[j] for j in range(1, graph.num_nodes + 1)]))

        def a_of(j: int) -> int:
            return secret[j][2]

        def walk(state: PureState, pos: dict[int, int], idx: int, label: tuple, w: float, s_bits: dict[int, int]) -> None:
            if idx == len(measured):
                accumulate("delivered", label, np.array([[w]], dtype=complex))
                return
            j = measured[idx]
            theta_j, r_j, a_j = secret[j]
            phi_c = flow.adapted_angle(j, angles[j], s_bits.__getitem__, a_of)
            delta_j = octant(phi_c + 4 * r_j + flip(theta_j, a_j))
            q = pos[j]
            for b in (0, 1):
                p_branch, post = state.project_rotated(q, delta_j, b)
                if p_branch < 1e-14:
                    continue
                new_pos = {v: (i if i < q else i - 1) for v, i in pos.items() if v != j}
                new_label = label + ((delta_j, b),)
                accumulate(f"round:{idx + 1}", new_label, w * p_branch * reduced(post, [new_pos[v] for v in sorted(new_pos)]))
                walk(post, new_pos, idx + 1, new_label, w * p_branch, {**s_bits, j: b ^ r_j})

        walk(state, pos, 0, (), weight, {})

    return views


@pytest.mark.parametrize("n_ref", [0, 1, 2])
def test_views_match_the_eager_enumeration(n_ref):
    graph = build_brickwork(2, 2)
    for seed in range(3):
        rng = np.random.default_rng([n_ref, seed])
        pattern = random_pattern(graph, rng)
        v = rng.normal(size=2 ** (2 + n_ref)) + 1j * rng.normal(size=2 ** (2 + n_ref))
        psi = PureState(v / np.linalg.norm(v))
        shared = exact_server_views(pattern, psi)
        eager = eager_exact_server_views(pattern, psi)
        assert list(shared) == list(eager)
        for checkpoint, buckets in eager.items():
            assert set(shared[checkpoint]) == set(buckets), checkpoint
            for label, matrix in buckets.items():
                assert shared[checkpoint][label].shape == matrix.shape
                assert np.max(np.abs(shared[checkpoint][label] - matrix)) <= 1e-12, (checkpoint, label)


def test_views_reject_an_input_register_smaller_than_the_graph():
    pattern = random_pattern(build_brickwork(2, 2), np.random.default_rng(0))
    with pytest.raises(ValueError, match="input register"):
        exact_server_views(pattern, PureState.computational("0"))
