"""Exact server views by Z-twin class, pinned against the eager enumeration.

eager_exact_server_views is the enumeration the views used before they ran
on brickwork.graph_state and before they were filed by class: one eager
PureState per (theta, r, a) combination, theta over all 8 octants, laid out
by hand with position bookkeeping, one label (delta, b) per round. It is
kept here only, as the slow path the class views are checked against.
reference.walked_exact_server_views is the class enumeration the batched
views replaced, one secret combination and one recursive walk at a time,
and reference.labeled_classes files a class array by the same labels.
reference.built_secret_state is one combination's graph state built gate
by gate, which the prepared rows read from one build, and
reference.labelwise_view_distance the per-label distance loop that the
one-call distance replaced. reference.graph_state_prepared_rows,
full_gram_class_matrices and project_first_with_temporary are the view
kernels before the layout held the CZ signs: a graph state built per view,
full Gram products masked afterwards, and the turned half in a temporary.
"""
from itertools import product

import numpy as np
import pytest

from mpdqc import harness, quantum
from mpdqc.brickwork import MeasurementPattern, build_brickwork, compute_flow, random_pattern
from mpdqc.harness import EXACT_VIEW_BUDGET, blindness_check, exact_server_views, exact_view_amplitudes, view_distance
from mpdqc.quantum import PureState, flip, octant, plus_state
from reference import (
    built_secret_state,
    full_gram_class_matrices,
    graph_state_prepared_rows,
    labeled_classes,
    labelwise_view_distance,
    project_first_with_temporary,
    walked_exact_server_views,
)


def eager_exact_server_views(
    pattern: MeasurementPattern, input_state: PureState, pad_angles=range(8)
) -> dict[str, dict[tuple, np.ndarray]]:
    """pad_angles other than range(8) make a broken pad, for negative controls."""
    graph, angles = pattern.graph, pattern.angles
    flow = compute_flow(graph)
    n = graph.n_wires
    measured = flow.order

    options = []
    for j in measured:
        a_range = (0, 1) if j in graph.input_nodes else (0,)
        options.append([(theta, r, a) for theta in pad_angles for r in (0, 1) for a in a_range])
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


def class_of(label: tuple) -> tuple:
    return tuple(delta % 4 for delta, _ in label)


def summed_into_classes(views: dict[str, dict[tuple, np.ndarray]]) -> dict[str, dict[tuple, np.ndarray]]:
    classes: dict[str, dict[tuple, np.ndarray]] = {}
    for checkpoint, buckets in views.items():
        acc = classes[checkpoint] = {}
        for label, matrix in buckets.items():
            key = class_of(label)
            acc[key] = acc[key] + matrix if key in acc else matrix
    return classes


def random_input(n_qubits: int, rng: np.random.Generator) -> PureState:
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return PureState(v / np.linalg.norm(v))


@pytest.mark.parametrize("n_ref", [0, 1, 2])
def test_views_match_the_eager_enumeration(n_ref):
    """Every eager label of a k-round checkpoint, times 4^k, is its class matrix."""
    graph = build_brickwork(2, 2)
    for seed in range(3):
        rng = np.random.default_rng([n_ref, seed])
        pattern = random_pattern(graph, rng)
        psi = random_input(2 + n_ref, rng)
        classes = {cp: labeled_classes(array) for cp, array in exact_server_views(pattern, psi).items()}
        eager = eager_exact_server_views(pattern, psi)
        assert list(classes) == list(eager)
        for checkpoint, buckets in eager.items():
            assert set(classes[checkpoint]) == {class_of(label) for label in buckets}, checkpoint
            k = len(next(iter(buckets)))
            assert len(buckets) == 4 ** k * len(classes[checkpoint])
            for label, matrix in buckets.items():
                class_matrix = classes[checkpoint][class_of(label)]
                assert class_matrix.shape == matrix.shape
                assert np.max(np.abs(4 ** k * matrix - class_matrix)) <= 1e-12, (checkpoint, label)


def test_a_broken_pad_leaks_through_the_classes():
    """Negative control: with theta fixed to 0 the class-summed views tell |00> from |11>."""
    pattern = MeasurementPattern(build_brickwork(2, 2), {1: 1, 2: 3})
    a, b = (
        summed_into_classes(eager_exact_server_views(pattern, PureState.computational(bits), pad_angles=(0,)))
        for bits in ("00", "11")
    )
    assert max(labelwise_view_distance(a[cp], b[cp]) for cp in a) > 0.1


@pytest.mark.parametrize("n_columns,n_ref", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_batched_views_match_the_walked_enumeration(n_columns, n_ref):
    """Same class labels at every checkpoint, and entries within 1e-12."""
    graph = build_brickwork(2, n_columns)
    rng = np.random.default_rng([n_columns, n_ref])
    pattern = random_pattern(graph, rng)
    psi = random_input(2 + n_ref, rng)
    batched = {cp: labeled_classes(array) for cp, array in exact_server_views(pattern, psi).items()}
    walked = walked_exact_server_views(pattern, psi)
    assert list(batched) == list(walked)
    for checkpoint, buckets in walked.items():
        assert set(batched[checkpoint]) == set(buckets), checkpoint
        for label, matrix in buckets.items():
            assert np.max(np.abs(batched[checkpoint][label] - matrix)) <= 1e-12, (checkpoint, label)


def test_a_zeroed_pad_leaks_through_the_batched_views(monkeypatch, fresh_view_layouts):
    """Negative control on the shipped path: with every theta laid out as 0 the views tell |00> from |11>."""
    layout = harness._pad_layout

    def unpadded(*args):
        theta, a = layout(*args)
        return np.zeros_like(theta), a

    monkeypatch.setattr(harness, "_pad_layout", unpadded)
    pattern = MeasurementPattern(build_brickwork(2, 2), {1: 1, 2: 3})
    a, b = (exact_server_views(pattern, PureState.computational(bits)) for bits in ("00", "11"))
    assert max(view_distance(a[cp], b[cp]) for cp in a) > 0.1


@pytest.mark.parametrize("n_wires,n_columns,n_ref", [(2, 2, 0), (2, 2, 2), (2, 3, 1), (4, 2, 0)])
@pytest.mark.parametrize("spec", ["random", "zeros", "ones"])
def test_every_branch_has_conditional_probability_one_half(monkeypatch, n_wires, n_columns, n_ref, spec):
    # with causal flow every measured node has an unmeasured successor, so
    # each outcome of each round is equally likely and the views never
    # need to drop an empty branch; a graph where one could be empty fails here
    project = harness._project_first
    ratios = []

    def measured(rows, delta):
        out = project(rows, delta)
        before = np.sum(np.abs(rows) ** 2, axis=1)
        ratios.append(np.sum(np.abs(out) ** 2, axis=1) / np.tile(before, 2))
        return out

    monkeypatch.setattr(harness, "_project_first", measured)
    monkeypatch.setattr(harness, "_class_matrices", lambda *args: {})  # only the branches are looked at
    graph = build_brickwork(n_wires, n_columns)
    rng = np.random.default_rng(n_wires * 10 + n_columns)
    n_qubits = n_wires + n_ref
    state = random_input(n_qubits, rng) if spec == "random" else PureState.computational(("0" if spec == "zeros" else "1") * n_qubits)
    exact_server_views(random_pattern(graph, rng), state)
    assert len(ratios) == len(graph.measured_nodes)
    assert max(np.max(np.abs(r - 0.5)) for r in ratios) <= 1e-12


@pytest.mark.parametrize("n_columns,n_ref,expected", [(2, 0, 1_024), (2, 1, 2_048), (3, 0, 65_536)])
def test_the_largest_row_array_is_the_amplitude_count(monkeypatch, n_columns, n_ref, expected):
    graph = build_brickwork(2, n_columns)
    assert exact_view_amplitudes(2, n_columns, n_ref) == expected
    sizes = []
    project = harness._project_first

    def measured(rows, delta):
        out = project(rows, delta)
        sizes.extend((rows.size, out.size))
        return out

    monkeypatch.setattr(harness, "_project_first", measured)
    rng = np.random.default_rng(n_columns)
    exact_server_views(random_pattern(graph, rng), random_input(2 + n_ref, rng))
    assert max(sizes) == expected


def test_the_amplitude_budget_admits_2x4_but_not_2x5_or_4x3():
    assert exact_view_amplitudes(4, 2, 0) == 2 ** 20 <= EXACT_VIEW_BUDGET
    assert exact_view_amplitudes(2, 4, 1) == 2 ** 23 <= EXACT_VIEW_BUDGET
    assert exact_view_amplitudes(2, 4, 2) > EXACT_VIEW_BUDGET
    assert exact_view_amplitudes(2, 5, 0) == 2 ** 28 > EXACT_VIEW_BUDGET
    assert exact_view_amplitudes(4, 3, 0) == 2 ** 32 > EXACT_VIEW_BUDGET


def test_server_views_at_2x3_are_scenario_independent():
    """A3 on a 2x3 graph: zero pattern on |00> vs random pattern on |11>."""
    graph = build_brickwork(2, 3)
    pattern_a = MeasurementPattern(graph, {j: 0 for j in graph.measured_nodes})
    pattern_b = random_pattern(graph, np.random.default_rng(2026))
    distances = blindness_check(pattern_a, PureState.computational("00"), pattern_b, PureState.computational("11"))
    assert max(distances.values()) <= 1e-9


def test_server_views_at_4x2_are_scenario_independent():
    """A3 on a 4x2 graph: zero pattern on |0000> vs random pattern on |1111>."""
    graph = build_brickwork(4, 2)
    pattern_a = MeasurementPattern(graph, {j: 0 for j in graph.measured_nodes})
    pattern_b = random_pattern(graph, np.random.default_rng(2026))
    distances = blindness_check(pattern_a, PureState.computational("0000"), pattern_b, PureState.computational("1111"))
    assert max(distances.values()) <= 1e-9


def test_views_reject_an_input_register_smaller_than_the_graph():
    pattern = random_pattern(build_brickwork(2, 2), np.random.default_rng(0))
    with pytest.raises(ValueError, match="input register"):
        exact_server_views(pattern, PureState.computational("0"))


def test_views_reject_a_pattern_that_measures_nothing():
    # one column holds only outputs: the server never sees a round
    pattern = random_pattern(build_brickwork(2, 1), np.random.default_rng(0))
    with pytest.raises(ValueError, match="nothing is measured"):
        exact_server_views(pattern, PureState.computational("00"))


@pytest.mark.parametrize("n_wires,n_columns,n_ref", [(2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 3, 0), (4, 2, 0)])
def test_derived_flip_states_equal_the_built_ones(n_wires, n_columns, n_ref):
    """Each prepared row, read from one graph-state build through the layout, is the state built
    for its (theta, a) up to one global sign, once the phase e^(i pi theta / 4) of X Z(theta) =
    e^(i pi theta / 4) Z(-theta) X is put back for each flipped input. Rows run over the flips
    slowest, in product((0, 1), repeat=I) order, then theta over 0..3 per measured node, the
    first node's slowest."""
    graph = build_brickwork(n_wires, n_columns)
    psi = random_input(n_wires + n_ref, np.random.default_rng([n_wires, n_columns, n_ref]))
    measured = graph.measured_nodes
    rows = harness._prepared_rows(graph, psi)
    assert len(rows) == 2 ** n_wires * 4 ** len(measured)
    rows = rows * np.sqrt(len(rows))  # each row carries the square root of its weight
    secrets = product(product((0, 1), repeat=n_wires), product(range(4), repeat=len(measured)))
    for row, (flips, thetas) in zip(rows, secrets, strict=True):
        a = dict(zip(graph.input_nodes, flips))
        built = built_secret_state(graph, psi, {j: (theta, a.get(j, 0)) for j, theta in zip(measured, thetas)}).amps
        row = row * np.exp(1j * np.pi / 4 * np.dot(flips, thetas[:n_wires]))
        assert min(np.max(np.abs(row - built)), np.max(np.abs(row + built))) <= 1e-12, (flips, thetas)


@pytest.mark.parametrize("n_wires,n_columns", [(2, 2), (2, 3), (4, 2)])
def test_stacked_view_distance_equals_the_labelwise_sum(n_wires, n_columns):
    graph = build_brickwork(n_wires, n_columns)
    rng = np.random.default_rng([n_wires, n_columns, 5])
    views = [exact_server_views(random_pattern(graph, rng), random_input(n_wires, rng)) for _ in range(2)]
    for checkpoint in views[0]:
        a, b = views[0][checkpoint], views[1][checkpoint]
        zeroed = b.copy()
        zeroed[0] = 0  # one class zeroed
        for x, y in ((a, b), (a, zeroed), (zeroed, a), (a, 0.5 * b)):
            assert abs(view_distance(x, y) - labelwise_view_distance(labeled_classes(x), labeled_classes(y))) <= 1e-12, checkpoint


def test_view_distance_refuses_arrays_of_different_shapes():
    """weighted_trace_norm would broadcast one class against four; view_distance raises instead."""
    views = exact_server_views(random_pattern(build_brickwork(2, 2), np.random.default_rng(7)), random_input(2, np.random.default_rng(8)))
    one, four = views["round:1"][:1], views["round:1"]
    assert harness.weighted_trace_norm(one, four) >= 0  # broadcasts without complaint
    for a, b in ((one, four), (four, one), (four, views["round:2"])):
        with pytest.raises(ValueError, match="shapes"):
            view_distance(a, b)


def test_equal_graphs_build_the_layout_once(fresh_view_layouts):
    first, second = build_brickwork(2, 2), build_brickwork(2, 2)
    assert first is not second and first == second
    rng = np.random.default_rng(9)
    for graph in (first, second):
        exact_server_views(random_pattern(graph, rng), random_input(2, rng))
    info = harness._view_layout.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert harness._view_layout(first) is harness._view_layout(second)


@pytest.mark.parametrize("n_wires,n_columns", [(2, 2), (2, 3), (4, 2)])
def test_the_layout_holds_only_integer_arrays(n_wires, n_columns):
    graph = build_brickwork(n_wires, n_columns)
    layout = harness._view_layout(graph)
    n_rows, n_measured = 2 ** n_wires * 4 ** len(graph.measured_nodes), len(graph.measured_nodes)
    assert layout.gather.shape == layout.octant.shape == (n_rows, 2 ** graph.num_nodes)
    assert [len(s) for s in layout.sign] == [len(o) for o in layout.offset] == [n_rows * 2 ** k for k in range(n_measured)]
    arrays = [layout.gather, layout.octant, *layout.sign, *layout.offset]
    assert len(arrays) == sum(len(field) if isinstance(field, tuple) else 1 for field in layout)
    for array in arrays:
        assert isinstance(array, np.ndarray) and np.issubdtype(array.dtype, np.integer)
        assert not array.flags.writeable
    assert set(np.unique(np.concatenate(layout.sign))) <= {-1, 1}


def test_classes_of_unequal_size_raise():
    rows = np.ones((3, 2), dtype=complex)
    with pytest.raises(ValueError, match="not all the same size"):
        harness._class_matrices(rows, np.array([0, 0, 1]), 2, 1, 0)
    with pytest.raises(ValueError, match="run past"):
        harness._class_matrices(rows[:2], np.array([0, 2]), 2, 1, 0)


def test_a_class_no_row_carries_is_a_zero_matrix():
    rows = np.array([[1, 0], [0, 1j], [1, 1], [1, -1j]]) / 2
    matrices = harness._class_matrices(rows, np.array([2, 0, 2, 0]), 4, 1, 0)
    assert matrices.shape == (4, 2, 2)
    assert not matrices[1].any() and not matrices[3].any()
    for k, pair in ((0, rows[1::2]), (2, rows[::2])):
        assert np.allclose(matrices[k], sum(np.outer(row, row.conj()) for row in pair)), k


SHAPES_WITH_REFERENCES = [(2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 3, 0), (2, 3, 1), (4, 2, 0)]


@pytest.mark.parametrize("n_wires,n_columns,n_ref", SHAPES_WITH_REFERENCES)
def test_prepared_rows_equal_a_graph_state_built_per_view(n_wires, n_columns, n_ref):
    """The CZ signs folded into the layout's octants give the rows the per-view graph_state build gave, to 1e-12."""
    graph = build_brickwork(n_wires, n_columns)
    rng = np.random.default_rng([n_wires, n_columns, n_ref, 1])
    psi = random_input(n_wires + n_ref, rng)
    rows = harness._prepared_rows(graph, psi)
    built = graph_state_prepared_rows(graph, psi)
    assert rows.shape == built.shape
    assert np.max(np.abs(rows - built)) <= 1e-12


@pytest.mark.parametrize("n_wires,n_columns,n_ref", SHAPES_WITH_REFERENCES)
def test_class_matrices_equal_the_masked_full_gram(monkeypatch, n_wires, n_columns, n_ref):
    """At every checkpoint of a view, the diagonal blocks alone give the full Gram product after its mask, to 1e-12."""
    calls = []
    class_matrices = harness._class_matrices

    def recorded(*args):
        calls.append((args, class_matrices(*args)))
        return calls[-1][1]

    monkeypatch.setattr(harness, "_class_matrices", recorded)
    graph = build_brickwork(n_wires, n_columns)
    rng = np.random.default_rng([n_wires, n_columns, n_ref, 2])
    exact_server_views(random_pattern(graph, rng), random_input(n_wires + n_ref, rng))
    assert len(calls) == len(graph.measured_nodes) + 2
    for args, matrices in calls:
        expected = full_gram_class_matrices(*args)
        assert matrices.shape == expected.shape
        assert np.max(np.abs(matrices - expected)) <= 1e-12, args[2:]


@pytest.mark.parametrize("width", [16, 2 * harness._GRAM_CHUNK])
def test_class_matrices_cover_every_dephasing_depth(width):
    """Every n_dephased from 0 to n_live, with absent classes, on rows narrower and wider than _GRAM_CHUNK."""
    rng = np.random.default_rng(width)
    n_live, code = 3, np.array([4, 1, 1, 4, 0, 4, 0, 1, 0])  # classes 2, 3 and 5 absent
    rows = rng.normal(size=(len(code), width)) + 1j * rng.normal(size=(len(code), width))
    rows /= np.linalg.norm(rows)
    for n_dephased in range(n_live + 1):
        matrices = harness._class_matrices(rows, code, 6, n_live, n_dephased)
        expected = full_gram_class_matrices(rows, code, 6, n_live, n_dephased)
        assert matrices.shape == (6, 8, 8)
        assert not matrices[[2, 3, 5]].any()
        assert np.max(np.abs(matrices - expected)) <= 1e-12, n_dephased
        block = np.arange(8) >> (n_live - n_dephased)
        assert not matrices[:, block[:, None] != block[None, :]].any()


def test_one_graph_state_per_graph_and_no_system_per_view(monkeypatch, fresh_view_layouts):
    builds, systems = [], []
    build, init = harness.graph_state, quantum.QuantumSystem.__init__

    def counted_build(system, graph, node_label):
        builds.append(graph)
        build(system, graph, node_label)

    def counted_init(self):
        systems.append(self)
        init(self)

    monkeypatch.setattr(harness, "graph_state", counted_build)
    monkeypatch.setattr(quantum.QuantumSystem, "__init__", counted_init)
    rng = np.random.default_rng(11)
    graphs = (build_brickwork(2, 2), build_brickwork(2, 3))
    for _ in range(3):
        for graph in graphs:
            exact_server_views(random_pattern(graph, rng), random_input(3, rng))
    assert builds == list(graphs)
    assert len(systems) == len(graphs)


def test_projection_is_bit_identical_to_the_one_with_a_temporary():
    rng = np.random.default_rng(12)
    for n_rows, width in ((1, 2), (64, 16), (256, 4), (8, 2 ** 12)):
        rows = rng.normal(size=(n_rows, width)) + 1j * rng.normal(size=(n_rows, width))
        delta = rng.integers(8, size=n_rows)
        assert np.array_equal(harness._project_first(rows, delta), project_first_with_temporary(rows, delta))


@pytest.mark.parametrize("n_wires,n_columns", [(2, 2), (2, 3), (4, 2)])
def test_view_distance_equals_the_singular_value_sum(n_wires, n_columns):
    graph = build_brickwork(n_wires, n_columns)
    rng = np.random.default_rng([n_wires, n_columns, 13])
    views = [exact_server_views(random_pattern(graph, rng), random_input(n_wires, rng)) for _ in range(2)]
    for checkpoint in views[0]:
        a, b = views[0][checkpoint], views[1][checkpoint]
        zeroed = b.copy()
        zeroed[0] = 0  # one class zeroed, so the distance is not zero
        for x, y in ((a, b), (a, zeroed)):
            svd = 0.5 * np.sum(np.linalg.svd(x - y, compute_uv=False))
            assert abs(view_distance(x, y) - svd) <= 1e-12, checkpoint
