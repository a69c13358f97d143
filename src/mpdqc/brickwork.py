"""Brickwork graphs, their flow, measurement patterns, their graph state, and their direct execution.

Node labeling is column-major and 1-based: column c (1-based) holds nodes
(c-1)*n_wires + 1 .. c*n_wires, top to bottom. Column 1 nodes are the
inputs, the last column's nodes are the outputs, and client k owns input
node k and output node q + k where q = n_wires * (n_columns - 1).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .quantum import _PHASE_CONJ, PureState, QuantumSystem, octant, plus_state

_TELEPORT = np.array([[[1, c], [1, -c]] for c in _PHASE_CONJ]) / np.sqrt(2)  # [phi]: H Z(-phi)


@dataclass(frozen=True)
class BrickworkGraph:
    n_wires: int
    n_columns: int
    edges: frozenset[tuple[int, int]]

    @property
    def num_nodes(self) -> int:
        return self.n_wires * self.n_columns

    @cached_property
    def input_nodes(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_wires + 1))

    @cached_property
    def output_nodes(self) -> tuple[int, ...]:
        q = self.n_wires * (self.n_columns - 1)
        return tuple(range(q + 1, q + self.n_wires + 1))

    @cached_property
    def measured_nodes(self) -> tuple[int, ...]:
        """All non-output nodes, in label (= column-major measurement) order."""
        return tuple(range(1, self.n_wires * (self.n_columns - 1) + 1))

    def wire_of(self, node: int) -> int:
        return (node - 1) % self.n_wires + 1

    def survivor(self, node: int) -> int:
        """The register left by node's preparation chain: an input's owner, otherwise client n_wires."""
        return node if node in self.input_nodes else self.n_wires

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.num_nodes + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(nb) for v, nb in adj.items()}

    def neighbors(self, node: int) -> frozenset[int]:
        return self._adjacency[node]

    @cached_property
    def flow(self) -> "Flow":
        """The graph's causal flow (compute_flow), computed once per graph."""
        return compute_flow(self)

    @cached_property
    def column_signs(self) -> tuple[np.ndarray | None, ...]:
        """Per column, the +-1 its CZs put on each wire basis state (wire w is index bit n_wires - w); None without CZs.

        Raises ValueError unless the edges are the flow edges (j, j + n_wires) plus edges inside one column.
        """
        n, edges = self.n_wires, [sorted(e) for e in self.edges]
        rungs = [(u, v) for u, v in edges if v - u != n]
        if len(edges) - len(rungs) != n * (self.n_columns - 1) or any((u - 1) // n != (v - 1) // n for u, v in rungs):
            raise ValueError("the edges must be the flow edges (j, j + n_wires) plus edges inside one column")
        bits = (np.arange(1 << n)[:, None] >> (n - np.arange(1, n + 1))) & 1
        pairs = [frozenset((self.wire_of(u), self.wire_of(v)) for u, v in rungs if (u - 1) // n == c) for c in range(self.n_columns)]
        table = {p: 1.0 - 2 * (sum(bits[:, a - 1] & bits[:, b - 1] for a, b in p) & 1) for p in set(pairs) if p}
        return tuple(table.get(p) for p in pairs)


def build_brickwork(n_wires: int, n_columns: int) -> BrickworkGraph:
    """Brickwork layout: horizontal rails plus brick rungs.

    Every node is joined to its horizontal successor. Vertical rungs sit in
    even columns; which wire pairs they join alternates every other brick,
    so column c rungs join wires (1,2), (3,4), ... when floor((c-2)/4) is
    even and (2,3), (4,5), ... when it is odd. n_wires must be even (the
    rung pattern needs it) and at least 2; n_columns >= 1, where a single
    column is the degenerate identity graph.
    """
    if n_wires < 2 or n_wires % 2:
        raise ValueError("n_wires must be even and >= 2")
    if n_columns < 1:
        raise ValueError("n_columns must be >= 1")
    edges: set[tuple[int, int]] = set()

    def node(wire: int, column: int) -> int:
        return (column - 1) * n_wires + wire

    for c in range(1, n_columns):
        for w in range(1, n_wires + 1):
            edges.add((node(w, c), node(w, c + 1)))
    for c in range(2, n_columns + 1, 2):
        first = 1 if ((c - 2) // 4) % 2 == 0 else 2
        for w in range(first, n_wires, 2):
            edges.add((node(w, c), node(w + 1, c)))
    return BrickworkGraph(n_wires, n_columns, frozenset(edges))


def parity(bits: Iterable[int]) -> int:
    """The XOR of a collection of bits."""
    p = 0
    for bit in bits:
        p ^= bit
    return p


@dataclass(frozen=True)
class Flow:
    """Causal flow data: successor map and correction sets.

    f maps each measured node to its horizontal successor. s_x[j] and
    s_z[j] are the sets of measured nodes whose outcomes feed the X and Z
    corrections of node j: s_x[j] = {f^-1(j)} and s_z[j] = {i != j with j
    adjacent to f(i)}.
    """

    f: dict[int, int]
    f_inv: dict[int, int]
    order: tuple[int, ...]
    s_x: dict[int, frozenset[int]]
    s_z: dict[int, frozenset[int]]

    def parities(self, node: int, s_bit: Callable[[int], int]) -> tuple[int, int]:
        """(s_x, s_z): the XOR of s_bit(i) over the node's X and Z correction sets.

        s_bit(i) is the corrected outcome of measured node i; it is called
        only for the nodes in the two sets.
        """
        return parity(map(s_bit, self.s_x[node])), parity(map(s_bit, self.s_z[node]))

    def _pred_flip(self, node: int, flip_of: Callable[[int], int]) -> int:
        """flip_of of the node's flow predecessor; 0 when it has none."""
        pred = self.f_inv.get(node)
        return 0 if pred is None else flip_of(pred)

    def adapted_angle(self, node: int, phi: int, s_bit: Callable[[int], int], flip_of: Callable[[int], int]) -> int:
        """corrected_angle of a measured node, given its outcome and pad-flip bits.

        s_bit and flip_of may return integer arrays instead of bits; the
        angle is then computed elementwise over their broadcast shape.
        """
        return corrected_angle(phi, flip_of(node), self._pred_flip(node, flip_of), *self.parities(node, s_bit))

    def output_key(self, node: int, s_bit: Callable[[int], int], flip_of: Callable[[int], int]) -> tuple[int, int]:
        """(s_x, s_z) one-time-pad keys of an output node.

        The Z key folds in the pad flip of the output's flow predecessor:
        that X sits next to the predecessor's measurement and propagates to
        the output as a Z byproduct.
        """
        s_x, s_z = self.parities(node, s_bit)
        return s_x, s_z ^ self._pred_flip(node, flip_of)


def compute_flow(graph: BrickworkGraph) -> Flow:
    measured = graph.measured_nodes
    f = {j: j + graph.n_wires for j in measured}
    f_inv = {v: k for k, v in f.items()}
    s_x: dict[int, frozenset[int]] = {}
    s_z: dict[int, frozenset[int]] = {}
    for j in range(1, graph.num_nodes + 1):
        s_x[j] = frozenset({f_inv[j]} if j in f_inv else set())
        s_z[j] = frozenset(i for i in measured if i != j and j in graph.neighbors(f[i]))
    return Flow(f=f, f_inv=f_inv, order=measured, s_x=s_x, s_z=s_z)


def corrected_angle(phi: int, a_j: int, a_pred: int, s_x: int, s_z: int) -> int:
    """Adapt a pattern angle for earlier outcomes and the input flip bits.

    phi' = (-1)^(a_j xor s_x) * phi + 4 * s_z + 4 * a_pred (mod 8), where
    s_x and s_z are the parities of the node's X and Z correction sets,
    a_j is the node's own input flip and a_pred the flip of its flow
    predecessor (both zero for nodes that are not inputs / have none).
    Plain arithmetic, like oracle.blind_angle: it takes ints (and returns
    an int) or integer arrays elementwise.
    """
    return (phi * (1 - 2 * ((a_j ^ s_x) & 1)) + 4 * (s_z & 1) + 4 * (a_pred & 1)) % 8


@dataclass(frozen=True)
class MeasurementPattern:
    """A brickwork graph plus one octant angle per measured node."""

    graph: BrickworkGraph
    angles: dict[int, int]

    def __post_init__(self):
        expected = set(self.graph.measured_nodes)
        got = set(self.angles)
        if got != expected:
            raise ValueError(f"angles must cover exactly the measured nodes; missing {expected - got}, extra {got - expected}")
        object.__setattr__(self, "angles", {j: octant(l) for j, l in self.angles.items()})

    def to_json(self) -> str:
        payload = {
            "n_wires": self.graph.n_wires,
            "n_columns": self.graph.n_columns,
            "angles": [{"node": j, "octant": self.angles[j]} for j in sorted(self.angles)],
        }
        return json.dumps(payload, indent=2)


def pattern_from_json(text: str) -> MeasurementPattern:
    payload = json.loads(text)
    graph = build_brickwork(int(payload["n_wires"]), int(payload["n_columns"]))
    angles = {int(e["node"]): octant(int(e["octant"])) for e in payload["angles"]}
    return MeasurementPattern(graph, angles)


def random_pattern(graph: BrickworkGraph, rng: np.random.Generator) -> MeasurementPattern:
    return MeasurementPattern(graph, {j: int(rng.integers(8)) for j in graph.measured_nodes})


def input_system(input_state: PureState, owners: list[str]) -> tuple[QuantumSystem, list[str]]:
    """A QuantumSystem holding the input register; returns it and the reference labels.

    Input qubit k is labelled in:k and held by owners[k-1]; the trailing
    reference qubits are ref:1, ref:2, ... and stay with the environment.
    """
    n, n_ref = len(owners), input_state.num_qubits - len(owners)
    if n_ref < 0:
        raise ValueError(f"input register has {input_state.num_qubits} qubits but the graph has {n} wires")
    ref_labels = [f"ref:{i}" for i in range(1, n_ref + 1)]
    system = QuantumSystem()
    system.add_register(input_state, [f"in:{k}" for k in range(1, n + 1)] + ref_labels, owners + ["environment"] * n_ref)
    return system, ref_labels


def qubit_label(graph: BrickworkGraph, node: int) -> str:
    """The label of a node's qubit in a graph state: in:j for an input node, node:j for any other."""
    return f"in:{node}" if node in graph.input_nodes else f"node:{node}"


def graph_state(system: QuantumSystem, graph: BrickworkGraph, node_label: dict[int, str]) -> None:
    """Lay the graph state out on system: missing nodes join as |+>, then a CZ goes on every edge.

    node_label maps nodes to qubits and gains the missing ones under their
    qubit_label: an input node's, or a fresh |+> held by the server. CZs
    are applied on first touch (see QuantumSystem).
    """
    for j in range(1, graph.num_nodes + 1):
        if j in node_label:
            continue
        node_label[j] = qubit_label(graph, j)
        if j not in graph.input_nodes:
            system.add_register(plus_state(0), [node_label[j]], ["server"])
    for u, v in sorted(graph.edges):
        system.apply_cz(node_label[u], node_label[v])


def read_outputs(system: QuantumSystem, graph: BrickworkGraph, node_label: dict[int, str], keys: dict, ref_labels: list[str]) -> PureState:
    """Decrypt each output by X^s_x, then Z^s_z; return the outputs in label order, then the reference qubits."""
    for j in graph.output_nodes:
        s_x, s_z = keys[j]
        if s_x:
            system.apply_x(node_label[j])
        if s_z:
            system.apply_z(node_label[j])
    return system.state_of([node_label[j] for j in graph.output_nodes] + ref_labels)


def reference_execute(pattern: MeasurementPattern, input_state: PureState, rng: np.random.Generator) -> PureState:
    """Run a pattern directly, as the circuit it computes on the wire register, column by column.

    Input node k is qubit k-1 of input_state; outputs come back in label
    order, then any reference qubits. Each column applies its CZ signs, then,
    unless it is the last, H Z(-phi_j) on node j's wire: CZ(j, f(j)) and
    <+_phi_j| on j in the all-zero outcome branch. The renormalized result is
    the pattern's output up to global phase. rng advances as if each measured
    node drew one rng.random(); nothing is drawn.
    """
    graph, n = pattern.graph, pattern.graph.n_wires
    if input_state.num_qubits < n:
        raise ValueError(f"input register has {input_state.num_qubits} qubits but the graph has {n} wires")
    rng.random(len(graph.measured_nodes))
    amps = input_state.amps
    for c, signs in enumerate(graph.column_signs):
        amps = amps if signs is None else (signs[:, None] * amps.reshape(1 << n, -1)).reshape(-1)
        for j in graph.measured_nodes[c * n:(c + 1) * n]:
            amps = np.matmul(_TELEPORT[pattern.angles[j]], amps.reshape(1 << graph.wire_of(j) - 1, 2, -1)).reshape(-1)
    return PureState(amps)
