"""Empirical security harness.

Three kinds of evidence about the protocol, all on desk-scale instances:

- blindness: the server's complete view (its quantum registers plus every
  classical message it saw) is enumerated exactly, averaging over all
  client secrets, and compared between two scenarios as a trace distance.
- server-side simulation: the protocol is rewritten in steps (client
  rotations pushed through teleportation, then delayed past the server's
  actions, then split into a secret-free simulator plus an ideal resource)
  and each rewrite is checked to produce the same observable distributions
  and the same outputs.
- client-side simulation: a coalition of clients interacts with a
  simulator that knows nothing about the honest parties beyond the ideal
  resource's output, and the coalition's view is compared with a real run.

The exact view enumeration works with effective per-node secrets: each
prepared node carries one uniform pad angle theta, one uniform mask bit r,
and (for inputs) one uniform flip bit a, regardless of how many clients
contributed. The chain outcomes t and the honesty-test traffic (opened
uniform angles, outcome-0 measurements, survivor indices) are distributed
identically in every scenario and independently of the effective secrets,
so they drop out of every view distance; the preparation-equivalence tests
pin down exactly this reduction. The views are filed by Z-twin class, the
announced angles mod 4, so only theta in 0..3 is laid out, all (theta, a)
combinations as rows of one array, and r is not enumerated; the Z twins
theta + 4 enter as dephasing. Everything that depends on the graph alone
(which built amplitude and phase each row reads, and each round's
announced angle as a function of the pattern angle) is one integer layout,
built once per graph, the CZ signs of one brickwork.graph_state build
folded into its phase octants. A view builds no graph state: it reads
every row from input (x) |+>^(N - n) through that layout, computes only the
diagonal blocks dephasing keeps, and returns each checkpoint as one array
over all 4^i classes. A check's scenarios are walked in one call, stacked
when small (see exact_server_views), and compare checkpoint by checkpoint.

Both simulation checks are sampled, and every sampled verdict follows one
rule: `sample` runs trial i of a world on its own generator,
default_rng([*salt, i]), and `observe` runs that trial honestly in one of
the five worlds (base, teleport, delayed, simulator-resource,
simulated-client), raises if it aborted, and returns its summary and
output state.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import sqrt
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .brickwork import (
    BrickworkGraph,
    MeasurementPattern,
    graph_state,
    input_system,
    parity,
    qubit_label,
    read_outputs,
    reference_execute,
)
from .oracle import OracleLedger, a_tag, blind_angle, close_shares, r_tag, theta_tag
from .protocol import AbortInfo, ProtocolRun, Session, Transcript, contributors, run_full_protocol
from .quantum import _PHASE, _PHASE_CONJ, PureState, flip, octant, weighted_trace_norm
from .rsp import run_chain, theta_input

# ----------------------------------------------------------------------
# exact server view and blindness
# ----------------------------------------------------------------------

# 2^23 amplitudes, 128 MiB per row array: 2x4 with one reference qubit
# fits, 2x5 (2^28) and 4x3 (2^32) do not
EXACT_VIEW_BUDGET = 2 ** 23
# _class_matrices multiplies rows in chunks of about this many gathered
# amplitudes (512 KiB), so a chunk and its conjugate stay in cache and no
# chunk grows with the view; exact_server_views stacks scenarios up to it,
# so every 2x2 checkpoint of a check is one chunk (2^11-2^13 stacked)
_GRAM_CHUNK = 2 ** 15


def exact_view_amplitudes(n_wires: int, n_columns: int, n_ref: int) -> int:
    """Amplitudes in the row array exact_server_views lays out and walks on an n_wires x n_columns graph.

    4 pad angles per measured node and 2 flip bits per measured input give
    4^M 2^I secret combinations, each one state of the N nodes and n_ref
    reference qubits: 4^M 2^I 2^(N + n_ref). A round halves every row and
    at most doubles the rows, so no later row array is larger. It takes
    the shape, as message_counts does, so cli.validate need not build a graph.
    """
    measured = n_wires * (n_columns - 1)
    flips = n_wires if measured else 0
    return 4 ** measured * 2 ** flips * 2 ** (n_wires * n_columns + n_ref)


class ViewLayout(NamedTuple):
    """What exact_server_views reads from the graph alone, as integer arrays (_view_layout).

    The R = 4^M 2^I prepared rows are the secret combinations of
    _pad_layout, flip assignments slowest. Row c of the prepared array at
    basis index i is the unentangled product state's entry gather[c, i]
    times e^(i pi octant[c, i] / 4), the octant carrying the CZ sign; both
    are (R, 2^N). Round k + 1 sees the rows
    (combination c, outcome path p) at position p R + c, bit k' of p the
    outcome s of round k' + 1; sign[k] and offset[k] hold one entry per
    such row, and its announced angle is sign phi + offset mod 8, phi the
    pattern angle of the node measured in that round.
    """

    gather: np.ndarray
    octant: np.ndarray
    sign: tuple[np.ndarray, ...]
    offset: tuple[np.ndarray, ...]


def exact_server_views(scenarios: Sequence[tuple[MeasurementPattern, PureState]]) -> list[dict[str, np.ndarray]]:
    """Enumerate the server's averaged view at every checkpoint, by Z-twin class, for each (pattern, input) scenario.

    The scenarios share one graph and input register size, or this raises
    before any row is built. Returns, per scenario in order, checkpoint -> a
    (4^i, d, d) array: the subnormalized density matrix of the server's
    remaining register (node qubits in label order) for each class code. The
    code of a class is its announced angles mod 4 as a base-4 number, the
    first round most significant; checkpoint "prepared" (i = 0) is right after
    entangling, "round:i" after the i-th measurement, "delivered" after the
    outputs left the server (classical label only, 1x1 weight matrices).

    A class matrix sums 4^i equal (delta, b) label matrices: (d, b), (d + 4,
    1 - b), (d + 4, b) and (d, 1 - b) differ by the mask bit r and by the
    pad's Z twin theta + 4 (for inputs, X^a Z(theta + 4) is Z X^a Z(theta)
    up to phase), and measuring Z psi at delta + 4 gives psi's outcome and
    post-state at delta. So view_distance over classes equals the distance
    over labels. theta runs over 0..3, weight 1/4 per node, r not at all,
    and the outcome is the flow bit s; the Z twins of the measured nodes
    still live at a checkpoint are averaged by dephasing them. Every code
    occurs, in exactly 2^I 2^i 4^(M - i) rows: for each flip assignment and
    outcome path, theta -> delta mod 4 is a bijection.

    All (theta, a) combinations are walked at once, as rows of one array.
    X Z(theta) is Z(-theta) X up to phase and Z commutes with CZ, so a
    combination is its flip assignment's graph state under
    Z(flip(theta, a)) on the measured nodes: input (x) |+>^(N - n) read at
    an XORed index with an octant phase (_view_layout), no graph state built
    per view. Each row reads the nodes in label order, then the reference
    qubits. The
    measured nodes lead and are measured in label order, so a round
    projects every row's qubit 0 onto both outcomes: each (combination,
    outcome path) row becomes two rows half as wide. With causal flow every
    measured node has an unmeasured successor, so each outcome has
    conditional probability exactly 1/2 and no branch is ever empty. The
    announced angles come from the layout, and each checkpoint's classes
    from batched Gram products over the diagonal blocks that dephasing
    keeps (_class_matrices). Scenarios whose rows fit in _GRAM_CHUNK
    amplitudes when stacked (any 2x2 pair) are one row array, scenario
    slowest, on the class index scenario * 4^i + code (_scenario_classes);
    larger ones (2x3 and up) are walked one at a time. Either way each
    scenario's arrays equal its own one-scenario walk's bit for bit.
    """
    if not scenarios:
        raise ValueError("no scenario to walk")
    graph = scenarios[0][0].graph
    if any(pattern.graph != graph for pattern, _ in scenarios):
        raise ValueError("scenarios expose different graph dimensions to the server")
    if len({psi.num_qubits for _, psi in scenarios}) > 1:
        raise ValueError("scenarios expose different input register sizes")
    measured = graph.flow.order
    if not measured:
        raise ValueError("nothing is measured; the server view is empty")

    n_nodes = graph.num_nodes
    cost = exact_view_amplitudes(graph.n_wires, graph.n_columns, max(scenarios[0][1].num_qubits - graph.n_wires, 0))
    if cost > EXACT_VIEW_BUDGET:
        raise ValueError(f"exact enumeration needs {cost} amplitudes, over the budget of {EXACT_VIEW_BUDGET}")

    layout, stack, views = _view_layout(graph), max(1, _GRAM_CHUNK // cost), []
    for first in range(0, len(scenarios), stack):
        group = scenarios[first:first + stack]
        rows = _prepared_rows(graph, [psi for _, psi in group])
        code = np.repeat(np.arange(len(group)), len(rows) // len(group))  # the scenario leads every class index
        checkpoints = {"prepared": _scenario_classes(rows, code, len(group), 1, n_nodes, len(measured))}
        for k, j in enumerate(measured):
            angle = np.array([pattern.angles[j] for pattern, _ in group], dtype=np.int8)[:, None]
            delta = ((layout.sign[k].reshape(2 ** k, 1, -1) * angle + layout.offset[k].reshape(2 ** k, 1, -1)) % 8).ravel()
            code = 4 * code + delta % 4
            code = np.concatenate((code, code))  # both outcomes' rows
            rows = _project_first(rows, delta)
            checkpoints[f"round:{k + 1}"] = _scenario_classes(rows, code, len(group), 4 ** (k + 1), n_nodes - k - 1, len(measured) - k - 1)
        # no node is left: each class matrix is 1x1, its weight
        checkpoints["delivered"] = _scenario_classes(rows, code, len(group), 4 ** len(measured), 0, 0)
        views += [{cp: matrices[s] for cp, matrices in checkpoints.items()} for s in range(len(group))]
    return views


def _prepared_rows(graph: BrickworkGraph, inputs: Sequence[PureState]) -> np.ndarray:
    """Every secret combination's state right after entangling, for inputs of one size: row s R + c of an (S R, 2^N rest) array.

    No graph state is built: the layout's octants carry the CZ signs, so
    row c of input s reads it (x) |+>^(N - n), references last, as ViewLayout
    lays row c out, in one gather for all inputs; an input register smaller
    than the n wires raises. Each row carries the square root of its weight
    1/R, so the Gram products of _class_matrices come out weighted; 1/sqrt(R 2^(N - n)) = 2^-(M + N/2) is exact.
    """
    n_in = graph.n_wires
    if inputs[0].num_qubits < n_in:
        raise ValueError(f"input register has {inputs[0].num_qubits} qubits but the graph has {n_in} wires")
    layout = _view_layout(graph)
    n_plus = 2 ** (graph.num_nodes - n_in)
    amps = np.stack([psi.amps for psi in inputs]).reshape(len(inputs), 1, 2 ** n_in, 1, -1) * (_PHASE / sqrt(len(layout.gather) * n_plus))[:, None, None, None]
    base = np.broadcast_to(amps, (len(inputs), 8, 2 ** n_in, n_plus, amps.shape[-1])).reshape(len(inputs), 8, 2 ** graph.num_nodes, -1)
    return base[:, layout.octant, layout.gather].reshape(len(inputs) * len(layout.gather), -1)


@lru_cache(maxsize=8)
def _view_layout(graph: BrickworkGraph) -> ViewLayout:
    """The ViewLayout of a graph, built once per graph (equal graphs share it); its arrays are read-only.

    X_j before the CZs is X_j Z_{N(j)} after them, since CZ_jk X_j = X_j Z_k
    CZ_jk. So a flip assignment's state is input (x) |+>^(N - n) read at its
    index XORed by the flipped bits, negated where the CZs negate that index
    (read once from brickwork.graph_state on |+>^N) and where the flipped
    nodes' neighbourhoods, counted with multiplicity, hold an odd number of
    ones: 4 in the octant each. The pad adds Z(flip(theta, a)) on each measured node.
    Only permutations and octant phases are involved, so each row is exact
    up to one global phase: a sign, times e^(i pi theta / 4) per flipped
    input, as X Z(theta) = e^(i pi theta / 4) Z(-theta) X. A round's announced angle is
    blind_angle(flow.adapted_angle(...), 0, theta, a) with r absorbed into
    the class; the corrected angle is +-phi plus a term in the flips and the
    outcome path, so its phi = 0 call is the offset and the difference of
    its phi = 1 and phi = 0 calls the sign.
    """
    flow, n_nodes = graph.flow, graph.num_nodes
    measured = flow.order
    theta, a = _pad_layout(graph, measured)
    n_rows, n_pads = len(theta), 4 ** len(measured)
    assignment = np.arange(n_rows) // n_pads
    flips = a[::n_pads]  # flips[f] is the a row of assignment f

    index = np.arange(2 ** n_nodes)
    node_bits = (index[:, None] >> (n_nodes - np.arange(1, n_nodes + 1))) & 1
    neighbours = np.array([[v in graph.neighbors(j) for v in range(1, n_nodes + 1)] for j in measured], dtype=np.int64)
    x_index = index ^ (flips @ (1 << (n_nodes - np.array(measured))))[:, None]
    system, _ = input_system(PureState(np.full(2 ** graph.n_wires, sqrt(2.0 ** -graph.n_wires))), ["server"] * graph.n_wires)
    graph_state(system, graph, {})
    cz_bit = system.state_of([qubit_label(graph, j) for j in range(1, n_nodes + 1)]).amps.real < 0
    z_bit = flips @ neighbours @ node_bits.T + cz_bit[x_index]
    pad = np.where(a == 1, -theta, theta)
    gather = x_index[assignment].astype(np.min_scalar_type(2 ** n_nodes - 1))
    octant = ((pad @ node_bits[:, np.array(measured) - 1].T + 4 * z_bit[assignment]) % 8).astype(np.int8)

    position = {j: k for k, j in enumerate(measured)}
    sign, offset = [], []
    for k, j in enumerate(measured):
        paths = np.arange(2 ** k)

        def corrected(phi: int) -> np.ndarray:
            # one (flip assignment, outcome path) grid; the angle depends on nothing else
            grid = flow.adapted_angle(j, phi, lambda i: (paths >> position[i]) & 1, lambda i: flips[:, position[i], None])
            return np.broadcast_to(grid, (len(flips), len(paths)))

        combo, path = np.tile(np.arange(n_rows), len(paths)), np.repeat(paths, n_rows)
        at_zero = corrected(0)
        # the phi = 1 and phi = 0 angles differ by 1 or 7 mod 8: the sign +1 or -1
        sign.append(((corrected(1) - at_zero + 4) % 8 - 4)[assignment[combo], path].astype(np.int8))
        # r is not enumerated: the class code absorbs its 4 r
        offset.append(blind_angle(at_zero[assignment[combo], path], 0, theta[combo, k], a[combo, k]).astype(np.int8))
    layout = ViewLayout(gather, octant, tuple(sign), tuple(offset))
    for array in (gather, octant, *sign, *offset):
        array.flags.writeable = False
    return layout


def _pad_layout(graph: BrickworkGraph, measured: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every secret combination, one row each: theta and a, both (4^M 2^I, M).

    theta runs over 0..3 on every measured node, a over the flip bits of
    the measured inputs (0 elsewhere), flips slowest: combination c has
    flip assignment c // 4^M, in product((0, 1), repeat=I) order.
    """
    inputs = [idx for idx, j in enumerate(measured) if j in graph.input_nodes]
    grid = np.indices((2,) * len(inputs) + (4,) * len(measured)).reshape(len(inputs) + len(measured), -1).T
    a = np.zeros((len(grid), len(measured)), dtype=np.int64)
    a[:, inputs] = grid[:, :len(inputs)]
    return grid[:, len(inputs):], a


def _project_first(rows: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Project each row's qubit 0 onto <+_delta| and <-_delta| (unnormalized): outcome 0's rows, then outcome 1's."""
    psi = rows.reshape(len(rows), 2, -1)
    out = np.empty((2, len(rows), psi.shape[2]), dtype=complex)
    np.multiply(psi[:, 1], _PHASE_CONJ[delta][:, None], out=out[1])  # outcome 1's turned half
    np.add(psi[:, 0], out[1], out=out[0])
    np.subtract(psi[:, 0], out[1], out=out[1])
    out /= sqrt(2)
    return out.reshape(2 * len(rows), -1)


def _class_matrices(rows: np.ndarray, code: np.ndarray, n_classes: int, n_live: int, n_dephased: int) -> np.ndarray:
    """B B^H for each class code 0..n_classes - 1, B the class's rows side by side, each as (2^n_live nodes, the rest).

    Every class present must hold the same number of rows, or this raises;
    a code no row carries gets a zero matrix. The honest views carry every
    code, but a broken pad leaves some out, and the distance must still
    see it. The Z twins of the n_dephased leading live nodes are averaged,
    so only the 2^n_dephased diagonal blocks are computed: the rows are
    sorted stably by code and multiplied block by block in batched Gram
    products, each over about _GRAM_CHUNK gathered amplitudes: several
    whole classes or, summed, part of one.
    """
    counts = np.bincount(code, minlength=n_classes)
    if len(counts) != n_classes:
        raise ValueError(f"class codes run past the {n_classes} classes")
    present = np.flatnonzero(counts)
    size = counts[present[0]]
    if (counts[present] != size).any():
        raise ValueError(f"the {len(present)} classes of {len(code)} rows are not all the same size")
    order = np.argsort(code, kind="stable").reshape(len(present), size)
    n_blocks, block, width = 2 ** n_dephased, 2 ** (n_live - n_dephased), rows.shape[1]
    part = min(size, max(1, _GRAM_CHUNK // width))  # rows of one class per product
    step = max(1, _GRAM_CHUNK // (part * width))  # classes per product
    blocks = np.zeros((len(present), n_blocks, block, block), dtype=complex)
    for k in range(0, len(present), step):
        for start in range(0, size, part):
            group = rows[order[k:k + step, start:start + part]].reshape(-1, part, n_blocks, block, width // (n_blocks * block))
            group = group.transpose(0, 2, 3, 1, 4).reshape(len(group), n_blocks, block, -1)
            blocks[k:k + step] += group @ group.conj().swapaxes(-1, -2)
    if n_blocks == 1 and len(present) == n_classes:
        return blocks.reshape(n_classes, block, block)
    matrices = np.zeros((n_classes, n_blocks, block, n_blocks, block), dtype=complex)
    diagonal = np.arange(n_blocks)
    matrices[present[:, None], diagonal, :, diagonal] = blocks
    return matrices.reshape(n_classes, 2 ** n_live, 2 ** n_live)


def _scenario_classes(rows: np.ndarray, code: np.ndarray, n_scenarios: int, n_classes: int, n_live: int, n_dephased: int) -> np.ndarray:
    """_class_matrices per scenario, (n_scenarios, n_classes, d, d), from rows indexed scenario * n_classes + code.

    One pass over the stack, as every honest view fills every class alike. Its equal-size rule holds per
    scenario, though: where a broken pad gives two scenarios classes of different sizes, that pass raises
    and each scenario takes a pass of its own.
    """
    try:
        matrices = _class_matrices(rows, code, n_scenarios * n_classes, n_live, n_dephased)
    except ValueError:
        scenario = code // n_classes
        return np.stack([_class_matrices(rows[scenario == s], code[scenario == s] - s * n_classes, n_classes, n_live, n_dephased) for s in range(n_scenarios)])
    return matrices.reshape(n_scenarios, n_classes, *matrices.shape[1:])


def view_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance between two view ensembles at one checkpoint, class array against class array.

    Both are (classes, d, d) arrays of one shape, as exact_server_views
    returns them, Hermitian, compared in one weighted_trace_norm call;
    arrays of different shapes raise instead of broadcasting.
    """
    if a.shape != b.shape:
        raise ValueError(f"view arrays of shapes {a.shape} and {b.shape} do not compare")
    return weighted_trace_norm(a, b)


def blindness_check(
    pattern_a: MeasurementPattern,
    input_a: PureState,
    pattern_b: MeasurementPattern,
    input_b: PureState,
) -> dict[str, float]:
    """Exact view distance per checkpoint between two scenarios, walked in one exact_server_views call.

    The scenarios must share the public interface, or that call refuses
    them: graph dimensions and input register size. Everything else (inputs,
    pattern angles) may differ; blindness means every distance is numerically zero.
    """
    va, vb = exact_server_views([(pattern_a, input_a), (pattern_b, input_b)])
    return {cp: view_distance(va[cp], vb[cp]) for cp in va}


# ----------------------------------------------------------------------
# intermediate protocol versions and the server-side simulator
# ----------------------------------------------------------------------


def run_intermediate_protocol(
    pattern: MeasurementPattern,
    input_state: PureState,
    rng: np.random.Generator,
    version: str,
) -> ProtocolRun:
    """Run one of the rewritten protocol versions; they exchange no messages.

    "teleport": every client contribution is delivered as an EPR half; the
    retained halves are rotated and measured during preparation, so the
    sent halves collapse to exactly the states the base protocol prepares
    (with the mask bits absorbed into the effective angles).

    "delayed": the retained halves stay untouched until after the server
    has measured; the announced angles are then fresh uniform octants, and
    the clients solve for the one rotation angle that makes their delayed
    measurements consistent with what the server already did.

    "simulator-resource": the delayed version with the actors split: the
    party facing the server uses no secret at all (EPR halves, uniform
    angles), and every secret-dependent step runs afterwards inside an
    ideal resource that also decrypts the outputs.

    Each node's client angles are one list, revealed in client order. Each
    version files every flip a, mask bit r and effective angle theta + 4 r,
    every chain, announced angle and outcome in its ledger, its one record,
    which gives the teleport and solved angles and the keys.
    """
    if version not in ("teleport", "delayed", "simulator-resource"):
        raise ValueError(f"unknown version {version!r}")
    delayed = version != "teleport"
    a_at_end = version == "simulator-resource"

    graph = pattern.graph
    n = graph.n_wires
    measured = graph.flow.order
    system, ref_labels = input_system(input_state, [f"client:{k}" for k in range(1, n + 1)])

    epr = PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    for j in measured:
        for k in range(1, n + 1):
            system.add_register(epr, [f"keep:{j}:{k}", f"send:{j}:{k}"], [f"client:{k}", "server"])

    ledger = OracleLedger(pattern)

    def extract_flips() -> None:
        for j in graph.input_nodes:
            if j in measured:
                system.apply_cnot(f"in:{j}", f"keep:{j}:{j}")
                ledger.file(a_tag(j), system.measure_computational(f"keep:{j}:{j}", rng.random()))

    if not a_at_end:
        extract_flips()

    def reveal(j: int, k: int, theta: int) -> None:
        """Client k turns its retained half of node j by theta, then measures its mask bit."""
        # the input's owner teleports the input qubit itself through its EPR
        # pair, after which the input register is the qubit still to measure
        lab = f"in:{j}" if (j in graph.input_nodes and k == j) else f"keep:{j}:{k}"
        system.apply_z_rot(lab, theta)
        system.apply_h(lab)
        r = system.measure_computational(lab, rng.random())
        ledger.file(r_tag(j, k), r)
        ledger.file(theta_tag(j, k), octant(theta + 4 * r))

    if not delayed:
        for j in measured:
            for k in range(1, n + 1):
                reveal(j, k, int(rng.integers(8)))

    # ------------------------------------------------- server-side actions
    node_label: dict[int, str] = {}
    for j in measured:
        registers = {k: f"send:{j}:{k}" for k in range(1, n + 1)}
        t, node_label[j] = run_chain(system, registers, graph.survivor(j), rng)
        ledger.register_chain(j, t)
    graph_state(system, graph, node_label)

    def solve_and_reveal(j: int) -> None:
        """Pick fresh uniform angles, solve the one that matches delta, measure."""
        target = graph.survivor(j)
        theta = [0 if k == target else int(rng.integers(8)) for k in range(1, n + 1)]
        # the chain's closed form with the target's angle still 0 sums the
        # others' signed angles
        acc = ledger.announced[j] - ledger.corrected_angle(j) - theta_input(theta, target, ledger.chain_t[j], 0)
        # the pad's X flip (input case) negates the angle the pad rotation
        # must hit, so the solved angle absorbs the same sign
        theta[target - 1] = flip(octant(acc), ledger.node_flip(j))
        for k, angle in enumerate(theta, 1):
            reveal(j, k, angle)

    for j in measured:
        ledger.register_angle(j, int(rng.integers(8)) if delayed else ledger.delta(j))
        ledger.register_outcome(j, system.measure_rotated(node_label[j], ledger.announced[j], rng.random()))
        if delayed and not a_at_end:
            solve_and_reveal(j)

    if a_at_end:
        # ideal-resource phase: all secret-dependent work happens only now
        extract_flips()
        for j in measured:
            solve_and_reveal(j)

    keys = {j: ledger.output_keys(j) for j in graph.output_nodes}
    output_state = read_outputs(system, graph, node_label, keys, ref_labels)
    return ProtocolRun(Transcript(), system, ledger, keys, output_state)


def rewrite_peak_qubits(version: str, n_wires: int, n_columns: int, n_ref: int) -> int:
    """Closed-form bound on the largest register run_intermediate_protocol holds.

    Counted from its order of operations, n wires, M = n (n_columns - 1):
    teleport: extracting a adds one EPR pair per input, each leaving a
    half in the input register, 2n + 1 + n_ref. delayed: n retained halves
    per node live until it is measured; the last input node's chain holds
    n^2 + n + 1 + n_ref, and measuring a column n + 1 nodes, each with n
    halves while the next column is measured too, (n + 1)^2 + n_ref.
    simulator-resource: every node's n halves wait for the end, beside the
    outputs, when extracting a joins the inputs: nM + 2n + n_ref, or
    nM + n + 1 + n_ref on two columns, whose column-1 nodes join one by one.
    """
    if version not in ("teleport", "delayed", "simulator-resource"):
        raise ValueError(f"unknown version {version!r}")
    n = n_wires
    if n_columns == 1:
        return n + n_ref
    if version == "teleport":
        return 2 * n + 1 + n_ref
    if version == "delayed":
        return n_ref + ((n + 1) ** 2 if n_columns > 2 else n * n + n + 1)
    return n * n * (n_columns - 1) + (n + 1 if n_columns == 2 else 2 * n) + n_ref


def run_simulated_server_world(
    pattern: MeasurementPattern,
    input_state: PureState,
    rng: np.random.Generator,
) -> ProtocolRun:
    """The server faces a secret-free simulator; an ideal resource does the rest."""
    return run_intermediate_protocol(pattern, input_state, rng, "simulator-resource")


# ----------------------------------------------------------------------
# client-side simulator
# ----------------------------------------------------------------------


def run_simulated_client_world(
    pattern: MeasurementPattern,
    input_state: PureState,
    coalition: Iterable[int],
    rng: np.random.Generator,
    *,
    m_copies: int = 10,
) -> ProtocolRun:
    """Simulate the coalition's protocol interface without honest secrets.

    The simulator plays the server, the oracle, and every honest client.
    Every contributor's copy test, honest or in the coalition, goes through
    Session.offer_test_copies on m fresh uniform angles, as the real run's
    honest copies are drawn: the coalition's test copies are checked
    against their declared shares, and an honest one passes. It
    announces uniform chain outcomes, couples each announced angle to the
    coalition's own mask shares (delta = fresh uniform + 4 * coalition
    mask, which keeps delta marginally uniform while preserving the
    pathwise effect of the coalition's choices), answers with uniform
    measurement outcomes, and finally undoes the coalition's input pad,
    hands the bare inputs to the ideal resource, and announces the output
    keys implied by the recorded outcomes and masks. Padding the
    resource's outputs by those keys and the coalition's decryption
    cancel exactly, so the run ends with the resource's outputs. Every
    message goes through the real run's Session writers, in the same order
    and with the same payload fields; an honest client's pad flip, pad
    angle and mask bits are handed out as share_values plays them. Like
    the real run, it refuses m_copies < 2 before it draws. The keys come
    from the oracle's ledger, where the simulator files the chains, its
    claimed mask bits, its announced angles and outcomes, and each flip a
    key needs. The ideal resource, reference_execute, advances the
    simulator's generator by one uniform per measured node.

    The coalition itself is played honestly here; input_state carries the
    honest inputs, the coalition inputs, and optional reference qubits.
    """
    graph = pattern.graph  # the simulator never reads the pattern angles
    n = graph.n_wires
    clients = range(1, n + 1)
    coalition = frozenset(int(c) for c in coalition)
    if not coalition or not coalition <= set(clients):
        raise ValueError("coalition must be a nonempty subset of the clients")
    honest = [k for k in clients if k not in coalition]
    if not honest:
        raise ValueError("at least one client must stay honest")
    if m_copies < 2:
        raise ValueError("m_copies must be >= 2: the copy test opens all copies but one")
    measured = graph.flow.order
    system, ref_labels = input_system(input_state, [f"client:{k}" if k in coalition else "simulator" for k in clients])

    transcript = Transcript()
    session = Session(system, transcript, rng, n)

    # -------------------------------------------------- coalition secrets
    pad_a: dict[int, int] = {}
    pad_theta: dict[int, int] = {}

    def share_values(k: int, secret: int, modulus: int) -> list[int]:
        """Client k's share values as the simulator plays them. A coalition
        member shares its own secret. An honest client gives each coalition
        member a fresh uniform piece, drawn in member order, and each honest
        holder 0: the coalition holds at most n - 1 pieces, which are jointly
        uniform whatever the secret, so this is exact."""
        if k in coalition:
            return close_shares(secret, [int(rng.integers(modulus)) for _ in range(n - 1)], modulus)
        return [int(rng.integers(modulus)) if h in coalition else 0 for h in clients]

    flip_values = []
    for k in clients:
        if k in coalition:
            pad_a[k] = int(rng.integers(2))
        flip_values.append(share_values(k, pad_a.get(k, 0), 2))
    session.hand_out(clients, [a_tag(k) for k in clients], flip_values, 2, [{"kind": "pad-flip", "client": k} for k in clients])

    # ----------------------------------------------------- preparation
    ledger = OracleLedger(pattern)
    for j in measured:
        for k in contributors(graph, j):
            # the simulator plays the server in every copy test, and an honest
            # contributor too, on fresh uniform angles as the real one's are
            copy_angles = [int(rng.integers(8)) for _ in range(m_copies)]
            survivor = session.offer_test_copies(j, k, copy_angles, copy_angles)
            if isinstance(survivor, AbortInfo):
                return ProtocolRun(transcript, system, ledger, {}, None, survivor)
        if j in graph.input_nodes and j in coalition:
            pad_theta[j] = int(rng.integers(8))
            session.send_padded_input(j, pad_a[j], pad_theta[j], [int(rng.integers(8)) for _ in range(n - 1)])
        elif j in graph.input_nodes:
            session.hand_out([j], [theta_tag(j, j, 0)], [share_values(j, 0, 8)], 8, [{"kind": "pad-angle", "node": j}])
        # chain outcomes are uniform and carry no secret dependence
        t = {reg: int(rng.integers(2)) for reg in clients if reg != graph.survivor(j)}
        ledger.register_chain(j, t)
        session.announce_chain(j, t)

    # ------------------------------------------------------------ rounds
    for j in measured:
        mask_values = []
        for k in clients:
            r_bit = int(rng.integers(2))
            ledger.file(r_tag(j, k), r_bit)
            mask_values.append(share_values(k, r_bit, 2))
        session.hand_out(clients, [r_tag(j, k) for k in clients], mask_values, 2, [{"kind": "mask-bit", "node": j, "client": k} for k in clients])
        coalition_mask = parity(ledger.secrets[r_tag(j, c)] for c in coalition)
        ledger.register_angle(j, octant(int(rng.integers(8)) + 4 * coalition_mask))
        session.announce_angle(j, ledger.announced[j])
        b = int(rng.integers(2))
        ledger.register_outcome(j, b)
        session.broadcast_result(j, b)

    # ------------------------------------------------------------ outputs
    for c in sorted(coalition):
        if c in pad_theta:
            # undo the coalition's input pad before feeding the ideal resource
            if pad_a[c]:
                system.apply_x(f"in:{c}")
            system.apply_z_rot(f"in:{c}", -pad_theta[c])
    ideal_input = system.state_of([f"in:{k}" for k in range(1, n + 1)] + ref_labels)
    resource_output = reference_execute(pattern, ideal_input, rng)

    keys: dict[int, tuple[int, int]] = {}
    for j in graph.output_nodes:
        pred = graph.flow.f_inv.get(j)
        if pred in graph.input_nodes:
            # the key needs the predecessor's flip: an honest client's is a
            # fresh uniform bit
            ledger.file(a_tag(pred), pad_a[pred] if pred in pad_a else int(rng.integers(2)))
        keys[j] = ledger.output_keys(j)
        if j not in graph.input_nodes and graph.wire_of(j) in coalition:
            # the coalition's output qubit node:j arrives padded by these keys,
            # and its decryption removes exactly that pad: it ends clean
            session.send_output(j, graph.wire_of(j), qubit_label(graph, j), keys[j])

    return ProtocolRun(transcript, system, ledger, keys, resource_output)


def check_no_secret_leak(transcript: Transcript, coalition: Iterable[int], n_clients: int) -> None:
    """Structural invariant: the coalition never sees a complete share set
    of any honest secret, and no raw secret value travels in any message."""
    coalition = {int(c) for c in coalition}
    names = {f"client:{c}" for c in coalition}
    visible = transcript.visible_to(names)
    seen_owners: dict[tuple, set[int]] = {}
    for msg in visible:
        for key in ("theta", "a", "r", "pad_theta", "secret"):
            if key in msg.payload:
                raise AssertionError(f"raw secret field {key!r} in message {msg.seq}")
        if msg.variant != "ShareDistribution":
            continue
        share = msg.payload.get("share")
        if share is None:
            continue
        tag = tuple(share["tag"])
        holder = tag[2] if tag[0] in ("theta", "r") else tag[1]
        if holder in coalition:
            continue
        if msg.payload.get("kind") == "opened-angle":
            continue  # opened test angles are public by design; their qubits are dead
        seen_owners.setdefault(tag, set()).add(share["owner"])
    for tag, owners in seen_owners.items():
        if len(owners) >= n_clients:
            raise AssertionError(f"coalition saw a complete share set for honest secret {tag}")


# ----------------------------------------------------------------------
# observable summaries and distribution comparison
# ----------------------------------------------------------------------


def observable_summary(run: ProtocolRun, rng: np.random.Generator) -> dict[str, int]:
    """Flatten a run into small discrete observables for distribution tests:
    coalition_view_summary over every wire, the reference qubits included."""
    state = run.output_state
    return coalition_view_summary(run, range(1, (len(run.keys) if state is None else state.num_qubits) + 1), rng)


def summary_fields(n_wires: int, n_columns: int, n_ref: int) -> int:
    """Fields of observable_summary on an n_wires x n_columns graph with n_ref
    reference qubits (a coalition view holds no more): per measured node
    n_wires - 1 chain outcomes, delta and b; per output a key; per output
    qubit a readout. It takes the shape, so cli.validate need not build the graph.
    """
    return (n_wires + 1) * n_wires * (n_columns - 1) + 2 * n_wires + n_ref


def coalition_view_summary(
    run: ProtocolRun,
    wires: Iterable[int],
    rng: np.random.Generator,
) -> dict[str, int]:
    """The one summary rule: what the holders of `wires` see of one run.

    The public announcements (chain outcomes t, announced angles delta and
    results b), the keys of the listed output wires, and an X-basis readout
    of each listed wire, named out:{wire}, in wire order. Wire k is client
    k's output, the output node k-th in label order, and the reference
    qubits count as wires n + 1, n + 2, ...; reading them out pins their
    correlations with the outputs.
    """
    wires = sorted({int(w) for w in wires})
    out = {f"t:{j}:{reg}": bit for j, t in sorted(run.chain_t.items()) for reg, bit in sorted(t.items())}
    out.update((f"delta:{j}", d) for j, d in sorted(run.delta.items()))
    out.update((f"b:{j}", bit) for j, bit in sorted(run.b.items()))
    for wire, j in enumerate(sorted(run.keys), 1):
        if wire in wires:
            s_x, s_z = run.keys[j]
            out[f"key:{j}"] = 2 * s_z + s_x
    state = run.output_state
    if state is not None:
        for removed, wire in enumerate(wires):
            out[f"out:{wire}"], state = state.measure_rotated(wire - 1 - removed, 0, rng.random())
    return out


def sample(trial: Callable[[np.random.Generator], object], trials: int, *salt: int) -> list:
    """Run `trial` `trials` times; trial i draws only from default_rng([*salt, i]).

    Every trial has its own generator, so a result depends only on the
    salt and the trial index, never on what ran before it.
    """
    return [trial(np.random.default_rng([*salt, i])) for i in range(trials)]


def observe(
    world: str,
    pattern: MeasurementPattern,
    input_state: PureState,
    rng: np.random.Generator,
    m_copies: int = 2,
    coalition: frozenset[int] | None = None,
) -> tuple[dict[str, int], PureState]:
    """One honest trial of a world: (summary, output state).

    `world` is "base" (the full protocol), one of the rewrites "teleport",
    "delayed" and "simulator-resource", or "simulated-client" (the
    client-side simulator, which needs a coalition). Every world here is
    honest, so an abort raises. With a coalition, the run is checked for a
    leaked honest secret and summarized over the coalition's wires
    (coalition_view_summary); without one, over every wire
    (observable_summary).
    """
    if world == "base":
        run = run_full_protocol(pattern, input_state, rng, m_copies=m_copies)
    elif world == "simulated-client":
        run = run_simulated_client_world(pattern, input_state, coalition, rng, m_copies=m_copies)
    else:
        run = run_intermediate_protocol(pattern, input_state, rng, world)
    if run.aborted:
        raise RuntimeError(f"honest {world} run aborted")
    if coalition is None:
        return observable_summary(run, rng), run.output_state
    check_no_secret_leak(run.transcript, coalition, pattern.graph.n_wires)
    return coalition_view_summary(run, coalition, rng), run.output_state


def empirical_tv(samples_a: Sequence, samples_b: Sequence) -> float:
    """Total-variation distance between two empirical distributions."""
    counts_a, counts_b = Counter(samples_a), Counter(samples_b)
    na, nb = len(samples_a), len(samples_b)
    total = 0.0
    for v in set(counts_a) | set(counts_b):
        total += abs(counts_a[v] / na - counts_b[v] / nb)
    return 0.5 * total


def marginal_distances(summaries_a: Sequence[dict], summaries_b: Sequence[dict]) -> dict[str, float]:
    """Per-field empirical TV distances between two summary collections."""
    fields = sorted(set().union(*summaries_a, *summaries_b))
    return {f: empirical_tv([s.get(f) for s in summaries_a], [s.get(f) for s in summaries_b]) for f in fields}


def clopper_pearson(successes: int, trials: int, alpha: float = 0.01) -> tuple[float, float]:
    """Exact binomial confidence interval."""
    # imported here: scipy.stats takes most of a second to load, and only protocol1-detection needs it
    from scipy.stats import beta as beta_dist

    if trials <= 0:
        raise ValueError("no trials")
    lo = 0.0 if successes == 0 else float(beta_dist.ppf(alpha / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(beta_dist.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return lo, hi

