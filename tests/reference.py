"""Slow, explicit references the tests compare the program against.

Nothing here is run by the program itself: a pattern executed as a
measurement pattern on its graph state, exhaustive enumeration of the
preparation chain, the input pad written out gate by gate, the explicit
step list the chain had before it was written as one rule, the copy test
of one batch (verify_client) and the same test measured on one-qubit
registers, a share hand-out and a copy test recorded message by message
as they are sent, state equality up to global phase, a
Monte-Carlo estimate of the server's state after entangling, the exact
server views walked one secret combination at a time and filed by label,
each combination's graph state built gate by gate, and their distance
summed one label at a time; the view kernels as they were before the
layout held the CZ signs: the prepared rows read from a graph state built
per view, the class matrices as full Gram products masked afterwards, and
the projection with its temporary; and the oracle ledger's answers composed
from its rules on every call, with its secrets filed one at a time.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product
from math import sqrt
from typing import Sequence

import numpy as np

from mpdqc.brickwork import BrickworkGraph, MeasurementPattern, compute_flow, graph_state, input_system, parity, read_outputs
from mpdqc.harness import _GRAM_CHUNK, _pad_layout
from mpdqc.oracle import OracleLedger, blind_angle, judge_copy_tests, theta_tag
from mpdqc.protocol import COPY_TEST_FAILED, AbortInfo, CopyTest, HandOut, Message, ServerStrategy, Session, Transcript, run_full_protocol
from mpdqc.quantum import _PHASE_CONJ, PureState, flip, octant, plus_state, weighted_trace_norm
from mpdqc.rsp import chain_steps, theta_input


def states_equal(a: PureState, b: PureState, atol: float = 1e-9) -> bool:
    """State equality up to global phase."""
    return a.fidelity(b) >= 1.0 - atol


def mbqc_reference_execute(pattern: MeasurementPattern, input_state: PureState, rng: np.random.Generator) -> PureState:
    """brickwork.reference_execute run as the measurement pattern itself, with corrections applied in the clear.

    The graph state is laid out on one QuantumSystem (input_system,
    graph_state); each node is measured at its flow-adapted angle on one
    rng.random() draw, and the outputs are decrypted by their flow keys
    (read_outputs). Outcomes only shuffle byproducts, so the returned state
    is the same, up to global phase, for every rng.
    """
    graph, angles = pattern.graph, pattern.angles
    flow = graph.flow
    system, ref_labels = input_system(input_state, ["environment"] * graph.n_wires)
    node_label: dict[int, str] = {}
    graph_state(system, graph, node_label)

    outcomes: dict[int, int] = {}
    for j in flow.order:
        delta = flow.adapted_angle(j, angles[j], outcomes.__getitem__, lambda _: 0)
        outcomes[j] = system.measure_rotated(node_label[j], delta, rng.random())

    keys = {j: flow.parities(j, outcomes.__getitem__) for j in graph.output_nodes}
    return read_outputs(system, graph, node_label, keys, ref_labels)


def pad_input(state: PureState, qubit: int, a: int, theta: int) -> PureState:
    """Encrypt an input qubit: Z(theta) rotation, then an X flip if a is set."""
    state = state.z_rot(qubit, theta)
    if a & 1:
        state = state.x(qubit)
    return state


def undo_pad(state: PureState, qubit: int, a: int, theta: int) -> PureState:
    """Invert pad_input: undo the X flip, then the Z rotation."""
    if a & 1:
        state = state.x(qubit)
    return state.z_rot(qubit, -theta)


def input_chain_steps(n: int, owner: int) -> list[tuple[int, int]]:
    """(target, control) pairs of the chain around register `owner`, written out case by case.

    The chain walks the registers in increasing order, hopping over the
    owner, and its last link hangs the final measured register off the
    owner itself.
    """
    steps: list[tuple[int, int]] = []
    for k in range(1, n):
        if k == owner:
            continue
        if k == n - 1 and owner == n:
            continue
        steps.append((k, k + 2 if k == owner - 1 else k + 1))
    if owner == n:
        steps.append((n - 1, n))
    else:
        steps.append((n, owner))
    return steps


@dataclass
class VerificationResult:
    accepted: bool
    survivor: int
    outcomes: dict[int, int]


def verify_client(shares: Sequence[Sequence[int]], prepared: Sequence[int], survivor: int, uniforms: Sequence[float]) -> VerificationResult:
    """The copy test of one batch of declared-angle copies from one client (oracle.judge_copy_tests on one batch).

    shares is the batch's (m, n) share values and prepared its m prepared
    angles. The caller draws the survivor, rng.integers(m), and then the
    m - 1 uniforms of the opened copies, rng.random(m - 1); for PCG64 a
    sized draw equals as many scalar draws.
    """
    m = len(shares)
    if m < 2:
        raise ValueError("need at least 2 copies to test any")
    if len(prepared) != m:
        raise ValueError("one prepared angle per copy")
    opened, outcomes = judge_copy_tests(np.asarray(shares), np.asarray(prepared), survivor, np.asarray(uniforms))
    outcomes = outcomes.tolist()
    return VerificationResult(accepted=not any(outcomes), survivor=survivor, outcomes=dict(zip(opened.tolist(), outcomes)))


def register_copy_test(shares: Sequence[Sequence[int]], prepared: Sequence[int], rng: np.random.Generator) -> VerificationResult:
    """verify_client measured through the statevector kernel.

    shares[i] holds the values of copy i's pieces, summing to its declared
    angle mod 8. Copy i becomes the register plus_state(prepared[i]); the
    survivor is drawn first, then every other copy is measured with
    measure_rotated in its declared basis, in index order, one uniform each.
    """
    m = len(shares)
    if m < 2:
        raise ValueError("need at least 2 copies to test any")
    survivor = int(rng.integers(m))
    outcomes = {
        i: plus_state(prepared[i]).measure_rotated(0, sum(shares[i]) % 8, rng.random())[0]
        for i in range(m) if i != survivor
    }
    return VerificationResult(accepted=not any(outcomes.values()), survivor=survivor, outcomes=outcomes)


def _piece(owner: int, tag: tuple, value: int, modulus: int) -> dict:
    return {"owner": owner, "tag": list(tag), "value": value, "modulus": modulus}


def record_hand_out(transcript: Transcript, owner: int, tag: tuple, values: Sequence[int], modulus: int, context: dict) -> None:
    """One handed-out secret, recorded as it is sent: the owner's piece for
    every other client, then each holder's submission to the oracle, in
    holder order; the two messages of a piece carry one payload dict."""
    payloads = [_piece(k, tag, value, modulus) for k, value in enumerate(values, 1)]
    for k, share in enumerate(payloads, 1):
        if k != owner:
            transcript.record(f"client:{owner}", f"client:{k}", "ShareDistribution", {**context, "share": share})
    for k, share in enumerate(payloads, 1):
        transcript.record(f"client:{k}", "oracle", "ShareDistribution", {**context, "share": share})


def copy_test_messages(seq: int, node: int, k: int, shares: Sequence[Sequence[int]], prepared: Sequence[int], result: VerificationResult, debug_secrets: bool) -> list[Message]:
    """One contributor's copy test for one node, message by message as it is sent, numbered from seq.

    shares holds the (m, n) share values of the m declared copy angles and
    result the oracle's verdict. The contributor's pieces of every angle go
    to its peers, then the m QubitTransfers (under debug_secrets with the
    amplitudes of plus_state(prepared[i])), the survivor, every piece of
    each opened angle to the server, the verification outcomes, then the
    Abort or the survivor's pieces to the oracle. Each share has one
    payload dict, shared by all its messages.
    """
    where = {"node": node, "contributor": k}
    payloads = [[_piece(owner, theta_tag(node, k, i), value, 8) for owner, value in enumerate(row, 1)] for i, row in enumerate(shares)]
    out: list[Message] = []

    def send(sender: str, receiver: str, variant: str, payload: dict) -> None:
        out.append(Message(seq + len(out), sender, receiver, variant, payload))

    for i, pieces in enumerate(payloads):
        for share in pieces:
            if share["owner"] != k:
                send(f"client:{k}", f"client:{share['owner']}", "ShareDistribution", {"kind": "copy-angle", **where, "copy": i, "share": share})
    for i, theta in enumerate(prepared):
        payload = {**where, "copy": i, "purpose": "test-copy", "label": f"copy:{node}:{k}:{i}"}
        if debug_secrets:
            payload["amplitudes"] = [[float(z.real), float(z.imag)] for z in plus_state(theta).amps]
        send(f"client:{k}", "server", "QubitTransfer", payload)
    send("server", "all", "OutcomeVector", {"kind": "survivor", **where, "survivor": result.survivor})
    for i in result.outcomes:
        for share in payloads[i]:
            send(f"client:{share['owner']}", "server", "ShareDistribution", {"kind": "opened-angle", **where, "copy": i, "share": share})
    send("server", "all", "OutcomeVector", {"kind": "verification", **where, "outcomes": sorted(result.outcomes.items())})
    if not result.accepted:
        send("server", "all", "Abort", asdict(AbortInfo("verification", node, k, COPY_TEST_FAILED)))
    else:
        for share in payloads[result.survivor]:
            send(f"client:{share['owner']}", "oracle", "ShareDistribution", {"kind": "survivor-angle", **where, "copy": result.survivor, "share": share})
    return out


class EagerTranscript(Transcript):
    """A Transcript that records every message of a deferred entry as soon as it is logged.

    A HandOut goes secret by secret through record_hand_out, a CopyTest
    batch by batch through copy_test_messages, each batch judged from its
    own outcomes rather than the entry's `failed`.
    """

    def defer(self, entry: HandOut | CopyTest) -> None:
        if isinstance(entry, HandOut):
            for owner, tag, values, context in zip(entry.owners, entry.tags, entry.values, entry.contexts):
                record_hand_out(self, owner, tag, values, entry.modulus, context)
            return
        for b, k in enumerate(entry.contributors, entry.first):
            outcomes = dict(zip(entry.opened[b].tolist(), entry.outcomes[b].tolist()))
            result = VerificationResult(not any(outcomes.values()), int(entry.survivors[b]), outcomes)
            batch = copy_test_messages(len(self), entry.node, k, entry.shares[b].tolist(), entry.prepared[b].tolist(), result, entry.debug_secrets)
            for m in batch:
                self.record(m.sender, m.receiver, m.variant, m.payload)


class EagerSession(Session):
    """A Session whose hand-outs record each message as it is sent.

    Give it an EagerTranscript to record its copy tests as they are sent too.
    """

    def hand_out(self, owners: Sequence[int], tags: list[tuple], values: list[list[int]], modulus: int, contexts: list[dict]) -> None:
        """Each secret in turn through record_hand_out; then the ledger files its values."""
        for owner, tag, row, context in zip(owners, tags, values, contexts):
            record_hand_out(self.transcript, owner, tag, row, modulus, context)
            if self.ledger is not None:
                self.ledger.register_share(tag, row, modulus)


def chain_branches(survivor_state: PureState, others: Sequence[PureState], survivor: int) -> list[tuple[dict[int, int], float, PureState]]:
    """Every (t, probability, survivor state) branch of the chain that leaves `survivor`.

    others are the one-qubit states of the other registers in increasing
    order; survivor_state is the survivor register's qubit followed by any
    qubits it drags along (a reference half stays with it to the end). The
    joint state lays them out in that order, others first.
    """
    n = len(others) + 1
    joint = others[0]
    for state in others[1:]:
        joint = joint.tensor(state)
    positions = {k: i for i, k in enumerate(k for k in range(1, n + 1) if k != survivor)}
    positions[survivor] = n - 1
    joint = joint.tensor(survivor_state)
    branches = [({}, 1.0, joint, positions)]
    for target, control in chain_steps(n, survivor):
        grown = []
        for t, p, state, pos in branches:
            state = state.cnot(pos[control], pos[target])
            idx = pos[target]
            dropped = {k: (v if v < idx else v - 1) for k, v in pos.items() if k != target}
            for outcome in (0, 1):
                p_branch, sub = state.project_computational(idx, outcome)
                if p_branch < 1e-12:
                    continue
                grown.append(({**t, target: outcome}, p * p_branch, sub, dropped))
        branches = grown
    return [(t, p, state) for t, p, state, _ in branches]


def sampled_prepared_density(
    pattern: MeasurementPattern,
    input_state: PureState,
    trials: int,
    rng: np.random.Generator,
    m_copies: int = 2,
) -> np.ndarray:
    """Monte-Carlo estimate of the server's averaged post-entangling state.

    Runs the full physical protocol (chains, honesty tests and all), so it
    cross-checks the effective-secret reduction used by the exact views.
    """
    graph = pattern.graph
    nodes = list(range(1, graph.num_nodes + 1))
    acc = np.zeros((2 ** len(nodes), 2 ** len(nodes)), dtype=complex)

    def capture(handle) -> None:
        acc.__iadd__(handle.density(nodes).matrix)

    strategy = ServerStrategy(after_entangle=capture)
    for _ in range(trials):
        run = run_full_protocol(pattern, input_state, rng, m_copies=m_copies, server_strategy=strategy)
        if run.aborted:
            raise RuntimeError("honest run aborted")
    return acc / trials


def built_secret_state(graph: BrickworkGraph, input_state: PureState, secret: dict[int, tuple[int, int]]) -> PureState:
    """The server's register right after entangling, built gate by gate for one secret combination.

    secret maps every measured node to (theta, a): an input is padded by
    Z(theta), then X if a; any other measured node is |+_theta>; then
    brickwork.graph_state. The state reads the nodes in label order, then
    the reference qubits.
    """
    system, ref_labels = input_system(input_state, ["server"] * graph.n_wires)
    node_label: dict[int, str] = {}
    for j, (theta_j, a_j) in secret.items():
        if j in graph.input_nodes:
            system.apply_z_rot(f"in:{j}", theta_j)
            if a_j:
                system.apply_x(f"in:{j}")
        else:
            node_label[j] = f"node:{j}"
            system.add_register(plus_state(theta_j), [node_label[j]], ["server"])
    graph_state(system, graph, node_label)
    return system.state_of([node_label[j] for j in range(1, graph.num_nodes + 1)] + ref_labels)


def walked_exact_server_views(pattern: MeasurementPattern, input_state: PureState) -> dict[str, dict[tuple, np.ndarray]]:
    """harness.exact_server_views, one secret combination and one recursive walk at a time, filed by label.

    Each (theta, a) combination, theta in 0..3, is laid out as the protocol
    does it (built_secret_state). The walk projects the leading node onto
    both outcomes s of every branch, drops a branch whose conditional
    probability is below 1e-14 with its subtree, and files the branch under
    its label, the tuple of announced angles mod 4; the live measured
    nodes' Z twins are dephased at the end. labeled_classes files
    harness.exact_server_views the same way.
    """
    graph, angles = pattern.graph, pattern.angles
    flow = compute_flow(graph)
    measured = flow.order
    options = [[(theta, a) for theta in range(4) for a in ((0, 1) if j in graph.input_nodes else (0,))] for j in measured]
    weight = 1.0 / float(np.prod([len(opt) for opt in options]))

    checkpoints = ["prepared", *(f"round:{i}" for i in range(1, len(measured) + 1)), "delivered"]
    views: dict[str, dict[tuple, np.ndarray]] = {cp: {} for cp in checkpoints}

    def accumulate(checkpoint: str, label: tuple, matrix: np.ndarray) -> None:
        bucket = views[checkpoint]
        bucket[label] = bucket[label] + matrix if label in bucket else matrix

    for combo in product(*options):
        secret = dict(zip(measured, combo))
        state = built_secret_state(graph, input_state, secret)
        accumulate("prepared", (), weight * state.density(range(graph.num_nodes)).matrix)

        def a_of(j: int) -> int:
            return secret[j][1]

        def walk(state: PureState, idx: int, label: tuple, w: float, s_bits: dict[int, int]) -> None:
            if idx == len(measured):
                accumulate("delivered", label, np.array([[w]], dtype=complex))
                return
            j = measured[idx]
            theta_j, a_j = secret[j]
            phi_c = flow.adapted_angle(j, angles[j], s_bits.__getitem__, a_of)
            delta_j = octant(phi_c + flip(theta_j, a_j))
            new_label = label + (delta_j % 4,)
            for s in (0, 1):
                p_branch, post = state.project_rotated(0, delta_j, s)
                if p_branch < 1e-14:
                    continue
                w_branch = w * p_branch
                accumulate(f"round:{idx + 1}", new_label, w_branch * post.density(range(graph.num_nodes - idx - 1)).matrix)
                walk(post, idx + 1, new_label, w_branch, {**s_bits, j: s})

        walk(state, 0, (), weight, {})

    for i, checkpoint in enumerate(checkpoints[:len(measured)]):
        live = np.arange(2 ** (graph.num_nodes - i)) >> (graph.num_nodes - len(measured))
        mask = live[:, None] == live[None, :]
        views[checkpoint] = {label: matrix * mask for label, matrix in views[checkpoint].items()}

    return views


def class_label(code: int, n_rounds: int) -> tuple[int, ...]:
    """The label of class `code` after n_rounds rounds: its base-4 digits, the first round's most significant."""
    return tuple((code >> 2 * (n_rounds - 1 - k)) & 3 for k in range(n_rounds))


def labeled_classes(classes: np.ndarray) -> dict[tuple, np.ndarray]:
    """A checkpoint's (4^i, d, d) class array as the label dict the walked enumeration files: label -> matrix."""
    n_rounds = (len(classes).bit_length() - 1) // 2
    if len(classes) != 4 ** n_rounds:
        raise ValueError(f"{len(classes)} classes are not a power of 4")
    return {class_label(code, n_rounds): matrix for code, matrix in enumerate(classes)}


def labelwise_view_distance(a: dict[tuple, np.ndarray], b: dict[tuple, np.ndarray]) -> float:
    """harness.view_distance, one weighted_trace_norm call per label, a zero matrix for a label one side lacks."""
    total = 0.0
    for label in set(a) | set(b):
        ma = a.get(label)
        mb = b.get(label)
        if ma is None:
            ma = np.zeros_like(mb)
        if mb is None:
            mb = np.zeros_like(ma)
        total += weighted_trace_norm(ma, mb)
    return total


def graph_state_prepared_rows(graph: BrickworkGraph, input_state: PureState) -> np.ndarray:
    """harness._prepared_rows as it was while the layout held no CZ sign: the graph state built once per view.

    The protocol's own graph state, unpadded, is laid out on a QuantumSystem
    (input_system, graph_state) for every view, and row c at basis index i
    reads it at i XORed by the flipped nodes, times e^(i pi t / 4), t the
    pad octant on the measured nodes plus 4 where the flipped nodes'
    neighbourhoods hold an odd number of ones. Rows and weights are as
    harness._prepared_rows lays them out.
    """
    n_nodes, measured = graph.num_nodes, graph.flow.order
    system, ref_labels = input_system(input_state, ["server"] * graph.n_wires)
    node_label: dict[int, str] = {}
    graph_state(system, graph, node_label)
    base = system.state_of([node_label[j] for j in range(1, n_nodes + 1)] + ref_labels).amps.reshape(2 ** n_nodes, -1)

    theta, a = _pad_layout(graph, measured)
    n_pads = 4 ** len(measured)
    assignment = np.arange(len(theta)) // n_pads
    flips = a[::n_pads]
    index = np.arange(2 ** n_nodes)
    node_bits = (index[:, None] >> (n_nodes - np.arange(1, n_nodes + 1))) & 1
    neighbours = np.array([[v in graph.neighbors(j) for v in range(1, n_nodes + 1)] for j in measured], dtype=np.int64)
    x_index = index ^ (flips @ (1 << (n_nodes - np.array(measured))))[:, None]
    z_bit = (flips @ neighbours @ node_bits.T) % 2
    pad = np.where(a == 1, -theta, theta)
    phase = (pad @ node_bits[:, np.array(measured) - 1].T + 4 * z_bit[assignment]) % 8
    rows = base[x_index[assignment]] * (np.exp(1j * np.pi / 4 * phase) / np.sqrt(len(theta)))[:, :, None]
    return rows.reshape(len(theta), -1)


def full_gram_class_matrices(rows: np.ndarray, code: np.ndarray, n_classes: int, n_live: int, n_dephased: int) -> np.ndarray:
    """harness._class_matrices as it was before it computed only the diagonal blocks: the full Gram product, then the mask.

    Each class's whole (2^n_live, 2^n_live) matrix is multiplied, in the
    same _GRAM_CHUNK chunks, and the entries whose row and column differ on
    the n_dephased leading live nodes are zeroed afterwards.
    """
    counts = np.bincount(code, minlength=n_classes)
    if len(counts) != n_classes:
        raise ValueError(f"class codes run past the {n_classes} classes")
    present = np.flatnonzero(counts)
    size = counts[present[0]]
    if (counts[present] != size).any():
        raise ValueError(f"the {len(present)} classes of {len(code)} rows are not all the same size")
    order = np.argsort(code, kind="stable").reshape(len(present), size)
    dim, width = 2 ** n_live, rows.shape[1]
    part = min(size, max(1, _GRAM_CHUNK // width))
    step = max(1, _GRAM_CHUNK // (part * width))
    matrices = np.zeros((len(present), dim, dim), dtype=complex)
    for k in range(0, len(present), step):
        for start in range(0, size, part):
            group = rows[order[k:k + step, start:start + part]].reshape(-1, part, dim, width // dim)
            group = group.transpose(0, 2, 1, 3).reshape(len(group), dim, -1)
            matrices[k:k + step] += group @ group.conj().transpose(0, 2, 1)
    if n_dephased:
        live = np.arange(dim) >> (n_live - n_dephased)
        matrices *= live[:, None] == live[None, :]
    complete = np.zeros((n_classes, dim, dim), dtype=complex)
    complete[present] = matrices
    return complete


def project_first_with_temporary(rows: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """harness._project_first as it was with the turned half held in a temporary of its own."""
    psi = rows.reshape(len(rows), 2, -1)
    turned = psi[:, 1] * _PHASE_CONJ[delta][:, None]
    out = np.empty((2, *turned.shape), dtype=complex)
    np.add(psi[:, 0], turned, out=out[0])
    np.subtract(psi[:, 0], turned, out=out[1])
    out /= sqrt(2)
    return out.reshape(2 * len(rows), -1)


class ComposedAnswers:
    """OracleLedger.delta and output_keys composed from the rules on every call, from the ledger's own dicts.

    delta is blind_angle(corrected_angle, node_r, node_theta, node_flip) and
    the keys Flow.output_key, with every mask r, corrected outcome s and flip
    a rebuilt from the filed secrets whenever a rule asks for one; nothing is
    kept between calls. A missing secret, chain or outcome raises KeyError.
    """

    def __init__(self, ledger: OracleLedger):
        self.ledger = ledger
        graph = ledger.pattern.graph
        self.inputs, self.survivor, self.clients = graph.input_nodes, graph.survivor, range(1, ledger.n_clients + 1)

    def flip(self, node: int) -> int:
        return self.ledger.secrets[("a", node)] if node in self.inputs else 0

    def r(self, node: int) -> int:
        return parity(self.ledger.secrets[("r", node, k)] for k in self.clients)

    def s(self, node: int) -> int:
        return self.ledger.outcomes[node] ^ self.r(node)

    def theta(self, node: int) -> int:
        shares = [self.ledger.secrets[("theta", node, k)] for k in self.clients]
        return theta_input(shares, self.survivor(node), self.ledger.chain_t[node], self.flip(node))

    def delta(self, node: int) -> int:
        corrected = self.ledger.flow.adapted_angle(node, self.ledger.pattern.angles[node], self.s, self.flip)
        return blind_angle(corrected, self.r(node), self.theta(node), self.flip(node))

    def output_keys(self, node: int) -> tuple[int, int]:
        return self.ledger.flow.output_key(node, self.s, self.flip)


def file_one_by_one(ledger: OracleLedger, tags: Sequence[tuple], rows: Sequence[Sequence[int]], modulus: int) -> None:
    """OracleLedger.register_shares as a loop of single filings, each checked as register_share checked it alone.

    Each secret's piece count and modulus are checked, then ledger.file
    files its value or refuses a secret already held; the secrets before a
    refused one stay filed.
    """
    for tag, values in zip(tags, rows):
        if len(values) != ledger.n_clients:
            raise ValueError(f"{len(values)} pieces for {ledger.n_clients} clients")
        if modulus not in (2, 8):
            raise ValueError("share modulus must be 2 (bits) or 8 (octants)")
        ledger.file(tag, sum(values) % modulus)
