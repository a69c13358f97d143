"""Full protocol runtime: parties, registers, messages, and the run driver.

Parties are the n clients ("client:1".."client:n"), the untrusted "server",
the trusted classical "oracle", and "environment" for reference qubits that
no party touches. All quantum state lives in one QuantumSystem that tracks
which party owns each qubit; sending a qubit is an ownership transfer, so a
sender structurally cannot keep a copy.

A run follows four phases in a fixed order: secret setup and preparation
(pads, test copies, verification, preparation chains), entangling, the
measurement rounds, and output delivery. Every classical message goes
through the Transcript, which the harness inspects; an honest run logs
each node's copy tests, its pad flips, each padded input's angle and each
round's mask bits as one entry. Its randomness is drawn before its first
step, in the four generator calls of its DrawPlan.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .brickwork import BrickworkGraph, MeasurementPattern, graph_state, input_system, qubit_label, read_outputs
from .oracle import OracleLedger, a_tag, close_share_rows, close_shares, judge_copy_tests, r_tag, theta_tag
from .quantum import DensityMatrix, PureState, QuantumSystem, flip, plus_state
from .rsp import closed_form_chain

VARIANTS = (
    "QubitTransfer",
    "ShareDistribution",
    "OutcomeVector",
    "DeltaAnnounce",
    "ResultBroadcast",
    "OutputQubit",
    "OutputKeys",
    "Abort",
)


class Message(NamedTuple):
    """One transcript row; a named tuple, as an honest run records thousands."""

    seq: int
    sender: str
    receiver: str
    variant: str
    payload: dict

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)


class Transcript:
    """Ordered log of every classical message exchanged during a run.

    It holds Messages and deferred entries in order, a HandOut per stack of
    secrets handed out together and a CopyTest per node's copy tests. An
    entry reserves its messages' seqs when it is deferred, and reading
    `messages` builds them, once, in place. So every reader (visible_to,
    to_jsonl) sees the log as if each message was recorded when sent.
    `counts` (messages per variant) and len() are exact without building
    anything.
    """

    def __init__(self):
        self._messages: list[Message] = []
        # deferred entries as (first seq, entry), and the Messages recorded
        # after the first of them, in order; empty whenever all are built
        self._pending: list[Message | tuple[int, HandOut | CopyTest]] = []
        self.counts: dict[str, int] = dict.fromkeys(VARIANTS, 0)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def record(self, sender: str, receiver: str, variant: str, payload: dict) -> Message:
        counts = self.counts
        if variant not in counts:
            raise ValueError(f"unknown message variant {variant!r}")
        msg = Message(self._size, sender, receiver, variant, payload)
        self._size += 1
        counts[variant] += 1
        (self._pending or self._messages).append(msg)
        return msg

    def defer(self, entry: HandOut | CopyTest) -> None:
        """Log an entry whose messages are built when the transcript is read."""
        self._pending.append((self._size, entry))
        for variant, count in entry.counts().items():
            self.counts[variant] += count
            self._size += count

    @property
    def messages(self) -> list[Message]:
        """Every message in seq order; deferred entries are built on the first read after them."""
        if self._pending:
            for item in self._pending:
                if isinstance(item, Message):
                    self._messages.append(item)
                else:
                    seq, entry = item
                    self._messages.extend(entry.messages(seq))
            self._pending.clear()
        return self._messages

    def visible_to(self, parties: set[str]) -> list[Message]:
        """Messages a set of parties sees: sent, received, or broadcast."""
        out = []
        for m in self.messages:
            if m.sender in parties or m.receiver in parties or m.receiver == "all":
                out.append(m)
        return out

    def to_jsonl(self) -> str:
        messages = self.messages
        return "\n".join(m.to_json() for m in messages) + ("\n" if messages else "")


def share_payloads(tag: tuple, values: list[int], modulus: int) -> list[dict]:
    """The payload of each piece of one secret, piece k held by client k."""
    return [{"owner": owner, "tag": list(tag), "value": value, "modulus": modulus} for owner, value in enumerate(values, 1)]


@dataclass(frozen=True)
class AbortInfo:
    stage: str
    node: int
    client: int
    reason: str


class ServerHandle:
    """The adversary's interface: act on server-owned qubits."""

    def __init__(self, system: QuantumSystem, node_label: dict[int, str]):
        self._system = system
        self._node_label = node_label

    def _label(self, node: int) -> str:
        lab = self._node_label[node]
        if self._system.owner.get(lab) != "server":
            raise PermissionError(f"server does not hold node {node}")
        return lab

    def x(self, node: int) -> None:
        self._system.apply_x(self._label(node))

    def z(self, node: int) -> None:
        self._system.apply_z(self._label(node))

    def h(self, node: int) -> None:
        self._system.apply_h(self._label(node))

    def z_rot(self, node: int, theta: int) -> None:
        self._system.apply_z_rot(self._label(node), theta)

    def cz(self, a: int, b: int) -> None:
        self._system.apply_cz(self._label(a), self._label(b))

    def density(self, nodes: list[int]) -> DensityMatrix:
        """Reduced state of the server's own qubits; its register, its right."""
        return self._system.density_of([self._label(j) for j in nodes])


@dataclass
class ServerStrategy:
    """Optional deviations a malicious-but-structured server can apply."""

    after_entangle: Callable[[ServerHandle], None] | None = None
    before_measurement: Callable[[ServerHandle, int], None] | None = None
    before_output_send: Callable[[ServerHandle], None] | None = None


@dataclass
class ProtocolRun:
    """What one run in any of the five worlds returns.

    The full protocol, the three rewrites (whose transcript is empty: they
    exchange no messages) and the coalition simulator all fill it in.
    output_state is None if the run aborted. ledger is the oracle's ledger
    of the run, which every world keeps; the run's announcements, chain_t
    (node -> target register -> bit), delta and b (node -> value), are the
    ledger's own books, so each exists once.
    """

    transcript: Transcript
    system: QuantumSystem
    ledger: OracleLedger
    keys: dict[int, tuple[int, int]]
    output_state: PureState | None
    abort: AbortInfo | None = None
    chain_t = property(lambda self: self.ledger.chain_t)
    delta = property(lambda self: self.ledger.announced)
    b = property(lambda self: self.ledger.outcomes)

    @property
    def aborted(self) -> bool:
        return self.abort is not None


def _client(k: int) -> str:
    return f"client:{k}"


COPY_TEST_FAILED = "test copy failed its declared basis"


class HandOut(NamedTuple):
    """A stack of handed-out secrets as one transcript entry, as an honest
    run hands out its n pad flips, each padded input's angle and each
    round's n mask bits. Secret s is client owners[s]'s, tagged tags[s],
    with context contexts[s] and piece k of values[s] for client k.
    `messages` builds, secret by secret, the owner's piece for each other
    client, then each holder's submission to the oracle; the messages of a
    piece share one payload dict."""

    owners: Sequence[int]
    tags: list[tuple]
    values: list[list[int]]
    modulus: int
    contexts: list[dict]

    def counts(self) -> dict[str, int]:
        """Messages per variant, in closed form."""
        return {"ShareDistribution": len(self.values) * (2 * len(self.values[0]) - 1)}

    def messages(self, seq: int) -> list[Message]:
        """The stack's messages, numbered from seq."""
        out: list[Message] = []
        for owner, tag, values, context in zip(self.owners, self.tags, self.values, self.contexts):
            owner, pieces = _client(owner), [(_client(k), share) for k, share in enumerate(share_payloads(tag, values, self.modulus), 1)]
            for sender, receiver, share in [(owner, holder, share) for holder, share in pieces if holder != owner] + [(holder, "oracle", share) for holder, share in pieces]:
                out.append(Message(seq + len(out), sender, receiver, "ShareDistribution", {**context, "share": share}))
        return out


class CopyTest(NamedTuple):
    """One measured node's copy tests as one transcript entry: its judged
    batches of m copies, batch first + b being client contributors[b]'s.

    The arrays stack batches on their first axis; an honest run's entries
    all hold the run's arrays, and Session.offer_test_copies logs a stack
    of one. shares (.., m, n) has row i closing copy i's declared angle mod
    8, and copy i is sent as |+_prepared[.., i]>; survivors, opened and
    outcomes (.., m - 1) are oracle.judge_copy_tests's verdict. Every batch
    but the last passed; failed says whether the last failed. `counts`
    reads only ints. `messages` converts the entry's rows once and builds,
    batch by batch and in sending order: the contributor's pieces of each
    angle to its peers, the m QubitTransfers (with their amplitudes under
    debug_secrets), the survivor, each opened angle's pieces to the server,
    the outcomes, then the Abort or the survivor's pieces to the oracle.
    The messages of a share carry one payload dict.
    """

    node: int
    contributors: list[int]
    first: int
    shares: np.ndarray
    prepared: np.ndarray
    survivors: np.ndarray
    opened: np.ndarray
    outcomes: np.ndarray
    failed: bool
    debug_secrets: bool

    def counts(self) -> dict[str, int]:
        """Messages per variant, in closed form."""
        batches, (_, m, n) = len(self.contributors), self.shares.shape
        return {
            "ShareDistribution": batches * ((n - 1) * m + n * (m - 1)) + n * (batches - self.failed),
            "QubitTransfer": batches * m,
            "OutcomeVector": 2 * batches,
            "Abort": int(self.failed),
        }

    def messages(self, seq: int) -> list[Message]:
        """The stack's messages, numbered from seq."""
        node = self.node
        rows = slice(self.first, self.first + len(self.contributors))
        shares, prepared, survivors, opened, outcomes = (a[rows].tolist() for a in (self.shares, self.prepared, self.survivors, self.opened, self.outcomes))
        names = {owner: _client(owner) for owner in range(1, self.shares.shape[2] + 1)}
        failing = len(self.contributors) - 1 if self.failed else -1
        out: list[Message] = []

        def send(sender: str, receiver: str, variant: str, payload: dict) -> None:
            out.append(Message(seq + len(out), sender, receiver, variant, payload))

        for b, k in enumerate(self.contributors):
            where = {"node": node, "contributor": k}
            payloads = [share_payloads(theta_tag(node, k, i), row, 8) for i, row in enumerate(shares[b])]
            for i, pieces in enumerate(payloads):
                context = {"kind": "copy-angle", **where, "copy": i}
                for share in pieces:
                    if share["owner"] != k:
                        send(names[k], names[share["owner"]], "ShareDistribution", {**context, "share": share})
            for i, theta in enumerate(prepared[b]):
                payload = {**where, "copy": i, "purpose": "test-copy", "label": f"copy:{node}:{k}:{i}"}
                if self.debug_secrets:
                    payload["amplitudes"] = _amplitude_pairs(plus_state(theta).amps)
                send(names[k], "server", "QubitTransfer", payload)
            send("server", "all", "OutcomeVector", {"kind": "survivor", **where, "survivor": survivors[b]})
            for i in opened[b]:
                context = {"kind": "opened-angle", **where, "copy": i}
                for share in payloads[i]:
                    send(names[share["owner"]], "server", "ShareDistribution", {**context, "share": share})
            send("server", "all", "OutcomeVector", {"kind": "verification", **where, "outcomes": list(zip(opened[b], outcomes[b]))})
            if b == failing:
                send("server", "all", "Abort", asdict(AbortInfo("verification", node, k, COPY_TEST_FAILED)))
            else:
                context = {"kind": "survivor-angle", **where, "copy": survivors[b]}
                for share in payloads[survivors[b]]:
                    send(names[share["owner"]], "oracle", "ShareDistribution", {**context, "share": share})
        return out


def contributors(graph: BrickworkGraph, node: int) -> list[int]:
    """Clients that offer test copies for a node; an input's owner contributes the padded input itself."""
    return [k for k in range(1, graph.n_wires + 1) if k != node] if node in graph.input_nodes else list(range(1, graph.n_wires + 1))


def message_counts(n_wires: int, n_columns: int, m_copies: int) -> dict[str, int]:
    """Messages per variant of an honest run_full_protocol on an n_wires x n_columns graph.

    Counted from the run's steps. With n wires there are M = n (n_columns
    - 1) measured nodes, I of them inputs (n, or 0 on one column), and
    B = nM - I copy batches (contributors per measured node) of m copies.
    Each shared secret costs 2n - 1 ShareDistributions: its n - 1 pieces to
    peers and n submissions to the oracle. The secrets are n pad flips, I
    padded-input angles and nM mask bits. A copy batch sends each angle's
    pieces to peers, opens m - 1 angles to the server and submits the
    survivor's: m (2n - 1) ShareDistributions, m QubitTransfers and two
    OutcomeVectors (survivor, verification). Each measured node adds a
    chain OutcomeVector, a DeltaAnnounce and a ResultBroadcast, and each
    padded input a QubitTransfer; each output off the input column an
    OutputQubit and its OutputKeys. It takes the shape, not a graph, so
    that cli.validate can bound a config before building its graph.
    """
    n, m = n_wires, m_copies
    measured = n * (n_columns - 1)
    inputs = outputs = n if n_columns > 1 else 0
    batches = n * measured - inputs
    counts = dict.fromkeys(VARIANTS, 0)
    counts.update(
        ShareDistribution=(2 * n - 1) * (n + inputs + n * measured + m * batches),
        QubitTransfer=m * batches + inputs,
        OutcomeVector=2 * batches + measured,
        DeltaAnnounce=measured,
        ResultBroadcast=measured,
        OutputQubit=outputs,
        OutputKeys=outputs,
    )
    return counts


@dataclass
class Session:
    """The one writer of every message of a run, real or simulated.

    Each step files what it sends in the ledger, None where a simulator
    plays the oracle. debug_secrets adds the amplitudes of unentangled
    qubits to QubitTransfer and OutputQubit payloads. rng is drawn from by
    offer_test_copies only. A stack of hand-outs is one deferred HandOut,
    a node's copy tests one deferred CopyTest, and each share's payload
    dict is shared by every message that carries it.
    """

    system: QuantumSystem
    transcript: Transcript
    rng: np.random.Generator
    n_clients: int
    ledger: OracleLedger | None = None
    debug_secrets: bool = False

    def hand_out(self, owners: Sequence[int], tags: list[tuple], values: list[list[int]], modulus: int, contexts: list[dict]) -> None:
        """Each client owners[s] hands out its secret tags[s], given as its n
        share values values[s], piece k for client k: every other client
        gets its piece, each holder submits its piece to the oracle, and the
        ledger files the stack's values in one register_shares call."""
        self.transcript.defer(HandOut(owners, tags, values, modulus, contexts))
        if self.ledger is not None:
            self.ledger.register_shares(tags, values, modulus)

    def send_padded_input(self, node: int, a: int, theta: int, pieces: list[int]) -> None:
        """The input's owner pads qubit in:node by X^a Z(theta), hands out theta from its n - 1 drawn pieces and hands the qubit to the server."""
        self.system.apply_z_rot(f"in:{node}", theta)
        if a:
            self.system.apply_x(f"in:{node}")
        self.hand_out([node], [theta_tag(node, node, 0)], [close_shares(theta, pieces, 8)], 8, [{"kind": "pad-angle", "node": node}])
        self.system.transfer(f"in:{node}", "server")
        payload = _qubit_payload(self.system, f"in:{node}", {"node": node, "purpose": "padded-input"}, self.debug_secrets)
        self.transcript.record(_client(node), "server", "QubitTransfer", payload)

    def announce_chain(self, node: int, t: dict[int, int]) -> None:
        """The server broadcasts a node's chain outcomes t (target register -> bit), and the ledger files them."""
        self.transcript.record("server", "all", "OutcomeVector", {"kind": "chain", "node": node, "t": sorted(t.items())})
        if self.ledger is not None:
            self.ledger.register_chain(node, t)

    def announce_angle(self, node: int, delta: int) -> None:
        """The oracle announces the angle delta at which the server measures a node, and the ledger files it."""
        self.transcript.record("oracle", "server", "DeltaAnnounce", {"node": node, "delta": delta})
        if self.ledger is not None:
            self.ledger.register_angle(node, delta)

    def broadcast_result(self, node: int, b: int) -> None:
        """The server broadcasts a node's measurement outcome b, and the ledger files it."""
        self.transcript.record("server", "all", "ResultBroadcast", {"node": node, "b": b})
        if self.ledger is not None:
            self.ledger.register_outcome(node, b)

    def send_output(self, node: int, client: int, label: str, keys: tuple[int, int]) -> None:
        """The server sends output qubit `label` to its client, then the oracle the client its keys (s_x, s_z)."""
        payload = _qubit_payload(self.system, label, {"node": node, "label": label}, self.debug_secrets)
        self.transcript.record("server", _client(client), "OutputQubit", payload)
        self.transcript.record("oracle", _client(client), "OutputKeys", {"node": node, "s_x": keys[0], "s_z": keys[1]})

    def offer_test_copies(self, node: int, contributor: int, declared: list[int], prepared: list[int]) -> int | AbortInfo:
        """One contributor's copies for a node, through the copy test, drawing as it goes.

        The contributor shares each copy's declared angle among the clients,
        all (m, n - 1) random pieces in one draw and each row closed to its
        angle mod 8, and hands the server copy i as |+_prepared[i]>; an
        honest contributor passes the same list twice. The survivor and the
        opened copies' uniforms are drawn next, and oracle.judge_copy_tests
        opens and measures all but the survivor in closed form. The test is
        logged as a CopyTest stack of one batch. The coalition simulator,
        protocol1-detection and A4 test copies this way; run_full_protocol
        judges all its copy tests at once from its drawn block. Returns the
        survivor's prepared angle, or the AbortInfo of the failed test.
        """
        m = len(declared)
        if m < 2 or len(prepared) != m:
            raise ValueError("need at least 2 copies to test any, one prepared angle each")
        rows = [close_shares(theta, row, 8) for theta, row in zip(declared, self.rng.integers(8, size=(m, self.n_clients - 1)).tolist())]
        survivor = int(self.rng.integers(m))
        shares, angles = np.array([rows]), np.array([prepared])
        opened, outcomes = judge_copy_tests(shares[0], angles[0], survivor, self.rng.random(m - 1))
        test = CopyTest(node, [contributor], 0, shares, angles, np.array([survivor]), opened[None], outcomes[None], bool(np.count_nonzero(outcomes)), self.debug_secrets)
        abort = self.log_copy_tests(test, [survivor], [rows[survivor]])
        return prepared[survivor] if abort is None else abort

    def log_copy_tests(self, test: CopyTest, survivors: list[int], rows: list[list[int]]) -> AbortInfo | None:
        """Log one node's judged copy tests as one CopyTest entry, whose messages are built when the transcript is read.

        survivors and rows, indexed as the entry's arrays, hold each batch's
        survivor and its share values as ints; the oracle files each passed
        survivor's declared angle. No copy becomes a register, as the
        survivor's chain is in closed form too. Returns the AbortInfo of a
        failed last batch, else None.
        """
        self.transcript.defer(test)
        if self.ledger is not None:
            passed = slice(test.first, test.first + len(test.contributors) - test.failed)
            self.ledger.register_shares([theta_tag(test.node, k, s) for k, s in zip(test.contributors, survivors[passed])], rows[passed], 8)
        if test.failed:
            return AbortInfo("verification", test.node, test.contributors[-1], COPY_TEST_FAILED)
        return None


class Block(NamedTuple):
    """One field of a DrawPlan: the values cut of generator call `call`, reshaped to shape."""

    call: int
    cut: slice
    shape: tuple[int, ...]


class DrawPlan(NamedTuple):
    """The four generator calls of an honest run, and the block of them each field is.

    The calls are integers(8), integers(2), integers(m_copies) and random(),
    in this order, of sizes `sizes`. Each field is a contiguous block of
    its call, the blocks of a call following one another as listed. With M
    measured nodes, I of them inputs, and B copy batches of m copies:
    - integers(8): pad_theta (n,), copy_angles (B, m), copy_pieces (B, m,
      n - 1) and input_pieces (I, n - 1);
    - integers(2): pad_a (n,), flip_pieces (n, n - 1) and masks (M, n, n),
      row k of a round [r, pieces...];
    - integers(m): survivors (B,);
    - random(): tests (B, m - 1), chains (M, n - 1) and measurements (M,).
    Batches run over the measured nodes 1..M and each node's contributors
    in order, and rounds over the flow order, which is 1..M too.
    """

    bounds: tuple[int, int, int]
    sizes: tuple[int, int, int, int]
    pad_theta: Block
    copy_angles: Block
    copy_pieces: Block
    input_pieces: Block
    pad_a: Block
    flip_pieces: Block
    masks: Block
    survivors: Block
    tests: Block
    chains: Block
    measurements: Block

    def draw(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Make the four calls, in order, and cut every field from its call's values."""
        calls = [rng.integers(bound, size=size) for bound, size in zip(self.bounds, self.sizes)] + [rng.random(self.sizes[3])]
        return {name: calls[block.call][block.cut].reshape(block.shape) for name, block in zip(self._fields[2:], self[2:])}


@lru_cache(maxsize=32)
def draw_plan(n_wires: int, n_columns: int, m_copies: int) -> DrawPlan:
    """The DrawPlan of an honest n_wires x n_columns run with m_copies copies per batch.

    The measured nodes are 1..M, the first n of them inputs, which the
    contributors of each depend on; so the shape fixes the plan.
    """
    n, m = n_wires, m_copies
    measured = n * (n_columns - 1)
    inputs = n if measured else 0
    batches = n * measured - inputs
    layout = (
        {"pad_theta": (n,), "copy_angles": (batches, m), "copy_pieces": (batches, m, n - 1), "input_pieces": (inputs, n - 1)},
        {"pad_a": (n,), "flip_pieces": (n, n - 1), "masks": (measured, n, n)},
        {"survivors": (batches,)},
        {"tests": (batches, m - 1), "chains": (measured, n - 1), "measurements": (measured,)},
    )
    blocks, sizes = {}, []
    for call, fields in enumerate(layout):
        size = 0
        for name, shape in fields.items():
            blocks[name] = Block(call, slice(size, size + math.prod(shape)), shape)
            size += math.prod(shape)
        sizes.append(size)
    return DrawPlan((8, 2, m), tuple(sizes), **blocks)


def run_full_protocol(
    pattern: MeasurementPattern,
    input_state: PureState,
    rng: np.random.Generator,
    *,
    m_copies: int = 10,
    debug_secrets: bool = False,
    server_strategy: ServerStrategy | None = None,
) -> ProtocolRun:
    """Execute one full run and return everything each party ended up with.

    input_state holds client k's input qubit at position k-1 plus optional
    trailing reference qubits that stay with the environment. m_copies is
    the batch size for the copy-based honesty test.

    The run's randomness is drawn up front, in the four generator calls of
    its draw_plan; the steps read each field of the plan as a basic slice
    of its call's values, and the physics draws nothing. A run consumes its
    whole plan, whether it aborts or not. All copy tests are closed and
    judged at once (judge_copy_tests) and logged a node at a time up to a
    failed batch. Every message is sent by a Session writer.
    """
    graph = pattern.graph
    n = graph.n_wires
    if n < 2:
        raise ValueError("protocol needs at least 2 clients")
    if m_copies < 2:
        raise ValueError("m_copies must be >= 2: the copy test opens all copies but one")
    system, ref_labels = input_system(input_state, [_client(k) for k in range(1, n + 1)])

    ledger = OracleLedger(pattern)
    transcript = Transcript()
    session = Session(system, transcript, rng, n, ledger, debug_secrets)
    strategy = server_strategy or ServerStrategy()
    drawn = draw_plan(n, graph.n_columns, m_copies).draw(rng)

    # ----------------------------------------------------------- secrets
    clients = range(1, n + 1)
    flips = drawn["pad_a"]
    pad_a = dict(enumerate(flips.tolist(), 1))
    pad_theta = dict(enumerate(drawn["pad_theta"].tolist(), 1))
    flip_shares = close_share_rows(flips, drawn["flip_pieces"], 2).tolist()
    session.hand_out(clients, [a_tag(k) for k in clients], flip_shares, 2, [{"kind": "pad-flip", "client": k} for k in clients])

    # ------------------------------------------------------- preparation
    # every copy test at once, one row per (node, contributor) batch, each
    # honest copy at its declared angle; `stop` is the first failed batch,
    # kept and chosen each batch's survivor row and angle, gathered at once
    angles = drawn["copy_angles"]
    shares = close_share_rows(angles, drawn["copy_pieces"], 8)
    survivors = drawn["survivors"]
    opened, outcomes = judge_copy_tests(shares, angles, survivors, drawn["tests"])
    stop = int(outcomes.argmax()) // (m_copies - 1) if np.count_nonzero(outcomes) else len(survivors)
    batches, survivor_list = np.arange(len(survivors)), survivors.tolist()
    kept, chosen = shares[batches, survivors].tolist(), angles[batches, survivors].tolist()
    input_pieces = iter(drawn["input_pieces"].tolist())
    chain_uniforms = drawn["chains"].tolist()

    # chains in closed form: an input's padded qubit turns by the rest of its
    # new pad (its own share zeroed), any other node gets |+_theta>
    node_label: dict[int, str] = {}
    batch = 0
    for pos, j in enumerate(graph.measured_nodes):
        tested = contributors(graph, j)
        end = min(batch + len(tested), stop + 1)
        tested = tested[: end - batch]
        test = CopyTest(j, tested, batch, shares, angles, survivors, opened, outcomes, end > stop, debug_secrets)
        abort = session.log_copy_tests(test, survivor_list, kept)
        if abort is not None:
            return ProtocolRun(transcript, system, ledger, {}, None, abort)
        prepared = dict(zip(tested, chosen[batch:end]))
        batch = end
        if j in graph.input_nodes:
            session.send_padded_input(j, pad_a[j], pad_theta[j], next(input_pieces))
        t, theta = closed_form_chain([prepared.get(k, 0) for k in clients], graph.survivor(j), pad_a.get(j, 0), chain_uniforms[pos])
        node_label[j] = qubit_label(graph, j)
        if j in graph.input_nodes:
            system.apply_z_rot(node_label[j], flip(theta, pad_a[j]))
        else:
            system.add_register(plus_state(theta), [node_label[j]], ["server"])
        session.announce_chain(j, t)

    # node_label gains the outputs: fresh |+> held by the server or, on a
    # single-column graph, the inputs. CZs are applied on first touch, so
    # the hooks see the full graph state through any handle call, while an
    # honest run only ever holds about one column plus the references.
    graph_state(system, graph, node_label)
    handle = ServerHandle(system, node_label)
    if strategy.after_entangle:
        strategy.after_entangle(handle)

    # -------------------------------------------------- measurement rounds
    # each round's mask bits, row k [r, pieces...] closed to r
    masks = drawn["masks"]
    mask_shares = close_share_rows(masks[..., 0], masks[..., 1:], 2).tolist()
    measure_uniforms = drawn["measurements"].tolist()
    for pos, j in enumerate(ledger.flow.order):
        session.hand_out(clients, [r_tag(j, k) for k in clients], mask_shares[pos], 2, [{"kind": "mask-bit", "node": j, "client": k} for k in clients])
        session.announce_angle(j, ledger.delta(j))
        if strategy.before_measurement:
            strategy.before_measurement(handle, j)
        session.broadcast_result(j, system.measure_rotated(node_label[j], ledger.announced[j], measure_uniforms[pos]))

    # ------------------------------------------------------------ outputs
    if strategy.before_output_send:
        strategy.before_output_send(handle)
    keys = {j: ledger.output_keys(j) for j in graph.output_nodes}
    for j in graph.output_nodes:
        if j not in graph.input_nodes:  # an output that is an input never leaves its owner
            system.transfer(node_label[j], _client(graph.wire_of(j)))
            session.send_output(j, graph.wire_of(j), node_label[j], keys[j])

    output_state = read_outputs(system, graph, node_label, keys, ref_labels)
    return ProtocolRun(transcript, system, ledger, keys, output_state)


def _qubit_payload(system: QuantumSystem, label: str, payload: dict, debug_secrets: bool) -> dict:
    """A sent qubit's payload; in trusted-debug mode only, with its amplitudes, or "entangled"."""
    if debug_secrets:
        amps = system.lone_amplitudes(label)
        payload["amplitudes"] = "entangled" if amps is None else _amplitude_pairs(amps)
    return payload


def _amplitude_pairs(amps: np.ndarray) -> list[list[float]]:
    """A qubit's amplitudes as JSON-ready [re, im] pairs."""
    return [[float(z.real), float(z.imag)] for z in amps]
