import json
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from mpdqc import protocol
from mpdqc.brickwork import MeasurementPattern, build_brickwork, random_pattern, reference_execute
from mpdqc.oracle import OracleLedger, SecretShare, a_tag, r_tag, reconstruct, share_secret, theta_tag
from mpdqc.protocol import (
    COPY_TEST_FAILED,
    VARIANTS,
    AbortInfo,
    QuantumSystem,
    ServerStrategy,
    Session,
    Transcript,
    _qubit_payload,
    contributors,
    message_counts,
    run_full_protocol,
)
from mpdqc.quantum import PureState, octant, plus_state
from reference import EagerSession, EagerTranscript, states_equal

RNG = np.random.default_rng(55)


def random_state(n_qubits: int, rng=RNG) -> PureState:
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return PureState(v / np.linalg.norm(v))


def run_once(n_wires, n_columns, seed, n_ref=0, m_copies=2, **kwargs):
    rng = np.random.default_rng(seed)
    pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
    psi = random_state(n_wires + n_ref, rng)
    run = run_full_protocol(pattern, psi, rng, m_copies=m_copies, **kwargs)
    return pattern, psi, run


# --------------------------------------------------------- quantum system


def test_system_tracks_ownership_and_merging():
    sys_ = QuantumSystem()
    sys_.add_register(PureState.computational("0"), ["a"], ["client:1"])
    sys_.add_register(PureState.computational("0"), ["b"], ["server"])
    assert sys_.labels_of("client:1") == ("a",)
    sys_.transfer("a", "server")
    assert set(sys_.labels_of("server")) == {"a", "b"}
    sys_.apply_h("a")
    sys_.apply_cnot("a", "b")  # merges the two components
    with pytest.raises(ValueError):
        sys_.state_of(["a"])  # entangled with b now
    bell = sys_.state_of(["a", "b"])
    assert bell.fidelity(PureState.computational("00").h(0).cnot(0, 1)) == pytest.approx(1.0)


def test_system_density_of_half_a_bell_pair():
    sys_ = QuantumSystem()
    sys_.add_register(PureState.computational("00").h(0).cnot(0, 1), ["a", "b"], ["server", "server"])
    rho = sys_.density_of(["b"])
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_system_measurement_removes_the_label():
    sys_ = QuantumSystem()
    sys_.add_register(PureState.computational("10"), ["a", "b"], ["server", "server"])
    outcome = sys_.measure_computational("a", np.random.default_rng(0).random())
    assert outcome == 1
    with pytest.raises(KeyError):
        sys_.transfer("a", "client:1")
    assert states_equal(sys_.state_of(["b"]), PureState.computational("0"))


def test_system_rejects_unknown_labels():
    sys_ = QuantumSystem()
    with pytest.raises(KeyError):
        sys_.transfer("ghost", "server")


# ------------------------------------------------------------- end to end


@pytest.mark.parametrize("n_wires,n_columns", [(2, 2), (2, 3), (4, 3)])
def test_protocol_output_matches_direct_execution(n_wires, n_columns):
    for seed in range(3):
        pattern, psi, run = run_once(n_wires, n_columns, seed)
        assert not run.aborted
        expected = reference_execute(pattern, psi, np.random.default_rng(99))
        assert run.output_state.fidelity(expected) >= 1 - 1e-9


def test_protocol_preserves_reference_entanglement():
    pattern, psi, run = run_once(2, 3, seed=11, n_ref=1)
    assert not run.aborted
    expected = reference_execute(pattern, psi, np.random.default_rng(99))
    assert run.output_state.fidelity(expected) >= 1 - 1e-9
    assert run.output_state.num_qubits == 3


def test_single_column_outputs_never_leave_the_clients():
    pattern = MeasurementPattern(build_brickwork(2, 1), {})
    psi = random_state(2)
    run = run_full_protocol(pattern, psi, np.random.default_rng(1), m_copies=2)
    assert not run.aborted
    assert states_equal(run.output_state, psi)
    variants = {m.variant for m in run.transcript.messages}
    assert "OutputQubit" not in variants
    assert run.keys == {1: (0, 0), 2: (0, 0)}


def test_honest_runs_never_abort():
    for seed in range(10):
        _, _, run = run_once(2, 2, seed=seed, m_copies=3)
        assert run.abort is None


# ------------------------------------------------------------- transcript


def test_transcript_is_reproducible():
    _, _, run_a = run_once(2, 3, seed=42)
    _, _, run_b = run_once(2, 3, seed=42)
    assert run_a.transcript.to_jsonl() == run_b.transcript.to_jsonl()


def test_transcript_jsonl_round_trip():
    _, _, run = run_once(2, 2, seed=8)
    lines = run.transcript.to_jsonl().splitlines()
    assert len(lines) == len(run.transcript.messages)
    for i, line in enumerate(lines):
        msg = json.loads(line)
        assert msg["seq"] == i
        assert msg["variant"] in VARIANTS
        assert set(msg) == {"seq", "sender", "receiver", "variant", "payload"}


def test_transcript_rejects_unknown_variants():
    t = Transcript()
    with pytest.raises(ValueError):
        t.record("a", "b", "Telepathy", {})
    assert not t.messages


def test_record_returns_the_numbered_message():
    t = Transcript()
    first = t.record("client:1", "oracle", "ShareDistribution", {"kind": "pad-flip"})
    second = t.record("server", "all", "ResultBroadcast", {"node": 1, "b": 0})
    assert (first.seq, first.variant) == (0, "ShareDistribution")
    assert (second.seq, second.variant, second.sender, second.receiver) == (1, "ResultBroadcast", "server", "all")
    assert t.messages == [first, second]


def test_copy_angles_are_the_scalar_draws_in_node_contributor_copy_order():
    # run_full_protocol draws every copy angle in one sized call; replaying
    # its draws one scalar at a time must give the same angles
    pattern, _, run = run_once(4, 3, seed=71, m_copies=5)
    graph = pattern.graph
    rng = np.random.default_rng(71)
    random_pattern(graph, rng)
    random_state(4, rng)
    for _ in range(graph.n_wires):  # each client's pad angle, first in the run's integers(8) call
        rng.integers(8)
    # the opened copies' pieces go to the server and the survivor's to the
    # oracle: between them, all n pieces of every copy's angle
    pieces: dict[tuple[int, int, int], list[SecretShare]] = {}
    for m in run.transcript.messages:
        if m.payload.get("kind") in ("opened-angle", "survivor-angle"):
            copy = (m.payload["node"], m.payload["contributor"], m.payload["copy"])
            pieces.setdefault(copy, []).append(SecretShare(**m.payload["share"]))
    copies = [(j, k, i) for j in graph.measured_nodes for k in contributors(graph, j) for i in range(5)]
    assert sorted(pieces) == sorted(copies)
    for copy in copies:
        assert reconstruct(pieces[copy]) == int(rng.integers(8)), copy


def test_more_copies_mean_more_traffic():
    _, _, small = run_once(2, 2, seed=3, m_copies=2)
    _, _, large = run_once(2, 2, seed=3, m_copies=5)
    assert len(large.transcript.messages) > len(small.transcript.messages)


@pytest.mark.parametrize("m_copies", [2, 10])
@pytest.mark.parametrize("n_wires,n_columns", [(2, 2), (2, 3), (4, 3), (4, 5)])
def test_message_counts_match_an_honest_run(n_wires, n_columns, m_copies):
    _, _, run = run_once(n_wires, n_columns, seed=16, m_copies=m_copies)
    assert not run.aborted
    # the transcript's own counts are exact before any copy test is built
    expected = message_counts(n_wires, n_columns, m_copies)
    assert run.transcript.counts == expected and len(run.transcript) == sum(expected.values())
    counted = Counter(m.variant for m in run.transcript.messages)
    assert {v: counted[v] for v in VARIANTS} == expected == run.transcript.counts
    assert [m.seq for m in run.transcript.messages] == list(range(len(run.transcript)))


def test_opened_copies_never_become_registers(monkeypatch):
    added = []
    add_register = QuantumSystem.add_register

    def counted(self, state, labels, owners):
        added.append(labels[0])
        return add_register(self, state, labels, owners)

    monkeypatch.setattr(QuantumSystem, "add_register", counted)
    pattern, _, run = run_once(4, 3, seed=17, m_copies=10)
    assert not run.aborted
    # no copy becomes a register: one input register, one chain survivor
    # per measured node off the input column (an input's chain turns the
    # padded input itself), then the 4 graph_state outputs
    assert added == ["in:1", *(f"node:{j}" for j in range(5, 13))]
    assert not [label for label in run.system.owner if label.startswith("copy:")]


def test_an_honest_run_applies_no_chain_gate(monkeypatch):
    # every chain runs in closed form: no CNOT and no computational-basis measurement
    def refuse(*args):
        raise AssertionError("chain gate on a register")

    monkeypatch.setattr(QuantumSystem, "apply_cnot", refuse)
    monkeypatch.setattr(QuantumSystem, "measure_computational", refuse)
    for n_wires, n_columns in [(2, 2), (4, 3)]:
        _, _, run = run_once(n_wires, n_columns, seed=18, n_ref=1)
        assert not run.aborted


def test_the_copy_test_catches_copies_off_their_declared_angles():
    # each batch: client 1 declares one angle for two copies, prepares both
    # `deviation` octants off, and offers them on a fresh two-client session
    rng = np.random.default_rng(9)
    for deviation in (0, 4):
        for _ in range(300):
            theta = int(rng.integers(8))
            prepared = [octant(theta + deviation)] * 2
            session = Session(QuantumSystem(), Transcript(), rng, 2, debug_secrets=True)
            result = session.offer_test_copies(0, 1, [theta] * 2, prepared)
            messages = session.transcript.messages
            sent = [m.payload["amplitudes"] for m in messages if m.variant == "QubitTransfer"]
            assert sent == [[[z.real, z.imag] for z in plus_state(prepared[0]).amps]] * 2
            if deviation == 0:
                # cos^2(0) = 1: the opened copy always passes; the survivor's
                # prepared angle goes on to its chain, and no register is built
                assert result == prepared[0] and not session.system.owner
            else:
                # cos^2(pi/2) = 0: the opened copy always fails and the run aborts
                assert result == AbortInfo("verification", 0, 1, COPY_TEST_FAILED)
                assert (messages[-1].variant, messages[-1].payload) == ("Abort", asdict(result))
                assert not session.system.owner


def test_a_malformed_copy_batch_is_refused():
    # the test opens every copy but the survivor: one copy would pass
    # untested, and each copy needs its prepared angle
    session = Session(QuantumSystem(), Transcript(), np.random.default_rng(2), 2)
    with pytest.raises(ValueError, match="at least 2 copies"):
        session.offer_test_copies(0, 1, [3], [3])
    with pytest.raises(ValueError, match="one prepared angle each"):
        session.offer_test_copies(0, 1, [3, 5], [3])
    assert len(session.transcript) == 0


def _share_values(value, n, modulus, rng) -> list[int]:
    return [piece.value for piece in share_secret(value, n, modulus, rng)]


def test_reading_mid_run_changes_no_message():
    # a read builds the pending copy tests in place; messages recorded and
    # copy tests deferred after it go on numbering from there, and the log
    # is the one a run that was never read early gives
    def run(read_early: bool) -> tuple[Transcript, list]:
        session = Session(QuantumSystem(), Transcript(), np.random.default_rng(8), 3)
        session.hand_out([1], [a_tag(1)], [_share_values(1, 3, 2, session.rng)], 2, [{"kind": "pad-flip", "client": 1}])
        session.offer_test_copies(1, 2, [3, 5, 7], [3, 5, 7])
        early = list(session.transcript.messages) if read_early else []
        session.hand_out([2], [a_tag(2)], [_share_values(0, 3, 2, session.rng)], 2, [{"kind": "pad-flip", "client": 2}])
        session.transcript.record("server", "all", "ResultBroadcast", {"node": 1, "b": 0})
        session.offer_test_copies(2, 3, [0, 4], [0, 4])
        session.transcript.record("server", "all", "ResultBroadcast", {"node": 2, "b": 1})
        return session.transcript, early

    read, early = run(read_early=True)
    unread, _ = run(read_early=False)
    # the pad flip's 2 + 3 pieces; 3 copies: 2 peer pieces each, 3 transfers,
    # 2 outcome vectors, 3 pieces per opened copy and 3 survivor pieces
    assert len(early) == (2 + 3) + (3 * 2 + 3 + 2 + 2 * 3 + 3)
    assert read.messages[: len(early)] == early
    assert [m.seq for m in read.messages] == list(range(len(read))) == list(range(len(unread)))
    assert read.to_jsonl() == unread.to_jsonl()
    assert read.counts == unread.counts


# one step of a four-client session: a hand-out, a recorded message or a copy test
MIXED_STEPS = [
    lambda s: s.hand_out([1], [a_tag(1)], [_share_values(1, 4, 2, s.rng)], 2, [{"kind": "pad-flip", "client": 1}]),
    lambda s: s.hand_out([4], [a_tag(4)], [_share_values(0, 4, 2, s.rng)], 2, [{"kind": "pad-flip", "client": 4}]),
    lambda s: s.offer_test_copies(5, 2, [3, 5, 7], [3, 5, 7]),
    lambda s: s.hand_out([2], [theta_tag(2, 2, 0)], [_share_values(6, 4, 8, s.rng)], 8, [{"kind": "pad-angle", "node": 2}]),
    lambda s: s.transcript.record("server", "all", "ResultBroadcast", {"node": 5, "b": 0}),
    lambda s: s.hand_out([2], [r_tag(5, 2)], [_share_values(1, 4, 2, s.rng)], 2, [{"kind": "mask-bit", "node": 5, "client": 2}]),
    lambda s: s.hand_out([3], [r_tag(5, 3)], [_share_values(1, 4, 2, s.rng)], 2, [{"kind": "mask-bit", "node": 5, "client": 3}]),
    lambda s: s.offer_test_copies(6, 3, [0, 4], [0, 4]),
    lambda s: s.transcript.record("oracle", "server", "DeltaAnnounce", {"node": 6, "delta": 5}),
    # every copy four octants off its declaration: the opened ones fail
    lambda s: s.offer_test_copies(7, 1, [1, 2, 6], [5, 6, 2]),
]
HANDED_OUT = ("pad-flip", "pad-angle", "mask-bit")


@pytest.mark.parametrize("debug_secrets", [False, True])
@pytest.mark.parametrize("read_after", [None, 0, 2, 5, 9])
def test_deferred_hand_outs_equal_the_eager_writer(read_after, debug_secrets):
    # a session that defers its hand-outs and copy tests logs, seq for seq,
    # what the eager reference records as each message is sent, however
    # often it is read along the way; both ledgers file the same secrets
    def run(cls, transcript: Transcript, read: bool):
        pattern = random_pattern(build_brickwork(4, 3), np.random.default_rng(2))
        session = cls(QuantumSystem(), transcript, np.random.default_rng(30), 4, OracleLedger(pattern), debug_secrets)
        early = None
        for i, step in enumerate(MIXED_STEPS):
            step(session)
            if read and i <= read_after:
                early = list(transcript.messages)
                assert len(early) == len(transcript)
        return session, early

    deferred, early = run(Session, Transcript(), read_after is not None)
    eager, _ = run(EagerSession, EagerTranscript(), False)
    got, want = deferred.transcript, eager.transcript
    assert (len(got), got.counts) == (len(want), want.counts)
    assert got.to_jsonl() == want.to_jsonl()
    assert [m.seq for m in got.messages] == list(range(len(want)))
    if early is not None:
        assert got.messages[: len(early)] == early
    # five hand-outs and two surviving copies; the last copy test aborts
    assert got.counts["Abort"] == 1
    assert deferred.ledger.secrets == eager.ledger.secrets and len(deferred.ledger.secrets) == 5 + 2
    # a handed-out piece is one dict: to its holder, then from it to the oracle
    pieces: dict[int, list] = {}
    for m in got.messages:
        if m.payload.get("kind") in HANDED_OUT:
            pieces.setdefault(id(m.payload["share"]), []).append(m)
    assert len(pieces) == 5 * 4
    for msgs in pieces.values():
        assert msgs[-1].receiver == "oracle" and msgs[-1].sender == f"client:{msgs[-1].payload['share']['owner']}"
        assert len(msgs) == 1 or (len(msgs) == 2 and msgs[0].receiver == msgs[1].sender)


def _logged_run(monkeypatch, transcript_cls, shape, m_copies, debug_secrets, read_mid_run):
    """An honest run whose transcript is a transcript_cls, read at every server hook if read_mid_run.

    Returns the run, the reads and the type of each deferred entry, in order.
    """
    made, reads, entries = [], [], []

    class Logged(transcript_cls):
        def __init__(self):
            super().__init__()
            made.append(self)

        def defer(self, entry) -> None:
            entries.append(type(entry).__name__)
            super().defer(entry)

    def read(*_):
        if read_mid_run:
            reads.append(list(made[-1].messages))

    with monkeypatch.context() as patch:
        patch.setattr(protocol, "Transcript", Logged)
        strategy = ServerStrategy(after_entangle=read, before_measurement=read)
        _, _, run = run_once(*shape, seed=[77, *shape, m_copies], m_copies=m_copies, debug_secrets=debug_secrets, server_strategy=strategy)
    assert not run.aborted and made == [run.transcript]
    return run, reads, entries


@pytest.mark.parametrize("debug_secrets", [False, True])
@pytest.mark.parametrize("m_copies", [2, 10])
@pytest.mark.parametrize("shape", [(2, 1), (2, 2), (4, 3), (4, 5), (6, 3)])
def test_stacked_runs_equal_the_eager_writers(monkeypatch, shape, m_copies, debug_secrets):
    # a run logs one CopyTest per measured node and one HandOut for the pad
    # flips, per padded input and per round; whether read mid-run or only at
    # the end, its log is, seq for seq, what the per-batch and per-secret
    # writers of tests/reference.py record as each message is sent
    want, _, _ = _logged_run(monkeypatch, EagerTranscript, shape, m_copies, debug_secrets, False)
    measured = shape[0] * (shape[1] - 1)
    for read_mid_run in (False, True):
        got, reads, entries = _logged_run(monkeypatch, Transcript, shape, m_copies, debug_secrets, read_mid_run)
        # the pad flips, then per measured node its copy tests, followed on
        # an input by its pad angle's hand-out, then one hand-out per round
        inputs = shape[0] if measured else 0
        assert entries == ["HandOut"] + ["CopyTest", "HandOut"] * inputs + ["CopyTest"] * (measured - inputs) + ["HandOut"] * measured
        assert (len(got.transcript), got.transcript.counts) == (len(want.transcript), want.transcript.counts)
        assert got.transcript.to_jsonl() == want.transcript.to_jsonl()
        assert [m.seq for m in got.transcript.messages] == list(range(len(want.transcript)))
        assert got.ledger.secrets == want.ledger.secrets
        assert len(reads) == (1 + measured) * read_mid_run
        for early in reads:
            assert got.transcript.messages[: len(early)] == early


def _built_counts(transcript: Transcript) -> dict[str, int]:
    """The transcript's per-variant counts, checked against its built messages."""
    counts = dict(transcript.counts)
    messages = transcript.messages
    assert len(transcript) == len(messages) == sum(counts.values())
    assert {v: c for v, c in counts.items() if c} == Counter(m.variant for m in messages)
    return counts


def test_counts_are_the_count_of_the_built_messages(monkeypatch):
    # the stacks' closed-form counts against the messages they build: honest
    # and aborted runs, the coalition simulator and bare copy-test sessions
    from mpdqc import oracle
    from mpdqc.harness import run_simulated_client_world

    for shape, m_copies in [((2, 1), 2), ((2, 2), 2), ((2, 3), 3), ((4, 3), 10), ((6, 2), 4)]:
        _, _, run = run_once(*shape, seed=5, m_copies=m_copies)
        assert _built_counts(run.transcript) == message_counts(*shape, m_copies)
    for shape, coalition in [((2, 2), {2}), ((4, 3), {1, 3}), ((4, 2), {4})]:
        rng = np.random.default_rng([8, *shape])
        pattern = random_pattern(build_brickwork(*shape), rng)
        _built_counts(run_simulated_client_world(pattern, random_state(shape[0], rng), coalition, rng, m_copies=3).transcript)
    rng = np.random.default_rng(12)
    for n_clients, m_copies in [(2, 2), (3, 4), (4, 3)]:
        session = Session(QuantumSystem(), Transcript(), rng, n_clients, debug_secrets=True)
        for deviation in (0, 4, 1, 0, 2):
            declared = rng.integers(8, size=m_copies).tolist()
            session.offer_test_copies(3, 1, declared, [octant(theta + deviation) for theta in declared])
        assert _built_counts(session.transcript)["Abort"] >= 1
    monkeypatch.setattr(oracle, "P0", (0.99, *oracle.P0[1:]))
    aborted = 0
    for seed in range(8):
        _, _, run = run_once(4, 3, seed=seed, m_copies=3)
        aborted += run.aborted
        counts = _built_counts(run.transcript)
        assert counts["Abort"] == run.aborted
    assert 0 < aborted < 8


@pytest.mark.parametrize("m_copies", [2, 10])
@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (4, 3), (4, 5)])
def test_the_ledger_holds_what_the_oracle_was_sent(shape, m_copies):
    # every secret the ledger holds is the reconstruction of the pieces
    # submitted to the oracle under its tag, one from each client
    _, _, run = run_once(*shape, seed=61, m_copies=m_copies)
    assert not run.aborted
    submitted: dict[tuple, list[SecretShare]] = {}
    for m in run.transcript.messages:
        if m.variant == "ShareDistribution" and m.receiver == "oracle":
            share = SecretShare(**m.payload["share"])
            assert m.sender == f"client:{share.owner}"
            submitted.setdefault(share.tag, []).append(share)
    assert all(len(shares) == shape[0] for shares in submitted.values())
    filed = {tag[:3] if tag[0] == "theta" else tag: reconstruct(shares) for tag, shares in submitted.items()}
    assert len(filed) == len(submitted)  # one surviving copy per (node, client)
    assert run.ledger.secrets == filed


def test_a_copy_shares_one_payload_dict_between_its_messages():
    # each piece of a copy angle is one dict, in the message to its holder
    # and again when that copy is opened or survives; handing the coalition
    # an honest contributor's own piece of its surviving angle must trip the
    # leak check
    from mpdqc.harness import check_no_secret_leak

    _, _, run = run_once(2, 2, seed=24, m_copies=3)
    by_piece: dict[tuple, list] = {}
    for msg in run.transcript.messages:
        share = msg.payload.get("share")
        if msg.payload.get("kind") in ("copy-angle", "opened-angle", "survivor-angle"):
            by_piece.setdefault((tuple(share["tag"]), share["owner"]), []).append(msg)
    assert len(by_piece) == 2 * 2 * 3  # two batches of three copies, two pieces each
    for (tag, owner), msgs in by_piece.items():
        kinds = [m.payload["kind"] for m in msgs]
        if owner == tag[2]:
            # the contributor keeps its own piece until the copy is opened or survives
            assert len(msgs) == 1 and kinds[0] in ("opened-angle", "survivor-angle")
        else:
            assert kinds[0] == "copy-angle" and kinds[1:] in (["opened-angle"], ["survivor-angle"])
            assert msgs[0].payload["share"] is msgs[1].payload["share"]
    check_no_secret_leak(run.transcript, {2}, 2)
    own_piece = next(msgs[0] for (tag, owner), msgs in by_piece.items() if tag[2] == owner == 1 and msgs[0].payload["kind"] == "survivor-angle")
    run.transcript.record("client:1", "client:2", "ShareDistribution", {**own_piece.payload})
    with pytest.raises(AssertionError, match="complete share set"):
        check_no_secret_leak(run.transcript, {2}, 2)


def test_delta_announcements_match_the_ledger():
    _, _, run = run_once(2, 3, seed=14)
    announced = {
        m.payload["node"]: m.payload["delta"]
        for m in run.transcript.messages
        if m.variant == "DeltaAnnounce"
    }
    assert announced == run.delta


def test_output_keys_round_trip_through_the_transcript():
    pattern, _, run = run_once(2, 2, seed=15)
    sent = {
        m.payload["node"]: (m.payload["s_x"], m.payload["s_z"])
        for m in run.transcript.messages
        if m.variant == "OutputKeys"
    }
    assert sent == {j: run.keys[j] for j in pattern.graph.output_nodes}


# ------------------------------------------------------ knowledge boundary


def test_server_never_sees_secret_material():
    _, _, run = run_once(2, 3, seed=21, m_copies=3)
    server_msgs = run.transcript.visible_to({"server"})
    assert server_msgs  # the server is obviously involved
    for msg in server_msgs:
        payload = json.loads(json.dumps(msg.payload))  # nested dict walk below
        stack = [payload]
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                for key in ("theta", "a", "r", "pad_theta", "secret", "amplitudes"):
                    assert key not in item, f"{key!r} leaked to the server in message {msg.seq}"
                if "share" in item:
                    # only opened test angles may travel to the server
                    assert item.get("kind") == "opened-angle"
                stack.extend(item.values())
            elif isinstance(item, list):
                stack.extend(item)


def test_opened_angles_only_cover_tested_copies():
    _, _, run = run_once(2, 2, seed=22, m_copies=4)
    survivors = {}
    for msg in run.transcript.messages:
        if msg.variant == "OutcomeVector" and "survivor" in msg.payload:
            survivors[(msg.payload["node"], msg.payload["contributor"])] = msg.payload["survivor"]
    assert survivors
    for msg in run.transcript.visible_to({"server"}):
        if msg.payload.get("kind") == "opened-angle":
            tag = msg.payload["share"]["tag"]
            node, contributor, copy = tag[1], tag[2], tag[3]
            assert copy != survivors[(node, contributor)]


def test_client_coalition_cannot_assemble_honest_secrets():
    from mpdqc.harness import check_no_secret_leak

    _, _, run = run_once(2, 3, seed=23)
    check_no_secret_leak(run.transcript, {2}, 2)
    check_no_secret_leak(run.transcript, {1}, 2)


def test_leak_check_trips_on_shared_payload_dicts():
    # every message carrying a share reuses that share's one payload dict;
    # handing the coalition the honest piece through such a dict must trip
    from mpdqc.harness import check_no_secret_leak

    _, _, run = run_once(2, 2, seed=24, m_copies=3)
    by_tag = {}
    for msg in run.transcript.messages:
        share = msg.payload.get("share")
        if share is not None:
            by_tag.setdefault((tuple(share["tag"]), share["owner"]), []).append(msg)
    pad_flip = by_tag[(("a", 1), 2)]
    assert len(pad_flip) == 2 and pad_flip[0].payload["share"] is pad_flip[1].payload["share"]
    check_no_secret_leak(run.transcript, {2}, 2)
    honest_piece = by_tag[(("a", 1), 1)][0]
    run.transcript.record("client:1", "client:2", "ShareDistribution", {**honest_piece.payload})
    with pytest.raises(AssertionError):
        check_no_secret_leak(run.transcript, {2}, 2)


# ------------------------------------------------------- server deviations


def test_server_cannot_touch_client_held_qubits():
    pattern = MeasurementPattern(build_brickwork(2, 1), {})
    psi = random_state(2)

    def grab(handle):
        handle.x(1)  # node 1 is an output that never left client 1

    with pytest.raises(PermissionError):
        run_full_protocol(
            pattern, psi, np.random.default_rng(2), m_copies=2,
            server_strategy=ServerStrategy(after_entangle=grab),
        )


def test_server_tampering_corrupts_the_output():
    rng = np.random.default_rng(3)
    pattern = random_pattern(build_brickwork(2, 2), rng)
    psi = random_state(2, rng)
    expected = reference_execute(pattern, psi, np.random.default_rng(0))

    def tamper(handle):
        handle.z_rot(3, 2)
        handle.h(4)

    run = run_full_protocol(pattern, psi, rng, m_copies=2, server_strategy=ServerStrategy(before_output_send=tamper))
    assert not run.aborted
    assert run.output_state.fidelity(expected) < 1 - 1e-3


def test_before_measurement_fires_between_each_delta_and_its_result(monkeypatch):
    # the server's mid-run hook sees node j after delta_j is announced and
    # before b_j is broadcast, once per measured node, in flow order
    events = []
    record = Transcript.record

    def logged(self, sender, receiver, variant, payload):
        if variant in ("DeltaAnnounce", "ResultBroadcast"):
            events.append((variant, payload["node"]))
        return record(self, sender, receiver, variant, payload)

    def before_measurement(handle, node):
        handle.density([node])  # the server holds the node it is about to measure
        events.append(("hook", node))

    monkeypatch.setattr(Transcript, "record", logged)
    _, _, run = run_once(2, 4, seed=26, server_strategy=ServerStrategy(before_measurement=before_measurement))
    assert not run.aborted
    order = run.ledger.flow.order
    assert len(order) == 6
    assert events == [(step, j) for j in order for step in ("DeltaAnnounce", "hook", "ResultBroadcast")]


def test_debug_mode_exposes_amplitudes_and_clean_mode_does_not():
    _, _, debug_run = run_once(2, 2, seed=4, debug_secrets=True)
    transfers = [m for m in debug_run.transcript.messages if m.variant == "QubitTransfer"]
    assert all("amplitudes" in m.payload for m in transfers)
    # the random two-qubit input entangles the two inputs
    padded = [m.payload for m in transfers if m.payload["purpose"] == "padded-input"]
    assert padded == [{"node": j, "purpose": "padded-input", "amplitudes": "entangled"} for j in (1, 2)]
    _, _, clean_run = run_once(2, 2, seed=4)
    assert all("amplitudes" not in m.payload for m in clean_run.transcript.messages)


def _padded_inputs(run) -> dict[int, object]:
    return {m.payload["node"]: m.payload["amplitudes"] for m in run.transcript.messages if m.payload.get("purpose") == "padded-input"}


def test_debug_payload_shows_a_padded_product_input():
    # inputs |+_0> and |+_2> share one register but are no entangled pair:
    # each padded input is reported as X^a Z(theta)|+_phi>, its |0> amplitude
    # real and non-negative
    pattern = random_pattern(build_brickwork(2, 2), np.random.default_rng(6))
    for seed in range(4):
        run = run_full_protocol(pattern, plus_state(0).tensor(plus_state(2)), np.random.default_rng(seed), m_copies=2, debug_secrets=True)
        padded = _padded_inputs(run)
        assert sorted(padded) == [1, 2]
        for node, phi in ((1, 0), (2, 2)):
            expected = plus_state(phi).z_rot(0, run.ledger.secrets[("theta", node, node)])
            if run.ledger.secrets[a_tag(node)]:
                expected = expected.x(0)
            amps = expected.amps * np.exp(-1j * np.angle(expected.amps[0]))
            assert np.allclose([complex(*pair) for pair in padded[node]], amps, atol=1e-12)


def test_debug_payload_reports_an_input_entangled_with_a_reference_as_entangled():
    # in:1 holds half of a Bell pair with ref:1, in:2 is |+>
    bell = np.zeros(8, dtype=complex)
    bell[[0b000, 0b010]] = bell[[0b101, 0b111]] = 0.5  # (|0>|+>|0> + |1>|+>|1>) / sqrt(2)
    pattern = random_pattern(build_brickwork(2, 2), np.random.default_rng(7))
    run = run_full_protocol(pattern, PureState(bell), np.random.default_rng(1), m_copies=2, debug_secrets=True)
    padded = _padded_inputs(run)
    assert padded[1] == "entangled"
    assert padded[2] != "entangled" and len(padded[2]) == 2


def test_debug_payload_reports_a_pending_cz_pair_as_entangled():
    system = QuantumSystem()
    system.add_register(plus_state(0), ["a"], ["server"])
    system.add_register(plus_state(0), ["b"], ["server"])
    alone = _qubit_payload(system, "a", {}, True)["amplitudes"]
    assert np.allclose(alone, [[2 ** -0.5, 0], [2 ** -0.5, 0]])
    system.apply_cz("a", "b")
    assert _qubit_payload(system, "a", {}, True)["amplitudes"] == "entangled"
    assert _qubit_payload(system, "b", {}, True)["amplitudes"] == "entangled"
