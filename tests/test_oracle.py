import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdqc import oracle
from mpdqc.brickwork import MeasurementPattern, build_brickwork, corrected_angle, parity, random_pattern
from mpdqc.harness import run_intermediate_protocol
from mpdqc.oracle import (
    P0,
    OracleLedger,
    SecretShare,
    a_tag,
    r_tag,
    reconstruct,
    share_secret,
    theta_tag,
)
from mpdqc.protocol import Session, Transcript, run_full_protocol
from mpdqc.quantum import PureState, QuantumSystem, flip, octant, plus_state
from mpdqc.rsp import theta_input
from reference import ComposedAnswers, file_one_by_one, register_copy_test, verify_client

RNG = np.random.default_rng(31)


# ----------------------------------------------------------- secret shares


@settings(max_examples=60)
@given(st.integers(0, 7), st.integers(2, 6), st.sampled_from([2, 8]))
def test_share_and_reconstruct_round_trip(value, n, modulus):
    value %= modulus
    shares = share_secret(value, n, modulus, np.random.default_rng(0), tag=("x",))
    assert len(shares) == n
    assert sorted(s.owner for s in shares) == list(range(1, n + 1))
    assert reconstruct(shares) == value


def test_single_share_reveals_nothing():
    # every value of one share occurs across resharings of the same secret
    seen = set()
    for i in range(400):
        shares = share_secret(5, 3, 8, np.random.default_rng(i))
        seen.add(shares[0].value)
    assert seen == set(range(8))


def test_reconstruct_rejects_inconsistent_share_sets():
    good = share_secret(3, 3, 8, np.random.default_rng(1), tag=("t",))
    with pytest.raises(ValueError):
        reconstruct(good[:2] + [good[1]])  # owner 2 twice, owner 3 missing
    mixed = good[:2] + [SecretShare(owner=3, tag=("other",), value=0, modulus=8)]
    with pytest.raises(ValueError):
        reconstruct(mixed)
    wrong_mod = good[:2] + [SecretShare(owner=3, tag=("t",), value=0, modulus=2)]
    with pytest.raises(ValueError):
        reconstruct(wrong_mod)
    with pytest.raises(ValueError):
        reconstruct([])


def test_share_values_respect_the_modulus():
    for modulus in (2, 8):
        shares = share_secret(1, 4, modulus, np.random.default_rng(2))
        assert all(0 <= s.value < modulus for s in shares)


def test_secret_share_checks_reduces_and_freezes():
    with pytest.raises(ValueError):
        SecretShare(owner=1, tag=("t",), value=0, modulus=3)
    share = SecretShare(owner=2, tag=["t", 1], value=11, modulus=8)
    assert share.value == 3 and share.tag == ("t", 1) and isinstance(share.tag, tuple)
    assert SecretShare(1, ("t",), -1, 2).value == 1
    with pytest.raises(AttributeError):
        share.value = 0


@pytest.mark.parametrize("m_copies", [2, 8])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_shares_equal_sequential_shares(m_copies, n):
    # a copy test draws all (m, n - 1) pieces of its angles in one call and
    # closes each row to its angle; the pieces it sends must be the shares of
    # one share_secret call per angle, and the generator must end in the
    # same state once the test's own survivor and opened-copy draws follow
    for trial in range(6):
        contributor = trial % n + 1
        declared = [(7 * i + trial) % 8 for i in range(m_copies)]
        rng_a, rng_b = np.random.default_rng([n, m_copies, trial]), np.random.default_rng([n, m_copies, trial])
        if trial % 2:  # start the batch mid-word in the 32-bit draw buffer
            rng_a.integers(2)
            rng_b.integers(2)
        session = Session(QuantumSystem(), Transcript(), rng_a, n)
        session.offer_test_copies(3, contributor, declared, declared)
        # the opened angles' pieces go to the server, the survivor's to the oracle
        pieces = {}
        for m in session.transcript.messages:
            if m.payload.get("kind") in ("opened-angle", "survivor-angle"):
                pieces.setdefault(m.payload["copy"], []).append(SecretShare(**m.payload["share"]))
        sequential = [share_secret(v, n, 8, rng_b, theta_tag(3, contributor, i)) for i, v in enumerate(declared)]
        rng_b.integers(m_copies)
        rng_b.random(m_copies - 1)
        assert [pieces[i] for i in range(m_copies)] == sequential
        assert all(reconstruct(shares) == v for shares, v in zip(sequential, declared))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("start", ["fresh", "after random()", "mid-word"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sized_bit_draws_equal_scalar_draws_in_row_order(n, start):
    # a run's draw plan lists every pad flip's n - 1 pieces as one (n, n - 1)
    # call, and each round's mask bits with their pieces as one (n, n) call;
    # for PCG64 each equals as many scalar draws in row order and leaves the
    # generator in the same state
    for shape in ((n, n - 1), (n, n)):
        sized, scalar = np.random.default_rng([n, *shape]), np.random.default_rng([n, *shape])
        for rng in (sized, scalar):
            if start == "after random()":
                rng.random()
            elif start == "mid-word":  # a lone bit leaves the rest of a 32-bit word buffered
                rng.integers(2)
        rows = sized.integers(2, size=shape).tolist()
        assert rows == [[int(scalar.integers(2)) for _ in range(shape[1])] for _ in range(shape[0])]
        assert sized.bit_generator.state == scalar.bit_generator.state


# ------------------------------------------------------------ verification


def _honest_copies(client: int, m: int, rng) -> tuple[list, list]:
    """Share rows (the values of each copy's pieces) and prepared angles of m honest copies: each prepared as declared."""
    angle_shares, prepared = [], []
    for i in range(m):
        theta = int(rng.integers(8))
        angle_shares.append([piece.value for piece in share_secret(theta, 2, 8, rng, theta_tag(1, client, i))])
        prepared.append(theta)
    return angle_shares, prepared


def _draw_test(m: int, rng) -> tuple[int, list[float]]:
    """The survivor and the opened copies' uniforms of an m-copy test, drawn as Session.offer_test_copies draws them."""
    return int(rng.integers(m)), rng.random(m - 1).tolist()


def test_honest_copies_always_pass():
    rng = np.random.default_rng(3)
    for _ in range(50):
        angle_shares, prepared = _honest_copies(1, 3, rng)
        result = verify_client(angle_shares, prepared, *_draw_test(3, rng))
        assert result.accepted
        assert all(b == 0 for b in result.outcomes.values())


def test_opposite_angle_always_fails():
    rng = np.random.default_rng(4)
    for _ in range(30):
        angle_shares, prepared = _honest_copies(1, 2, rng)
        # the client lies by pi on every copy: the tested one is caught
        prepared = [octant(p + 4) for p in prepared]
        result = verify_client(angle_shares, prepared, *_draw_test(2, rng))
        assert not result.accepted


def test_small_deviation_is_caught_at_the_expected_rate():
    rng = np.random.default_rng(5)
    rejections = 0
    trials = 3000
    for _ in range(trials):
        angle_shares, prepared = _honest_copies(1, 2, rng)
        prepared = [octant(p + 1) for p in prepared]
        if not verify_client(angle_shares, prepared, *_draw_test(2, rng)).accepted:
            rejections += 1
    rate = rejections / trials
    expected = np.sin(np.pi / 8) ** 2
    assert abs(rate - expected) < 0.03


def test_survivor_choice_is_uniformish():
    rng = np.random.default_rng(6)
    counts = {0: 0, 1: 0, 2: 0}
    for _ in range(600):
        angle_shares, prepared = _honest_copies(2, 3, rng)
        result = verify_client(angle_shares, prepared, *_draw_test(3, rng))
        counts[result.survivor] += 1
        assert result.survivor not in result.outcomes
    for c in counts.values():
        assert 120 < c < 280


def test_verification_needs_at_least_two_copies():
    rng = np.random.default_rng(7)
    angle_shares, prepared = _honest_copies(1, 1, rng)
    with pytest.raises(ValueError):
        verify_client(angle_shares, prepared, 0, [])
    angle_shares, prepared = _honest_copies(1, 3, rng)
    with pytest.raises(ValueError):
        verify_client(angle_shares, prepared[:2], *_draw_test(3, rng))


def test_pass_table_is_the_kernel_probability():
    # P0[(p - d) % 8] is the kernel's outcome-0 probability of |+_p> in the
    # basis of angle d, for all 64 pairs; an honest copy passes with exactly 1
    for p in range(8):
        for d in range(8):
            kernel_p0 = plus_state(p).project_rotated(0, d, 0)[0]
            assert abs(P0[(p - d) % 8] - kernel_p0) < 1e-15
    assert P0[0] == 1.0


@pytest.mark.parametrize("m", [2, 3, 10])
@pytest.mark.parametrize("deviation", [0, 1, 4])
def test_closed_form_copy_test_equals_the_register_reference(m, deviation):
    # the same survivor and outcomes as measuring one register per copy,
    # and the generator ends in the same state: the draw order is unchanged
    for trial in range(60):
        setup = np.random.default_rng([m, deviation, trial])
        angle_shares, declared = _honest_copies(1, m, setup)
        deviated = set(setup.choice(m, size=int(setup.integers(1, m + 1)), replace=False).tolist())
        prepared = [octant(p + deviation) if i in deviated else p for i, p in enumerate(declared)]
        rng_fast, rng_slow = np.random.default_rng([trial, 1]), np.random.default_rng([trial, 1])
        if trial % 2:  # start mid-word in the 32-bit draw buffer
            rng_fast.integers(2)
            rng_slow.integers(2)
        fast = verify_client(angle_shares, prepared, *_draw_test(m, rng_fast))
        slow = register_copy_test(angle_shares, prepared, rng_slow)
        assert (fast.survivor, fast.outcomes, fast.accepted) == (slow.survivor, slow.outcomes, slow.accepted)
        assert rng_fast.bit_generator.state == rng_slow.bit_generator.state


# ----------------------------------------------------------------- ledger


def _register(ledger, value, modulus, tag, rng):
    """File a secret at the ledger from the values of a fresh share set of it."""
    ledger.register_share(tag, [piece.value for piece in share_secret(value, ledger.n_clients, modulus, rng)], modulus)


def _filled_ledger(phi, a_bits, thetas, r_bits, t_bits, rng):
    """Build a two-client, two-column ledger with chosen secrets.

    thetas[(node, client)] is the angle contribution, r_bits[(node, client)]
    the personal output-mask bit, t_bits[node] the chain outcome of the one
    non-owner register.
    """
    graph = build_brickwork(2, 2)
    pattern = MeasurementPattern(graph, dict(phi))
    ledger = OracleLedger(pattern)
    for client, a in a_bits.items():
        _register(ledger, a, 2, a_tag(client), rng)
    for (node, client), theta in thetas.items():
        _register(ledger, theta, 8, theta_tag(node, client, copy=4), rng)
    for (node, client), r in r_bits.items():
        _register(ledger, r, 2, r_tag(node, client), rng)
    for node, t in t_bits.items():
        ledger.register_chain(node, t)
    return ledger


def test_ledger_reconstructs_node_secrets():
    rng = np.random.default_rng(8)
    thetas = {(1, 1): 3, (1, 2): 6, (2, 1): 1, (2, 2): 5}
    r_bits = {(1, 1): 1, (1, 2): 1, (2, 1): 0, (2, 2): 1}
    t_bits = {1: {2: 1}, 2: {1: 0}}
    ledger = _filled_ledger({1: 2, 2: 7}, {1: 1, 2: 0}, thetas, r_bits, t_bits, rng)
    assert ledger.a_bit(1) == 1 and ledger.a_bit(2) == 0
    assert ledger.node_r(1) == 0 and ledger.node_r(2) == 1
    assert ledger.node_theta(1) == theta_input([3, 6], 1, {2: 1}, 1)
    assert ledger.node_theta(2) == theta_input([1, 5], 2, {1: 0}, 0)


def test_ledger_delta_decomposition():
    rng = np.random.default_rng(9)
    thetas = {(1, 1): 3, (1, 2): 6, (2, 1): 1, (2, 2): 5}
    r_bits = {(1, 1): 1, (1, 2): 0, (2, 1): 0, (2, 2): 0}
    t_bits = {1: {2: 0}, 2: {1: 1}}
    phi = {1: 2, 2: 7}
    ledger = _filled_ledger(phi, {1: 1, 2: 0}, thetas, r_bits, t_bits, rng)

    # node 1 measures first: no corrections yet, a_1 = 1 flips the pattern
    # angle and conjugates the preparation angle
    theta_1 = ledger.node_theta(1)
    expect_1 = octant(corrected_angle(phi[1], 1, 0, 0, 0) + 4 * ledger.node_r(1) + flip(theta_1, 1))
    assert ledger.delta(1) == expect_1

    ledger.register_outcome(1, 1)
    # node 2 is measured next; node 1 feeds neither of its correction sets
    # on this graph, so its announced angle is independent of b_1
    theta_2 = ledger.node_theta(2)
    expect_2 = octant(corrected_angle(phi[2], 0, 0, 0, 0) + 4 * ledger.node_r(2) + flip(theta_2, 0))
    assert ledger.delta(2) == expect_2
    ledger.register_outcome(2, 0)

    # output keys: node 3 = f(1) takes its X key from s_1 and folds a_1
    # into its Z key through the predecessor pad flip
    s_1 = 1 ^ ledger.node_r(1)
    s_2 = 0 ^ ledger.node_r(2)
    keys_3 = ledger.output_keys(3)
    assert keys_3[0] == s_1
    flow_z = s_2 if 2 in ledger.flow.s_z[3] else 0
    assert keys_3[1] == flow_z ^ ledger.a_bit(1)


def test_ledger_rejects_duplicate_registration():
    rng = np.random.default_rng(10)
    graph = build_brickwork(2, 2)
    pattern = MeasurementPattern(graph, {1: 0, 2: 0})
    ledger = OracleLedger(pattern)
    _register(ledger, 1, 2, a_tag(1), rng)
    with pytest.raises(ValueError, match="already registered"):
        _register(ledger, 0, 2, a_tag(1), rng)
    assert ledger.a_bit(1) == 1
    ledger.register_chain(1, {2: 0})
    with pytest.raises(ValueError):
        ledger.register_chain(1, {2: 1})
    ledger.register_outcome(1, 0)
    with pytest.raises(ValueError):
        ledger.register_outcome(1, 1)
    ledger.register_angle(1, 3)
    with pytest.raises(ValueError, match="already announced"):
        ledger.register_angle(1, 3)
    assert ledger.announced == {1: 3}
    # a value filed directly is refused the same way: one tag twice, or a
    # second angle for one (node, client) under another copy index
    ledger.file(r_tag(1, 2), 1)
    with pytest.raises(ValueError, match="already registered"):
        ledger.file(r_tag(1, 2), 0)
    ledger.file(theta_tag(1, 2), 5)
    with pytest.raises(ValueError, match="already registered"):
        ledger.file(theta_tag(1, 2, copy=3), 5)
    assert ledger.secrets[r_tag(1, 2)] == 1 and ledger.secrets[("theta", 1, 2)] == 5


def test_ledger_refuses_incomplete_and_mixed_share_sets():
    # the ledger files a secret from the values of its n submitted pieces,
    # piece k from client k, so two tags, two moduli or one owner twice
    # cannot be said here; reconstruct refuses those share sets
    # (test_reconstruct_rejects_inconsistent_share_sets)
    pattern = MeasurementPattern(build_brickwork(2, 2), {1: 0, 2: 0})
    ledger = OracleLedger(pattern)
    refused = {
        "one piece": ([1], 2),
        "three pieces": ([1, 0, 1], 2),
        "modulus 4": ([1, 0], 4),
        "modulus 3": ([1, 0], 3),
    }
    for name, (values, modulus) in refused.items():
        with pytest.raises(ValueError):
            ledger.register_share(a_tag(1), values, modulus)
        assert ledger.secrets == {}, name
    ledger.register_share(a_tag(1), [0, 1], 2)
    assert ledger.secrets == {a_tag(1): 1}
    # a secret already held is refused, and the held value stays
    for values in ([0, 1], [1, 1]):
        with pytest.raises(ValueError, match="already registered"):
            ledger.register_share(a_tag(1), values, 2)
    assert ledger.secrets == {a_tag(1): 1}


def test_ledger_finds_the_one_submitted_angle_per_node_and_client():
    # a contributed angle is filed by (node, client), whichever copy
    # survived, so a second surviving copy is refused on arrival
    rng = np.random.default_rng(13)
    pattern = MeasurementPattern(build_brickwork(2, 2), {1: 0, 2: 0})
    ledger = OracleLedger(pattern)
    _register(ledger, 5, 8, theta_tag(1, 2, copy=7), rng)
    assert ledger.secrets == {("theta", 1, 2): 5}
    with pytest.raises(ValueError, match="already registered"):
        _register(ledger, 3, 8, theta_tag(1, 2, copy=8), rng)
    _register(ledger, 1, 8, theta_tag(1, 1, copy=8), rng)
    assert ledger.secrets == {("theta", 1, 2): 5, ("theta", 1, 1): 1}
    with pytest.raises(ValueError, match="no share set"):
        ledger.node_theta(2)


def test_dump_secrets_reports_reconstructed_values():
    rng = np.random.default_rng(11)
    thetas = {(1, 1): 3, (1, 2): 6, (2, 1): 1, (2, 2): 5}
    r_bits = {(1, 1): 0, (1, 2): 0, (2, 1): 1, (2, 2): 0}
    t_bits = {1: {2: 0}, 2: {1: 0}}
    ledger = _filled_ledger({1: 0, 2: 0}, {1: 0, 2: 1}, thetas, r_bits, t_bits, rng)
    dump = ledger.dump_secrets()
    assert dump["a"] == {1: 0, 2: 1}
    assert dump["r"] == {1: 0, 2: 1}
    assert dump["theta"][1] == ledger.node_theta(1)


class RebuildingLedger(OracleLedger):
    """The ledger with every node's mask r_i rebuilt from its filed pieces on each call."""

    def node_r(self, node: int) -> int:
        return parity(self._secret(r_tag(node, k)) for k in range(1, self.n_clients + 1))


@pytest.mark.parametrize("n_wires,n_columns", [(2, 2), (4, 3), (4, 5)])
def test_the_ledger_builds_each_mask_once_and_answers_as_when_rebuilt(monkeypatch, n_wires, n_columns):
    built = []
    monkeypatch.setattr(oracle, "parity", lambda bits: built.append(1) or parity(bits))
    rng = np.random.default_rng([n_wires, n_columns])
    pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
    v = rng.normal(size=2 ** n_wires) + 1j * rng.normal(size=2 ** n_wires)
    run = run_full_protocol(pattern, PureState(v / np.linalg.norm(v)), rng, m_copies=3)
    assert not run.aborted
    measured, outputs = pattern.graph.measured_nodes, pattern.graph.output_nodes
    assert len(built) == len(measured) and sorted(run.ledger.r) == list(measured)
    rebuilt = RebuildingLedger(pattern)
    rebuilt.secrets, rebuilt.outcomes, rebuilt.chain_t = run.ledger.secrets, run.ledger.outcomes, run.ledger.chain_t
    assert {j: run.ledger.delta(j) for j in measured} == {j: rebuilt.delta(j) for j in measured} == run.delta
    assert {j: run.ledger.output_keys(j) for j in outputs} == {j: rebuilt.output_keys(j) for j in outputs} == run.keys


def test_a_mask_with_an_unfiled_piece_raises_and_is_not_kept():
    rng = np.random.default_rng(14)
    ledger = OracleLedger(MeasurementPattern(build_brickwork(2, 2), {1: 0, 2: 0}))
    _register(ledger, 1, 2, r_tag(1, 1), rng)
    for _ in range(2):
        with pytest.raises(ValueError, match="no share set"):
            ledger.node_r(1)
    assert ledger.r == {}
    _register(ledger, 1, 2, r_tag(1, 2), rng)
    assert ledger.node_r(1) == 0 and ledger.r == {1: 0}


def _every_secret_filed(n_wires, n_columns, seed):
    """A ledger of a random pattern with every flip, contributed angle and mask bit filed, and no chain or outcome."""
    rng = np.random.default_rng(seed)
    ledger = OracleLedger(random_pattern(build_brickwork(n_wires, n_columns), rng))
    clients = range(1, n_wires + 1)
    for k in clients:
        _register(ledger, int(rng.integers(2)), 2, a_tag(k), rng)
    for j in ledger.pattern.graph.measured_nodes:
        for k in clients:
            _register(ledger, int(rng.integers(8)), 8, theta_tag(j, k), rng)
            _register(ledger, int(rng.integers(2)), 2, r_tag(j, k), rng)
    return ledger


def test_answers_name_the_chain_or_outcome_not_filed_yet():
    ledger = _every_secret_filed(2, 3, 21)
    graph = ledger.pattern.graph
    with pytest.raises(ValueError, match="no chain outcomes recorded for node 1"):
        ledger.delta(1)
    for j in graph.measured_nodes:
        ledger.register_chain(j, {k: j % 2 for k in (1, 2) if k != graph.survivor(j)})
    # node 3's X correction reads node 1's outcome
    for answer in (ledger.delta, ledger.corrected_angle):
        with pytest.raises(ValueError, match="no outcome recorded for node 1"):
            answer(3)
    assert ledger.s == {}
    ledger.register_outcome(1, 1)
    ledger.register_outcome(2, 0)
    assert ledger.delta(3) == ComposedAnswers(ledger).delta(3)
    # output 5's X key is node 3's corrected outcome
    with pytest.raises(ValueError, match="no outcome recorded for node 3"):
        ledger.output_keys(5)
    ledger.register_outcome(3, 0)
    ledger.register_outcome(4, 1)
    assert ledger.output_keys(5) == ComposedAnswers(ledger).output_keys(5)


def _with_flips(ledger, a):
    """A fresh ledger over the same filings with every input's flip set to a."""
    out = OracleLedger(ledger.pattern)
    out.secrets = {**ledger.secrets, **{a_tag(k): a for k in range(1, ledger.n_clients + 1)}}
    out.outcomes, out.chain_t = ledger.outcomes, ledger.chain_t
    return out


# the rewrites at 4x5 run only where their registers fit: delayed would hold
# 25 live qubits and simulator-resource 72 (harness.rewrite_peak_qubits)
WORLD_SHAPES = [
    (world, shape)
    for shape in [(2, 2, 0), (2, 3, 1), (4, 2, 0), (4, 5, 0)]
    for world in ("base", "teleport", "delayed", "simulator-resource")
    if shape[:2] != (4, 5) or world in ("base", "teleport")
]


@pytest.mark.parametrize("world,shape", WORLD_SHAPES, ids=[f"{world}-{n}x{c}+{r}" for world, (n, c, r) in WORLD_SHAPES])
def test_the_ledger_answers_as_the_rules_composed_on_every_call(world, shape):
    # every measured node's delta and every output's keys, on the run's own
    # ledger (its masks and outcomes kept as it answered) and on fresh
    # ledgers over the same filings with every input flipped and unflipped
    n_wires, n_columns, n_ref = shape
    rng = np.random.default_rng([n_wires, n_columns, n_ref, len(world)])
    pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
    v = rng.normal(size=2 ** (n_wires + n_ref)) + 1j * rng.normal(size=2 ** (n_wires + n_ref))
    psi = PureState(v / np.linalg.norm(v))
    if world == "base":
        run = run_full_protocol(pattern, psi, rng, m_copies=3)
    else:
        run = run_intermediate_protocol(pattern, psi, rng, world)
    assert not run.aborted
    measured, outputs = pattern.graph.measured_nodes, pattern.graph.output_nodes
    for ledger in (run.ledger, _with_flips(run.ledger, 0), _with_flips(run.ledger, 1)):
        composed = ComposedAnswers(ledger)
        assert {j: ledger.delta(j) for j in measured} == {j: composed.delta(j) for j in measured}
        assert {j: ledger.output_keys(j) for j in outputs} == {j: composed.output_keys(j) for j in outputs}
    assert {j: run.ledger.output_keys(j) for j in outputs} == run.keys


def _filing_spy(monkeypatch) -> list:
    """Every stack filed through OracleLedger.register_shares, as (tags, rows, modulus) copies, in order."""
    stacks = []
    intake = OracleLedger.register_shares

    def spy(self, tags, rows, modulus):
        tags, rows = list(tags), [list(row) for row in rows]
        stacks.append((tags, rows, modulus))
        return intake(self, tags, rows, modulus)

    monkeypatch.setattr(OracleLedger, "register_shares", spy)
    return stacks


@pytest.mark.parametrize("n_wires,n_columns,n_ref", [(2, 2, 0), (2, 3, 1), (4, 2, 0), (4, 5, 0)])
def test_a_run_files_its_stacks_as_one_by_one_filings_would(monkeypatch, n_wires, n_columns, n_ref):
    stacks = _filing_spy(monkeypatch)
    rng = np.random.default_rng([n_wires, n_columns, 17])
    pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
    v = rng.normal(size=2 ** (n_wires + n_ref)) + 1j * rng.normal(size=2 ** (n_wires + n_ref))
    run = run_full_protocol(pattern, PureState(v / np.linalg.norm(v)), rng, m_copies=3)
    measured = len(pattern.graph.measured_nodes)
    # the pad flips, each node's copy tests and each round's mask bits, and
    # each padded input's angle through register_share
    assert len(stacks) == 1 + 2 * measured + n_wires
    replayed = OracleLedger(pattern)
    for tags, rows, modulus in stacks:
        file_one_by_one(replayed, tags, rows, modulus)
    assert list(replayed.secrets.items()) == list(run.ledger.secrets.items())


def test_an_aborted_run_files_the_passed_batches_of_the_failing_node(monkeypatch):
    # on 4x3 the judge fails batch 13, client 2's for node 5: node 5 files
    # client 1's survivor and nothing after it
    import mpdqc.protocol
    from mpdqc.oracle import judge_copy_tests as kernel

    def failing(shares, prepared, survivors, uniforms):
        opened, outcomes = kernel(shares, prepared, survivors, uniforms)
        outcomes = outcomes.copy()
        outcomes[13, -1] = 1
        return opened, outcomes

    monkeypatch.setattr(mpdqc.protocol, "judge_copy_tests", failing)
    stacks = _filing_spy(monkeypatch)
    rng = np.random.default_rng(47)
    pattern = random_pattern(build_brickwork(4, 3), rng)
    run = run_full_protocol(pattern, PureState(np.full(16, 0.25)), rng, m_copies=3)
    assert run.aborted and stacks[-1][0] == [theta_tag(5, 1, stacks[-1][0][0][3])]
    replayed = OracleLedger(pattern)
    for tags, rows, modulus in stacks:
        file_one_by_one(replayed, tags, rows, modulus)
    assert replayed.secrets == run.ledger.secrets
    assert ("theta", 5, 1) in run.ledger.secrets and ("theta", 5, 2) not in run.ledger.secrets


REFUSED_STACKS = {
    "a wrong piece count": ([r_tag(1, 1), r_tag(1, 2)], [[0, 1], [1]], 2, "1 pieces for 2 clients"),
    "modulus 4": ([r_tag(1, 1)], [[0, 1]], 4, "share modulus must be 2"),
    "modulus 3": ([r_tag(1, 1)], [[0, 1]], 3, "share modulus must be 2"),
    "a tag filed before": ([a_tag(2), a_tag(1)], [[0, 1], [1, 1]], 2, r"secret \('a', 1\) already registered"),
    "a tag twice in the stack": ([r_tag(1, 1), r_tag(1, 2), r_tag(1, 1)], [[0, 1], [1, 1], [0, 0]], 2, r"secret \('r', 1, 1\) already registered"),
    "a second surviving copy": ([theta_tag(1, 2, 3), theta_tag(1, 2, 5)], [[1, 2], [3, 4]], 8, r"secret \('theta', 1, 2\) already registered"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_STACKS))
def test_the_stack_intake_refuses_as_one_by_one_filings_do(case):
    # same message, and the same secrets filed before the refused one
    tags, rows, modulus, message = REFUSED_STACKS[case]
    pattern = MeasurementPattern(build_brickwork(2, 2), {1: 0, 2: 0})
    ledgers = [OracleLedger(pattern), OracleLedger(pattern)]
    errors = []
    for ledger, intake in zip(ledgers, (OracleLedger.register_shares, file_one_by_one)):
        ledger.register_share(a_tag(1), [1, 0], 2)
        with pytest.raises(ValueError, match=message) as refused:
            intake(ledger, tags, rows, modulus)
        errors.append(str(refused.value))
    assert errors[0] == errors[1]
    assert list(ledgers[0].secrets.items()) == list(ledgers[1].secrets.items())
