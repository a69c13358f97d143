import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdqc.brickwork import build_brickwork, random_pattern
from mpdqc.oracle import OracleLedger
from mpdqc.protocol import AbortInfo, QuantumSystem, Session, Transcript
from mpdqc.quantum import PureState, octant, plus_state
from mpdqc.rsp import chain_steps, closed_form_chain, run_chain, theta_aux, theta_input
from reference import chain_branches, input_chain_steps, pad_input, states_equal, undo_pad

RNG = np.random.default_rng(13)

octants = st.integers(0, 7)


def random_state(n_qubits: int, rng=RNG) -> PureState:
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return PureState(v / np.linalg.norm(v))


# ------------------------------------------------------------ chain shape


@given(st.integers(2, 6))
def test_aux_chain_measures_every_register_but_the_last(n):
    steps = chain_steps(n, n)
    targets = [t for t, _ in steps]
    assert targets == list(range(1, n))
    for target, control in steps:
        assert control == target + 1


@given(st.integers(2, 6), st.data())
def test_input_chain_measures_everyone_but_the_owner(n, data):
    owner = data.draw(st.integers(1, n))
    steps = chain_steps(n, owner)
    targets = [t for t, _ in steps]
    assert sorted(targets) == [k for k in range(1, n + 1) if k != owner]
    for target, control in steps:
        assert 1 <= control <= n and control != target


@pytest.mark.parametrize("n", range(2, 9))
def test_one_chain_rule_matches_the_explicit_input_chain(n):
    for survivor in range(1, n + 1):
        assert chain_steps(n, survivor) == input_chain_steps(n, survivor)


@pytest.mark.parametrize("survivor", [0, 4, -1])
def test_run_chain_rejects_an_out_of_range_survivor(survivor):
    system = QuantumSystem()
    for k in (1, 2, 3):
        system.add_register(plus_state(0), [f"reg:{k}"], ["server"])
    with pytest.raises(ValueError, match="survivor register out of range"):
        run_chain(system, {k: f"reg:{k}" for k in (1, 2, 3)}, survivor, np.random.default_rng(0))
    assert system.peak_qubits == 1  # refused before any gate


# ------------------------------------------------------------ pad helpers


@given(st.integers(0, 1), octants)
def test_pad_round_trip(a, theta):
    psi = random_state(1)
    assert states_equal(undo_pad(pad_input(psi, 0, a, theta), 0, a, theta), psi)


def test_pad_is_rotation_then_flip():
    psi = random_state(1)
    assert states_equal(pad_input(psi, 0, 1, 3), psi.z_rot(0, 3).x(0))


# ----------------------------------------------- auxiliary chain vs formula


@pytest.mark.parametrize("n", [2, 3, 4])
def test_aux_chain_matches_the_closed_form_on_every_branch(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        shares = [int(rng.integers(8)) for _ in range(n)]
        states = [plus_state(s) for s in shares]
        branches = chain_branches(states[-1], states[:-1], n)
        assert len(branches) == 2 ** (n - 1)
        for t, prob, state in branches:
            assert prob == pytest.approx(1 / 2 ** (n - 1))
            expect = plus_state(theta_aux(shares, t))
            assert state.fidelity(expect) == pytest.approx(1.0, abs=1e-12)


def test_run_rsp_aux_sampled_branch_agrees():
    # one sampled branch of the shared chain runner, aux variant
    rng = np.random.default_rng(5)
    shares = [2, 7, 5]
    system = QuantumSystem()
    for k, s in enumerate(shares, start=1):
        system.add_register(plus_state(s), [f"reg:{k}"], ["server"])
    t, survivor = run_chain(system, {k: f"reg:{k}" for k in (1, 2, 3)}, 3, rng)
    assert set(t) == {1, 2}
    assert survivor == "reg:3"
    expect = plus_state(theta_aux(shares, t))
    assert system.state_of([survivor]).fidelity(expect) == pytest.approx(1.0)


# --------------------------------------------------- input chain vs formula


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("a", [0, 1])
def test_input_chain_leaves_a_padded_input_on_every_branch(n, a):
    rng = np.random.default_rng(17 * n + a)
    for owner in range(1, n + 1):
        shares = [int(rng.integers(8)) for _ in range(n)]
        psi = random_state(1)
        padded = pad_input(psi, 0, a, shares[owner - 1])
        aux = [plus_state(shares[k - 1]) for k in range(1, n + 1) if k != owner]
        for t, prob, state in chain_branches(padded, aux, owner):
            assert prob == pytest.approx(1 / 2 ** (n - 1))
            recovered = undo_pad(state, 0, a, theta_input(shares, owner, t, a))
            assert recovered.fidelity(psi) == pytest.approx(1.0, abs=1e-12)


def test_input_chain_keeps_reference_entanglement():
    # the owner's qubit is half of a Bell pair; the chain must not disturb
    # the other half
    rng = np.random.default_rng(23)
    shares = [4, 1, 6]
    owner, a = 2, 1
    bell = PureState.computational("00").h(0).cnot(0, 1)
    system = QuantumSystem()
    system.add_register(pad_input(bell, 0, a, shares[owner - 1]), ["in", "ref"], ["server", "environment"])
    for k in (1, 3):
        system.add_register(plus_state(shares[k - 1]), [f"aux:{k}"], ["server"])
    t, survivor = run_chain(system, {1: "aux:1", 2: "in", 3: "aux:3"}, owner, rng)
    assert survivor == "in"
    recovered = undo_pad(system.state_of(["in", "ref"]), 0, a, theta_input(shares, owner, t, a))
    assert recovered.fidelity(bell) == pytest.approx(1.0)


# --------------------------------------- closed-form chain vs the registers

# what the survivor register pads: |+> (a non-input node's own copy), an
# input qubit, or an input qubit half of a Bell pair with a reference qubit
SURVIVOR_STATES = {
    "plus": lambda rng: plus_state(0),
    "qubit": lambda rng: random_state(1, rng),
    "bell": lambda rng: PureState.computational("00").h(0).cnot(0, 1),
}


def register_chain(angles: list[int], survivor: int, a: int, psi: PureState, rng: np.random.Generator):
    """run_chain on registers |+_angles[k-1]> and the survivor's X^a Z(angles[s-1]) psi; returns (t, system, survivor labels)."""
    labels = ["survivor", "ref"][: psi.num_qubits]
    system = QuantumSystem()
    system.add_register(pad_input(psi, 0, a, angles[survivor - 1]), labels, ["server", "environment"][: psi.num_qubits])
    registers = {survivor: labels[0]}
    for k in range(1, len(angles) + 1):
        if k != survivor:
            registers[k] = f"reg:{k}"
            system.add_register(plus_state(angles[k - 1]), [registers[k]], ["server"])
    t, label = run_chain(system, registers, survivor, rng)
    assert label == labels[0]
    return t, system, labels


@pytest.mark.parametrize("kind", sorted(SURVIVOR_STATES))
@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_chain_equals_the_register_chain_draw_for_draw(n, a, kind):
    # the same draws give the same t and leave the generator in the same
    # state, and the survivor register holds X^a Z(theta) psi for the
    # closed form's theta. The register's p0 is 1/2 less a few 1e-16, so
    # its outcome and u >= 1/2 differ only for u in [p0, 1/2).
    rng = np.random.default_rng([n, a, len(kind)])
    for survivor in range(1, n + 1):
        for seed in range(4):
            angles = rng.integers(8, size=n).tolist()
            psi = SURVIVOR_STATES[kind](rng)
            physical, closed = np.random.default_rng([n, survivor, seed]), np.random.default_rng([n, survivor, seed])
            t_registers, system, labels = register_chain(angles, survivor, a, psi, physical)
            t, theta = closed_form_chain(angles, survivor, a, closed.random(n - 1))
            assert t == t_registers
            assert physical.bit_generator.state == closed.bit_generator.state
            assert system.state_of(labels).fidelity(pad_input(psi, 0, a, theta)) >= 1 - 1e-12


@pytest.mark.parametrize("deviation", [1, 2, 4])
def test_the_chain_follows_a_survivor_prepared_off_its_declared_angle(deviation):
    # node 3 of a 2x3 graph: client 1 declares one angle for both copies but
    # prepares copy 0 `deviation` octants off. When copy 0 survives, the
    # honest copy 1 is opened and passes. The oracle files the declared
    # angle; the chain must run on the prepared one the test returns.
    pattern = random_pattern(build_brickwork(2, 3), np.random.default_rng(4))
    passed = []
    for seed in range(16):
        rng = np.random.default_rng([deviation, seed])
        declared = rng.integers(8, size=2).tolist()
        session = Session(QuantumSystem(), Transcript(), rng, 2, OracleLedger(pattern))
        dishonest = session.offer_test_copies(3, 1, [declared[0]] * 2, [octant(declared[0] + deviation), declared[0]])
        honest = session.offer_test_copies(3, 2, [declared[1]] * 2, [declared[1]] * 2)
        (survivor,) = [m.payload["survivor"] for m in session.transcript.messages if m.payload.get("kind") == "survivor" and m.payload["contributor"] == 1]
        if isinstance(dishonest, AbortInfo):
            assert survivor == 1  # the deviated copy was opened and caught
            continue
        assert dishonest == octant(declared[0] + deviation * (survivor == 0)) and honest == declared[1]
        passed.append(survivor)
        physical, closed = np.random.default_rng(seed), np.random.default_rng(seed)
        t_registers, system, labels = register_chain([dishonest, honest], 2, 0, plus_state(0), physical)
        t, theta = closed_form_chain([dishonest, honest], 2, 0, closed.random(1))
        assert t == t_registers and system.state_of(labels).fidelity(plus_state(theta)) >= 1 - 1e-12
        session.ledger.register_chain(3, t)
        assert session.ledger.node_theta(3) == theta_input(declared, 2, t, 0)
        assert (session.ledger.node_theta(3) == theta) == (survivor == 1)
    assert passed.count(0) >= 4


# -------------------------------------------------------- angle identities


@settings(max_examples=40)
@given(st.lists(octants, min_size=2, max_size=5), st.data())
def test_aux_formula_is_the_ownerless_input_formula(shares, data):
    n = len(shares)
    t = {k: data.draw(st.integers(0, 1)) for k in range(1, n)}
    assert theta_aux(shares, t) == theta_input(shares, n, t, 0)


@settings(max_examples=200)
@given(st.lists(octants, min_size=2, max_size=8), st.data())
def test_the_one_pass_closed_form_matches_its_definition(shares, data):
    # e(k) = a xor (xor of t over the measured registers >= k), summed term by term
    n = len(shares)
    survivor = data.draw(st.integers(1, n))
    a = data.draw(st.integers(0, 1))
    t = {k: data.draw(st.integers(0, 1)) for k in range(1, n + 1) if k != survivor}
    total = shares[survivor - 1]
    for k in t:
        e = a ^ sum(t[i] for i in t if i >= k) % 2
        total += -shares[k - 1] if e else shares[k - 1]
    assert theta_input(shares, survivor, t, a) == octant(total)


@settings(max_examples=40)
@given(st.lists(octants, min_size=2, max_size=5), st.data())
def test_flipping_a_negates_the_solved_angle_around_the_owner_share(shares, data):
    n = len(shares)
    owner = data.draw(st.integers(1, n))
    t = {k: data.draw(st.integers(0, 1)) for k in range(1, n + 1) if k != owner}
    plain = theta_input(shares, owner, t, 0)
    flipped = theta_input(shares, owner, t, 1)
    assert flipped == octant(2 * shares[owner - 1] - plain)


def test_all_zero_tails_just_sum_the_shares():
    shares = [1, 2, 3]
    t = {1: 0, 2: 0}
    assert theta_aux(shares, t) == octant(sum(shares))
