import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdqc.protocol import QuantumSystem
from mpdqc.quantum import PureState, octant, plus_state
from mpdqc.rsp import chain_steps, run_chain, theta_aux, theta_input
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
