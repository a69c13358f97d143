import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdqc.quantum import (
    DensityMatrix,
    PureState,
    QuantumSystem,
    flip,
    octant,
    octant_to_radians,
    plus_state,
    trace_distance,
    weighted_trace_norm,
)
from reference import states_equal

RNG = np.random.default_rng(42)


def random_state(n_qubits: int, rng=RNG) -> PureState:
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return PureState(v / np.linalg.norm(v))


# ---------------------------------------------------------------- angles


@given(st.integers(-100, 100))
def test_octant_reduces_mod_8(v):
    assert octant(v) == v % 8
    assert 0 <= octant(v) < 8


@given(st.integers(0, 7), st.integers(0, 1))
def test_flip_is_an_involution(v, b):
    assert flip(flip(v, b), b) == v
    assert flip(v, 0) == v
    assert flip(v, 1) == octant(-v)


def test_octant_to_radians():
    assert octant_to_radians(0) == 0.0
    assert octant_to_radians(4) == pytest.approx(np.pi)
    assert octant_to_radians(2) == pytest.approx(np.pi / 2)


# ---------------------------------------------------------------- gates


def test_computational_states():
    s = PureState.computational("01")
    assert s.num_qubits == 2
    assert s.amps[0b01] == 1


def test_x_z_h_on_basis():
    zero = PureState.computational("0")
    one = zero.x(0)
    assert one.amps[1] == 1
    assert one.z(0).amps[1] == -1
    plus = zero.h(0)
    assert np.allclose(plus.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert states_equal(plus.h(0), zero)


def test_cnot_truth_table():
    for c_bit in (0, 1):
        for t_bit in (0, 1):
            s = PureState.computational(f"{c_bit}{t_bit}").cnot(0, 1)
            expect = PureState.computational(f"{c_bit}{t_bit ^ c_bit}")
            assert states_equal(s, expect)


def test_cz_phases():
    s = PureState.computational("11").cz(0, 1)
    assert s.amps[0b11] == -1
    s = PureState.computational("10").cz(0, 1)
    assert s.amps[0b10] == 1


def test_cz_symmetric():
    s = random_state(3)
    assert states_equal(s.cz(0, 2), s.cz(2, 0))


def test_z_rot_phase_on_one_component():
    s = PureState.computational("1").z_rot(0, 2)
    assert s.amps[1] == pytest.approx(1j)


def test_qubit_0_is_leftmost():
    s = PureState.computational("00").x(0)
    assert s.amps[0b10] == 1


def test_tensor_and_reorder():
    a = random_state(1)
    b = random_state(2)
    joint = a.tensor(b)
    assert joint.num_qubits == 3
    # swap qubit 0 to the end: new qubit i holds old qubit new_order[i]
    swapped = joint.reorder([1, 2, 0])
    expect = b.tensor(a)
    assert states_equal(swapped, expect)


@given(st.permutations([0, 1, 2]))
def test_reorder_then_inverse_is_identity(perm):
    s = random_state(3)
    inverse = [perm.index(i) for i in range(3)]
    assert states_equal(s.reorder(perm).reorder(inverse), s)


def test_gates_preserve_norm():
    s = random_state(3)
    for t in (s.x(1), s.z(2), s.h(0), s.z_rot(1, 5), s.cnot(0, 2), s.cz(1, 2)):
        assert t.norm() == pytest.approx(1.0)


# ----------------------------------------------------------- measurement


def test_plus_state_measured_at_own_angle_is_deterministic():
    for theta in range(8):
        p0, post = plus_state(theta).project_rotated(0, theta, 0)
        assert p0 == pytest.approx(1.0)
        assert post.num_qubits == 0
        p1, _ = plus_state(theta).project_rotated(0, theta, 1)
        assert p1 == pytest.approx(0.0)


def test_opposite_angle_flips_the_outcome():
    for theta in range(8):
        p1, _ = plus_state(theta).project_rotated(0, octant(theta + 4), 1)
        assert p1 == pytest.approx(1.0)


def test_projection_probabilities_sum_to_one():
    s = random_state(3)
    for q in range(3):
        for delta in range(8):
            p0, _ = s.project_rotated(q, delta, 0)
            p1, _ = s.project_rotated(q, delta, 1)
            assert p0 + p1 == pytest.approx(1.0)


def test_measurement_removes_the_qubit():
    s = random_state(3)
    rng = np.random.default_rng(1)
    outcome, post = s.measure_rotated(1, 3, rng.random())
    assert outcome in (0, 1)
    assert post.num_qubits == 2
    assert post.norm() == pytest.approx(1.0)


def test_computational_measurement_statistics():
    rng = np.random.default_rng(5)
    ones = sum(PureState.computational("0").h(0).measure_computational(0, rng.random())[0] for _ in range(2000))
    assert 850 < ones < 1150


def test_measurement_is_reproducible_for_a_fixed_seed():
    s = random_state(4)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        state = s
        bits = []
        while state.num_qubits:
            b, state = state.measure_rotated(0, 2, rng.random())
            bits.append(b)
        runs.append(bits)
    assert runs[0] == runs[1]


def test_project_computational_on_product_state():
    s = PureState.computational("10")
    p, post = s.project_computational(0, 1)
    assert p == pytest.approx(1.0)
    assert states_equal(post, PureState.computational("0"))


# ----------------------------------------------------- fidelity and density


def test_fidelity_ignores_global_phase():
    s = random_state(2)
    rotated = PureState(np.exp(0.7j) * s.amps)
    assert s.fidelity(rotated) == pytest.approx(1.0)
    assert states_equal(s, rotated)


def test_fidelity_of_orthogonal_states_is_zero():
    assert PureState.computational("0").fidelity(PureState.computational("1")) == pytest.approx(0.0)


def test_density_of_pure_state():
    s = random_state(2)
    m = s.density().matrix
    assert np.allclose(m, m.conj().T, atol=1e-12)
    assert np.trace(m) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(m).min() > -1e-12
    assert np.trace(m @ m).real == pytest.approx(1.0)


def test_partial_trace_of_product_state():
    a = random_state(1)
    b = random_state(2)
    joint = a.tensor(b).density()
    left = joint.partial_trace([0])
    assert np.allclose(left.matrix, a.density().matrix, atol=1e-12)
    right = joint.partial_trace([1, 2])
    assert np.allclose(right.matrix, b.density().matrix, atol=1e-12)


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    bell = PureState.computational("00").h(0).cnot(0, 1)
    rho = bell.density().partial_trace([0])
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_trace_distance_extremes():
    zero = PureState.computational("0").density()
    one = PureState.computational("1").density()
    assert trace_distance(zero, zero) == pytest.approx(0.0)
    assert trace_distance(zero, one) == pytest.approx(1.0)


def test_trace_distance_of_close_mixtures_is_small():
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    sigma = DensityMatrix(np.diag([0.51, 0.49]))
    assert trace_distance(rho, sigma) == pytest.approx(0.01)


def test_a_density_matrix_must_be_hermitian():
    # weighted_trace_norm reads one triangle only (eigvalsh), so trace_distance needs Hermitian inputs
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.0], [0.0, 0.5j]]))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, np.nan], [np.nan, 0.5]]))
    off = np.array([[0.5, 0.1 + 2e-11], [0.1, 0.5]])  # within 1e-10 of Hermitian
    assert DensityMatrix(off).num_qubits == 1
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(off + np.array([[0, 1e-9], [0, 0]]))


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (5, 4), (3, 16), (2, 64)])
def test_weighted_trace_norm_equals_the_singular_value_sum(shape):
    """On Hermitian stacks the eigenvalue form is the trace norm the SVD gives, to 1e-12."""
    rng = np.random.default_rng(list(shape))
    k, d = shape

    def hermitian() -> np.ndarray:
        m = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        return (m + m.conj().transpose(0, 2, 1)) / (2 * d)

    for a, b in ((hermitian(), hermitian()), (hermitian(), np.zeros((k, d, d)))):
        svd = 0.5 * np.sum(np.linalg.svd(a - b, compute_uv=False))
        assert abs(weighted_trace_norm(a, b) - svd) <= 1e-12


def test_invalid_states_are_rejected():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.0, 0.0]))  # not a power of two
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3))  # not a power of two


@pytest.mark.parametrize("amps", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0], [1.0, -np.inf]])
def test_non_finite_amplitudes_are_rejected(amps):
    with pytest.raises(ValueError, match="state norm"):
        PureState(np.array(amps))


@settings(max_examples=25)
@given(st.integers(0, 7), st.integers(0, 7))
def test_rotated_plus_states_overlap(theta, delta):
    # |<+_delta|+_theta>|^2 = cos^2((theta-delta) pi/8)
    overlap = plus_state(theta).fidelity(plus_state(delta))
    assert overlap == pytest.approx(np.cos((theta - delta) * np.pi / 8) ** 2, abs=1e-12)


# ------------------------------------------------------- lazy CZs in a system


def plus_pair() -> QuantumSystem:
    """Two server-held |+> qubits a and b in separate components."""
    system = QuantumSystem()
    system.add_register(plus_state(0), ["a"], ["server"])
    system.add_register(plus_state(0), ["b"], ["server"])
    return system


def test_system_double_cz_cancels():
    system = plus_pair()
    system.apply_cz("a", "b")
    system.apply_cz("b", "a")
    assert states_equal(system.state_of(["a"]), plus_state(0))
    assert states_equal(system.state_of(["b"]), plus_state(0))
    assert system.peak_qubits == 1


def test_system_measuring_a_qubit_applies_its_pending_czs():
    # CZ|++> = (|0>|+> + |1>|->)/sqrt(2); measuring a in the X basis with
    # outcome s leaves b in |s>, where without the CZ it would stay |+>
    system = plus_pair()
    system.apply_cz("a", "b")
    s = system.measure_rotated("a", 0, np.random.default_rng(3).random())
    assert states_equal(system.state_of(["b"]), PureState.computational(str(s)))
    assert system.peak_qubits == 2


def test_system_density_of_half_a_pending_cz_pair_is_maximally_mixed():
    system = plus_pair()
    system.apply_cz("a", "b")
    assert np.allclose(system.density_of(["a"]).matrix, np.eye(2) / 2)


def test_system_state_of_sees_a_pending_cz():
    system = plus_pair()
    system.apply_cz("a", "b")
    with pytest.raises(ValueError):
        system.state_of(["a"])  # entangled with b through the pending CZ
    graph_state = PureState.computational("00").h(0).h(1).cz(0, 1)
    assert states_equal(system.state_of(["a", "b"]), graph_state)


def test_system_lazy_czs_match_eager_gates():
    # a chain of CZs interleaved with X, H and Z rotations on random inputs,
    # against the same circuit on one eager statevector
    rng = np.random.default_rng(8)
    psi = random_state(4, rng)
    eager = psi
    system = QuantumSystem()
    system.add_register(psi, ["q0", "q1", "q2", "q3"], ["server"] * 4)
    steps = [("cz", 0, 1), ("cz", 1, 2), ("x", 1), ("cz", 2, 3), ("h", 2), ("cz", 0, 3), ("cz", 0, 3), ("z_rot", 3, 5), ("cz", 1, 3)]
    for step in steps:
        kind, q = step[0], step[1]
        if kind == "cz":
            eager = eager.cz(q, step[2])
            system.apply_cz(f"q{q}", f"q{step[2]}")
        elif kind == "z_rot":
            eager = eager.z_rot(q, step[2])
            system.apply_z_rot(f"q{q}", step[2])
        else:
            eager = getattr(eager, kind)(q)
            getattr(system, f"apply_{kind}")(f"q{q}")
    assert system.state_of(["q0", "q1", "q2", "q3"]).fidelity(eager) >= 1 - 1e-12


def test_system_never_writes_into_a_state_it_did_not_build():
    # the rewrites register one epr state for all their pairs, and plus_state
    # hands out rows of one table; a pending CZ goes into an array in place
    # only when a merge of the system built it, so no registered state and no
    # state_of result changes under later operations
    rng = np.random.default_rng(9)
    epr = PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    lone = random_state(1, rng)
    system = QuantumSystem()
    system.add_register(epr, ["a1", "a2"], ["server"] * 2)
    system.add_register(epr, ["b1", "b2"], ["server"] * 2)
    system.add_register(lone, ["c"], ["server"])
    system.add_register(plus_state(3), ["d"], ["server"])
    watched = {"epr": epr, "lone": lone, "plus": plus_state(3), "state_of": system.state_of(["b1", "b2"])}
    before = {name: state.amps.copy() for name, state in watched.items()}
    system.apply_cz("a1", "a2")  # inside one component: no merge builds an array
    system.apply_x("a1")
    system.apply_cz("a2", "b1")  # across components: onto the merged array
    system.apply_cz("b2", "c")
    system.apply_cz("c", "d")
    system.apply_cz("c", "a1")
    system.apply_cnot("d", "b2")
    system.measure_rotated("a2", 3, rng.random())
    system.measure_computational("c", rng.random())
    system.apply_cz("b1", "b2")
    system.measure_rotated("b1", 5, rng.random())
    system.measure_computational("a1", rng.random())
    for name, state in watched.items():
        assert np.array_equal(state.amps, before[name]), name
    assert not plus_state(3).amps.flags.writeable


def test_system_cz_rejects_bad_labels():
    system = plus_pair()
    with pytest.raises(KeyError):
        system.apply_cz("a", "ghost")
    with pytest.raises(ValueError):
        system.apply_cz("a", "a")


def test_system_holds_only_live_components():
    # merging deletes the absorbed component, measuring the last qubit of a
    # component deletes it, and peak_qubits still remembers the largest
    system = plus_pair()
    system.add_register(plus_state(0), ["c"], ["server"])
    system.apply_cnot("a", "b")
    assert len(system._states) == len(system._labels) == 2
    rng = np.random.default_rng(4)
    system.measure_computational("c", rng.random())
    assert len(system._states) == len(system._labels) == 1
    system.measure_computational("a", rng.random())
    system.measure_computational("b", rng.random())
    assert not system._states and not system._labels
    assert system.peak_qubits == 2
