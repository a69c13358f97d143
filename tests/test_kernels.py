"""The view-based PureState kernels, pinned against the slow paths they replaced.

The reference kernels below are the ones PureState used before its
one-qubit operations worked on the (2^q, 2, 2^(n-q-1)) view: moveaxis +
tensordot for gate matrices, moveaxis + indexing for projections, index
tuples for CNOT and CZ, kron for the tensor product, and the full density
operator followed by DensityMatrix.partial_trace for reduced states. They
are kept here only.

Where the arithmetic is the same (X, Z, CNOT, CZ, projections, tensor,
plus_state) the new kernels must agree bit for bit. Three references round
differently and are held to 1e-14 elementwise instead: tensordot hands
gate matrices to BLAS, whose complex kernels may fuse multiply-adds (H,
and Z(theta) at odd octants); on one qubit the moveaxis projection works
on 0-d numpy scalars, whose complex multiply rounds unlike numpy's array
loops; and M M^H sums in another order than the partial trace.
"""
from math import sqrt

import numpy as np
import pytest

from mpdqc.quantum import DensityMatrix, PureState, octant_to_radians, plus_state

SIZES = range(1, 11)
ROUNDOFF = 1e-14

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2)


def random_amps(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def ref_single(amps: np.ndarray, matrix: np.ndarray, q: int) -> np.ndarray:
    n = amps.size.bit_length() - 1
    psi = np.moveaxis(amps.reshape([2] * n), q, 0)
    psi = np.tensordot(matrix, psi, axes=([1], [0]))
    return np.moveaxis(psi, 0, q).reshape(-1)


def ref_z_rot(theta: int) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * octant_to_radians(theta))]).astype(complex)


def ref_project_rotated(amps: np.ndarray, q: int, delta: int, outcome: int) -> tuple[float, np.ndarray]:
    n = amps.size.bit_length() - 1
    psi = np.moveaxis(amps.reshape([2] * n), q, 0)
    phase = (-1) ** (outcome & 1) * np.exp(-1j * octant_to_radians(delta))
    sub = (psi[0] + phase * psi[1]).reshape(-1) / sqrt(2)
    prob = float(np.vdot(sub, sub).real)
    if prob > 1e-14:
        sub = sub / sqrt(prob)
    return prob, sub


def ref_project_computational(amps: np.ndarray, q: int, outcome: int) -> tuple[float, np.ndarray]:
    n = amps.size.bit_length() - 1
    psi = np.moveaxis(amps.reshape([2] * n), q, 0)
    sub = psi[outcome & 1].reshape(-1)
    prob = float(np.vdot(sub, sub).real)
    if prob > 1e-14:
        sub = sub / sqrt(prob)
    return prob, sub


def ref_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    n = amps.size.bit_length() - 1
    psi = amps.reshape([2] * n).copy()
    sel0 = [slice(None)] * n
    sel1 = [slice(None)] * n
    sel0[control], sel0[target] = 1, 0
    sel1[control], sel1[target] = 1, 1
    a, b = psi[tuple(sel0)].copy(), psi[tuple(sel1)].copy()
    psi[tuple(sel0)], psi[tuple(sel1)] = b, a
    return psi.reshape(-1)


def ref_cz(amps: np.ndarray, q1: int, q2: int) -> np.ndarray:
    n = amps.size.bit_length() - 1
    psi = amps.reshape([2] * n).copy()
    sel = [slice(None)] * n
    sel[q1], sel[q2] = 1, 1
    psi[tuple(sel)] *= -1.0
    return psi.reshape(-1)


def ref_partial_trace(amps: np.ndarray, keep: list[int]) -> np.ndarray:
    n = amps.size.bit_length() - 1
    rho = np.outer(amps, amps.conj()).reshape([2] * (2 * n))
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        rho = np.trace(rho, axis1=q, axis2=q + rho.ndim // 2)
    return rho.reshape(2 ** len(keep), 2 ** len(keep))


@pytest.mark.parametrize("n", SIZES)
def test_gates_match_the_tensordot_kernel(n):
    rng = np.random.default_rng([7, n])
    amps = random_amps(n, rng)
    state = PureState(amps, _checked=True)
    for q in range(n):
        assert np.array_equal(state.x(q).amps, ref_single(amps, _X, q))
        assert np.array_equal(state.z(q).amps, ref_single(amps, _Z, q))
        assert np.max(np.abs(state.h(q).amps - ref_single(amps, _H, q))) <= ROUNDOFF
        for theta in range(8):
            new = state.z_rot(q, theta).amps
            old = ref_single(amps, ref_z_rot(theta), q)
            assert np.max(np.abs(new - old)) <= ROUNDOFF
            if theta % 2 == 0:
                assert np.array_equal(new, old)


@pytest.mark.parametrize("n", SIZES[1:])
def test_two_qubit_gates_match_the_index_kernel(n):
    rng = np.random.default_rng([14, n])
    amps = random_amps(n, rng)
    state = PureState(amps, _checked=True)
    for q1 in range(n):
        for q2 in range(n):
            if q1 != q2:
                assert np.array_equal(state.cnot(q1, q2).amps, ref_cnot(amps, q1, q2))
                assert np.array_equal(state.cz(q1, q2).amps, ref_cz(amps, q1, q2))


@pytest.mark.parametrize("n", SIZES)
def test_projections_match_the_moveaxis_kernel(n):
    rng = np.random.default_rng([8, n])
    amps = random_amps(n, rng)
    state = PureState(amps, _checked=True)
    for q in range(n):
        for outcome in (0, 1):
            p_new, post = state.project_computational(q, outcome)
            p_old, sub = ref_project_computational(amps, q, outcome)
            assert p_new == p_old and np.array_equal(post.amps, sub)
            for delta in range(8):
                p_new, post = state.project_rotated(q, delta, outcome)
                p_old, sub = ref_project_rotated(amps, q, delta, outcome)
                if n == 1:
                    assert abs(p_new - p_old) <= ROUNDOFF and np.max(np.abs(post.amps - sub)) <= ROUNDOFF
                else:
                    assert p_new == p_old and np.array_equal(post.amps, sub)


@pytest.mark.parametrize("n", range(1, 9))
def test_measure_rotated_builds_the_drawn_projection(n):
    # outcome 1's post-state comes from the half turned for outcome 0: it
    # must be project_rotated's, bit for bit, as must the outcome-0 one
    rng = np.random.default_rng([10, n])
    outcomes = []
    for _ in range(200):
        state = PureState(random_amps(n, rng), _checked=True)
        q, delta, u = int(rng.integers(n)), int(rng.integers(8)), rng.random()
        outcome, post = state.measure_rotated(q, delta, u)
        assert outcome == int(u >= state.project_rotated(q, delta, 0)[0])
        assert np.array_equal(post.amps, state.project_rotated(q, delta, outcome)[1].amps)
        outcomes.append(outcome)
    assert 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize("n", SIZES)
def test_tensor_matches_kron(n):
    rng = np.random.default_rng([9, n])
    for m in range(1, 11 - n):
        a, b = random_amps(n, rng), random_amps(m, rng)
        product = PureState(a, _checked=True).tensor(PureState(b, _checked=True))
        assert np.array_equal(product.amps, np.kron(a, b))


def test_plus_state_matches_its_formula():
    for theta in range(8):
        amps = np.array([1.0, np.exp(1j * octant_to_radians(theta))], dtype=complex) / sqrt(2)
        assert np.array_equal(plus_state(theta).amps, amps)


@pytest.mark.parametrize("n", SIZES)
def test_reduced_density_matches_the_partial_trace(n):
    rng = np.random.default_rng([10, n])
    amps = random_amps(n, rng)
    state = PureState(amps, _checked=True)
    keeps = [list(range(k)) for k in range(1, n + 1)]
    keeps += [sorted(rng.choice(n, size=k, replace=False).tolist()) for k in range(1, n + 1)]
    for keep in keeps:
        new = state.density(keep).matrix
        assert new.shape == (2 ** len(keep),) * 2
        assert np.max(np.abs(new - ref_partial_trace(amps, keep))) <= ROUNDOFF
        if n <= 6:
            full = state.density().partial_trace(keep).matrix
            assert np.max(np.abs(new - full)) <= ROUNDOFF


def test_reduced_density_rejects_bad_keep_sets():
    state = PureState(random_amps(3, np.random.default_rng(11)), _checked=True)
    with pytest.raises(ValueError):
        state.density([])
    with pytest.raises(IndexError):
        state.density([0, 3])
    assert isinstance(state.density([2, 0, 2]), DensityMatrix)

