"""Acceptance gate: seven checks, one printed verdict line each.

Every check pins its own tolerance and runtime budget and prints exactly
one uncaptured "A<i> PASS/FAIL ..." line so the verdicts survive output
capture. Sampling checks use fixed seeds; their thresholds leave room for
the estimator bias of finite-sample total-variation distances.
"""
import time
from functools import partial

import numpy as np
import pytest

from mpdqc.brickwork import MeasurementPattern, build_brickwork, corrected_angle, random_pattern, reference_execute
from mpdqc.cli import _pool_distance
from mpdqc.harness import blindness_check, observe, sample
from mpdqc.oracle import reconstruct, share_secret
from mpdqc.protocol import AbortInfo, Session, Transcript, run_full_protocol
from mpdqc.quantum import PureState, QuantumSystem, flip, octant, plus_state
from mpdqc.rsp import theta_input
from reference import chain_branches, pad_input, undo_pad

SEED = 0


def random_state(n_qubits: int, rng) -> PureState:
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return PureState(v / np.linalg.norm(v))


def verdict(capsys, name: str, ok: bool, detail: str) -> None:
    line = f"{name} {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


# --------------------------------------------------------------------- A1


def test_a1_protocol_matches_direct_execution(capsys):
    """100 random 2-client computations on a 2x5 graph, exact agreement."""
    budget, tolerance = 30.0, 1e-6
    start = time.perf_counter()
    graph = build_brickwork(2, 5)
    rng = np.random.default_rng([SEED, 101])
    worst = 0.0
    aborts = 0
    for case in range(100):
        pattern = random_pattern(graph, rng)
        n_ref = 1 if case % 20 == 19 else 0  # every 20th input drags a reference qubit
        psi = random_state(2 + n_ref, rng)
        run = run_full_protocol(pattern, psi, rng, m_copies=2)
        if run.aborted:
            aborts += 1
            continue
        expected = reference_execute(pattern, psi, np.random.default_rng(1))
        worst = max(worst, 1 - run.output_state.fidelity(expected))
    elapsed = time.perf_counter() - start
    ok = worst <= tolerance and aborts == 0 and elapsed < budget
    verdict(capsys, "A1", ok, f"100 runs on 2x5, max infidelity {worst:.2e} (tol {tolerance}), {aborts} aborts, {elapsed:.1f}s")


# --------------------------------------------------------------------- A2


def test_a2_preparation_chain_matches_closed_form(capsys):
    """Chain circuits against solved angles, exhaustive over branches."""
    budget, tolerance = 10.0, 1e-9
    start = time.perf_counter()
    rng = np.random.default_rng([SEED, 102])
    worst = 0.0
    draws = 0
    for n in (2, 3, 4, 5):
        for _ in range(6):
            shares = [int(rng.integers(8)) for _ in range(n)]
            draws += 1
            for t, prob, state in chain_branches(plus_state(shares[-1]), [plus_state(s) for s in shares[:-1]], n):
                assert prob == pytest.approx(1 / 2 ** (n - 1))
                worst = max(worst, 1 - state.fidelity(plus_state(theta_input(shares, n, t, 0))))
        for a in (0, 1):
            for _ in range(4):
                owner = int(rng.integers(1, n + 1))
                shares = [int(rng.integers(8)) for _ in range(n)]
                draws += 1
                psi = random_state(1, rng)
                padded = pad_input(psi, 0, a, shares[owner - 1])
                aux = [plus_state(shares[k - 1]) for k in range(1, n + 1) if k != owner]
                for t, _, state in chain_branches(padded, aux, owner):
                    recovered = undo_pad(state, 0, a, theta_input(shares, owner, t, a))
                    worst = max(worst, 1 - recovered.fidelity(psi))
    elapsed = time.perf_counter() - start
    ok = worst <= tolerance and draws >= 50 and elapsed < budget
    verdict(capsys, "A2", ok, f"{draws} share draws, n=2..5, all branches, max infidelity {worst:.2e} (tol {tolerance}), {elapsed:.1f}s")


# --------------------------------------------------------------------- A3


def test_a3_server_views_are_scenario_independent(capsys):
    """Exact enumeration: zero pattern on |00> vs random pattern on |11>."""
    budget, tolerance = 60.0, 1e-9
    start = time.perf_counter()
    graph = build_brickwork(2, 2)
    pattern_a = MeasurementPattern(graph, {1: 0, 2: 0})
    pattern_b = random_pattern(graph, np.random.default_rng([SEED, 103]))
    distances = blindness_check(pattern_a, PureState.computational("00"), pattern_b, PureState.computational("11"))
    worst = max(distances.values())
    elapsed = time.perf_counter() - start
    ok = worst <= tolerance and elapsed < budget
    per_cp = ", ".join(f"{cp}={d:.1e}" for cp, d in distances.items())
    verdict(capsys, "A3", ok, f"max view distance {worst:.2e} (tol {tolerance}) [{per_cp}], {elapsed:.1f}s")


# --------------------------------------------------------------------- A4


def deviating_batches(deviation: int, batches: int, rng) -> int:
    """Rejections among batches of two copies, declared at a uniform angle but
    prepared `deviation` octants off, each through Session.offer_test_copies
    on a fresh two-client session; a batch opens one copy."""
    rejections = 0
    for _ in range(batches):
        theta = int(rng.integers(8))
        session = Session(QuantumSystem(), Transcript(), rng, 2)
        rejections += isinstance(session.offer_test_copies(0, 1, [theta] * 2, [octant(theta + deviation)] * 2), AbortInfo)
    return rejections


def test_a4_copy_tests_catch_deviations(capsys):
    """Per-copy rejection rates at one- and four-octant deviations."""
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng([SEED, 104])
    tested, tested4 = 10000, 2000
    rejections = deviating_batches(1, tested, rng)
    rate = rejections / tested
    center = float(np.sin(np.pi / 8) ** 2)
    lo, hi = center - 0.02, center + 0.02
    rej4 = deviating_batches(4, tested4, rng)
    elapsed = time.perf_counter() - start
    ok = lo <= rate <= hi and rej4 == tested4 and elapsed < budget
    verdict(capsys, "A4", ok, f"deviation 1 rejected {rate:.4f} of {tested} copies (band [{lo:.4f}, {hi:.4f}]), deviation 4 rejected {rej4}/{tested4}, {elapsed:.1f}s")


# --------------------------------------------------------------------- A5


def test_a5_rewrites_preserve_the_distribution(capsys):
    """Base protocol vs its three rewrites at 10000 samples each."""
    budget, tolerance, trials = 120.0, 0.02, 10000
    start = time.perf_counter()
    rng0 = np.random.default_rng([SEED, 105])
    pattern = random_pattern(build_brickwork(2, 2), rng0)
    psi = random_state(2, rng0)
    expected = reference_execute(pattern, psi, np.random.default_rng(1))

    base = [summary for summary, _ in sample(partial(observe, "base", pattern, psi), trials, SEED, 105, 1)]
    worst = 0.0
    worst_pair = ""
    min_fidelity = 1.0
    for salt, version in ((2, "teleport"), (3, "delayed"), (4, "simulator-resource")):
        rows = sample(partial(observe, version, pattern, psi), trials, SEED, 105, salt)
        if version == "simulator-resource":
            min_fidelity = min(output.fidelity(expected) for _, output in rows)
        for field, d in _pool_distance(base, [summary for summary, _ in rows]).items():
            if d > worst:
                worst, worst_pair = d, f"{version}/{field}"
    elapsed = time.perf_counter() - start
    ok = worst <= tolerance and min_fidelity >= 1 - 1e-6 and elapsed < budget
    verdict(capsys, "A5", ok, f"max pooled TV {worst:.4f} at {worst_pair} (tol {tolerance}, {trials} samples per rewrite), min simulated fidelity {min_fidelity:.9f}, {elapsed:.1f}s")


# --------------------------------------------------------------------- A6


def test_a6_coalition_view_is_simulatable(capsys):
    """Real vs simulated coalition views at 10000 samples each."""
    budget, tolerance, trials = 60.0, 0.02, 10000
    start = time.perf_counter()
    rng0 = np.random.default_rng([SEED, 106])
    pattern = random_pattern(build_brickwork(2, 2), rng0)
    psi = random_state(2, rng0)
    coalition = frozenset({2})

    real, simulated = (
        [summary for summary, _ in sample(partial(observe, world, pattern, psi, coalition=coalition), trials, SEED, 106, salt)]
        for salt, world in ((1, "base"), (2, "simulated-client"))
    )
    distances = _pool_distance(real, simulated)
    worst_field = max(distances, key=distances.get)
    worst = distances[worst_field]
    elapsed = time.perf_counter() - start
    ok = worst <= tolerance and elapsed < budget
    verdict(capsys, "A6", ok, f"max pooled TV {worst:.4f} at {worst_field} (tol {tolerance}, {trials} samples per world), leak checks on all {2 * trials} runs, {elapsed:.1f}s")


# --------------------------------------------------------------------- A7


def test_a7_numeric_invariants_hold(capsys):
    """Exact algebra and state invariants, every single check."""
    budget = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng([SEED, 107])
    checks = failures = 0

    def check(condition: bool) -> None:
        nonlocal checks, failures
        checks += 1
        failures += 0 if condition else 1

    for v in range(-16, 16):
        check(0 <= octant(v) < 8)
        check(octant(v + 8) == octant(v))
        for b in (0, 1):
            check(flip(flip(v, b), b) == octant(v))
    for phi in range(8):
        for a_j in (0, 1):
            for a_pred in (0, 1):
                for s_x in (0, 1):
                    for s_z in (0, 1):
                        sign = -1 if (a_j ^ s_x) else 1
                        check(corrected_angle(phi, a_j, a_pred, s_x, s_z) == octant(sign * phi + 4 * s_z + 4 * a_pred))
    for _ in range(60):
        state = random_state(3, rng)
        check(abs(state.norm() - 1) < 1e-12)
        for op in (state.h(0), state.x(1), state.z(2), state.z_rot(0, int(rng.integers(8))), state.cnot(0, 2), state.cz(1, 2)):
            check(abs(op.norm() - 1) < 1e-12)
        q, delta = int(rng.integers(3)), int(rng.integers(8))
        p0, _ = state.project_rotated(q, delta, 0)
        p1, _ = state.project_rotated(q, delta, 1)
        check(abs(p0 + p1 - 1) < 1e-12)
        rho = state.density().partial_trace([0, 2])
        check(abs(np.trace(rho.matrix).real - 1) < 1e-12)
    for _ in range(100):
        modulus = 2 if rng.integers(2) else 8
        value = int(rng.integers(modulus))
        n = int(rng.integers(2, 6))
        check(reconstruct(share_secret(value, n, modulus, rng, tag=("chk",))) == value)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < budget
    verdict(capsys, "A7", ok, f"{checks - failures}/{checks} invariant checks hold (100% required), {elapsed:.1f}s")
