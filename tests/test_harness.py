from types import SimpleNamespace

import numpy as np
import pytest

import mpdqc.harness as harness

from mpdqc.brickwork import MeasurementPattern, build_brickwork, random_pattern, reference_execute
from mpdqc.harness import (
    blindness_check,
    check_no_secret_leak,
    clopper_pearson,
    coalition_view_summary,
    empirical_tv,
    exact_server_views,
    marginal_distances,
    observable_summary,
    observe,
    run_intermediate_protocol,
    run_simulated_client_world,
    run_simulated_server_world,
    sample,
    summary_fields,
    view_distance,
)
from mpdqc.oracle import share_secret, theta_tag
from mpdqc.protocol import COPY_TEST_FAILED, AbortInfo, Session, Transcript, run_full_protocol, share_payloads
from mpdqc.quantum import DensityMatrix, PureState, trace_distance
from reference import sampled_prepared_density

RNG = np.random.default_rng(77)


def random_state(n_qubits: int, rng=RNG) -> PureState:
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return PureState(v / np.linalg.norm(v))


def small_pattern(seed=0, angles=None):
    g = build_brickwork(2, 2)
    if angles is None:
        return random_pattern(g, np.random.default_rng(seed))
    return MeasurementPattern(g, angles)


# ------------------------------------------------------------ exact views


def test_exact_views_conserve_probability():
    views = exact_server_views([(small_pattern(angles={1: 3, 2: 5}), PureState.computational("10"))])[0]
    for checkpoint, classes in views.items():
        total = np.trace(classes, axis1=1, axis2=2).real.sum()
        assert total == pytest.approx(1.0, abs=1e-9), checkpoint


def test_exact_views_have_the_expected_checkpoints():
    views = exact_server_views([(small_pattern(angles={1: 0, 2: 0}), PureState.computational("00"))])[0]
    assert set(views) == {"prepared", "round:1", "round:2", "delivered"}
    assert views["prepared"].shape == (1, 16, 16)
    # after both rounds one class per pair of angles mod 4, each a matrix of the two live nodes
    assert views["round:2"].shape == (16, 4, 4)
    assert views["delivered"].shape == (16, 1, 1)


def test_input_differences_are_invisible_to_the_server():
    pattern = small_pattern(angles={1: 2, 2: 7})
    distances = blindness_check(pattern, PureState.computational("00"), pattern, PureState.computational("11"))
    assert max(distances.values()) <= 1e-9


def test_blindness_check_rejects_mismatched_interfaces():
    p_small = small_pattern(angles={1: 0, 2: 0})
    g_big = build_brickwork(2, 3)
    p_big = MeasurementPattern(g_big, {j: 0 for j in g_big.measured_nodes})
    with pytest.raises(ValueError):
        blindness_check(p_small, PureState.computational("00"), p_big, PureState.computational("00"))
    with pytest.raises(ValueError):
        blindness_check(p_small, PureState.computational("00"), p_small, PureState.computational("000"))


def test_exact_views_refuse_oversized_graphs():
    g = build_brickwork(4, 4)
    pattern = random_pattern(g, np.random.default_rng(1))
    with pytest.raises(ValueError):
        exact_server_views([(pattern, PureState.computational("0000"))])


def test_sampled_prepared_state_matches_the_enumeration():
    pattern = small_pattern(angles={1: 3, 2: 6})
    psi = PureState.computational("01")
    exact = exact_server_views([(pattern, psi)])[0]["prepared"][0]
    sampled = sampled_prepared_density(pattern, psi, 1000, np.random.default_rng(2))
    assert trace_distance(DensityMatrix(exact), DensityMatrix(sampled)) < 0.05


def test_view_distance_of_identical_views_is_zero():
    views = exact_server_views([(small_pattern(angles={1: 1, 2: 2}), PureState.computational("00"))])[0]
    for buckets in views.values():
        assert view_distance(buckets, buckets) == pytest.approx(0.0)


# --------------------------------------------------- intermediate versions


@pytest.mark.parametrize("version", ["teleport", "delayed", "simulator-resource"])
def test_rewritten_protocols_compute_the_same_thing(version):
    rng = np.random.default_rng(3)
    pattern = random_pattern(build_brickwork(2, 2), rng)
    psi = random_state(2, rng)
    expected = reference_execute(pattern, psi, np.random.default_rng(0))
    for seed in range(4):
        run = run_intermediate_protocol(pattern, psi, np.random.default_rng(seed), version)
        assert run.output_state.fidelity(expected) >= 1 - 1e-9


def test_dropping_theta_from_the_blind_angle_breaks_correctness_and_blindness(monkeypatch, fresh_view_layouts):
    # negative control: both callers of oracle.blind_angle (the ledger,
    # which announces the base and teleport angles, and the exact views'
    # layout) lose the pad angle theta
    import mpdqc.oracle

    graph = build_brickwork(2, 2)
    pattern = MeasurementPattern(graph, {1: 1, 2: 3})
    psi = random_state(2, np.random.default_rng(31))
    expected = reference_execute(pattern, psi, np.random.default_rng(0))
    worlds = {
        "base": lambda: run_full_protocol(pattern, psi, np.random.default_rng(32)),
        "teleport": lambda: run_intermediate_protocol(pattern, psi, np.random.default_rng(33), "teleport"),
    }
    zero = MeasurementPattern(graph, {1: 0, 2: 0})
    zeros = PureState.computational("00")
    for run in worlds.values():
        assert run().output_state.fidelity(expected) >= 1 - 1e-9
    assert max(blindness_check(zero, zeros, pattern, zeros).values()) <= 1e-9

    kernel = mpdqc.oracle.blind_angle
    for module in (mpdqc.oracle, harness):
        monkeypatch.setattr(module, "blind_angle", lambda corrected, r, theta, a: kernel(corrected, r, 0 * theta, a))
    harness._view_layout.cache_clear()  # a layout reads blind_angle when it is built
    for world, run in worlds.items():
        assert run().output_state.fidelity(expected) < 1 - 1e-6, world
    assert max(blindness_check(zero, zeros, pattern, zeros).values()) > 0.1


@pytest.mark.parametrize("version", ["delayed", "simulator-resource"])
@pytest.mark.parametrize("n_wires,n_columns,n_ref", [(2, 2, 0), (2, 3, 1), (4, 2, 0)])
def test_each_delayed_solve_satisfies_the_oracle_rule(version, n_wires, n_columns, n_ref):
    # the delayed worlds announce fresh angles and solve the pad angles
    # afterwards; the ledger, filed with the solved angles and the measured
    # masks, announces every one of those angles by the oracle's own rule
    rng = np.random.default_rng([n_wires, n_columns, n_ref])
    pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
    psi = random_state(n_wires + n_ref, rng)
    for seed in range(3):
        run = run_intermediate_protocol(pattern, psi, np.random.default_rng(seed), version)
        assert set(run.delta) == set(pattern.graph.measured_nodes)
        assert {j: run.ledger.delta(j) for j in run.delta} == run.delta, seed


@pytest.mark.parametrize("n_columns", [2, 3])
def test_every_world_keeps_its_announcements_in_its_ledger(n_columns):
    # a run's chain outcomes, announced angles and results are its ledger's
    # own books, one angle per measured node: the message-sending worlds
    # announce the filed angles in order, and the teleport world files the
    # oracle's own angle for each node
    rng = np.random.default_rng([28, n_columns])
    pattern = random_pattern(build_brickwork(2, n_columns), rng)
    psi = random_state(2, rng)
    worlds = {
        "base": lambda r: run_full_protocol(pattern, psi, r, m_copies=3),
        **{v: (lambda r, v=v: run_intermediate_protocol(pattern, psi, r, v)) for v in ("teleport", "delayed", "simulator-resource")},
        "simulated-client": lambda r: run_simulated_client_world(pattern, psi, {2}, r, m_copies=3),
    }
    for world, run_world in worlds.items():
        for seed in range(3):
            run = run_world(np.random.default_rng(seed))
            assert run.chain_t is run.ledger.chain_t and run.delta is run.ledger.announced and run.b is run.ledger.outcomes
            assert sorted(run.delta) == sorted(pattern.graph.measured_nodes), world
            announced = [(m.payload["node"], m.payload["delta"]) for m in run.transcript.messages if m.variant == "DeltaAnnounce"]
            assert announced == (list(run.delta.items()) if world in ("base", "simulated-client") else []), (world, seed)
            if world == "teleport":
                assert {j: run.ledger.delta(j) for j in run.delta} == run.delta, seed


def test_simulated_server_world_handles_references():
    rng = np.random.default_rng(4)
    pattern = random_pattern(build_brickwork(2, 2), rng)
    psi = random_state(3, rng)
    expected = reference_execute(pattern, psi, np.random.default_rng(0))
    run = run_simulated_server_world(pattern, psi, np.random.default_rng(9))
    assert run.output_state.fidelity(expected) >= 1 - 1e-9
    assert run.output_state.num_qubits == 3


def test_observable_summary_fields():
    rng = np.random.default_rng(5)
    pattern = random_pattern(build_brickwork(2, 2), rng)
    run = run_full_protocol(pattern, random_state(2, rng), rng, m_copies=2)
    summary = observable_summary(run, rng)
    kinds = {k.split(":")[0] for k in summary}
    assert kinds == {"t", "delta", "b", "key", "out"}
    assert all(isinstance(v, int) for v in summary.values())


@pytest.mark.parametrize("n_wires,n_columns,n_ref", [(2, 1, 0), (2, 2, 0), (2, 3, 1), (4, 2, 0), (4, 3, 1)])
def test_summary_fields_counts_each_summary(n_wires, n_columns, n_ref):
    rng = np.random.default_rng(n_columns)
    pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
    psi = random_state(n_wires + n_ref, rng)
    summary = observable_summary(run_full_protocol(pattern, psi, rng, m_copies=2), rng)
    assert len(summary) == summary_fields(n_wires, n_columns, n_ref)
    coalition = {1}
    simulated = run_simulated_client_world(pattern, psi, coalition, rng, m_copies=2)
    assert len(coalition_view_summary(simulated, coalition, rng)) < len(summary)


# ------------------------------------------------------ client simulation


def test_simulated_client_world_stays_honest():
    rng = np.random.default_rng(6)
    pattern = random_pattern(build_brickwork(2, 2), rng)
    psi = random_state(2, rng)
    for seed in range(5):
        run = run_simulated_client_world(pattern, psi, {2}, np.random.default_rng(seed), m_copies=2)
        assert not run.abort
        check_no_secret_leak(run.transcript, {2}, 2)
        summary = coalition_view_summary(run, {2}, np.random.default_rng(seed))
        assert "key:4" in summary and "out:2" in summary
        assert "key:3" not in summary and "out:1" not in summary


def test_simulated_outputs_decrypt_to_the_ideal_result():
    # corrupt-then-decrypt must cancel exactly, leaving the ideal resource
    # output on every wire
    rng = np.random.default_rng(7)
    pattern = random_pattern(build_brickwork(2, 2), rng)
    psi = random_state(2, rng)
    expected = reference_execute(pattern, psi, np.random.default_rng(0))
    for seed in range(6):
        run = run_simulated_client_world(pattern, psi, {1}, np.random.default_rng(seed), m_copies=2)
        assert not run.abort
        assert run.output_state.fidelity(expected) >= 1 - 1e-9


def test_simulator_rejects_improper_coalitions():
    pattern = small_pattern(angles={1: 0, 2: 0})
    psi = PureState.computational("00")
    with pytest.raises(ValueError):
        run_simulated_client_world(pattern, psi, {1, 2}, np.random.default_rng(0))
    with pytest.raises(ValueError):
        run_simulated_client_world(pattern, psi, set(), np.random.default_rng(0))


@pytest.mark.parametrize("m_copies", [0, 1])
def test_simulator_refuses_too_few_copies_before_it_draws(m_copies):
    # the simulator refuses too few copies as the real run does, with its
    # message, and before it draws anything
    pattern = random_pattern(build_brickwork(2, 3), np.random.default_rng(3))
    psi = random_state(2, np.random.default_rng(4))
    with pytest.raises(ValueError) as real:
        run_full_protocol(pattern, psi, np.random.default_rng(0), m_copies=m_copies)
    for coalition in ({1}, {2}):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(ValueError) as simulated:
            run_simulated_client_world(pattern, psi, coalition, rng, m_copies=m_copies)
        assert str(simulated.value) == str(real.value)
        assert rng.bit_generator.state == before


def test_simulated_coalition_view_holds_the_real_messages():
    # messages the coalition sees in a real and a simulated run, with its
    # members merged under one name, in order as (sender, receiver, variant,
    # kind, node, payload field names, share field names, the sent qubit's
    # label if any, so an OutputQubit's too): the two lists are equal
    shapes = ((2, 2, 0, {2}), (4, 2, 0, {1, 3}), (2, 1, 0, {2}), (2, 3, 0, {1}), (4, 3, 1, {2}), (6, 2, 0, {1, 2, 5}))
    for n_wires, n_columns, n_ref, coalition in shapes:
        rng = np.random.default_rng(n_wires)
        pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
        psi = random_state(n_wires + n_ref, rng)
        names = {f"client:{c}" for c in coalition}
        party = {name: "coalition" for name in names}

        def seen(run) -> list[tuple]:
            return [
                (party.get(m.sender, m.sender), party.get(m.receiver, m.receiver), m.variant, m.payload.get("kind"),
                 m.payload.get("node"), tuple(sorted(m.payload)), tuple(sorted(m.payload.get("share", ()))), m.payload.get("label"))
                for m in run.transcript.visible_to(names)
            ]

        for seed in range(3):
            real = seen(run_full_protocol(pattern, psi, np.random.default_rng(seed), m_copies=3))
            simulated = seen(run_simulated_client_world(pattern, psi, coalition, np.random.default_rng(seed), m_copies=3))
            assert real == simulated, (n_wires, n_columns, coalition, seed)


def test_leak_checker_flags_raw_secret_fields():
    t = Transcript()
    t.record("client:1", "all", "ResultBroadcast", {"theta": 3})
    with pytest.raises(AssertionError):
        check_no_secret_leak(t, {2}, 2)


def test_leak_checker_flags_complete_honest_share_sets():
    t = Transcript()
    pieces = share_secret(5, 2, 8, np.random.default_rng(0), theta_tag(1, 1, 0))
    for share in share_payloads(theta_tag(1, 1, 0), [piece.value for piece in pieces], 8):
        t.record("client:1", "client:2", "ShareDistribution", {"kind": "copy-angle", "share": share})
    with pytest.raises(AssertionError):
        check_no_secret_leak(t, {2}, 2)
    # the same traffic is fine if the secret belongs to the coalition itself
    check_no_secret_leak(t, {1}, 2)


# -------------------------------------------------------------- statistics


def test_empirical_tv_known_values():
    assert empirical_tv([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.25)
    assert empirical_tv([0, 1], [0, 1]) == pytest.approx(0.0)
    assert empirical_tv([0, 0], [1, 1]) == pytest.approx(1.0)


def test_marginal_distances_union_of_fields():
    a = [{"x": 0, "y": 1}, {"x": 1, "y": 1}]
    b = [{"x": 0}, {"x": 1}]
    d = marginal_distances(a, b)
    assert set(d) == {"x", "y"}
    assert d["x"] == pytest.approx(0.0)
    assert d["y"] == pytest.approx(1.0)  # None vs 1


def test_clopper_pearson_properties():
    lo, hi = clopper_pearson(0, 100)
    assert lo == 0.0 and 0 < hi < 0.1
    lo, hi = clopper_pearson(100, 100)
    assert hi == 1.0 and 0.9 < lo < 1
    lo_small, hi_small = clopper_pearson(50, 100)
    lo_big, hi_big = clopper_pearson(5000, 10000)
    assert hi_big - lo_big < hi_small - lo_small
    assert lo_small < 0.5 < hi_small
    with pytest.raises(ValueError):
        clopper_pearson(1, 0)


def test_sample_seeds_trial_i_from_the_salt_and_i():
    draws = sample(lambda rng: int(rng.integers(1 << 30)), 4, 7, 3)
    assert draws == [int(np.random.default_rng([7, 3, i]).integers(1 << 30)) for i in range(4)]


def test_observe_summarizes_each_world_and_raises_on_abort(monkeypatch):
    pattern = random_pattern(build_brickwork(2, 2), np.random.default_rng(4))
    psi = random_state(2)
    for world in ("base", "teleport", "delayed", "simulator-resource"):
        summary, output = observe(world, pattern, psi, np.random.default_rng(5))
        assert {"key:3", "key:4", "out:1", "out:2"} <= set(summary) and output.num_qubits == 2
        # a reference qubit is read out as the wire after the outputs
        summary, output = observe(world, pattern, random_state(3), np.random.default_rng(5))
        assert {"key:3", "key:4", "out:1", "out:2", "out:3"} <= set(summary) and output.num_qubits == 3
    for world in ("base", "simulated-client"):
        summary, _ = observe(world, pattern, psi, np.random.default_rng(5), coalition=frozenset({2}))
        assert "key:4" in summary and "key:3" not in summary and "out:2" in summary
    monkeypatch.setattr(harness, "run_full_protocol", lambda *args, **kwargs: SimpleNamespace(aborted=True))
    with pytest.raises(RuntimeError, match="honest base run aborted"):
        observe("base", pattern, psi, np.random.default_rng(5))


def _note_offered_batches(monkeypatch) -> list[tuple[int, int]]:
    """(node, contributor) of every Session.offer_test_copies call, in call order."""
    offered = []
    offer = Session.offer_test_copies

    def noted(self, node, contributor, declared, prepared):
        offered.append((node, contributor))
        return offer(self, node, contributor, declared, prepared)

    monkeypatch.setattr(Session, "offer_test_copies", noted)
    return offered


def _patch_the_copy_test_rule(monkeypatch, rule) -> None:
    """Replace oracle.judge_copy_tests wherever the program binds it."""
    import mpdqc.harness
    import mpdqc.oracle
    import mpdqc.protocol

    kernel = mpdqc.oracle.judge_copy_tests
    for module in (mpdqc.oracle, mpdqc.protocol, mpdqc.harness):
        if getattr(module, "judge_copy_tests", None) is kernel:
            monkeypatch.setattr(module, "judge_copy_tests", rule)


def _tested_batches(run) -> list[tuple[int, int]]:
    """(node, contributor) of every copy test a run's transcript holds, in order."""
    return [(m.payload["node"], m.payload["contributor"]) for m in run.transcript.messages if m.payload.get("kind") == "survivor"]


def test_a_rejected_copy_test_aborts_both_coalition_worlds(monkeypatch):
    # the full protocol and the coalition simulator both judge copy tests
    # by oracle.judge_copy_tests; rejecting every batch must stop both at
    # the first tested (node, contributor) with the same abort record
    from mpdqc.oracle import judge_copy_tests as kernel

    def reject(shares, prepared, survivors, uniforms):
        opened, outcomes = kernel(shares, prepared, survivors, uniforms)
        return opened, np.ones_like(outcomes)

    _patch_the_copy_test_rule(monkeypatch, reject)
    pattern = random_pattern(build_brickwork(2, 3), np.random.default_rng(4))
    psi = random_state(2)
    worlds = {
        "base": lambda rng: run_full_protocol(pattern, psi, rng, m_copies=3),
        "simulated-client": lambda rng: run_simulated_client_world(pattern, psi, {2}, rng, m_copies=3),
    }
    for world, run_world in worlds.items():
        run = run_world(np.random.default_rng(8))
        # node 1 is client 1's input, so client 2 tests the first batch
        assert _tested_batches(run) == [(1, 2)], world
        assert run.abort == AbortInfo("verification", 1, 2, COPY_TEST_FAILED), world
        assert run.aborted and run.output_state is None, world
        assert run.transcript.messages[-1].variant == "Abort", world
        with pytest.raises(RuntimeError, match=f"honest {world} run aborted"):
            observe(world, pattern, psi, np.random.default_rng(8), m_copies=3, coalition=frozenset({2}))


def test_every_copy_test_runs_through_the_oracle_kernel(monkeypatch):
    # the protocol, the coalition simulator and protocol1-detection must
    # all run the one rule, oracle.judge_copy_tests: the protocol once on
    # the stack of all its batches, the others once per batch, through
    # Session.offer_test_copies; the simulator offers every contribution,
    # the honest clients' too
    from mpdqc.cli import MODES
    from mpdqc.oracle import judge_copy_tests as kernel

    offered, calls = _note_offered_batches(monkeypatch), []

    def counted(shares, prepared, survivors, uniforms):
        calls.append(np.shape(survivors))
        return kernel(shares, prepared, survivors, uniforms)

    _patch_the_copy_test_rule(monkeypatch, counted)
    graph = build_brickwork(2, 3)
    rng = np.random.default_rng(12)
    pattern = random_pattern(graph, rng)
    psi = random_state(2, rng)
    contributions = [(j, k) for j in graph.measured_nodes for k in (1, 2) if not (j in graph.input_nodes and k == j)]

    run = run_full_protocol(pattern, psi, rng, m_copies=3)
    assert not run.aborted
    assert calls == [(len(contributions),)] and not offered
    assert _tested_batches(run) == contributions
    calls.clear()
    assert not run_simulated_client_world(pattern, psi, {2}, rng, m_copies=3).abort
    assert offered == contributions
    assert calls == [()] * len(offered)
    offered.clear()
    calls.clear()
    detection = MODES["protocol1-detection"]
    assert detection.run(detection.settings({"seed": 3, "trials": 25}), False)["details"]["tested"] == 25
    assert offered == [(0, 1)] * 25
    assert calls == [()] * 25
