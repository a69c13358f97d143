"""An honest run's draw plan: four generator calls, each field one block of its call."""
import math
from collections import Counter

import numpy as np
import pytest

from mpdqc import oracle
from mpdqc.brickwork import build_brickwork, random_pattern, reference_execute
from mpdqc.protocol import draw_plan, message_counts, run_full_protocol
from mpdqc.quantum import PureState
from reference import EagerTranscript

# the fields of each call, in the order their blocks follow one another
CALL_FIELDS = (
    ("pad_theta", "copy_angles", "copy_pieces", "input_pieces"),
    ("pad_a", "flip_pieces", "masks"),
    ("survivors",),
    ("tests", "chains", "measurements"),
)
SHAPES = [(2, 1, 2), (2, 2, 2), (2, 3, 3), (4, 3, 10), (4, 5, 10), (6, 2, 3)]


def scenario(n_wires: int, n_columns: int, seed: int):
    rng = np.random.default_rng([seed, n_wires, n_columns])
    pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
    v = rng.normal(size=2 ** n_wires) + 1j * rng.normal(size=2 ** n_wires)
    return pattern, PureState(v / np.linalg.norm(v))


def make_calls(rng: np.random.Generator, plan) -> list[np.ndarray]:
    """The plan's four generator calls, made one by one."""
    return [rng.integers(bound, size=size) for bound, size in zip(plan.bounds, plan.sizes)] + [rng.random(plan.sizes[3])]


class FourCalls:
    """A generator that makes its first four calls and raises on any after them."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.made = rng, []

    def __getattr__(self, name: str):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            self.made.append(name)
            if len(self.made) > 4:
                raise AssertionError(f"call {len(self.made)}: {name}")
            return method(*args, **kwargs)

        return call


def infidelity(run, pattern, psi) -> float:
    return 1 - run.output_state.fidelity(reference_execute(pattern, psi, np.random.default_rng(0)))


@pytest.mark.parametrize("n_wires,n_columns,m_copies", SHAPES)
def test_every_plan_field_is_one_contiguous_block_of_its_call(n_wires, n_columns, m_copies):
    # each field is the values of one slice of its call, reshaped; the drawn
    # field equals that block of the calls made one by one
    plan = draw_plan(n_wires, n_columns, m_copies)
    drawn = plan.draw(np.random.default_rng([n_wires, n_columns, m_copies]))
    calls = make_calls(np.random.default_rng([n_wires, n_columns, m_copies]), plan)
    assert plan.bounds == (8, 2, m_copies)
    assert set(drawn) == {name for fields in CALL_FIELDS for name in fields}
    for call, fields in enumerate(CALL_FIELDS):
        for name in fields:
            block = getattr(plan, name)
            assert block.call == call and block.cut.step is None, name
            assert block.cut.stop - block.cut.start == math.prod(block.shape), name
            assert drawn[name].shape == block.shape
            assert np.array_equal(drawn[name].ravel(), calls[call][block.cut]), name


@pytest.mark.parametrize("n_wires,n_columns,m_copies", [(2, 1, 2), (2, 2, 2), (4, 3, 10), (6, 2, 3)])
def test_the_plan_reads_every_drawn_value_once(n_wires, n_columns, m_copies):
    # each call's blocks tile it exactly once, in the listed order
    plan = draw_plan(n_wires, n_columns, m_copies)
    for fields, size in zip(CALL_FIELDS, plan.sizes):
        stop = 0
        for name in fields:
            assert getattr(plan, name).cut.start == stop, name
            stop = getattr(plan, name).cut.stop
        assert stop == size
    # the counts of message_counts: a secret per pad flip, padded input,
    # mask bit and copy angle; a QubitTransfer per copy and padded input,
    # a chain and a measurement per measured node, two OutcomeVectors per batch
    n, measured = n_wires, plan.measurements.shape[0]
    batches, inputs = plan.survivors.shape[0], plan.input_pieces.shape[0]
    assert plan.copy_angles.shape == (batches, m_copies) and plan.chains.shape[0] == plan.masks.shape[0] == measured
    counts = message_counts(n_wires, n_columns, m_copies)
    assert counts["ShareDistribution"] == (2 * n - 1) * (plan.pad_a.shape[0] + inputs + measured * n + batches * m_copies)
    assert counts["QubitTransfer"] == m_copies * batches + inputs
    assert counts["OutcomeVector"] == 2 * batches + measured and counts["DeltaAnnounce"] == measured
    assert draw_plan(n_wires, n_columns, m_copies) is plan


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 5), (4, 2), (4, 3), (4, 5), (6, 2)])
def test_an_honest_run_makes_the_four_plan_calls_only(shape):
    # integers(8), integers(2), integers(m_copies), random(), and no call
    # after them: the physics draws nothing and still computes the pattern
    pattern, psi = scenario(*shape, 41)
    for m_copies in (2, 3, 10):
        for debug_secrets in (False, True):
            rng = FourCalls(np.random.default_rng([41, m_copies]))
            run = run_full_protocol(pattern, psi, rng, m_copies=m_copies, debug_secrets=debug_secrets)
            assert rng.made == ["integers"] * 3 + ["random"]
            assert not run.aborted and infidelity(run, pattern, psi) <= 1e-12


def test_an_aborted_run_consumes_its_whole_plan(monkeypatch):
    # honest copies that fail with probability 0.05 each: a run that aborts
    # leaves the generator where the plan's four calls leave it, as an
    # honest run does, from a fresh start or with a bit's half-word waiting
    monkeypatch.setattr(oracle, "P0", (0.95, *oracle.P0[1:]))
    pattern, psi = scenario(4, 3, 43)
    plan = draw_plan(4, 3, 3)
    aborted = 0
    for seed in range(12):
        rng, calls = np.random.default_rng([43, seed]), np.random.default_rng([43, seed])
        if seed % 2:
            rng.integers(2), calls.integers(2)
        run = run_full_protocol(pattern, psi, rng, m_copies=3)
        make_calls(calls, plan)
        aborted += run.aborted
        assert rng.bit_generator.state == calls.bit_generator.state
    assert 0 < aborted < 12


def test_other_bit_generators_draw_through_the_calls():
    # the four calls are numpy's own, so any bit generator runs the protocol
    for bit_generator in (np.random.Philox, np.random.SFC64, np.random.MT19937):
        for (n_wires, n_columns), m_copies in [((2, 3), 2), ((4, 3), 10)]:
            pattern, psi = scenario(n_wires, n_columns, 73)
            run = run_full_protocol(pattern, psi, np.random.Generator(bit_generator(73)), m_copies=m_copies)
            assert not run.aborted and infidelity(run, pattern, psi) <= 1e-12, bit_generator


def test_a_batch_failing_inside_a_node_stack_stops_the_run_there(monkeypatch):
    # on 4x3, node 5 is the first non-input node: its four contributor
    # batches are 12..15 of the run, and the judge fails the second (client
    # 2's). The run logs node 5's stack up to that batch and ends with its
    # Abort
    import mpdqc.protocol
    from mpdqc.oracle import judge_copy_tests as kernel
    from mpdqc.protocol import COPY_TEST_FAILED, AbortInfo

    def failing(shares, prepared, survivors, uniforms):
        opened, outcomes = kernel(shares, prepared, survivors, uniforms)
        outcomes = outcomes.copy()
        outcomes[13, -1] = 1
        return opened, outcomes

    monkeypatch.setattr(mpdqc.protocol, "judge_copy_tests", failing)
    pattern, psi = scenario(4, 3, 47)
    graph = pattern.graph
    for i in range(3):
        run = run_full_protocol(pattern, psi, np.random.default_rng([47, i]), m_copies=3)
        assert run.abort == AbortInfo("verification", 5, 2, COPY_TEST_FAILED) and run.output_state is None
        messages = run.transcript.messages
        assert (messages[-1].variant, messages[-1].payload) == ("Abort", {"stage": "verification", "node": 5, "client": 2, "reason": COPY_TEST_FAILED})
        tested = [(m.payload["node"], m.payload["contributor"]) for m in messages if m.payload.get("kind") == "survivor"]
        batches = [(j, k) for j in graph.measured_nodes for k in range(1, 5) if not (j in graph.input_nodes and k == j)]
        assert tested == batches[:14] and tested[-2:] == [(5, 1), (5, 2)]
        assert ("theta", 5, 1) in run.ledger.secrets and ("theta", 5, 2) not in run.ledger.secrets
        counts = {v: c for v, c in run.transcript.counts.items() if c}
        assert counts == Counter(m.variant for m in messages) and len(run.transcript) == len(messages)
        # the cut stack builds what the per-batch writer records as sent
        with monkeypatch.context() as patch:
            patch.setattr(mpdqc.protocol, "Transcript", EagerTranscript)
            eager = run_full_protocol(pattern, psi, np.random.default_rng([47, i]), m_copies=3)
        assert eager.transcript.to_jsonl() == run.transcript.to_jsonl()
