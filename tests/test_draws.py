"""The block decoder against the generator's own calls, and runs that draw through it."""
from collections import Counter

import numpy as np
import pytest

from mpdqc import draws
from mpdqc.brickwork import build_brickwork, random_pattern, reference_execute
from mpdqc.draws import Schedule, draw, draw_by_calls
from mpdqc.protocol import draw_plan, message_counts, run_full_protocol
from mpdqc.quantum import PureState
from reference import EagerTranscript

# PCG64's LCG multiplier: the state steps to s * MULT + inc mod 2^128, and
# a step that lands on 0 outputs the word 0
MULT = 0x2360ED051FC65DA44385DF649FCCF645
STARTS = ("fresh", "after random()", "mid-word")


def start(rng: np.random.Generator, how: str) -> np.random.Generator:
    if how == "after random()":
        rng.random()
    elif how == "mid-word":  # a lone bit leaves the word's high half waiting
        rng.integers(2)
    return rng


def scalar_calls(rng: np.random.Generator, calls) -> tuple[list[int], list[float]]:
    """The schedule as one scalar generator call per value."""
    ints, uniforms = [], []
    for call in calls:
        if isinstance(call, int):
            uniforms += [rng.random() for _ in range(call)]
        else:
            ints += [int(rng.integers(call[0])) for _ in range(call[1])]
    return ints, uniforms


def random_calls(rng: np.random.Generator) -> list:
    calls = []
    for _ in range(int(rng.integers(0, 14))):
        if rng.random() < 0.4:
            calls.append(int(rng.integers(0, 5)))
        else:
            calls.append((int(rng.choice([2, 8, 3, 10, 11])), int(rng.integers(0, 8))))
    return calls


def zero_word_state(rng: np.random.Generator) -> np.random.Generator:
    """rng moved to the PCG64 state -inc MULT^-1 mod 2^128, whose next raw word is 0."""
    state = rng.bit_generator.state
    state["state"]["state"] = -state["state"]["inc"] * pow(MULT, -1, 2 ** 128) % 2 ** 128
    rng.bit_generator.state = state
    return rng


@pytest.mark.parametrize("how", STARTS)
def test_the_block_equals_the_generator_calls(how):
    # values and the whole state dict, uinteger included when has_uint32 is 0
    schedules = np.random.default_rng(21)
    for trial in range(300):
        calls = random_calls(schedules)
        block, scalar, sized = (start(np.random.default_rng([trial, 5]), how) for _ in range(3))
        drawn = draw(block, Schedule(calls))
        ints, uniforms = scalar_calls(scalar, calls)
        assert drawn.ints.tolist() == ints and drawn.uniforms.tolist() == uniforms
        assert block.bit_generator.state == scalar.bit_generator.state
        by_calls = draw_by_calls(sized, calls)
        assert by_calls[0].tolist() == ints and by_calls[1].tolist() == uniforms
        assert sized.bit_generator.state == scalar.bit_generator.state


def test_the_zero_word_state_outputs_zero():
    rng = zero_word_state(np.random.default_rng(3))
    assert rng.bit_generator.random_raw() == 0


@pytest.mark.parametrize("how", ["fresh", "after random()"])
def test_a_rejected_draw_goes_through_the_calls(monkeypatch, how):
    # the word 0 gives two 32-bit halves of 0, and Lemire's method rejects
    # both for bound 10 (0 < 2^32 mod 10); the block must not be used
    calls = [(10, 1), 3, (8, 5), (10, 4)]
    block = zero_word_state(start(np.random.default_rng(4), how))
    scalar = zero_word_state(start(np.random.default_rng(4), how))
    drawn = draw(block, Schedule(calls))
    ints, uniforms = scalar_calls(scalar, calls)
    assert drawn.ints.tolist() == ints and drawn.uniforms.tolist() == uniforms
    assert block.bit_generator.state == scalar.bit_generator.state

    def refuse(*args):
        raise AssertionError("fallback reached")

    monkeypatch.setattr(draws, "draw_by_calls", refuse)
    with pytest.raises(AssertionError, match="fallback reached"):
        draw(zero_word_state(start(np.random.default_rng(4), how)), Schedule(calls))


def test_other_bit_generators_draw_through_the_calls():
    calls = [(2, 3), 2, (10, 5), 1, (8, 7)]
    rng, reference = np.random.Generator(np.random.Philox(9)), np.random.Generator(np.random.Philox(9))
    drawn = draw(rng, Schedule(calls))
    assert (drawn.ints.tolist(), drawn.uniforms.tolist()) == scalar_calls(reference, calls)
    assert int(rng.integers(2 ** 32)) == int(reference.integers(2 ** 32))


def test_a_bound_outside_32_bits_is_refused():
    with pytest.raises(ValueError, match="bound"):
        Schedule([(1, 3)])
    with pytest.raises(ValueError, match="bound"):
        Schedule([(2 ** 32 + 1, 1)])


def scenario(n_wires: int, n_columns: int, seed: int):
    rng = np.random.default_rng([seed, n_wires, n_columns])
    pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
    v = rng.normal(size=2 ** n_wires) + 1j * rng.normal(size=2 ** n_wires)
    return pattern, PureState(v / np.linalg.norm(v))


def test_honest_runs_take_the_block(monkeypatch):
    # with the fallback refused, every honest PCG64 run still passes: a
    # decoder that always fell back would keep every pin and lose the gain
    def refuse(*args):
        raise AssertionError("fallback reached")

    monkeypatch.setattr(draws, "draw_by_calls", refuse)
    for (n_wires, n_columns), m_copies in [((2, 2), 2), ((2, 3), 3), ((4, 3), 10), ((4, 5), 10)]:
        pattern, psi = scenario(n_wires, n_columns, 31)
        for how in STARTS:
            rng = start(np.random.default_rng([31, m_copies]), how)
            run = run_full_protocol(pattern, psi, rng, m_copies=m_copies)
            assert not run.aborted
            assert run.output_state.fidelity(reference_execute(pattern, psi, np.random.default_rng(0))) >= 1 - 1e-9


def run_twice(monkeypatch, pattern, psi, seed, how, **kwargs):
    """The run through the block and through the forced fallback, with each generator."""
    runs = []
    for force_fallback in (False, True):
        with monkeypatch.context() as patch:
            if force_fallback:
                patch.setattr(draws, "_decode", lambda *args: None)
            rng = start(np.random.default_rng(seed), how)
            runs.append((run_full_protocol(pattern, psi, rng, **kwargs), rng))
    return runs


def assert_same_runs(block, fallback) -> None:
    (run, rng), (reference, reference_rng) = block, fallback
    assert run.abort == reference.abort
    assert run.transcript.to_jsonl() == reference.transcript.to_jsonl()
    assert run.ledger.secrets == reference.ledger.secrets
    if reference.output_state is None:
        assert run.output_state is None
    else:
        assert np.array_equal(run.output_state.amps, reference.output_state.amps)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 5), (4, 2), (4, 3), (4, 5), (6, 2)])
def test_the_block_run_equals_the_call_run(monkeypatch, shape):
    # the same transcript, ledger secrets, output amplitudes and final
    # generator state, for every m_copies, start and debug mode
    pattern, psi = scenario(*shape, 41)
    for m_copies in (2, 3, 4, 10):
        for i, how in enumerate(("fresh", "mid-word")):
            for debug_secrets in (False, True):
                block, fallback = run_twice(monkeypatch, pattern, psi, [41, m_copies, i], how, m_copies=m_copies, debug_secrets=debug_secrets)
                assert not block[0].aborted
                assert_same_runs(block, fallback)


def test_an_aborted_block_run_equals_the_call_run(monkeypatch):
    # honest copies that fail with probability 0.05 each: the block run
    # rewinds to where the calls up to the failed test leave the generator
    import mpdqc.oracle

    monkeypatch.setattr(mpdqc.oracle, "P0", (0.95, *mpdqc.oracle.P0[1:]))
    pattern, psi = scenario(4, 3, 43)
    aborted = 0
    for seed in range(12):
        block, fallback = run_twice(monkeypatch, pattern, psi, [43, seed], STARTS[seed % 3], m_copies=3)
        aborted += block[0].aborted
        assert_same_runs(block, fallback)
    assert 0 < aborted < 12


@pytest.mark.parametrize("n_wires,n_columns,m_copies", [(2, 1, 2), (2, 2, 2), (2, 3, 3), (4, 3, 10), (4, 5, 10), (6, 2, 3)])
def test_the_plan_slices_read_what_its_index_arrays_read(n_wires, n_columns, m_copies):
    # run_full_protocol reads these six fields through the slices
    plan = draw_plan(n_wires, n_columns, m_copies)
    drawn = draw(np.random.default_rng([n_wires, n_columns, m_copies]), plan.schedule)
    assert set(plan.slices) == {"pad_a", "pad_theta", "copy_angles", "flip_pieces", "masks", "measurements"}
    for name, cut in plan.slices.items():
        values, index = drawn.uniforms if name == "measurements" else drawn.ints, getattr(plan, name)
        assert np.array_equal(values[cut].reshape(index.shape), values[index]), name


@pytest.mark.parametrize("n_wires,n_columns,m_copies", [(2, 1, 2), (2, 2, 2), (4, 3, 10), (6, 2, 3)])
def test_the_plan_reads_every_drawn_value_once(n_wires, n_columns, m_copies):
    plan = draw_plan(n_wires, n_columns, m_copies)
    int_fields = (plan.pad_a, plan.pad_theta, plan.copy_angles, plan.flip_pieces, plan.copy_pieces, plan.survivors, plan.input_pieces, plan.masks)
    uniform_fields = (plan.tests, plan.chains, plan.measurements)
    drawn_ints = sum(call[1] for call in plan.schedule.calls if isinstance(call, tuple))
    drawn_uniforms = sum(call for call in plan.schedule.calls if isinstance(call, int))
    for fields, drawn in ((int_fields, drawn_ints), (uniform_fields, drawn_uniforms)):
        assert sorted(np.concatenate([f.ravel() for f in fields]).tolist()) == list(range(drawn))
    # one copy batch per QubitTransfer batch of message_counts, each ending a call
    batches = plan.survivors.size
    assert message_counts(n_wires, n_columns, m_copies)["QubitTransfer"] == m_copies * batches + len(plan.input_pieces)
    assert plan.stops == sorted(set(plan.stops)) and len(plan.stops) == batches
    assert all(isinstance(plan.schedule.calls[stop - 1], int) for stop in plan.stops)
    assert draw_plan(n_wires, n_columns, m_copies) is plan


def test_a_batch_failing_inside_a_node_stack_stops_the_run_there(monkeypatch):
    # on 4x3, node 5 is the first non-input node: its four contributor
    # batches are 12..15 of the run, and the judge fails the second (client
    # 2's). The run logs node 5's stack up to that batch, ends with its
    # Abort and leaves the generator where the calls up to it leave it
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
    plan = draw_plan(4, 3, 3)
    for i, how in enumerate(STARTS):
        block, fallback = run_twice(monkeypatch, pattern, psi, [47, i], how, m_copies=3)
        assert_same_runs(block, fallback)
        run, rng = block
        assert run.abort == AbortInfo("verification", 5, 2, COPY_TEST_FAILED)
        messages = run.transcript.messages
        assert (messages[-1].variant, messages[-1].payload) == ("Abort", {"stage": "verification", "node": 5, "client": 2, "reason": COPY_TEST_FAILED})
        tested = [(m.payload["node"], m.payload["contributor"]) for m in messages if m.payload.get("kind") == "survivor"]
        batches = [(j, k) for j in graph.measured_nodes for k in range(1, 5) if not (j in graph.input_nodes and k == j)]
        assert tested == batches[:14] and tested[-2:] == [(5, 1), (5, 2)]
        assert ("theta", 5, 1) in run.ledger.secrets and ("theta", 5, 2) not in run.ledger.secrets
        counts = {v: c for v, c in run.transcript.counts.items() if c}
        assert counts == Counter(m.variant for m in messages) and len(run.transcript) == len(messages)
        calls = start(np.random.default_rng([47, i]), how)
        draw_by_calls(calls, plan.schedule.calls[: plan.stops[13]])
        assert rng.bit_generator.state == calls.bit_generator.state
        # the cut stack builds what the per-batch writer records as sent
        with monkeypatch.context() as patch:
            patch.setattr(mpdqc.protocol, "Transcript", EagerTranscript)
            eager = run_full_protocol(pattern, psi, start(np.random.default_rng([47, i]), how), m_copies=3)
        assert eager.transcript.to_jsonl() == run.transcript.to_jsonl()
