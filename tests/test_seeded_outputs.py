"""Seeded outputs, pinned by digest.

Every execution path draws its randomness in a fixed order, so a seed
fixes its integer outputs exactly. The digests were recorded before the
execution paths were moved onto one shared protocol core; a change that
adds, drops or reorders a random draw on any path shows up here. The
transcript digest also pins the order of the base protocol's messages.
"""
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from mpdqc.brickwork import build_brickwork, random_pattern
from mpdqc.cli import _scenario, main
from mpdqc.harness import (
    coalition_view_summary,
    observable_summary,
    run_intermediate_protocol,
    run_simulated_client_world,
)
from mpdqc.protocol import COPY_TEST_FAILED, VARIANTS, AbortInfo, Session, Transcript, run_full_protocol
from mpdqc.quantum import PureState, QuantumSystem, octant

RUNS = 20


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def scenario(n_wires: int, n_columns: int, n_qubits: int, seed: int):
    rng = np.random.default_rng(seed)
    pattern = random_pattern(build_brickwork(n_wires, n_columns), rng)
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return pattern, PureState(v / np.linalg.norm(v))


def test_honest_run_transcript_is_pinned(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mode": "honest-run", "seed": 5, "n_wires": 2, "n_columns": 3, "m_copies": 2}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "transcript.jsonl").read_bytes()).hexdigest()
    assert digest == "1cc27ac876ff6fa13229e4cc137eeff654abd78871d3922e733fe9c779e0e42e"


# transcript.jsonl of honest-run 4x3, seed 5, m_copies 10, by --debug-secrets
WIDE_DIGESTS = {
    False: "446282d4b5e5a87a6c6c92fc2ace14b71aa58e1b2c29abe3a1d911c20c62901a",
    True: "7fab96010cd149162f34807a8be61c907b31af6543f0a4223df38a1195ae7d69",
}


@pytest.mark.parametrize("debug_secrets", [False, True])
def test_wide_honest_run_transcript_is_pinned(tmp_path, debug_secrets):
    # 4x3 with m_copies 10: every copy test shares ten angles among four
    # clients, so batches of draws are far longer than at 2x3
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mode": "honest-run", "seed": 5, "n_wires": 4, "n_columns": 3, "m_copies": 10}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *(["--debug-secrets"] if debug_secrets else [])]) == 0
    assert hashlib.sha256((out / "transcript.jsonl").read_bytes()).hexdigest() == WIDE_DIGESTS[debug_secrets]


@pytest.mark.parametrize("debug_secrets", [False, True])
def test_message_json_is_the_full_record_with_sorted_keys(debug_secrets):
    # each line of the pinned 4x3 transcripts is one Message.to_json: all
    # five fields, keys sorted at every level
    config = {"n_wires": 4, "n_columns": 3}
    rng = np.random.default_rng([5, 0])
    pattern, input_state = _scenario(config, rng)
    run = run_full_protocol(pattern, input_state, rng, m_copies=10, debug_secrets=debug_secrets)
    lines = []
    for m in run.transcript.messages:
        line = m.to_json()
        fields = {"seq": m.seq, "sender": m.sender, "receiver": m.receiver, "variant": m.variant, "payload": m.payload}
        assert line == json.dumps(fields, sort_keys=True)
        lines.append(line + "\n")
    digest = WIDE_DIGESTS[debug_secrets]
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest


# transcript.jsonl of one rejected copy test on a fresh three-client
# Session (seed 77): client 2 offers five copies for node 4, each prepared
# 4 octants off its declared angle, by debug_secrets
ABORT_DIGESTS = {
    False: "1531acc73e6537085d66bb5a755d4f2217298130559d0fc8e04c88f726ec0ed2",
    True: "03773c7ebbf4162c672df6c00d693665593d668c5843383fe0be15e00b0a616d",
}


@pytest.mark.parametrize("debug_secrets", [False, True])
def test_rejected_copy_test_transcript_is_pinned(debug_secrets):
    session = Session(QuantumSystem(), Transcript(), np.random.default_rng(77), 3, debug_secrets=debug_secrets)
    declared = [1, 6, 3, 0, 5]
    abort = session.offer_test_copies(4, 2, declared, [octant(theta + 4) for theta in declared])
    assert abort == AbortInfo("verification", 4, 2, COPY_TEST_FAILED)
    assert not session.system.owner
    # 2 peer pieces per copy, 3 pieces per opened copy, no survivor pieces
    counts = {**dict.fromkeys(VARIANTS, 0), "ShareDistribution": 2 * 5 + 3 * 4, "QubitTransfer": 5, "OutcomeVector": 2, "Abort": 1}
    transcript = session.transcript
    assert transcript.counts == counts and len(transcript) == 30
    assert hashlib.sha256(transcript.to_jsonl().encode()).hexdigest() == ABORT_DIGESTS[debug_secrets]
    counted = Counter(m.variant for m in transcript.messages)
    assert {v: counted[v] for v in VARIANTS} == counts
    assert transcript.messages[-1].variant == "Abort"


@pytest.mark.parametrize(
    "version,digest",
    [
        ("base", "19744cd5b281e86d53d5346425e0c6c6c7de5eed6630440fc2f7c55dfb90e8d1"),
        ("teleport", "a6983b6098c0217f2552914d48867d691b93bffe5a26d711d70efe37f5b711a4"),
        ("delayed", "7c07547690251c7317e87001144ab84dfe0d5e229cebca6cd17ef78c97755c9e"),
        ("simulator-resource", "470be3c6f847f71361435d1a880ffe28ead5ad05d08740a05481477b2bd688a3"),
    ],
)
def test_observable_summaries_are_pinned(version, digest):
    # 2x3 with a reference qubit: input and aux chains, outputs whose flow
    # predecessors are not inputs, and a readout of the reference
    pattern, psi = scenario(2, 3, 3, 61)
    summaries = []
    for i in range(RUNS):
        rng = np.random.default_rng([61, i])
        if version == "base":
            run = run_full_protocol(pattern, psi, rng, m_copies=2)
        else:
            run = run_intermediate_protocol(pattern, psi, rng, version)
        summaries.append(observable_summary(run, rng))
    assert sha(summaries) == digest


def test_coalition_views_are_pinned():
    # 2x2: both outputs have an input as flow predecessor, one inside the
    # coalition and one outside, so both output-key draws are exercised
    pattern, psi = scenario(2, 2, 2, 62)
    coalition = {2}
    views = []
    for i in range(RUNS):
        rng = np.random.default_rng([62, i])
        run = run_simulated_client_world(pattern, psi, coalition, rng, m_copies=2)
        assert not run.abort
        views.append(coalition_view_summary(run, coalition, rng))
    assert sha(views) == "fa8f018f63e68ccdf96776d9ee50683b79c80a0f6d22e330e1f51baafe4083d9"


def test_simulated_client_transcripts_are_pinned():
    # the scenario of test_coalition_views_are_pinned, runs 0-4: every
    # message the simulator records, including the honest clients' share
    # sets and copy tests it plays
    pattern, psi = scenario(2, 2, 2, 62)
    digest = hashlib.sha256()
    for i in range(5):
        run = run_simulated_client_world(pattern, psi, {2}, np.random.default_rng([62, i]), m_copies=2)
        digest.update(run.transcript.to_jsonl().encode())
    assert digest.hexdigest() == "e1b80d7885e7395e4f04ab9afa159b4c06b9e9c876c9a4d0cf0355480daf2973"


# ledger books and final generator state of five rewritten runs (scenario
# seed 81), by shape (wires, columns, reference qubits) and version
REWRITE_SHAPES = {"2x2": (2, 2, 0), "2x3+ref": (2, 3, 1), "4x2": (4, 2, 0)}
REWRITE_LEDGERS = {
    ("2x2", "teleport"): "b3f5b1b690041d6813020df0b91d5b3a8911e3a4cb729cd6e5d7cf703bdc5660",
    ("2x2", "delayed"): "17851c3eac11fee37bc5f3d2fd950efe60a6c3ce977f7f9afc01d190b33ba22e",
    ("2x2", "simulator-resource"): "e63160b855f513161b469a4c1031f050ea748cdea710d10e10a19eaaf57f9c87",
    ("2x3+ref", "teleport"): "e02a0fe9ed19c3e8809c77e5e580a8054216770a76609bca5dfd5580704cc66b",
    ("2x3+ref", "delayed"): "14f9e887fc05e6359a5150b6b306f0a66ffdb0df742028c7a4e1e1743ef8e18b",
    ("2x3+ref", "simulator-resource"): "a6cc94f4284570ee22dfc1c7376f8fb4a7fcac168b64d51447c7b7e37bc8b0d3",
    ("4x2", "teleport"): "47fa5c2788e7ef06a7146269d7d35e1d0a09f9817bf9679b706775b16bbef6de",
    ("4x2", "delayed"): "375f519d581a7107b3eb82727b121ab1aae780f7fa761d84ffcf243ca0639bd8",
    ("4x2", "simulator-resource"): "34ac4ec3561a26ecc6c0651a978520de8fc1459594908c61af09aa42b7dff090",
}


@pytest.mark.parametrize("shape,version", list(REWRITE_LEDGERS))
def test_rewrite_ledgers_are_pinned(shape, version):
    # two wires cannot pin the order of a node's octant draws against its
    # measurement uniforms: two integers(8) calls share one PCG64 word, so
    # drawing both angles before both reveals reads the same values; four
    # wires can
    n_wires, n_columns, n_ref = REWRITE_SHAPES[shape]
    pattern, psi = scenario(n_wires, n_columns, n_wires + n_ref, 81)
    books = []
    for i in range(5):
        rng = np.random.default_rng([81, i])
        ledger = run_intermediate_protocol(pattern, psi, rng, version).ledger
        books.append({
            "secrets": sorted(ledger.secrets.items()),
            "chains": sorted((j, sorted(t.items())) for j, t in ledger.chain_t.items()),
            "announced": sorted(ledger.announced.items()),
            "outcomes": sorted(ledger.outcomes.items()),
            "generator": rng.bit_generator.state,
        })
    assert sha(books) == REWRITE_LEDGERS[shape, version]


# transcript sha256 of honest runs on a Philox generator, and the next
# 32-bit word it draws afterwards: a bit generator other than PCG64 is
# drawn through the generator's own calls
PHILOX_RUNS = [
    ((2, 3), 2, 73, "02fcf2d3b2f315478d8d4a16b0028b619c50b96ef55a8e7fb727efbc78f5ca8a", 1376309489),
    ((4, 3), 10, 74, "8f12feb6eb685e88c50eca8e386d7c0f3472105aa9843513b5e39e840ca04556", 3171209909),
]


@pytest.mark.parametrize("shape,m_copies,seed,digest,next_word", PHILOX_RUNS)
def test_honest_runs_on_philox_are_pinned(shape, m_copies, seed, digest, next_word):
    pattern, psi = scenario(*shape, shape[0], seed)
    rng = np.random.Generator(np.random.Philox(seed))
    run = run_full_protocol(pattern, psi, rng, m_copies=m_copies)
    assert not run.aborted
    assert hashlib.sha256(run.transcript.to_jsonl().encode()).hexdigest() == digest
    assert int(rng.integers(2 ** 32)) == next_word


# 4x3 runs (m_copies 10, scenario seed 71) whose honest copies fail with
# probability 0.01 each, by generator seed and whether one bit is drawn
# first: the abort, the transcript sha256 and the generator's final state
ABORTED_RUNS = [
    (
        [71, 8], True, AbortInfo("verification", 7, 3, COPY_TEST_FAILED),
        "6d9890aa773b435f76934b360ae216fa9b310f4277154de52b45bb1a35e8f119",
        {"state": 72609314794911589358249711643810224103, "inc": 105929898363995196638823184033394376063}, 0, 1484132544,
    ),
    (
        [71, 4], False, AbortInfo("verification", 2, 1, COPY_TEST_FAILED),
        "e3456444e2cc636bbae13dca84eed29e320946cb958c386f0cf3e0369a11d390",
        {"state": 259042035980181544660095310781250529886, "inc": 94775239940291261700166493831778778063}, 1, 2679034498,
    ),
]


@pytest.mark.parametrize("seed,mid_word,abort,digest,pcg,has_uint32,uinteger", ABORTED_RUNS)
def test_aborted_runs_are_pinned(monkeypatch, seed, mid_word, abort, digest, pcg, has_uint32, uinteger):
    # an aborted run stops drawing at its failed copy test: the generator
    # ends where the per-call draws of the run up to that test leave it
    import mpdqc.oracle

    monkeypatch.setattr(mpdqc.oracle, "P0", (0.99, *mpdqc.oracle.P0[1:]))
    pattern, psi = scenario(4, 3, 4, 71)
    rng = np.random.default_rng(seed)
    if mid_word:
        rng.integers(2)
    run = run_full_protocol(pattern, psi, rng, m_copies=10)
    assert run.abort == abort and run.output_state is None
    assert hashlib.sha256(run.transcript.to_jsonl().encode()).hexdigest() == digest
    assert rng.bit_generator.state == {"bit_generator": "PCG64", "state": pcg, "has_uint32": has_uint32, "uinteger": uinteger}
