"""What the benchmark in perfbench/ needs from the program, checked in the fast suite.

The tracer patches methods and functions by name, and each workload calls
the program through module attributes. A rename or move that breaks them
fails here, before `perfbench/selftest.py --trace 1` would. The benchmark
files are only read: loaded without writing bytecode, and the tracer is
never installed.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_name_exists():
    tracer = load("tracer")
    for _, cls, methods in tracer.CLASS_SPANS:
        for method in methods:
            assert callable(getattr(cls, method, None)), f"{cls.__name__}.{method}"
    for _, module, functions in tracer.FUNCTION_SPANS:
        for function in functions:
            assert callable(getattr(module, function, None)), f"{module.__name__}.{function}"


@pytest.mark.parametrize("name", ["honest-wide", "exact-views"])
def test_first_op_of_each_tiny_workload_succeeds(name):
    workloads = load("workloads")
    workload = workloads.WORKLOADS[name](0, True, workloads.PhaseHooks())
    assert workload.op(0, workload.inputs(0)) is None


def test_first_round_of_tiny_sample_2x2_succeeds():
    # every sampled kind (the rewrites, both coalition worlds) and then the
    # pooling op, which reads cli._pool_distance; the simulator's run.abort
    # is read as a truth value, and the rewrites' empty transcripts add no
    # messages to the digest
    workloads = load("workloads")
    workload = workloads.WORKLOADS["sample-2x2"](0, True, workloads.PhaseHooks())
    kinds = []
    for k in range(workload.round_len):
        inputs = workload.inputs(k)
        kinds.append(inputs[0])
        assert workload.op(k, inputs) is None, (k, inputs[0])
    assert kinds == [*workload.KINDS * workload.trials_per_round, "pool"]
    assert workload.round == 1
    assert workload.digest() == {
        "scope": "round 0 (5 trials x 6 ops + pooling)",
        "ops": 30,
        "pooled_tv_max": {"teleport": 0.4, "delayed": 0.6, "simulator-resource": 0.5, "coalition": 0.6},
        "tv_bound": 3.241508,
        "tv_bound_rule": "sqrt(2 (8 ln 2 + ln 1e9) / n), n = trials per side (Bretagnolle-Huber-Carol)",
        "min_fidelity": "1.000000000",
        "messages": {
            "DeltaAnnounce": 30, "OutcomeVector": 90, "OutputKeys": 25, "OutputQubit": 25,
            "QubitTransfer": 85, "ResultBroadcast": 30, "ShareDistribution": 540,
        },
        "summaries_sha": "61130b10f92ebb22",
    }


def test_digests_of_the_tiny_honest_wide_and_exact_views_runs():
    # the digest ops of each tiny workload, as perfbench/run.py prints them:
    # a change that moves a draw or a message moves these
    workloads = load("workloads")
    digests = {}
    for name in ("honest-wide", "exact-views"):
        workload = workloads.WORKLOADS[name](0, True, workloads.PhaseHooks())
        for k in range(workload.DIGEST_OPS):
            assert workload.op(k, workload.inputs(k)) is None, (name, k)
        digests[name] = workload.digest()
    assert digests["honest-wide"] == {
        "scope": "ops 0..2 (2x3, m_copies=2)",
        "ops": 3,
        "min_fidelity": "1.000000000",
        "messages": {
            "DeltaAnnounce": 12, "OutcomeVector": 48, "OutputKeys": 6, "OutputQubit": 6,
            "QubitTransfer": 42, "ResultBroadcast": 12, "ShareDistribution": 216,
        },
        "outcomes_sha": "99ff53b7bbfde416",
    }
    zero = {"prepared": 0.0, "round:1": 0.0, "round:2": 0.0, "delivered": 0.0}
    assert digests["exact-views"] == {"scope": "ops 0..1", "ops": 2, "view_distances": [zero, zero]}
