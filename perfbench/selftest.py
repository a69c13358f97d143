"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, at the smallest sizes: every workload prints every metric named in
BENCHMARK.json with its unit, in both modes, with no failed op; an op given
a deliberately wrong reference counts as failed; and the benchmark refuses
to run, printing no result, where the program's sources are missing.
Exits 0 when every check holds.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(workload: str, trace: int) -> None:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, set(got) ^ set(expected)
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name
    if trace:
        assert any(line.startswith("exact counts") for line in lines)
    else:
        assert any(line.startswith("failed_ratio = ") for line in lines)
        assert any(line.startswith("op_ms_tail is p") for line in lines)
    assert any(line.startswith("digest: ") for line in lines)
    print(f"ok  {workload} --trace {trace}: {len(expected)} metrics with units, {result['attempted']} ops")


def check_wrong_reference() -> None:
    workloads = run.import_program()
    import numpy as np
    from mpdqc import brickwork

    hooks = workloads.PhaseHooks()

    sample = workloads.Sample2x2(7, True, hooks)
    sample.expected = sample.expected.x(0)  # an output the protocol does not produce
    wide = workloads.HonestWide(7, True, hooks)

    def shifted_reference(pattern, input_state, k):
        wrong = brickwork.MeasurementPattern(pattern.graph, {j: a + 1 for j, a in pattern.angles.items()})
        return brickwork.reference_execute(wrong, input_state, np.random.default_rng(k))

    wide.reference_for = shifted_reference
    views = workloads.ExactViews(7, True, hooks)
    views.reference_scenario = lambda rng: (brickwork.random_pattern(views.graph, rng), workloads.random_state(3, rng))

    for workload in (sample, wide, views):
        result = run.measure(workload, 0.2, run.Calibration())
        failed = {k for k, _ in result["failures"]}
        assert failed, f"{workload.name}: no op failed against a wrong reference"
        print(f"ok  {workload.name}: {len(failed)} of {len(result['latencies'])} ops failed against a wrong reference")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sample-2x2", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without src/: exit {proc.returncode}, no result printed")


def main() -> int:
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            check_metrics(workload, trace)
    check_wrong_reference()
    check_bare_directory()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
