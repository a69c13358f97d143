"""mpdqc benchmark: one workload per invocation, closed loop, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sample-2x2 --seed 1 --seconds 30 --trace 0

Workloads: sample-2x2 (A5/A6 sampling), honest-wide (4x5 honest runs vs
direct execution, A1) and exact-views (2x2 exact blindness checks, A3).
With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. Earlier lines give the machine record, the correctness digest,
the tail percentile, the raw times and, for traced runs, the exact counts.

Every end-to-end time is reported at a fixed reference machine speed: the
measured time is scaled by CAL_REF_S over the median time of a fixed
calibration chunk, run between ops throughout the run (see Calibration).
The shared host this benchmark was defined on runs 20-30% slower for
minutes at a time; the chunk slows with it, so the ratio stays put while
the program's own speed still shows in full.

See perfbench/README.md for why each workload exists and what each metric
should show.
"""
import os

# One thread everywhere: pin BLAS / OpenMP before numpy is imported, here
# and in the set-up probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
CAL_REF_S = 0.030        # calibration chunk time that defines the reference speed
CAL_INTERVAL_S = 0.5     # timed-loop seconds between calibration chunks
SETUP_CAL_CHUNKS = 3     # calibration chunks before each set-up probe
WORKLOAD_NAMES = ("sample-2x2", "honest-wide", "exact-views")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="mpdqc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help="set up and warm up only, then exit")
    return parser.parse_args(argv)


def import_program():
    """Import mpdqc from this checkout's src/ and the workloads built on it."""
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def set_up(args):
    """Import, build the workload's inputs and run one warm-up op."""
    workloads = import_program()
    hooks = workloads.PhaseHooks()
    warm = workloads.WORKLOADS[args.workload](args.seed, args.tiny, hooks)
    warm.op(0, warm.inputs(0))
    return workloads, hooks


class Calibration:
    """Fixed work outside the program, whose time tracks the machine's speed.

    One chunk mixes the interpreter loop, tiny-array numpy dispatch and
    small dense linear algebra, in about equal parts, as the workloads do.
    It never calls the program, so the program's code does not run in it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.flip = np.array([[0, 1], [1, 0]], dtype=complex)
        self.vec = rng.normal(size=32) + 1j * rng.normal(size=32)
        self.mat = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        self.col = rng.normal(size=256) + 1j * rng.normal(size=256)

    def chunk(self) -> float:
        """Seconds one chunk takes now."""
        np = self.np
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(100_000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        s = self.vec
        for _ in range(600):
            s = np.tensordot(self.flip, s.reshape(2, -1), axes=([1], [0])).reshape(-1)
            s = s / np.linalg.norm(s)
        for _ in range(20):
            np.trace(np.outer(self.col, self.col.conj()).reshape(16, 16, 16, 16), axis1=1, axis2=3)
            np.linalg.svd(self.mat)
        return time.perf_counter() - start


def speed(cal_times: list[float]) -> float:
    """Reference speed over this machine's speed: multiply a time by it."""
    return CAL_REF_S / statistics.median(cal_times)


def setup_seconds(args, calibration: Calibration) -> list[float]:
    """Time of whole set-ups, each in a fresh interpreter, as users pay it.

    Each probe is scaled to the reference speed by calibration chunks run
    just before it.
    """
    cmd = [sys.executable, str(Path(__file__).relative_to(ROOT)), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        factor = speed([calibration.chunk() for _ in range(SETUP_CAL_CHUNKS)])
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=150, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - start) * factor)
    return times


def measure(workload, seconds: float, calibration: Calibration, tracer=None) -> dict:
    """Closed loop: issue op k+1 when op k returns, until the deadline.

    A calibration chunk runs before the first op and then between ops
    every CAL_INTERVAL_S; its time is left out of the wall time.
    """
    latencies: list[float] = []
    cal_times: list[float] = []
    failures: list[tuple[int, str]] = []

    def timed(k: int, inputs) -> None:
        t0 = time.perf_counter()
        try:
            reason = tracer.run_op(k, workload.op, k, inputs) if tracer else workload.op(k, inputs)
        except Exception as exc:  # a failing op is counted, and the run goes on
            reason = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if reason:
            failures.append((k, reason))

    start = time.perf_counter()
    deadline = start + seconds
    next_cal = start
    k = 0
    while (now := time.perf_counter()) < deadline:
        if now >= next_cal:
            cal_times.append(calibration.chunk())
            next_cal = time.perf_counter() + CAL_INTERVAL_S
        timed(k, workload.inputs(k))
        k += 1
    closing = workload.closing_op()
    if closing is not None:
        timed(k, closing)
    wall = time.perf_counter() - start - sum(cal_times)
    return {"latencies": latencies, "failures": failures, "wall": wall, "cal": cal_times}


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """(value, samples beyond) of the nearest-rank percentile `pct`."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def machine_record() -> dict:
    record = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "caches": {},
        "python": platform.python_version(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            record["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    import numpy
    import scipy

    record["numpy"] = numpy.__version__
    record["scipy"] = scipy.__version__
    record["threads"] = {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    record["bandwidth"] = "not claimed: the 4x-LLC array rule needs arrays far beyond the shared L3 and this memory"
    return record


def end_to_end(result: dict, setups: list[float], tail_pct: float) -> dict:
    lat = result["latencies"]
    tail_s, beyond = tail(lat, tail_pct)
    raw = {
        "ops_per_s": len(lat) / result["wall"],
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_tail": tail_s * 1e3,
    }
    factor = speed(result["cal"])
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": raw["ops_per_s"] / factor,
        "op_ms_p50": raw["op_ms_p50"] * factor,
        "op_ms_tail": raw["op_ms_tail"] * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = "" if beyond >= 10 else "; fewer than 10 beyond, so this tail is not resolved"
    print(f"op_ms_tail is p{tail_pct:g} of {len(lat)} ops ({beyond} beyond it{note})")
    print(f"speed: calibration chunk median {statistics.median(result['cal']) * 1e3:.2f} ms over {len(result['cal'])} chunks"
          f" vs {CAL_REF_S * 1e3:g} ms reference, so times are scaled by {factor:.4f}")
    print("raw, at this machine's speed:", ", ".join(f"{name} = {value:.6g}" for name, value in raw.items()))
    print(f"failed_ratio = {len(result['failures']) / len(lat):.6g} ratio ({len(result['failures'])} of {len(lat)} ops)")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mpdqc" / "__init__.py").is_file():
        print("benchmark error: no mpdqc sources under src/; run from a full checkout", file=sys.stderr)
        return 1
    if args.setup_probe:
        set_up(args)
        return 0

    calibration = Calibration()
    setups = [] if args.trace else setup_seconds(args, calibration)
    workloads, hooks = set_up(args)
    print("machine:", json.dumps(machine_record(), sort_keys=True))
    print(f"workload: {args.workload}, seed {args.seed}, {args.seconds:g} s, closed loop, 1 client, 1 thread")
    print("wait: N/A (closed loop, single thread, no layer has a queue)")

    make = workloads.WORKLOADS[args.workload]
    workload = make(args.seed, args.tiny, hooks)
    if args.trace:
        untraced = measure(workload, args.seconds / 3, calibration)
        import tracer as tracing

        prefix = make.COUNT_OPS
        traced_workload = make(args.seed, args.tiny, hooks)  # built first, so its set-up is not traced
        tracer = tracing.Tracer(prefix_ops=prefix)
        tracing.install(tracer, hooks)
        traced = measure(traced_workload, args.seconds * 2 / 3, calibration, tracer)
        untraced_rate = len(untraced["latencies"]) / untraced["wall"]
        traced_rate = len(traced["latencies"]) / traced["wall"]
        print(f"tracing overhead: {untraced_rate:.4g} ops/s untraced vs {traced_rate:.4g} ops/s traced")
        print(f"exact counts (ops 0..{prefix - 1}, bytes computed from array sizes):",
              json.dumps({**dict(sorted(tracer.exact.items())), "quantum.gate.qubits_max": tracer.qubits_max}))
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans) // 6} written to {trace_path.relative_to(ROOT)}, {tracer.dropped} over the cap not stored")
        metrics = tracer.metrics(len(traced["latencies"]), untraced_rate / traced_rate)
        runs = (untraced, traced)
    else:
        result = measure(workload, args.seconds, calibration)
        metrics = end_to_end(result, setups, make.TAIL_PERCENTILE)
        runs = (result,)

    print("digest:", json.dumps(workload.digest(), sort_keys=True))
    attempted = sum(len(r["latencies"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for k, reason in failures[:10]:
        print(f"failed op {k}: {reason}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
