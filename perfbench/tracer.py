"""Outside-in tracer: spans around the public calls into each mpdqc module.

Nothing in `src/` is changed. `install` replaces class methods and every
module-level binding of the traced functions (a `from .x import f` binds
`f` in the importing module at import time, so each binding is patched by
identity) with wrappers that record one span per call: name, op id,
parent span, start and end. Self time is a span's duration minus the time
its child spans cover. Spans are kept in memory, up to `max_spans`, and
written out by `write`; totals are kept for every span.

Only traced runs import this module; timed runs never load it.
"""
from __future__ import annotations

import functools
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

from mpdqc import brickwork, cli, harness, oracle, protocol, quantum, rsp
import mpdqc

MODULES = (mpdqc, quantum, brickwork, rsp, oracle, protocol, harness, cli)
VARIANTS = protocol.VARIANTS

# (span name, class, methods); several entries may feed one span name
CLASS_SPANS = (
    ("quantum.gate", quantum.PureState, ("x", "z", "h", "z_rot", "cnot", "cz")),
    ("quantum.tensor", quantum.PureState, ("tensor",)),
    ("quantum.project", quantum.PureState, ("project_rotated", "project_computational")),
    ("quantum.density", quantum.PureState, ("density",)),
    ("quantum.density", quantum.DensityMatrix, ("partial_trace",)),
    ("oracle.delta", oracle.OracleLedger, ("delta", "output_keys")),
    ("oracle.register", oracle.OracleLedger, ("register_share", "register_chain", "register_outcome")),
    ("protocol.record", protocol.Transcript, ("record",)),
    ("protocol.system", protocol.QuantumSystem, (
        "add_register", "labels_of", "transfer", "apply_x", "apply_z", "apply_h", "apply_z_rot",
        "apply_cz", "apply_cnot", "measure_rotated", "measure_computational", "state_of", "density_of",
    )),
)
# (span name, defining module, functions); every binding of each is patched
FUNCTION_SPANS = (
    ("quantum.density", quantum, ("weighted_trace_norm",)),
    ("brickwork.reference", brickwork, ("reference_execute",)),
    ("brickwork.flow", brickwork, ("compute_flow",)),
    ("rsp.solve", rsp, ("theta_aux", "theta_input")),
    ("oracle.share", oracle, ("share_secret", "reconstruct")),
    ("protocol.run", protocol, ("run_full_protocol",)),
    ("harness.rewrite", harness, ("run_intermediate_protocol", "run_simulated_server_world")),
    ("harness.simclient", harness, ("run_simulated_client_world",)),
    ("harness.summary", harness, ("observable_summary", "coalition_view_summary")),
    ("harness.leak", harness, ("check_no_secret_leak",)),
    ("harness.views", harness, ("exact_server_views",)),
    ("harness.view_distance", harness, ("view_distance",)),
    ("cli.pool", cli, ("_pool_distance",)),
)

# reported per-layer metrics: name -> unit, in output order
PER_LAYER = {
    "quantum.gate.calls": "count", "quantum.gate.self_ms": "ms", "quantum.gate.bytes": "B_computed",
    "quantum.gate.qubits_max": "qubits",
    "quantum.tensor.calls": "count", "quantum.tensor.self_ms": "ms", "quantum.tensor.bytes": "B_computed",
    "quantum.project.calls": "count", "quantum.project.self_ms": "ms", "quantum.project.bytes": "B_computed",
    "quantum.project.useful_ratio": "ratio",
    "quantum.density.calls": "count", "quantum.density.self_ms": "ms",
    "brickwork.reference.calls": "count", "brickwork.reference.self_ms": "ms",
    "brickwork.flow.calls": "count", "brickwork.flow.self_ms": "ms",
    "rsp.solve.calls": "count", "rsp.solve.self_ms": "ms",
    "oracle.share.calls": "count", "oracle.share.self_ms": "ms",
    "oracle.delta.calls": "count", "oracle.delta.self_ms": "ms",
    "oracle.register.calls": "count", "oracle.register.self_ms": "ms",
    "protocol.run.calls": "count", "protocol.run.self_ms": "ms",
    "protocol.record.calls": "count", "protocol.record.self_ms": "ms",
    **{f"protocol.messages.{v}": "count" for v in VARIANTS},
    "protocol.system.calls": "count", "protocol.system.self_ms": "ms",
    "protocol.phase.prepare_ms": "ms", "protocol.phase.rounds_ms": "ms", "protocol.phase.output_ms": "ms",
    "harness.rewrite.self_ms": "ms", "harness.simclient.self_ms": "ms",
    "harness.summary.calls": "count", "harness.summary.self_ms": "ms",
    "harness.leak.self_ms": "ms",
    "harness.views.self_ms": "ms", "harness.views.branches": "count",
    "harness.view_distance.self_ms": "ms",
    "cli.pool.self_ms": "ms",
    "bench.op.self_ms": "ms",
    "trace.overhead_ratio": "x",
}


class Tracer:
    """Span store plus the counters that are measured where the work happens."""

    def __init__(self, prefix_ops: int, max_spans: int = 500_000):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.spans = array("q")  # flat rows: span id, parent id, name index, op id, start ns, end ns
        self.max_spans = max_spans
        self.dropped = 0
        self.next_id = 0
        self.stack: list[list[int]] = []  # [span id, child ns] per open span
        self.op = -1
        self.prefix_ops = prefix_ops
        self.bytes = Counter()
        self.qubits_max = 0
        self.discarded = 0
        self.branches = 0
        self.in_views = 0
        self.messages = Counter()
        self.phase_ns = Counter()
        self.phase_at = 0
        self.exact = Counter()  # calls by register size and computed bytes, over ops < prefix_ops
        self.op_index = self._name("bench.op")

    def _name(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    # ------------------------------------------------------------- spans

    def wrap(self, name: str, fn, after=None):
        idx = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx, span_id, start)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _enter(self) -> tuple[int, int]:
        span_id = self.next_id
        self.next_id += 1
        self.stack.append([span_id, 0])
        return span_id, perf_counter_ns()

    def _exit(self, idx: int, span_id: int, start: int) -> None:
        end = perf_counter_ns()
        _, child_ns = self.stack.pop()
        duration = end - start
        parent = -1
        if self.stack:
            self.stack[-1][1] += duration
            parent = self.stack[-1][0]
        self.calls[idx] += 1
        self.self_ns[idx] += duration - child_ns
        if len(self.spans) < 6 * self.max_spans:
            self.spans.extend((span_id, parent, idx, self.op, start, end))
        else:
            self.dropped += 1

    def run_op(self, k: int, fn, *args):
        """Run one benchmark op under a root span carrying its op id."""
        self.op = k
        span_id, start = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(self.op_index, span_id, start)

    # ---------------------------------------------------------- counters

    def _sized(self, kind: str, n_qubits: int, nbytes: int) -> None:
        self.bytes[kind] += nbytes
        if self.op < self.prefix_ops:
            self.exact[f"{kind}.calls.q{n_qubits}"] += 1
            self.exact[f"{kind}.bytes_computed"] += nbytes

    def after_gate(self, args, result) -> None:
        n = result.num_qubits
        self.qubits_max = max(self.qubits_max, n)
        self._sized("quantum.gate", n, args[0].amps.nbytes + result.amps.nbytes)

    def after_tensor(self, args, result) -> None:
        self._sized("quantum.tensor", result.num_qubits, args[0].amps.nbytes + args[1].amps.nbytes + result.amps.nbytes)

    def after_project(self, args, result) -> None:
        state = args[0]
        self._sized("quantum.project", state.num_qubits, state.amps.nbytes + result[1].amps.nbytes)
        if self.in_views:
            self.branches += 1
            if self.op < self.prefix_ops:
                self.exact["harness.views.branches"] += 1

    def after_record(self, args, result) -> None:
        self.messages[result.variant] += 1

    def phase(self, mark: str) -> None:
        now = perf_counter_ns()
        self.phase_ns["prepare" if mark == "entangled" else "rounds"] += now - self.phase_at
        self.phase_at = now

    # -------------------------------------------------------- reporting

    def _totals(self) -> tuple[Counter, Counter]:
        calls, self_ns = Counter(), Counter()
        for name, c, ns in zip(self.names, self.calls, self.self_ns):
            calls[name] += c
            self_ns[name] += ns
        return calls, self_ns

    def metrics(self, ops: int, overhead_ratio: float) -> dict[str, dict]:
        calls, self_ns = self._totals()
        values: dict[str, float] = {}
        for metric in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = calls[layer] / ops
            elif field == "self_ms":
                values[metric] = self_ns[layer] / 1e6 / ops
            elif field == "bytes":
                values[metric] = self.bytes[layer] / ops
        project_calls = calls["quantum.project"]
        values["quantum.gate.qubits_max"] = self.qubits_max
        values["quantum.project.useful_ratio"] = (project_calls - self.discarded) / project_calls if project_calls else 1.0
        for v in VARIANTS:
            values[f"protocol.messages.{v}"] = self.messages[v] / ops
        for phase in ("prepare", "rounds", "output"):
            values[f"protocol.phase.{phase}_ms"] = self.phase_ns[phase] / 1e6 / ops
        values["harness.views.branches"] = self.branches / ops
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = self.spans
        with path.open("w") as out:
            out.write("span_id\tparent_id\tname\top_id\tstart_ns\tend_ns\n")
            for i in range(0, len(rows), 6):
                out.write(f"{rows[i]}\t{rows[i + 1]}\t{self.names[rows[i + 2]]}\t{rows[i + 3]}\t{rows[i + 4]}\t{rows[i + 5]}\n")


def _patch_function(original, wrapper) -> None:
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer, hooks) -> None:
    """Patch every traced call site and route the phase hooks to the tracer."""
    after = {
        "quantum.gate": tracer.after_gate,
        "quantum.tensor": tracer.after_tensor,
        "quantum.project": tracer.after_project,
        "protocol.record": tracer.after_record,
    }
    for name, cls, attrs in CLASS_SPANS:
        for attr in attrs:
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after.get(name)))
    for attr in ("measure_rotated", "measure_computational"):
        original = getattr(quantum.PureState, attr)

        def counted(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            # measure_* computes the outcome-0 projection first and throws
            # it away when the outcome is 1
            if result[0] == 1:
                tracer.discarded += 1
            return result

        setattr(quantum.PureState, attr, counted)

    for name, module, attrs in FUNCTION_SPANS:
        for attr in attrs:
            original = getattr(module, attr)
            _patch_function(original, tracer.wrap(name, original))

    # protocol runs open the phase clock; the hooks close prepare and rounds
    run_span = protocol.run_full_protocol

    @functools.wraps(run_span)
    def run_with_phases(*args, **kwargs):
        tracer.phase_at = perf_counter_ns()
        result = run_span(*args, **kwargs)
        if not result.aborted:
            tracer.phase_ns["output"] += perf_counter_ns() - tracer.phase_at
        return result

    _patch_function(run_span, run_with_phases)

    views = harness.exact_server_views

    @functools.wraps(views)
    def views_with_branches(*args, **kwargs):
        tracer.in_views += 1
        try:
            return views(*args, **kwargs)
        finally:
            tracer.in_views -= 1

    _patch_function(views, views_with_branches)
    hooks.mark = tracer.phase
