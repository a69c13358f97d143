"""Command-line experiment runner.

Every invocation reads a JSON config, runs one experiment mode, and writes
three artifacts into the output directory: transcript.jsonl (the message
log of a representative run, empty for modes that have none), report.json
(machine-readable result), and summary.txt (human-readable result).

Exit codes: 0 success, 1 bad config or an --out that cannot be a directory,
2 a security/correctness threshold was violated, 3 the protocol aborted.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from .brickwork import MeasurementPattern, build_brickwork, random_pattern, reference_execute
from .harness import (
    EXACT_VIEW_BUDGET,
    blindness_check,
    clopper_pearson,
    empirical_tv,
    exact_view_amplitudes,
    marginal_distances,
    observe,
    rewrite_peak_qubits,
    sample,
    summary_fields,
)
from .protocol import AbortInfo, Session, Transcript, message_counts, run_full_protocol
from .quantum import PureState, QuantumSystem, octant

# largest live register a config may ask for: n_wires + reference_qubits
# + 1 qubits, the input register plus the one node joining it at a time
# (2^24 amplitudes take 256 MiB per statevector)
REGISTER_BUDGET = 24
# most messages one protocol run may send (protocol.message_counts): a
# transcript holds about 570 bytes per message, shares and payloads
# included (measured on honest 2x40 and 4x10 runs with m_copies 100 and
# 400), so about 0.6 GB. Sampled modes hold one run at a time.
MESSAGE_BUDGET = 10 ** 6
# most summary fields a sampled mode may keep: trials x worlds x fields per
# trial (harness.summary_fields; protocol1-detection keeps one bool per
# trial). Kept, a field costs about 90 bytes, its key string and dict slot,
# and pooling copies it once more: about 120 bytes per field at the peak
# (tracemalloc peaks over 2,000 trials of intermediate-equiv on 2x2 and of
# client-sim-equiv on 2x4), so about 0.6 GB, as for messages.
SUMMARY_BUDGET = 5 * 10 ** 6


class Mode(NamedTuple):
    """What one CLI mode runs, reports and reads."""

    run: Callable[[dict, bool], dict]  # (settings, debug_secrets) -> result
    threshold: float  # default bound: infidelity, view distance, pooled TV or band half-width
    scenario_ids: tuple[str, ...]
    # the config fields it reads besides mode and threshold, each with its
    # default; None: no fixed default (required, or the runner's own choice)
    fields: dict[str, object]
    # rewrites run beside the base protocol; they may hold more (harness.rewrite_peak_qubits)
    rewrites: tuple[str, ...] = ()

    def settings(self, config: dict) -> dict:
        """The config over the mode's defaults, as validate checks it and the runner reads it."""
        return {**self.fields, "threshold": self.threshold, **config}


def _is_int(value) -> bool:
    """A JSON integer: true and false are ints to Python, but not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number: json reads NaN and Infinity as floats."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


FIELD_RULES = {
    "seed": (lambda v: _is_int(v) and v >= 0, "seed is required and must be an integer >= 0"),
    "n_wires": (lambda v: _is_int(v) and v >= 2 and v % 2 == 0, "n_wires must be an even integer >= 2"),
    "n_columns": (lambda v: _is_int(v) and v >= 1, "n_columns must be an integer >= 1"),
    "reference_qubits": (lambda v: _is_int(v) and v >= 0, "reference_qubits must be an integer >= 0"),
    "m_copies": (lambda v: _is_int(v) and v >= 2, "m_copies must be an integer >= 2"),
    "trials": (lambda v: _is_int(v) and v >= 100, "trials must be an integer >= 100"),
    "deviation": (lambda v: _is_int(v) and 0 <= v <= 7, "deviation must be an octant count in 0..7"),
    "threshold": (lambda v: _is_number(v) and v > 0, "threshold must be a positive finite number"),
}


def validate(config: dict) -> list[str]:
    """Pure config check; returns a list of problems (empty = valid)."""
    mode = config.get("mode")
    if not isinstance(mode, str) or mode not in MODES:  # a list or object is no key
        return [f"mode must be one of {tuple(MODES)}, got {mode!r}"]
    entry = MODES[mode]
    declared = ("mode", "threshold", *entry.fields)
    errors = _undeclared_or_null(config, declared, "", mode)
    settings = entry.settings({key: value for key, value in config.items() if key in declared and value is not None})
    failed = set()
    for field, (ok, message) in FIELD_RULES.items():
        if field in declared and not ok(settings[field]):
            failed.add(field)
            errors.append(message)

    sized = False  # the shape's own checks wait for a shape within the budgets
    if "n_wires" in entry.fields and not failed & {"n_wires", "reference_qubits"}:
        n_wires, n_columns, n_ref = settings["n_wires"], settings["n_columns"], settings["reference_qubits"]
        if n_wires + n_ref + 1 > REGISTER_BUDGET:
            errors.append(
                f"n_wires + reference_qubits + 1 = {n_wires} + {n_ref} + 1 live qubits, "
                f"over the register budget of {REGISTER_BUDGET}"
            )
        elif "n_columns" not in failed:
            # checked before the graph is built, which alone would exhaust
            # memory at 10^7 columns; a mode without a valid m_copies is
            # counted at 2, the batch size of the sampled worlds
            m_copies = settings["m_copies"] if "m_copies" in entry.fields and "m_copies" not in failed else 2
            messages = sum(message_counts(n_wires, n_columns, m_copies).values())
            if messages > MESSAGE_BUDGET:
                errors.append(
                    f"{n_wires}x{n_columns} with m_copies {m_copies}: one protocol run sends {messages} messages, "
                    f"over the message budget of {MESSAGE_BUDGET}"
                )
            else:
                sized = True
            if entry.rewrites:
                peak, version = max((rewrite_peak_qubits(v, n_wires, n_columns, n_ref), v) for v in entry.rewrites)
                if peak > REGISTER_BUDGET:
                    errors.append(
                        f"{mode} runs the {version} rewrite, which holds up to {peak} live qubits at "
                        f"{n_wires}x{n_columns} with {n_ref} reference qubits, over the register budget of {REGISTER_BUDGET}"
                    )
    if "trials" in entry.fields and not failed & {"trials", "n_wires", "n_columns", "reference_qubits"}:
        worlds = len(entry.scenario_ids)
        fields = summary_fields(settings["n_wires"], settings["n_columns"], settings["reference_qubits"]) if "n_wires" in entry.fields else 1
        kept = settings["trials"] * worlds * fields
        if kept > SUMMARY_BUDGET:
            errors.append(
                f"trials {settings['trials']} x {worlds} worlds x {fields} summary fields: {mode} keeps {kept} values, "
                f"over the summary budget of {SUMMARY_BUDGET}"
            )
    coalition = settings.get("coalition")
    if coalition is not None:
        n_wires = 0 if "n_wires" in failed else settings["n_wires"]
        if not isinstance(coalition, list) or not coalition:
            errors.append("coalition must be a nonempty list of client indices")
        elif not all(_is_int(c) and 1 <= c <= n_wires for c in coalition):
            errors.append("coalition members must be client indices in 1..n_wires")
        elif len(set(coalition)) < len(coalition):
            twice = sorted({c for c in coalition if coalition.count(c) > 1})
            errors.append(f"coalition lists client {', '.join(map(str, twice))} more than once")
        elif len(coalition) >= n_wires:
            errors.append("at least one client must stay outside the coalition")
    specs = {"": settings}
    if "scenarios" in entry.fields:
        scenarios = settings["scenarios"]
        if not isinstance(scenarios, dict) or set(scenarios) != {"a", "b"} or not all(isinstance(sc, dict) for sc in scenarios.values()):
            errors.append('blindness needs "scenarios" with exactly the keys "a" and "b", each an object')
            specs = {}
        else:
            specs = {f"scenarios.{key}.": sc for key, sc in sorted(scenarios.items())}
            for prefix, sc in specs.items():
                errors.extend(_undeclared_or_null(sc, ("angles", "input"), prefix, mode))
    if sized:
        for prefix, spec in specs.items():
            errors.extend(_check_angles(spec.get("angles"), n_wires * (n_columns - 1), prefix + "angles"))
            errors.extend(_check_input(spec.get("input"), 2 ** (n_wires + n_ref), prefix + "input"))
        if "scenarios" in entry.fields:
            if n_columns == 1:
                errors.append("n_columns must be >= 2 for blindness: a single column measures nothing")
            elif exact_view_amplitudes(n_wires, n_columns, n_ref) > EXACT_VIEW_BUDGET:
                errors.append(
                    f"n_wires x n_columns = {n_wires}x{n_columns} with {n_ref} reference qubits: blindness "
                    f"needs {exact_view_amplitudes(n_wires, n_columns, n_ref)} exact-view amplitudes, over the budget of {EXACT_VIEW_BUDGET}"
                )
    return errors


def _undeclared_or_null(fields: dict, declared, prefix: str, mode: str) -> list[str]:
    """A config key the mode does not read, or a null, is a config error."""
    return [
        f"{prefix}{key} is not a field of mode {mode}" if key not in declared else f"{prefix}{key} must not be null"
        for key, value in fields.items() if key not in declared or value is None
    ]


def _check_angles(spec, count: int, field: str) -> list[str]:
    if spec is None or spec in ("random", "zeros"):
        return []
    if not isinstance(spec, list) or not all(_is_int(v) for v in spec):
        return [f'{field} must be "random", "zeros" or a list of integer octants']
    if len(spec) != count:
        return [f"{field} must list one octant per measured node: {count} on this graph, got {len(spec)}"]
    return []


def _check_input(spec, count: int, field: str) -> list[str]:
    if spec is None or spec in ("random", "zeros", "ones"):
        return []
    if not isinstance(spec, list) or not all(
        isinstance(v, list) and len(v) == 2 and all(_is_number(x) for x in v) for v in spec
    ):
        return [f'{field} must be "random", "zeros", "ones" or a list of finite [re, im] amplitude pairs']
    if len(spec) != count:
        return [f"{field} must have 2^(n_wires + reference_qubits) = {count} amplitudes, got {len(spec)}"]
    try:
        with np.errstate(over="ignore", under="ignore"):
            norm = float(np.linalg.norm([complex(re, im) for re, im in spec]))
    except OverflowError:  # an integer amplitude beyond the float range
        norm = math.inf
    # _build_input divides by this norm: its square must be a normal float,
    # not 0 (all zero, or underflow), a coarse subnormal, or an overflow
    if not sys.float_info.min <= norm * norm < math.inf:
        return [f"{field} amplitudes must have a nonzero norm whose square is a finite normal float, got norm {norm:g}"]
    return []


def _build_input(spec, n_qubits: int, rng: np.random.Generator) -> PureState:
    if spec is None or spec == "random":
        v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
        return PureState(v / np.linalg.norm(v))
    if spec == "zeros":
        return PureState.computational("0" * n_qubits)
    if spec == "ones":
        return PureState.computational("1" * n_qubits)
    amps = np.array([complex(re, im) for re, im in spec])
    return PureState(amps / np.linalg.norm(amps))


def _build_pattern(config: dict, angle_spec, rng: np.random.Generator) -> MeasurementPattern:
    graph = build_brickwork(config["n_wires"], config["n_columns"])
    if angle_spec is None or angle_spec == "random":
        return random_pattern(graph, rng)
    if angle_spec == "zeros":
        return MeasurementPattern(graph, {j: 0 for j in graph.measured_nodes})
    return MeasurementPattern(graph, dict(zip(graph.measured_nodes, angle_spec)))


def _scenario(config: dict, rng: np.random.Generator) -> tuple[MeasurementPattern, PureState]:
    """The config's pattern, then its input state, both drawn from rng."""
    pattern = _build_pattern(config, config.get("angles"), rng)
    return pattern, _build_input(config.get("input"), config["n_wires"] + config.get("reference_qubits", 0), rng)


def _pool_distance(sum_a: list[dict], sum_b: list[dict]) -> dict[str, float]:
    """Pooled TV per message kind plus per-field TV for everything else."""
    kinds = ("t", "delta", "b", "key")
    pools_a: dict[str, list] = {k: [] for k in kinds}
    pools_b: dict[str, list] = {k: [] for k in kinds}
    rest_a: list[dict] = []
    rest_b: list[dict] = []
    for src, pools, rest in ((sum_a, pools_a, rest_a), (sum_b, pools_b, rest_b)):
        for s in src:
            row = {}
            for key, value in s.items():
                kind = key.split(":")[0]
                if kind in kinds:
                    pools[kind].append(value)
                else:
                    row[key] = value
            rest.append(row)
    result: dict[str, float] = {}
    for k in kinds:
        if pools_a[k] or pools_b[k]:
            result[k] = empirical_tv(pools_a[k], pools_b[k])
    result.update(marginal_distances(rest_a, rest_b))
    return result


# ---------------------------------------------------------------- modes


def _mode_honest_run(settings: dict, debug: bool) -> dict:
    seed = settings["seed"]
    rng = np.random.default_rng([seed, 0])
    pattern, input_state = _scenario(settings, rng)
    run = run_full_protocol(pattern, input_state, rng, m_copies=settings["m_copies"], debug_secrets=debug)
    if run.aborted:
        return {
            "metric": "output fidelity vs direct pattern execution",
            "value": 0.0,
            "aborted": True,
            "abort": asdict(run.abort),
            "transcript": run.transcript,
            "details": {"message_counts": dict(run.transcript.counts)},
        }
    expected = reference_execute(pattern, input_state, np.random.default_rng([seed, 1]))
    fidelity = run.output_state.fidelity(expected)
    return {
        "metric": "output fidelity vs direct pattern execution",
        "value": fidelity,
        "passed": fidelity >= 1 - settings["threshold"],
        "transcript": run.transcript,
        "details": {
            "messages": len(run.transcript),
            "message_counts": dict(run.transcript.counts),
            "deltas": {str(k): v for k, v in sorted(run.delta.items())},
            "outcomes": {str(k): v for k, v in sorted(run.b.items())},
            "peak_qubits": run.system.peak_qubits,
            **({"secrets": run.ledger.dump_secrets()} if debug else {}),
        },
    }


def _mode_blindness(settings: dict, debug: bool) -> dict:
    rng = np.random.default_rng([settings["seed"], 0])
    sc = settings["scenarios"]
    pattern_a = _build_pattern(settings, sc["a"].get("angles"), rng)
    pattern_b = _build_pattern(settings, sc["b"].get("angles"), rng)
    n_qubits = settings["n_wires"] + settings["reference_qubits"]
    input_a = _build_input(sc["a"].get("input"), n_qubits, rng)
    input_b = _build_input(sc["b"].get("input"), n_qubits, rng)
    classes: dict[str, int] = {}
    start = perf_counter()
    distances = blindness_check(pattern_a, input_a, pattern_b, input_b, classes)
    seconds = perf_counter() - start
    worst = max(distances.values())
    return {
        "metric": "max exact server-view trace distance over checkpoints",
        "value": worst,
        "passed": worst <= settings["threshold"],
        # view_amplitudes counts both scenarios' row arrays
        "details": {"checkpoints": {k: float(v) for k, v in distances.items()}, "view_classes": classes,
                    "view_amplitudes": 2 * exact_view_amplitudes(settings["n_wires"], settings["n_columns"], settings["reference_qubits"]),
                    "seconds": seconds},
    }


def _compare(settings: dict, worlds: tuple[str, ...], fidelity: bool = False, **options) -> tuple[list[dict], float]:
    """Sample each world's trials at salts 2, 3, ... (harness.sample, harness.observe).

    Returns _pool_distance from the first world to each later one, in
    order, and the least output fidelity to direct execution over all
    trials (1.0 unless `fidelity`). `options` go to harness.observe.
    """
    seed = settings["seed"]
    pattern, input_state = _scenario(settings, np.random.default_rng([seed, 0]))
    expected = reference_execute(pattern, input_state, np.random.default_rng([seed, 1])) if fidelity else None

    def trial(world: str, rng: np.random.Generator) -> tuple[dict, float]:
        summary, output = observe(world, pattern, input_state, rng, **options)
        return summary, 1.0 if expected is None else output.fidelity(expected)

    samples = [sample(partial(trial, world), settings["trials"], seed, k + 2) for k, world in enumerate(worlds)]
    first = [summary for summary, _ in samples[0]]
    distances = [_pool_distance(first, [summary for summary, _ in rows]) for rows in samples[1:]]
    return distances, min(f for rows in samples for _, f in rows)


def _tv_report(settings: dict, versus: str, distances: list[dict], details: dict, ok: bool = True) -> dict:
    """The verdict of a sampled comparison: the largest pooled TV against the threshold."""
    worst = max(max(d.values()) for d in distances)
    return {
        "metric": f"max pooled marginal TV, {versus}",
        "value": worst,
        "passed": ok and worst <= settings["threshold"],
        "trials": settings["trials"],
        "details": details,
    }


def _mode_server_sim_equiv(settings: dict, debug: bool) -> dict:
    distances, min_fidelity = _compare(settings, ("base", "simulator-resource"), fidelity=True)
    details = {"marginals": distances[0], "min_output_fidelity": min_fidelity}
    return _tv_report(settings, "real vs simulated server world", distances, details, min_fidelity >= 1 - 1e-6)


def _mode_client_sim_equiv(settings: dict, debug: bool) -> dict:
    coalition = frozenset(settings["coalition"] or [settings["n_wires"]])  # by default the last client
    distances, _ = _compare(settings, ("base", "simulated-client"), m_copies=settings["m_copies"], coalition=coalition)
    details = {"marginals": distances[0], "coalition": sorted(coalition), "leak_checks": 2 * settings["trials"]}
    return _tv_report(settings, "real vs simulated coalition view", distances, details)


def _mode_protocol1_detection(settings: dict, debug: bool) -> dict:
    trials, deviation, half_width = settings["trials"], settings["deviation"], settings["threshold"]

    def rejected(rng: np.random.Generator) -> bool:
        """Client 1 declares one uniform angle for a batch of two copies but
        prepares both `deviation` octants off; the protocol's copy test, on a
        fresh two-client session, opens one of them."""
        theta = int(rng.integers(8))
        session = Session(QuantumSystem(), Transcript(), rng, 2)
        return isinstance(session.offer_test_copies(0, 1, [theta] * 2, [octant(theta + deviation)] * 2), AbortInfo)

    rejections, tested = sum(sample(rejected, trials, settings["seed"], 2)), trials
    rate = rejections / tested
    expected = float(np.sin(deviation * np.pi / 8) ** 2)
    lo, hi = clopper_pearson(rejections, tested)
    return {
        "metric": f"per-copy rejection rate at deviation {deviation}",
        "value": rate,
        "passed": abs(rate - expected) <= half_width,
        "trials": trials,
        "confidence_radius": (hi - lo) / 2,
        "details": {"expected": expected, "band": [expected - half_width, expected + half_width], "rejections": rejections, "tested": tested},
    }


def _mode_intermediate_equiv(settings: dict, debug: bool) -> dict:
    distances, _ = _compare(settings, ("base", "teleport", "delayed"))
    return _tv_report(settings, "base protocol vs rewrites", distances, {"marginals": dict(zip(("teleport", "delayed"), distances))})


_GRAPH = {"seed": None, "n_wires": None, "n_columns": None, "reference_qubits": 0}
_SCENARIO = {**_GRAPH, "angles": "random", "input": "random"}
_SAMPLED = {**_SCENARIO, "trials": 10000}

MODES = {
    "honest-run": Mode(_mode_honest_run, 1e-6, ("honest",), {**_SCENARIO, "m_copies": 10}),
    "blindness": Mode(_mode_blindness, 1e-9, ("a", "b"), {**_GRAPH, "scenarios": None}),
    "server-sim-equiv": Mode(_mode_server_sim_equiv, 0.02, ("real", "simulated"), _SAMPLED, ("simulator-resource",)),
    "client-sim-equiv": Mode(_mode_client_sim_equiv, 0.02, ("real", "simulated"), {**_SAMPLED, "m_copies": 2, "coalition": None}),
    "protocol1-detection": Mode(_mode_protocol1_detection, 0.02, ("deviating-client",), {"seed": None, "trials": 10000, "deviation": 1}),
    "intermediate-equiv": Mode(_mode_intermediate_equiv, 0.02, ("base", "teleport", "delayed"), _SAMPLED, ("teleport", "delayed")),
}


def run_experiment(config: dict, seed: int, out_dir: Path, debug_secrets: bool = False) -> int:
    """Run one validated config and write the artifacts into the existing out_dir. Returns the exit code."""
    mode = config["mode"]
    entry = MODES[mode]
    settings = entry.settings({**config, "seed": seed})
    result = entry.run(settings, debug_secrets)

    transcript = result.pop("transcript", None)
    (out_dir / "transcript.jsonl").write_text(transcript.to_jsonl() if transcript is not None else "")

    aborted = bool(result.pop("aborted", False))
    passed = bool(result.get("passed", False)) and not aborted
    report = {
        "mode": mode,
        "scenario_ids": entry.scenario_ids,
        "metric": result["metric"],
        "value": result["value"],
        "confidence_radius": result.get("confidence_radius"),
        "trials": result.get("trials"),
        "seed": seed,
        "threshold": settings["threshold"],
        "passed": passed,
        "details": result.get("details", {}),
    }
    if aborted:
        report["abort"] = result["abort"]
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    lines = [
        f"mode:      {mode}",
        f"seed:      {seed}",
        f"metric:    {report['metric']}",
        f"value:     {report['value']:.6g}",
        f"threshold: {report['threshold']:.6g}",
        f"result:    {'ABORT' if aborted else 'PASS' if passed else 'FAIL'}",
    ]
    if report["trials"]:
        lines.insert(4, f"trials:    {report['trials']}")
    if transcript is not None:
        lines.append(f"messages:  {len(transcript)}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")

    if aborted:
        return 3
    return 0 if passed else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mpdqc", description="delegated multiparty blind computation experiments")
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="overrides the seed in the config")
    parser.add_argument("--out", default="out", help="output directory for report/transcript/summary")
    parser.add_argument(
        "--debug-secrets", action="store_true",
        help="honest-run only: add the amplitudes of unentangled qubits to transcript transfer messages and, "
        "unless the run aborted, the oracle's reconstructed secrets to report.json under details.secrets",
    )
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError(f"the config must be a JSON object, got {type(config).__name__}")
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        config["seed"] = args.seed
    errors = validate(config)
    if args.debug_secrets and config.get("mode") != "honest-run":
        errors.append("--debug-secrets applies to mode honest-run only")
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    try:  # before the run, so that a bad --out costs no experiment
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path, or a file on its way
        print(f"output error: cannot create directory {out_dir}: {exc.strerror}", file=sys.stderr)
        return 1
    return run_experiment(config, config["seed"], out_dir, debug_secrets=args.debug_secrets)


if __name__ == "__main__":
    sys.exit(main())
