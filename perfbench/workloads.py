"""The three benchmark workloads and the checks on their outputs.

Each workload is built from a seed, then driven as a closed loop: the
caller asks for op k only after op k-1 returned. `inputs(k)` generates the
op's inputs (benchmark work, outside the op's latency); `op(k, inputs)`
calls the program and checks its outputs, returning None on success or a
failure reason. Program functions are always looked up as module
attributes at call time, so the tracer's patches apply.

Every op is a pure function of (seed, k), so the digest over a fixed prefix
of ops repeats exactly for a given seed, however long the run was.

TAIL_PERCENTILE is fixed per workload so that two commits are compared at
the same percentile; each leaves at least 10 samples beyond it in a 30 s
run at the parent commit (see README.md).
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

import numpy as np

from mpdqc import brickwork, cli, harness, protocol
from mpdqc.quantum import PureState

FIDELITY_TOL = 1e-6        # A1/A5: infidelity bound on every output state
VIEW_DISTANCE_TOL = 1e-9   # A3: per-checkpoint exact view distance bound
TV_DELTA = 1e-9            # per-field false-failure probability of the TV bound
TV_SUPPORT = 8             # largest support of a summary field (octant angles)


def tv_bound(n: int) -> float:
    """Bound on the empirical TV between two n-sample draws of one distribution.

    By the Bretagnolle-Huber-Carol inequality, P(||p_hat - p||_1 >= e) <=
    2^k exp(-n e^2 / 2) for k categories, so with probability 1 - delta each
    side is within e = sqrt(2 (k ln 2 + ln(1/delta)) / n) in L1, and the TV
    between the two sides, at most half the sum, is within e. k = 8 covers
    every field; delta = 1e-9 per field keeps a healthy round from failing.
    """
    return math.sqrt(2 * (TV_SUPPORT * math.log(2) + math.log(1 / TV_DELTA)) / n)


def random_state(n_qubits: int, rng: np.random.Generator) -> PureState:
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return PureState(v / np.linalg.norm(v))


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _variants(transcript) -> Counter:
    return Counter(m.variant for m in transcript.messages)


class PhaseHooks:
    """Do-nothing ServerStrategy hooks that mark the protocol's phases.

    `mark` stays None in timed runs; the tracer sets it to record the
    prepare / rounds / output phase times. The hooks consume no randomness,
    so a run with them is the run without them.
    """

    def __init__(self):
        self.mark = None
        self.strategy = protocol.ServerStrategy(
            after_entangle=lambda handle: self._mark("entangled"),
            before_output_send=lambda handle: self._mark("output"),
        )

    def _mark(self, phase: str) -> None:
        if self.mark is not None:
            self.mark(phase)


class Sample2x2:
    """A5 + A6: base protocol vs the three rewrites, real vs simulated coalition view.

    Trials run in rounds of `trials_per_round`; a round is six ops per trial
    followed by one pooling op that compares the round's summaries with
    `cli._pool_distance`, as A5 and A6 do. The run's last, partial round is
    pooled after the deadline by `closing_op`.
    """

    name = "sample-2x2"
    KINDS = ("base", "teleport", "delayed", "simulator-resource", "coalition-real", "coalition-sim")
    COALITION = frozenset({2})
    COUNT_OPS = 10 * len(KINDS)  # ops whose exact counts are reported
    TAIL_PERCENTILE = 95

    def __init__(self, seed: int, tiny: bool, hooks: PhaseHooks):
        self.seed = seed
        self.hooks = hooks
        self.trials_per_round = 5 if tiny else 500
        self.round_len = self.trials_per_round * len(self.KINDS) + 1
        rng = np.random.default_rng([seed, 0])
        self.pattern = brickwork.random_pattern(brickwork.build_brickwork(2, 2), rng)
        self.input_state = random_state(2, rng)
        self.expected = brickwork.reference_execute(self.pattern, self.input_state, np.random.default_rng([seed, 1]))
        self.pools = {kind: [] for kind in self.KINDS}
        self.digest_data = {"tv": {}, "min_fidelity": 1.0, "messages": Counter(), "summaries": []}
        self.round = 0

    def inputs(self, k: int):
        r, pos = divmod(k, self.round_len)
        if pos == self.round_len - 1:
            return ("pool", None)
        trial, salt = divmod(pos, len(self.KINDS))
        i = r * self.trials_per_round + trial
        return (self.KINDS[salt], np.random.default_rng([self.seed, 5, salt, i]))

    def op(self, k: int, inputs) -> str | None:
        kind, rng = inputs
        if kind == "pool":
            return self._pool()
        if kind == "base":
            run = protocol.run_full_protocol(self.pattern, self.input_state, rng, m_copies=2, server_strategy=self.hooks.strategy)
            if run.aborted:
                return "base protocol aborted"
            summary = harness.observable_summary(run, rng)
        elif kind in ("teleport", "delayed", "simulator-resource"):
            run = harness.run_intermediate_protocol(self.pattern, self.input_state, rng, kind)
            summary = harness.observable_summary(run, rng)
        elif kind == "coalition-real":
            run = protocol.run_full_protocol(self.pattern, self.input_state, rng, m_copies=2, server_strategy=self.hooks.strategy)
            if run.aborted:
                return "coalition-real protocol aborted"
            harness.check_no_secret_leak(run.transcript, self.COALITION, 2)
            summary = harness.coalition_view_summary(run, self.COALITION, rng)
        else:
            run = harness.run_simulated_client_world(self.pattern, self.input_state, self.COALITION, rng, m_copies=2)
            if run.abort:
                return "simulated client world aborted"
            harness.check_no_secret_leak(run.transcript, self.COALITION, 2)
            summary = harness.coalition_view_summary(run, self.COALITION, rng)
        fidelity = run.output_state.fidelity(self.expected)
        self.pools[kind].append(summary)
        if self.round == 0:
            data = self.digest_data
            data["min_fidelity"] = min(data["min_fidelity"], fidelity)
            data["summaries"].append(summary)
            if hasattr(run, "transcript"):
                data["messages"].update(_variants(run.transcript))
        if fidelity < 1 - FIDELITY_TOL:
            return f"{kind} output fidelity {fidelity:.9f}"
        return None

    def _pool(self) -> str | None:
        p = self.pools
        comparisons = {
            "teleport": (p["base"], p["teleport"]),
            "delayed": (p["base"], p["delayed"]),
            "simulator-resource": (p["base"], p["simulator-resource"]),
            "coalition": (p["coalition-real"], p["coalition-sim"]),
        }
        worst, bounds = {}, {}
        for label, (a, b) in comparisons.items():
            if a and b:
                worst[label] = max(cli._pool_distance(a, b).values())
                bounds[label] = tv_bound(min(len(a), len(b)))
        if self.round == 0:
            self.digest_data["tv"] = worst
            self.digest_data["tv_bound"] = min(bounds.values(), default=1.0)
        self.pools = {kind: [] for kind in self.KINDS}
        self.round += 1
        over = {label: f"{tv:.4f} > {bounds[label]:.4f}" for label, tv in worst.items() if tv > bounds[label]}
        if over:
            return f"pooled TV over its bound: {over}"
        return None

    def closing_op(self):
        """The final pooling of a partial round, or None if the round is empty."""
        if not any(self.pools.values()):
            return None
        return ("pool", None)

    def digest(self) -> dict:
        d = self.digest_data
        return {
            "scope": f"round 0 ({self.trials_per_round} trials x {len(self.KINDS)} ops + pooling)",
            "ops": len(d["summaries"]),
            "pooled_tv_max": d["tv"],
            "tv_bound": round(d.get("tv_bound", 1.0), 6),
            "tv_bound_rule": "sqrt(2 (8 ln 2 + ln 1e9) / n), n = trials per side (Bretagnolle-Huber-Carol)",
            "min_fidelity": f"{d['min_fidelity']:.9f}",
            "messages": dict(sorted(d["messages"].items())),
            "summaries_sha": _sha(d["summaries"]),
        }


class HonestWide:
    """A1 at width: honest 4x5 runs with m_copies=10 against reference_execute."""

    name = "honest-wide"
    DIGEST_OPS = 3
    COUNT_OPS = 2
    TAIL_PERCENTILE = 85

    def __init__(self, seed: int, tiny: bool, hooks: PhaseHooks):
        self.seed = seed
        self.hooks = hooks
        self.shape = (2, 3) if tiny else (4, 5)
        self.m_copies = 2 if tiny else 10
        self.graph = brickwork.build_brickwork(*self.shape)
        self.digest_data = {"fidelity": [], "messages": Counter(), "outcomes": []}

    def inputs(self, k: int):
        rng = np.random.default_rng([self.seed, 1, k])
        pattern = brickwork.random_pattern(self.graph, rng)
        return pattern, random_state(self.shape[0], rng), rng

    def reference_for(self, pattern, input_state, k: int) -> PureState:
        return brickwork.reference_execute(pattern, input_state, np.random.default_rng([self.seed, 2, k]))

    def op(self, k: int, inputs) -> str | None:
        pattern, input_state, rng = inputs
        run = protocol.run_full_protocol(pattern, input_state, rng, m_copies=self.m_copies, server_strategy=self.hooks.strategy)
        if run.aborted:
            return f"protocol aborted at {run.abort.stage}"
        fidelity = run.output_state.fidelity(self.reference_for(pattern, input_state, k))
        if k < self.DIGEST_OPS:
            self.digest_data["fidelity"].append(fidelity)
            self.digest_data["messages"].update(_variants(run.transcript))
            self.digest_data["outcomes"].append([sorted(run.delta.items()), sorted(run.b.items())])
        if fidelity < 1 - FIDELITY_TOL:
            return f"output fidelity {fidelity:.9f}"
        return None

    def closing_op(self):
        return None

    def digest(self) -> dict:
        d = self.digest_data
        return {
            "scope": f"ops 0..{self.DIGEST_OPS - 1} ({self.shape[0]}x{self.shape[1]}, m_copies={self.m_copies})",
            "ops": len(d["fidelity"]),
            "min_fidelity": f"{min(d['fidelity'], default=1.0):.9f}",
            "messages": dict(sorted(d["messages"].items())),
            "outcomes_sha": _sha(d["outcomes"]),
        }


class ExactViews:
    """A3 style: one op is one exact blindness check between two seeded 2x2 scenarios."""

    name = "exact-views"
    DIGEST_OPS = 2
    COUNT_OPS = 1
    TAIL_PERCENTILE = 55

    def __init__(self, seed: int, tiny: bool, hooks: PhaseHooks):
        self.seed = seed
        self.graph = brickwork.build_brickwork(2, 2)
        self.digest_data = []

    def inputs(self, k: int):
        rng = np.random.default_rng([self.seed, 3, k])
        scenario_a = (brickwork.random_pattern(self.graph, rng), random_state(2, rng))
        return scenario_a, self.reference_scenario(rng)

    def reference_scenario(self, rng: np.random.Generator):
        return brickwork.random_pattern(self.graph, rng), random_state(2, rng)

    def op(self, k: int, inputs) -> str | None:
        (pattern_a, input_a), (pattern_b, input_b) = inputs
        distances = harness.blindness_check(pattern_a, input_a, pattern_b, input_b)
        worst = max(distances.values())
        if k < self.DIGEST_OPS:
            self.digest_data.append({cp: round(d, 12) for cp, d in distances.items()})
        if worst > VIEW_DISTANCE_TOL:
            return f"view distance {worst:.3e}"
        return None

    def closing_op(self):
        return None

    def digest(self) -> dict:
        return {"scope": f"ops 0..{self.DIGEST_OPS - 1}", "ops": len(self.digest_data), "view_distances": self.digest_data}


WORKLOADS = {w.name: w for w in (Sample2x2, HonestWide, ExactViews)}
