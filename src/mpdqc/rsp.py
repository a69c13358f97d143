"""Collaborative remote state preparation chains.

n clients each contribute one qubit (registers labeled 1..n). The server
wires them into a CNOT chain and measures all but one register in the
computational basis, collapsing the survivor to a state that carries every
client's secret angle but, to anyone missing a share, looks maximally
mixed. Two variants:

- aux chain: all contributions are |+_theta^k>; register n survives as
  |+_theta> with theta = theta_aux(shares, t).
- input chain: register `owner` holds a padded input X^a Z(theta^own)|psi>
  (X outermost as a matrix, i.e. the Z rotation is applied first) and
  survives still padded, now by X^a Z(theta) with theta =
  theta_input(shares, owner, t, a).

t is the dict of computational outcomes keyed by measured register label.
Both closed forms are pinned against exhaustive branch enumeration of the
circuits in the tests.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .quantum import PureState, octant


def pad_input(state: PureState, qubit: int, a: int, theta: int) -> PureState:
    """Encrypt an input qubit: Z(theta) rotation, then an X flip if a is set."""
    state = state.z_rot(qubit, theta)
    if a & 1:
        state = state.x(qubit)
    return state


def undo_pad(state: PureState, qubit: int, a: int, theta: int) -> PureState:
    """Invert pad_input: undo the X flip, then the Z rotation."""
    if a & 1:
        state = state.x(qubit)
    return state.z_rot(qubit, -theta)


def aux_chain_steps(n: int) -> list[tuple[int, int]]:
    """(target, control) register pairs for the aux chain; each step measures its target."""
    if n < 2:
        raise ValueError("need at least 2 registers")
    return [(k, k + 1) for k in range(1, n)]


def input_chain_steps(n: int, owner: int) -> list[tuple[int, int]]:
    """(target, control) register pairs for the input chain around register `owner`.

    The chain walks the registers in increasing order, hopping over the
    owner, and its last link hangs the final measured register off the
    owner itself. Each step measures its target, so the measured registers
    are exactly 1..n without `owner`, in increasing order.
    """
    if n < 2:
        raise ValueError("need at least 2 registers")
    if not 1 <= owner <= n:
        raise ValueError("owner register out of range")
    steps: list[tuple[int, int]] = []
    for k in range(1, n):
        if k == owner:
            continue
        if k == n - 1 and owner == n:
            continue
        steps.append((k, k + 2 if k == owner - 1 else k + 1))
    if owner == n:
        steps.append((n - 1, n))
    else:
        steps.append((n, owner))
    return steps


def theta_aux(shares: Sequence[int], t: Mapping[int, int]) -> int:
    """Closed-form angle of the aux chain survivor.

    theta = theta^n + sum_{k<n} (-1)^(t^k xor ... xor t^(n-1)) theta^k, all
    octant arithmetic. shares[k-1] is client k's angle.
    """
    n = len(shares)
    total = shares[n - 1]
    suffix = 0
    for k in range(n - 1, 0, -1):
        suffix ^= t[k] & 1
        total += -shares[k - 1] if suffix else shares[k - 1]
    return octant(total)


def theta_input(shares: Sequence[int], owner: int, t: Mapping[int, int], a: int) -> int:
    """Closed-form pad angle of the input chain survivor.

    theta = theta^own + sum_{k != own} (-1)^e(k) theta^k with e(k) = a xor
    (xor of t over measured registers >= k). Note a flips the sign of every
    non-owner summand: theta_input(..., a=1) == 2*shares[owner-1] -
    theta_input(..., a=0) mod 8.
    """
    n = len(shares)
    total = shares[owner - 1]
    for k in range(1, n + 1):
        if k == owner:
            continue
        e = a & 1
        for i in range(k, n + 1):
            if i != owner:
                e ^= t[i] & 1
        total += -shares[k - 1] if e else shares[k - 1]
    return octant(total)


def run_chain(system, registers: Mapping[int, str], owner: int | None, rng: np.random.Generator) -> tuple[dict[int, int], str]:
    """Run a chain on labelled qubits of a QuantumSystem; returns (t, survivor label).

    registers maps register 1..n to a live label. owner None runs the aux
    chain, otherwise the input chain around register `owner`. This is the
    one runner every execution path uses; aux_branches and input_branches
    stay separate as the exhaustive reference the tests compare against.
    """
    n = len(registers)
    steps = aux_chain_steps(n) if owner is None else input_chain_steps(n, owner)
    t: dict[int, int] = {}
    for target, control in steps:
        system.apply_cnot(registers[control], registers[target])
        t[target] = system.measure_computational(registers[target], rng)
    return t, registers[n if owner is None else owner]


def aux_branches(states: Sequence[PureState]) -> list[tuple[dict[int, int], float, PureState]]:
    """Every (t, probability, survivor) branch of the aux chain."""
    n = len(states)
    joint = states[0]
    for s in states[1:]:
        joint = joint.tensor(s)
    return _enumerate(joint, {k: k - 1 for k in range(1, n + 1)}, aux_chain_steps(n))


def input_branches(padded_input: PureState, aux_states: Sequence[PureState], owner: int) -> list[tuple[dict[int, int], float, PureState]]:
    """Every (t, probability, survivor) branch of the input chain."""
    n = len(aux_states) + 1
    joint = padded_input
    positions: dict[int, int] = {owner: 0}
    for k, s in zip([k for k in range(1, n + 1) if k != owner], aux_states):
        joint = joint.tensor(s)
        positions[k] = joint.num_qubits - 1
    return _enumerate(joint, positions, input_chain_steps(n, owner))


def _enumerate(joint: PureState, positions: dict[int, int], steps: list[tuple[int, int]]) -> list[tuple[dict[int, int], float, PureState]]:
    branches: list[tuple[dict[int, int], float, PureState, dict[int, int]]] = [({}, 1.0, joint, positions)]
    for target, control in steps:
        grown: list[tuple[dict[int, int], float, PureState, dict[int, int]]] = []
        for t, p, state, pos in branches:
            state = state.cnot(pos[control], pos[target])
            idx = pos[target]
            dropped = {k: (v if v < idx else v - 1) for k, v in pos.items() if k != target}
            for outcome in (0, 1):
                p_branch, sub = state.project_computational(idx, outcome)
                if p_branch < 1e-12:
                    continue
                grown.append(({**t, target: outcome}, p * p_branch, sub, dropped))
        branches = grown
    return [(t, p, state) for t, p, state, _ in branches]
