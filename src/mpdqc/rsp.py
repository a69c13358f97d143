"""Collaborative remote state preparation: one CNOT chain, named by its survivor.

n clients each contribute one qubit (registers labeled 1..n). The server
wires them into a CNOT chain and measures every register but one, the
survivor, in the computational basis. The survivor ends up carrying every
client's secret angle but, to anyone missing a share, looks maximally
mixed.

The chain walks the other registers in increasing order; each is the
target of a CNOT from the next one, the last from the survivor. If the
survivor held X^a Z(theta^s)|psi> (X outermost as a matrix, i.e. the Z
rotation is applied first) and every other register k held |+_theta^k>,
the survivor ends as X^a Z(theta)|psi> with theta = theta_input(shares,
survivor, t, a). An input node's chain survives on its owner's register,
which holds the padded input; every other node's chain survives on
register n, whose own contribution is |+_theta^n> (psi = |+>, a = 0).

t is the dict of computational outcomes keyed by measured register label.
The closed form is pinned against exhaustive branch enumeration of the
chain in the tests. The base protocol runs it in closed form; the rewrites,
whose registers are entangled EPR halves, run it on registers (`run_chain`).
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .quantum import octant


def chain_steps(n: int, survivor: int) -> list[tuple[int, int]]:
    """(target, control) register pairs of the chain on n registers; each step measures its target.

    The targets are 1..n without the survivor, in increasing order, each
    controlled by the next target and the last by the survivor.
    """
    if n < 2:
        raise ValueError("need at least 2 registers")
    if not 1 <= survivor <= n:
        raise ValueError("survivor register out of range")
    rest = [k for k in range(1, n + 1) if k != survivor]
    return list(zip(rest, rest[1:] + [survivor]))


def theta_input(shares: Sequence[int], survivor: int, t: Mapping[int, int], a: int) -> int:
    """Closed-form pad angle of the chain's survivor.

    theta = theta^s + sum_{k != s} (-1)^e(k) theta^k with e(k) = a xor
    (xor of t over measured registers >= k), all octant arithmetic;
    shares[k-1] is client k's angle. Note a flips the sign of every
    non-survivor summand: theta_input(..., a=1) == 2*shares[s-1] -
    theta_input(..., a=0) mod 8.
    """
    total = shares[survivor - 1]
    e = a & 1
    for k in range(len(shares), 0, -1):
        if k != survivor:
            e ^= t[k] & 1
            total += -shares[k - 1] if e else shares[k - 1]
    return octant(total)


def theta_aux(shares: Sequence[int], t: Mapping[int, int]) -> int:
    """theta_input of a chain that survives on register n with no flip."""
    return theta_input(shares, len(shares), t, 0)


def closed_form_chain(angles: Sequence[int], survivor: int, a: int, uniforms: Sequence[float]) -> tuple[dict[int, int], int]:
    """The chain over lone |+_angles[k-1]> registers, in closed form; returns (t, theta).

    Each target answers 0 or 1 with probability 1/2 whatever its control
    holds: t[target] = u >= 1/2 on the target's drawn uniform, in
    chain_steps order, where run_chain draws one rng.random() per
    measurement. The caller draws the n - 1 uniforms.
    """
    t = {target: int(u >= 0.5) for (target, _), u in zip(chain_steps(len(angles), survivor), uniforms)}
    return t, theta_input(angles, survivor, t, a)


def run_chain(system, registers: Mapping[int, str], survivor: int, rng: np.random.Generator) -> tuple[dict[int, int], str]:
    """Run the chain on labelled qubits of a QuantumSystem; returns (t, survivor label).

    registers maps register 1..n to a live label.
    """
    t: dict[int, int] = {}
    for target, control in chain_steps(len(registers), survivor):
        system.apply_cnot(registers[control], registers[target])
        t[target] = system.measure_computational(registers[target], rng.random())
    return t, registers[survivor]
