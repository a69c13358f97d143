"""Trusted classical oracle: secret sharing, angle computation, honesty checks.

Every classical secret in the protocol (pad flips a_k, contribution angles
theta_j^k, masking bits r_j^k) is additively shared n-of-n among the
clients; the oracle only ever sees shares and reconstructs internally.
Octant secrets live mod 8, bit secrets mod 2, and the two domains never
mix: a bit enters an angle only as 4 * bit.

The ledger is the oracle's working memory for one protocol run. It knows
the measurement pattern (the computation is not hidden from the oracle,
only from the server), receives shares, chain outcomes, the announced
angles and measurement outcomes as the run progresses, and answers three
kinds of questions: the measurement angle delta_j to announce to the
server, the flow-corrected angle it starts from, and the final output keys
per output node. Chains, announced angles and outcomes are append-only;
nothing can be rewritten after the fact. Every world keeps one, as the one
record of its announcements; only the full protocol files its secrets
from their pieces (register_share), the others file values (file).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .brickwork import Flow, MeasurementPattern, parity
from .rsp import theta_input

Tag = tuple


class _Share(NamedTuple):
    owner: int
    tag: Tag
    value: int
    modulus: int


class SecretShare(_Share):
    """One additive share of a secret. `owner` is the client holding this piece.

    share_secret deals them and reconstruct recombines them; no run builds
    one, as a run hands out piece values and the ledger files them through
    register_share. Construction checks the modulus, reduces the value and
    turns the tag into a tuple.
    """

    __slots__ = ()

    def __new__(cls, owner: int, tag: Tag, value: int, modulus: int):
        if modulus not in (2, 8):
            raise ValueError("share modulus must be 2 (bits) or 8 (octants)")
        return super().__new__(cls, owner, tuple(tag), int(value) % modulus, modulus)


def close_shares(value: int, pieces: Sequence[int], modulus: int) -> list[int]:
    """A secret's n share values: the n - 1 random pieces, then the one closing their sum to value mod `modulus`."""
    return [*pieces, (value - sum(pieces)) % modulus]


def close_share_rows(values: np.ndarray, pieces: np.ndarray, modulus: int) -> np.ndarray:
    """close_shares elementwise: the (..., n - 1) pieces closed to the (...) values, as (..., n) share values."""
    closing = (values - pieces.sum(axis=-1)) % modulus
    return np.concatenate([pieces, closing[..., None]], axis=-1)


def share_secret(value: int, n: int, modulus: int, rng: np.random.Generator, tag: Tag = ()) -> list[SecretShare]:
    """Split a secret into n additive shares mod `modulus`, one per client.

    The n - 1 random pieces are scalar draws, and the last share closes the
    sum: for one secret a sized draw costs more than it saves.
    """
    if n < 1:
        raise ValueError("need at least one share")
    values = close_shares(value, [int(rng.integers(modulus)) for _ in range(n - 1)], modulus)
    return [SecretShare(k, tag, v, modulus) for k, v in enumerate(values, 1)]


def reconstruct(shares: Sequence[SecretShare]) -> int:
    """Recombine a complete share set. Raises on gaps, duplicates, or mixed tags."""
    if not shares:
        raise ValueError("no shares")
    owners, tags, values, moduli = zip(*shares)
    if tags.count(tags[0]) != len(tags) or moduli.count(moduli[0]) != len(moduli):
        raise ValueError("shares mix different secrets")
    owners = sorted(owners)
    if owners != list(range(1, len(owners) + 1)):
        raise ValueError(f"incomplete or duplicated share set (owners {owners})")
    return sum(values) % moduli[0]


# P0[d]: the probability that a copy prepared d octants away from its
# declared angle answers 0 in the declared basis, cos^2(d pi / 8); exactly 1
# for an honest copy
P0 = tuple(float(np.cos(d * np.pi / 8) ** 2) for d in range(8))


def judge_copy_tests(shares: np.ndarray, prepared: np.ndarray, survivors, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The copy test's rule, on one batch or a stack of batches: (opened copies, their outcomes).

    shares is an (..., m, n) array of share values mod 8, row i the n
    pieces of copy i's declared angle, which the oracle reconstructs as the
    row sum mod 8. Copy i was prepared as |+_prepared[..., i]>. survivors
    (...) holds each batch's drawn survivor, which is left untouched, and
    uniforms (..., m - 1) one drawn uniform per opened copy, in index order.
    Every other copy is opened and measured in the basis its declaration
    promises. An opened copy never meets another qubit, so its outcome is
    in closed form: 1 iff its uniform u >= P0 of the gap between prepared
    and declared angle, so always 0 for an honest copy. Both results are
    (..., m - 1) arrays; a batch with any outcome 1 rejects its client.
    """
    keep = np.arange(shares.shape[-2]) != np.asarray(survivors)[..., None]
    gaps = (prepared - shares.sum(axis=-1))[keep] % 8
    opened = keep.nonzero()[-1].reshape(uniforms.shape)
    return opened, (uniforms >= np.asarray(P0)[gaps].reshape(uniforms.shape)).astype(np.int64)


def blind_angle(corrected, r, theta, a):
    """The blind measurement angle delta = phi' + 4 r + (-1)^a theta, mod 8.

    phi' is the flow-corrected pattern angle, r the mask bit, theta the
    node's pad angle and a its flip bit. The sign on theta matters: the
    prepared qubit is padded by X^a Z(theta) with the X outermost, and
    commuting the measurement past that X flip negates the Z angle it has
    to compensate. Plain arithmetic, so it takes ints (and returns an int)
    or integer arrays elementwise.
    """
    return (corrected + 4 * r + (-1) ** a * theta) % 8


def theta_tag(node: int, client: int, copy: int = 0) -> Tag:
    return ("theta", node, client, copy)


def r_tag(node: int, client: int) -> Tag:
    return ("r", node, client)


def a_tag(client: int) -> Tag:
    return ("a", client)


@dataclass
class OracleLedger:
    """The oracle's view of one run, one client per wire: secrets filed from their pieces' values, chain results, announced angles, outcomes."""

    pattern: MeasurementPattern
    n_clients: int = field(init=False)
    flow: Flow = field(init=False)
    # each registered secret's value, by tag; a contributed angle is filed
    # by (node, client) alone, whichever copy survived the copy test
    secrets: dict[Tag, int] = field(default_factory=dict)
    outcomes: dict[int, int] = field(default_factory=dict)
    chain_t: dict[int, dict[int, int]] = field(default_factory=dict)
    announced: dict[int, int] = field(default_factory=dict)  # the angle each node was measured at, as announced
    r: dict[int, int] = field(default_factory=dict, init=False)  # node_r, kept once filed: a secret never changes
    s: dict[int, int] = field(default_factory=dict, init=False)  # _s, kept once filed: nor does an outcome

    def __post_init__(self):
        self.n_clients = self.pattern.graph.n_wires
        self.flow = self.pattern.graph.flow

    # ------------------------------------------------------------ intake

    def register_share(self, tag: Tag, values: Sequence[int], modulus: int) -> None:
        """File one secret from the n pieces its holders submitted, piece k from client k (register_shares)."""
        self.register_shares((tag,), (values,), modulus)

    def register_shares(self, tags: Sequence[Tag], rows: Sequence[Sequence[int]], modulus: int) -> None:
        """File a stack of secrets in order, tags[s] from the n pieces rows[s], piece k from client k. Refuses a piece
        count other than n, a modulus other than 2 or 8 and, as file does, a secret already held; those before it stay filed."""
        for tag, values in zip(tags, rows):
            if len(values) != self.n_clients:
                raise ValueError(f"{len(values)} pieces for {self.n_clients} clients")
            if modulus not in (2, 8):
                raise ValueError("share modulus must be 2 (bits) or 8 (octants)")
            self.file(tag, sum(values) % modulus)

    def file(self, tag: Tag, value: int) -> None:
        """File one secret's value under its tag, refusing a secret already held (see register_shares)."""
        key = tag[:3] if tag[0] == "theta" else tag
        if key in self.secrets:
            raise ValueError(f"secret {key} already registered")
        self.secrets[key] = value

    def register_chain(self, node: int, t: dict[int, int]) -> None:
        if node in self.chain_t:
            raise ValueError(f"chain outcomes for node {node} already recorded")
        self.chain_t[node] = {int(k): int(v) & 1 for k, v in t.items()}

    def register_angle(self, node: int, delta: int) -> None:
        if node in self.announced:
            raise ValueError(f"angle for node {node} already announced")
        self.announced[node] = int(delta) % 8

    def register_outcome(self, node: int, b: int) -> None:
        if node in self.outcomes:
            raise ValueError(f"outcome for node {node} already recorded")
        self.outcomes[node] = int(b) & 1

    # ----------------------------------------------------- reconstruction

    def _secret(self, key: Tag) -> int:
        if key not in self.secrets:
            raise ValueError(f"no share set registered for {key}")
        return self.secrets[key]

    def a_bit(self, client: int) -> int:
        return self._secret(a_tag(client))

    def node_flip(self, node: int) -> int:
        """The pad flip bit of a node: a_j for inputs, 0 elsewhere."""
        return self.a_bit(node) if node in self.pattern.graph.input_nodes else 0

    def _row(self, kind: str, node: int) -> list[int]:
        """The n clients' secrets (kind, node, k), read straight from the dict; a missing one raises ValueError."""
        try:
            return [self.secrets[kind, node, k] for k in range(1, self.n_clients + 1)]
        except KeyError as missing:
            raise ValueError(f"no share set registered for {missing.args[0]}") from None

    def node_theta(self, node: int) -> int:
        """Effective secret angle of a node's prepared qubit, from the contributed angles and t."""
        shares = self._row("theta", node)
        if node not in self.chain_t:
            raise ValueError(f"no chain outcomes recorded for node {node}")
        return theta_input(shares, self.pattern.graph.survivor(node), self.chain_t[node], self.node_flip(node))

    def node_r(self, node: int) -> int:
        if node not in self.r:
            self.r[node] = parity(self._row("r", node))
        return self.r[node]

    def _s(self, node: int) -> int:
        """Corrected outcome s_i = b_i xor r_i of a measured node, kept once filed, as node_r keeps r."""
        if node not in self.s:
            if node not in self.outcomes:
                raise ValueError(f"no outcome recorded for node {node}")
            self.s[node] = self.outcomes[node] ^ self.node_r(node)
        return self.s[node]

    # ------------------------------------------------------------ answers

    def corrected_angle(self, node: int) -> int:
        """The flow-corrected pattern angle phi' of a measured node (Flow.adapted_angle)."""
        return self.flow.adapted_angle(node, self.pattern.angles[node], self._s, self.node_flip)

    def delta(self, node: int) -> int:
        """The blind measurement angle announced to the server for one node (blind_angle)."""
        return blind_angle(self.corrected_angle(node), self.node_r(node), self.node_theta(node), self.node_flip(node))

    def output_keys(self, node: int) -> tuple[int, int]:
        """(s_x, s_z) one-time-pad keys for an output node (see Flow.output_key)."""
        if node not in self.pattern.graph.output_nodes:
            raise ValueError(f"node {node} is not an output")
        return self.flow.output_key(node, self._s, self.node_flip)

    def dump_secrets(self) -> dict:
        """Full reconstruction for trusted-debug output. Never reaches the server."""
        graph = self.pattern.graph
        out: dict = {"a": {}, "theta": {}, "r": {}, "delta": {}}
        for k in range(1, self.n_clients + 1):
            out["a"][k] = self.a_bit(k)
        for j in graph.measured_nodes:
            out["theta"][j] = self.node_theta(j)
            out["r"][j] = self.node_r(j)
            if j in self.outcomes:
                out["delta"][j] = self.delta(j)
        return out
