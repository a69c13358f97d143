"""Exact statevector simulation of small qubit registers.

Conventions used throughout the package:

- Angles are *octants*: integers modulo 8, each unit worth pi/4 radians.
  All protocol angle arithmetic happens on these integers, so there is no
  angle rounding anywhere; floats only appear inside gate matrices.
- Qubit 0 is the leftmost tensor factor.
- Measurements remove the measured qubit from the register and re-index
  the remaining qubits downward. This keeps registers small through long
  measurement sequences.
- Randomness always comes from an explicitly passed numpy Generator.

PureState and DensityMatrix are immutable values; QuantumSystem holds
labelled, owned qubits as independent components and applies CZs lazily.

Registers stay small (at most a few dozen qubits, mostly under ten), so
the per-call kernels avoid numpy's axis juggling. A one-qubit operation on
qubit q of an n-qubit state works on the (2^q, 2, 2^(n-q-1)) reshape of
the amplitudes, a view that costs nothing to make: a gate matrix is one
matmul over it, X swaps its two middle slices, Z and Z(theta) scale the
slice [:, 1], and a projection combines or picks the slices [:, 0] and
[:, 1]. CNOT and CZ permute or negate slices of the (2^lo, 2,
2^(hi-lo-1), 2, rest) reshape in the same way. Phases e^{i t pi/4} come
from one 8-entry table indexed by octant, shared by Z(theta), plus_state
and the rotated projections. The tensor product is an outer product, and
the reduced state of a pure state is M M^H, with M the amplitudes
reshaped to (kept, traced-out) qubits.
"""
from __future__ import annotations

from math import pi, sqrt
from typing import Iterable

import numpy as np

OCTANT = pi / 4


def octant(value: int) -> int:
    """Normalize an angle to its canonical octant representative in 0..7."""
    return int(value) % 8


def octant_to_radians(value: int) -> float:
    return octant(value) * OCTANT


def flip(value: int, bit: int) -> int:
    """Multiply an octant angle by (-1)^bit, staying mod 8."""
    return octant(-value if bit & 1 else value)


_H = np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2)


# e^{i t pi/4} for t = 0..7, one scalar exp each. Entry 4 is exp(i pi) =
# -1 + 1.2e-16j, so Z negates its slice instead of reading the table.
_PHASE = np.array([np.exp(1j * octant_to_radians(t)) for t in range(8)])
_PHASE_CONJ = _PHASE.conj()
_TURN = _PHASE_CONJ.tolist()  # the same as Python complexes, which multiply an array for less dispatch
_PLUS = np.array([[1.0, phase] for phase in _PHASE]) / sqrt(2)  # plus_state's amplitudes, a read-only row per octant
_PLUS.flags.writeable = False


class PureState:
    """A pure state of a small qubit register.

    Gate methods return new states; nothing mutates in place, which makes
    branch enumeration (projecting on both outcomes of a measurement) safe
    without defensive copies.
    """

    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray, *, _checked: bool = False):
        if _checked:
            # a kernel's own result: already a flat complex vector of length 2^n
            self.amps = amps
            return
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        if amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError(f"amplitude vector length {amps.size} is not a power of two")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-6:  # also refuses a NaN norm
            raise ValueError(f"state norm {norm} too far from 1")
        self.amps = amps / norm

    @property
    def num_qubits(self) -> int:
        return int(self.amps.size).bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    # ------------------------------------------------------------ building

    @classmethod
    def computational(cls, bits: str | tuple[int, ...]) -> "PureState":
        """Basis state |b_0 b_1 ...> with qubit 0 leftmost."""
        bits = tuple(int(b) for b in bits)
        amps = np.zeros(2 ** len(bits), dtype=complex)
        index = 0
        for b in bits:
            index = (index << 1) | (b & 1)
        amps[index] = 1.0
        return cls(amps, _checked=True)

    def tensor(self, other: "PureState") -> "PureState":
        return PureState(np.multiply.outer(self.amps, other.amps).reshape(-1), _checked=True)

    # --------------------------------------------------------------- gates

    def _view(self, q: int) -> np.ndarray:
        """The amplitudes as (2^q, 2, 2^(n-q-1)); [:, b] is the slice with qubit q = b."""
        n = self.num_qubits
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n}-qubit register")
        return self.amps.reshape(1 << q, 2, -1)

    def _scale_one(self, q: int, phase: complex) -> "PureState":
        """diag(1, phase) on qubit q."""
        psi = self._view(q).copy()
        psi[:, 1] *= phase
        return PureState(psi.reshape(-1), _checked=True)

    def x(self, q: int) -> "PureState":
        return PureState(self._view(q)[:, ::-1].reshape(-1), _checked=True)

    def z(self, q: int) -> "PureState":
        return self._scale_one(q, -1.0)

    def h(self, q: int) -> "PureState":
        return PureState(np.matmul(_H, self._view(q)).reshape(-1), _checked=True)

    def z_rot(self, q: int, theta: int) -> "PureState":
        """Z(theta) = diag(1, e^{i theta pi/4}), theta an octant."""
        return self._scale_one(q, _PHASE[octant(theta)])

    def _pair_view(self, q1: int, q2: int) -> np.ndarray:
        """The amplitudes as (2^lo, 2, 2^(hi-lo-1), 2, rest) for qubits lo < hi of {q1, q2}."""
        n = self.num_qubits
        if q1 == q2:
            raise ValueError("a two-qubit gate needs two distinct qubits")
        for q in (q1, q2):
            if not 0 <= q < n:
                raise IndexError(f"qubit {q} out of range for {n}-qubit register")
        lo, hi = min(q1, q2), max(q1, q2)
        return self.amps.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)

    def cnot(self, control: int, target: int) -> "PureState":
        src = self._pair_view(control, target)
        psi = src.copy()
        if control < target:
            psi[:, 1, :, :] = src[:, 1, :, ::-1]
        else:
            psi[:, :, :, 1] = src[:, ::-1, :, 1]
        return PureState(psi.reshape(-1), _checked=True)

    def cz(self, q1: int, q2: int) -> "PureState":
        psi = self._pair_view(q1, q2).copy()
        psi[:, 1, :, 1] *= -1.0
        return PureState(psi.reshape(-1), _checked=True)

    def reorder(self, new_order: list[int] | tuple[int, ...]) -> "PureState":
        """Permute qubits so position i holds the qubit previously at new_order[i]."""
        n = self.num_qubits
        if sorted(new_order) != list(range(n)):
            raise ValueError("new_order must be a permutation of all qubit indices")
        psi = self.amps.reshape([2] * n)
        return PureState(np.transpose(psi, new_order).reshape(-1), _checked=True)

    # -------------------------------------------------------- measurements

    def project_rotated(self, q: int, delta: int, outcome: int) -> tuple[float, "PureState"]:
        """Project qubit q onto <outcome_delta| and drop the qubit.

        Outcome 0 is the |+_delta> branch, outcome 1 the |-_delta> branch.
        Returns (branch probability, normalized post-state). Probability 0
        branches return an unnormalized zero state.
        """
        kept, turned = self._halves(q, delta)
        return _branch((kept - turned if outcome & 1 else kept + turned).reshape(-1) / sqrt(2))

    def _halves(self, q: int, delta: int) -> tuple[np.ndarray, np.ndarray]:
        """Qubit q's |0> slice and its |1> slice turned by e^{-i delta pi/4}: over sqrt(2), their sum projects onto |+_delta>, their difference onto |-_delta>."""
        psi = self._view(q)
        return psi[:, 0], _TURN[delta % 8] * psi[:, 1]

    def project_computational(self, q: int, outcome: int) -> tuple[float, "PureState"]:
        """Project qubit q onto |outcome> and drop the qubit."""
        return _branch(self._view(q)[:, outcome & 1].reshape(-1))

    def measure_rotated(self, q: int, delta: int, u: float) -> tuple[int, "PureState"]:
        """Measure qubit q in {|+_delta>, |-_delta>} on a drawn uniform u; the qubit leaves the register.

        The outcome is 0 iff u < p0. p0 comes from the outcome-0 slice; only
        the drawn outcome's post-state is built, from the turned half that
        outcome 0 computed. A caller with no drawn uniform passes rng.random().
        """
        kept, turned = self._halves(q, delta)
        sub = (kept + turned).reshape(-1) / sqrt(2)
        p0 = float(np.vdot(sub, sub).real)
        if u < p0:
            return 0, _branch(sub, p0)[1]
        return 1, _branch((kept - turned).reshape(-1) / sqrt(2))[1]

    def measure_computational(self, q: int, u: float) -> tuple[int, "PureState"]:
        """Measure qubit q in the computational basis on a drawn uniform u, as measure_rotated."""
        sub = self._view(q)[:, 0].reshape(-1)
        p0 = float(np.vdot(sub, sub).real)
        if u < p0:
            return 0, _branch(sub, p0)[1]
        return 1, self.project_computational(q, 1)[1]

    # ------------------------------------------------------------- queries

    def fidelity(self, other: "PureState") -> float:
        """|<self|other>|^2; equality up to global phase means fidelity 1."""
        if self.amps.size != other.amps.size:
            raise ValueError("register sizes differ")
        return float(abs(np.vdot(self.amps, other.amps)) ** 2)

    def density(self, keep: Iterable[int] | None = None) -> "DensityMatrix":
        """|psi><psi|, or with `keep` the reduced state on those qubits (order preserved).

        The reduced state is M M^H, M being the amplitudes reshaped to
        (kept, traced-out) qubits, transposed first when the kept qubits do
        not lead. It equals density().partial_trace(keep) without building
        the full operator.
        """
        if keep is None:
            return DensityMatrix(np.outer(self.amps, self.amps.conj()), num_qubits=self.num_qubits)
        keep = sorted(set(keep))
        n = self.num_qubits
        if not keep:
            raise ValueError("must keep at least one qubit")
        if keep[0] < 0 or keep[-1] >= n:
            raise IndexError("keep set outside the register")
        psi = self.amps
        if keep[-1] != len(keep) - 1:
            psi = np.transpose(psi.reshape([2] * n), keep + [q for q in range(n) if q not in keep])
        m = psi.reshape(1 << len(keep), -1)
        return DensityMatrix(m @ m.conj().T)

    def __repr__(self) -> str:
        return f"PureState(num_qubits={self.num_qubits})"


def _branch(sub: np.ndarray, prob: float | None = None) -> tuple[float, PureState]:
    """(probability, normalized post-state) of a projected slice; probability-0 slices stay unnormalized."""
    prob = float(np.vdot(sub, sub).real) if prob is None else prob
    return prob, PureState(sub / sqrt(prob) if prob > 1e-14 else sub, _checked=True)


def plus_state(theta: int = 0) -> PureState:
    """(|0> + e^{i theta pi/4} |1>)/sqrt(2), on a read-only row of a table shared by every call."""
    return PureState(_PLUS[octant(theta)], _checked=True)


class DensityMatrix:
    """A density operator on a small register, used for averaged views."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray, *, num_qubits: int | None = None):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("density matrix must be square")
        dim = matrix.shape[0]
        if dim == 0 or dim & (dim - 1):
            raise ValueError(f"dimension {dim} is not a power of two")
        if num_qubits is not None and 2 ** num_qubits != dim:
            raise ValueError("num_qubits inconsistent with matrix dimension")
        if not (np.abs(matrix - matrix.conj().T) <= 1e-10).all():
            raise ValueError("density matrix must be Hermitian")
        self.matrix = matrix

    @property
    def num_qubits(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1

    def partial_trace(self, keep: list[int] | tuple[int, ...] | set[int]) -> "DensityMatrix":
        """Reduced state on the qubits in `keep` (original indices, order preserved)."""
        keep = sorted(set(keep))
        n = self.num_qubits
        if not keep:
            raise ValueError("must keep at least one qubit")
        if any(q < 0 or q >= n for q in keep):
            raise IndexError("keep set outside the register")
        drop = [q for q in range(n) if q not in keep]
        rho = self.matrix.reshape([2] * (2 * n))
        for q in sorted(drop, reverse=True):
            rho = np.trace(rho, axis1=q, axis2=q + rho.ndim // 2)
        return DensityMatrix(rho.reshape(2 ** len(keep), 2 ** len(keep)))

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self.num_qubits})"


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) * trace norm of (a - b); the Helstrom distinguishing bound."""
    if a.matrix.shape != b.matrix.shape:
        raise ValueError("dimension mismatch")
    return weighted_trace_norm(a.matrix, b.matrix)


def weighted_trace_norm(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * trace norm of (a - b) for raw (possibly subnormalized) Hermitian operators.

    a and b must be Hermitian: the trace norm is read as the sum of |eigvalsh|,
    which looks at the lower triangle only. They may be (K, d, d) stacks:
    the eigenvalues are batched and the result is the sum over the stack.
    """
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b))))


class QuantumSystem:
    """All live qubits, split into independent components, with ownership.

    Components are tensor factors that never got entangled with each other;
    two-qubit gates merge components on demand. Measuring a qubit removes
    it. Labels are stable strings; positions inside components are internal.

    CZs are applied on first touch. apply_cz only records the pair as a
    pending edge (a second CZ on the same pair cancels it), and every other
    operation on a label, including reading its state, first applies that
    label's pending CZs. This is exact: a CZ is diagonal and commutes with
    every other CZ and with every gate and measurement that does not act on
    its two qubits, so moving it later, up to the first operation on one of
    them, changes nothing. On a graph state consumed column by column, a
    node joins the live register only when a neighbour is measured, so the
    largest component stays near one column wide. peak_qubits records the
    largest component ever held.

    Components live under integer keys; a component merged into another,
    or whose last qubit is measured, is deleted, so a long run holds only
    its live components.
    """

    def __init__(self):
        self._states: dict[int, PureState] = {}
        self._labels: dict[int, list[str]] = {}
        self._next = 0
        self._home: dict[str, int] = {}
        self._pending: dict[str, dict[str, None]] = {}
        self.owner: dict[str, str] = {}
        self.peak_qubits = 0

    def add_register(self, state: PureState, labels: list[str], owners: list[str]) -> None:
        if state.num_qubits != len(labels) or len(labels) != len(owners):
            raise ValueError("labels and owners must match the register size")
        for lab in labels:
            if lab in self._home:
                raise ValueError(f"label {lab!r} already exists")
        idx = self._next
        self._next += 1
        self._states[idx] = state
        self._labels[idx] = list(labels)
        for lab, who in zip(labels, owners):
            self._home[lab] = idx
            self.owner[lab] = who
        self.peak_qubits = max(self.peak_qubits, len(labels))

    def labels_of(self, party: str) -> tuple[str, ...]:
        return tuple(lab for lab, who in self.owner.items() if who == party)

    def transfer(self, label: str, new_owner: str) -> None:
        if label not in self.owner:
            raise KeyError(f"no live qubit {label!r}")
        self.owner[label] = new_owner

    def _merge(self, a: str, b: str) -> None:
        ca, cb = self._home[a], self._home[b]
        if ca == cb:
            return
        self._states[ca] = self._states[ca].tensor(self._states[cb])
        for lab in self._labels[cb]:
            self._home[lab] = ca
        self._labels[ca].extend(self._labels.pop(cb))
        del self._states[cb]
        self.peak_qubits = max(self.peak_qubits, len(self._labels[ca]))

    def _touch(self, label: str) -> tuple[int, int]:
        """Apply the label's pending CZs, then return its (component, position). The merges run first, then the
        CZs, in place: on the array the merges built, which nothing else holds, or on a copy, as the array may be a caller's."""
        others = self._pending.pop(label, ())
        c = self._home[label]
        held = self._states[c]
        for other in others:
            del self._pending[other][label]
            self._merge(label, other)
        if others and self._states[c] is held:
            self._states[c] = PureState(held.amps.copy(), _checked=True)
        q = self._labels[c].index(label)
        for other in others:  # PureState.cz, written into the array
            self._states[c]._pair_view(q, self._labels[c].index(other))[:, 1, :, 1] *= -1.0
        return c, q

    def apply_x(self, label: str) -> None:
        c, q = self._touch(label)
        self._states[c] = self._states[c].x(q)

    def apply_z(self, label: str) -> None:
        c, q = self._touch(label)
        self._states[c] = self._states[c].z(q)

    def apply_h(self, label: str) -> None:
        c, q = self._touch(label)
        self._states[c] = self._states[c].h(q)

    def apply_z_rot(self, label: str, theta: int) -> None:
        c, q = self._touch(label)
        self._states[c] = self._states[c].z_rot(q, theta)

    def apply_cz(self, a: str, b: str) -> None:
        """Record a CZ between a and b; it is applied when either is next touched."""
        for lab in (a, b):
            if lab not in self._home:
                raise KeyError(f"no live qubit {lab!r}")
        if a == b:
            raise ValueError("CZ needs two distinct qubits")
        pa = self._pending.setdefault(a, {})
        pb = self._pending.setdefault(b, {})
        if b in pa:
            del pa[b], pb[a]
        else:
            pa[b] = pb[a] = None

    def apply_cnot(self, control: str, target: str) -> None:
        self._touch(control)
        self._touch(target)
        self._merge(control, target)
        c = self._home[control]
        qc, qt = self._labels[c].index(control), self._labels[c].index(target)
        self._states[c] = self._states[c].cnot(qc, qt)

    def _drop(self, label: str, comp: int, q: int) -> None:
        self._labels[comp].pop(q)
        del self._home[label]
        del self.owner[label]
        if not self._labels[comp]:
            del self._states[comp], self._labels[comp]

    def measure_rotated(self, label: str, delta: int, u: float) -> int:
        c, q = self._touch(label)
        outcome, self._states[c] = self._states[c].measure_rotated(q, delta, u)
        self._drop(label, c, q)
        return outcome

    def measure_computational(self, label: str, u: float) -> int:
        c, q = self._touch(label)
        outcome, self._states[c] = self._states[c].measure_computational(q, u)
        self._drop(label, c, q)
        return outcome

    def _components(self, labels: list[str]) -> list[int]:
        """Components holding these labels, in first-seen order, after their pending CZs."""
        comps: list[int] = []
        for lab in labels:
            self._touch(lab)
        for lab in labels:
            c = self._home[lab]
            if c not in comps:
                comps.append(c)
        return comps

    def state_of(self, labels: list[str]) -> PureState:
        """Joint pure state of exactly these qubits, in the order given.

        The involved components must not contain any other live qubits;
        use density_of when they might be entangled with the rest.
        """
        comps = self._components(labels)
        covered = [lab for c in comps for lab in self._labels[c]]
        if sorted(covered) != sorted(labels):
            raise ValueError("requested qubits are entangled with others")
        state = self._states[comps[0]]
        order = list(self._labels[comps[0]])
        for c in comps[1:]:
            state = state.tensor(self._states[c])
            order.extend(self._labels[c])
        return state.reorder([order.index(lab) for lab in labels])

    def density_of(self, labels: list[str]) -> DensityMatrix:
        """Reduced state of these qubits (order given), tracing out the rest.

        Pending CZs of the traced-out qubits among themselves act on the
        traced part only, so they stay pending.
        """
        blocks: list[DensityMatrix] = []
        order: list[str] = []
        for c in self._components(labels):
            keep = [q for q, lab in enumerate(self._labels[c]) if lab in labels]
            order.extend(lab for lab in self._labels[c] if lab in labels)
            blocks.append(self._states[c].density(keep))
        rho = blocks[0].matrix
        for blk in blocks[1:]:
            rho = np.kron(rho, blk.matrix)
        perm = [order.index(lab) for lab in labels]
        n = len(labels)
        full = rho.reshape([2] * (2 * n))
        full = np.transpose(full, perm + [n + p for p in perm])
        return DensityMatrix(full.reshape(2 ** n, 2 ** n))

    def lone_amplitudes(self, label: str) -> np.ndarray | None:
        """The qubit's amplitudes if its reduced state is pure within 1e-12, else None.

        Its pending CZs are applied first, so a qubit that is only pending
        entanglement reads as entangled. A qubit in a product with the rest
        of its component reads as pure, whatever else the component holds.
        A pure reduced state |a><a| fixes a up to a global phase; the phase
        returned makes the |0> amplitude real and non-negative, or the |1>
        amplitude real and positive if |0> has weight below 1e-12.
        """
        c, q = self._touch(label)
        rho = self._states[c].density([q]).matrix
        if np.linalg.eigvalsh(rho)[-1] < 1 - 1e-12:
            return None
        i = int(rho[0, 0].real < 1e-12)
        amps = rho[:, i] / np.sqrt(rho[i, i].real)
        return amps / np.linalg.norm(amps)

