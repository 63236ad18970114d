"""Dense state vectors for small qubit registers and stabilizer decoding.

The vector layer is the oracle that ties the optics engine to the graph
calculus: ``graph_form`` decodes any stabilizer vector back to a graph in
one pass over its amplitudes (its local-Clifford frame is discarded),
after which equivalence questions go to the graph layer's linear test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import Graph, locally_equivalent

NORM_TOL = 1e-10
STATE_VECTOR_LIMIT = 14


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the computational basis of named qubits.

    ``qubit_order[i]`` owns bit i counted from the most significant end of
    the basis index.
    """

    amplitudes: np.ndarray
    qubit_order: tuple[int, ...]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        n = len(self.qubit_order)
        if amps.shape != (2**n,):
            raise ValueError(f"expected {2**n} amplitudes for {n} qubits, got {amps.shape}")
        if len(set(self.qubit_order)) < n:
            raise ValueError(f"qubit labels repeat: {tuple(self.qubit_order)}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state has non-finite amplitudes")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "qubit_order", tuple(self.qubit_order))

    @classmethod
    def _of(cls, amplitudes: np.ndarray, qubit_order: tuple[int, ...]) -> StateVector:
        """Wrap a complex vector already known to fit its labels, be finite and be normalized."""
        sv = object.__new__(cls)
        object.__setattr__(sv, "amplitudes", amplitudes)
        object.__setattr__(sv, "qubit_order", qubit_order)
        return sv

    @property
    def n(self) -> int:
        return len(self.qubit_order)

    def bit_of(self, qubit: int) -> int:
        return self.n - 1 - self.qubit_order.index(qubit)


def to_state_vector(g: Graph) -> StateVector:
    """Expand a graph state into its exact vector, amplitudes +-2^(-n/2)."""
    n = len(g.vertices)
    if n > STATE_VECTOR_LIMIT:
        raise ValueError(f"state vector limited to {STATE_VECTOR_LIMIT} qubits, got {n}")
    order = tuple(g.vertices)
    pos = {v: n - 1 - i for i, v in enumerate(order)}
    idx = np.arange(2**n)
    signs = np.zeros(2**n, dtype=np.int64)
    for u, v in g.edges:
        signs += ((idx >> pos[u]) & 1) & ((idx >> pos[v]) & 1)
    amps = ((-1.0) ** signs) / np.sqrt(2.0**n)
    return StateVector(amps.astype(complex), order)


def apply_single_qubit(sv: StateVector, qubit: int, u: np.ndarray) -> StateVector:
    bit = sv.bit_of(qubit)
    n = sv.n
    amps = sv.amplitudes.reshape([2] * n)
    axis = n - 1 - bit
    rotated = np.tensordot(u, amps, axes=([1], [axis]))
    rotated = np.moveaxis(rotated, 0, axis)
    return StateVector(rotated.reshape(-1), sv.qubit_order)


# -- stabilizer decoding -------------------------------------------------------


def graph_form(sv: StateVector) -> Graph | None:
    """Decode a stabilizer vector to a graph in some local-Clifford frame.

    A stabilizer vector is supported on an affine subspace x0 + V with equal
    magnitudes, and its phases relative to x0 are i^l(y) (-1)^q(y) for a
    linear l and quadratic q in the coordinates y over a basis of V
    (Dehaene and De Moor, PRA 68, 042318, 2003).  Take x0 the least point
    of the support and V's reduced basis b_0 < b_1 < ..., one pivot bit per
    basis vector, its leading bit, set in no other.  Sorted, V lists b_j at
    index 2^j and each point at the index of its coordinates y, because b_j's
    pivot decides the order of any two points whose highest differing
    coordinate is j.  So the support is affine exactly when the sorted
    rest = x0 ^ support has rest[y] = rest[y ^ low] ^ rest[low] for every y,
    low the lowest set bit of y, and then rest[2^j] is b_j.  q gives the
    pivot-pivot edges, each basis vector's other bits give its pivot's edges
    to non-pivot qubits, and X on the bits of x0, S and Z on the pivots and
    H on the non-pivots are the dropped frame.  Returns None when sv is not
    a stabilizer state.
    """
    tol = 1e-8
    n, amps = sv.n, sv.amplitudes
    magnitudes = np.abs(amps)
    support = (magnitudes > tol).nonzero()[0]
    k = support.size.bit_length() - 1
    if support.size != 1 << k or (np.abs(magnitudes[support] - 2 ** (-k / 2)) > tol).any():
        return None
    x0 = int(support[0])
    rest = support ^ x0
    rest.sort()
    y = np.arange(1 << k)
    low = y & -y
    if (rest[y ^ low] ^ rest[low] != rest).any():
        return None  # the support is not an affine subspace
    basis = rest[1 << np.arange(k)].tolist()
    pivots = [b.bit_length() - 1 for b in basis]
    couples = list(combinations(range(k), 2))
    values = amps[x0 ^ rest]  # the amplitude at each point y of the span
    # the amplitudes at x0, at x0 ^ b_j and at x0 ^ b_j ^ b_l, as Python complex
    a0, *picked = values[[0, *(1 << j for j in range(k)), *(1 << j | 1 << l for j, l in couples)]].tolist()
    unit = [a / a0 for a in picked[:k]]
    if any(min(abs(u - 1j**e) for e in range(4)) > tol for u in unit):
        return None
    edges = []
    for (j, l), a in zip(couples, picked[k:]):
        ratio = a / a0 / (unit[j] * unit[l])
        if abs(ratio + 1) <= tol:
            edges.append((j, l))
        elif abs(ratio - 1) > tol:
            return None
    # predict the phase at each point y of the span, one coordinate at a time: y + 2^j
    # takes y's phase times unit[j], negated when y has an odd number of j's lower neighbours
    predicted = np.empty(1 << k, dtype=complex)
    predicted[0] = 1
    for j in range(k):
        high = predicted[1 << j : 2 << j]
        np.multiply(predicted[: 1 << j], unit[j], out=high)
        if mask := sum(1 << l for l, m in edges if m == j):
            np.negative(high, out=high, where=np.bitwise_count(y[: 1 << j] & mask) & 1 == 1)
    if (np.abs(values - amps[x0] * predicted) > tol).any():
        return None
    q = sv.qubit_order
    pairs = [(pivots[j], pivots[l]) for j, l in edges]
    pairs += [(p, bit) for p, b in zip(pivots, basis) for bit in range(n) if bit not in pivots and b >> bit & 1]
    return Graph(q, ((q[n - 1 - u], q[n - 1 - v]) for u, v in pairs))


def state_locally_equivalent(sv: StateVector, g: Graph) -> bool:
    """True iff single-qubit Cliffords map sv onto the graph state of g."""
    if sv.n > STATE_VECTOR_LIMIT:
        raise ValueError(f"equivalence test limited to {STATE_VECTOR_LIMIT} qubits")
    decoded = graph_form(sv)
    return decoded is not None and locally_equivalent(decoded, g)
