"""The slow stabilizer decoders, kept as the test oracles for ``states.graph_form``.

``stabilizer_generators`` finds n independent stabilizers by running one
Walsh-Hadamard transform per X mask (about n·4^n work), and
``graph_form`` turns that tableau into a graph by GF(2) elimination,
swapping X and Z columns (a Hadamard) until the X block is invertible;
it agrees with ``states.graph_form`` up to local complementation.
``eliminated_graph_form`` finds the support's reduced basis by
eliminating one bit at a time, the reference for ``states.graph_form``,
which reads the same basis off the sorted support and returns the
identical graph.
"""

from itertools import combinations

import numpy as np

from photonweave.graphs import Graph
from photonweave.states import StateVector


def _fwht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform over index parity, one butterfly level at a time."""
    out = values.copy()
    h = 1
    n = out.shape[0]
    while h < n:
        pairs = out.reshape(-1, 2, h)
        a = pairs[:, 0].copy()
        b = pairs[:, 1].copy()
        pairs[:, 0] = a + b
        pairs[:, 1] = a - b
        h *= 2
    return out


def stabilizer_generators(sv: StateVector, tol: float = 1e-8) -> list[tuple[int, int]] | None:
    """Find n independent stabilizers of sv as (x_mask, z_mask) pairs.

    A Pauli X^x Z^z (phases ignored) stabilizes sv iff
    |<psi| X^x Z^z |psi>| = 1.  Returns None if sv is not a stabilizer
    state.  Bit i of a mask refers to sv.qubit_order[i] counted from the
    most significant end, matching the amplitude indexing.
    """
    n = sv.n
    dim = 2**n
    psi = sv.amplitudes
    rows: list[tuple[int, int]] = []
    basis: list[int] = []  # GF(2) row space of (x|z) masks

    def independent(vec: int) -> bool:
        acc = vec
        for b in basis:
            acc = min(acc, acc ^ b)
        return acc != 0

    def insert(vec: int) -> None:
        acc = vec
        for b in basis:
            acc = min(acc, acc ^ b)
        basis.append(acc)
        basis.sort(reverse=True)

    for x in range(dim):
        overlap = np.conj(psi) * psi[np.arange(dim) ^ x]
        f = _fwht(overlap)
        hits = np.nonzero(np.abs(np.abs(f) - 1.0) < tol)[0]
        for z in hits:
            vec = (x << n) | int(z)
            if vec and independent(vec):
                rows.append((x, int(z)))
                insert(vec)
                if len(rows) == n:
                    return rows
    return None


def graph_form(sv: StateVector) -> Graph | None:
    """Decode a stabilizer vector to a graph in some local-Clifford frame, or None."""
    gens = stabilizer_generators(sv)
    if gens is None:
        return None
    n = sv.n
    x_rows = [x for x, _ in gens]
    z_rows = [z for _, z in gens]

    # Make the X block invertible, pulling columns over from Z (a Hadamard
    # on that qubit) whenever elimination leaves an all-zero X row.
    for _ in range(n + 1):
        x_rows, z_rows = _gf2_eliminate(x_rows, z_rows, n)
        stuck = [r for r in range(n) if x_rows[r] == 0]
        if not stuck:
            break
        r = stuck[0]
        if z_rows[r] == 0:
            return None  # degenerate generator set
        mask = 1 << _lowest_set_bit(z_rows[r])
        for i in range(n):
            xb, zb = x_rows[i] & mask, z_rows[i] & mask
            x_rows[i] = (x_rows[i] & ~mask) | zb
            z_rows[i] = (z_rows[i] & ~mask) | xb
    else:
        return None

    # Row-reduce the X block to the identity; Z block becomes the adjacency.
    x_rows, z_rows = _gf2_solve_to_identity(x_rows, z_rows, n)
    if x_rows is None:
        return None
    # bit n-1-c of row r is the Z on qubit c; diagonal bits are S-gate byproducts
    pairs = {(r, c) for r in range(n) for c in range(n) if r != c and z_rows[r] >> (n - 1 - c) & 1}
    if any((c, r) not in pairs for r, c in pairs):
        return None
    q = sv.qubit_order
    return Graph(q, ((q[r], q[c]) for r, c in pairs))


def _lowest_set_bit(value: int) -> int:
    return (value & -value).bit_length() - 1


def _gf2_eliminate(x_rows: list[int], z_rows: list[int], n: int) -> tuple[list[int], list[int]]:
    """Gaussian elimination on the X block, mirroring row ops onto Z."""
    xs, zs = list(x_rows), list(z_rows)
    rank = 0
    for c in range(n - 1, -1, -1):
        mask = 1 << c
        pivot = next((i for i in range(rank, n) if xs[i] & mask), None)
        if pivot is None:
            continue
        xs[rank], xs[pivot] = xs[pivot], xs[rank]
        zs[rank], zs[pivot] = zs[pivot], zs[rank]
        for i in range(n):
            if i != rank and xs[i] & mask:
                xs[i] ^= xs[rank]
                zs[i] ^= zs[rank]
        rank += 1
    return xs, zs


def _gf2_solve_to_identity(
    x_rows: list[int], z_rows: list[int], n: int
) -> tuple[list[int] | None, list[int] | None]:
    xs, zs = _gf2_eliminate(x_rows, z_rows, n)
    # reorder rows so xs[r] has its pivot at column r
    out_x = [0] * n
    out_z = [0] * n
    for r in range(n):
        if xs[r] == 0:
            return None, None
        pivot_col = n - xs[r].bit_length()
        out_x[pivot_col] = xs[r]
        out_z[pivot_col] = zs[r]
    for r in range(n):
        if out_x[r] != (1 << (n - 1 - r)):
            return None, None
    return out_x, out_z


def eliminated_graph_form(sv: StateVector) -> Graph | None:
    """``states.graph_form`` by bit-by-bit GF(2) elimination of the support.

    A stabilizer vector is supported on an affine subspace x0 + V with equal
    magnitudes, and its phases relative to x0 are i^l(y) (-1)^q(y) for a
    linear l and quadratic q in the coordinates y over a basis of V
    (Dehaene and De Moor, PRA 68, 042318, 2003).  With V in reduced form,
    one pivot bit per basis vector, q gives the pivot-pivot edges, each
    basis vector's other bits give its pivot's edges to non-pivot qubits,
    and X on the bits of x0, S and Z on the pivots and H on the non-pivots
    are the dropped frame.  Returns None when sv is not a stabilizer state.
    """
    tol = 1e-8
    n, amps = sv.n, sv.amplitudes
    support = np.flatnonzero(np.abs(amps) > tol)
    k = support.size.bit_length() - 1
    if support.size != 1 << k or np.any(np.abs(np.abs(amps[support]) - 2 ** (-k / 2)) > tol):
        return None
    x0 = int(support[0])
    rest, basis, pivots = support ^ x0, [], []
    for bit in reversed(range(n)):
        col = (rest >> bit) & 1
        hit = np.flatnonzero(col)
        if hit.size:
            b = int(rest[hit[0]])
            rest = rest ^ (col * b)
            basis = [c ^ b if c >> bit & 1 else c for c in basis] + [b]
            pivots.append(bit)
    if len(basis) != k:
        return None  # the support is not an affine subspace

    def phase(x: int) -> complex:
        return amps[x0 ^ x] / amps[x0]

    unit = [phase(b) for b in basis]
    if any(min(abs(u - 1j**e) for e in range(4)) > tol for u in unit):
        return None
    edges = []
    for j, l in combinations(range(k), 2):
        ratio = phase(basis[j] ^ basis[l]) / (unit[j] * unit[l])
        if abs(ratio + 1) <= tol:
            edges.append((j, l))
        elif abs(ratio - 1) > tol:
            return None
    # predict the phase over the whole span, one pivot at a time
    points, predicted = np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)
    for j, b in enumerate(basis):
        mask = sum(1 << pivots[l] for l, m in edges if m == j)
        sign = np.where(np.bitwise_count(points & mask) & 1, -1, 1)
        points = np.concatenate([points, points ^ b])
        predicted = np.concatenate([predicted, predicted * unit[j] * sign])
    if np.any(np.abs(amps[x0 ^ points] - amps[x0] * predicted) > tol):
        return None
    q = sv.qubit_order
    pairs = [(pivots[j], pivots[l]) for j, l in edges]
    pairs += [(p, bit) for p, b in zip(pivots, basis) for bit in range(n) if bit not in pivots and b >> bit & 1]
    return Graph(q, ((q[n - 1 - u], q[n - 1 - v]) for u, v in pairs))
