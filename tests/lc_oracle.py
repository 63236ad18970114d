"""Orbit-search oracles for the package's local-equivalence checks.

``lc_orbit`` walks the whole local-complementation orbit of a graph
breadth first, so its cost grows with the orbit size.  Two oracles are
built on it: ``locally_equivalent``, for ``graphs.locally_equivalent``
(which answers the same question with Bouchet's linear test over
GF(2)), and ``single_leaf_caterpillars``, the paper's shape bound for
the path-every-third resource, for the spine/leaf prediction that
``minors.crosscheck`` checks with the linear test.

``bouchet_solution_rows`` is the row-elimination solver of that linear
test, the oracle for ``graphs._bouchet_solution``, which solves the same
system by columns.  ``linear_locally_equivalent`` is the linear test with
a ``Graph.components()`` walk of each graph and a set comparison of the
two, the oracle for ``graphs.locally_equivalent``, which walks g1 once
and checks each of its components with one walk of g2.  ``local_cliffords`` reads the vertex operators off
``graphs._bouchet_solution``'s solutions, so a test can apply them to one
graph state and find the other; the package only asks whether they exist.
"""

from collections import deque
from typing import Iterator

from photonweave.graphs import (
    LC_DIMENSION_LIMIT,
    Graph,
    _bouchet_solution,
    classify_graph,
    local_complement,
)

ORBIT_VERTEX_LIMIT = 12
ORBIT_CAP = 10**6


def lc_orbit(g: Graph, cap: int = ORBIT_CAP) -> Iterator[Graph]:
    """Breadth-first enumeration of the local-complementation orbit of g."""
    # lc keeps the vertex order, so the neighbourhoods in that order identify a graph
    seen = {tuple(g.adj.values())}
    queue = deque([g])
    while queue:
        cur = queue.popleft()
        yield cur
        for v, nbrs in cur.adj.items():
            if len(nbrs) < 2:  # lc is a no-op below degree 2
                continue
            nxt = local_complement(cur, v)
            key = tuple(nxt.adj.values())
            if key not in seen:
                if len(seen) >= cap:
                    raise RuntimeError(f"local-complementation orbit exceeds cap {cap}")
                seen.add(key)
                queue.append(nxt)


def locally_equivalent(g1: Graph, g2: Graph) -> bool:
    """True iff g2 lies in the local-complementation orbit of g1.

    Label-preserving: a vertex keeps its label, so two graphs that differ
    only by a relabelling are not equivalent unless the orbit holds both.
    Orbit search is capped at desk scale.
    """
    if g1.n > ORBIT_VERTEX_LIMIT or g2.n > ORBIT_VERTEX_LIMIT:
        raise ValueError(f"orbit search limited to {ORBIT_VERTEX_LIMIT} vertices")
    if g1.adj.keys() != g2.adj.keys():
        return False
    # components are invariant under lc: cheap rejection
    if set(g1.components()) != set(g2.components()):
        return False
    return any(h.adj == g2.adj for h in lc_orbit(g1))


def linear_locally_equivalent(g1: Graph, g2: Graph) -> bool:
    """True iff g2 lies in the local-complementation orbit of g1.

    Label-preserving: a vertex keeps its label, so two graphs that differ
    only by a relabelling are not equivalent unless the orbit holds both.
    Decided by Bouchet's linear test on each connected component, not by
    walking the orbit; a component whose solution space has more than
    ``LC_DIMENSION_LIMIT`` dimensions raises ValueError.  A component of
    at most three vertices needs no solve: every connected graph on the
    same one, two or three labels is in one orbit (a three-vertex path
    becomes the triangle by complementing at its middle vertex), and its
    system has at most 4 dimensions, far below the limit.
    """
    if g1.adj.keys() != g2.adj.keys():
        return False
    comps = g1.components()
    if set(comps) != set(g2.components()):  # components are invariant under lc
        return False
    # one system per component, in vertex order, until one has no solution; a
    # component of <= 3 vertices is connected in both, so in their one orbit
    return all(len(comp) <= 3
               or _bouchet_solution([v for v in g1.adj if v in comp], g1.adj, g2.adj) is not None
               for comp in comps)


def local_cliffords(g1: Graph, g2: Graph) -> dict[int, tuple[int, int, int, int]] | None:
    """A local Clifford taking g1's graph state to g2's up to Paulis, or None.

    Maps each vertex to the (a, b, c, d) of its single-qubit Clifford:
    X goes to X^a Z^c and Z to X^b Z^d, up to sign.  Each component's
    operators are the first solution ``graphs._bouchet_solution`` finds
    (its docstring gives the equations).
    """
    if g1.adj.keys() != g2.adj.keys() or set(g1.components()) != set(g2.components()):
        return None
    frames: dict[int, tuple[int, int, int, int]] = {}
    for comp in g1.components():
        order = [v for v in g1.adj if v in comp]
        x = _bouchet_solution(order, g1.adj, g2.adj)
        if x is None:
            return None
        n = len(order)
        for i, v in enumerate(order):
            frames[v] = tuple(x >> (part * n + i) & 1 for part in range(4))
    return frames


def single_leaf_caterpillars(g: Graph) -> bool:
    """Is each component locally equivalent to a caterpillar of max degree 3?

    A caterpillar whose maximum degree is three can always be re-rooted
    so that each spine vertex carries at most one leaf.
    """
    return all(_single_leaf_caterpillar(g, comp) for comp in g.components())


def _single_leaf_caterpillar(g: Graph, comp: frozenset[int]) -> bool:
    sub = g.induced(comp)
    if len(comp) <= 2:
        return True
    for rep in lc_orbit(sub):
        if max(map(len, rep.adj.values())) > 3:
            continue
        if classify_graph(rep).label in ("path", "star", "caterpillar", "empty"):
            return True
    return False


def bouchet_solution_rows(
    order: list[int], adj1: dict[int, frozenset[int]], adj2: dict[int, frozenset[int]]
) -> int | None:
    """Row elimination over the n² equations of one component's system.

    Builds one row per equation and reduces it against every pivot, about
    4n³ steps.  Returns what ``graphs._bouchet_solution`` returns, or
    raises the same ValueError.
    """
    n, full = len(order), (1 << len(order)) - 1
    index = {v: i for i, v in enumerate(order)}
    nb1 = [sum(1 << index[u] for u in adj1[v]) for v in order]
    nb2 = [sum(1 << index[u] for u in adj2[v]) for v in order]
    # one row per equation (j, k): b_i for i in N2(j) & N1(k), a_k if jk in g2,
    # c_j if j == k, d_j if jk in g1; reduced so each pivot row has no other pivot
    pivots: dict[int, int] = {}
    for j in range(n):
        for k in range(n):
            row = ((nb2[j] & nb1[k]) << n | (nb2[j] >> k & 1) << k
                   | (j == k) << (2 * n + j) | (nb1[j] >> k & 1) << (3 * n + j))
            for p, r in pivots.items():
                if row >> p & 1:
                    row ^= r
            if row:
                p = row.bit_length() - 1
                for q, r in pivots.items():
                    if r >> p & 1:
                        pivots[q] = r ^ row
                pivots[p] = row
    basis = [1 << f | sum(1 << p for p, r in pivots.items() if r >> f & 1)
             for f in range(4 * n) if f not in pivots]
    if len(basis) > LC_DIMENSION_LIMIT:
        raise ValueError(f"local-equivalence test limited to {LC_DIMENSION_LIMIT} "
                         f"null-space dimensions, got {len(basis)}")
    # every nonzero combination once, in Gray-code order: one XOR per step
    x = 0
    for step in range(1, 1 << len(basis)):
        x ^= basis[(step & -step).bit_length() - 1]
        if (x & full & x >> 3 * n) ^ (x >> n & x >> 2 * n & full) == full:
            return x
    return None
