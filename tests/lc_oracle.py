"""Orbit-search oracles for the package's local-equivalence checks.

``lc_orbit`` walks the whole local-complementation orbit of a graph
breadth first, so its cost grows with the orbit size.  Two oracles are
built on it: ``locally_equivalent``, for ``graphs.locally_equivalent``
(which answers the same question with Bouchet's linear test over
GF(2)), and ``single_leaf_caterpillars``, the paper's shape bound for
the path-every-third resource, for the spine/leaf prediction that
``minors.crosscheck`` checks with the linear test.
"""

from collections import deque
from typing import Iterator

from photonweave.graphs import Graph, classify_graph, local_complement

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
