"""The orbit-search local-equivalence test, kept as the oracle for ``graphs.locally_equivalent``.

It walks the whole local-complementation orbit of the first graph, so its
cost grows with the orbit size; the package answers the same question with
Bouchet's linear test over GF(2).
"""

from photonweave.graphs import Graph, lc_orbit

ORBIT_VERTEX_LIMIT = 12


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
