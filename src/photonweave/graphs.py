"""Labeled simple graphs and the graph-state rewrite calculus.

A graph here *is* a multiqubit stabilizer state up to single-qubit
Cliffords: vertices are qubits and each edge records a CZ applied to a
pair of |+> qubits.  The module provides the three Pauli-measurement
rewrite rules (vertex deletion, local complementation + deletion, and
the three-step X rule), local equivalence by Bouchet's linear test over
GF(2), and shape classification of the caterpillar/cycle family.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable

Edge = tuple[int, int]

#: Pauli measurement axes accepted throughout the package.
AXES = ("X", "Y", "Z")


class InputShapeError(ValueError):
    """An input of the wrong length, alphabet or size for what reads it.

    Measurement words, detector outcomes, measurement plans and sizes a
    resource cannot be built at raise it; the command line reports it as a
    usage error, not a runtime failure.
    """


def _check_pair(adj: dict[int, frozenset[int]], u: int, v: int) -> None:
    if u == v:
        raise ValueError(f"self-loop at vertex {u} is not allowed")
    if u not in adj or v not in adj:
        raise ValueError(f"edge ({min(u, v)},{max(u, v)}) references a missing vertex")


@dataclass(frozen=True, eq=False, slots=True)
class Graph:
    """Immutable simple undirected graph on integer-labeled vertices.

    ``adj`` maps each vertex, in vertex order, to the frozenset of its
    neighbours; ``vertices`` and ``edges`` are read from it.  Two graphs
    are equal when they have the same vertex order and the same edges.
    """

    adj: dict[int, frozenset[int]]

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        adj: dict[int, set[int]] = {v: set() for v in vertices}  # keeps order, drops duplicates
        for u, v in edges:
            _check_pair(adj, u, v)
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "adj", {v: frozenset(nbrs) for v, nbrs in adj.items()})

    @classmethod
    def _of(cls, adj: dict[int, frozenset[int]]) -> Graph:
        """Wrap an adjacency map that is already symmetric and loop-free."""
        g = object.__new__(cls)
        object.__setattr__(g, "adj", adj)
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return tuple(self.adj) == tuple(other.adj) and self.adj == other.adj

    # -- basic queries ---------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self.adj)

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset((u, v) for u, nbrs in self.adj.items() for v in nbrs if u < v)

    def __contains__(self, v: int) -> bool:
        return v in self.adj

    @property
    def n(self) -> int:
        return len(self.adj)

    def neighbors(self, v: int) -> frozenset[int]:
        self._require(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        return v in self.adj.get(u, ())

    def _require(self, *vs: int) -> None:
        for v in vs:
            if v not in self.adj:
                raise ValueError(f"unknown vertex {v}")

    # -- construction helpers --------------------------------------------

    def with_edges_toggled(self, pairs: Iterable[tuple[int, int]]) -> Graph:
        adj = dict(self.adj)
        for u, v in pairs:
            _check_pair(adj, u, v)
            adj[u] ^= {v}
            adj[v] ^= {u}
        return Graph._of(adj)

    def without_vertex(self, v: int) -> Graph:
        gone = self.neighbors(v)
        return Graph._of(
            {u: nbrs - {v} if u in gone else nbrs for u, nbrs in self.adj.items() if u != v}
        )

    def add_vertex(self, v: int, nbrs: Iterable[int] = ()) -> Graph:
        """Append v joined to ``nbrs``.

        Adding a vertex that is already present is a no-op without
        ``nbrs`` and an error with them.
        """
        nbrs = frozenset(nbrs)
        if v in self.adj:
            if nbrs:
                raise ValueError(f"vertex {v} is already present")
            return self
        self._require(*nbrs)
        adj = {u: un | {v} if u in nbrs else un for u, un in self.adj.items()}
        adj[v] = nbrs
        return Graph._of(adj)

    def add_edge(self, u: int, v: int) -> Graph:
        self._require(u, v)
        return self if self.has_edge(u, v) else self.with_edges_toggled([(u, v)])

    def induced(self, keep: Iterable[int]) -> Graph:
        kset = set(keep)
        self._require(*kset)
        return Graph._of({v: nbrs & kset for v, nbrs in self.adj.items() if v in kset})

    def disjoint_union(self, other: Graph) -> Graph:
        overlap = self.adj.keys() & other.adj.keys()
        if overlap:
            raise ValueError(f"label collision: {sorted(overlap)}")
        return Graph._of(self.adj | other.adj)

    # -- topology ----------------------------------------------------------

    def components(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        out = []
        for start in self.adj:
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                for w in self.adj[queue.popleft()]:
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            out.append(frozenset(comp))
        return out


# -- standard families ----------------------------------------------------


def empty_graph(n_or_labels: int | Iterable[int]) -> Graph:
    labels = range(1, n_or_labels + 1) if isinstance(n_or_labels, int) else n_or_labels
    return Graph(labels)


def path_graph(n_or_labels: int | Iterable[int]) -> Graph:
    labels = list(range(1, n_or_labels + 1)) if isinstance(n_or_labels, int) else list(n_or_labels)
    return Graph(labels, zip(labels, labels[1:]))


def cycle_graph(n_or_labels: int | Iterable[int]) -> Graph:
    labels = list(range(1, n_or_labels + 1)) if isinstance(n_or_labels, int) else list(n_or_labels)
    if len(labels) < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(labels, list(zip(labels, labels[1:])) + [(labels[-1], labels[0])])


def star_graph(center: int, leaves: Iterable[int]) -> Graph:
    leaves = list(leaves)
    return Graph([center] + leaves, [(center, u) for u in leaves])


def complete_graph(labels: Iterable[int]) -> Graph:
    labels = list(labels)
    return Graph(labels, itertools.combinations(labels, 2))


# -- rewrite rules -----------------------------------------------------------


def local_complement(g: Graph, v: int) -> Graph:
    """Toggle every edge between pairs of neighbors of v."""
    g._require(v)
    adj = dict(g.adj)
    _complement_at(adj, v)
    return Graph._of(adj)


def measure_pauli(g: Graph, v: int, axis: str, x_partner: int | None = None) -> Graph:
    """Remove v from the graph according to a Pauli measurement on it.

    Z deletes the vertex, Y locally complements at v first, and X runs the
    three-step rule lc(v), lc(w), lc(v) before deleting, where w is a
    neighbor of v (smallest label unless ``x_partner`` overrides).  The
    result is one representative of the post-measurement state's class
    under single-qubit Cliffords; byproduct rotations are not tracked.
    """
    adj = dict(g.adj)
    _measure(adj, v, axis, x_partner)
    return Graph._of(adj)


def _complement_at(adj: dict[int, frozenset[int]], v: int) -> None:
    """Locally complement the adjacency map at v, in place."""
    nbrs = adj[v]
    for u in nbrs:
        adj[u] = adj[u] ^ (nbrs - {u})


def _measure(adj: dict[int, frozenset[int]], v: int, axis: str, x_partner: int | None) -> None:
    """Apply ``measure_pauli``'s rule to the adjacency map in place.

    Every check runs before the map is touched, so a bad input leaves it
    as it was.  The other vertices keep their order.
    """
    if v not in adj:
        raise ValueError(f"unknown vertex {v}")
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    if axis == "X" and adj[v]:
        w = min(adj[v]) if x_partner is None else x_partner
        if w not in adj[v]:
            raise ValueError(f"x_partner {w} is not a neighbor of {v}")
        _complement_at(adj, v)
        _complement_at(adj, w)
    if axis != "Z":
        _complement_at(adj, v)  # Y's one step, or X's last before the deletion
    for u in adj.pop(v):
        adj[u] = adj[u] - {v}


# -- local equivalence --------------------------------------------------------

#: null-space dimension of one component's linear system above which the
#: solution walk is refused.  The most measured over graphs of at most 12
#: vertices is 13 (stars and complete graphs: n + 1); a full walk of 2^20
#: solutions takes about 0.3 s on a 2-core x86_64 host (Python 3.11)
LC_DIMENSION_LIMIT = 20


def locally_equivalent(g1: Graph, g2: Graph) -> bool:
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


def _bouchet_solution(
    order: list[int], adj1: dict[int, frozenset[int]], adj2: dict[int, frozenset[int]]
) -> int | None:
    """Solve one component's system; bits [kn, (k+1)n) of the answer are a, b, c, d.

    The unknowns are each vertex's single-qubit Clifford: X goes to
    X^a Z^c and Z to X^b Z^d, up to sign.  Stabilizer generators as
    (x; z) columns are [I; Γ], so the Clifford Q = [[A, B], [C, D]]
    (diagonal blocks) takes g1's graph state to g2's up to Paulis iff
    Γ'BΓ + Γ'A + DΓ + C = 0 and a_i d_i + b_i c_i = 1 for every i, with
    Γ for g1 and Γ' for g2 (Bouchet, Combinatorica 11, 1991; Van den
    Nest, Dehaene and De Moor, PRA 70, 034302, 2004).

    The system is held by columns: one n²-bit integer per unknown, whose
    bit jn + k says the unknown appears in equation (j, k).  The columns
    are reduced by their lowest set bit, each carrying a tag of the
    unknowns summed into it, and the tags of the columns that reach zero
    span the null space.  That basis is then put in its canonical form:
    each vector has its own lowest set bit, cleared from all the others,
    in increasing order of that bit: the row-reduced system's free-variable
    basis.  The Gray-code walk below then returns the same first solution
    however the basis was found (only the tests read it), and it is faster:
    over the raw null basis a ``word-sweep`` pass took 26% more solver time.
    """
    n, full = len(order), (1 << len(order)) - 1
    index = {v: i for i, v in enumerate(order)}
    nb1 = [sum(1 << index[u] for u in adj1[v]) for v in order]
    # N2(i) spread out so neighbour j sits at bit jn
    spread2 = [sum(1 << index[u] * n for u in adj2[v]) for v in order]
    # equation (j, k): b_i for i in N2(j) & N1(k), a_k if jk in g2, c_j if
    # j == k, d_j if jk in g1.  b_i's column is the outer product N2(i) x N1(i)
    columns = ([spread2[k] << k for k in range(n)]
               + [spread2[i] * nb1[i] for i in range(n)]
               + [1 << (n + 1) * j for j in range(n)]
               + [nb1[j] << j * n for j in range(n)])
    pivots: dict[int, tuple[int, int]] = {}  # lowest set bit -> (column, tag)
    null = []
    for unknown, col in enumerate(columns):
        tag = 1 << unknown
        while col:
            low = col & -col
            if low not in pivots:
                pivots[low] = (col, tag)
                break
            pcol, ptag = pivots[low]
            col ^= pcol
            tag ^= ptag
        else:
            null.append(tag)
    if len(null) > LC_DIMENSION_LIMIT:
        raise ValueError(f"local-equivalence test limited to {LC_DIMENSION_LIMIT} "
                         f"null-space dimensions, got {len(null)}")
    canonical: dict[int, int] = {}  # lowest set bit -> the one vector holding that bit
    for x in null:
        for low, y in canonical.items():
            if x & low:
                x ^= y
        low = x & -x
        for other, y in canonical.items():
            if y & low:
                canonical[other] = y ^ x
        canonical[low] = x
    basis = [canonical[low] for low in sorted(canonical)]
    # every nonzero combination once, in Gray-code order: one XOR per step
    x = 0
    for step in range(1, 1 << len(basis)):
        x ^= basis[(step & -step).bit_length() - 1]
        if (x & full & x >> 3 * n) ^ (x >> n & x >> 2 * n & full) == full:
            return x
    return None


# -- shape classification -----------------------------------------------------


@dataclass(frozen=True)
class ComponentShape:
    """Witness for one connected component.

    ``spine`` is the ordered core path (or cycle) of the component and
    ``leaves`` maps each remaining vertex to its spine attachment point.
    The witness reconstructs the component exactly.
    """

    kind: str  # empty | path | star | cycle | caterpillar | leafed-cycle | other
    spine: tuple[int, ...]
    leaves: tuple[tuple[int, int], ...]  # (leaf, spine vertex)


@dataclass(frozen=True)
class ShapeClass:
    label: str
    components: tuple[ComponentShape, ...]
    contiguous_leaves: bool | None  # leaf-carrying spine vertices consecutive?


def _spine_walk(g: Graph) -> tuple[str, tuple[int, ...]] | None:
    """Order a graph of two or more vertices along the path or cycle it is.

    A path is walked from its smaller end and a cycle from its smallest
    vertex towards that vertex's smaller neighbour; None if g is neither.
    """
    degs = {v: len(nbrs) for v, nbrs in g.adj.items()}
    ends = [v for v, d in degs.items() if d == 1]
    if len(ends) not in (0, 2) or max(degs.values()) > 2:
        return None
    kind, start = ("path", min(ends)) if ends else ("cycle", min(degs))
    order, prev = [start], None
    while (nxt := sorted(g.adj[order[-1]] - {prev})) and nxt[0] != start:
        prev = order[-1]
        order.append(nxt[0])
    return (kind, tuple(order)) if len(order) == len(degs) else None


def _classify_component(g: Graph, comp: frozenset[int]) -> ComponentShape:
    sub = g.induced(comp)
    if len(comp) == 1:
        return ComponentShape("empty", tuple(comp), ())
    walked = _spine_walk(sub)
    if walked is not None:
        return ComponentShape(*walked, ())
    degs = {v: len(nbrs) for v, nbrs in sub.adj.items()}
    centers = [v for v, d in degs.items() if d == len(comp) - 1]
    if len(centers) == 1 and all(d == 1 for v, d in degs.items() if v != centers[0]):
        c = centers[0]
        return ComponentShape(
            "star", (c,), tuple((v, c) for v in sorted(comp) if v != c)
        )
    # strip the degree-1 vertices once; in a connected component of three or
    # more vertices each hangs off a core vertex.  A path core means
    # caterpillar, a cycle core means leafed cycle
    attach = {v: next(iter(sub.adj[v])) for v, d in degs.items() if d == 1}
    walked = _spine_walk(sub.induced(comp - attach.keys()))
    if walked is not None:
        kind, order = walked
        kind = "caterpillar" if kind == "path" else "leafed-cycle"
        return ComponentShape(kind, order, tuple(sorted(attach.items())))
    return ComponentShape("other", tuple(sorted(comp)), ())


def _leaves_contiguous(shape: ComponentShape) -> bool:
    carriers = {s for _, s in shape.leaves}
    if not carriers or shape.kind not in ("caterpillar", "leafed-cycle", "star"):
        return True
    idx = sorted(shape.spine.index(s) for s in carriers)
    span = idx[-1] - idx[0] + 1
    if span == len(idx):
        return True
    if shape.kind == "leafed-cycle":
        # cyclic runs may wrap around the spine origin
        n = len(shape.spine)
        gaps = [(idx[(i + 1) % len(idx)] - idx[i]) % n for i in range(len(idx))]
        return max(gaps) == n - len(idx) + 1
    return False


def classify_graph(g: Graph) -> ShapeClass:
    """Classify into the caterpillar / leafed-cycle family with a witness."""
    comps = sorted(g.components(), key=min)
    shapes = tuple(_classify_component(g, c) for c in comps)
    contig = all(_leaves_contiguous(s) for s in shapes) if shapes else None
    if not shapes:
        return ShapeClass("empty", (), None)
    if all(s.kind == "empty" for s in shapes):
        return ShapeClass("empty", shapes, contig)
    if len(shapes) == 1:
        return ShapeClass(shapes[0].kind, shapes, contig)
    caterpillarish = {"empty", "path", "star", "caterpillar"}
    if all(s.kind in caterpillarish for s in shapes):
        return ShapeClass("caterpillar-forest", shapes, contig)
    return ShapeClass("other", shapes, contig)


# -- serialization ------------------------------------------------------------


def graph_as_dict(g: Graph) -> dict:
    """The graph JSON object: sorted vertex labels and sorted edge pairs."""
    return {"vertices": sorted(g.vertices), "edges": sorted([list(e) for e in g.edges])}


def graph_to_json(g: Graph) -> str:
    return json.dumps(graph_as_dict(g), sort_keys=True)


def graph_from_json(text: str) -> Graph:
    """Read a graph JSON object; labels that are not integers raise ValueError."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("a graph JSON is an object with vertices and edges")
    vertices, edges = payload.get("vertices"), payload.get("edges")
    if not isinstance(vertices, list) or any(type(v) is not int for v in vertices):
        raise ValueError("graph vertices are a list of integer labels")
    if not isinstance(edges, list) or any(
        not isinstance(e, list) or len(e) != 2 or any(type(v) is not int for v in e) for e in edges
    ):
        raise ValueError("graph edges are a list of integer pairs")
    # Graph() drops repeats, which would re-emit a different graph than the file holds
    if len(set(vertices)) < len(vertices) or len({frozenset(e) for e in edges}) < len(edges):
        raise ValueError("a graph lists each vertex and each edge once")
    return Graph(vertices, [tuple(e) for e in edges])


def graph_to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    for v in sorted(g.vertices):
        lines.append(f"  {v};")
    for u, v in sorted(g.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
