"""Circle-graph machinery for classifying distributable states.

The local-equivalence class of a cycle graph is carried by a 4-regular
circulant multigraph: every Eulerian tour on it has an interlacement
graph locally equivalent to the cycle.  Measuring out a vertex of the
cycle corresponds to rewiring the four edges at the matching multigraph
vertex in one of three ways (the X/Y/Z fragments), and attaching a leaf
corresponds to splitting a vertex along a tour (leaf expansion).  The
words over {X, Y, Z} that drive these rewirings classify everything the
zigzag, honeycomb and path-every-third resources can hand to the users.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .graphs import (
    AXES,
    Graph,
    InputShapeError,
    ShapeClass,
    _measure,
    classify_graph,
    complete_graph,
    cycle_graph,
    locally_equivalent,
    path_graph,
)

# An edge end is (vertex, tag); tags +-1/+-2 record which of the four
# circulant slots the end occupies at its vertex, None for untagged ends.
End = tuple[int, int | None]
MEdge = tuple[End, End]

#: how each measurement letter pairs up the four slots at a vertex
FRAGMENT_PAIRINGS = {
    "X": ((-1, 1), (-2, 2)),
    "Y": ((1, -2), (-1, 2)),
    "Z": ((-1, -2), (1, 2)),
}


def check_word(word: str) -> str:
    if not word:
        raise InputShapeError("word is empty")
    bad = set(word) - set(AXES)
    if bad:
        raise InputShapeError(f"word letters must be X/Y/Z, got {sorted(bad)}")
    return word


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph with tagged edge ends; loops count degree 2."""

    vertices: tuple[int, ...]
    edges: tuple[MEdge, ...]

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) < len(self.vertices):
            raise ValueError(f"repeated vertex labels in {self.vertices}")
        for (u, _), (v, _) in self.edges:
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u},{v}) references a missing vertex")

    def degree(self, v: int) -> int:
        return sum((a == v) + (b == v) for (a, _), (b, _) in self.edges)

    def simple_graph(self) -> Graph:
        """The simple graph underneath: loops dropped, parallel edges merged."""
        return Graph(self.vertices, ((a, b) for (a, _), (b, _) in self.edges if a != b))


def build_circulant(n: int) -> Multigraph:
    """The 4-regular multigraph carrying the LC class of the n-cycle.

    Vertices 0..n-1 with i ~ j iff |i - j| <= 2 (mod n).  Edge ends are
    tagged with their slot (+-1 for the near edges, +-2 for the skips).
    """
    if n < 5:
        raise ValueError("circulant needs n >= 5")
    edges: list[MEdge] = []
    for i in range(n):
        edges.append(((i, 1), ((i + 1) % n, -1)))
        edges.append(((i, 2), ((i + 2) % n, -2)))
    return Multigraph(tuple(range(n)), tuple(edges))


@dataclass(frozen=True)
class EulerianTour:
    """A closed tour: sequence[i] -- sequence[i+1] is edge edge_ids[i]."""

    sequence: tuple[int, ...]
    edge_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sequence) != len(self.edge_ids):
            raise ValueError("need one edge per step (closed tour)")


def validate_tour(mg: Multigraph, tour: EulerianTour) -> None:
    if sorted(tour.edge_ids) != list(range(len(mg.edges))):
        raise ValueError("tour must use every edge exactly once")
    n = len(tour.sequence)
    for i in range(n):
        a, b = tour.sequence[i], tour.sequence[(i + 1) % n]
        (u, _), (v, _) = mg.edges[tour.edge_ids[i]]
        if {a, b} != {u, v} and not (a == b == u == v):
            raise ValueError(f"step {i} does not follow edge {tour.edge_ids[i]}")


def canonical_tour(n: int) -> EulerianTour:
    """The tour 0,2,1,3,2,4,... on the circulant whose interlacement is C_n."""
    if n % 2 != 0:
        raise ValueError("the canonical pattern needs even n; use find_tour instead")
    if n < 6:
        raise ValueError("canonical tour needs n >= 6")
    seq: list[int] = []
    ids: list[int] = []
    for j in range(n):
        seq.append(j)
        seq.append((j + 2) % n)
        ids.append(2 * j + 1)  # the (j, j+2) skip edge
        ids.append(2 * ((j + 1) % n))  # the (j+1, j+2) near edge, walked backwards
    return EulerianTour(tuple(seq), tuple(ids))


def _incidence(mg: Multigraph) -> dict[int, list[int]]:
    """Each vertex's edge ids, largest first so pop() takes the smallest.

    A loop is listed once and counts degree 2; an odd degree raises.
    """
    incident: dict[int, list[int]] = {v: [] for v in mg.vertices}
    odd = dict.fromkeys(mg.vertices, False)
    for idx, ((u, _), (v, _)) in enumerate(mg.edges):
        incident[u].append(idx)
        if v != u:
            incident[v].append(idx)
            odd[u] = not odd[u]
            odd[v] = not odd[v]
    if any(odd.values()):
        raise ValueError("odd-degree vertex; no Eulerian tour")
    for lst in incident.values():
        lst.reverse()
    return incident


def _hierholzer(
    edges: Sequence[MEdge], incident: dict[int, list[int]], used: list[bool], start: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The closed tour from ``start`` over the unused edges it reaches, smallest id first.

    Consumes ``incident`` and marks ``used``; returns the visit sequence and
    the edge ids of its steps.
    """
    stack: list[tuple[int, int | None]] = [(start, None)]  # (vertex, edge used to get here)
    path: list[tuple[int, int | None]] = []
    while stack:
        v, _ = stack[-1]
        lst = incident[v]
        while lst and used[lst[-1]]:
            lst.pop()
        if not lst:
            path.append(stack.pop())
            continue
        eid = lst.pop()
        used[eid] = True
        (a, _), (b, _) = edges[eid]
        stack.append((b if a == v else a, eid))
    path.reverse()
    return tuple(v for v, _ in path[:-1]), tuple(e for _, e in path[1:])


def find_tour(mg: Multigraph) -> EulerianTour:
    """Hierholzer's algorithm; deterministic given the edge ordering."""
    if len(mg.simple_graph().components()) > 1:
        raise ValueError("multigraph is disconnected")
    incident = _incidence(mg)
    if not mg.edges:
        raise ValueError("no edges to tour")
    # connected with every degree even, so the walk from any vertex covers every edge
    return EulerianTour(*_hierholzer(mg.edges, incident, [False] * len(mg.edges), mg.vertices[0]))


def _interlaced(sequence: Sequence[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """The sorted vertices of a double-occurrence tour and its alternating pairs."""
    positions: dict[int, list[int]] = {}
    for i, v in enumerate(sequence):
        positions.setdefault(v, []).append(i)
    for v, pos in positions.items():
        if len(pos) != 2:
            raise ValueError(f"vertex {v} visited {len(pos)} times; need a 4-regular tour")
    verts = sorted(positions)
    edges = []
    for i, u in enumerate(verts):
        a1, a2 = positions[u]
        for w in verts[i + 1 :]:
            b1, b2 = positions[w]
            if (a1 < b1 < a2) != (a1 < b2 < a2):
                edges.append((u, w))
    return verts, edges


def interlacement(tour: EulerianTour) -> Graph:
    """Two vertices are adjacent iff their visits alternate along the tour."""
    return Graph(*_interlaced(tour.sequence))


# ---------------------------------------------------------------------------
# transition fragments
# ---------------------------------------------------------------------------


def apply_word(mg: Multigraph, measured: Sequence[int], word: str) -> Multigraph:
    """Replace each measured vertex by its X/Y/Z fragment.

    Requires the ends at each measured vertex to carry the four circulant
    slot tags (build_circulant output, possibly already rewired at other
    vertices).  Fragments may disconnect the multigraph; closed wires
    that touch no surviving vertex are dropped.
    """
    check_word(word)
    if len(measured) != len(word):
        raise InputShapeError(f"{len(measured)} measured vertices but {len(word)} letters")
    edges: dict[int, MEdge] = {}
    # each measured vertex's edge ends, (edge id, side) -> tag, kept as edges come and go
    ends_at: dict[int, dict[tuple[int, int], int | None]] = {v: {} for v in measured}
    ids = itertools.count()

    def add(ends: MEdge) -> None:
        eid = next(ids)
        edges[eid] = ends
        for side, (vert, tag) in enumerate(ends):
            if vert in ends_at:
                ends_at[vert][eid, side] = tag

    for ends in mg.edges:
        add(ends)
    for v, letter in zip(measured, word):
        slots: dict[int, tuple[int, int]] = {}  # tag -> (edge id, side)
        for half, tag in ends_at[v].items():
            if tag is None or tag in slots:
                raise ValueError(f"vertex {v} lacks distinct slot tags")
            slots[tag] = half
        if set(slots) != {-2, -1, 1, 2}:
            raise ValueError(f"vertex {v} does not have the four circulant slots")
        # junction partners among v's slots per the letter's pairing
        partner: dict[tuple[int, int], tuple[int, int]] = {}
        for ta, tb in FRAGMENT_PAIRINGS[letter]:
            partner[slots[ta]] = slots[tb]
            partner[slots[tb]] = slots[ta]
        handled: set[tuple[int, int]] = set()

        def walk(half: tuple[int, int]) -> End | None:
            """Cross edges and v's junctions from slot ``half`` to the wire's end off v.

            None when the wire closes on itself without leaving v.
            """
            while True:
                eid, side = half
                handled.update((half, (eid, 1 - side)))
                far = edges[eid][1 - side]
                if far[0] != v:
                    return far
                half = partner[(eid, 1 - side)]
                if half in handled:
                    return None

        # the new edges only join ends off v, so they can go in while v's wires are walked
        for tag in (-2, -1, 1, 2):
            if slots[tag] not in handled and (end := walk(slots[tag])) is not None:
                add((end, walk(partner[slots[tag]])))
        for eid, _ in slots.values():
            # a loop at v holds two of its slots
            for side, (vert, _) in enumerate(edges.pop(eid, ())):
                if vert in ends_at:
                    del ends_at[vert][eid, side]
    survivors = tuple(v for v in mg.vertices if v not in ends_at)
    return Multigraph(survivors, tuple(edges.values()))


def leaf_expansion(
    mg: Multigraph, tour: EulerianTour, v: int, leaf_label: int | None = None
) -> tuple[Multigraph, EulerianTour]:
    """Split v along the tour, adding a double edge between the halves.

    The vertex holding the first tour visit becomes a fresh leaf label;
    the second visit keeps the label v, so the inherited tour's
    interlacement graph equals the old one plus one leaf attached to v.
    """
    if v not in mg.vertices:
        raise ValueError(f"unknown vertex {v}")
    if any(a == b == v for (a, _), (b, _) in mg.edges):
        raise ValueError(f"vertex {v} carries a self-loop; expansion unsupported")
    validate_tour(mg, tour)
    positions = [i for i, w in enumerate(tour.sequence) if w == v]
    if len(positions) != 2:
        raise ValueError(f"vertex {v} must be visited exactly twice")
    if leaf_label is None:
        leaf_label = max(mg.vertices) + 1
    p1, _ = positions
    n = len(tour.sequence)
    visit1_edges = {tour.edge_ids[(p1 - 1) % n], tour.edge_ids[p1]}

    def reassign(eid: int, ends: MEdge) -> MEdge:
        return tuple(
            (leaf_label, tag) if vert == v and eid in visit1_edges else (vert, tag)
            for vert, tag in ends
        )

    new_edges = [reassign(eid, ends) for eid, ends in enumerate(mg.edges)]
    new_edges += [((leaf_label, None), (v, None))] * 2
    m1, m2 = len(mg.edges), len(mg.edges) + 1
    verts = tuple(list(mg.vertices) + [leaf_label])
    new_mg = Multigraph(verts, tuple(new_edges))
    # inherited tour: visit 1 becomes leaf, v2, leaf; visit 2 keeps v
    seq: list[int] = []
    ids: list[int] = []
    for i, w in enumerate(tour.sequence):
        if i == p1:
            seq += [leaf_label, v, leaf_label]
            ids += [m1, m2, tour.edge_ids[i]]
        else:
            seq.append(w)
            ids.append(tour.edge_ids[i])
    new_tour = EulerianTour(tuple(seq), tuple(ids))
    validate_tour(new_mg, new_tour)
    return new_mg, new_tour


# ---------------------------------------------------------------------------
# word classification
# ---------------------------------------------------------------------------


def predict_representative(
    word: str, close: bool, survivors: Sequence[int] | None = None
) -> Graph:
    """Build the graph a word is predicted to leave on the survivors.

    For a closed word of length k there are k survivors, ``survivors[i]``
    sitting just after the i-th measured vertex around the cycle; an open
    word has one more survivor at the head.  Y letters extend the spine,
    X letters hang the following survivor as a leaf off the most recent
    spine vertex, and Z letters cut.  Edges toggle, as CZ twice is no
    edge, so one walk reads every word.  A closed word is read once round
    from just after its last Z.  Without a Z it is read from just after
    its last Y, and its spine closes into a ring by itself: two spine
    survivors cancel and one makes no edge.  An open word is the closed
    word ``"Z" + word`` on the same survivors, cut just before its head.
    Only the all-X closed word, which leaves its survivors complete, is
    read apart.
    """
    check_word(word)
    n_survivors = len(word) if close else len(word) + 1
    if survivors is None:
        survivors = range(n_survivors)
    if len(survivors) != n_survivors:
        raise ValueError(f"need {n_survivors} survivor labels, got {len(survivors)}")
    if len(set(survivors)) < n_survivors:
        raise ValueError(f"repeated survivor labels in {list(survivors)}")
    if close and not word.strip("X"):
        return complete_graph(survivors)
    if not close:
        word = "Z" + word
    k = len(word)
    start = word.rfind("Z") if "Z" in word else word.rfind("Y")
    tail, toggles = survivors[start], []
    for i in range(start + 1, start + 1 + k):
        letter, here = word[i % k], survivors[i % k]
        if letter != "Z" and here != tail:
            toggles.append((here, tail))  # a leaf off the spine's tail, or the spine's next edge
        if letter != "X":
            tail = here  # Y extends the spine, Z starts a new one here
    return Graph(survivors).with_edges_toggled(toggles)


def predict_class(word: str, close: bool) -> ShapeClass:
    """Classify what a measurement word leaves behind, with its witness."""
    rep = predict_representative(word, close)
    return classify_graph(rep)


def tour_interlacement(mg: Multigraph) -> Graph:
    """Interlacement graph of one Eulerian tour per connected component.

    Each component's tour is ``find_tour``'s on that component alone: it
    starts at the component's first vertex in ``mg.vertices`` order and
    takes the smallest edge id first.  The components come in the order
    of their first vertices, each with its vertices sorted; a vertex
    without edges stands alone.
    """
    incident = _incidence(mg)
    used = [False] * len(mg.edges)
    seen: set[int] = set()
    verts: list[int] = []
    edges: list[tuple[int, int]] = []
    for v in mg.vertices:
        if v in seen:
            continue
        if not incident[v]:
            seen.add(v)
            verts.append(v)
            continue
        comp_verts, comp_edges = _interlaced(_hierholzer(mg.edges, incident, used, v)[0])
        seen.update(comp_verts)
        verts.extend(comp_verts)
        edges.extend(comp_edges)
    return Graph(verts, edges)


# ---------------------------------------------------------------------------
# resources and the cross-check
# ---------------------------------------------------------------------------

def zigzag_resource(n: int) -> tuple[Graph, list[int], list[int]]:
    """Closed zigzag: the n-cycle with the server holding every other vertex.

    Returns (graph, measured server vertices, survivor vertices); survivor
    i follows measured i around the cycle.  Another n raises InputShapeError.
    """
    if n % 2 or n < 6:
        raise InputShapeError("zigzag needs even n >= 6")
    g = cycle_graph(range(n))
    measured = [2 * i for i in range(n // 2)]
    survivors = [2 * i + 1 for i in range(n // 2)]
    return g, measured, survivors


def honeycomb_resource(n: int) -> tuple[Graph, list[int], list[int]]:
    """The zigzag cycle with one extra user leaf on every unmeasured vertex."""
    if n % 2 or n < 6:
        raise InputShapeError("honeycomb needs even n >= 6")
    g, measured, survivors = zigzag_resource(n)
    for s in survivors:
        g = g.add_vertex(100 + s, [s])
    return g, measured, survivors


@lru_cache(maxsize=8)
def honeycomb_multigraph(n: int) -> tuple[Multigraph, EulerianTour]:
    """The 4-regular multigraph carrying the honeycomb's equivalence class.

    Built by leaf-expanding the circulant at every unmeasured vertex, so
    the inherited tour's interlacement graph is exactly the honeycomb
    (leaf 100+s attached to survivor s).  The measured vertices keep
    their original slot tags and can be rewired by apply_word.  Cached:
    both results are immutable and apply_word copies the edges.
    """
    mg = build_circulant(n)
    tour = canonical_tour(n)
    for s in range(1, n, 2):
        mg, tour = leaf_expansion(mg, tour, s, leaf_label=100 + s)
    return mg, tour


def path_every_third_resource(n: int) -> tuple[Graph, list[int], list[int]]:
    """An n-vertex path where the server holds every third vertex; an n other than
    3m + 1 raises InputShapeError."""
    if n % 3 != 1 or n < 4:
        raise InputShapeError("needs n = 3m + 1 so both path ends are server-held")
    g = path_graph(range(n))
    measured = [3 * i for i in range(n // 3 + 1)]
    survivors = [v for v in range(n) if v % 3 != 0]
    return g, measured, survivors


#: each resource's builder: n -> (graph, measured server vertices, survivors)
RESOURCE_BUILDERS = {
    "zigzag": zigzag_resource,
    "honeycomb": honeycomb_resource,
    "path_every_third": path_every_third_resource,
}
RESOURCES = tuple(RESOURCE_BUILDERS)
#: the most words one sweep enumerates: honeycomb n = 16, the costliest sweep
#: this admits, takes about 1.5 s on a 2-core x86_64 host (Python 3.11), and
#: n = 18 about 5 s
MAX_SWEEP_WORDS = 3**8


def build_resource(resource: str, n: int) -> tuple[Graph, list[int], list[int]]:
    """The named resource at size n: (graph, measured server vertices, survivors)."""
    if resource not in RESOURCE_BUILDERS:
        raise ValueError(f"unknown resource {resource!r}; use one of {RESOURCES}")
    g, measured, survivors = _built_resource(resource, n)
    return g, list(measured), list(survivors)


@lru_cache(maxsize=8)
def _built_resource(resource: str, n: int) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Cached: the graph is immutable and build_resource copies the vertex lists."""
    g, measured, survivors = RESOURCE_BUILDERS[resource](n)
    return g, tuple(measured), tuple(survivors)


def resource_words(resource: str, n: int) -> Iterator[str]:
    """Every word of the resource at size n; a size the resource cannot build,
    or more than ``MAX_SWEEP_WORDS`` words, raises ValueError before the first."""
    k = len(build_resource(resource, n)[1])
    if 3**k > MAX_SWEEP_WORDS:
        raise ValueError(f"{resource} n={n} has 3^{k} words; sweeps stop at {MAX_SWEEP_WORDS}")
    return ("".join(letters) for letters in itertools.product(AXES, repeat=k))


def simulate_word(g: Graph, measured: Sequence[int], word: str) -> Graph:
    """Measure the listed vertices per the word using the rewrite rules.

    Every letter is measured by ``measure_pauli``'s rule, with its default
    X partner, on one copy of g's adjacency map; g itself is unchanged.
    """
    check_word(word)
    if len(measured) != len(word):
        raise InputShapeError("one letter per measured vertex")
    adj = dict(g.adj)
    for v, letter in zip(measured, word):
        _measure(adj, v, letter, None)
    return Graph._of(adj)


def spine_leaf_word(resource: str, word: str) -> tuple[str, bool]:
    """The word and closure the spine/leaf rule reads for a resource's word.

    The zigzag and the honeycomb read the word itself, closed.  The
    path-every-third resource reads an open word with each survivor
    pair's edge as a letter and the interior letters ``word[1:-1]``
    between the pairs.  A pair's edge reads Y, but Z next to an X end:
    X on a degree-1 server end cuts its neighbour loose, Y or Z only
    deletes the end.
    """
    if resource != "path_every_third":
        return word, True
    pairs = ["Y"] * (len(word) - 1)
    if word[0] == "X":
        pairs[0] = "Z"
    if word[-1] == "X":
        pairs[-1] = "Z"
    return "".join(p + c for p, c in zip(pairs, word[1:-1])) + pairs[-1], False


def crosscheck(n: int, word: str, resource: str = "zigzag") -> bool:
    """Does the word-level prediction match the rewrite-rule simulation?

    For the zigzag and the path-every-third resource the prediction is
    the combinatorial spine/leaf rule, read on ``spine_leaf_word``; for
    the honeycomb it is the transition minor of the leaf-expanded
    multigraph (the naive read-the-leaves-back shortcut fails whenever an
    X byproduct has to cross a leaf edge).  Each compares to the
    rewrite-rule simulation up to local equivalence.  Every
    path-every-third prediction is a caterpillar forest of maximum
    degree 3, so the paper's shape bound follows from the check.
    """
    return _crosscheck(n, word, resource)[0]


def _crosscheck(n: int, word: str, resource: str) -> tuple[bool, Graph]:
    """``crosscheck``'s verdict and the simulated graph it judged."""
    g, measured, survivors = build_resource(resource, n)
    if len(word) != len(measured):
        raise InputShapeError(f"word length must be {len(measured)} for n={n}")
    sim = simulate_word(g, measured, word)
    if resource == "honeycomb":
        mg, _ = honeycomb_multigraph(n)
        pred = tour_interlacement(apply_word(mg, measured, word))
    else:
        pred = predict_representative(*spine_leaf_word(resource, word), survivors=survivors)
    return locally_equivalent(sim, pred), sim


def crosscheck_report(n: int, word: str, resource: str = "zigzag") -> dict:
    """JSON-friendly classification report for one word.

    ``predicted`` labels the spine/leaf graph of ``spine_leaf_word``.  For
    the honeycomb that is the word's shape on the bare zigzag, without the
    leaves, while the check compares against the transition minor, so
    ``predicted`` and ``simulated`` can differ while ``equivalent`` is true.
    """
    ok, sim = _crosscheck(n, word, resource)
    predicted = predict_class(*spine_leaf_word(resource, word))
    return {
        "word": word,
        "resource": resource,
        "n": n,
        "predicted": predicted.label,
        "simulated": classify_graph(sim).label,
        "equivalent": ok,
    }
