"""Case-by-case readings of a measurement word, oracles for the one-walk reading.

``predict_representative`` reads a closed word without Z with a walk of
its own, which wraps the spine into a cycle, drops it below three spine
vertices and returns a complete graph for the all-X word; every other
word is read once from just after its first Z (closed) or from its head
(open), appending edges.  ``caterpillar_layout_graph`` builds a
caterpillar layout with one branch per case: closed, a single open user,
and every other open layout.  The package reads both with one walk that
toggles edges (``minors.predict_representative``); these are the oracles
it is compared with.

``measure_pauli`` and ``simulate_word`` apply the Pauli-measurement rule
one step at a time, each step a new ``Graph``: a local complementation
toggles the pairs of v's neighbours with ``Graph.with_edges_toggled``,
and a deletion is ``Graph.without_vertex``.  The package applies the
same rule in place on one copy of the adjacency map
(``graphs._measure``); these are the oracles it is compared with.

``apply_word`` rewires a multigraph through an edge map keyed by
running ids, re-indexing every edge it adds through a closure and
walking each wire with a nested helper.  ``tour_interlacement`` reads
each component's tour into visit positions and compares every pair of
vertices; its tours, and ``find_tour``'s, list a loop once among a
vertex's edges.  The package indexes the edge ends once, walks both
halves of a wire inline, lists a loop once per end and reads the
interlacement from one parity sweep along the tour (``minors.apply_word``,
``minors.find_tour``, ``minors.tour_interlacement``); these are the
oracles it is compared with.
"""

import itertools
from typing import Sequence

from photonweave.graphs import AXES, Graph, InputShapeError, complete_graph
from photonweave.minors import (
    FRAGMENT_PAIRINGS,
    End,
    EulerianTour,
    MEdge,
    Multigraph,
    check_word,
)
from photonweave.protocols import _check_layout


def predict_representative(
    word: str, close: bool, survivors: Sequence[int] | None = None
) -> Graph:
    """The graph a word is predicted to leave on the survivors, case by case."""
    check_word(word)
    k = len(word)
    n_survivors = k if close else k + 1
    if survivors is None:
        survivors = list(range(n_survivors))
    if len(survivors) != n_survivors:
        raise ValueError(f"need {n_survivors} survivor labels, got {len(survivors)}")
    if len(set(survivors)) < n_survivors:
        raise ValueError(f"repeated survivor labels in {list(survivors)}")
    after = list(survivors if close else survivors[1:])  # after[i] follows measured vertex i

    edges: list[tuple[int, int]] = []
    if close and "Z" not in word:
        y_pos = [i for i, c in enumerate(word) if c == "Y"]
        if not y_pos:
            return complete_graph(after)
        spine = [after[i] for i in y_pos]
        if len(spine) >= 3:
            edges += list(zip(spine, spine[1:])) + [(spine[-1], spine[0])]
        for i, c in enumerate(word):
            if c == "X":
                prev_y = max((p for p in y_pos if p < i), default=y_pos[-1])
                edges.append((after[i], after[prev_y]))
        return Graph(after, edges)

    # a closed word is read once round from just after its first Z, an open one from its head
    start = word.index("Z") + 1 if close else 0
    tail = after[start - 1] if close else survivors[0]
    for i in range(start, start + k):
        letter, here = word[i % k], after[i % k]
        if letter == "X":
            edges.append((here, tail))  # a leaf off the spine's tail
            continue
        if letter == "Y":
            edges.append((tail, here))
        tail = here  # Y extends the spine, Z starts a new one here
    return Graph(survivors, edges)


def caterpillar_layout_graph(layout: Sequence[str], close_cycle: bool = False) -> Graph:
    """The caterpillar (or leafed cycle) a layout describes over users 1..M, case by case."""
    _check_layout(layout, close_cycle)
    word = "".join("Y" if kind == "spine" else "X" for kind in layout)
    if close_cycle:
        if word.count("Y") < 2:
            raise ValueError("closing needs at least two spine users")
        return predict_representative("Y" + word, close=True, survivors=range(len(word) + 1))
    if len(word) == 1:
        return Graph([1])
    return predict_representative(word[1:], close=False, survivors=range(1, len(word) + 1))


def local_complement(g: Graph, v: int) -> Graph:
    """Toggle every pair of v's neighbours."""
    return g.with_edges_toggled(itertools.combinations(sorted(g.neighbors(v)), 2))


def measure_pauli(g: Graph, v: int, axis: str, x_partner: int | None = None) -> Graph:
    """Z deletes v, Y complements at v and deletes it, X runs lc(v), lc(w), lc(v) first."""
    nbrs = g.neighbors(v)
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    if axis == "Z":
        return g.without_vertex(v)
    if axis == "Y":
        return local_complement(g, v).without_vertex(v)
    if not nbrs:
        return g.without_vertex(v)
    w = min(nbrs) if x_partner is None else x_partner
    if w not in nbrs:
        raise ValueError(f"x_partner {w} is not a neighbor of {v}")
    return local_complement(local_complement(local_complement(g, v), w), v).without_vertex(v)


def simulate_word(g: Graph, measured: Sequence[int], word: str) -> Graph:
    """Measure the listed vertices per the word, one new graph per letter."""
    check_word(word)
    if len(measured) != len(word):
        raise InputShapeError("one letter per measured vertex")
    for v, letter in zip(measured, word):
        g = measure_pauli(g, v, letter)
    return g


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
