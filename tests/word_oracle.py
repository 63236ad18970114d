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
"""

import itertools
from typing import Sequence

from photonweave.graphs import AXES, Graph, InputShapeError, complete_graph
from photonweave.minors import check_word
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
