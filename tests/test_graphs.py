import ast
import inspect
import itertools
import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lc_oracle
import photonweave
import word_oracle
from photonweave.graphs import (
    AXES,
    LC_DIMENSION_LIMIT,
    Graph,
    ShapeClass,
    _bouchet_solution,
    classify_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_as_dict,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    local_complement,
    locally_equivalent,
    measure_pauli,
    path_graph,
    star_graph,
)
from photonweave.minors import simulate_word

# -- hypothesis strategy for small random graphs --------------------------------


@st.composite
def graphs(draw, min_vertices=1, max_vertices=8):
    n = draw(st.integers(min_vertices, max_vertices))
    labels = list(range(1, n + 1))
    pairs = list(itertools.combinations(labels, 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(labels, [p for p, keep in zip(pairs, mask) if keep])


def reconstruct_from_witness(shape_class: ShapeClass) -> Graph:
    """Rebuild the classified graph from its witness decomposition."""
    verts: list[int] = []
    edges: list[tuple[int, int]] = []
    for comp in shape_class.components:
        verts.extend(comp.spine)
        verts.extend(leaf for leaf, _ in comp.leaves)
        if comp.kind in ("path", "caterpillar", "empty", "star"):
            edges.extend(zip(comp.spine, comp.spine[1:]))
        elif comp.kind in ("cycle", "leafed-cycle"):
            edges.extend(zip(comp.spine, comp.spine[1:]))
            edges.append((comp.spine[-1], comp.spine[0]))
        else:
            raise ValueError("witness for 'other' components is not constructive")
        edges.extend(comp.leaves)
    return Graph(verts, edges)


# -- construction invariants -----------------------------------------------------


def test_rejects_self_loops_and_dangling_edges():
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 1)])
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 3)])


def test_cz_toggles_edges():
    # a CZ between two qubits of a graph state toggles their edge
    p2 = path_graph(2)
    assert p2.with_edges_toggled([(1, 2)]).edges == frozenset()
    built = empty_graph(3).with_edges_toggled([(1, 2)]).with_edges_toggled([(2, 3)])
    assert built.edges == path_graph(3).edges
    with pytest.raises(ValueError):
        p2.with_edges_toggled([(1, 1)])
    with pytest.raises(ValueError):
        p2.with_edges_toggled([(1, 5)])


def rebuilt(g: Graph) -> Graph:
    """The graph read back from its vertex and edge views alone."""
    return Graph(g.vertices, g.edges)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_neighbour_map_matches_edge_definitions(g, data):
    # relabel into a random vertex order, so order preservation is tested
    g = Graph(data.draw(st.permutations(g.vertices)), g.edges)
    edges = g.edges
    assert rebuilt(g) == g
    if g.n > 1:
        assert Graph(g.vertices[::-1], edges) != g  # equality keeps vertex order

    for v in g.vertices:
        nbrs = {u for e in edges if v in e for u in e if u != v}
        assert g.neighbors(v) == nbrs
        pairs = {(a, b) for a in nbrs for b in nbrs if a < b}
        lc = local_complement(g, v)
        assert lc == rebuilt(lc)
        assert lc.vertices == g.vertices and lc.edges == edges ^ pairs
        rest = g.without_vertex(v)
        assert rest == rebuilt(rest)
        assert rest.vertices == tuple(u for u in g.vertices if u != v)
        assert rest.edges == {e for e in edges if v not in e}

    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in edges:
        root[find(a)] = find(b)
    groups: dict[int, set[int]] = {}
    for v in g.vertices:
        groups.setdefault(find(v), set()).add(v)
    assert g.components() == [frozenset(c) for c in groups.values()]

    keep = data.draw(st.sets(st.sampled_from(g.vertices)))
    sub = g.induced(keep)
    assert sub == rebuilt(sub)
    assert sub.vertices == tuple(v for v in g.vertices if v in keep)
    assert sub.edges == {e for e in edges if set(e) <= keep}


# -- local complementation --------------------------------------------------------


def test_lc_examples():
    assert local_complement(path_graph(3), 2).edges == complete_graph([1, 2, 3]).edges
    g = Graph([1, 2, 3], [(1, 2)])
    assert local_complement(g, 3).edges == g.edges  # isolated vertex: no-op
    star = star_graph(0, [1, 2, 3])
    assert local_complement(star, 0).edges == complete_graph([0, 1, 2, 3]).edges


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_lc_involution(g):
    for v in g.vertices:
        assert local_complement(local_complement(g, v), v).edges == g.edges


# -- Pauli measurement rules -------------------------------------------------------


def test_measure_examples():
    p3 = path_graph(3)
    assert measure_pauli(p3, 2, "Z").edges == frozenset()
    assert set(measure_pauli(p3, 2, "Z").vertices) == {1, 3}
    assert measure_pauli(p3, 2, "Y").edges == frozenset({(1, 3)})
    # X on P4 at vertex 2 with the smallest-label partner: path 1-3-4
    assert measure_pauli(path_graph(4), 2, "X").edges == frozenset({(1, 3), (3, 4)})
    with pytest.raises(ValueError):
        measure_pauli(p3, 9, "Z")
    with pytest.raises(ValueError):
        measure_pauli(p3, 1, "Q")


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_z_measure_is_deletion(g):
    for v in g.vertices:
        h = measure_pauli(g, v, "Z")
        assert set(h.vertices) == set(g.vertices) - {v}
        assert h.edges == frozenset(e for e in g.edges if v not in e)


def test_x_partner_choice_is_equivalent():
    g = cycle_graph(6)
    results = [measure_pauli(g, 1, "X", x_partner=w) for w in g.neighbors(1)]
    for other in results[1:]:
        assert locally_equivalent(results[0], other)


@st.composite
def measured_words(draw):
    """A graph, some of its vertices in a random order, and a word for them."""
    g = draw(graphs(max_vertices=10))
    measured = draw(st.permutations(g.vertices))[:draw(st.integers(1, g.n))]
    word = "".join(draw(st.lists(st.sampled_from(AXES), min_size=len(measured),
                                 max_size=len(measured))))
    return g, measured, word


def _outcome(call, *args):
    """The call's result, or the type and message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(measured_words())
def test_simulate_word_matches_the_per_letter_oracle(case):
    g, measured, word = case
    before = dict(g.adj)
    # Graph equality compares the vertex order as well as the neighbour sets
    assert simulate_word(g, measured, word) == word_oracle.simulate_word(g, measured, word)
    assert g.adj == before


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=10))
def test_measure_pauli_matches_the_per_step_oracle(g):
    before = dict(g.adj)
    for v, nbrs in g.adj.items():
        assert local_complement(g, v) == word_oracle.local_complement(g, v)
        for axis, partner in [("Z", None), ("Y", None), ("X", None)] + [("X", w) for w in nbrs]:
            assert measure_pauli(g, v, axis, partner) == word_oracle.measure_pauli(g, v, axis, partner)
    assert g.adj == before


@settings(max_examples=150, deadline=None)
@given(measured_words(), st.data())
def test_bad_measurements_fail_as_the_oracle_does(case, data):
    g, measured, word = case
    before = dict(g.adj)
    unknown = g.n + 1
    j = data.draw(st.integers(0, len(measured) - 1))
    at = data.draw(st.integers(0, len(measured)))
    extra = data.draw(st.sampled_from(AXES))
    twice = measured[:max(at, j + 1)] + [measured[j]] + measured[max(at, j + 1):]
    for order in (measured[:at] + [unknown] + measured[at:], twice):
        got = _outcome(simulate_word, g, order, word + extra)
        assert got == _outcome(word_oracle.simulate_word, g, order, word + extra)
        assert isinstance(got, tuple)  # the unknown or repeated vertex is reached
    v = measured[0]
    strangers = [w for w in g.vertices if w not in g.adj[v]]  # v itself among them
    calls = [(unknown, "Z", None), (unknown, "Q", None), (v, "Q", None)]
    calls += [(v, "X", w) for w in strangers]
    for args in calls:
        got = _outcome(measure_pauli, g, *args)
        assert got == _outcome(word_oracle.measure_pauli, g, *args)
        assert isinstance(got, tuple) or not g.adj[v]  # X on a lone vertex reads no partner
    assert g.adj == before


# -- local equivalence ---------------------------------------------------------------


def test_ghz_star_complete_equivalence():
    for n in range(3, 9):
        star = star_graph(1, range(2, n + 1))
        assert locally_equivalent(star, complete_graph(range(1, n + 1)))


def test_p4_not_star():
    assert not locally_equivalent(path_graph(4), star_graph(1, [2, 3, 4]))


def test_equivalence_is_label_preserving_by_default():
    assert not locally_equivalent(path_graph([1, 2, 3, 4]), path_graph([1, 3, 2, 4]))


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=6))
def test_equivalence_relation(g):
    assert locally_equivalent(g, g)  # reflexive
    assert locally_equivalent(g, Graph(g.vertices[::-1], g.edges))  # whatever the vertex order
    for v in g.vertices:
        h = local_complement(g, v)
        assert locally_equivalent(g, h) and locally_equivalent(h, g)  # symmetric
        for w in h.vertices:
            k = local_complement(h, w)
            assert locally_equivalent(g, k)  # transitive through h


def test_orbit_cap():
    with pytest.raises(RuntimeError):
        list(lc_oracle.lc_orbit(cycle_graph(9), cap=5))


@st.composite
def lc_pairs(draw, max_vertices=8):
    """A graph of any density, often disconnected, and a partner for it.

    The partner is a random LC walk from it (equivalent), such a walk with
    one edge toggled (a near miss) or an unrelated graph on the same
    labels, sometimes listed in reversed vertex order.
    """
    n = draw(st.integers(1, max_vertices))
    labels = list(range(1, n + 1))
    pairs = list(itertools.combinations(labels, 2))
    g = Graph(labels, draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else ())
    h = g
    for v in draw(st.lists(st.sampled_from(labels), max_size=8)):
        h = local_complement(h, v)
    kind = draw(st.sampled_from(["toggle", "other", "walk"]))
    if kind == "toggle" and pairs:
        h = h.with_edges_toggled([draw(st.sampled_from(pairs))])
    elif kind == "other" and pairs:
        h = Graph(labels, draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    if draw(st.booleans()):
        h = Graph(h.vertices[::-1], h.edges)
    return g, h


@settings(max_examples=400, deadline=None)
@given(lc_pairs())
def test_linear_test_matches_orbit_oracle(pair):
    g, h = pair
    assert locally_equivalent(g, h) == lc_oracle.locally_equivalent(g, h) \
        == (lc_oracle.local_cliffords(g, h) is not None)


@st.composite
def solver_systems(draw):
    """One system per component of an lc_pairs pair, as ``locally_equivalent`` solves them.

    The labels are spread out and permuted, and each component's vertices
    come in any order; the partner is read on the same vertices.
    """
    g, h = draw(lc_pairs())
    labels = draw(st.permutations([3 * v + 7 for v in g.vertices]))
    relabel = dict(zip(g.vertices, labels))
    g, h = (Graph([relabel[v] for v in k.vertices], [(relabel[a], relabel[b]) for a, b in k.edges])
            for k in (g, h))
    return [(draw(st.permutations(sorted(comp))), g.adj, h.induced(comp).adj)
            for comp in g.components()]


def _solve(solver, order, adj1, adj2):
    try:
        return solver(order, adj1, adj2)
    except ValueError as exc:
        return str(exc)


_big_star, _edgeless = star_graph(0, range(1, LC_DIMENSION_LIMIT)), empty_graph(8)


@settings(max_examples=400, deadline=None)
@given(solver_systems())
# above the dimension limit: a 21-dimensional star, and an edgeless graph
# solved as one 24-dimensional system
@example([(list(_big_star.vertices), _big_star.adj, _big_star.adj),
          (list(_edgeless.vertices), _edgeless.adj, _edgeless.adj)])
def test_column_solver_matches_row_oracle(systems):
    # the same first solution, None, or the same error
    for order, adj1, adj2 in systems:
        assert (_solve(_bouchet_solution, order, adj1, adj2)
                == _solve(lc_oracle.bouchet_solution_rows, order, adj1, adj2))


def test_twelve_vertex_families_are_answered():
    # the orbit search answered these at its 12-vertex limit; the star's
    # solution space has 13 dimensions, the most measured at n <= 12
    labels = range(12)
    star, complete = star_graph(0, range(1, 12)), complete_graph(labels)
    path, cycle = path_graph(labels), cycle_graph(labels)
    for g in (star, complete, path, cycle):
        assert locally_equivalent(g, g)
        assert locally_equivalent(g, local_complement(local_complement(g, 3), 4))
    assert locally_equivalent(star, complete) and locally_equivalent(complete, star)
    # cut ranks over GF(2) are LC invariants: across {1, 3} the star has 1
    # and the path 2; across {0..5} the star and the path have 1, the cycle 2
    assert not locally_equivalent(star, path) and not locally_equivalent(path, star)
    assert not locally_equivalent(path, cycle) and not locally_equivalent(cycle, star)


def test_components_are_solved_one_at_a_time():
    # as one system the edgeless 12-vertex graph has 36 dimensions, and two
    # 11-vertex stars have 24
    assert locally_equivalent(empty_graph(12), empty_graph(12))
    two_stars = star_graph(0, range(1, 11)).disjoint_union(star_graph(11, range(12, 22)))
    assert locally_equivalent(two_stars, local_complement(two_stars, 0))
    assert not locally_equivalent(two_stars, local_complement(two_stars, 1).add_edge(1, 2))


def test_bool_test_builds_no_frames_and_stops_at_the_first_failure(monkeypatch):
    # locally_equivalent solves no component after the first without a solution
    from photonweave import graphs

    solved = []
    real = graphs._bouchet_solution

    def record(order, adj1, adj2):
        solved.append(order)
        return real(order, adj1, adj2)

    monkeypatch.setattr(graphs, "_bouchet_solution", record)
    rest = path_graph([5, 6, 7, 8]).disjoint_union(path_graph([9, 10, 11, 12]))
    three = path_graph([1, 2, 3, 4]).disjoint_union(rest)
    # the first path becomes a star: the same components, but no longer lc-equivalent
    assert not locally_equivalent(three, star_graph(2, [1, 3, 4]).disjoint_union(rest))
    assert solved == [[1, 2, 3, 4]]
    solved.clear()
    assert locally_equivalent(three, local_complement(three, 6))
    assert solved == [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
    solved.clear()
    assert not locally_equivalent(three, three.add_edge(4, 5))  # the components differ
    assert not locally_equivalent(three, path_graph(11))  # the vertices differ
    assert solved == []


def _connected_graphs(labels):
    pairs = list(itertools.combinations(labels, 2))
    for mask in itertools.product((False, True), repeat=len(pairs)):
        g = Graph(labels, itertools.compress(pairs, mask))
        if len(g.components()) == 1:
            yield g


def test_small_components_are_answered_without_a_solve(monkeypatch):
    # every connected graph on the same one, two or three labels is in one orbit
    solved = []
    real = photonweave.graphs._bouchet_solution

    def record(order, adj1, adj2):
        solved.append(order)
        return real(order, adj1, adj2)

    monkeypatch.setattr(photonweave.graphs, "_bouchet_solution", record)
    four = path_graph([10, 11, 12, 13])
    for labels, count in (([1], 1), ([1, 2], 1), ([1, 2, 3], 4)):
        small = list(_connected_graphs(labels))
        assert len(small) == count  # three paths and the triangle on three labels
        for a, b in itertools.product(small, repeat=2):
            assert b in lc_oracle.lc_orbit(a)
            solved.clear()
            assert locally_equivalent(a.disjoint_union(four), b.disjoint_union(four))
            assert solved == [[10, 11, 12, 13]]  # the four-vertex component is still solved
    # a component connected in one graph but split in the other is rejected unsolved
    solved.clear()
    path, split = path_graph([1, 2, 3]), Graph([1, 2, 3], [(1, 2)])
    assert not locally_equivalent(path, split) and not locally_equivalent(split, path)
    assert not locally_equivalent(path.disjoint_union(four), split.disjoint_union(four))
    assert solved == []


def test_dimension_limit_raises_before_the_walk():
    # star against path has an n-dimensional solution space and no solution,
    # so a walk over it would take seconds at n = 24
    labels = range(LC_DIMENSION_LIMIT + 4)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="null-space dimensions"):
        locally_equivalent(star_graph(0, labels[1:]), path_graph(labels))
    assert time.perf_counter() - t0 < 1.0
    big_star = star_graph(0, range(1, LC_DIMENSION_LIMIT))  # n + 1 = 21 dimensions
    with pytest.raises(ValueError, match="null-space dimensions"):
        locally_equivalent(big_star, big_star)
    # at the limit itself the walk runs: 19 vertices, 20 dimensions
    at_limit = range(LC_DIMENSION_LIMIT - 1)
    assert locally_equivalent(star_graph(0, at_limit[1:]), complete_graph(at_limit))


def test_orbit_search_stays_out_of_the_package():
    # local equivalence has one mechanism in the package, the linear test, and
    # it asks only whether a solution exists; the orbit search and the vertex
    # operators read off a solution are test oracles only
    for path in sorted(Path(photonweave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not names & {"lc_orbit", "ORBIT_CAP", "bouchet_solution_rows",
                            "_local_cliffords", "local_cliffords"}, path.name


def _for_depth(node: ast.AST) -> int:
    inner = max((_for_depth(child) for child in ast.iter_child_nodes(node)), default=0)
    return inner + isinstance(node, ast.For)


def test_row_solver_stays_out_of_the_package():
    # the linear test has one solver in the package, by columns; the row
    # elimination, whose equation loop nests three fors, is a test oracle only
    tree = ast.parse((Path(photonweave.__file__).parent / "graphs.py").read_text())
    solver = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_bouchet_solution")
    assert _for_depth(solver) < 3
    assert _for_depth(ast.parse(inspect.getsource(lc_oracle.bouchet_solution_rows))) == 3


# -- classification --------------------------------------------------------------------


def test_classify_family():
    assert classify_graph(path_graph(5)).label == "path"
    assert classify_graph(star_graph(0, [1, 2, 3])).label == "star"
    assert classify_graph(cycle_graph(6)).label == "cycle"
    assert classify_graph(empty_graph(3)).label == "empty"

    leafed = cycle_graph(6).add_vertex(7).add_edge(1, 7)
    assert classify_graph(leafed).label == "leafed-cycle"

    cat = path_graph(4).add_vertex(5).add_edge(2, 5)
    shape = classify_graph(cat)
    assert shape.label == "caterpillar"
    assert reconstruct_from_witness(shape).edges == cat.edges

    two = cat.disjoint_union(path_graph([10, 11, 12]))
    assert classify_graph(two).label == "caterpillar-forest"

    assert classify_graph(complete_graph(range(5))).label == "other"


def test_classify_witness_reconstructs():
    g = cycle_graph(5).add_vertex(9).add_edge(2, 9)
    shape = classify_graph(g)
    assert reconstruct_from_witness(shape).edges == g.edges


def test_contiguity_flag():
    spine = path_graph(5)
    adjacent = spine.add_vertex(10).add_edge(2, 10).add_vertex(11).add_edge(3, 11)
    assert classify_graph(adjacent).contiguous_leaves is True
    spread = spine.add_vertex(10).add_edge(2, 10).add_vertex(11).add_edge(4, 11)
    assert classify_graph(spread).contiguous_leaves is False


# -- serialization ------------------------------------------------------------------------


def test_json_round_trip():
    g = cycle_graph(5).add_vertex(9).add_edge(1, 9)
    assert graph_from_json(graph_to_json(g)).edges == g.edges
    assert set(graph_from_json(graph_to_json(g)).vertices) == set(g.vertices)
    assert json.loads(graph_to_json(g)) == graph_as_dict(g)


def test_dot_round_trip():
    dot = graph_to_dot(path_graph(3))
    assert dot.count("--") == 2
