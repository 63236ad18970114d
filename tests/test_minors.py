import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lc_oracle
import word_oracle
from photonweave import minors
from photonweave.graphs import (
    Graph,
    classify_graph,
    cycle_graph,
    locally_equivalent,
    measure_pauli,
    path_graph,
)
from photonweave.minors import (
    EulerianTour,
    Multigraph,
    spine_leaf_word,
    apply_word,
    build_circulant,
    canonical_tour,
    crosscheck,
    crosscheck_report,
    find_tour,
    honeycomb_multigraph,
    honeycomb_resource,
    interlacement,
    MAX_SWEEP_WORDS,
    leaf_expansion,
    path_every_third_resource,
    predict_class,
    predict_representative,
    resource_words,
    simulate_word,
    tour_interlacement,
    validate_tour,
    zigzag_resource,
)
from photonweave.verify import check_appendix_b

ALL_WORDS = lambda k: ("".join(p) for p in itertools.product("XYZ", repeat=k))


# -- circulant multigraph --------------------------------------------------------


def multigraph(vertices, pairs) -> Multigraph:
    """A multigraph from plain (u, v) pairs, every edge end untagged."""
    return Multigraph(tuple(vertices), tuple(((u, None), (v, None)) for u, v in pairs))


def edge_pairs(mg: Multigraph) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(tuple(sorted((a, b))) for (a, _), (b, _) in mg.edges))


def is_four_regular(mg: Multigraph) -> bool:
    return all(mg.degree(v) == 4 for v in mg.vertices)


def test_circulant_twelve():
    mg = build_circulant(12)
    assert len(mg.edges) == 24
    assert is_four_regular(mg)


def test_circulant_six_degrees():
    mg = build_circulant(6)
    assert all(mg.degree(v) == 4 for v in mg.vertices)
    assert all(len(set(pair)) == 2 for pair in edge_pairs(mg))


def test_circulant_five_is_k5():
    mg = build_circulant(5)
    assert sorted(set(edge_pairs(mg))) == [
        (a, b) for a in range(5) for b in range(a + 1, 5)
    ]
    assert is_four_regular(mg)


def test_circulant_too_small():
    with pytest.raises(ValueError):
        build_circulant(4)


# -- tours ------------------------------------------------------------------------


def test_canonical_tour_structure():
    tour = canonical_tour(12)
    assert tour.sequence[:8] == (0, 2, 1, 3, 2, 4, 3, 5)
    validate_tour(build_circulant(12), tour)


def test_canonical_tour_interlacement_is_cycle():
    for n in (6, 8, 10, 12):
        assert interlacement(canonical_tour(n)).edges == cycle_graph(range(n)).edges


def test_canonical_tour_covers_each_edge_once():
    tour = canonical_tour(10)
    assert sorted(tour.edge_ids) == list(range(20))


def test_canonical_tour_odd_rejected():
    with pytest.raises(ValueError):
        canonical_tour(7)


def test_find_tour_double_triangle():
    mg = multigraph([0, 1, 2], [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
    tour = find_tour(mg)
    validate_tour(mg, tour)
    assert len(tour.sequence) == 6


def test_find_tour_circulant():
    mg = build_circulant(6)
    tour = find_tour(mg)
    validate_tour(mg, tour)
    assert len(tour.edge_ids) == 12


def test_find_tour_disconnected():
    mg = multigraph(
        [0, 1, 2, 3],
        [(0, 1), (0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3), (2, 3)],
    )
    with pytest.raises(ValueError):
        find_tour(mg)


def test_alternating_tour_is_single_edge():
    mg = multigraph([5, 7], [(5, 7)] * 4)
    tour = EulerianTour((5, 7, 5, 7), (0, 1, 2, 3))
    validate_tour(mg, tour)
    assert interlacement(tour).edges == frozenset({(5, 7)})


def test_rerouted_tours_stay_locally_equivalent():
    mg = build_circulant(8)
    tour = find_tour(mg)  # a tour with a different edge ordering than canonical
    assert locally_equivalent(interlacement(tour), cycle_graph(range(8)))


# -- fragments ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [6, 8])
def test_fragment_soundness_exhaustive(n):
    cyc = cycle_graph(range(n))
    for v in range(n):
        for letter in "XYZ":
            rewired = apply_word(build_circulant(n), [v], letter)
            assert all(rewired.degree(u) == 4 for u in rewired.vertices)
            ig = tour_interlacement(rewired)
            assert locally_equivalent(ig, measure_pauli(cyc, v, letter)), (n, v, letter)


def _per_component_interlacement(mg: Multigraph) -> Graph:
    """A checked sub-multigraph, find_tour and interlacement per simple-graph component."""
    verts, edges = [], []
    for comp in mg.simple_graph().components():
        comp_verts = tuple(u for u in mg.vertices if u in comp)
        comp_edges = tuple(e for e in mg.edges if e[0][0] in comp)
        if not comp_edges:
            verts.extend(comp_verts)
            continue
        g = interlacement(find_tour(Multigraph(comp_verts, comp_edges)))
        verts.extend(g.vertices)
        edges.extend(g.edges)
    return Graph(verts, edges)


def test_tour_interlacement_matches_per_component_tours():
    # the one walk over the whole multigraph takes find_tour's tour on each
    # component: the same vertex order and the same edges, word for word
    words = 0
    for n in (6, 8, 10, 12):
        mg, _ = honeycomb_multigraph(n)
        _, measured, _ = honeycomb_resource(n)
        for word in resource_words("honeycomb", n):
            rewired = apply_word(mg, measured, word)
            got, want = tour_interlacement(rewired), _per_component_interlacement(rewired)
            assert got.vertices == want.vertices and got.edges == want.edges, (n, word)
            words += 1
    assert words == 1080
    # a vertex without edges stands alone
    circulant = build_circulant(6)
    lone = Multigraph(circulant.vertices + (99,), circulant.edges)
    got, want = tour_interlacement(lone), _per_component_interlacement(lone)
    assert got.vertices == want.vertices and got.edges == want.edges


def test_all_z_disconnects_everything():
    out = apply_word(build_circulant(6), [0, 2, 4], "ZZZ")
    ig = tour_interlacement(out)
    assert ig.edges == frozenset()
    assert set(ig.vertices) == {1, 3, 5}


def test_apply_word_preserves_regularity():
    out = apply_word(build_circulant(6), [2], "Y")
    assert all(out.degree(v) == 4 for v in out.vertices)


def test_apply_word_length_mismatch():
    with pytest.raises(ValueError):
        apply_word(build_circulant(6), [0, 2], "X")


def retagged(mg: Multigraph, end: tuple[int, int], tag) -> Multigraph:
    """mg with the edge end ``end`` (vertex, tag) carrying ``tag`` instead."""
    return Multigraph(mg.vertices, tuple(tuple((v, tag) if (v, t) == end else (v, t) for v, t in edge)
                                         for edge in mg.edges))


@pytest.mark.parametrize("mg, measured, message", [
    (retagged(build_circulant(6), (0, 1), 2), [0], "vertex 0 lacks distinct slot tags"),
    (retagged(build_circulant(6), (0, 1), None), [0], "vertex 0 lacks distinct slot tags"),
    (retagged(build_circulant(6), (0, 1), 3), [0], "vertex 0 does not have the four circulant slots"),
    # vertex 1 is measured after 0's fragment has rewired the edges at 1
    (retagged(build_circulant(6), (1, 2), -1), [0, 1], "vertex 1 lacks distinct slot tags"),
])
def test_apply_word_rejects_bad_slots(mg, measured, message):
    with pytest.raises(ValueError) as excinfo:
        apply_word(mg, measured, "X" * len(measured))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("measured", [[0, 0], [0, 2, 0], (4, 2, 4, 2)])
def test_apply_word_rejects_repeated_measured_vertices(measured):
    # a repeat is a malformed input, not a vertex whose slots went missing
    with pytest.raises(ValueError) as excinfo:
        apply_word(build_circulant(6), measured, "XY" + "Z" * (len(measured) - 2))
    assert str(excinfo.value) == f"repeated measured vertices in {list(measured)}"


@pytest.mark.parametrize("measured", [[0, 0], [0, 2, 0], (4, 2, 4, 2)])
def test_simulate_word_rejects_repeated_measured_vertices(measured):
    # raised up front, not as an unknown vertex once the first visit deleted it
    with pytest.raises(ValueError) as excinfo:
        simulate_word(cycle_graph(range(6)), measured, "XY" + "Z" * (len(measured) - 2))
    assert str(excinfo.value) == f"repeated measured vertices in {list(measured)}"


@pytest.mark.parametrize("word", ["ZXX", "ZXZ"])
def test_apply_word_exact(word):
    # after Z at 0 and X at 1, vertex 2 carries a loop joining its slots -2 and -1:
    # a final X walks through it, a final Z closes it into a dropped wire.  A
    # rewrite of the wire walk must keep the edge order and each edge's end order
    out = apply_word(build_circulant(5), [0, 1, 2], word)
    assert out.vertices == (3, 4)
    assert out.edges == (
        ((3, 1), (4, -1)), ((3, 2), (4, 1)), ((4, 2), (3, -2)), ((3, -1), (4, -2)),
    )


def test_transition_minor_zigzag_style():
    # measuring out the even vertices leaves a 4-regular multigraph on the odds
    out = apply_word(build_circulant(12), [0, 2, 4, 6, 8, 10], "XXYYXZ")
    assert set(out.vertices) == {1, 3, 5, 7, 9, 11}
    assert all(out.degree(v) == 4 for v in out.vertices)


def _result(call, *args):
    """The call's result, or the type and message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def slot_multigraphs(draw):
    """A multigraph whose vertices each hold the four circulant slots.

    A circulant on 5..12 vertices, a leaf-expanded honeycomb multigraph on
    6..12, or the slots of 1..6 vertices paired at random, which makes
    loops and parallel edges.  Sometimes one end is retagged, to None or
    to a repeated or stray tag.
    """
    kind = draw(st.sampled_from(["circulant", "honeycomb", "paired"]))
    if kind == "circulant":
        mg = build_circulant(draw(st.integers(5, 12)))
    elif kind == "honeycomb":
        mg = honeycomb_multigraph(draw(st.sampled_from([6, 8, 10, 12])))[0]
    else:
        labels = draw(st.permutations(range(draw(st.integers(1, 6)))))
        ends = draw(st.permutations([(v, tag) for v in labels for tag in (-2, -1, 1, 2)]))
        mg = Multigraph(tuple(labels), tuple(zip(ends[::2], ends[1::2])))
    if mg.edges and draw(st.integers(0, 4)) == 0:
        end = draw(st.sampled_from([end for edge in mg.edges for end in edge]))
        mg = retagged(mg, end, draw(st.sampled_from([None, -2, -1, 1, 2, 3])))
    return mg


@st.composite
def rewirings(draw):
    """A slot multigraph, distinct vertices to measure in any order (sometimes
    one it lacks) and a word for them."""
    mg = draw(slot_multigraphs())
    measured = draw(st.permutations(mg.vertices))[:draw(st.integers(1, len(mg.vertices)))]
    if draw(st.integers(0, 9)) == 0:
        measured.insert(draw(st.integers(0, len(measured))), max(mg.vertices) + 1)
    word = "".join(draw(st.lists(st.sampled_from("XYZ"), min_size=len(measured),
                                 max_size=len(measured))))
    return mg, measured, word


@settings(max_examples=400, deadline=None)
@given(rewirings())
def test_apply_word_matches_the_closure_oracle(case):
    # the same Multigraph, vertex and edge order and each edge's end order
    # included, or the same error; the tour interlacement of the result agrees too
    mg, measured, word = case
    got = _result(apply_word, mg, measured, word)
    assert got == _result(word_oracle.apply_word, mg, measured, word)
    if isinstance(got, Multigraph):
        assert (_result(tour_interlacement, got)
                == _result(word_oracle.tour_interlacement, got))


@st.composite
def even_multigraphs(draw):
    """Random closed walks over a few labels, so loops and parallel edges
    are common; the ends' tags are random and the edges shuffled.  Sometimes
    one more edge leaves two degrees odd."""
    labels = draw(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True))
    edges = []
    for walk in draw(st.lists(st.lists(st.sampled_from(labels), min_size=1, max_size=6),
                              max_size=4)):
        tags = draw(st.lists(st.sampled_from([None, -2, -1, 1, 2]), min_size=2 * len(walk),
                             max_size=2 * len(walk)))
        for i, v in enumerate(walk):
            edges.append(((v, tags[2 * i]), (walk[(i + 1) % len(walk)], tags[2 * i + 1])))
    if draw(st.integers(0, 5)) == 0:
        edges.append(((draw(st.sampled_from(labels)), None), (draw(st.sampled_from(labels)), None)))
    return Multigraph(tuple(labels), tuple(draw(st.permutations(edges))))


@settings(max_examples=400, deadline=None)
@given(even_multigraphs())
def test_tours_match_the_position_oracle(mg):
    # the same Graph, vertex order included, and the same tour, or the same
    # error: odd degree, a vertex visited other than twice, disconnected
    got = _result(tour_interlacement, mg)
    assert got == _result(word_oracle.tour_interlacement, mg)
    assert _result(find_tour, mg) == _result(word_oracle.find_tour, mg)


# -- leaf expansion --------------------------------------------------------------------


def test_leaf_expansion_adds_one_leaf():
    mg, tour = build_circulant(6), canonical_tour(6)
    for v in range(6):
        mg2, tour2 = leaf_expansion(mg, tour, v, leaf_label=50)
        want = cycle_graph(range(6)).add_vertex(50).add_edge(v, 50)
        assert interlacement(tour2).edges == want.edges


def test_leaf_expansion_doubles_up():
    mg, tour = build_circulant(6), canonical_tour(6)
    mg2, tour2 = leaf_expansion(mg, tour, 3, leaf_label=50)
    mg3, tour3 = leaf_expansion(mg2, tour2, 3, leaf_label=51)
    want = (
        cycle_graph(range(6))
        .add_vertex(50)
        .add_edge(3, 50)
        .add_vertex(51)
        .add_edge(3, 51)
    )
    assert interlacement(tour3).edges == want.edges


def test_leaf_expansion_counts():
    mg, tour = build_circulant(8), canonical_tour(8)
    mg2, tour2 = leaf_expansion(mg, tour, 5)
    assert len(mg2.vertices) == len(mg.vertices) + 1
    assert len(mg2.edges) == len(mg.edges) + 2
    assert len(interlacement(tour2).vertices) == 9


def test_multigraph_rejects_repeated_vertices():
    with pytest.raises(ValueError, match="repeated vertex"):
        multigraph([0, 1, 0], [(0, 1)])
    # a leaf label already in use would list the vertex twice
    with pytest.raises(ValueError, match="repeated vertex"):
        leaf_expansion(build_circulant(6), canonical_tour(6), 1, leaf_label=3)


def test_leaf_expansion_unknown_vertex():
    with pytest.raises(ValueError):
        leaf_expansion(build_circulant(6), canonical_tour(6), 99)


# -- prediction --------------------------------------------------------------------------


def test_predict_all_x_open_is_star_class():
    rep = predict_representative("XXX", close=False)
    assert classify_graph(rep).label in ("star", "path")
    # the simulation route confirms the open-word rule on an alternating path
    sim = simulate_word(path_graph(range(5)), [1, 3], "XX")
    assert locally_equivalent(
        sim, predict_representative("XX", close=False, survivors=[0, 2, 4])
    )


def test_predict_all_z():
    rep = predict_representative("ZZZ", close=True)
    assert rep.edges == frozenset()
    assert predict_class("ZZZ", close=True).label == "empty"


def test_predict_no_z_with_y_closed_is_leafed_cycle():
    shape = predict_class("XYYYY", close=True)
    assert shape.label == "leafed-cycle"


def test_predict_rejects_repeated_survivors():
    with pytest.raises(ValueError, match="repeated survivor"):
        predict_representative("YY", close=True, survivors=[1, 1])
    with pytest.raises(ValueError, match="repeated survivor"):
        predict_representative("YYY", close=False, survivors=[1, 2, 1, 3])


def test_predict_word_validation():
    with pytest.raises(ValueError):
        predict_class("", close=True)
    with pytest.raises(ValueError):
        predict_class("XQ", close=True)


@pytest.mark.parametrize(
    "word, close, edges",
    [
        ("ZXY", True, {(0, 1), (0, 2)}),  # first Z at the start
        ("XYZYX", True, {(0, 3), (1, 3), (2, 3), (3, 4)}),  # first Z in the middle
        ("YXYZ", True, {(0, 1), (0, 2), (0, 3)}),  # first Z at the end
        ("XYZXYZY", False, {(0, 1), (0, 2), (3, 4), (3, 5), (6, 7)}),  # open, two Zs
    ],
)
def test_predict_representative_exact(word, close, edges):
    rep = predict_representative(word, close)
    assert rep.vertices == tuple(range(len(word) + (not close)))
    assert rep.edges == frozenset(edges)


def test_z_split_locality():
    # letters on one side of a Z never affect the other side's component,
    # both in the prediction and in the zigzag simulation
    g, measured, survivors = zigzag_resource(10)
    for right in ("XX", "XY", "YX", "YY"):
        graphs = {}
        for left in ("X", "Y"):
            word = left + "Z" + right + "Z"
            sim = simulate_word(g, measured, word)
            rep = predict_representative(word, close=True, survivors=survivors)
            inner = {3, 5, 7}  # survivors strictly between the two Z cuts
            graphs[left] = (sim.induced(inner).edges, rep.induced(inner).edges)
        assert graphs["X"] == graphs["Y"]


def _reading(predict, word, close, survivors=None):
    """The graph a prediction gives, or the type and message of the error it raises."""
    try:
        return predict(word, close, survivors)
    except ValueError as exc:
        return type(exc), str(exc)


def test_one_walk_matches_the_case_by_case_reading_on_every_short_word():
    # the same vertex order and the same edges on every word of up to 8 letters
    for k in range(1, 9):
        for word in ALL_WORDS(k):
            for close in (True, False):
                assert (predict_representative(word, close)
                        == word_oracle.predict_representative(word, close)), (word, close)


@st.composite
def labelled_words(draw):
    """A word with survivor labels: unsorted and negative, or a range; sometimes
    one label too few or too many, or a label repeated."""
    word = draw(st.text("XYZ", min_size=1, max_size=9))
    close = draw(st.booleans())
    n = len(word) + (not close) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    if draw(st.booleans()):
        start, step = draw(st.integers(-20, 20)), draw(st.sampled_from([-3, -1, 1, 2]))
        return word, close, range(start, start + step * n, step)
    labels = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    if labels and draw(st.integers(0, 4)) == 0:
        labels[-1] = labels[0]
    return word, close, labels


@settings(max_examples=400, deadline=None)
@given(labelled_words())
def test_one_walk_matches_the_case_by_case_reading_on_any_labels(case):
    word, close, survivors = case
    got = _reading(predict_representative, word, close, survivors)
    assert got == _reading(word_oracle.predict_representative, word, close, survivors)
    if isinstance(got, Graph):
        assert got.vertices == tuple(survivors)


# -- resources and crosscheck ---------------------------------------------------------------


def test_zigzag_resource_shape():
    g, measured, survivors = zigzag_resource(8)
    assert classify_graph(g).label == "cycle"
    assert measured == [0, 2, 4, 6] and survivors == [1, 3, 5, 7]


def test_build_resource_hands_out_fresh_lists():
    g, measured, survivors = minors.build_resource("zigzag", 8)
    measured.append(99)
    survivors.clear()
    again = minors.build_resource("zigzag", 8)
    assert again[0] is g  # the graph is cached, and immutable
    assert again[1:] == ([0, 2, 4, 6], [1, 3, 5, 7])


def test_honeycomb_resource_matches_expanded_multigraph():
    g, _, _ = honeycomb_resource(8)
    mg, tour = honeycomb_multigraph(8)
    assert interlacement(tour).edges == g.edges


def test_path_every_third_resource_shape():
    g, measured, survivors = path_every_third_resource(10)
    assert classify_graph(g).label == "path"
    assert measured == [0, 3, 6, 9]


@pytest.mark.parametrize("n", [6, 8, 14])
def test_zigzag_sweep_exhaustive(n):
    for word in ALL_WORDS(n // 2):
        assert crosscheck(n, word, "zigzag"), word


def test_zigzag_examples():
    assert crosscheck(8, "XXXX", "zigzag")
    report = crosscheck_report(8, "XXXX", "zigzag")
    assert report["equivalent"] is True


def test_honeycomb_spot_words():
    for word in ("YYYY", "XXXX", "XYZX", "ZZZZ", "XZYX"):
        assert crosscheck(8, word, "honeycomb"), word


def test_path_every_third_bound():
    for word in ALL_WORDS(3):
        assert crosscheck(7, word, "path_every_third"), word


@pytest.mark.parametrize("word, effective", [
    ("YZ", "Y"), ("XZ", "Z"), ("ZX", "Z"),  # n = 4: one pair, both ends on it
    ("XYZX", "ZYYZZ"), ("ZXYY", "YXYYY"), ("XXXX", "ZXYXZ"),
])
def testspine_leaf_word(word, effective):
    assert spine_leaf_word("path_every_third", word) == (effective, False)
    assert spine_leaf_word("zigzag", word) == spine_leaf_word("honeycomb", word) == (word, True)


def test_path_every_third_words_match_the_orbit_oracle():
    # every word up to n = 10: the GF(2) check of the spine/leaf
    # prediction gives the orbit search's shape-bound verdict, and each
    # prediction is itself a caterpillar forest of maximum degree 3
    checked = 0
    for n in (4, 7, 10):
        g, measured, survivors = path_every_third_resource(n)
        for word in ALL_WORDS(len(measured)):
            sim = simulate_word(g, measured, word)
            assert crosscheck(n, word, "path_every_third") == lc_oracle.single_leaf_caterpillars(sim)
            pred = predict_representative(*spine_leaf_word("path_every_third", word),
                                          survivors=survivors)
            assert max(map(len, pred.adj.values())) <= 3, word
            kinds = {shape.kind for shape in classify_graph(pred).components}
            assert kinds <= {"empty", "path", "star", "caterpillar"}, word
            report = crosscheck_report(n, word, "path_every_third")
            assert report["predicted"] == report["simulated"], word
            checked += 1
    assert checked == 117


def test_crosscheck_validation():
    # no size cap of its own: the GF(2) test's dimension limit is the only bound
    assert crosscheck(14, "X" * 7, "zigzag")
    assert crosscheck(20, "X" * 10, "zigzag")
    with pytest.raises(ValueError, match="null-space dimensions"):
        crosscheck(20, "X" * 10, "honeycomb")
    with pytest.raises(ValueError):
        crosscheck(8, "XXX", "zigzag")
    with pytest.raises(ValueError):
        crosscheck(8, "XXXX", "torus")


def test_sampled_tours_all_equivalent_to_cycle():
    # rotating and reflecting the circulant reorders Hierholzer's choices,
    # giving genuinely different tours; all stay in the cycle's class
    base = build_circulant(8)
    tours = [find_tour(base)]
    for shift in (1, 3, 5):
        relabeled = Multigraph(
            base.vertices,
            tuple(
                (((a + shift) % 8, ta), ((b + shift) % 8, tb))
                for (a, ta), (b, tb) in base.edges
            ),
        )
        tours.append(find_tour(relabeled))
    seen = set()
    for tour in tours:
        ig = interlacement(tour)
        seen.add(ig.edges)
        assert locally_equivalent(ig, cycle_graph(range(8)))
    assert len(seen) > 1  # the sample really contains distinct tours


def test_zigzag_sweep_n12():
    for word in ALL_WORDS(6):
        assert crosscheck(12, word, "zigzag"), word


def test_honeycomb_sweep_exhaustive_n6():
    for word in ALL_WORDS(3):
        assert crosscheck(6, word, "honeycomb"), word


def test_reachable_classes_stay_in_the_caterpillar_family():
    # every word on every resource lands in the caterpillar / leafed-cycle
    # family; nothing unclassifiable is ever distributed
    family = {"empty", "path", "star", "cycle", "caterpillar",
              "leafed-cycle", "caterpillar-forest"}
    for builder, n in ((zigzag_resource, 8), (honeycomb_resource, 6),
                       (path_every_third_resource, 7)):
        g, measured, _ = builder(n)
        for letters in itertools.product("XYZ", repeat=len(measured)):
            sim = simulate_word(g, measured, "".join(letters))
            assert classify_graph(sim).label in family


def test_honeycomb_sweep_exhaustive_n10():
    for word in ALL_WORDS(5):
        assert crosscheck(10, word, "honeycomb"), word


# -- sizes above n = 12 and the sweep bound ----------------------------------------


def test_path_every_third_sweep_n16():
    for word in resource_words("path_every_third", 16):
        assert crosscheck(16, word, "path_every_third"), word


def test_honeycomb_sample_n14():
    # every 13th word in lexicographic order, and each word of one repeated letter
    sample = {*itertools.islice(resource_words("honeycomb", 14), 0, None, 13),
              "XXXXXXX", "YYYYYYY", "ZZZZZZZ"}
    assert len(sample) == 171
    for word in sample:
        assert crosscheck(14, word, "honeycomb"), word


def test_resource_words():
    assert list(resource_words("zigzag", 6))[:4] == ["XXX", "XXY", "XXZ", "XYX"]
    assert sum(1 for _ in resource_words("honeycomb", 8)) == 81
    assert sum(1 for _ in resource_words("path_every_third", 13)) == 3**5
    with pytest.raises(ValueError, match="3m \\+ 1"):
        resource_words("path_every_third", 8)
    with pytest.raises(ValueError, match="unknown resource"):
        resource_words("torus", 8)


def test_oversize_sweep_is_refused_before_any_word_is_checked(monkeypatch):
    def no_check(*args):
        raise AssertionError("a word was checked")

    monkeypatch.setattr(minors, "crosscheck", no_check)
    resource_words("zigzag", 16)  # 3^8 words: admitted
    t0 = time.perf_counter()
    for resource, n in (("zigzag", 18), ("honeycomb", 18), ("path_every_third", 25),
                        ("zigzag", 40)):
        with pytest.raises(ValueError, match=f"sweeps stop at {MAX_SWEEP_WORDS}"):
            resource_words(resource, n)
    # the oversize zigzag size comes after sweeps that fit in appendix-b's table
    with pytest.raises(ValueError, match=f"sweeps stop at {MAX_SWEEP_WORDS}"):
        check_appendix_b(zigzag_sizes=(6, 40))
    assert time.perf_counter() - t0 < 0.5


def test_honeycomb_report_predicts_the_bare_zigzag_shape():
    # predicted reads the word on the zigzag without leaves; the check uses the minor
    report = crosscheck_report(8, "YYYY", "honeycomb")
    assert (report["predicted"], report["simulated"], report["equivalent"]) == (
        "cycle", "leafed-cycle", True)
    reports = [crosscheck_report(8, w, "honeycomb") for w in resource_words("honeycomb", 8)]
    assert all(r["equivalent"] for r in reports)
    assert sum(r["predicted"] != r["simulated"] for r in reports) == 31
