import ast
import hashlib
import inspect
import itertools
import json
import math
import re
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonweave import optics, protocols

from photonweave.graphs import (
    Graph,
    InputShapeError,
    classify_graph,
    cycle_graph,
    locally_equivalent,
    path_graph,
    star_graph,
)
from photonweave.protocols import (
    BLOCK_KINDS,
    MonteCarloStats,
    REQUESTS,
    block_optics,
    build_block,
    caterpillar_layout_graph,
    caterpillar_optics,
    comb_graph,
    cycle_optics,
    fuse_chain,
    fuse_merge,
    fuse_within,
    ghz_optics,
    monte_carlo,
    path_optics,
    run_caterpillar,
    run_cycle,
    run_ghz,
    run_path,
    run_request,
)
from photonweave.states import (
    NORM_TOL,
    StateVector,
    apply_single_qubit,
    state_locally_equivalent,
    to_state_vector,
)
from optics_oracle import FLOAT_ENGINE_TOL, described_optics, prepare, protocol_description
from stream_oracle import pair_step_pcg64_words
import word_oracle


def textbook_comb(m_users: int) -> Graph:
    """The stylized comb: an M-vertex server spine with one user leaf each."""
    edges = [(200 + j, j) for j in range(1, m_users + 1)]
    edges += [(200 + j, 200 + j + 1) for j in range(1, m_users)]
    return Graph(
        list(range(1, m_users + 1)) + [200 + j for j in range(1, m_users + 1)], edges
    )


X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
Z_MAT = np.diag([1, -1]).astype(complex)


def states_equal_up_to_phase(a: StateVector, b: StateVector, tol: float = NORM_TOL) -> bool:
    if a.qubit_order != b.qubit_order:
        return False
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return abs(abs(overlap) - 1.0) < tol


def reordered(sv: StateVector, order: tuple[int, ...]) -> StateVector:
    """The same state with its qubits listed in ``order``."""
    amps = sv.amplitudes.reshape([2] * sv.n)
    axes = [sv.qubit_order.index(q) for q in order]
    return StateVector(np.transpose(amps, axes).reshape(-1), order)


def corrected(sv: StateVector, corrections) -> StateVector:
    """An optics output with a result's graph-frame H and Z corrections applied in order."""
    for vertex, gate in corrections:
        sv = apply_single_qubit(sv, vertex, {"H": H_MAT, "Z": Z_MAT}[gate])
    return sv


def assert_is_final_graph_state(sv: StateVector, res) -> None:
    want = to_state_vector(res.final_graph)
    assert states_equal_up_to_phase(reordered(sv, want.qubit_order), want)


# -- ghz protocol -----------------------------------------------------------------


def test_ghz_bell_pair():
    res = run_ghz(2)
    assert res.success_probability == Fraction(1, 2)
    assert locally_equivalent(res.final_graph, path_graph(2))


def test_ghz_star_and_exponent():
    res = run_ghz(3)
    assert res.success_exponent == 2
    assert res.final_graph.edges == star_graph(1, [2, 3]).edges


def test_ghz_parity_correction():
    res = run_ghz(3, outcomes="+-+")
    assert res.m_minus == 1
    assert (1, "Z") in res.corrections
    assert (1, "Z") not in run_ghz(3, outcomes="+--").corrections


def test_ghz_parity_restores_state_vector():
    ref, _, _ = ghz_optics(3, outcomes="+++")
    flipped, _, _ = ghz_optics(3, outcomes="+-+")
    # graph-frame Z at one user is a polarization X on that photon
    fixed = apply_single_qubit(flipped, 1, X_MAT)
    assert states_equal_up_to_phase(fixed, ref)
    even, _, _ = ghz_optics(3, outcomes="--+")
    assert states_equal_up_to_phase(even, ref)


def test_ghz_single_flip_toggles_only_the_sign():
    ref, _, _ = ghz_optics(4, outcomes="++++")
    for j in range(4):
        outcomes = "".join("-" if i == j else "+" for i in range(4))
        flipped, _, _ = ghz_optics(4, outcomes=outcomes)
        assert not states_equal_up_to_phase(flipped, ref)
        assert states_equal_up_to_phase(apply_single_qubit(flipped, 1, X_MAT), ref)


def test_ghz_range_checks():
    with pytest.raises(ValueError):
        run_ghz(1)
    with pytest.raises(ValueError):
        run_ghz(9)
    with pytest.raises(ValueError):
        run_ghz(3, outcomes="++")


# ghz and cycle with three users and path with four read three outcomes
@pytest.mark.parametrize("run, m", [(run_ghz, 3), (ghz_optics, 3), (run_path, 4),
                                    (path_optics, 4), (run_cycle, 3), (cycle_optics, 3)])
@pytest.mark.parametrize("outcomes", [["+", "-", "+"], ["", "+-", "+"], ("+", "+", "+"),
                                      b"+++", 5, "++", "+0+", "+ +"])
def test_outcomes_are_a_string_over_plus_minus(run, m, outcomes):
    # a list or tuple of outcome strings is no string, even with '+-' or '' items
    with pytest.raises(InputShapeError, match="outcomes over"):
        run(m, outcomes=outcomes)
    run(m, outcomes="+-+")


def test_request_outcomes_are_a_string():
    with pytest.raises(InputShapeError, match="outcomes over"):
        run_request({"protocol": "path", "M": 3, "outcomes": ["+-", ""]})


# -- path protocol -----------------------------------------------------------------


def test_path_results():
    res = run_path(2)
    assert res.success_probability == Fraction(1, 2)
    assert res.final_graph.edges == path_graph(2).edges
    res = run_path(3, server_participates=True)
    assert res.final_graph.edges == path_graph([1, 2, 3, 0]).edges
    assert res.success_exponent == 2


def test_path_minus_corrections():
    res = run_path(4, outcomes="-+-")
    assert (2, "Z") in res.corrections and (4, "Z") in res.corrections
    assert all((u, "H") in res.corrections for u in (2, 3, 4))


def test_path_corrections_restore_state():
    ref, _, _ = path_optics(4, outcomes="+++")
    for j, outcomes in ((2, "-++"), (3, "+-+"), (4, "++-")):
        flipped, _, _ = path_optics(4, outcomes=outcomes)
        fixed = apply_single_qubit(flipped, j, X_MAT)
        assert states_equal_up_to_phase(fixed, ref), j
    weaver_v, _, _ = path_optics(4, weaver_outcome="V")
    assert states_equal_up_to_phase(apply_single_qubit(weaver_v, 4, X_MAT), ref)


@pytest.mark.parametrize("weaver_outcome", ["", "HV", "X", "+"])
def test_bad_weaver_outcome_is_rejected(weaver_outcome):
    for run in (run_path, path_optics, run_cycle, cycle_optics):
        with pytest.raises(InputShapeError, match="weaver outcome is 'H' or 'V'"):
            run(3, weaver_outcome=weaver_outcome)


def test_comb_intermediate():
    sv, prob, _ = path_optics(3, stop_before_measurement=True)
    assert prob == pytest.approx(0.25, abs=1e-12)
    assert state_locally_equivalent(sv, comb_graph(3))
    assert classify_graph(comb_graph(3)).label == "caterpillar"


def test_comb_flip():
    for m in range(2, 8):
        g = textbook_comb(m)
        for j in range(1, m + 1):
            from photonweave.graphs import measure_pauli

            g = measure_pauli(g, 200 + j, "X")
        assert locally_equivalent(g, path_graph(m)), m


def relabel(g: Graph, mapping: dict[int, int]) -> Graph:
    """The same graph with vertices renamed through ``mapping`` (others kept)."""
    verts = tuple(mapping.get(v, v) for v in g.vertices)
    assert len(set(verts)) == len(verts), "relabeling collides"
    return Graph(verts, [(mapping.get(u, u), mapping.get(v, v)) for u, v in g.edges])


def test_redundant_encoding_swap():
    for m in (2, 3, 4):
        comb = textbook_comb(m)
        for j in range(1, m + 1):
            swapped = relabel(comb, {j: 200 + j, 200 + j: j})
            assert locally_equivalent(comb, swapped)


# -- cycle protocol ------------------------------------------------------------------


def test_cycle_results():
    res = run_cycle(3)
    assert res.success_probability == Fraction(1, 16)
    assert res.final_graph.edges == cycle_graph([0, 1, 2, 3]).edges
    assert run_cycle(4).success_exponent == 5
    with pytest.raises(ValueError):
        run_cycle(2)


def test_cycle_pre_closure_intermediate():
    # before closing, the woven state is a path whose both ends sit at the server;
    # closing it with fuse_within yields the distributed cycle plus the weaver leaf
    pre = path_graph([50, 1, 2, 3, 60])  # 50 = stored photon, 60 = weaver end
    closed = fuse_within(pre, 50, 60)
    want = cycle_graph([50, 1, 2, 3]).add_vertex(60).add_edge(50, 60)
    assert closed.edges == want.edges


# -- caterpillar protocol ---------------------------------------------------------------


def test_caterpillar_degenerates_to_path():
    res = run_caterpillar(["spine"] * 4)
    path = run_path(4)
    assert res.final_graph.edges == path.final_graph.edges
    assert res.success_exponent == path.success_exponent


def test_caterpillar_exponents_and_class():
    res = run_caterpillar(["spine", "spine", "leaf", "spine"])
    assert res.success_exponent == 3
    assert classify_graph(res.final_graph).label == "star"  # K_{1,3} layout
    res = run_caterpillar(["spine", "spine", "leaf", "spine", "spine"])
    assert res.success_exponent == 4
    assert classify_graph(res.final_graph).label == "caterpillar"
    closed = run_caterpillar(["spine", "spine", "leaf", "spine"], close_cycle=True)
    assert closed.success_exponent == 5
    assert classify_graph(closed.final_graph).label == "leafed-cycle"


def _layouts_up_to(m_max: int):
    for m in range(1, m_max + 1):
        for rest in itertools.product(("spine", "leaf"), repeat=m - 1):
            layout = ["spine", *rest]
            yield pytest.param(layout, False, id=",".join(layout))
            if layout.count("spine") >= 2:
                yield pytest.param(layout, True, id=",".join(layout) + "-closed")


@pytest.mark.parametrize("layout,close", _layouts_up_to(5))
def test_caterpillar_corrections_give_final_graph_state(layout, close):
    res = run_caterpillar(layout, close)
    sv, _ = caterpillar_optics(layout, close)
    assert all(gate == "H" for _, gate in res.corrections)
    assert_is_final_graph_state(corrected(sv, res.corrections), res)


BRANCH_RUNNERS = {"ghz": (run_ghz, ghz_optics), "path": (run_path, path_optics),
                  "cycle": (run_cycle, cycle_optics)}


def _outcome_branches():
    """(protocol, keyword arguments) for every detector-outcome branch checked exactly."""

    def strings(n, every):
        if every:
            return ["".join(s) for s in itertools.product("+-", repeat=n)]
        return ["+" * n, "-" * n, ("+-" * n)[:n]]

    for m in range(2, 8):
        for server in (False, True):
            for outcomes in strings(m - server, m <= 5):
                yield "ghz", {"m_users": m, "server_participates": server, "outcomes": outcomes}
    for m in range(2, 6):
        for server in (False, True):
            for outcomes in strings(m - 1, True):
                for weaver in ("H",) if server else ("H", "V"):
                    yield "path", {"m_users": m, "server_participates": server,
                                   "outcomes": outcomes, "weaver_outcome": weaver}
    for m in (3, 4):
        for outcomes in strings(m, True):
            for weaver in ("H", "V"):
                yield "cycle", {"m_users": m, "outcomes": outcomes, "weaver_outcome": weaver}


@pytest.mark.parametrize("protocol,kwargs", [
    pytest.param(protocol, kwargs, id=f"{protocol}-" + "-".join(map(str, kwargs.values())))
    for protocol, kwargs in _outcome_branches()
])
def test_corrections_give_final_graph_state_on_every_branch(protocol, kwargs):
    run, optics_run = BRANCH_RUNNERS[protocol]
    res = run(**kwargs)
    sv, _, record = optics_run(**kwargs)
    assert record == res.measurement_record
    assert_is_final_graph_state(corrected(sv, res.corrections), res)


def _signs(n):
    return ["".join(signs) for signs in itertools.product("+-", repeat=n)]


def test_caterpillar_frame_gives_final_graph_state_on_every_branch():
    # the owner rule on every branch with M <= 5: each layout, open and closed, each outcome
    # string and both weaver outcomes (1,920 branches, and 2 more for the lone user M = 1);
    # a '-' on a leaf is a Z on the spine user before it
    count = 0
    for layout, close in (param.values for param in _layouts_up_to(5)):
        woven = range(1, len(layout) + 1) if close else range(2, len(layout) + 1)
        for outcomes, weaver in itertools.product(_signs(len(woven)), "HV"):
            res, circuit = protocols._caterpillar(layout, close, outcomes, weaver)
            sv, prob = protocols._optics(circuit)
            label = (layout, close, outcomes, weaver)
            assert prob == float(res.success_probability), label
            assert res.measurement_record == (*((f"b{j}", out) for j, out in zip(woven, outcomes)),
                                              ("w" if close else "b1", weaver)), label
            assert_is_final_graph_state(corrected(sv, res.corrections), res)
            count += 1
    assert count == 1922


def test_cycle_frame_is_the_closed_all_spine_caterpillar_frame():
    # the cycle's own rule, before cycles were built as caterpillars, is the oracle
    for m in range(3, 7):
        users = range(1, m + 1)
        for outcomes, weaver in itertools.product(_signs(m), "HV"):
            res = run_cycle(m, outcomes, weaver)
            want = [(u, "H") for u in users]
            want += [(j, "Z") for j, out in zip(users, outcomes) if out == "-"]
            want += [(0, "Z")] if weaver == "V" else []
            assert res.corrections == tuple(want)
            assert res.measurement_record == (*((f"b{j}", out) for j, out in zip(users, outcomes)),
                                              ("w", weaver))
            assert res.protocol == "cycle" and res.success_exponent == m + 1
            assert res.final_graph == cycle_graph([0, *users])
            assert res.resources == {"bell_pairs": m + 1}


@pytest.mark.parametrize("run,optics_run,args", [
    (run_ghz, ghz_optics, (1,)),
    (run_path, path_optics, (8,)),
    (run_cycle, cycle_optics, (2,)),
    (run_caterpillar, caterpillar_optics, (["spine"] * 8,)),
    (run_caterpillar, caterpillar_optics, (["spine", "leaf"], True)),
    (run_path, path_optics, (2, True, None, "X")),
], ids=["ghz-1", "path-8", "cycle-2", "caterpillar-8", "caterpillar-closed-one-spine",
        "path-server-weaver-X"])
def test_optics_rejects_what_its_runner_rejects(run, optics_run, args):
    with pytest.raises(ValueError) as rejected:
        run(*args)
    with pytest.raises(type(rejected.value), match=f"^{re.escape(str(rejected.value))}$"):
        optics_run(*args)


def test_protocols_run_circuits_from_one_site():
    # the builders' circuits go to the engine from _optics alone, past the description check
    tree = ast.parse(Path(protocols.__file__).read_text())
    called = [node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)]
    assert called.count("_run") == 1
    assert called.count("run_circuit") == called.count("_plan") == 0


def _builder_circuits(family):
    """(label, circuit, exact probability) over one protocol family's full user range: GHZ
    on three outcome strings, path on both weaver outcomes and with the server, the comb to
    M = 5, cycle on both weaver outcomes, every caterpillar layout with M <= 5 and the two
    of dual-path at M = 7, and the three blocks."""
    if family == "ghz":
        for m, server in itertools.product(range(2, 9), (False, True)):
            k = m - server
            for outcomes in ("+" * k, "-" * k, ("-+" * k)[:k]):
                result, circuit = protocols._ghz(m, server, outcomes)
                yield (m, server, outcomes), circuit, result.success_probability
    elif family == "path":
        for m in range(2, 8):
            outcomes = ("-+" * m)[:m - 1]
            for server, weaver in ((False, "H"), (False, "V"), (True, "H")):
                result, circuit = protocols._path(m, server, outcomes, weaver)
                yield (m, server, weaver), circuit, result.success_probability
    elif family == "comb":
        for m in range(2, 6):
            result, circuit = protocols._path(m, False, None, "H")
            qubits = circuit.qubits | {j: 200 + j for j in range(1, m + 1)}
            yield m, circuit._replace(detections=[], qubits=qubits), result.success_probability
    elif family == "cycle":
        for m, weaver in itertools.product(range(3, 7), "HV"):
            result, circuit = protocols._cycle(m, ("+-" * m)[:m], weaver)
            yield (m, weaver), circuit, result.success_probability
    elif family == "caterpillar":
        layouts = [param.values for param in _layouts_up_to(5)]
        layouts += [(["spine", "leaf", "spine", "leaf", "spine", "leaf", "spine"], False),
                    (["spine", "spine", "leaf", "spine", "leaf", "spine", "leaf"], True)]
        for layout, close in layouts:
            result, circuit = protocols._caterpillar(layout, close)
            yield (layout, close), circuit, result.success_probability
    else:
        for kind in BLOCK_KINDS:
            (_, exact), circuit = protocols._block(kind)
            yield kind, circuit, exact


def assert_scheduled(circuit) -> None:
    """Each source joins just before the first element on its ports (after the last element
    when none is), and each postselected port an element touches retires after the last."""
    elements, joins, retires, postselect, _ = optics._plan(protocol_description(circuit))
    on = [set(ports) for ports, _ in elements]
    for i, joining in enumerate(joins):
        for _, ports in joining:
            assert min((k for k, touched in enumerate(on) if touched & set(ports)),
                       default=len(elements)) == i
    assert sum(map(len, joins)) == len(circuit.pairs)
    for p in postselect:
        assert [k for k, retiring in enumerate(retires) if p in retiring] == \
            [k for k, touched in enumerate(on) if p in touched][-1:]


@pytest.mark.parametrize("family", ["ghz", "path", "comb", "cycle", "caterpillar", "block"])
def test_builder_circuits_match_their_descriptions(family):
    # _optics runs a builder's circuit on the engine with no description; run_circuit on
    # the description, after _plan's checks, and the same read-out give the same bits.  One
    # retirement dropped leaves every result as it is (the other ports hold one photon each,
    # so the last one does too), so the schedule is checked as well
    count = 0
    for label, circuit, exact in _builder_circuits(family):
        sv, prob = protocols._optics(circuit)
        ref, ref_prob = described_optics(circuit)
        assert sv.amplitudes.tobytes() == ref.amplitudes.tobytes(), label
        assert sv.qubit_order == ref.qubit_order, label
        assert prob == ref_prob == float(exact), label
        assert_scheduled(circuit)
        count += 1
    assert count == {"ghz": 42, "path": 18, "comb": 4, "cycle": 8, "caterpillar": 59,
                     "block": 3}[family]


# -- idle photons: the literal `gbell` description is the oracle ------------------------


def literal_gbell(circuit) -> tuple[StateVector, float]:
    """A protocol circuit run as written, every pair a `gbell` source: the oracle for
    ``protocols._optics``, which runs a pair with an idle photon as `bell_psi`."""
    spec = {"sources": [{"gbell": list(pair)} for pair in circuit.pairs],
            "elements": circuit.elements,
            "postselect": [port for pair in circuit.pairs for port in pair],
            "measure": [{"port": p, "basis": b, "outcome": o} for p, b, o in circuit.detections]}
    state, prob, _ = optics.run_circuit(spec)
    return optics.extract_logical(state, circuit.qubits), prob


def assert_matches_literal_gbell(circuit) -> None:
    sv, prob = protocols._optics(circuit)
    ref, ref_prob = literal_gbell(circuit)
    assert sv.qubit_order == ref.qubit_order
    assert prob == ref_prob
    assert np.max(np.abs(sv.amplitudes - ref.amplitudes)) <= FLOAT_ENGINE_TOL


def test_dual_path_circuits_match_literal_gbell(monkeypatch):
    # every circuit of the dual-path criterion, over each protocol's full user range
    from photonweave import verify

    circuits = []
    real = protocols._optics

    def record(circuit):
        circuits.append(circuit)
        return real(circuit)

    monkeypatch.setattr(protocols, "_optics", record)
    assert len(list(verify._dual_path_cases())) == 46
    monkeypatch.undo()
    assert len(circuits) == 46
    for circuit in circuits:
        assert_matches_literal_gbell(circuit)


@st.composite
def protocol_circuits(draw):
    """A protocol circuit at a small size, with drawn outcomes and weaver outcome."""
    kind = draw(st.sampled_from(["ghz", "path", "cycle", "weave", "block"]))
    weaver = draw(st.sampled_from("HV"))

    def signs(n):
        return draw(st.text("+-", min_size=n, max_size=n))

    if kind == "ghz":
        m, server = draw(st.integers(2, 5)), draw(st.booleans())
        return protocols._ghz(m, server, signs(m - server))[1]
    if kind == "path":
        m = draw(st.integers(2, 4))
        return protocols._path(m, draw(st.booleans()), signs(m - 1), weaver)[1]
    if kind == "cycle":
        m = draw(st.integers(3, 4))
        return protocols._cycle(m, signs(m), weaver)[1]
    if kind == "weave":
        layout, close = draw(st.sampled_from([p.values for p in _layouts_up_to(4)]))
        return protocols._caterpillar(layout, close, signs(len(layout) - (not close)), weaver)[1]
    return protocols._block(draw(st.sampled_from(BLOCK_KINDS)))[1]


@settings(max_examples=120, deadline=None)
@given(protocol_circuits())
def test_idle_photons_match_literal_gbell(circuit):
    assert_matches_literal_gbell(circuit)


def test_a_detected_photon_is_not_idle():
    # no element touches port 101, but a detection reads it, so its pair stays `gbell`
    circuit = protocols._Circuit([(101, 1), (102, 2)], protocols.ghz_weave([1, 2]),
                                 [(101, "PM", "-")], {1: 1, 2: 2, 102: 102})
    assert_matches_literal_gbell(circuit)


@pytest.mark.parametrize("run,args", [(cycle_optics, (4,)),
                                      (caterpillar_optics, (["spine", "spine", "leaf"], True))])
def test_closed_weave_server_pair_stays_gbell(monkeypatch, run, args):
    # both photons of the (50, 0) pair are woven; every user pair has an idle photon
    circuits = []
    real = protocols._optics

    def record(circuit):
        circuits.append(circuit)
        return real(circuit)

    monkeypatch.setattr(protocols, "_optics", record)
    run(*args)
    [spec] = map(protocol_description, circuits)
    assert spec["sources"][0] == {"gbell": [protocols.SERVER_WEAVER, 0]}
    assert all(list(source) == ["bell_psi"] for source in spec["sources"][1:])


def test_every_caterpillar_layout_up_to_seven_users_agrees():
    # every open and closed layout with M <= 7: the exact probability, and a state
    # locally equivalent to the final graph
    layouts = [param.values for param in _layouts_up_to(7)]
    assert len(layouts) == 247
    for layout, close in layouts:
        res = run_caterpillar(layout, close)
        sv, prob = caterpillar_optics(layout, close)
        assert prob == float(res.success_probability), (layout, close)
        assert state_locally_equivalent(sv, res.final_graph), (layout, close)


def test_caterpillar_layout_validation():
    with pytest.raises(ValueError):
        run_caterpillar([])
    with pytest.raises(ValueError):
        run_caterpillar(["leaf", "spine"])
    with pytest.raises(ValueError):
        run_caterpillar(["spine", "leaf"], close_cycle=True)  # one spine vertex
    # a malformed layout reports that before the size cap
    with pytest.raises(InputShapeError, match="layout entries are 'spine' or 'leaf'"):
        caterpillar_optics(["spine"] * 8 + ["stem"])


def _layout_reading(build, layout, close):
    """The graph a layout builds, or the type and message of the error it raises."""
    try:
        return build(layout, close)
    except ValueError as exc:
        return type(exc), str(exc)


def test_one_call_layout_graph_matches_the_case_by_case_reading():
    # every open and closed layout of up to 9 users, the malformed ones included:
    # the same vertex order and edges, or the same error
    layouts = [list(layout) for m in range(10)
               for layout in itertools.product(("spine", "leaf"), repeat=m)]
    for layout in layouts + [["spine", "stem"]]:
        for close in (False, True):
            assert (_layout_reading(caterpillar_layout_graph, layout, close)
                    == _layout_reading(word_oracle.caterpillar_layout_graph, layout, close)), \
                (layout, close)


# -- weaving and fusion ops ---------------------------------------------------------------


def weave_graphs(g1: Graph, m: int, g2: Graph, n: int, aux: int | None = None) -> Graph:
    """Connect two disjoint graphs by weaving qubits m and n.

    The result is the union plus the edge {m, n}, with the fresh weaving
    photon left attached to n only.  The optical gate succeeds with
    probability 1/4 (two postselected interferences); no protocol builds
    on it, so it lives here, tied to optics by ``test_weave_optics_realization``.
    """
    if set(g1.vertices) & set(g2.vertices):
        raise ValueError("graphs must carry disjoint labels")
    g1._require(m)
    g2._require(n)
    if aux is None:
        aux = max(list(g1.vertices) + list(g2.vertices)) + 1
    out = g1.disjoint_union(g2).add_vertex(aux)
    return out.add_edge(m, n).add_edge(n, aux)


def test_weave_two_single_vertices():
    g = weave_graphs(Graph([1]), 1, Graph([2]), 2, aux=3)
    assert g.edges == frozenset({(1, 2), (2, 3)})


def test_weave_p2s_matches_optics_shape():
    g1, g2 = path_graph([1, 2]), path_graph([3, 4])
    woven = weave_graphs(g1, 2, g2, 4, aux=5)
    assert woven.edges == frozenset({(1, 2), (3, 4), (2, 4), (4, 5)})


def test_weave_label_collision():
    with pytest.raises(ValueError):
        weave_graphs(path_graph(2), 1, path_graph(2), 2)


def test_fuse_within_examples():
    fused = fuse_within(path_graph(4), 1, 4)
    assert fused.edges == frozenset({(1, 2), (2, 3), (1, 3), (1, 4)})
    fused = fuse_within(path_graph(6), 1, 6)
    want = cycle_graph([1, 2, 3, 4, 5]).add_vertex(6).add_edge(1, 6)
    assert fused.edges == want.edges
    star = star_graph(0, [1, 2, 3])
    fused = fuse_within(star, 1, 2)
    assert fused.edges == frozenset({(0, 1), (0, 3), (1, 2)})


def test_fuse_within_state_oracle():
    # coincidence projection + rotation reproduces the rewired graph exactly
    for n in (4, 5, 6):
        g = path_graph(n)
        sv = to_state_vector(g)
        amps = sv.amplitudes.copy()
        for idx in range(2**n):
            if ((idx >> (n - 1)) & 1) != (idx & 1):
                amps[idx] = 0.0
        prob = float(np.sum(np.abs(amps) ** 2))
        assert prob == pytest.approx(0.5, abs=1e-12)
        fused_sv = StateVector(amps / np.sqrt(prob), sv.qubit_order)
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        fused_sv = apply_single_qubit(fused_sv, n, hadamard)
        target = to_state_vector(fuse_within(g, 1, n))
        assert np.allclose(fused_sv.amplitudes, target.amplitudes)


def test_fuse_within_rejects_adjacent():
    with pytest.raises(ValueError):
        fuse_within(path_graph(3), 1, 2)


def test_fuse_merge_bell_pairs():
    merged = fuse_merge(path_graph([1, 2]), 2, path_graph([3, 4]), 3, merged=9)
    assert merged.edges == frozenset({(1, 9), (4, 9)})


# -- building blocks and chains ----------------------------------------------------------


def test_build_block_shapes():
    g, p = build_block("path4")
    assert p == Fraction(1, 8) and g.edges == path_graph([-1, 1, 2, -2]).edges
    g, p = build_block("star4")
    assert p == Fraction(1, 8) and locally_equivalent(g, star_graph(1, [-1, 2, -2]))
    g, p = build_block("three")
    assert p == Fraction(1, 4) and g.edges == path_graph([-1, 1, -2]).edges
    with pytest.raises(ValueError):
        build_block("hexagon")


@pytest.mark.parametrize("kind", ["path4", "star4", "three"])
def test_block_optics_agrees(kind):
    sv, prob = block_optics(kind)
    g, p = build_block(kind)
    assert prob == pytest.approx(float(p), abs=1e-12)
    assert state_locally_equivalent(sv, g)


def test_chain_path4_y_joint():
    chain = fuse_chain(["path4", "path4"], measurement_plan=["Y"])
    assert locally_equivalent(chain.result.final_graph, path_graph([1, 2, 3, 4]))
    kept = fuse_chain(["path4", "path4"], measurement_plan=["Y"], keep_server_ends=True)
    assert classify_graph(kept.result.final_graph).label == "path"
    assert len(kept.result.final_graph.vertices) == 6


def test_chain_star4_x_joint():
    chain = fuse_chain(["star4", "star4"], measurement_plan=["X"])
    assert locally_equivalent(chain.result.final_graph, star_graph(1, [2, 3, 4]))


def test_chain_zigzag_shape():
    chain = fuse_chain(["three"] * 3, keep_server_ends=True)
    g = chain.result.final_graph
    shape = classify_graph(g)
    assert shape.label == "path"
    order = shape.components[0].spine
    # strict user/server alternation along the zigzag
    assert all((a > 0) != (b > 0) for a, b in zip(order, order[1:]))


def test_chain_closed_star4_is_leafed_cycle():
    chain = fuse_chain(["star4"] * 3, close_cycle=True)
    assert classify_graph(chain.result.final_graph).label == "leafed-cycle"


@pytest.mark.parametrize(
    "blocks, plan, kwargs, vertices, edges",
    [
        (["star4"] * 3, None, {"close_cycle": True},
         (1, 2, 3, 4, -1000, 5, 6, -1001, -1002),
         [(-1002, 1), (-1002, 5), (-1001, 3), (-1001, 5), (-1000, 1), (-1000, 3),
          (1, 2), (3, 4), (5, 6)]),
        (["three"] * 5, list("YXYZY"), {"close_cycle": True},
         (1, 2, 3, 4, 5),
         [(1, 3), (1, 5), (2, 3), (3, 4)]),
        (["path4", "three"], None, {"close_cycle": True},
         (1, 2, 3, -1000, -1001),
         [(-1001, 1), (-1001, 3), (-1000, 2), (-1000, 3), (1, 2)]),
        (["star4", "path4", "three"], None, {"keep_server_ends": True},
         (1, -1, 2, 3, 4, -1000, 5, -6, -1001),
         [(-1001, 4), (-1001, 5), (-1000, 1), (-1000, 3), (-6, 5), (-1, 1), (1, 2), (3, 4)]),
    ],
)
def test_chain_final_graph_is_pinned(blocks, plan, kwargs, vertices, edges):
    # exact vertex order and edges: each joint vertex is appended when it is merged
    g = fuse_chain(blocks, plan, **kwargs).result.final_graph
    assert g.vertices == vertices
    assert g.edges == frozenset(edges)


def test_chain_exponent_bookkeeping():
    chain = fuse_chain(["path4", "path4"])
    assert chain.result.success_exponent == 3 + 3 + 1
    chain = fuse_chain(["three"] * 3, close_cycle=True)
    assert chain.result.success_exponent == 3 * 2 + 3


def test_chain_failure_policy():
    # one failure at the first joint: the incoming block is rebuilt once
    chain = fuse_chain(["path4", "path4"], coins=[True, False])
    assert chain.succeeded and chain.blocks_consumed == 3 and chain.fusion_attempts == 2
    clean = fuse_chain(["path4", "path4"], coins=[False])
    assert clean.blocks_consumed == 2
    assert chain.result.final_graph.edges == clean.result.final_graph.edges


def test_chain_failure_containment():
    base = fuse_chain(["path4"] * 3, keep_server_ends=True,
                      coins=[False, False]).result.final_graph
    for schedule in ([False, True, False], [True, False, True, True, False]):
        retry = fuse_chain(["path4"] * 3, keep_server_ends=True,
                           coins=schedule).result.final_graph
        assert retry.edges == base.edges


def test_chain_retry_counts_on_mixed_blocks():
    # a retry costs the Bell pairs of the block woven at that joint
    chain = fuse_chain(["path4", "three", "path4"],
                       coins=[True, False, True, True, False])
    assert (chain.blocks_consumed, chain.bell_pairs_used, chain.fusion_attempts) == (6, 22, 5)
    assert chain.result.resources == {"blocks": 6, "bell_pairs": 22, "fusions": 5}
    closed = fuse_chain(["three", "star4"], close_cycle=True,
                        coins=[True, False, True])
    assert (closed.succeeded, closed.blocks_consumed, closed.bell_pairs_used,
            closed.fusion_attempts) == (False, 3, 11, 3)


def test_chain_closure_failure_aborts():
    chain = fuse_chain(["three", "three"], close_cycle=True,
                       coins=[False, True])
    assert not chain.succeeded and chain.result is None


@pytest.mark.parametrize("blocks, close, seed", [
    (["three", "path4", "star4"], True, 12), (["three", "path4", "star4"], True, 1),
    (["path4"] * 4, False, 3), (["star4", "three"], False, 8),
])
def test_chain_coins_from_list_generator_and_stream_agree(blocks, close, seed):
    # the same coins as a list, a generator and the seeded integers(0, 2) stream
    draw = partial(np.random.default_rng(seed).integers, 0, 2)
    coins = [draw() for _ in range(64)]
    stream = iter(partial(np.random.default_rng(seed).integers, 0, 2), None)
    chain = fuse_chain(blocks, close_cycle=close, coins=coins)
    assert chain.fusion_attempts < len(coins)  # the list holds every coin drawn
    assert chain == fuse_chain(blocks, close_cycle=close, coins=(c for c in coins))
    assert chain == fuse_chain(blocks, close_cycle=close, coins=stream)


def test_chain_coins_that_run_out_succeed():
    # two failures at the first joint, then the list is spent: every later fusion succeeds
    chain = fuse_chain(["three"] * 3, close_cycle=True, coins=[True, True])
    assert chain == fuse_chain(["three"] * 3, close_cycle=True, coins=[True, True, False] + [0] * 3)
    assert (chain.succeeded, chain.blocks_consumed, chain.fusion_attempts) == (True, 5, 5)
    assert fuse_chain(["three"] * 3, close_cycle=True) == fuse_chain(["three"] * 3, close_cycle=True,
                                                                       coins=[])


def test_chain_plan_validation():
    with pytest.raises(ValueError):
        fuse_chain(["path4", "path4"], measurement_plan=["Y", "Y"])
    with pytest.raises(ValueError):
        fuse_chain(["path4"])


# -- monte carlo -------------------------------------------------------------------------


def test_monte_carlo_single_trial():
    stats = monte_carlo({"protocol": "ghz", "M": 3}, trials=1, seed=0)
    assert stats.estimated_probability in (0.0, 1.0)
    assert stats.std_error == 0.0


def test_monte_carlo_reproducible():
    req = {"protocol": "ghz", "M": 3}
    a = monte_carlo(req, trials=5000, seed=11)
    b = monte_carlo(req, trials=5000, seed=11)
    assert a == b
    c = monte_carlo(req, trials=5000, seed=12)
    assert a != c


def test_monte_carlo_matches_analytic():
    stats = monte_carlo({"protocol": "ghz", "M": 3}, trials=20000, seed=5)
    assert abs(stats.estimated_probability - 0.25) <= 5 * max(stats.std_error, 1e-9)
    assert not stats.flagged


def expected_blocks_by_enumeration(joints: int, depth: int = 20) -> float:
    """Exhaustive branch enumeration of the retry process, truncated.

    Each joint consumes one block per attempt and succeeds with 1/2; the
    first block is free of retries.
    """
    mean_per_joint = 0.0
    for attempts in range(1, depth + 1):
        mean_per_joint += attempts * (0.5**attempts)
    tail = depth * (0.5**depth)  # everything deeper, bounded crudely
    return 1 + joints * mean_per_joint, 1 + joints * (mean_per_joint + tail)


def test_chain_retry_expectation_vs_enumeration():
    low, high = expected_blocks_by_enumeration(3)
    stats = monte_carlo({"protocol": "chain", "blocks": ["path4"] * 4}, trials=20000, seed=9)
    mean = stats.resource_means["blocks"]
    se = np.sqrt(6.0 / 20000)  # variance of 1 + 3 geometric(1/2) block counts
    assert low - 3 * se <= mean <= high + 3 * se


def per_trial_monte_carlo(
    request: dict, trials: int, seed: int, trial_log: list
) -> MonteCarloStats:
    """Chain Monte Carlo the slow way: one full ``fuse_chain`` per trial, tallied.

    The test oracle for ``monte_carlo``, which builds the chain once and
    draws only the coins: trial t runs on ``default_rng([seed, t])``.
    """
    close = request.get("close", False)
    successes, totals = 0, {"blocks": 0, "bell_pairs": 0, "fusions": 0}
    for t in range(trials):
        draw = partial(np.random.default_rng([seed, t]).integers, 0, 2)
        chain = fuse_chain(request["blocks"], request.get("plan"), close_cycle=close,
                           keep_server_ends=request.get("keep_server_ends", False),
                           coins=iter(draw, None))
        successes += chain.succeeded
        totals["blocks"] += chain.blocks_consumed
        totals["bell_pairs"] += chain.bell_pairs_used
        totals["fusions"] += chain.fusion_attempts
        trial_log.append((t, int(chain.succeeded), chain.blocks_consumed,
                          chain.bell_pairs_used, chain.fusion_attempts))
    return chain_stats(trials, successes, totals, seed, close)


def chain_stats(trials: int, successes: int, totals: dict, seed: int,
                close: bool) -> MonteCarloStats:
    """A chain Monte Carlo's statistics from its success count and resource totals."""
    analytic = 0.5 if close else 1.0
    p_hat = successes / trials
    std_error = math.sqrt(p_hat * (1 - p_hat) / trials)
    if std_error > 0:
        deviation = abs(p_hat - analytic) / std_error
        flagged = deviation > 3.0
    else:
        deviation = 0.0 if p_hat == analytic else None
        flagged = p_hat != analytic
    return MonteCarloStats(trials, successes, p_hat, std_error,
                           {k: v / trials for k, v in totals.items()}, seed,
                           analytic, deviation, flagged)


@st.composite
def chain_requests(draw) -> dict:
    kind = st.sampled_from(BLOCK_KINDS).flatmap(
        lambda k: st.sampled_from([k, k.upper(), k.capitalize()]))
    blocks = draw(st.lists(kind, min_size=2, max_size=5))
    close = draw(st.booleans())
    joints = len(blocks) - 1 + close
    request = {"protocol": "chain", "blocks": blocks, "close": close,
               "keep_server_ends": draw(st.booleans())}
    plan = draw(st.none() | st.lists(st.sampled_from(["X", "Y", "Z", None]),
                                     min_size=joints, max_size=joints))
    if plan is not None:
        request["plan"] = plan
    return request


@settings(max_examples=100, deadline=None)
@given(chain_requests(), st.integers(0, 40), st.integers(1, 40))
def test_monte_carlo_matches_per_trial_fuse_chain(req, seed, trials):
    log, oracle_log = [], []
    stats = monte_carlo(req, trials, seed, trial_log=log)
    assert repr(stats) == repr(per_trial_monte_carlo(req, trials, seed, oracle_log))
    assert log == oracle_log


def test_monte_carlo_chain_trial_past_the_prefix():
    # trial 5 draws 20 coins (a closed chain draws one per block it consumes),
    # past the 16 coins of the 8 outputs computed for every trial
    req = {"protocol": "chain", "blocks": ["three"] * 5, "close": True}
    log, oracle_log = [], []
    stats = monte_carlo(req, 6, 2, trial_log=log)
    assert log[5] == (5, 0, 20, 60, 20)
    assert repr(stats) == repr(per_trial_monte_carlo(req, 6, 2, oracle_log))
    assert log == oracle_log


def retry_loop_rows(blocks: list[str], close: bool, words: np.ndarray,
                    state: np.ndarray) -> tuple[list[tuple], list[bool]]:
    """``_retry_counts`` over each row's coin stream, and whether it drew past the row."""
    rows, past = [], []
    for i, prefix in enumerate(words.tolist()):
        coins, drawn = protocols._fusion_coins(prefix, state, i), []

        def fails() -> int:
            drawn.append(next(coins))
            return drawn[-1]

        ok, *counts = protocols._retry_counts(blocks, close, iter(fails, None))
        rows.append((int(ok), *counts))
        past.append(len(drawn) > 2 * len(prefix))
    return rows, past


def retry_loop_monte_carlo(
    request: dict, trials: int, seed: int, trial_log: list
) -> MonteCarloStats:
    """Chain Monte Carlo with the retry policy run trial by trial in Python.

    The test oracle for the array retry counts of ``monte_carlo``: the
    chain is built once, each block of trials computes the same stream
    prefix, and each trial runs ``_retry_counts`` over its coin stream.
    """
    base = run_request(request)
    successes, totals = 0, {"blocks": 0, "bell_pairs": 0, "fusions": 0}
    for start in range(0, trials, protocols._TRIAL_BLOCK):
        block = np.arange(start, min(start + protocols._TRIAL_BLOCK, trials), dtype=np.uint64)
        words, state = protocols._pcg64_words(seed, block, len(base.blocks) + 3)
        rows, _ = retry_loop_rows(base.blocks, base.close_cycle, words, state)
        for i, (ok, *counts) in enumerate(rows):
            successes += ok
            for key, count in zip(totals, counts):
                totals[key] += count
            trial_log.append((start + i, ok, *counts))
    return chain_stats(trials, successes, totals, seed, base.close_cycle)


@pytest.mark.parametrize("blocks", [["star4", "path4", "three"],
                                    ["three", "path4", "star4", "path4"]])
@pytest.mark.parametrize("close", [False, True])
def test_monte_carlo_matches_the_retry_loop_across_trial_blocks(blocks, close):
    # 4,100 trials: a full block of 4,096 and a second block of 4
    req = {"protocol": "chain", "blocks": blocks, "close": close}
    log, oracle_log = [], []
    stats = monte_carlo(req, 4100, 9, trial_log=log)
    assert repr(stats) == repr(retry_loop_monte_carlo(req, 4100, 9, oracle_log))
    assert log == oracle_log


def coin_words(coin_rows: list[list[int]]) -> np.ndarray:
    """64-bit outputs whose coins (bit 31, then bit 63, of each) are the given rows.

    Every other bit is set from a fixed pattern, which the coins must ignore.
    """
    filler = 0x5A5A_5A5A_5A5A_5A5A & ~(1 << 31 | 1 << 63)
    return np.array([[filler | row[i] << 31 | row[i + 1] << 63 for i in range(0, len(row), 2)]
                     for row in coin_rows], dtype=np.uint64)


def assert_rows_match_retry_loop(blocks: list[str], close: bool, words: np.ndarray) -> list[bool]:
    """The array retry counts flag exactly the rows that draw past their outputs, and
    agree with the retry loop on every other row; returns the flags."""
    _, state = protocols._pcg64_words(3, np.arange(len(words), dtype=np.uint64), 1)
    rows, short = protocols._retry_count_rows(blocks, close, words)
    oracle, past = retry_loop_rows(blocks, close, words, state)
    assert short.tolist() == past
    assert [tuple(row) for row, s in zip(rows.tolist(), past) if not s] == \
        [row for row, s in zip(oracle, past) if not s]
    return past


def test_retry_count_rows_on_the_prefix_boundary():
    blocks = ["path4", "three", "star4"]  # two joints; four outputs hold eight coins
    last_coin = [1, 0, 1, 1, 1, 1, 1, 0]  # the second 0 is the prefix's last coin
    rows = [last_coin, [1, 1, 1, 0, 1, 1, 1, 1], [0] * 8, [1] * 8]
    words = coin_words(rows)
    assert assert_rows_match_retry_loop(blocks, False, words) == [False, True, False, True]
    # closed: the closure coin of the first row lies past the prefix
    assert assert_rows_match_retry_loop(blocks, True, words) == [True, True, False, True]
    counts, _ = protocols._retry_count_rows(blocks, False, words)
    assert counts[0].tolist() == [1, 9, 4 + 2 * 3 + 6 * 4, 8]
    assert counts[2].tolist() == [1, 3, 11, 2]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda outputs: st.lists(
           st.lists(st.integers(0, 2**64 - 1), min_size=outputs, max_size=outputs),
           min_size=1, max_size=6)),
       st.lists(st.sampled_from(BLOCK_KINDS), min_size=2, max_size=9), st.booleans())
def test_retry_count_rows_match_the_retry_loop(rows, blocks, close):
    assert_rows_match_retry_loop(blocks, close, np.array(rows, dtype=np.uint64))


#: seeds of 1 to 12 32-bit words: with the index, 5 or more entropy words
#: overflow SeedSequence's pool of 4 and take its last mixing loop
stream_seeds = st.integers(1, 12).flatmap(
    lambda words: st.integers(1 << 32 * (words - 1), (1 << 32 * words) - 1) | st.just(0))
#: trial indices of one and of two 32-bit words
stream_indices = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1]) | st.integers(0, 2**40)


@settings(max_examples=60, deadline=None)
@given(stream_seeds, st.lists(stream_indices, min_size=1, max_size=6), st.integers(1, 12))
# a seed of 32 words, past the hash constants built at import, and one call
# over indices of one and of two words
@example(2**1000 + 1, [0, 2**32 + 1, 7, 2**40 - 1, 2**32 - 1], 12)
def test_trial_streams_match_default_rng(seed, trials, count):
    words, state = protocols._pcg64_words(seed, np.array(trials, dtype=np.uint64), count)
    for i, t in enumerate(trials):
        bit_generator = np.random.default_rng([seed, t]).bit_generator
        assert words[i].tolist() == bit_generator.random_raw(count).tolist()
        assert (words[i, 0] >> 11) * 2.0**-53 == np.random.default_rng([seed, t]).random()
        # more coins than the prefix holds: the rest come from the stepped-on state
        coins = protocols._fusion_coins(words[i].tolist(), state, i)
        rng = np.random.default_rng([seed, t])
        for _ in range(2 * count + 9):
            assert next(coins) == rng.integers(0, 2)


@settings(max_examples=100, deadline=None)
@given(stream_seeds | st.integers(0, 2**1100),
       st.lists(stream_indices, min_size=1, max_size=40), st.integers(1, 12))
def test_row_step_streams_match_the_pair_step_oracle(seed, trials, count):
    trials = np.array(trials, dtype=np.uint64)
    words, state = protocols._pcg64_words(seed, trials, count)
    oracle_words, oracle_state = pair_step_pcg64_words(seed, trials, count)
    assert words.tolist() == oracle_words.tolist()
    assert state.tolist() == oracle_state.tolist()


#: requests whose reports and CSV logs are pinned below
PINNED_REQUESTS = {
    "ghz M=3": {"protocol": "ghz", "M": 3},
    "path M=5 server": {"protocol": "path", "M": 5, "server": True},
    "closed caterpillar": {"protocol": "caterpillar", "layout": ["spine", "leaf", "spine"],
                           "close": True},
    "chain path4x4 YXZ": {"protocol": "chain", "blocks": ["path4"] * 4, "plan": list("YXZ")},
    "closed three x5 YXYZY": {"protocol": "chain", "blocks": ["three"] * 5, "close": True,
                              "plan": list("YXYZY")},
    "closed star4,path4,three": {"protocol": "chain", "blocks": ["star4", "path4", "three"],
                                 "close": True},
}


# recorded at commit 62df127, the last with the word-pair stream mirror in the
# package: the first 16 hex digits of the SHA-256 of the JSON of
# [as_dict(), trial_log], for 1, 1,000 and 4,097 trials
@pytest.mark.parametrize("name, seed, digests", [
    ("ghz M=3", 0, ["43482e54991cc35f", "56a45ae92af275a9", "756c91af2bae3c43"]),
    ("ghz M=3", 7, ["dab8ac5d2c94e48f", "e125b41316d7377d", "17595afeed7d8839"]),
    ("ghz M=3", 2**32 + 5, ["5b7a0932ff569a88", "90854bdabb0525f1", "204b543fce05b170"]),
    ("ghz M=3", 2**130 + 1, ["db9b7ba6b093fb12", "59ee65a279635bdb", "80f94aff174a6fa9"]),
    ("path M=5 server", 0, ["0adc318a8dcfb58b", "581c326d294fcb36", "39c9d5ae9221d4ad"]),
    ("path M=5 server", 7, ["5e8eb11cfb6df9f4", "4a5dbe061307e7bd", "af707874c2d59d78"]),
    ("path M=5 server", 2**32 + 5, ["326d9f098588b6ed", "f2994a811c014aa5", "37abeda3920be18a"]),
    ("path M=5 server", 2**130 + 1,
     ["f89725ed3335c549", "550382f278402c10", "dbe4aa939368af4d"]),
    ("closed caterpillar", 0, ["ebfd4d9bca70987b", "b2fa830b71e69ebd", "081d384c64780255"]),
    ("closed caterpillar", 7, ["cfb35f6198089b8d", "091302711f00cd95", "a5676d9d3ecc36cc"]),
    ("closed caterpillar", 2**32 + 5,
     ["20243fbeeecf7a35", "522d37accf270454", "8c357fb1e97a28b8"]),
    ("closed caterpillar", 2**130 + 1,
     ["2263fd29410e739a", "ff1780d443d0076c", "2cf8fa17514f51dd"]),
    ("chain path4x4 YXZ", 0, ["92615d8cdc72810d", "f4c0bf6ac970bbd9", "6fabf4ea4ad26cf1"]),
    ("chain path4x4 YXZ", 7, ["e1cd3571beaa2f97", "5a71bfb9c5a706f3", "51937273ea8aca5c"]),
    ("chain path4x4 YXZ", 2**32 + 5,
     ["ff9dba8f5ea1d70b", "9a80923cf13d7720", "a77e6692a9e6b0e5"]),
    ("chain path4x4 YXZ", 2**130 + 1,
     ["c6cd03b68ee79233", "869978cfcd859108", "e4e57693599ae343"]),
    ("closed three x5 YXYZY", 0, ["ad0339a0fe3a7ccf", "54471615c2716eac", "1f0306863a5d15e8"]),
    ("closed three x5 YXYZY", 7, ["35d2c6d2b7bc8caa", "89d3707c10c85254", "76a43efb5dc247a7"]),
    ("closed three x5 YXYZY", 2**32 + 5,
     ["16093de8e909dddd", "2932337846c38dec", "5b7830aceb64b2c7"]),
    ("closed three x5 YXYZY", 2**130 + 1,
     ["bf6ed2389c98acc7", "278ca07da4b43dff", "4398d8fb9b33d536"]),
    ("closed star4,path4,three", 0,
     ["75e78d3992a65a19", "8767cbda87192340", "46e86c52b4cdeea5"]),
    ("closed star4,path4,three", 7,
     ["8a9ce8fa5f57f0e3", "4564a5fec2accfa7", "86f52f6ba1ac237d"]),
    ("closed star4,path4,three", 2**32 + 5,
     ["c99f08d5b08a2cde", "0b2ee8a4de6aea80", "2c251a18dc005392"]),
    ("closed star4,path4,three", 2**130 + 1,
     ["7d2f6a3f090db115", "3bbb6497c24d0093", "f373c07971adadd7"]),
])
def test_monte_carlo_reports_pinned(name, seed, digests):
    found = []
    for trials in (1, 1000, 4097):
        log = []
        stats = monte_carlo(PINNED_REQUESTS[name], trials, seed, trial_log=log)
        text = json.dumps([stats.as_dict(), log])
        found.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert found == digests


@pytest.mark.parametrize("trials, seed, error", [
    ("5", 1, TypeError), (2.0, 1, TypeError), (True, 1, TypeError), (None, 1, TypeError),
    (0, 1, ValueError), (-3, 1, ValueError),
    (5, "3", TypeError), (5, None, TypeError), (5, 1.5, TypeError), (5, False, TypeError),
    (5, np.int64(3), TypeError), (5, -1, ValueError),
])
def test_monte_carlo_checks_trials_and_seed(trials, seed, error):
    with pytest.raises(error):
        monte_carlo({"protocol": "ghz", "M": 3}, trials, seed)


# recorded from the per-trial implementation
@pytest.mark.parametrize("req, stats, rows", [
    ({"protocol": "chain", "blocks": ["path4"] * 4},
     {"analytic_probability": 1.0, "deviation_sigmas": 0.0, "estimated_probability": 1.0,
      "flagged": False, "resource_means": {"bell_pairs": 27.748, "blocks": 6.937,
                                           "fusions": 5.937},
      "rng_seed": 3, "std_error": 0.0, "successes": 2000, "trials": 2000},
     [(0, 1, 5, 20, 4), (1, 1, 7, 28, 6), (2, 1, 8, 32, 7), (3, 1, 4, 16, 3),
      (4, 1, 6, 24, 5), (5, 1, 4, 16, 3), (6, 1, 6, 24, 5), (7, 1, 10, 40, 9),
      (8, 1, 4, 16, 3), (9, 1, 5, 20, 4), (10, 1, 5, 20, 4), (11, 1, 5, 20, 4),
      (12, 1, 4, 16, 3), (13, 1, 6, 24, 5), (14, 1, 6, 24, 5), (15, 1, 5, 20, 4),
      (16, 1, 12, 48, 11), (17, 1, 4, 16, 3), (18, 1, 5, 20, 4), (19, 1, 8, 32, 7)]),
    ({"protocol": "chain", "blocks": ["three"] * 5, "close": True},
     {"analytic_probability": 0.5, "deviation_sigmas": 1.9696473625445412,
      "estimated_probability": 0.522, "flagged": False,
      "resource_means": {"bell_pairs": 26.694, "blocks": 8.898, "fusions": 8.898},
      "rng_seed": 3, "std_error": 0.0111695120752878, "successes": 1044, "trials": 2000},
     [(0, 0, 6, 18, 6), (1, 1, 8, 24, 8), (2, 0, 9, 27, 9), (3, 0, 5, 15, 5),
      (4, 0, 7, 21, 7), (5, 0, 8, 24, 8), (6, 0, 7, 21, 7), (7, 1, 13, 39, 13),
      (8, 1, 7, 21, 7), (9, 0, 6, 18, 6), (10, 0, 6, 18, 6), (11, 1, 7, 21, 7),
      (12, 0, 7, 21, 7), (13, 0, 8, 24, 8), (14, 0, 9, 27, 9), (15, 1, 6, 18, 6),
      (16, 1, 19, 57, 19), (17, 1, 6, 18, 6), (18, 0, 8, 24, 8), (19, 1, 10, 30, 10)]),
])
def test_monte_carlo_chain_pinned(req, stats, rows):
    log = []
    assert monte_carlo(req, 2000, 3, trial_log=log).as_dict() == stats
    assert log[:20] == rows


def test_monte_carlo_builds_the_chain_once(monkeypatch):
    calls = []

    def counting_fuse_merge(*args):
        calls.append(args)
        return fuse_merge(*args)

    monkeypatch.setattr(protocols, "fuse_merge", counting_fuse_merge)
    monte_carlo({"protocol": "chain", "blocks": ["path4"] * 4}, 200, 1)
    assert len(calls) == 3


def test_run_request_dispatch():
    res = run_request({"protocol": "cycle", "M": 3})
    assert res.success_exponent == 4
    with pytest.raises(ValueError):
        run_request({"protocol": "teleport"})


@pytest.mark.parametrize("run", [run_request, lambda request: monte_carlo(request, 10, 1)],
                         ids=["run_request", "monte_carlo"])
@pytest.mark.parametrize("request_, message", [
    ({"protocol": "cycle", "M": 3, "server": True}, "a cycle request does not read 'server'"),
    ({"protocol": "ghz", "M": 3, "close": True}, "a ghz request does not read 'close'"),
    ({"protocol": "path", "M": 3, "weaver_outcome": "V"},
     "a path request does not read 'weaver_outcome'"),
    ({"protocol": "chain", "blocks": ["three", "three"], "clsoe": True},
     "a chain request does not read 'clsoe'"),
    ({"protocol": "ghz", "server": True}, "a ghz request needs 'M'"),
    ({"protocol": "chain", "plan": ["Y"]}, "a chain request needs 'blocks'"),
])
def test_run_request_rejects_unread_and_missing_keys(run, request_, message):
    with pytest.raises(InputShapeError) as excinfo:
        run(request_)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("run", [run_request, lambda request: monte_carlo(request, 10, 1)],
                         ids=["run_request", "monte_carlo"])
@pytest.mark.parametrize("request_, message", [
    ({"protocol": "ghz", "M": 3, "server": "no"}, "server_participates must be a bool, got 'no'"),
    ({"protocol": "caterpillar", "layout": ["spine", "spine"], "close": "no"},
     "close_cycle must be a bool, got 'no'"),
    ({"protocol": "chain", "blocks": [1, 2]},
     "unknown block kind 1"),
    ({"protocol": "ghz", "M": "3"}, "m_users must be an int, got '3'"),
    ({"protocol": "chain", "blocks": ["three", "three"], "plan": 5},
     "measurement_plan must be a list, a tuple or None, got 5"),
    ({"protocol": "path", "M": True}, "m_users must be an int, got True"),
    ({"protocol": "caterpillar", "layout": "spine,leaf"},
     "layout must be a list or a tuple, got 'spine,leaf'"),
    ({"protocol": "chain", "blocks": ["three", "three"], "keep_server_ends": 1},
     "keep_server_ends must be a bool, got 1"),
])
def test_run_request_rejects_values_of_the_wrong_type(run, request_, message):
    with pytest.raises(InputShapeError) as excinfo:
        run(request_)
    assert str(excinfo.value) == message


# each runner checks the types of the values it reads, so a direct call, which
# no request check sees, rejects them too: a "no" is no False, a string no list
@pytest.mark.parametrize("call, args, kwargs, message", [
    (run_ghz, (3, "no"), {}, "server_participates must be a bool, got 'no'"),
    (ghz_optics, (3, "no"), {}, "server_participates must be a bool, got 'no'"),
    (run_path, (3, "no"), {}, "server_participates must be a bool, got 'no'"),
    (path_optics, (3, "no"), {}, "server_participates must be a bool, got 'no'"),
    (path_optics, (3,), {"stop_before_measurement": 1},
     "stop_before_measurement must be a bool, got 1"),
    (run_caterpillar, (["spine", "spine"], "no"), {}, "close_cycle must be a bool, got 'no'"),
    (caterpillar_optics, (["spine", "spine"], "no"), {}, "close_cycle must be a bool, got 'no'"),
    (caterpillar_layout_graph, (["spine", "spine"], "no"), {},
     "close_cycle must be a bool, got 'no'"),
    (fuse_chain, (["three", "three"],), {"close_cycle": "no"},
     "close_cycle must be a bool, got 'no'"),
    (fuse_chain, (["three", "three"],), {"keep_server_ends": "no"},
     "keep_server_ends must be a bool, got 'no'"),
    (fuse_chain, ([1, 2],), {}, "unknown block kind 1"),
    (fuse_chain, ("path4",), {}, "blocks must be a list or a tuple, got 'path4'"),
    (fuse_chain, (["three", "three"], 5), {},
     "measurement_plan must be a list, a tuple or None, got 5"),
    (fuse_chain, (["three", "three"], "Y"), {},
     "measurement_plan must be a list, a tuple or None, got 'Y'"),
    (run_ghz, ("3",), {}, "m_users must be an int, got '3'"),
    (ghz_optics, ("3",), {}, "m_users must be an int, got '3'"),
    (run_path, (3.0,), {}, "m_users must be an int, got 3.0"),
    (path_optics, (True,), {}, "m_users must be an int, got True"),
    (run_cycle, (3.0,), {}, "m_users must be an int, got 3.0"),
    (cycle_optics, (3.0,), {}, "m_users must be an int, got 3.0"),
    (run_caterpillar, ("spine",), {}, "layout must be a list or a tuple, got 'spine'"),
    (caterpillar_layout_graph, (5,), {}, "layout must be a list or a tuple, got 5"),
])
def test_direct_calls_reject_values_of_the_wrong_type(call, args, kwargs, message):
    with pytest.raises(InputShapeError) as excinfo:
        call(*args, **kwargs)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("run", [run_request, lambda request: monte_carlo(request, 10, 1)],
                         ids=["run_request", "monte_carlo"])
@pytest.mark.parametrize("request_, message", [
    ({"protocol": "path", "M": 3, "server": "no"}, "server_participates must be a bool, got 'no'"),
    ({"protocol": "chain", "blocks": ["three", "three"], "close": "no"},
     "close_cycle must be a bool, got 'no'"),
    ({"protocol": "chain", "blocks": "path4"}, "blocks must be a list or a tuple, got 'path4'"),
    ({"protocol": "cycle", "M": 3.0}, "m_users must be an int, got 3.0"),
])
def test_requests_reach_the_runners_type_checks(run, request_, message):
    with pytest.raises(InputShapeError) as excinfo:
        run(request_)
    assert str(excinfo.value) == message


def test_runners_take_tuples_and_numpy_ints():
    assert run_ghz(np.int64(3)) == run_ghz(3)
    assert run_caterpillar(("spine", "leaf")) == run_caterpillar(["spine", "leaf"])
    assert (fuse_chain(("path4", "path4"), ("Y",)).result
            == fuse_chain(["path4", "path4"], ["Y"]).result)


#: wrong-typed values for each kind of parameter; None is the default of a plan
_NOT_ANY = (st.text(max_size=6) | st.floats() | st.dictionaries(st.text(max_size=3), st.integers())
            | st.sets(st.integers(), max_size=3))
_WRONG = {
    "int": _NOT_ANY | st.none() | st.booleans(),
    "bool": _NOT_ANY | st.none() | st.integers(),
    "list": _NOT_ANY | st.none() | st.integers(),
    "plan": _NOT_ANY | st.integers(),
}
#: the kind of each checked parameter of each entry point
_ENTRY_POINTS = {
    run_ghz: {"m_users": "int", "server_participates": "bool"},
    ghz_optics: {"m_users": "int", "server_participates": "bool"},
    run_path: {"m_users": "int", "server_participates": "bool"},
    path_optics: {"m_users": "int", "server_participates": "bool",
                  "stop_before_measurement": "bool"},
    run_cycle: {"m_users": "int"},
    cycle_optics: {"m_users": "int"},
    run_caterpillar: {"layout": "list", "close_cycle": "bool"},
    caterpillar_optics: {"layout": "list", "close_cycle": "bool"},
    caterpillar_layout_graph: {"layout": "list", "close_cycle": "bool"},
    fuse_chain: {"blocks": "list", "measurement_plan": "plan", "close_cycle": "bool",
                 "keep_server_ends": "bool"},
}
#: a valid value of each checked parameter
_VALID = {"m_users": 3, "server_participates": False, "stop_before_measurement": False,
          "layout": ["spine", "leaf"], "close_cycle": False, "blocks": ["three", "three"],
          "measurement_plan": ["Y"], "keep_server_ends": False}


@pytest.mark.parametrize("call, parameter, kind", [
    pytest.param(call, parameter, kind, id=f"{call.__name__}-{parameter}")
    for call, kinds in _ENTRY_POINTS.items() for parameter, kind in kinds.items()
])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_entry_points_reject_every_wrong_type(call, parameter, kind, data):
    value = data.draw(_WRONG[kind], label=parameter)
    kwargs = {name: _VALID[name] for name in _ENTRY_POINTS[call]} | {parameter: value}
    with pytest.raises(InputShapeError) as excinfo:
        call(**kwargs)
    assert repr(value) in str(excinfo.value)


def test_run_request_passes_coins_to_the_runner():
    chain = run_request({"protocol": "chain", "blocks": ["three", "three"]}, [True, False])
    assert chain.blocks_consumed == 3
    with pytest.raises(TypeError):
        run_request({"protocol": "ghz", "M": 3}, [True, False])


#: a value of the right type for each request key
REQUEST_VALUES = {"M": 3, "server": True, "outcomes": "++", "layout": ["spine", "leaf"],
                  "close": False, "blocks": ["three", "path4"], "plan": ["Y"],
                  "keep_server_ends": True}


@pytest.mark.parametrize("protocol", list(REQUESTS))
def test_run_request_calls_the_runner_the_module_holds(monkeypatch, protocol):
    # a wrapper set on the module (as a call tracer sets it) sees each call,
    # with the required keys first and positional, and the optional ones by name
    runner, required, optional = REQUESTS[protocol]
    signature = inspect.signature(getattr(protocols, runner))
    calls = []

    def spy(*args, **kwargs):
        signature.bind(*args, **kwargs)
        calls.append(args)

    monkeypatch.setattr(protocols, runner, spy)
    run_request({"protocol": protocol, **{key: REQUEST_VALUES[key] for key in required + optional}})
    assert calls == [tuple(REQUEST_VALUES[key] for key in required)]


def test_readme_request_table_matches_requests():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if not line.startswith("| `") or len(cells) != 3:
            continue
        # a cell's keys are its backticked names outside parentheses
        required, optional = (tuple(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell)))
                              for cell in cells[1:])
        for protocol in re.findall(r"`(\w+)`", cells[0]):
            table[protocol] = (required, optional)
    assert table == {protocol: (required, optional)
                     for protocol, (_, required, optional) in REQUESTS.items()}


def test_weave_optics_realization():
    # weaving two Bell pairs through the auxiliary-photon gate: success 1/4
    # and the same shape the graph-level operation produces
    from optics_oracle import apply_hwp, apply_pbs, postselect_coincidence
    from photonweave.optics import extract_logical

    s = prepare([{"plus": 0}, {"gbell": [1, 2]}, {"gbell": [3, 4]}])
    for target in (2, 4):
        s = apply_pbs(s, 0, target)
        s = apply_hwp(s, 0, 22.5)
    s, prob = postselect_coincidence(s, [0, 1, 2, 3, 4])
    assert prob == pytest.approx(0.25, abs=1e-12)
    sv = extract_logical(s, {1: 1, 2: 2, 3: 3, 4: 4, 0: 5})
    woven = weave_graphs(path_graph([1, 2]), 2, path_graph([3, 4]), 4, aux=5)
    assert state_locally_equivalent(sv, woven)


def test_mixed_blocks_distribute_caterpillars():
    # path- and star-shaped blocks combined yield caterpillar states
    for blocks in (["path4", "star4"], ["star4", "path4", "three"]):
        chain = fuse_chain(blocks, measurement_plan=["Y"] * (len(blocks) - 1))
        label = classify_graph(chain.result.final_graph).label
        assert label in ("caterpillar", "star", "path", "caterpillar-forest"), (blocks, label)
