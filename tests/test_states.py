import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lc_oracle
import photonweave
import stabilizer_oracle
from photonweave.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    local_complement,
    locally_equivalent,
    measure_pauli,
    path_graph,
    star_graph,
)
from photonweave.optics import extract_logical, run_circuit
from photonweave.states import (
    NORM_TOL,
    STATE_VECTOR_LIMIT,
    StateVector,
    apply_single_qubit,
    graph_form,
    state_locally_equivalent,
    to_state_vector,
)
from conftest import random_graph

# -- state-vector oracles ----------------------------------------------------------

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_eigenstates(axis: str) -> list[np.ndarray]:
    """The +1 and -1 eigenvectors of a Pauli, in that order."""
    vals, vecs = np.linalg.eigh(PAULI[axis])
    order = np.argsort(-vals)
    return [vecs[:, i].copy() for i in order]


def project_qubit(sv: StateVector, qubit: int, direction: np.ndarray) -> tuple[float, StateVector | None]:
    """Project one qubit onto a single-qubit state and drop it.

    Returns the outcome probability and the renormalized post-state on the
    remaining qubits (None for probability 0).
    """
    bit = sv.bit_of(qubit)
    n = sv.n
    amps = sv.amplitudes.reshape([2] * n)
    axis = n - 1 - bit  # numpy axis of this qubit
    contracted = np.tensordot(np.conj(direction), amps, axes=([0], [axis]))
    flat = contracted.reshape(-1)
    prob = float(np.sum(np.abs(flat) ** 2))
    if prob < NORM_TOL:
        return 0.0, None
    rest = tuple(q for q in sv.qubit_order if q != qubit)
    return prob, StateVector(flat / np.sqrt(prob), rest)


def schmidt_rank(sv: StateVector, part: set[int]) -> int:
    """Rank of the bipartition (part | rest); 1 means product across the cut."""
    bits_a = sorted(sv.bit_of(q) for q in part)
    bits_b = sorted(sv.bit_of(q) for q in set(sv.qubit_order) - part)
    mat = np.zeros((2 ** len(bits_a), 2 ** len(bits_b)), dtype=complex)
    for idx, amp in enumerate(sv.amplitudes):
        ia = sum(((idx >> b) & 1) << k for k, b in enumerate(bits_a))
        ib = sum(((idx >> b) & 1) << k for k, b in enumerate(bits_b))
        mat[ia, ib] = amp
    return int(np.linalg.matrix_rank(mat, tol=1e-8))


def cz_matrix_oracle(g: Graph) -> np.ndarray:
    """Build the graph state by explicit CZ matrices on all-|+> (oracle)."""
    n = len(g.vertices)
    pos = {v: i for i, v in enumerate(g.vertices)}
    psi = (np.ones(2**n) / 2 ** (n / 2)).astype(complex)
    for u, v in g.edges:
        for idx in range(2**n):
            if (idx >> (n - 1 - pos[u])) & 1 and (idx >> (n - 1 - pos[v])) & 1:
                psi[idx] *= -1
    return psi


def test_single_vertex_is_plus():
    sv = to_state_vector(empty_graph(1))
    assert np.allclose(sv.amplitudes, np.array([1, 1]) / np.sqrt(2))


def test_cz_on_two_plus():
    sv = to_state_vector(path_graph(2))
    assert np.allclose(sv.amplitudes, np.array([1, 1, 1, -1]) / 2)


def test_state_vector_matches_cz_oracle(rnd):
    for _ in range(30):
        g = random_graph(rnd, rnd.randint(1, 6))
        assert np.allclose(to_state_vector(g).amplitudes, cz_matrix_oracle(g))


def test_size_limit():
    with pytest.raises(ValueError):
        to_state_vector(empty_graph(15))


def test_norm_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), (1,))


def test_non_finite_amplitudes_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            StateVector(np.array([bad, 0.0]), (1,))


def test_repeated_qubit_labels_rejected():
    # two photons read out as one qubit would decode as a one-vertex graph
    with pytest.raises(ValueError, match="repeat"):
        StateVector(np.array([1.0, 0.0, 0.0, 0.0]), (7, 7))
    plus = run_circuit({"sources": [{"plus": 0}, {"plus": 1}]})[0]
    with pytest.raises(ValueError, match="repeat"):
        extract_logical(plus, {0: 7, 1: 7})


# -- stabilizer decoding -------------------------------------------------------------


def test_graph_form_round_trip(rnd):
    for _ in range(25):
        g = random_graph(rnd, rnd.randint(1, 6))
        decoded = graph_form(to_state_vector(g))
        assert decoded is not None and decoded.edges == g.edges


def test_ghz_vector_is_star_class():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    sv = StateVector(ghz, (0, 1, 2))
    assert state_locally_equivalent(sv, star_graph(0, [1, 2]))
    assert state_locally_equivalent(sv, complete_graph([0, 1, 2]))


def test_non_stabilizer_is_rejected():
    # a T-rotated |+> is not Clifford-reachable from a graph state
    amps = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
    assert graph_form(StateVector(amps, (1,))) is None
    assert not state_locally_equivalent(StateVector(amps, (1,)), empty_graph([1]))


def test_product_vs_entangled():
    zeros = np.zeros(8, dtype=complex)
    zeros[0] = 1.0
    sv = StateVector(zeros, (1, 2, 3))
    assert not state_locally_equivalent(sv, complete_graph([1, 2, 3]))
    assert schmidt_rank(sv, {1}) == 1
    assert schmidt_rank(to_state_vector(complete_graph([1, 2, 3])), {1}) == 2


def test_identity_case():
    sv = to_state_vector(path_graph(3))
    assert state_locally_equivalent(sv, path_graph(3))


def test_equivalence_size_limit():
    # the linear test answers every size a state vector is built at
    assert state_locally_equivalent(to_state_vector(empty_graph(11)), empty_graph(11))
    n = STATE_VECTOR_LIMIT + 1
    plus = StateVector(np.full(2**n, 2 ** (-n / 2), dtype=complex), tuple(range(1, n + 1)))
    with pytest.raises(ValueError):
        state_locally_equivalent(plus, empty_graph(n))


# -- measurement soundness: projections vs rewrite rules ------------------------------


def all_graphs_upto(n):
    labels = list(range(1, n + 1))
    pairs = list(itertools.combinations(labels, 2))
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        yield Graph(labels, [p for p, b in zip(pairs, bits) if b])


def _assert_measurement_sound(g, v, axis):
    sv = to_state_vector(g)
    expected = measure_pauli(g, v, axis)
    for direction in pauli_eigenstates(axis):
        prob, post = project_qubit(sv, v, direction)
        if post is None:
            assert axis == "X" and not g.neighbors(v)
            continue
        assert state_locally_equivalent(post, expected), (g.edges, v, axis)


def test_measurement_soundness_exhaustive_small():
    for n in (2, 3):
        for g in all_graphs_upto(n):
            for v in g.vertices:
                for axis in "XYZ":
                    _assert_measurement_sound(g, v, axis)


def test_measurement_soundness_sampled(rnd):
    for _ in range(60):
        g = random_graph(rnd, rnd.randint(4, 6))
        v = rnd.choice(g.vertices)
        axis = rnd.choice("XYZ")
        _assert_measurement_sound(g, v, axis)


def test_lc_preserves_state_class(rnd):
    for _ in range(40):
        g = random_graph(rnd, rnd.randint(2, 6))
        v = rnd.choice(g.vertices)
        assert state_locally_equivalent(to_state_vector(g), local_complement(g, v))


def test_cycle_five_not_ghz():
    sv = to_state_vector(cycle_graph(5))
    assert not state_locally_equivalent(sv, star_graph(1, [2, 3, 4, 5]))


GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]),
}


def test_decoder_invariant_under_local_cliffords(rnd):
    # a graph state pushed through any single-qubit Clifford frame must
    # decode back into the same local-equivalence class
    h, s, x = GATES["H"], GATES["S"], GATES["X"]
    gates = [h, s, x, s @ h, h @ s, s @ h @ s]
    for _ in range(50):
        g = random_graph(rnd, rnd.randint(2, 6))
        sv = to_state_vector(g)
        for _ in range(rnd.randint(1, 6)):
            q = rnd.choice(g.vertices)
            sv = apply_single_qubit(sv, q, gates[rnd.randrange(len(gates))])
        decoded = graph_form(sv)
        assert decoded is not None
        assert locally_equivalent(decoded, g)


def _frame(u: np.ndarray) -> tuple[int, int, int, int]:
    """(a, b, c, d) of a single-qubit Clifford: X -> X^a Z^c and Z -> X^b Z^d, up to phase."""
    xz = {(1, 0): PAULI["X"], (0, 1): PAULI["Z"], (1, 1): PAULI["X"] @ PAULI["Z"]}

    def image(p):
        m = u @ p @ u.conj().T
        return next(key for key, q in xz.items() if abs(np.trace(q.conj().T @ m)) > 1)

    (a, c), (b, d) = image(PAULI["X"]), image(PAULI["Z"])
    return a, b, c, d


def test_local_cliffords_take_one_graph_state_to_the_other(rnd):
    # one unitary for each of the six frames, from words in H and S
    unitaries = {}
    for k in range(4):
        for word in itertools.product("HS", repeat=k):
            u = np.eye(2, dtype=complex)
            for gate in word:
                u = u @ GATES[gate]
            unitaries.setdefault(_frame(u), u)
    assert len(unitaries) == 6
    assert lc_oracle.local_cliffords(path_graph(4), star_graph(1, [2, 3, 4])) is None
    for _ in range(40):
        g = random_graph(rnd, rnd.randint(1, 6))
        h = g
        for _ in range(rnd.randint(0, 5)):
            h = local_complement(h, rnd.choice(g.vertices))
        frames = lc_oracle.local_cliffords(g, h)
        assert frames is not None and set(frames) == set(g.vertices)
        sv = to_state_vector(g)
        for v, frame in frames.items():
            sv = apply_single_qubit(sv, v, unitaries[frame])
        # h's graph state up to Paulis: full support, and it decodes to h itself
        assert np.allclose(np.abs(sv.amplitudes), 2 ** (-g.n / 2))
        assert graph_form(sv).edges == h.edges


@st.composite
def decoder_inputs(draw):
    """A graph state under random H, S and X, sometimes made non-stabilizer.

    A CCZ keeps the support and every pairwise phase ratio of a stabilizer
    vector, so only the check over the whole span can reject it.
    """
    n = draw(st.integers(1, 8))
    labels = list(range(1, n + 1))
    pairs = list(itertools.combinations(labels, 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    sv = to_state_vector(Graph(labels, [p for p, keep in zip(pairs, mask) if keep]))
    for q, gate in draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from("HSX")), max_size=12)):
        sv = apply_single_qubit(sv, q, GATES[gate])
    kind = draw(st.sampled_from(["clifford", "clifford", "t-rotated", "ccz", "random"]))
    if kind == "ccz" and n >= 3:
        idx = np.arange(2**n)
        bits = draw(st.permutations(range(n)))[:3]
        parity = (idx >> bits[0]) & (idx >> bits[1]) & (idx >> bits[2]) & 1
        sv = StateVector(sv.amplitudes * np.where(parity, -1, 1), sv.qubit_order)
    elif kind == "t-rotated":
        sv = apply_single_qubit(sv, draw(st.sampled_from(labels)), GATES["T"] @ GATES["H"])
    elif kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        sv = StateVector(amps / np.linalg.norm(amps), sv.qubit_order)
    return sv


@settings(max_examples=300, deadline=None)
@given(decoder_inputs())
def test_graph_form_matches_fwht_oracle(sv):
    got, want = graph_form(sv), stabilizer_oracle.graph_form(sv)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.vertices == sv.qubit_order
        assert locally_equivalent(got, want)


@settings(max_examples=300, deadline=None)
@given(decoder_inputs())
# 2^k equal magnitudes on a support that is not affine: {0, 1, 2, 4} of 3 qubits
@example(StateVector(np.array([1, 1, 1, 0, 1, 0, 0, 0]) / 2, (1, 2, 3)))
# an affine support whose pair ratio is i, not +-1
@example(StateVector(np.array([1, 1, 1, 1j]) / 2, (1, 2)))
def test_graph_form_matches_elimination_oracle(sv):
    # the sorted-support basis is the elimination's reduced basis, so the graph is the same
    # one, vertex order and adjacency, not merely one in the same LC class
    assert graph_form(sv) == stabilizer_oracle.eliminated_graph_form(sv)


def test_graph_form_decodes_at_state_vector_limit():
    g = cycle_graph(STATE_VECTOR_LIMIT)
    sv = to_state_vector(g)
    for q in g.vertices[:2]:
        sv = apply_single_qubit(sv, q, GATES["H"])
    assert graph_form(sv) is not None


def test_fwht_decoder_is_test_only():
    # the n*4^n stabilizer search lives only in tests/stabilizer_oracle.py
    for path in sorted(Path(photonweave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & {"stabilizer_generators", "_fwht"}, path.name


def loop_fwht(values):
    """The reference Walsh-Hadamard transform: one Python loop over blocks per level."""
    out = values.copy()
    h = 1
    n = out.shape[0]
    while h < n:
        for start in range(0, n, h * 2):
            a = out[start : start + h].copy()
            b = out[start + h : start + 2 * h].copy()
            out[start : start + h] = a + b
            out[start + h : start + 2 * h] = a - b
        h *= 2
    return out


def test_fwht_matches_loop_version_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in range(11):
        for _ in range(4):
            v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            assert np.array_equal(stabilizer_oracle._fwht(v), loop_fwht(v)), n
