"""Distribution protocols of the weaving server, run through both engines.

Every protocol is written once, as a private builder that checks its
inputs and returns two views of one run: the graph-level result (the
distributed graph, the exact dyadic success probability and the
post-processing corrections) and the weaving circuit that realizes it,
built from the two weaving primitives (a cycle is the closed all-spine
caterpillar, from the one graph-weave builder).  ``run_*`` return the
first view; ``*_optics`` run the second on ``optics.run_circuit``'s
engine at oracle scale.  Tests assert that the two views agree state-by-state.
Wrong types (``"no"`` or ``1`` for a bool, a string for a list) raise ``InputShapeError``.

Label conventions: users are 1..M in weaving order; server-held
vertices are 0 or negative.  Corrections are recorded in the frame of
``final_graph`` (where the distributed state *is* that graph state);
a graph-frame Z on a user is a polarization X on their photon, after
the frame Hadamards listed alongside.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import optics as po
from .graphs import AXES, Graph, InputShapeError, measure_pauli, path_graph, star_graph
from .minors import predict_representative
from .states import StateVector

BLOCK_KINDS = ("path4", "star4", "three")

#: per-block Bell-pair budget (shared pairs + server-internal pairs)
BLOCK_BELL_PAIRS = {"path4": 4, "star4": 4, "three": 3}
BLOCK_EXPONENTS = {"path4": 3, "star4": 3, "three": 2}

#: the port of the server's own weaving photon, recorded as ``w``
SERVER_WEAVER = 50


@dataclass(frozen=True)
class ProtocolResult:
    protocol: str
    final_graph: Graph
    success_exponent: int  # success probability is exactly 2**-success_exponent
    measurement_record: tuple[tuple[str, str], ...]  # (photon label, outcome)
    corrections: tuple[tuple[int, str], ...]  # (vertex, Pauli/H) in graph frame
    resources: dict[str, int] = field(default_factory=dict)

    @property
    def success_probability(self) -> Fraction:
        return Fraction(1, 2**self.success_exponent)

    @property
    def m_minus(self) -> int:
        """The number of '-' outcomes in the measurement record."""
        return sum(out == "-" for _, out in self.measurement_record)


def _canonical_outcomes(outcomes: str | None, length: int) -> str:
    if outcomes is None:
        outcomes = "+" * length
    if not isinstance(outcomes, str) or len(outcomes) != length or outcomes.strip("+-"):
        raise InputShapeError(f"need {length} outcomes over '+-', got {outcomes!r}")
    return outcomes


def _check_type(name: str, value, kinds: tuple[type, ...], want: str) -> None:
    """Raise ``InputShapeError`` unless ``value`` is one of ``kinds``; a bool is only a bool."""
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
        raise InputShapeError(f"{name} must be {want}, got {value!r}")


def _check_users(m_users: int, least: int, most: int, protocol: str) -> None:
    _check_type("m_users", m_users, (int, np.integer), "an int")
    if not least <= m_users <= most:
        raise ValueError(f"{protocol} supports {least}..{most} users")


def _check_weaver(outcome: str) -> None:
    if outcome not in ("H", "V"):
        raise InputShapeError(f"weaver outcome is 'H' or 'V', got {outcome!r}")


# ---------------------------------------------------------------------------
# optics circuits: the two weaving primitives and one runner
# ---------------------------------------------------------------------------


def ghz_weave(ports: Sequence[int]) -> list[dict]:
    """GHZ-state weaving: a PBS between each pair of consecutive ports."""
    return [{"pbs": [a, b]} for a, b in zip(ports, ports[1:])]


def graph_weave(weaver: int, targets: Sequence[int], leaves: Container[int] = ()) -> list[dict]:
    """Graph-state weaving: the weaver photon meets each target at a PBS.

    A 22.5-degree HWP rotates the weaver before each target after the
    first, except before a leaf, and once more at the end.
    """
    elements: list[dict] = []
    for k, target in enumerate(targets):
        if k and target not in leaves:
            elements.append({"hwp": [weaver, 22.5]})
        elements.append({"pbs": [weaver, target]})
    return elements + [{"hwp": [weaver, 22.5]}]


class _Circuit(NamedTuple):
    """A protocol's weaving circuit; every source port is postselected to one photon."""

    #: `gbell` sources, each with its +/- photon first; ``_optics`` runs a pair with an
    #: idle photon as `bell_psi` and that photon's Hadamard at read-out
    pairs: list[tuple[int, int]]
    elements: list[dict]
    detections: list[tuple[int, str, str]]  # (port, basis, outcome) in detection order
    qubits: dict[int, int]  # read-out port -> qubit label


#: what each protocol builder returns: the graph-level result and the circuit realizing it
_Views = tuple[ProtocolResult, _Circuit]


def _user_pairs(users: Iterable[int]) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """Each user's `gbell` pair and read-out: the server weaves port i, user i keeps 100 + i."""
    users = list(users)
    return [(100 + i, i) for i in users], {100 + i: i for i in users}


def _record(detections: Iterable[tuple[int, str, str]]) -> tuple[tuple[str, str], ...]:
    """The measurement record of a detection list: ``b{port}``, ``w`` for the server weaver."""
    return tuple(("w" if port == SERVER_WEAVER else f"b{port}", out) for port, _, out in detections)


def _optics(circuit: _Circuit) -> tuple[StateVector, float]:
    """Run one weaving circuit on the optics engine; returns its read-out qubits and probability.

    The builders made the circuit, so it goes straight to ``optics._run``
    on its ``_schedule``, without the description checks of
    ``run_circuit``.  Every pair is postselected to one photon per port.
    A pair with a photon on an idle port, one that no element touches and
    no detection reads, runs as ``bell_psi``, and that photon's qubit takes
    a Hadamard at read-out: ``gbell`` = (H x I) ``bell_psi``, with the H on
    either photon.  The woven photons' reduced state is the same under both
    sources, so every probability is the same exact ratio, and the pair no
    longer doubles the terms of every later step.
    """
    elements = [po._element(element) for element in circuit.elements]
    busy = {port for port, _, _ in circuit.detections}
    for ports, _ in elements:
        busy.update(ports)
    idle = [next((p for p in pair if p not in busy), None) for pair in circuit.pairs]
    sources = [("gbell" if p is None else "bell_psi", pair) for pair, p in zip(circuit.pairs, idle)]
    postselect = [port for pair in circuit.pairs for port in pair]
    state, prob, _ = po._run(*po._schedule(sources, elements, postselect, circuit.detections))
    sv = po.extract_logical(state, circuit.qubits)
    axes = [sv.qubit_order.index(circuit.qubits[p]) for p in idle if p is not None]
    amps = sv.amplitudes
    for axis in axes:  # H on each axis, its 1/sqrt(2) taken once for all
        split = amps.reshape(1 << axis, 2, -1)
        h, v = split[:, :1], split[:, 1:]
        amps = np.concatenate((h + v, h - v), 1)
    # a unitary image of the vector extract_logical has just checked
    return StateVector._of(amps.reshape(-1) * 2 ** (-len(axes) / 2), sv.qubit_order), prob


# ---------------------------------------------------------------------------
# GHZ protocol
# ---------------------------------------------------------------------------


def _ghz(m_users: int, server_participates: bool, outcomes: str | None) -> _Views:
    _check_users(m_users, 2, 8, "ghz")
    _check_type("server_participates", server_participates, (bool,), "a bool")
    outcomes = _canonical_outcomes(outcomes, m_users - (1 if server_participates else 0))
    users = range(1, m_users + 1)
    pairs, qubits = _user_pairs(users)
    if server_participates:
        final, center, corrections = star_graph(0, users), 0, []
        qubits[m_users] = 0
    else:
        final, center, corrections = star_graph(1, users[1:]), 1, [(1, "H")]
    if outcomes.count("-") % 2 == 1:
        corrections.append((center, "Z"))
    detections = [(j, "PM", out) for j, out in zip(users, outcomes)]
    result = ProtocolResult("ghz", final, m_users - 1, _record(detections), tuple(corrections),
                            {"bell_pairs": m_users})
    return result, _Circuit(pairs, ghz_weave(users), detections, qubits)


def run_ghz(
    m_users: int,
    server_participates: bool = False,
    outcomes: str | None = None,
) -> ProtocolResult:
    """Distribute a GHZ state to m_users by interfering their shared photons.

    The server detects its photons in the +/- basis (keeping one photon
    when participating); an odd number of '-' results flips the GHZ
    parity and costs one Z correction on the centre (user 1, or server
    qubit 0 when it participates).  The users' photons already hold the
    star state of ``final_graph`` up to one H on user 1, which only the
    run without server participation needs.
    """
    return _ghz(m_users, server_participates, outcomes)[0]


def ghz_optics(
    m_users: int,
    server_participates: bool = False,
    outcomes: str | None = None,
) -> tuple[StateVector, float, tuple[tuple[str, str], ...]]:
    """Exact circuit for the GHZ protocol; returns (state, probability, record)."""
    result, circuit = _ghz(m_users, server_participates, outcomes)
    return *_optics(circuit), result.measurement_record


# ---------------------------------------------------------------------------
# path / caterpillar / cycle protocols (graph-state weaving)
# ---------------------------------------------------------------------------


def _path(
    m_users: int, server_participates: bool, outcomes: str | None, weaver_outcome: str
) -> _Views:
    _check_users(m_users, 2, 7, "path")
    _check_type("server_participates", server_participates, (bool,), "a bool")
    outcomes = _canonical_outcomes(outcomes, m_users - 1)
    _check_weaver(weaver_outcome)
    users = list(range(1, m_users + 1))
    pairs, qubits = _user_pairs(users)
    final = path_graph(users + [0]) if server_participates else path_graph(users)
    corrections = [(u, "H") for u in users[1:]]
    corrections += [(j, "Z") for j, out in zip(users[1:], outcomes) if out == "-"]
    detections = [(j, "PM", out) for j, out in zip(users[1:], outcomes)]
    if server_participates:
        qubits[1] = 0
    else:
        detections.append((1, "HV", weaver_outcome))
        if weaver_outcome == "V":
            corrections.append((m_users, "Z"))
    result = ProtocolResult("path", final, m_users - 1, _record(detections), tuple(corrections),
                            {"bell_pairs": m_users})
    return result, _Circuit(pairs, graph_weave(1, users[1:]), detections, qubits)


def run_path(
    m_users: int,
    server_participates: bool = False,
    outcomes: str | None = None,
    weaver_outcome: str = "H",
) -> ProtocolResult:
    """Weave the users' photons into a path graph state over users 1..M.

    One shared photon acts as the weaving photon; the server detects the
    woven photons in +/- and the weaver in H/V.  With participation the
    weaver is stored instead and the server holds an outer path qubit.
    """
    return _path(m_users, server_participates, outcomes, weaver_outcome)[0]


def comb_graph(m_users: int) -> Graph:
    """The exact intermediate of the path circuit, before server detection.

    A caterpillar with server spine b_2..b_M: user j hangs off b_j, while
    the weaving photon's user shares b_2 and the weaver itself hangs off
    b_M.  Server vertices are encoded as 200 + j.
    """
    users = list(range(1, m_users + 1))
    server = [200 + j for j in range(1, m_users + 1)]
    edges = [(200 + j, j) for j in range(2, m_users + 1)]
    edges += [(200 + j, 200 + j + 1) for j in range(2, m_users)]
    edges += [(200 + 2, 1), (200 + m_users, 201)]
    return Graph(users + server, edges)


def path_optics(
    m_users: int,
    server_participates: bool = False,
    outcomes: str | None = None,
    weaver_outcome: str = "H",
    stop_before_measurement: bool = False,
):
    """Exact circuit for the path protocol (weaver = shared photon b_1).

    With ``stop_before_measurement`` the postselected pre-detection state
    is returned instead, with server photons mapped to 200 + j.
    """
    result, circuit = _path(m_users, server_participates, outcomes, weaver_outcome)
    _check_type("stop_before_measurement", stop_before_measurement, (bool,), "a bool")
    if stop_before_measurement:
        qubits = circuit.qubits | {j: 200 + j for j in range(1, m_users + 1)}
        return *_optics(circuit._replace(detections=[], qubits=qubits)), ()
    return *_optics(circuit), result.measurement_record


def _cycle(m_users: int, outcomes: str | None, weaver_outcome: str) -> _Views:
    _check_users(m_users, 3, 6, "cycle")
    result, circuit = _caterpillar(["spine"] * m_users, True, outcomes, weaver_outcome)
    return replace(result, protocol="cycle"), circuit


def run_cycle(m_users: int, outcomes: str | None = None, weaver_outcome: str = "H") -> ProtocolResult:
    """Weave a cycle over the users plus one stored server qubit.

    The weaving photon belongs to a server-internal pair; closing the
    path costs one extra fusion, giving the 2^-(M+1) success exponent.
    """
    return _cycle(m_users, outcomes, weaver_outcome)[0]


def cycle_optics(
    m_users: int, outcomes: str | None = None, weaver_outcome: str = "H"
) -> tuple[StateVector, float, tuple[tuple[str, str], ...]]:
    """Exact circuit for the cycle protocol: weave all users, then fuse ends.

    Closure follows the self-fusion recipe: the stored server photon and
    the weaver interfere at a PBS, the weaver side is rotated, and its
    H/V detection removes it as a leaf on the server qubit.
    """
    result, circuit = _cycle(m_users, outcomes, weaver_outcome)
    return *_optics(circuit), result.measurement_record


def _check_layout(layout: Sequence[str], close_cycle: bool) -> None:
    _check_type("layout", layout, (list, tuple), "a list or a tuple")
    _check_type("close_cycle", close_cycle, (bool,), "a bool")
    if not layout:
        raise ValueError("layout is empty")
    if any(kind not in ("spine", "leaf") for kind in layout):
        raise InputShapeError("layout entries are 'spine' or 'leaf'")
    if layout[0] != "spine":
        raise ValueError("a leaf needs a spine vertex before it")


def caterpillar_layout_graph(layout: Sequence[str], close_cycle: bool = False) -> Graph:
    """The caterpillar (or leafed cycle) a layout describes over users 1..M.

    The layout is a measurement word read off the users, spine Y and leaf
    X (see ``minors.predict_representative``): leaf users attach to the
    most recent spine user.  Closed, the spine closes through the stored
    server qubit 0, read as a leading Y: the word ``"Y" + word`` closed on
    0..M.  Open, user 1 is the head and the word is cut just before it:
    ``"Z" + word[1:]`` closed on 1..M.
    """
    _check_layout(layout, close_cycle)
    word = "".join("Y" if kind == "spine" else "X" for kind in layout)
    if close_cycle and word.count("Y") < 2:
        raise ValueError("closing needs at least two spine users")
    word, first = ("Y" + word, 0) if close_cycle else ("Z" + word[1:], 1)
    return predict_representative(word, close=True, survivors=range(first, len(layout) + 1))


def _caterpillar(
    layout: Sequence[str], close_cycle: bool, outcomes: str | None = None, weaver_outcome: str = "H"
) -> _Views:
    """The one graph-weave builder; a cycle is the closed all-spine layout.

    Closed, a server photon weaves and ends on the stored qubit 0; open, user 1's
    photon weaves, rotated before user 2 if that user is spine.  The frame: H on
    each spine user; a Z on the spine owner (the user, or for a leaf the spine user
    before it) of each woven user whose photon gave '-'; for a V weaver, a Z on
    qubit 0 when closed, or on user M's owner when open.
    """
    _check_layout(layout, close_cycle)
    m = len(layout)
    if m > 7:
        raise ValueError("caterpillar supports up to 7 users")
    final = caterpillar_layout_graph(layout, close_cycle)
    outcomes = _canonical_outcomes(outcomes, m if close_cycle else m - 1)
    _check_weaver(weaver_outcome)
    users = range(1, m + 1)
    spine = [j for j in users if layout[j - 1] == "spine"]
    owner = {j: max(s for s in spine if s <= j) for j in users}
    leaves = owner.keys() - spine
    pairs, qubits = _user_pairs(users)
    if close_cycle:
        weaver, woven = SERVER_WEAVER, users
        pairs = [(weaver, 0), *pairs]
        elements = graph_weave(weaver, [*users, 0], leaves)
        qubits[0] = 0
    else:
        weaver, woven = 1, users[1:]
        lead = [{"hwp": [weaver, 22.5]}] if m > 1 and layout[1] == "spine" else []
        elements = lead + graph_weave(weaver, woven, leaves)
    detections = [(j, "PM", out) for j, out in zip(woven, outcomes)]
    detections.append((weaver, "HV", weaver_outcome))
    corrections = [(j, "H") for j in spine]
    corrections += [(owner[j], "Z") for j, out in zip(woven, outcomes) if out == "-"]
    if weaver_outcome == "V":
        corrections.append((0 if close_cycle else owner[m], "Z"))
    result = ProtocolResult("caterpillar", final, m + 1 if close_cycle else m - 1,
                            _record(detections), tuple(corrections),
                            {"bell_pairs": m + (1 if close_cycle else 0)})
    return result, _Circuit(pairs, elements, detections, qubits)


def run_caterpillar(layout: Sequence[str], close_cycle: bool = False) -> ProtocolResult:
    """Distribute the caterpillar described by the layout.

    Spine users extend the woven path; leaf users join the previous spine
    user's redundant cluster (a weave step without the polarization
    rotation).  Open runs cost 2^-(M-1); closing through a server pair
    costs 2^-(M+1).  ``layout`` is a list or a tuple of up to 7 entries.
    """
    return _caterpillar(layout, close_cycle)[0]


def caterpillar_optics(
    layout: Sequence[str], close_cycle: bool = False
) -> tuple[StateVector, float]:
    """Exact circuit for the caterpillar protocol, canonical outcomes."""
    return _optics(_caterpillar(layout, close_cycle)[1])


# ---------------------------------------------------------------------------
# graph-level fusion operations
# ---------------------------------------------------------------------------


def fuse_within(g: Graph, f: int, l: int) -> Graph:
    """Fuse two non-adjacent qubits of one graph state (PBS + rotation).

    Every neighbor of l is rewired onto f and l stays attached to f only.
    Fusing a path's ends this way closes it into a cycle with one leaf.
    The postselected optical fusion succeeds with probability 1/2.
    """
    g._require(f, l)
    if f == l:
        raise ValueError("need two distinct qubits")
    if g.has_edge(f, l):
        raise ValueError("adjacent qubits cannot be fused; postselection interferes")
    moved = g.neighbors(l) - {f}
    out = g.with_edges_toggled((l, x) for x in moved)  # detach l
    add = [(f, x) for x in moved if not out.has_edge(f, x)]
    out = out.with_edges_toggled(add)
    return out.add_edge(f, l)


def fuse_merge(g1: Graph, a: int, g2: Graph, b: int, merged: int) -> Graph:
    """Successful type-I fusion: qubits a and b collapse into one vertex.

    The merged vertex inherits the union of both neighborhoods.
    """
    if g1.adj.keys() & g2.adj.keys():
        raise ValueError("graphs must carry disjoint labels")
    g1._require(a)
    g2._require(b)
    return _merge(g1.disjoint_union(g2), a, b, merged)


def _merge(g: Graph, a: int, b: int, merged: int) -> Graph:
    """Replace vertices a and b by one new last vertex joined to both neighborhoods."""
    nbrs = g.neighbors(a) | g.neighbors(b)
    return g.induced(v for v in g.vertices if v not in (a, b)).add_vertex(merged, nbrs)


# ---------------------------------------------------------------------------
# building blocks and fusion chains
# ---------------------------------------------------------------------------


def _block_graph(kind: str, users: list[int], left: int, right: int) -> Graph:
    if kind == "three":
        return path_graph([left, users[0], right])
    if kind == "path4":
        return path_graph([left, users[0], users[1], right])
    return star_graph(users[0], [left, users[1], right])


def _block(kind: str) -> tuple[tuple[Graph, Fraction], _Circuit]:
    if kind not in BLOCK_KINDS:
        raise InputShapeError(f"unknown block kind {kind!r}")
    users = [1] if kind == "three" else [1, 2]
    pairs, qubits = _user_pairs(users)
    # the stored photons pL, pR keep ports 60, 61; the server weaves 50 and 51
    pairs = [(60, SERVER_WEAVER), *pairs, (61, 51)]
    qubits = {60: -1, **qubits, 61: -2}
    graph = _block_graph(kind, users, -1, -2), Fraction(1, 2 ** BLOCK_EXPONENTS[kind])
    if kind == "star4":
        ports = [SERVER_WEAVER, *users, 51]
        return graph, _Circuit(pairs, ghz_weave(ports), [(p, "PM", "+") for p in ports], qubits)
    detections = [(p, "PM", "+") for p in (*users, 51)] + [(SERVER_WEAVER, "HV", "H")]
    return graph, _Circuit(pairs, graph_weave(SERVER_WEAVER, [*users, 51]), detections, qubits)


def build_block(kind: str) -> tuple[Graph, Fraction]:
    """One stored building block and its weaving success probability.

    path4: pL - u1 - u2 - pR with the server storing the outer photons;
    star4: a GHZ of both users and two stored photons; three: pL - u - pR
    around a single user.  Labels: users are 1 and 2 (1 alone for three),
    the stored photons pL and pR are -1 and -2.
    """
    return _block(kind)[0]


def block_optics(kind: str) -> tuple[StateVector, float]:
    """Exact circuit for one building block, labelled as in ``build_block``."""
    return _optics(_block(kind)[1])


@dataclass(frozen=True)
class ChainResult:
    """Outcome of a fusion chain including its retry bookkeeping."""

    result: ProtocolResult | None  # None when a closure failure aborts
    succeeded: bool
    blocks_consumed: int
    bell_pairs_used: int
    fusion_attempts: int
    blocks: tuple[str, ...]  # the block kinds as fused, lowercased
    close_cycle: bool


def _retry_counts(
    blocks: Sequence[str], close_cycle: bool, coins: Iterator
) -> tuple[bool, int, int, int]:
    """The discard-last-block policy as counts: (succeeded, blocks, bell_pairs, fusions).

    Each joint in order weaves a fresh incoming block until a falsy coin
    says success; a closed chain then draws one closure coin, whose
    failure aborts the chain.  Once ``coins`` run out, every fusion succeeds.
    """
    consumed, pairs = 1, BLOCK_BELL_PAIRS[blocks[0]]
    for kind in blocks[1:]:
        tries = 1
        while next(coins, False):
            tries += 1
        consumed += tries
        pairs += tries * BLOCK_BELL_PAIRS[kind]
    fusions = consumed - 1 + (1 if close_cycle else 0)
    return not (close_cycle and next(coins, False)), consumed, pairs, fusions


def _retry_count_rows(
    blocks: Sequence[str], close_cycle: bool, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_retry_counts`` for each row of 64-bit outputs, as int64 rows (succeeded, blocks,
    bell_pairs, fusions), and a mask of the rows whose coins run past their outputs.

    Coin 2i is bit 31 of output i and coin 2i + 1 its bit 63; a 0 coin is a
    success.  With z_j the position of a row's (j+1)-th 0 coin and z_-1 = -1,
    joint j takes z_j - z_(j-1) tries, and a closed chain's closure coin is
    coin z_last + 1.  A masked row holds no counts.
    """
    trials, joints, coins = len(words), len(blocks) - 1, 2 * words.shape[1]
    zero = np.empty((trials, coins), bool)
    zero[:, 0::2] = (words & np.uint64(1 << 31)) == 0
    zero[:, 1::2] = words < np.uint64(1 << 63)
    # the flat positions of the 0 coins, row by row, padded so a short row reads in range
    at = np.append(np.flatnonzero(zero), np.full(joints, zero.size))
    starts = np.arange(trials + 1) * coins
    first = np.searchsorted(at, starts)  # where each row's 0s start in ``at``, and where they end
    z = np.full((trials, joints + 1), -1, np.int64)  # z_-1, z_0, ..., z_last
    z[:, 1:] = at[first[:-1, None] + np.arange(joints)] - starts[:-1, None]
    last = z[:, -1]
    pairs = [BLOCK_BELL_PAIRS[b] for b in blocks]
    rows = np.empty((trials, 4), np.int64)
    rows[:, 1] = last + 2
    rows[:, 2] = (z[:, 1:] - z[:, :-1]) @ pairs[1:] + pairs[0]
    rows[:, 3] = last + 1 + int(close_cycle)
    short = np.diff(first) < joints
    if close_cycle:
        short |= last + 1 >= coins
        rows[:, 0] = zero[np.arange(trials), np.minimum(last + 1, coins - 1)]
    else:
        rows[:, 0] = 1
    return rows, short


def fuse_chain(
    blocks: Sequence[str],
    measurement_plan: Sequence[str | None] | None = None,
    close_cycle: bool = False,
    keep_server_ends: bool = False,
    coins: Iterable = (),
) -> ChainResult:
    """Fuse stored building blocks into one distributed graph state.

    Each fusion succeeds with probability 1/2.  On failure the
    discard-last-block policy applies: the incoming block is discarded
    (its users reset by Z measurements and re-entangle) and a fresh block
    is woven; the stored chain is untouched, so failures never restart
    the chain and the final graph does not depend on them.  A
    closure-fusion failure aborts the whole cycle attempt instead.
    ``measurement_plan`` gives one basis (or None) per joint, applied
    after all fusions; open-chain outer server photons are then removed
    unless ``keep_server_ends``.

    ``coins`` are the fusion coins in order, a truthy coin a failure; once
    they run out every fusion succeeds, so by default all do.
    """
    _check_type("blocks", blocks, (list, tuple), "a list or a tuple")
    _check_type("close_cycle", close_cycle, (bool,), "a bool")
    _check_type("keep_server_ends", keep_server_ends, (bool,), "a bool")
    blocks = [b.lower() if isinstance(b, str) else b for b in blocks]
    for b in blocks:
        if b not in BLOCK_KINDS:
            raise InputShapeError(f"unknown block kind {b!r}")
    if len(blocks) < 2:
        raise ValueError("a chain needs at least two blocks")
    joints = len(blocks) - 1 + (1 if close_cycle else 0)
    plan = [None] * joints if measurement_plan is None else measurement_plan
    _check_type("measurement_plan", plan, (list, tuple), "a list, a tuple or None")
    if len(plan) != joints:
        raise InputShapeError(f"plan length {len(plan)} != joints {joints}")
    for axis in plan:
        if axis not in (*AXES, None):
            raise InputShapeError(f"plan entries are 'X', 'Y', 'Z' or None, got {axis!r}")
    succeeded, consumed, pairs, fusions = _retry_counts(blocks, close_cycle, iter(coins))
    if not succeeded:
        return ChainResult(None, False, consumed, pairs, fusions, tuple(blocks), close_cycle)
    # users are numbered along the chain; block k stores server photons
    # -(2k-1), -(2k); joint j (closure last) becomes vertex -1000 - j
    chain, next_user = None, 1
    for k, kind in enumerate(blocks, start=1):
        users = [next_user] if kind == "three" else [next_user, next_user + 1]
        next_user += len(users)
        block = _block_graph(kind, users, -(2 * k - 1), -(2 * k))
        if chain is None:
            chain = block
        else:
            chain = fuse_merge(chain, 2 - 2 * k, block, 1 - 2 * k, -1000 - (k - 2))
    right = -2 * len(blocks)
    if close_cycle:
        chain = _merge(chain, right, -1, -1000 - (joints - 1))
    for j, axis in enumerate(plan):
        if axis is not None:
            chain = measure_pauli(chain, -1000 - j, axis)
    if not close_cycle and not keep_server_ends:
        for end in (-1, right):
            chain = chain.without_vertex(end)

    result = ProtocolResult(
        protocol="chain",
        final_graph=chain,
        success_exponent=sum(BLOCK_EXPONENTS[b] for b in blocks) + joints,
        measurement_record=(),
        corrections=(),
        resources={"blocks": consumed, "bell_pairs": pairs, "fusions": fusions},
    )
    return ChainResult(result, True, consumed, pairs, fusions, tuple(blocks), close_cycle)


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloStats:
    trials: int
    successes: int
    estimated_probability: float
    std_error: float
    resource_means: dict[str, float]
    rng_seed: int
    analytic_probability: float | None = None
    deviation_sigmas: float | None = None
    flagged: bool = False  # estimate further than 3 sigma from analytic

    def as_dict(self) -> dict:
        return asdict(self) | {"resource_means": dict(sorted(self.resource_means.items()))}


# Trial t of a Monte Carlo call runs on ``np.random.default_rng([seed, t])``.  NumPy
# keeps the SeedSequence and PCG64 streams stable (NEP 19), so the streams of a block
# of trials are computed together in uint32/uint64 array arithmetic, bit for bit.

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _POOL_SIZE = 0xCA01F9DD, 0x4973F715, 4
#: PCG64's 128-bit LCG multiplier (O'Neill, PCG, HMC-CS-2014-0905)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: trials whose streams are computed together, so a call's arrays stay small
_TRIAL_BLOCK = 4096


#: uint64 shifts and masks of the stream arithmetic, and _PCG_MULT's words and halves
_U1, _U32, _U58, _U63, _U64, _LOW32 = (np.uint64(x) for x in (1, 32, 58, 63, 64, _MASK32))
_M_HI, _M_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_M_LO0, _M_LO1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_SHIFT16, _MIX_L, _MIX_R = np.uint32(16), np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)


def _hash_columns(h: int, mult: int, start: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of SeedSequence's hash steps ``start`` on, as
    ``(rows, 1)`` uint32 columns: step k xors h * mult^k and multiplies by h * mult^(k+1)."""
    constants = [h * pow(mult, start + k, 1 << 32) & _MASK32 for k in range(rows + 1)]
    column = np.array(constants, np.uint32)[:, None]
    return column[:-1], column[1:]


def _extra_columns(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of the row step that mixes in entropy word _POOL_SIZE + k."""
    return _hash_columns(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + k), _POOL_SIZE)


#: mix_entropy's steps: the pool fill, then per source word its other rows and
#: the constants of its three hash steps, in row order; generate_state's eight
#: steps over the pool stacked twice
_FILL = _hash_columns(_INIT_A, _MULT_A, 0, _POOL_SIZE)
_SOURCE_STEPS = [(np.delete(np.arange(_POOL_SIZE), src),
                  _hash_columns(_INIT_A, _MULT_A, _POOL_SIZE + (_POOL_SIZE - 1) * src,
                                _POOL_SIZE - 1)) for src in range(_POOL_SIZE)]
_STATE_STEPS = _hash_columns(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of uint32 words, with the constants of each row's step."""
    value = (value ^ xor) * mult
    return value ^ value >> _SHIFT16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of uint32 words."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> _SHIFT16


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One LCG step, state * _PCG_MULT + inc mod 2^128, on (high, low) words.

    The high word of lo * _M_LO is Hacker's Delight's ``mulhu``: four
    32-bit partial products, each carry folded into the next sum.
    """
    lo0, lo1 = lo & _LOW32, lo >> _U32
    mid = lo1 * _M_LO0 + (lo0 * _M_LO0 >> _U32)
    low = lo0 * _M_LO1 + (mid & _LOW32)
    mul_hi = lo1 * _M_LO1 + (mid >> _U32) + (low >> _U32)
    new_lo = lo * _M_LO + inc_lo
    return mul_hi + lo * _M_HI + hi * _M_LO + inc_hi + (new_lo < inc_lo), new_lo


def _pcg64_words(seed: int, trials: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` outputs of ``default_rng([seed, t]).bit_generator`` for each t.

    Returns the 64-bit words, one row per trial, and the generators' state
    after them, one column per trial: state high, state low, increment high,
    increment low.  SeedSequence's pool is one ``(4, trials)`` array, and
    each NumPy call does a whole pool's work: a source word is hashed for
    the three other rows in one step, against a ``(3, 1)`` column of hash
    constants built at import, which NumPy broadcasts.  Constant tables
    repeated to the block's width on every call measured slower even than
    the word-by-word hash that these row steps replace.
    """
    seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    seed_column = np.array(seed_words, np.uint32)[:, None]
    trials = np.asarray(trials, dtype=np.uint64)
    words = np.empty((len(trials), count), np.uint64)
    state = np.empty((4, len(trials)), np.uint64)
    wide = trials > _LOW32
    # an index of two 32-bit words makes the entropy one word longer: seed those apart
    for rows in (np.flatnonzero(~wide), np.flatnonzero(wide)):
        if not len(rows):
            continue
        t = trials[rows]
        index_words = [t & _LOW32, t >> _U32] if wide[rows[0]] else [t]
        # the entropy as rows, zeros past it to fill the pool
        entropy = np.zeros((max(len(seed_words) + len(index_words), _POOL_SIZE), len(t)),
                           np.uint32)
        entropy[:len(seed_words)] = seed_column
        entropy[len(seed_words):len(seed_words) + len(index_words)] = index_words
        # SeedSequence.mix_entropy: fill the pool, mix each pool word into the
        # three other rows, then mix in each entropy word past the pool
        pool = _hashmix(entropy[:_POOL_SIZE], *_FILL)
        for src, (others, columns) in enumerate(_SOURCE_STEPS):
            pool[others] = _mix(pool[others], _hashmix(pool[src], *columns))
        for k, word in enumerate(entropy[_POOL_SIZE:]):
            pool = _mix(pool, _hashmix(word, *_extra_columns(k)))
        # generate_state(4, uint64): eight hashed 32-bit words, read little-endian in pairs
        out = _hashmix(np.concatenate((pool, pool)), *_STATE_STEPS).astype(np.uint64)
        val = out[0::2] | out[1::2] << _U32
        # PCG64 seeding: inc = (val[2], val[3]) << 1 | 1; step from 0, add (val[0], val[1]), step
        inc_hi = val[2] << _U1 | val[3] >> _U63
        inc_lo = val[3] << _U1 | _U1
        lo = inc_lo + val[1]
        hi, lo = _pcg64_step(inc_hi + val[0] + (lo < inc_lo), lo, inc_hi, inc_lo)
        for k in range(count):  # each output: step, then XSL-RR
            hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
            folded, rot = hi ^ lo, hi >> _U58
            words[rows, k] = folded >> rot | folded << (_U64 - rot & _U63)
        state[:, rows] = hi, lo, inc_hi, inc_lo
    return words, state


def _fusion_coins(prefix: list[int], state: np.ndarray, trial: int) -> Iterator[int]:
    """One trial's ``integers(0, 2)`` coins: bit 31, then bit 63, of each 64-bit output.

    The outputs of ``prefix`` come first; past them the trial's own
    generator state (column ``trial`` of ``state``) steps on in Python ints.
    """
    for word in prefix:
        yield word >> 31 & 1
        yield word >> 63
    hi, lo, inc_hi, inc_lo = (int(x) for x in state[:, trial])
    current, inc = hi << 64 | lo, inc_hi << 64 | inc_lo
    while True:
        current = (current * _PCG_MULT + inc) & _MASK128
        folded, rot = (current >> 64 ^ current) & _MASK64, current >> 122
        word = (folded >> rot | folded << (64 - rot)) & _MASK64
        yield word >> 31 & 1
        yield word >> 63


def _check_count(name: str, value: int, least: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


#: the request schema, as the README tables it: protocol -> (runner, required keys, optional keys);
#: required keys pass as the runner's leading arguments, in order, and optional keys by name;
#: runners are named, not held, so ``run_request`` finds them in this module when it runs
REQUESTS = {
    "ghz": ("run_ghz", ("M",), ("server", "outcomes")),
    "path": ("run_path", ("M",), ("server", "outcomes")),
    "cycle": ("run_cycle", ("M",), ("outcomes",)),
    "caterpillar": ("run_caterpillar", ("layout",), ("close",)),
    "chain": ("fuse_chain", ("blocks",), ("plan", "close", "keep_server_ends")),
}
#: the runner parameter behind each optional key whose name differs
_PARAMETERS = {"server": "server_participates", "close": "close_cycle", "plan": "measurement_plan"}


def run_request(request: dict, coins: Iterable | None = None):
    """Run the protocol a request names (see ``REQUESTS``); ``coins`` pass to its runner.

    Only ``fuse_chain`` draws coins, so given with another protocol they
    raise ``TypeError``.  A missing or unread key raises ``InputShapeError``
    and an unknown protocol ``ValueError``; the runner checks the values.
    """
    protocol = request.get("protocol")
    if protocol not in REQUESTS:
        raise ValueError(f"unknown protocol {protocol!r}")
    runner, required, optional = REQUESTS[protocol]
    for key in required:
        if key not in request:
            raise InputShapeError(f"a {protocol} request needs {key!r}")
    kwargs = {} if coins is None else {"coins": coins}
    for key, value in request.items():
        if key not in (*required, *optional, "protocol"):
            raise InputShapeError(f"a {protocol} request does not read {key!r}")
        if key in optional:
            kwargs[_PARAMETERS.get(key, key)] = value
    return globals()[runner](*(request[key] for key in required), **kwargs)


def monte_carlo(
    request: dict, trials: int, seed: int, trial_log: list | None = None
) -> MonteCarloStats:
    """Seeded Monte Carlo over protocol attempts.

    For postselected protocols each trial is one attempt, a success with
    the analytic dyadic probability.  For chains each trial runs the
    retry policy and records resource use; the chain's graph does not
    depend on the coins, so it is built once and each trial draws only
    its fusion coins.
    Trial t draws from ``np.random.default_rng([seed, t])``: an attempt
    succeeds when its ``random()`` falls below the analytic probability,
    and a chain's fusion coins are its ``integers(0, 2)``.  The streams of
    each block of trials are computed together and equal those generators
    bit for bit, so results do not depend on evaluation order; the
    SeedSequence pool is mixed in row steps against hash-constant columns
    built at import (see ``_pcg64_words``).  A chain trial's tries are
    read, in array arithmetic, from the positions of the 0 coins in its
    computed prefix of outputs; the Python coin stream
    ``_fusion_coins`` only continues a trial that runs past it.  ``trials``
    is an int >= 1 and ``seed`` an int >= 0.  Pass a list as ``trial_log``
    to collect (trial, success, resource...) rows for CSV export.
    """
    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)
    base = run_request(request)  # checks the request; a chain's graph is built once here
    chain = request["protocol"] == "chain"
    if chain:
        totals = [0, 0, 0]
        # the closure fusion is the only unrecoverable coin
        analytic = 0.5 if base.close_cycle else 1.0
    else:
        analytic = float(base.success_probability)
        pairs = base.resources.get("bell_pairs", 0)
    successes = 0
    for start in range(0, trials, _TRIAL_BLOCK):
        block = np.arange(start, min(start + _TRIAL_BLOCK, trials), dtype=np.uint64)
        if chain:
            # a trial needs two coins per joint on average, and a closed chain one
            # more; the prefix holds two per output, and a trial past it steps on.
            # Longer prefixes (4 to 8 spare outputs) cut the closed trials that step
            # on from 1.7% to 0.01% but measured no faster per call.
            words, state = _pcg64_words(seed, block, len(base.blocks) + 3)
            runs, short = _retry_count_rows(base.blocks, base.close_cycle, words)
            for i in np.flatnonzero(short).tolist():
                runs[i] = _retry_counts(base.blocks, base.close_cycle,
                                        _fusion_coins(words[i].tolist(), state, i))
            sums = runs.sum(axis=0).tolist()
            successes += sums[0]
            totals = [total + column for total, column in zip(totals, sums[1:])]
            if trial_log is not None:
                trial_log.extend((start + i, *run) for i, run in enumerate(runs.tolist()))
        else:
            words, _ = _pcg64_words(seed, block, 1)
            hits = (words[:, 0] >> np.uint64(11)) * 2.0**-53 < analytic  # random() < analytic
            successes += int(np.count_nonzero(hits))
            if trial_log is not None:
                trial_log.extend((start + i, hit, pairs)
                                 for i, hit in enumerate(hits.astype(int).tolist()))
    if chain:
        resource_totals = dict(zip(("blocks", "bell_pairs", "fusions"), totals))
    else:
        resource_totals = {"bell_pairs": pairs * trials}
    p_hat = successes / trials
    std_error = math.sqrt(p_hat * (1 - p_hat) / trials)
    if std_error > 0:
        deviation = abs(p_hat - analytic) / std_error
        flagged = deviation > 3.0
    else:  # no spread: a miss is flagged, at no finite number of sigmas
        deviation = 0.0 if p_hat == analytic else None
        flagged = p_hat != analytic
    return MonteCarloStats(
        trials=trials,
        successes=successes,
        estimated_probability=p_hat,
        std_error=std_error,
        resource_means={k: v / trials for k, v in resource_totals.items()},
        rng_seed=seed,
        analytic_probability=analytic,
        deviation_sigmas=deviation,
        flagged=flagged,
    )
