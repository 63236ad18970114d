"""Executable verification suites behind the CLI ``verify`` verb.

Each suite re-derives its expected values from an independent route
(explicit circuit simulation, exhaustive enumeration, or state-vector
projection) and checks the package against them: every optics
probability equals its dyadic value exactly, and amplitudes and the
state-vector probability of ``appendix-a`` hold fixed tolerances.
Each ``check_*`` returns ``(passed, details)``; ``run_suite`` times it and
reports it under its ``SUITES`` key.  The acceptance test module runs the
same suites through ``run_suite``.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import minors, optics as po, protocols as pr
from .graphs import (
    Graph,
    cycle_graph,
    local_complement,
    measure_pauli,
    path_graph,
    star_graph,
)
from .states import (
    StateVector,
    apply_single_qubit,
    state_locally_equivalent,
    to_state_vector,
)

#: the tolerance on appendix-a's state-vector probability, computed in floats
PROB_TOL = 1e-12
AMP_TOL = 1e-10


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: str
    seconds: float


def _plus_circuit(n: int, elements: list[dict]) -> dict:
    """A circuit description on n |+> photons at ports 0..n-1, all postselected."""
    return {"sources": [{"plus": i} for i in range(n)], "elements": elements,
            "postselect": list(range(n))}


def check_ghz_postselection() -> tuple[bool, str]:
    """N-photon coincidence chain: probability 2^-(N-1), GHZ output."""
    for n in range(2, 9):
        s, prob, _ = po.run_circuit(_plus_circuit(n, pr.ghz_weave(range(n))))
        if prob != 0.5 ** (n - 1):
            return False, f"N={n}: prob {prob}"
        for amp in s.terms.values():
            if abs(abs(amp) - 2**-0.5) > AMP_TOL:
                return False, f"N={n}: amplitude {amp}"
        sv = po.extract_logical(s, {i: i for i in range(n)})
        if not state_locally_equivalent(sv, star_graph(0, range(1, n))):
            return False, f"N={n}: not a star state"
    return True, "N=2..8 exact"


def check_cz_gate() -> tuple[bool, str]:
    """Auxiliary-photon CZ: probability 1/4, the four-term state, recovery."""
    elements = pr.graph_weave(0, [1, 2])
    s, prob, _ = po.run_circuit(_plus_circuit(3, elements))
    if prob != 0.25:
        return False, f"prob {prob}"
    # literal four-term target, auxiliary written in the +/- basis
    sv = po.extract_logical(s, {0: 0, 1: 1, 2: 2})
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    h = np.array([1, 0])
    v = np.array([0, 1])
    expected = (
        np.kron(plus, np.kron(h, h))
        + np.kron(minus, np.kron(h, v))
        + np.kron(plus, np.kron(v, h))
        - np.kron(minus, np.kron(v, v))
    ) / 4.0
    got = sv.amplitudes * math.sqrt(prob)  # undo the postselection renorm
    if np.max(np.abs(got - expected)) > AMP_TOL:
        return False, "postselected state != four-term target"
    # both auxiliary H/V branches recover the two-qubit path state
    z2 = np.diag([1.0, -1.0])
    for outcome in ("H", "V"):
        measure = [{"port": 0, "basis": "HV", "outcome": outcome}]
        post, _, _ = po.run_circuit({**_plus_circuit(3, elements), "measure": measure})
        branch = po.extract_logical(post, {1: 1, 2: 2})
        if outcome == "V":  # recorded correction: Z on the photon the weaver left
            branch = apply_single_qubit(branch, 2, z2)
        target = to_state_vector(path_graph(2))
        if np.abs(np.abs(np.vdot(branch.amplitudes, target.amplitudes)) - 1) > AMP_TOL:
            return False, f"branch {outcome} not recovered"
    return True, "1/4 exact, four-term state, both branches recovered"


def check_path_weaving() -> tuple[bool, str]:
    """Weaving chain on N photons: probability 2^-N and an (N+1)-path."""
    for n in range(2, 8):
        weave = pr.graph_weave(0, range(1, n + 1))  # 0 is the weaver
        s, prob, _ = po.run_circuit(_plus_circuit(n + 1, weave))
        if prob != 0.5**n:
            return False, f"N={n}: prob {prob}"
        sv = po.extract_logical(s, {i: i for i in range(1, n + 1)} | {0: n + 1})
        if not state_locally_equivalent(sv, path_graph(n + 1)):
            return False, f"N={n}: not a path"
    return True, "N=2..7 exact"


def check_protocol_exponents() -> tuple[bool, str]:
    """All analytic success exponents, as exact integers."""
    checks: list[tuple[str, int, int]] = []
    for m in range(2, 9):
        checks.append((f"ghz M={m}", pr.run_ghz(m).success_exponent, m - 1))
    for m in range(2, 8):
        checks.append((f"path M={m}", pr.run_path(m).success_exponent, m - 1))
    for m in range(3, 7):
        checks.append((f"cycle M={m}", pr.run_cycle(m).success_exponent, m + 1))
    for m in range(2, 8):
        layout = ["spine"] + ["leaf" if i % 2 else "spine" for i in range(1, m)]
        checks.append(
            (f"caterpillar open M={m}", pr.run_caterpillar(layout).success_exponent, m - 1)
        )
        if sum(k == "spine" for k in layout) >= 2:
            checks.append(
                (
                    f"caterpillar closed M={m}",
                    pr.run_caterpillar(layout, close_cycle=True).success_exponent,
                    m + 1,
                )
            )
    for kind, expected in (("path4", 3), ("star4", 3), ("three", 2)):
        _, p = pr.build_block(kind)
        if p != Fraction(1, 2**expected):
            return False, f"block {kind}: {p}"
    bad = [(name, got, want) for name, got, want in checks if got != want]
    if bad:
        return False, f"mismatches: {bad[:3]}"
    return True, f"{len(checks)} exponents exact"


def _dual_path_cases():
    """(label, optics (state, probability), graph, exact probability), in report order."""

    def case(label, run, optics, *args):
        res = run(*args)
        return label, optics(*args)[:2], res.final_graph, res.success_probability

    for m in range(2, 9):
        yield case(f"ghz M={m}", pr.run_ghz, pr.ghz_optics, m)
        yield case(f"ghz+server M={m}", pr.run_ghz, pr.ghz_optics, m, True)
    for m in range(2, 8):
        comb = pr.path_optics(m, stop_before_measurement=True)[:2]
        yield (f"path M={m} comb intermediate", comb, pr.comb_graph(m),
               pr.run_path(m).success_probability)
        yield case(f"path M={m}", pr.run_path, pr.path_optics, m)
        yield case(f"path+server M={m}", pr.run_path, pr.path_optics, m, True)
    for m in range(3, 7):
        yield case(f"cycle M={m}", pr.run_cycle, pr.cycle_optics, m)
    layouts = [
        (["spine", "spine", "leaf"], False),
        (["spine", "leaf", "spine"], False),
        (["spine", "leaf", "leaf", "spine"], False),
        (["spine", "spine", "leaf"], True),
        (["spine", "spine", "spine", "leaf"], True),
        (["spine", "leaf", "spine", "leaf", "spine", "leaf", "spine"], False),
        (["spine", "spine", "leaf", "spine", "leaf", "spine", "leaf"], True),
    ]
    for layout, close in layouts:
        yield case(f"caterpillar {layout} close={close}", pr.run_caterpillar,
                   pr.caterpillar_optics, layout, close)
    for kind in pr.BLOCK_KINDS:
        yield f"block {kind}", pr.block_optics(kind), *pr.build_block(kind)


def check_dual_path() -> tuple[bool, str]:
    """Optics layer and graph layer agree over every protocol's full range.

    The comb intermediate (2M qubits) runs at every path M, up to 14 qubits.
    """
    for label, (sv, prob), graph, exact in _dual_path_cases():
        if prob != float(exact):
            return False, f"{label} prob"
        if not state_locally_equivalent(sv, graph):
            return False, f"{label} state"
    return True, "ghz M<=8, path M<=7 (comb M<=7), cycle M<=6, caterpillar M<=7 and blocks agree"


def check_appendix_a() -> tuple[bool, str]:
    """Self-fusion of path ends: a leafed cycle, exactly, for N = 4..8."""
    for n in range(4, 9):
        g = path_graph(n)
        fused = pr.fuse_within(g, 1, n)
        want = cycle_graph(range(1, n)).add_vertex(n).add_edge(1, n)
        if fused.edges != want.edges:
            return False, f"N={n}: wrong rewiring"
        # state-vector oracle: coincidence projection + rotation on the last qubit
        sv = to_state_vector(g)
        amps = sv.amplitudes.copy()
        for idx in range(2**n):
            if ((idx >> (n - 1)) & 1) != (idx & 1):  # qubits 1 and n disagree
                amps[idx] = 0.0
        prob = float(np.sum(np.abs(amps) ** 2))
        if abs(prob - 0.5) > PROB_TOL:
            return False, f"N={n}: fusion prob {prob}"
        fused_sv = StateVector(amps / math.sqrt(prob), sv.qubit_order)
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        fused_sv = apply_single_qubit(fused_sv, n, hadamard)
        target = to_state_vector(fused)
        if np.max(np.abs(fused_sv.amplitudes - target.amplitudes)) > AMP_TOL:
            return False, f"N={n}: state mismatch"
    return True, "P_N ends fuse to C_(N-1)+leaf, N=4..8"


def check_appendix_b(zigzag_sizes: tuple[int, ...] = (6, 8, 10, 12, 14)) -> tuple[bool, str]:
    """Crosscheck every word of each resource at each size, sizing every sweep first."""
    table = (("zigzag", zigzag_sizes), ("honeycomb", (8, 10, 12)),
             ("path_every_third", (7, 10, 13)))
    cases = [(resource, n, word) for resource, sizes in table for n in sizes
             for word in minors.resource_words(resource, n)]
    for resource, n, word in cases:
        if not minors.crosscheck(n, word, resource):
            return False, f"{resource} n={n} word {word}"
    return True, f"{len(cases)} words verified"


def check_monte_carlo(trials: int = 100_000, seed: int = 7) -> tuple[bool, str]:
    """Seeded estimates sit within 3 sigma and reruns are bit-identical."""
    stats = pr.monte_carlo({"protocol": "ghz", "M": 3}, trials, seed)
    if stats.flagged:
        return False, f"ghz(3) off: {stats.estimated_probability}"
    if stats != pr.monte_carlo({"protocol": "ghz", "M": 3}, trials, seed):
        return False, "ghz rerun differs"
    chain_req = {"protocol": "chain", "blocks": ["path4"] * 4}
    chain = pr.monte_carlo(chain_req, trials, seed)
    # analytic mean blocks: 1 + sum over 3 joints of geometric(1/2) retries = 7;
    # verified against exhaustive branch enumeration in the test suite
    mean_blocks = chain.resource_means["blocks"]
    # per-trial variance of 1 + 3 geometrics: 3 * 2 = 6
    se = math.sqrt(6.0 / trials)
    if abs(mean_blocks - 7.0) > 3 * se + 1e-9:
        return False, f"chain blocks mean {mean_blocks}"
    if chain != pr.monte_carlo(chain_req, trials, seed):
        return False, "chain rerun differs"
    return True, f"ghz(3) p={stats.estimated_probability:.4f}, chain blocks={mean_blocks:.3f}"


def check_properties() -> tuple[bool, str]:
    """Structural invariants at the sizes the module contracts state."""
    rnd = random.Random(3)

    def random_graph(n: int) -> Graph:
        labels = list(range(1, n + 1))
        edges = [e for e in itertools.combinations(labels, 2) if rnd.random() < 0.5]
        return Graph(labels, edges)

    for _ in range(1000):
        g = random_graph(rnd.randint(1, 8))
        v = rnd.choice(g.vertices)
        if local_complement(local_complement(g, v), v).edges != g.edges:
            return False, "lc involution failed"
    for _ in range(300):
        g = random_graph(rnd.randint(1, 8))
        v = rnd.choice(g.vertices)
        h = measure_pauli(g, v, "Z")
        want_edges = {e for e in g.edges if v not in e}
        if set(h.vertices) != set(g.vertices) - {v} or h.edges != frozenset(want_edges):
            return False, "Z-measure != deletion"
    # unitarity and photon-number conservation through random circuits
    rng = np.random.default_rng(3)
    sources = [{"gbell": [0, 1]}, {"plus": 2}, {"bell_psi": [3, 4]}]
    for _ in range(40):
        elements = []
        for _ in range(6):
            op = rng.integers(0, 2)
            a, b = (int(p) for p in sorted(rng.choice(5, size=2, replace=False)))
            if op == 0:
                elements.append({"pbs": [a, b]})
            else:
                elements.append({"hwp": [a, 22.5 if rng.integers(0, 2) else 0]})
        for k in range(1, len(elements) + 1):  # checked after every element
            s, _, _ = po.run_circuit({"sources": sources, "elements": elements[:k]})
            if abs(s.norm_squared() - 1.0) > 1e-12:
                return False, "unitarity violated"
            if any(sum(c for _, c in pat) != s.total_photons for pat in s.terms):
                return False, "photon number not conserved"
    # failure containment: retries at a later joint never disturb earlier blocks
    base = pr.fuse_chain(
        ["path4"] * 3, keep_server_ends=True, coins=[False, False]
    ).result.final_graph
    for schedule in ([False, True, False], [False, True, True, False]):
        retry = pr.fuse_chain(
            ["path4"] * 3, keep_server_ends=True, coins=schedule
        ).result.final_graph
        if retry.edges != base.edges:
            return False, "failure not contained"
    return True, "involution, deletion, unitarity, containment"


SUITES = {
    "ghz-postselection": check_ghz_postselection,
    "cz-gate": check_cz_gate,
    "path-weaving": check_path_weaving,
    "protocol-exponents": check_protocol_exponents,
    "dual-path": check_dual_path,
    "appendix-a": check_appendix_a,
    "appendix-b": check_appendix_b,
    "monte-carlo": check_monte_carlo,
    "properties": check_properties,
}


def run_suite(name: str, **kwargs) -> list[CriterionResult]:
    """Run one criterion with ``kwargs``, or every criterion with its defaults ("all").

    A keyword the criterion does not read, or any keyword with "all", raises ValueError.
    """
    if name == "all":
        if kwargs:
            raise ValueError(f"suite 'all' runs every criterion with its defaults and reads "
                             f"no keyword, got {sorted(kwargs)}")
        return [result for key in SUITES for result in run_suite(key)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; use one of {sorted(SUITES)} or 'all'")
    reads = inspect.signature(SUITES[name]).parameters
    if unread := sorted(kwargs.keys() - reads.keys()):
        raise ValueError(f"suite {name!r} does not read {unread}; it reads {sorted(reads)}")
    t0 = time.perf_counter()
    passed, details = SUITES[name](**kwargs)
    return [CriterionResult(name, passed, details, time.perf_counter() - t0)]
