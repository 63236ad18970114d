"""The benchmark's seeded workloads.

Each workload is a list of ops built from the seed alone; photonweave
only ever receives the generated inputs.  Every op's result is checked
against a value the benchmark derives itself (an analytic probability,
the graph runner's probability, the oracle's verdict), so a faster wrong
answer counts as a failure.

Ops call the library through module attributes (``pr.ghz_optics``, not a
name bound at import), so the traced run's patches are seen.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from photonweave import minors, protocols as pr, states

#: the verify suite's tolerance on dyadic probabilities computed in floats
PROB_TOL = 1e-12
#: Monte Carlo gate; the acceptance suite's 3 sigma would fail 0.3% of seeds
MC_SIGMAS = 5.0
#: trials per monte_carlo call; each call is one latency sample
MC_CHUNK = 1000


@dataclass(frozen=True)
class Op:
    label: str
    weight: int  # ops this call counts as: trials for montecarlo, else 1
    run: Callable[[], object]
    #: ops with the same class do the same work on different seeds, and
    #: share one cost estimate; None means the op is its own class
    cost_class: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: list[Op]
    #: indices of ops whose check fails, given the results of one pass
    failed: Callable[[dict[int, object]], set[int]]


def _false_results(results: dict[int, object]) -> set[int]:
    return {i for i, ok in results.items() if ok is not True}


# -- dual-engine ----------------------------------------------------------------


def _agree(sv, prob: float, graph, expected: float) -> bool:
    return abs(prob - expected) <= PROB_TOL and states.state_locally_equivalent(sv, graph)


def _ghz(m: int, server: bool, outcomes: str) -> bool:
    res = pr.run_ghz(m, server, outcomes)
    sv, prob, _ = pr.ghz_optics(m, server, outcomes)
    return _agree(sv, prob, res.final_graph, float(res.success_probability))


def _path(m: int, server: bool, outcomes: str, weaver: str) -> bool:
    res = pr.run_path(m, server, outcomes, weaver)
    sv, prob, _ = pr.path_optics(m, server, outcomes, weaver)
    return _agree(sv, prob, res.final_graph, float(res.success_probability))


def _comb(m: int) -> bool:
    sv, prob, _ = pr.path_optics(m, stop_before_measurement=True)
    return _agree(sv, prob, pr.comb_graph(m), float(pr.run_path(m).success_probability))


def _cycle(m: int, outcomes: str, weaver: str) -> bool:
    res = pr.run_cycle(m, outcomes, weaver)
    sv, prob, _ = pr.cycle_optics(m, outcomes, weaver)
    return _agree(sv, prob, res.final_graph, float(res.success_probability))


def _caterpillar(layout: list[str], close: bool) -> bool:
    res = pr.run_caterpillar(layout, close)
    sv, prob = pr.caterpillar_optics(layout, close)
    return _agree(sv, prob, res.final_graph, float(res.success_probability))


def _block(kind: str) -> bool:
    graph, expected = pr.build_block(kind)
    sv, prob = pr.block_optics(kind)
    return _agree(sv, prob, graph, float(expected))


#: the caterpillar layouts of the verify suite's dual-path criterion
CATERPILLAR_LAYOUTS = (
    (("spine", "spine", "leaf"), False),
    (("spine", "leaf", "spine"), False),
    (("spine", "leaf", "leaf", "spine"), False),
    (("spine", "spine", "leaf"), True),
    (("spine", "spine", "spine", "leaf"), True),
)


def dual_engine(seed: int) -> Workload:
    """34 optics-versus-graph agreement checks; detector outcomes from the seed."""
    rng = random.Random(f"dual-engine:{seed}")

    def signs(k: int) -> str:
        return "".join(rng.choice("+-") for _ in range(k))

    ops = []
    for m in range(2, 8):
        for server in (False, True):
            o = signs(m - 1 if server else m)
            ops.append(Op(f"ghz M={m} server={server} {o}", 1,
                          lambda m=m, s=server, o=o: _ghz(m, s, o)))
    for m in range(2, 6):
        o, w = signs(m - 1), rng.choice("HV")
        ops.append(Op(f"path M={m} {o}{w}", 1, lambda m=m, o=o, w=w: _path(m, False, o, w)))
        o = signs(m - 1)
        ops.append(Op(f"path M={m} server {o}", 1, lambda m=m, o=o: _path(m, True, o, "H")))
        ops.append(Op(f"comb M={m}", 1, lambda m=m: _comb(m)))
    for m in (3, 4):
        o, w = signs(m), rng.choice("HV")
        ops.append(Op(f"cycle M={m} {o}{w}", 1, lambda m=m, o=o, w=w: _cycle(m, o, w)))
    for layout, close in CATERPILLAR_LAYOUTS:
        ops.append(Op(f"caterpillar {','.join(layout)} close={close}", 1,
                      lambda l=list(layout), c=close: _caterpillar(l, c)))
    for kind in pr.BLOCK_KINDS:
        ops.append(Op(f"block {kind}", 1, lambda k=kind: _block(k)))
    return Workload("dual-engine", ops, _false_results)


# -- word-sweep -----------------------------------------------------------------


def _words(k: int) -> list[str]:
    return ["".join(letters) for letters in itertools.product("XYZ", repeat=k)]


def _rotation_classes(k: int) -> list[list[str]]:
    classes: dict[str, list[str]] = {}
    for word in _words(k):
        key = min(word[i:] + word[:i] for i in range(k))
        classes.setdefault(key, []).append(word)
    return [sorted(c) for _, c in sorted(classes.items())]


def word_sweep(seed: int) -> Workload:
    """minors.crosscheck over three exhaustive sweeps and a seeded honeycomb set.

    The seeded part takes one random rotation of each of the 130 rotation
    classes of honeycomb n=12 words.  Uniform draws instead let the sum of
    per-word costs, which spans 0.7 ms to 230 ms, move the pass time by
    about 8% between seeds.
    """
    rng = random.Random(f"word-sweep:{seed}")
    cases = [(12, w, "zigzag") for w in _words(6)]
    cases += [(10, w, "honeycomb") for w in _words(5)]
    cases += [(10, w, "path_every_third") for w in _words(4)]
    cases += [(12, rng.choice(c), "honeycomb") for c in _rotation_classes(6)]
    ops = [
        Op(f"{res} n={n} {w}", 1, lambda n=n, w=w, r=res: minors.crosscheck(n, w, r))
        for n, w, res in cases
    ]
    return Workload("word-sweep", ops, _false_results)


# -- montecarlo -----------------------------------------------------------------


@dataclass(frozen=True)
class McRequest:
    request: dict
    trials: int
    success: float  # analytic success probability of one trial
    blocks: int = 0  # chain length; its mean block use is 1 + 2 (blocks - 1)


MC_REQUESTS = (
    McRequest({"protocol": "chain", "blocks": ["path4"] * 4, "plan": list("YXZ")},
              8000, 1.0, 4),
    McRequest({"protocol": "chain", "blocks": ["three"] * 5, "close": True,
               "plan": list("YXYZY")}, 8000, 0.5, 5),
    McRequest({"protocol": "chain", "blocks": ["star4", "path4", "three"]}, 4000, 1.0, 3),
    McRequest({"protocol": "ghz", "M": 3}, 50000, 2.0**-2),
    McRequest({"protocol": "path", "M": 5}, 50000, 2.0**-4),
)


def _within(estimate: float, expected: float, variance: float, n: int) -> bool:
    """Is the mean of n trials within MC_SIGMAS standard errors of expected?"""
    se = math.sqrt(variance / n)
    if se == 0:
        return estimate == expected
    return abs(estimate - expected) <= MC_SIGMAS * se


def _mc_failed(group: list[int], results: dict[int, object]) -> set[int]:
    """Per request: one 5-sigma test over all of its calls that finished."""
    ops_by_request: dict[int, list[int]] = {}
    for i in results:
        ops_by_request.setdefault(group[i], []).append(i)
    bad: set[int] = set()
    for r, idx in ops_by_request.items():
        spec = MC_REQUESTS[r]
        n = sum(results[i].trials for i in idx)
        p_hat = sum(results[i].successes for i in idx) / n
        ok = _within(p_hat, spec.success, spec.success * (1 - spec.success), n)
        if spec.blocks:
            # each of the blocks - 1 joints retries a Geometric(1/2) number of
            # blocks: mean 2, variance 2
            joints = spec.blocks - 1
            mean_blocks = sum(results[i].resource_means["blocks"] * results[i].trials
                              for i in idx) / n
            ok = ok and _within(mean_blocks, 1 + 2 * joints, 2 * joints, n)
        if not ok:
            bad.update(idx)
    return bad


def montecarlo(seed: int) -> Workload:
    """protocols.monte_carlo over 120,000 trials in calls of MC_CHUNK trials.

    Each call gets its own seed drawn from the workload seed.
    """
    rng = random.Random(f"montecarlo:{seed}")
    ops, group = [], []
    for r, spec in enumerate(MC_REQUESTS):
        for c in range(spec.trials // MC_CHUNK):
            call_seed = rng.getrandbits(32)
            ops.append(Op(f"{spec.request['protocol']} #{r} call {c} seed {call_seed}",
                          MC_CHUNK,
                          lambda q=spec.request, s=call_seed: pr.monte_carlo(q, MC_CHUNK, s),
                          cost_class=f"request {r}"))
            group.append(r)
    return Workload("montecarlo", ops, lambda results: _mc_failed(group, results))


BUILDERS = {"dual-engine": dual_engine, "word-sweep": word_sweep, "montecarlo": montecarlo}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
