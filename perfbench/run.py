"""photonweave benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload dual-engine --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it carries the details (sample counts,
per-op fastest times, run context).  See perfbench/NOTES.md for the design.
"""

from __future__ import annotations

import os

# one thread: set before numpy is imported, here and in the set-up probes,
# which inherit the environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("dual-engine", "word-sweep", "montecarlo")
#: set-up probes per run; setup_s is their median
SETUP_PROBES = 11
#: a set-up probe: a fresh interpreter that imports photonweave and the
#: workloads, builds the inputs and nothing else
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.build(sys.argv[3], int(sys.argv[4])); print('ready', flush=True)")
#: whole passes a run makes at least, so every op has several timings
MIN_PASSES = 3
#: a run stops starting ops after this long, even short of MIN_PASSES
HARD_STOP_S = 150.0
DEFAULT_SEED = 20251017
#: re-check a claimed gain on this seed, which was not used while tuning
HOLDOUT_SEED = 911
#: untraced and traced passes a traced run alternates, after one warm-up pass
TRACE_ROUNDS = 3


def _import_package() -> None:
    """Import photonweave from this checkout's src/ and nowhere else."""
    if not (SRC / "photonweave" / "__init__.py").is_file():
        sys.exit(f"error: no src/photonweave under {ROOT}; run from a photonweave checkout")
    sys.path.insert(0, str(SRC))
    import photonweave

    if Path(photonweave.__file__).resolve().parent != SRC / "photonweave":
        sys.exit(f"error: imported photonweave from {photonweave.__file__}, not {SRC}")


def _setup(workload: str, seed: int):
    _import_package()
    import workloads  # a sibling of this file

    return workloads.build(workload, seed)


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Time fresh processes from launch to inputs ready."""
    times = []
    cmd = [sys.executable, "-c", PROBE, str(SRC), str(HERE), workload, str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                sys.exit("error: set-up probe failed")
    return times


def _run_pass(wl, order, times, deadline=None):
    """Run ops in the given order; return (ops attempted, ops failed, stopped early).

    Every op is timed, also when it raises or its check fails.
    """
    results, errors = {}, set()
    stopped = False
    for i in order:
        if deadline is not None and time.perf_counter() >= deadline:
            stopped = True
            break
        t0 = time.perf_counter()
        try:
            results[i] = wl.ops[i].run()
        except Exception:
            errors.add(i)
            print(f"op {wl.ops[i].label} raised:", file=sys.stderr)
            traceback.print_exc()
        times[i].append(time.perf_counter() - t0)
    bad = errors | wl.failed(results)
    for i in sorted(bad - errors):
        print(f"op {wl.ops[i].label} failed its check", file=sys.stderr)
    done = set(results) | errors
    return (sum(wl.ops[i].weight for i in done), sum(wl.ops[i].weight for i in bad),
            stopped)


def _order(wl, seed: int, pass_no: int) -> list[int]:
    # shuffled per pass, so a pass cut at the deadline is a fair sample
    order = list(range(len(wl.ops)))
    random.Random(f"order:{wl.name}:{seed}:{pass_no}").shuffle(order)
    return order


def _fastest(wl, times) -> tuple[dict, list]:
    """Per-op cost estimates by cost class, and each timed op with its time.

    Other tenants of a shared host only ever slow an op down, in episodes
    of seconds to minutes; the fastest of many timings spread over the
    run is the steadiest estimate of what an op costs.  Ops of one
    cost_class share the fastest per-op time of any of them.
    """
    best: dict[object, float] = {}
    for i, (op, ts) in enumerate(zip(wl.ops, times)):
        if ts:
            key = op.cost_class or i
            best[key] = min(best.get(key, math.inf), min(ts) / op.weight)
    return best, [(op, best[op.cost_class or i] * op.weight)
                  for i, (op, ts) in enumerate(zip(wl.ops, times)) if ts]


def _ops_per_s(fastest) -> float:
    return sum(op.weight for op, _ in fastest) / sum(t for _, t in fastest)


def _latency(estimates: list[float]) -> dict:
    """p50 and p90 of the per-op cost estimates, each only where at least ten
    estimates lie beyond it."""
    out = {}
    for q in (50, 90):
        value = statistics.quantiles(estimates, n=100)[q - 1]
        beyond = sum(e > value for e in estimates)
        if beyond >= 10:
            out[f"op_s_p{q}"] = {"value": value, "estimates": len(estimates), "beyond": beyond}
    return out


def measure(wl, seed: int, seconds: float) -> dict:
    """Untraced closed loop: passes until the deadline, at least MIN_PASSES whole ones."""
    times = [[] for _ in wl.ops]
    t0 = time.perf_counter()
    attempted = failed = passes = 0
    while True:
        deadline = (t0 + seconds if passes >= MIN_PASSES
                    else t0 + HARD_STOP_S if passes else None)
        a, f, stopped = _run_pass(wl, _order(wl, seed, passes), times, deadline)
        attempted, failed = attempted + a, failed + f
        if stopped:
            break
        passes += 1
        if time.perf_counter() >= t0 + seconds and passes >= MIN_PASSES:
            break
    best, fastest = _fastest(wl, times)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": _ops_per_s(fastest),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "detail": {
            "measured_s": time.perf_counter() - t0,
            "full_passes": passes,
            "latency": _latency(list(best.values())),
            "op_fastest_s": {op.label: t for op, t in fastest},
        },
    }


def trace(wl, seed: int) -> dict:
    """A warm-up pass, then TRACE_ROUNDS untraced and traced passes in turn,
    all over the same ops in the same order.

    Counters, spans and self times come from the first traced pass alone,
    so they are exact and repeat for a seed; its spans are written to
    .perfbench/ when the run ends.  The tracing overhead compares each
    op's fastest untraced time with its fastest traced time.
    """
    import tracing

    order = _order(wl, seed, 0)
    plain = [[] for _ in wl.ops]
    traced = [[] for _ in wl.ops]
    attempted, failed, _ = _run_pass(wl, order, [[] for _ in wl.ops])
    for round_no in range(TRACE_ROUNDS):
        a, f, _ = _run_pass(wl, order, plain)
        attempted, failed = attempted + a, failed + f
        with tracing.patched(tracing.Recorder()) as rec:
            a, f, _ = _run_pass(wl, order, traced)
        attempted, failed = attempted + a, failed + f
        if round_no == 0:  # whole passes: each op's first timing is this pass's
            recorder, traced_s = rec, sum(ts[0] for ts in traced)
    recorder.write(ROOT / ".perfbench" / f"spans-{wl.name}.npz")

    pass_ops = sum(op.weight for op in wl.ops)
    own = recorder.self_times()
    calls = dict.fromkeys(tracing.SPAN_NAMES, 0)
    for name_id in recorder.name_id:
        calls[tracing.SPAN_NAMES[name_id]] += 1
    metrics: dict[str, float] = {}
    for module, fns in tracing.TRACED.items():
        metrics[f"{module}.self_share"] = sum(own[f"{module}.{fn}"] for fn in fns) / traced_s
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_share"] = own[name] / traced_s
    metrics["unwrapped.self_share"] = (
        traced_s - sum(own.values()) - recorder.counting_s) / traced_s
    c = recorder.counters
    metrics["optics.terms_in"] = c["optics.terms_in"]
    metrics["optics.peak_terms"] = c["optics.peak_terms"]
    metrics["optics.postselect.kept_terms_ratio"] = (
        c["optics.postselect.terms_kept"] / c["optics.postselect.terms_in"]
        if c["optics.postselect.terms_in"] else 0.0)
    metrics["states.graph_form.qubits_max"] = c["states.graph_form.qubits_max"]
    metrics["graphs.lc_orbit.yielded"] = c["graphs.lc_orbit.yielded"]
    attempts = c["protocols.fuse_chain.fusion_attempts"]
    metrics["protocols.fuse_chain.fusion_attempts"] = attempts
    metrics["protocols.fuse_chain.fusion_success_ratio"] = (
        c["protocols.fuse_chain.fusions_succeeded"] / attempts if attempts else 0.0)
    chains = calls["protocols.fuse_chain"]
    metrics["protocols.fuse_chain.blocks_per_trial"] = (
        c["protocols.fuse_chain.blocks"] / chains if chains else 0.0)
    plain_ops_per_s = _ops_per_s(_fastest(wl, plain)[1])
    metrics["trace.ops_per_s"] = _ops_per_s(_fastest(wl, traced)[1])
    metrics["trace.overhead_ratio"] = metrics["trace.ops_per_s"] / plain_ops_per_s
    metrics["trace.pass_ops"] = pass_ops
    metrics["trace.spans"] = len(recorder.name_id)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {"untraced_ops_per_s": plain_ops_per_s, "traced_s": traced_s,
                   "counting_s": recorder.counting_s},
    }


def context() -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = _setup(args.workload, args.seed)
    if args.trace:
        out = trace(wl, args.seed)
    else:
        setup = _setup_seconds(args.workload, args.seed)
        out = measure(wl, args.seed, args.seconds or spec["run_seconds"])
        out["metrics"]["setup_s"] = statistics.median(setup)
        out["detail"]["setup_samples_s"] = setup
    missing = [m["name"] for m in declared if m["name"] not in out["metrics"]]
    if missing:
        sys.exit(f"error: BENCHMARK.json declares metrics this run lacks: {missing}")
    detail = {"workload": args.workload, "seed": args.seed, **out["detail"],
              "context": context(), "all_metrics": out["metrics"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
