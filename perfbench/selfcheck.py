"""Determinism self-check of the traced run.

    python3 perfbench/selfcheck.py

For each workload this runs ``run.py --trace 1`` twice with the default
seed and once with the hold-out seed, each in a fresh process.  Every
per-layer metric that is not a timing (call counts, optics terms,
lc_orbit yields, fusion attempts and the ratios built from them) must
be identical between the two same-seed runs, and the op count must not
depend on the seed.  Exits 1 and names each difference otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (sibling module, not an installed package)

TIMINGS = ("trace.ops_per_s", "trace.overhead_ratio")


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()
            if not name.endswith("self_share") and name not in TIMINGS}


def main() -> int:
    problems = []
    for workload in run.WORKLOADS:
        first = traced(workload, run.DEFAULT_SEED)
        again = traced(workload, run.DEFAULT_SEED)
        other = traced(workload, run.HOLDOUT_SEED)
        problems += [f"{workload}: {name} {first[name]} then {again[name]}"
                     for name in first if first[name] != again[name]]
        if first["trace.pass_ops"] != other["trace.pass_ops"]:
            problems.append(f"{workload}: op count {first['trace.pass_ops']} with seed "
                            f"{run.DEFAULT_SEED}, {other['trace.pass_ops']} with seed "
                            f"{run.HOLDOUT_SEED}")
        print(f"{workload}: {len(first)} counters compared", flush=True)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
