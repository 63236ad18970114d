#!/usr/bin/env python3
"""Tabulate protocol success probabilities: analytic vs Monte Carlo.

    PYTHONPATH=src python3 scripts/protocol_table.py --trials 20000 --seed 1
"""

import argparse
import math
import sys

from photonweave.protocols import monte_carlo, run_request


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    requests = []
    for m in range(2, 7):
        requests.append({"protocol": "ghz", "M": m})
    for m in range(2, 6):
        requests.append({"protocol": "path", "M": m})
    for m in range(3, 6):
        requests.append({"protocol": "cycle", "M": m})
    requests.append({"protocol": "caterpillar",
                     "layout": ["spine", "leaf", "spine", "leaf"]})
    requests.append({"protocol": "caterpillar",
                     "layout": ["spine", "spine", "leaf"], "close": True})

    print(f"{'protocol':30s} {'exact':>12s} {'estimate':>10s} {'3*sigma':>9s}")
    worst = 0.0
    for req in requests:
        res = run_request(req)
        stats = monte_carlo(req, args.trials, args.seed)
        label = req["protocol"] + (
            f" M={req['M']}" if "M" in req else f" {','.join(k[0] for k in req['layout'])}"
            + ("/closed" if req.get("close") else "")
        )
        exact = float(res.success_probability)
        # the binomial spread at the exact probability: an estimate with no
        # successes has an empirical standard error of 0
        sigma = math.sqrt(exact * (1 - exact) / args.trials)
        pull = abs(stats.estimated_probability - exact) / sigma
        worst = max(worst, pull)
        print(f"{label:30s} {exact:12.6f} {stats.estimated_probability:10.5f}"
              f" {3 * sigma:9.5f}")
    print(f"worst deviation: {worst:.2f} sigma")
    return 0 if worst <= 5 else 1


if __name__ == "__main__":
    sys.exit(main())
