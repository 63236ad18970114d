#!/usr/bin/env python3
"""Exhaustive measurement-word sweep for one resource.

Classifies every word over {X, Y, Z}, verifies the prediction against
the rewrite-rule simulation, and tabulates the reachable shape classes.

    PYTHONPATH=src python3 scripts/word_sweep.py --resource zigzag --n 10
    PYTHONPATH=src python3 scripts/word_sweep.py --resource honeycomb --n 8 --csv shapes.csv
"""

import argparse
import itertools
import json
import sys
from collections import Counter

from photonweave.minors import RESOURCE_BUILDERS, RESOURCES, crosscheck_report


def word_length(resource: str, n: int) -> int:
    return len(RESOURCE_BUILDERS[resource](n)[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resource", default="zigzag", choices=RESOURCES)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--csv", help="also write one row per word here")
    args = parser.parse_args()

    k = word_length(args.resource, args.n)
    rows = []
    for letters in itertools.product("XYZ", repeat=k):
        rows.append(crosscheck_report(args.n, "".join(letters), args.resource))

    by_class = Counter(r["simulated"] for r in rows)
    mismatches = [r["word"] for r in rows if not r["equivalent"]]
    summary = {
        "resource": args.resource,
        "n": args.n,
        "words": len(rows),
        "classes": dict(sorted(by_class.items())),
        "mismatches": mismatches,
    }
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    print()

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("word,predicted,simulated,equivalent\n")
            for r in rows:
                fh.write(f"{r['word']},{r['predicted']},{r['simulated']},{r['equivalent']}\n")
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
