#!/usr/bin/env python3
"""Exhaustive measurement-word sweep for one resource.

Classifies every word over {X, Y, Z}, verifies the prediction against
the rewrite-rule simulation, and tabulates the reachable shape classes.
A size the resource cannot build, or a sweep of more than
``minors.MAX_SWEEP_WORDS`` words, is a usage error (exit 2).

    PYTHONPATH=src python3 scripts/word_sweep.py --resource zigzag --n 10
    PYTHONPATH=src python3 scripts/word_sweep.py --resource honeycomb --n 8 --csv shapes.csv
"""

import argparse
import json
import sys
from collections import Counter

from photonweave.minors import RESOURCES, crosscheck_report, resource_words


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resource", default="zigzag", choices=RESOURCES)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--csv", help="also write one row per word here")
    args = parser.parse_args()

    try:
        words = resource_words(args.resource, args.n)
    except ValueError as exc:  # a size the resource cannot build, or too many words
        parser.error(str(exc))
    rows = [crosscheck_report(args.n, word, args.resource) for word in words]

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
