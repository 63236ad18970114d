#!/usr/bin/env python3
"""Digest a fixed matrix of CLI commands, for byte-identity checks between commits.

    PYTHONPATH=src python3 scripts/cli_matrix.py > matrix.txt

Each command runs in-process through ``photonweave.cli.main`` inside a
fresh temporary directory, which is also ``$PHOTONWEAVE_OUT_DIR``.  One
line per command gives its exit code and SHA-256 digests (first 16 hex
digits) of the report without its timing fields, of stderr and of the
CSV log it wrote ('-' when there is none).  Run it on two checkouts and
diff the outputs: a line that differs is a behaviour change.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from photonweave import cli

# inputs for ``export``, written into the run directory
FILES = {
    "graph.json": '{"vertices": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [2, 4]]}',
    "state.json": json.dumps({"total_photons": 2, "terms": [
        {"occupations": [[0, "H", 1], [1, "H", 1]], "amplitude": [0.6, 0.0]},
        {"occupations": [[0, "V", 1], [1, "V", 1]], "amplitude": [0.0, 0.8]},
    ]}),
    "neither.json": '{"nodes": [1, 2]}',
    "repeated_vertex.json": '{"vertices": [1, 1, 2], "edges": [[1, 2], [2, 1]]}',
    "repeated_term.json": json.dumps({"terms": [
        {"occupations": [[0, "H", 1]], "amplitude": [0.6, 0.0]},
        {"occupations": [[0, "H", 1]], "amplitude": [0.8, 0.0]},
    ]}),
}

COMMANDS = [
    # simulate: every protocol, then usage errors, then runtime errors
    "simulate --protocol ghz --users 3",
    "simulate --protocol ghz --users 4 --server --outcomes +-+",
    "simulate --protocol path --users 4 --server --outcomes=-+-",
    "simulate --protocol path --users 4 --server --outcomes -+-",
    "simulate --protocol path --users 3 --outcomes +-",
    "simulate --protocol cycle --users 4 --outcomes +--+",
    "simulate --protocol caterpillar --layout spine,leaf,spine,leaf",
    "simulate --protocol caterpillar --layout spine,leaf,spine --close",
    "simulate --protocol chain --blocks path4,path4 --plan Y --seed 7",
    "simulate --protocol chain --blocks path4,star4 --keep-ends --seed 3",
    "simulate --protocol chain --blocks Three,PATH4,star4 --plan XZ --seed 5",
    "simulate --protocol chain --blocks three,three --close --seed 1",
    # a closed chain that succeeds after three retries
    "simulate --protocol chain --blocks three,path4,star4 --close --plan YXZ --seed 12",
    "simulate --protocol ghz --users 2 --out report.json",
    "simulate --protocol ghz",
    "simulate --protocol caterpillar",
    "simulate --protocol chain --blocks path4,path4",
    "simulate --protocol caterpillar --layout spine,foo",
    "simulate --protocol chain --blocks foo,bar --seed 1",
    "simulate --protocol cycle --users 3 --server",
    "simulate --protocol ghz --users 3 --outcomes +-",
    "simulate --protocol ghz --users 3 --outcomes=",
    "simulate --protocol chain --blocks path4,path4 --plan= --seed 1",
    "simulate --protocol warp",
    "simulate --protocol ghz --users 9",
    "simulate --protocol caterpillar --layout leaf,spine",
    # classify
    "classify --word XYZZY --resource zigzag --n 10",
    "classify --word XYYY",
    "classify --word XXYYZZ --resource zigzag --n 8",
    "classify --word XXXXXXXXXX --n 20",
    "classify --word XXXXXXX --n 14",
    "classify --word XXXXXXXXXX --resource honeycomb --n 20",
    "classify --word XXXX --resource path_every_third --n 10",
    "classify --word XYZX --resource honeycomb --n 8",
    "classify --word XXX --n 7",
    "classify --word XXX --resource path_every_third --n 8",
    "classify --word XXXX --resource path_every_third",
    # the closed words whose spine wraps to two survivors, to one, or to none
    "classify --word XYXY",
    "classify --word XXYX",
    "classify --word XXXX",
    # open words, one with a Z and one of a single letter
    "classify --word XYZX --open",
    "classify --word X --open",
    # verify: every criterion, with appendix-b at small sizes only
    "verify --suite cz-gate",
    "verify --suite ghz-postselection",
    "verify --suite path-weaving",
    "verify --suite protocol-exponents",
    "verify --suite dual-path",
    "verify --suite appendix-a",
    "verify --suite monte-carlo",
    "verify --suite properties",
    "verify --suite appendix-b --n 8",
    "verify --suite appendix-b --n 18",
    "verify --suite appendix-b --n 7",
    "verify --suite cz-gate --trials 3",
    # --trials and --seed passed through to the monte-carlo criterion, and a rejected count
    "verify --suite monte-carlo --trials 2000 --seed 3",
    "verify --suite monte-carlo --trials 0",
    # montecarlo: every protocol, CSV logs, usage errors
    "montecarlo --protocol ghz --users 3 --trials 2000 --seed 7 --csv ghz.csv",
    "montecarlo --protocol path --users 4 --server --trials 1000 --seed 2",
    "montecarlo --protocol cycle --users 3 --trials 1000 --seed 1",
    "montecarlo --protocol caterpillar --layout spine,leaf --trials 200 --seed 5",
    "montecarlo --protocol caterpillar --layout spine,leaf,spine --close --trials 500 --seed 3"
    " --csv cat.csv",
    "montecarlo --protocol chain --blocks path4,path4,path4 --plan YX --trials 500 --seed 4"
    " --csv chain.csv",
    "montecarlo --protocol chain --blocks three,three --close --trials 500 --seed 1 --csv closed.csv",
    # a mixed closed chain past one block of 4,096 trials
    "montecarlo --protocol chain --blocks star4,path4,three --close --trials 5000 --seed 9"
    " --csv mixed.csv",
    # a 4-word seed (2^96 + 1), whose entropy runs past SeedSequence's pool, over two blocks
    "montecarlo --protocol path --users 5 --trials 5000 --seed 79228162514264337593543950337",
    "montecarlo --protocol chain --blocks path4,path4 --plan= --trials 10 --seed 1",
    "montecarlo --protocol chain --blocks path4,bar --trials 10 --seed 1",
    "montecarlo --protocol ghz --users 3 --trials 10",
    "montecarlo --protocol ghz --users 3 --trials 0 --seed 1",
    # a flagged run with zero standard error, and a CSV log into a new directory
    "montecarlo --protocol ghz --users 3 --trials 1 --seed 0",
    "montecarlo --protocol chain --blocks three,three --trials 20 --seed 1 --csv logs/new/t.csv",
    # export
    "export --in graph.json --format dot --out graph.dot",
    "export --in graph.json --format json",
    "export --in state.json --format csv",
    "export --in state.json --format json",
    "export --in state.json --format dot",
    "export --in graph.json --format csv",
    "export --in neither.json --format json",
    "export --in repeated_vertex.json --format json",
    "export --in repeated_term.json --format json",
]


def digest(text: str | None) -> str:
    return "-" if text is None else hashlib.sha256(text.encode()).hexdigest()[:16]


def without_timing(text: str) -> str:
    """The report with ``timing_seconds`` and every ``criteria[].seconds`` dropped."""
    try:
        report = json.loads(text)
    except ValueError:
        return text
    report.pop("timing_seconds", None)
    for criterion in report.get("results", {}).get("criteria", []):
        criterion.pop("seconds", None)
    return json.dumps(report, sort_keys=True)


def run(command: str) -> str:
    argv = command.split()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        cwd, out_dir = os.getcwd(), os.environ.get("PHOTONWEAVE_OUT_DIR")
        os.chdir(tmp)
        os.environ["PHOTONWEAVE_OUT_DIR"] = tmp
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
            if out_dir is None:
                del os.environ["PHOTONWEAVE_OUT_DIR"]
            else:
                os.environ["PHOTONWEAVE_OUT_DIR"] = out_dir
        report = stdout.getvalue()
        if argv[0] != "export" and "--out" in argv:
            path = os.path.join(tmp, argv[argv.index("--out") + 1])
            if os.path.exists(path):
                with open(path) as fh:
                    report = fh.read()
        csv = None
        if "--csv" in argv:
            path = os.path.join(tmp, argv[argv.index("--csv") + 1])
            if os.path.exists(path):
                with open(path) as fh:
                    csv = fh.read()
    return (f"exit={code} report={digest(without_timing(report))} "
            f"stderr={digest(stderr.getvalue())} csv={digest(csv)}  {command}")


def main() -> int:
    for command in COMMANDS:
        print(run(command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
