"""Smoke runs of the experiment scripts, as a user runs them from a checkout."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("resource, n, words", [("zigzag", 6, 27), ("path_every_third", 10, 81)])
def test_word_sweep_script(resource, n, words, tmp_path):
    csv = tmp_path / "shapes.csv"
    summary = json.loads(run_script("scripts/word_sweep.py", "--resource", resource,
                                    "--n", str(n), "--csv", str(csv)))
    assert summary["resource"] == resource and summary["n"] == n
    assert summary["words"] == words == sum(summary["classes"].values())
    assert summary["mismatches"] == []
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == words
    if resource == "path_every_third":
        # the report labels the graph the check compares against
        assert all(row.split(",")[1] == row.split(",")[2] for row in rows)


@pytest.mark.parametrize("flags, message", [
    # the default --n 8 on a resource that needs n = 3m + 1
    (["--resource", "path_every_third"], "needs n = 3m + 1 so both path ends are server-held"),
    (["--n", "7"], "zigzag needs even n >= 6"),
    (["--n", "40"], "zigzag n=40 has 3^20 words; sweeps stop at 6561"),
])
def test_word_sweep_script_rejects_sizes(flags, message):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "scripts/word_sweep.py", *flags], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"word_sweep.py: error: {message}"


def test_protocol_table_script():
    lines = run_script("scripts/protocol_table.py", "--trials", "200", "--seed", "1").splitlines()
    assert lines[0].split() == ["protocol", "exact", "estimate", "3*sigma"]
    rows = lines[1:-1]
    assert len(rows) == 14  # GHZ M=2..6, path M=2..5, cycle M=3..5, two caterpillars
    for row in rows:
        exact, estimate, three_sigma = map(float, row.split()[-3:])
        assert 0 < exact <= 0.5 and 0 <= estimate <= 1 and three_sigma >= 0
    assert lines[-1].startswith("worst deviation:")


def test_protocol_table_script_zero_successes():
    # at 30 trials cycle M=5 (exact 1/64) sees no success on this seed; the
    # pull uses the binomial spread at the exact probability, so it passes
    lines = run_script("scripts/protocol_table.py", "--trials", "30", "--seed", "3").splitlines()
    cycle5 = next(row for row in lines if row.startswith("cycle M=5"))
    assert float(cycle5.split()[-2]) == 0.0
    assert float(lines[-1].split()[2]) <= 5


def test_cli_matrix_script():
    # the digests are pinned in tests/cli_matrix.txt: a report change edits that file
    lines = run_script("scripts/cli_matrix.py").splitlines()
    assert lines == (ROOT / "tests" / "cli_matrix.txt").read_text().splitlines()
    assert len(lines) == len(set(lines)) >= 40
    fields = [line.split()[:4] for line in lines]
    assert {f[0] for f in fields} == {"exit=0", "exit=1", "exit=2"}
    assert all(re.fullmatch(r"(report|stderr|csv)=([0-9a-f]{16}|-)", field)
               for f in fields for field in f[1:])
    assert {line.split("  ", 1)[1].split()[0] for line in lines} == {
        "simulate", "classify", "verify", "montecarlo", "export"}
